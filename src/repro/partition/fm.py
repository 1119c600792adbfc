"""Fiduccia–Mattheyses min-cut bipartitioning.

The paper's flow (Fig. 4) has two chipletization branches: hierarchical
partitioning (used for the main results) and flattening partitioning.
This module implements the flattening branch: a gain-bucket FM
bipartitioner over the flat gate-level netlist, minimizing the number of
cut nets under an area-balance constraint.

On the OpenPiton tile the expected behaviour — asserted by tests — is that
FM rediscovers a cut close to the L3 interface, because the synthetic
netlist has the same locality structure as the real design.

FM runs on the integer CSR hypergraph of :mod:`repro.partition.hypergraph`
(see GUIDE §11, "Partitioner internals", for the tie-break contract that
keeps every move identical to the original name-keyed implementation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from ..arch.netlist import Netlist
from .hypergraph import Hypergraph, SubHypergraph


@dataclass
class PartitionResult:
    """Outcome of a bipartitioning run.

    Attributes:
        assignment: instance name → partition id (0 or 1).
        cut_nets: Names of nets with pins in both partitions.
        passes: Number of FM passes executed.
        cut_history: Cut size after each pass (monotone non-increasing).
        fm_moves: Tentative moves, summed over passes and restarts — a
            deterministic work counter.
    """

    assignment: Dict[str, int]
    cut_nets: Set[str]
    passes: int
    cut_history: List[int] = field(default_factory=list)
    fm_moves: int = 0

    @property
    def cut_size(self) -> int:
        """Number of cut nets."""
        return len(self.cut_nets)

    def side(self, partition: int) -> List[str]:
        """Instance names in one partition."""
        return [n for n, p in self.assignment.items() if p == partition]


def cut_nets(netlist: Netlist, assignment: Dict[str, int]) -> Set[str]:
    """Nets with endpoints in more than one part of the assignment."""
    graph = Hypergraph(netlist)
    return graph.cut_names(graph.parts_of(assignment))


@dataclass
class FMRun:
    """One FM run on a sub-hypergraph, in local indices.

    ``order`` is the random initial assignment's shuffled order (``None``
    when the run started from a given assignment).
    """

    part: List[int]
    cut: int
    passes: int
    history: List[int]
    moves: int
    order: Optional[List[int]]


def _fm_run(g: SubHypergraph, start: Optional[List[int]],
            balance_tolerance: float, max_passes: int, seed: int) -> FMRun:
    """One FM run from ``start`` (or a seeded random balanced split)."""
    n = len(g.areas)
    areas = g.areas
    rank = g.name_rank
    net_pins = g.net_pins
    cell_nets = g.cell_nets
    total_area = sum(areas)
    lo = (0.5 - balance_tolerance) * total_area
    hi = (0.5 + balance_tolerance) * total_area

    order: Optional[List[int]] = None
    if start is None:
        order = list(range(n))
        random.Random(seed).shuffle(order)
        assign = [0] * n
        acc = 0.0
        for c in order:
            if acc < total_area / 2:
                acc += areas[c]
            else:
                assign[c] = 1
    else:
        assign = list(start)

    M = g.max_deg
    T = 2 * M
    best = assign[:]
    best_cut = g.cut_size(np.asarray(assign))
    history: List[int] = []
    passes = 0
    moves_total = 0
    # Distinct cells per net: once all of a net's cells are locked its
    # neighbour updates are no-ops and are skipped.
    cells_on = np.bincount(g.inc_net, minlength=len(g.net_deg)).tolist()

    for _pass in range(max_passes):
        passes += 1
        part_arr = np.asarray(assign)
        c0, c1 = g.net_counts(part_arr)
        part_area = [0.0, 0.0]
        for c in range(n):
            part_area[assign[c]] += areas[c]

        # Initial gains, clamped to [-M, M] like every update and kept
        # as bucket slots ``gain + M``.
        inc_part = part_arr[g.inc_cell]
        n0, n1 = c0[g.inc_net], c1[g.inc_net]
        own = np.where(inc_part == 0, n0, n1)
        other = np.where(inc_part == 0, n1, n0)
        contrib = (own == 1).astype(np.int64) - (other == 0)
        slot = (np.clip(np.bincount(g.inc_cell, weights=contrib,
                                    minlength=n), -M, M) + M
                ).astype(np.int64).tolist()
        # Insertion-ordered buckets (dicts as ordered sets) per side and
        # slot; the tail is the LIFO pick.
        buckets = [[{} for _ in range(T + 1)] for _ in range(2)]
        top = [-1, -1]
        for c in range(n):
            p = assign[c]
            s = slot[c]
            buckets[p][s][c] = None
            if s > top[p]:
                top[p] = s

        state = assign[:]  # side of an unlocked cell, 2 once locked
        free = cells_on[:]
        counts = [c0.tolist(), c1.tolist()]
        cur_cut = int(np.count_nonzero((c0 > 0) & (c1 > 0)))
        best_in_pass = cur_cut
        best_len = 0
        moves: List[int] = []

        while True:
            # Highest-gain legal move: each side offers the tail of its
            # best non-empty bucket; equal gains go to the larger name.
            pick = -1
            for p in (0, 1):
                bk = buckets[p]
                s = top[p]
                while s >= 0 and not bk[s]:
                    s -= 1
                top[p] = s
                if s < 0:
                    continue
                c = next(reversed(bk[s]))
                a = areas[c]
                if part_area[1 - p] + a <= hi and part_area[p] - a >= lo:
                    if pick < 0 or s > pick_s or (s == pick_s
                                                  and rank[c] > rank[pick]):
                        pick, src, pick_s = c, p, s
            if pick < 0:
                break
            c = pick
            del buckets[src][pick_s][c]
            dst = 1 - src
            state[c] = 2
            moves.append(c)
            a = areas[c]
            part_area[src] -= a
            part_area[dst] += a
            cur_cut -= pick_s - M
            c_src = counts[src]
            c_dst = counts[dst]
            b_src = buckets[src]
            b_dst = buckets[dst]
            # Incremental gain updates for neighbours on touched nets,
            # judged on the pin counts before (d) and after (r) the move.
            for e in cell_nets[c]:
                d = c_dst[e]
                c_dst[e] = d + 1
                r = c_src[e] - 1
                c_src[e] = r
                f = free[e] - 1
                free[e] = f
                if not f:
                    continue
                pins = net_pins[e]
                if d == 0:
                    for o in pins:
                        st = state[o]
                        if st != 2:
                            s = slot[o]
                            if s < T:
                                bk = buckets[st]
                                del bk[s][o]
                                s += 1
                                bk[s][o] = None
                                slot[o] = s
                                if s > top[st]:
                                    top[st] = s
                elif d == 1:
                    for o in pins:
                        if state[o] == dst:
                            s = slot[o]
                            if s:
                                del b_dst[s][o]
                                s -= 1
                                b_dst[s][o] = None
                                slot[o] = s
                if r == 0:
                    for o in pins:
                        st = state[o]
                        if st != 2:
                            s = slot[o]
                            if s:
                                bk = buckets[st]
                                del bk[s][o]
                                s -= 1
                                bk[s][o] = None
                                slot[o] = s
                elif r == 1:
                    for o in pins:
                        if state[o] == src:
                            s = slot[o]
                            if s < T:
                                del b_src[s][o]
                                s += 1
                                b_src[s][o] = None
                                slot[o] = s
                                if s > top[src]:
                                    top[src] = s
            if cur_cut < best_in_pass:
                best_in_pass = cur_cut
                best_len = len(moves)

        moves_total += len(moves)
        # Roll forward only the prefix of moves that reached the best cut.
        for c in moves[:best_len]:
            assign[c] = 1 - assign[c]
        pass_cut = g.cut_size(np.asarray(assign))
        history.append(pass_cut)
        if pass_cut < best_cut:
            best_cut = pass_cut
            best = assign[:]
        if not best_len:
            break

    return FMRun(part=best, cut=best_cut, passes=passes, history=history,
                moves=moves_total, order=order)


def fm_run(g: SubHypergraph, start: Optional[List[int]],
           balance_tolerance: float, max_passes: int, seed: int,
           restarts: int = 3) -> FMRun:
    """FM on a sub-hypergraph, from ``start`` or from random restarts.

    With ``start`` None and ``restarts > 1``, restart ``r`` uses seed
    ``seed + 7919 * r``; the first run with the smallest cut wins, and
    its ``moves`` become the sum over every run.
    """
    if start is not None or restarts <= 1:
        return _fm_run(g, start, balance_tolerance, max_passes, seed)
    best: Optional[FMRun] = None
    moves = 0
    for r in range(restarts):
        cand = _fm_run(g, None, balance_tolerance, max_passes,
                       seed + 7919 * r)
        moves += cand.moves
        if best is None or cand.cut < best.cut:
            best = cand
    best.moves = moves
    return best


def fm_bipartition(netlist: Netlist,
                   initial: Optional[Dict[str, int]] = None,
                   balance_tolerance: float = 0.45,
                   max_passes: int = 8,
                   seed: int = 7,
                   restarts: int = 3) -> PartitionResult:
    """Run FM bipartitioning to minimize cut nets.

    FM is a local-search heuristic, so (when no ``initial`` assignment is
    pinned) it runs from several random starts and keeps the best.

    Args:
        netlist: Flat netlist to partition.
        initial: Optional starting assignment; random balanced otherwise.
        balance_tolerance: Each side must hold within
            ``(0.5 ± tolerance)`` of the total cell area.  The paper's
            logic/memory split is area-asymmetric, so the default is loose.
        max_passes: FM pass limit (each pass tentatively moves every cell).
        seed: RNG seed for the random initial assignment.
        restarts: Random restarts (ignored when ``initial`` is given).

    Returns:
        The best assignment found; ``cut_history`` never increases.

    Raises:
        ValueError: On fewer than two instances, a tolerance outside
            ``(0, 0.5)``, or an ``initial`` assignment that names an
            unknown instance, uses a part id other than 0/1, or misses
            an instance.
    """
    if len(netlist.instances) < 2:
        raise ValueError("need at least two instances to bipartition")
    if not 0 < balance_tolerance < 0.5:
        raise ValueError("balance_tolerance must be in (0, 0.5)")
    graph = Hypergraph(netlist)
    start = None
    if initial is not None:
        for name, part in initial.items():
            if name not in netlist.instances:
                raise ValueError(f"initial assignment names unknown "
                                 f"instance {name!r}")
            if part not in (0, 1):
                raise ValueError(f"initial assignment puts {name!r} in "
                                 f"part {part!r}; parts are 0 and 1")
        missing = [n for n in graph.names if n not in initial]
        if missing:
            raise ValueError(f"initial assignment missing {len(missing)} "
                             f"instances, e.g. {missing[0]!r}")
        start = [int(initial[n]) for n in graph.names]
    g = graph.sub(np.arange(len(graph)))
    run = fm_run(g, start, balance_tolerance, max_passes, seed, restarts)
    names = graph.names
    if run.order is None:
        part_of = dict(zip(names, run.part))
        assignment = {n: part_of[n] for n in initial}
    else:
        assignment = {names[c]: run.part[c] for c in run.order}
    c0, c1 = g.net_counts(np.asarray(run.part))
    nets = g.nets[(c0 > 0) & (c1 > 0)]
    return PartitionResult(assignment=assignment,
                           cut_nets={graph.net_names[e] for e in nets},
                           passes=run.passes, cut_history=run.history,
                           fm_moves=run.moves)
