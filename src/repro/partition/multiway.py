"""Multi-way partitioning: recursive FM bisection plus a pairwise FM sweep.

The paper splits each tile two ways (logic/memory); finer chipletization
— its natural follow-on — needs k-way partitioning.  This module builds
k parts by recursive FM bisection with area balancing
(:func:`recursive_bisection`), then refines them by re-bipartitioning
every part pair's union with FM and keeping strict cut improvements
(:func:`nway_partition`).  There is no multilevel coarsening and no
k-way boundary refinement: every FM run is flat.

All of it runs on the netlist's integer CSR hypergraph
(:mod:`repro.partition.hypergraph`): sub-problems are index masks, cut
counts are vectorized, and no sub-netlist is built.  The pair sweep
skips a pair whose parts share no net — its FM run would start at cut 0
and could not change the result (GUIDE §11, "Partitioner internals").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from ..arch.netlist import Netlist
from .fm import cut_nets, fm_run
from .hypergraph import Hypergraph


@dataclass
class MultiwayResult:
    """A k-way partition of a netlist.

    Attributes:
        assignment: instance → part id in [0, k).
        k: Number of parts.
        cut_nets: Nets spanning more than one part.
        fm_moves: Tentative FM moves over every bisection and pair run —
            a deterministic work counter.
    """

    assignment: Dict[str, int]
    k: int
    cut_nets: Set[str]
    fm_moves: int = 0

    @property
    def cut_size(self) -> int:
        """Number of nets spanning multiple parts."""
        return len(self.cut_nets)

    def part(self, index: int) -> List[str]:
        """Instance names assigned to one part."""
        return [n for n, p in self.assignment.items() if p == index]

    def part_areas(self, netlist: Netlist) -> List[float]:
        """Total cell area per part."""
        areas = [0.0] * self.k
        for name, p in self.assignment.items():
            areas[p] += netlist.cell(name).area_um2
        return areas


def multiway_cut_nets(netlist: Netlist,
                      assignment: Dict[str, int]) -> Set[str]:
    """Nets whose pins span two or more parts."""
    return cut_nets(netlist, assignment)


def _bisect(graph: Hypergraph, k: int, balance_tolerance: float,
            seed: int, max_passes: int) -> Tuple[np.ndarray, int]:
    """Recursive bisection on the CSR: dense part ids and FM moves."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(graph):
        raise ValueError("more parts than instances")
    if k > 1 and not 0 < balance_tolerance < 0.5:
        raise ValueError("balance_tolerance must be in (0, 0.5)")
    part = np.zeros(len(graph), dtype=np.int64)
    next_id = 1
    moves = 0

    def split(cells: np.ndarray, parts: int, part_id: int,
              depth: int) -> None:
        nonlocal next_id, moves
        if parts <= 1 or len(cells) < 2:
            return
        left_parts = parts // 2
        right_parts = parts - left_parts
        run = fm_run(graph.sub(cells), None, balance_tolerance, max_passes,
                     seed + 31 * depth + part_id)
        moves += run.moves
        side = np.asarray(run.part)
        side0, side1 = cells[side == 0], cells[side == 1]
        # Keep the larger side where more parts are needed.
        if (len(side1) > len(side0)) != (right_parts > left_parts):
            side0, side1 = side1, side0
        new_id = next_id
        next_id += 1
        part[side1] = new_id
        split(side0, left_parts, part_id, depth + 1)
        split(side1, right_parts, new_id, depth + 1)

    split(np.arange(len(graph)), k, 0, 0)
    # Densify part ids.
    return np.unique(part, return_inverse=True)[1].reshape(-1), moves


def _result(graph: Hypergraph, part: np.ndarray, k: int,
            moves: int) -> MultiwayResult:
    return MultiwayResult(assignment=dict(zip(graph.names, part.tolist())),
                          k=k, cut_nets=graph.cut_names(part),
                          fm_moves=moves)


def recursive_bisection(netlist: Netlist, k: int,
                        balance_tolerance: float = 0.35,
                        seed: int = 7,
                        max_passes: int = 5) -> MultiwayResult:
    """Partition a netlist into ``k`` parts by recursive FM bisection.

    Each bisection splits the target part count as evenly as possible
    and biases the area balance accordingly (a 3-way split first cuts
    1/3 vs 2/3).

    Args:
        netlist: The flat netlist.
        k: Number of parts (>= 1).
        balance_tolerance: Per-bisection area tolerance.
        seed: RNG seed.
        max_passes: FM passes per bisection.

    Returns:
        A :class:`MultiwayResult`; part ids are dense in [0, k).
    """
    graph = Hypergraph(netlist)
    part, moves = _bisect(graph, k, balance_tolerance, seed, max_passes)
    return _result(graph, part, int(part.max()) + 1, moves)


def nway_partition(netlist: Netlist, k: int,
                   balance_tolerance: float = 0.35,
                   seed: int = 7,
                   max_passes: int = 5) -> MultiwayResult:
    """Direct N-way partitioning: recursive bisection plus pairwise FM.

    Starts from :func:`recursive_bisection` and then sweeps every part
    pair once, re-bipartitioning the pair's union with FM seeded from
    the current assignment; a pair move is accepted only when it
    strictly lowers the total multiway cut.  The result is therefore
    never worse than recursive bisection alone (the property the
    N-chiplet tests pin), and at ``k == 2`` the refinement degenerates
    to a single FM polish of the bisection.  A pair whose parts share no
    net is skipped: FM would start it at cut 0 and keep it unchanged.

    Pair order and all tie-breaks follow parent-netlist instance order,
    so the assignment is byte-stable under ``PYTHONHASHSEED``.

    Args:
        netlist: The flat netlist.
        k: Number of parts (>= 1).
        balance_tolerance: Area tolerance per bisection/refinement.
        seed: RNG seed (forwarded with deterministic per-stage offsets).
        max_passes: FM pass limit per bipartition.

    Returns:
        A :class:`MultiwayResult` with dense part ids in ``[0, k)``.
    """
    graph = Hypergraph(netlist)
    part, moves = _bisect(graph, k, balance_tolerance, seed, max_passes)
    parts = int(part.max()) + 1
    best_cut = graph.cut_size(part)
    nets = len(graph.net_deg)
    pin_part = part[graph.pin_cell]
    for i in range(parts):
        for j in range(i + 1, parts):
            in_i, in_j = part == i, part == j
            if not in_i.any() or not in_j.any():
                continue
            on_i = np.bincount(graph.pin_net[pin_part == i], minlength=nets)
            on_j = np.bincount(graph.pin_net[pin_part == j], minlength=nets)
            if not np.any((on_i > 0) & (on_j > 0)):
                continue  # starts at cut 0, so FM returns it unchanged
            union = np.flatnonzero(in_i | in_j)
            start = in_j[union].astype(np.int64)
            run = fm_run(graph.sub(union), start.tolist(),
                         balance_tolerance, max_passes,
                         seed + 101 * i + j)
            moves += run.moves
            refined = np.asarray(run.part)
            if np.array_equal(refined, start):
                continue
            candidate = part.copy()
            candidate[union] = np.where(refined == 0, i, j)
            cand_cut = graph.cut_size(candidate)
            if cand_cut < best_cut:
                part = candidate
                best_cut = cand_cut
                pin_part = part[graph.pin_cell]
    return _result(graph, part, parts, moves)


def pairwise_cut_links(netlist: Netlist, assignment: Dict[str, int]
                       ) -> Dict[Tuple[int, int], int]:
    """Two-terminal link counts between every part pair.

    Each cut net is decomposed star-style from its source part (the
    driver's part, or the lowest sink part for input-driven nets) to
    every other part it reaches — the PlaceIT recipe for deriving an
    inter-chiplet topology from a partition.  The returned counts are
    what the interposer router consumes as per-pair net bundles.

    Args:
        netlist: The partitioned netlist.
        assignment: instance → part id.

    Returns:
        ``{(min_part, max_part): link_count}`` with positive counts
        only; iteration-order independent (plain dict keyed by pair).
    """
    counts: Dict[Tuple[int, int], int] = {}
    for net in netlist.nets.values():
        endpoints = ([net.driver] if net.driver else []) + net.sinks
        parts = sorted({assignment[e] for e in endpoints})
        if len(parts) < 2:
            continue
        src = assignment[net.driver] if net.driver else parts[0]
        for p in parts:
            if p == src:
                continue
            key = (min(src, p), max(src, p))
            counts[key] = counts.get(key, 0) + 1
    return counts
