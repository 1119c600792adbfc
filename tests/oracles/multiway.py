"""Reference k-way partitioners over the string-keyed FM oracle.

``recursive_bisection`` and ``nway_partition`` exactly as the package
shipped them before the CSR rewrite, running on
:func:`tests.oracles.fm.fm_bipartition` and ``Netlist.subset``.  The only
addition is the ``fm_moves`` work counter; it leaves out the moves of
pairs that start uncut, which cannot change the result and which the
package therefore never runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.arch.netlist import Netlist

from .fm import cut_nets, fm_bipartition


@dataclass
class MultiwayResult:
    """A k-way partition of a netlist (see the package class)."""

    assignment: Dict[str, int]
    k: int
    cut_nets: Set[str]
    fm_moves: int = 0

    @property
    def cut_size(self) -> int:
        """Number of nets spanning multiple parts."""
        return len(self.cut_nets)


def multiway_cut_nets(netlist: Netlist,
                      assignment: Dict[str, int]) -> Set[str]:
    """Nets whose pins span two or more parts."""
    out: Set[str] = set()
    for net in netlist.nets.values():
        endpoints = ([net.driver] if net.driver else []) + net.sinks
        parts = {assignment[e] for e in endpoints}
        if len(parts) > 1:
            out.add(net.name)
    return out


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
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(netlist.instances):
        raise ValueError("more parts than instances")

    assignment: Dict[str, int] = {n: 0 for n in netlist.instances}
    next_id = [1]
    moves = [0]

    def split(names: List[str], parts: int, part_id: int,
              depth: int) -> None:
        if parts <= 1 or len(names) < 2:
            return
        left_parts = parts // 2
        right_parts = parts - left_parts
        sub = netlist.subset(names, name=f"part{part_id}")
        result = fm_bipartition(sub,
                                balance_tolerance=balance_tolerance,
                                max_passes=max_passes,
                                seed=seed + 31 * depth + part_id)
        moves[0] += result.fm_moves
        side0 = result.side(0)
        side1 = result.side(1)
        # Keep the larger side where more parts are needed.
        if (len(side1) > len(side0)) != (right_parts > left_parts):
            side0, side1 = side1, side0
        new_id = next_id[0]
        next_id[0] += 1
        for n in side1:
            assignment[n] = new_id
        split(side0, left_parts, part_id, depth + 1)
        split(side1, right_parts, new_id, depth + 1)

    split(list(netlist.instances), k, 0, 0)
    # Densify part ids.
    used = sorted({p for p in assignment.values()})
    remap = {old: new for new, old in enumerate(used)}
    assignment = {n: remap[p] for n, p in assignment.items()}
    return MultiwayResult(assignment=assignment, k=len(used),
                          cut_nets=multiway_cut_nets(netlist, assignment),
                          fm_moves=moves[0])


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
    to a single FM polish of the bisection.

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
    base = recursive_bisection(netlist, k,
                               balance_tolerance=balance_tolerance,
                               seed=seed, max_passes=max_passes)
    assignment = dict(base.assignment)
    best_cut = base.cut_size
    moves = base.fm_moves
    for i in range(base.k):
        for j in range(i + 1, base.k):
            union = [n for n in netlist.instances
                     if assignment[n] in (i, j)]
            if len(union) < 2:
                continue
            if not any(assignment[n] == i for n in union) or \
                    not any(assignment[n] == j for n in union):
                continue
            sub = netlist.subset(union, name=f"pair{i}_{j}")
            initial = {n: 0 if assignment[n] == i else 1 for n in union}
            refined = fm_bipartition(sub, initial=initial,
                                     balance_tolerance=balance_tolerance,
                                     max_passes=max_passes,
                                     seed=seed + 101 * i + j)
            # A pair that starts uncut cannot change the result, and the
            # package skips it; only the other pairs' moves are counted.
            if cut_nets(sub, initial):
                moves += refined.fm_moves
            candidate = dict(assignment)
            for n in union:
                candidate[n] = i if refined.assignment[n] == 0 else j
            cand_cut = len(multiway_cut_nets(netlist, candidate))
            if cand_cut < best_cut:
                assignment = candidate
                best_cut = cand_cut
    return MultiwayResult(assignment=assignment, k=base.k,
                          cut_nets=multiway_cut_nets(netlist, assignment),
                          fm_moves=moves)
