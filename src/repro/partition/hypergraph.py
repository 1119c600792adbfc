"""Integer CSR hypergraph of a netlist, the partitioner's one data model.

Every partitioning pass (FM bisection, recursive bisection, the N-way
pair sweep, cut counting) works on integer indices rather than
instance and net names.  Each entry point builds one :class:`Hypergraph`
of its :class:`~repro.arch.netlist.Netlist` and shares it across every
FM run and cut count it makes; :meth:`Hypergraph.sub` carves an
index-mask sub-problem out of it without building a sub-netlist.

Layout (``n`` instances, ``m`` nets, both in netlist order):

- ``pin_ptr[e]:pin_ptr[e + 1]`` slices ``pin_cell`` to net ``e``'s pins:
  the driver first (when the net has one), then the sinks in order,
  duplicates kept;
- ``cell_ptr[c]:cell_ptr[c + 1]`` slices ``cell_net`` to the distinct
  nets of instance ``c``, sorted by net name;
- ``name_rank[c]`` is instance ``c``'s position in name order, so name
  comparisons become integer comparisons;
- ``areas`` holds the cell areas as Python floats, summed in index order
  exactly as a loop over ``netlist.instances`` would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Set, Tuple

import numpy as np

from ..arch.netlist import Netlist


def _sorted_rank(keys: List[str]) -> np.ndarray:
    """Position of each key in sorted order."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys))
    return rank


def _csr_rows(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenated element positions of CSR rows ``rows``, in order."""
    lengths = ptr[rows + 1] - ptr[rows]
    starts = np.repeat(ptr[rows] - np.cumsum(lengths) + lengths, lengths)
    return starts + np.arange(int(lengths.sum()))


@dataclass
class SubHypergraph:
    """The sub-problem induced by a sorted array of instance indices.

    Local instance ``i`` is the ``i``-th of those; local nets are
    the parent nets with at least one pin inside, in parent order, each
    keeping only its inside pins (driver first, duplicates kept).  The
    list views feed FM's per-move loop; the arrays feed its per-pass
    vectorized counts.
    """

    areas: List[float]
    name_rank: List[int]
    net_pins: List[List[int]]
    cell_nets: List[List[int]]
    max_deg: int
    pin_cell: np.ndarray
    pin_net: np.ndarray
    net_deg: np.ndarray
    inc_cell: np.ndarray
    inc_net: np.ndarray
    nets: np.ndarray

    def net_counts(self, part: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Pins per net on side 0 and side 1 of a 0/1 ``part`` array."""
        c1 = np.bincount(self.pin_net[part[self.pin_cell] == 1],
                         minlength=len(self.net_deg))
        return self.net_deg - c1, c1

    def cut_size(self, part: np.ndarray) -> int:
        """Nets with pins on both sides of ``part``."""
        c0, c1 = self.net_counts(part)
        return int(np.count_nonzero((c0 > 0) & (c1 > 0)))


class Hypergraph:
    """CSR arrays of one netlist (see the module docstring)."""

    def __init__(self, netlist: Netlist):
        self.names: List[str] = list(netlist.instances)
        self.net_names: List[str] = list(netlist.nets)
        index = {name: i for i, name in enumerate(self.names)}
        self.areas: List[float] = [netlist.cell(name).area_um2
                                   for name in self.names]
        self.name_rank = _sorted_rank(self.names)
        pins: List[int] = []
        ptr = [0]
        for net in netlist.nets.values():
            if net.driver:
                pins.append(index[net.driver])
            pins.extend([index[s] for s in net.sinks])
            ptr.append(len(pins))
        n, m = len(self.names), len(self.net_names)
        self.pin_ptr = np.asarray(ptr, dtype=np.int64)
        self.pin_cell = np.asarray(pins, dtype=np.int64)
        self.net_deg = np.diff(self.pin_ptr)
        self.pin_net = np.repeat(np.arange(m, dtype=np.int64), self.net_deg)
        # Distinct (instance, net) incidences, nets in name order.
        net_rank = _sorted_rank(self.net_names)
        by_rank = np.empty(m, dtype=np.int64)
        by_rank[net_rank] = np.arange(m)
        width = max(m, 1)
        key = np.unique(self.pin_cell * width + net_rank[self.pin_net])
        self.cell_net = by_rank[key % width]
        self.cell_deg = np.bincount(key // width, minlength=n)
        self.cell_ptr = np.concatenate(([0], np.cumsum(self.cell_deg)))

    def __len__(self) -> int:
        return len(self.names)

    def parts_of(self, assignment: Mapping[str, int]) -> np.ndarray:
        """Part id per instance index from a name-keyed assignment.

        Raises:
            KeyError: If a net endpoint has no part in ``assignment``.
        """
        parts = np.fromiter(
            (assignment.get(name, -1) for name in self.names),
            dtype=np.int64, count=len(self.names))
        missing = np.flatnonzero(parts[self.pin_cell] < 0)
        if len(missing):
            name = self.names[self.pin_cell[missing[0]]]
            if name not in assignment:
                raise KeyError(name)
        return parts

    def cut_mask(self, parts: np.ndarray) -> np.ndarray:
        """Per net: do its pins span two or more parts?"""
        pin_part = parts[self.pin_cell]
        live = self.net_deg > 0
        starts = self.pin_ptr[:-1][live]
        cut = np.zeros(len(self.net_deg), dtype=bool)
        if len(starts):
            cut[live] = (np.minimum.reduceat(pin_part, starts)
                         != np.maximum.reduceat(pin_part, starts))
        return cut

    def cut_size(self, parts: np.ndarray) -> int:
        """Number of nets spanning two or more parts."""
        return int(np.count_nonzero(self.cut_mask(parts)))

    def cut_names(self, parts: np.ndarray) -> Set[str]:
        """Names of the nets spanning two or more parts."""
        names = self.net_names
        return {names[e] for e in np.flatnonzero(self.cut_mask(parts))}

    def sub(self, cells: np.ndarray) -> SubHypergraph:
        """The sub-problem on ``cells`` (sorted parent indices)."""
        cells = np.asarray(cells, dtype=np.int64)
        local = np.full(len(self.names), -1, dtype=np.int64)
        local[cells] = np.arange(len(cells))
        pin_local = local[self.pin_cell]
        keep = pin_local >= 0
        pin_cell = pin_local[keep]
        kept_net = self.pin_net[keep]
        counts = np.bincount(kept_net, minlength=len(self.net_deg))
        nets = np.flatnonzero(counts)
        net_local = np.full(len(self.net_deg), -1, dtype=np.int64)
        net_local[nets] = np.arange(len(nets))
        net_deg = counts[nets]
        pin_net = net_local[kept_net]
        cell_deg = self.cell_deg[cells]
        inc_net = net_local[self.cell_net[_csr_rows(self.cell_ptr, cells)]]
        inc_cell = np.repeat(np.arange(len(cells), dtype=np.int64), cell_deg)
        flat_pins = pin_cell.tolist()
        pin_ptr = np.concatenate(([0], np.cumsum(net_deg))).tolist()
        flat_nets = inc_net.tolist()
        cell_ptr = np.concatenate(([0], np.cumsum(cell_deg))).tolist()
        areas = self.areas
        return SubHypergraph(
            areas=[areas[c] for c in cells.tolist()],
            name_rank=self.name_rank[cells].tolist(),
            net_pins=[flat_pins[a:b] for a, b in zip(pin_ptr, pin_ptr[1:])],
            cell_nets=[flat_nets[a:b]
                       for a, b in zip(cell_ptr, cell_ptr[1:])],
            max_deg=int(cell_deg.max()) if len(cells) else 1,
            pin_cell=pin_cell, pin_net=pin_net, net_deg=net_deg,
            inc_cell=inc_cell, inc_net=inc_net, nets=nets)
