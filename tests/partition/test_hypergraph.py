"""The partitioner's integer CSR hypergraph: layout, sub-problems, cuts."""

import numpy as np
import pytest

from repro.arch.netlist import Netlist
from repro.partition.hypergraph import Hypergraph
from repro.tech.stdcell import N28_LIB


def small():
    nl = Netlist("small", N28_LIB)
    for name, cell in (("c", "INV_X1"), ("a", "DFF_X1"), ("b", "FA_X1"),
                       ("d", "NAND2_X1")):
        nl.add_instance(name, cell)
    nl.add_net("z", "a", ["b", "b", "c"])   # duplicate sink
    nl.add_net("y", None, ["d"])            # driverless, single pin
    nl.add_net("x", "c", ["a"])
    return nl


def test_layout():
    nl = small()
    g = Hypergraph(nl)
    assert g.names == ["c", "a", "b", "d"]
    assert g.net_names == ["z", "y", "x"]
    # Driver first, duplicate sinks kept.
    assert g.pin_ptr.tolist() == [0, 4, 5, 7]
    assert g.pin_cell.tolist() == [1, 2, 2, 0, 3, 0, 1]
    # Distinct nets per instance, in net-name order ("x" < "z").
    rows = [g.cell_net[g.cell_ptr[c]:g.cell_ptr[c + 1]].tolist()
            for c in range(4)]
    assert rows == [[2, 0], [2, 0], [0], [1]]
    assert g.name_rank.tolist() == [2, 0, 1, 3]
    assert g.areas == [nl.cell(n).area_um2 for n in g.names]


def test_sub_hypergraph_keeps_inside_pins_in_order():
    g = Hypergraph(small())
    sub = g.sub(np.array([1, 2]))           # a, b
    assert sub.nets.tolist() == [0, 2]      # z and x touch them
    assert sub.net_pins == [[0, 1, 1], [0]]
    assert sub.cell_nets == [[1, 0], [0]]
    assert sub.max_deg == 2


def test_cut_counts():
    nl = small()
    g = Hypergraph(nl)
    parts = g.parts_of({"a": 0, "b": 1, "c": 0, "d": 2})
    assert g.cut_names(parts) == {"z"}
    assert g.cut_size(np.array([0, 0, 0, 0])) == 0


def test_missing_endpoint_part_raises():
    g = Hypergraph(small())
    with pytest.raises(KeyError, match="'b'"):
        g.parts_of({"a": 0, "c": 0, "d": 1})
