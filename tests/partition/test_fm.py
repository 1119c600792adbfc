"""Unit + property tests for Fiduccia–Mattheyses partitioning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.netlist import Netlist
from repro.partition.fm import cut_nets, fm_bipartition
from repro.tech.stdcell import N28_LIB


def two_cliques(n_per_side=6, bridge_nets=1):
    """Two internally-dense clusters joined by a few bridge nets."""
    nl = Netlist("cliques", N28_LIB)
    sides = []
    for s in range(2):
        names = []
        for i in range(n_per_side):
            name = f"s{s}_{i}"
            nl.add_instance(name, "INV_X1", f"side{s}")
            names.append(name)
        for i in range(n_per_side):
            nl.add_net(f"s{s}_net{i}", names[i],
                       [names[(i + 1) % n_per_side],
                        names[(i + 2) % n_per_side]])
        sides.append(names)
    for b in range(bridge_nets):
        nl.add_net(f"bridge{b}", sides[0][b], [sides[1][b]])
    return nl, sides


class TestFmOnKnownGraphs:
    def test_finds_the_obvious_cut(self):
        nl, sides = two_cliques()
        result = fm_bipartition(nl, seed=1)
        assert result.cut_size == 1

    def test_cut_history_non_increasing(self):
        nl, _ = two_cliques(n_per_side=10, bridge_nets=3)
        result = fm_bipartition(nl, seed=2)
        for a, b in zip(result.cut_history, result.cut_history[1:]):
            assert b <= a

    def test_assignment_covers_all_instances(self):
        nl, _ = two_cliques()
        result = fm_bipartition(nl, seed=1)
        assert set(result.assignment) == set(nl.instances)
        assert set(result.assignment.values()) <= {0, 1}

    def test_cut_nets_consistent(self):
        nl, _ = two_cliques()
        result = fm_bipartition(nl, seed=1)
        assert result.cut_nets == cut_nets(nl, result.assignment)

    def test_sides_accessor(self):
        nl, _ = two_cliques()
        result = fm_bipartition(nl, seed=1)
        assert (len(result.side(0)) + len(result.side(1))
                == len(nl.instances))

    def test_respects_initial_assignment(self):
        nl, sides = two_cliques()
        initial = {n: 0 for n in sides[0]}
        initial.update({n: 1 for n in sides[1]})
        result = fm_bipartition(nl, initial=initial, max_passes=2)
        assert result.cut_size <= 1

    def test_incomplete_initial_rejected(self):
        nl, sides = two_cliques()
        with pytest.raises(ValueError, match="missing"):
            fm_bipartition(nl, initial={sides[0][0]: 0})

    def test_unknown_initial_instance_rejected(self):
        nl, sides = two_cliques()
        initial = {n: 0 for n in sides[0]}
        initial.update({n: 1 for n in sides[1]})
        initial["not_an_instance"] = 1
        with pytest.raises(ValueError, match="'not_an_instance'"):
            fm_bipartition(nl, initial=initial)

    def test_out_of_range_initial_part_rejected(self):
        nl, sides = two_cliques()
        initial = {n: 0 for n in sides[0]}
        initial.update({n: 1 for n in sides[1]})
        initial[sides[1][2]] = 2
        with pytest.raises(ValueError, match=repr(sides[1][2])):
            fm_bipartition(nl, initial=initial)

    def test_single_instance_rejected(self):
        nl = Netlist("one", N28_LIB)
        nl.add_instance("a", "INV_X1")
        with pytest.raises(ValueError):
            fm_bipartition(nl)

    def test_bad_tolerance_rejected(self):
        nl, _ = two_cliques()
        with pytest.raises(ValueError):
            fm_bipartition(nl, balance_tolerance=0.6)


class TestFmOnTile:
    def test_fm_beats_random_on_tile(self, tile_netlist):
        import random
        rng = random.Random(0)
        random_assign = {n: rng.randint(0, 1)
                         for n in tile_netlist.instances}
        random_cut = len(cut_nets(tile_netlist, random_assign))
        result = fm_bipartition(tile_netlist, max_passes=3, seed=1)
        assert result.cut_size < random_cut / 3

    def test_balance_respected_loosely(self, tile_netlist):
        result = fm_bipartition(tile_netlist, max_passes=2,
                                balance_tolerance=0.45, seed=1)
        areas = [0.0, 0.0]
        for name, part in result.assignment.items():
            areas[part] += tile_netlist.cell(name).area_um2
        total = sum(areas)
        assert 0.05 * total <= areas[0] <= 0.95 * total


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000),
       bridges=st.integers(min_value=1, max_value=4))
def test_fm_cut_never_exceeds_bridges(seed, bridges):
    """Property: on the two-clique graph the optimum is `bridges`; FM
    must find a cut no worse than a few times that."""
    nl, _ = two_cliques(n_per_side=8, bridge_nets=bridges)
    result = fm_bipartition(nl, seed=seed, max_passes=6)
    assert result.cut_size <= 3 * bridges
