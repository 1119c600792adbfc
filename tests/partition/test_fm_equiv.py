"""The CSR partitioner against the string-keyed oracle, move for move.

``tests/oracles`` keeps the original dict-of-dicts FM and the k-way
drivers built on it.  The package must reproduce them exactly: the same
assignment dict (insertion order included), cut nets, pass count, cut
history and FM move count, on generated tile and system netlists and on
hypothesis-generated hypergraphs that exercise every tie-break path —
duplicate sinks, driverless and single-pin nets, gains clamped at the
bucket range, and illegal moves pushed back under tight balance.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.generate import (generate_monolithic_netlist,
                                 generate_tile_netlist)
from repro.arch.netlist import Netlist
from repro.partition.fm import cut_nets, fm_bipartition
from repro.partition.hypergraph import Hypergraph
from repro.partition.multiway import (multiway_cut_nets, nway_partition,
                                      recursive_bisection)
from repro.tech.stdcell import N28_LIB
from tests.oracles import fm as oracle_fm
from tests.oracles import multiway as oracle_mw

SEEDS = (1, 7, 2023)
KS = (2, 3, 4, 9, 16)
#: Cells of distinct areas, so balance limits bite unevenly.
CELLS = ("INV_X1", "NAND2_X1", "AOI22_X1", "FA_X1", "DFF_X1",
         "SRAM_SLICE_32b")


@pytest.fixture(scope="module")
def netlists():
    return {"tile": generate_tile_netlist(scale=0.002, seed=3),
            "system": generate_monolithic_netlist(scale=0.002, seed=2023)}


def assert_same_bipartition(got, want):
    assert list(got.assignment.items()) == list(want.assignment.items())
    assert got.cut_nets == want.cut_nets
    assert got.passes == want.passes
    assert got.cut_history == want.cut_history
    assert got.fm_moves == want.fm_moves


def assert_same_multiway(got, want):
    assert list(got.assignment.items()) == list(want.assignment.items())
    assert got.k == want.k
    assert got.cut_nets == want.cut_nets
    assert got.fm_moves == want.fm_moves


def random_netlist(seed: int, cells: int = 12, nets: int = 16) -> Netlist:
    """A small random hypergraph with every awkward net shape in play."""
    rng = random.Random(seed)
    nl = Netlist(f"rand{seed}", N28_LIB)
    names = [f"u{i:02d}" for i in range(cells)]
    rng.shuffle(names)  # netlist order differs from name order
    for name in names:
        nl.add_instance(name, rng.choice(CELLS))
    for e in range(nets):
        driver = rng.choice(names) if rng.random() < 0.8 else None
        # Few distinct sinks, drawn with replacement: duplicates are
        # common, and some nets end up single-pin.
        pool = rng.sample(names, rng.randint(1, min(3, cells)))
        sinks = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        nl.add_net(f"n{rng.randrange(10 ** 6)}_{e}", driver, sinks)
    return nl


class _RecordingBuckets(oracle_fm._GainBuckets):
    """Oracle gain buckets that count clamped updates and push-backs."""

    clamps = 0
    pushbacks = 0

    def __init__(self, max_gain):
        super().__init__(max_gain)
        self.filled = False

    def insert(self, name, part, gain):
        if self.filled:
            _RecordingBuckets.pushbacks += 1
        super().insert(name, part, gain)

    def update(self, name, part, delta):
        self.filled = True
        if abs(self.gain_of[name] + delta) > self.max_gain:
            _RecordingBuckets.clamps += 1
        super().update(name, part, delta)

    def pop_best(self, part):
        self.filled = True
        return super().pop_best(part)


class TestBipartitionMatchesOracle:
    @pytest.mark.parametrize("which", ["tile", "system"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_start(self, netlists, which, seed):
        nl = netlists[which]
        assert_same_bipartition(
            fm_bipartition(nl, seed=seed, max_passes=4),
            oracle_fm.fm_bipartition(nl, seed=seed, max_passes=4))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_given_start(self, netlists, seed):
        nl = netlists["system"]
        rng = random.Random(seed)
        names = list(nl.instances)
        rng.shuffle(names)  # the result keeps the initial dict's order
        initial = {n: rng.randint(0, 1) for n in names}
        assert_same_bipartition(
            fm_bipartition(nl, initial=initial, balance_tolerance=0.2,
                           seed=seed),
            oracle_fm.fm_bipartition(nl, initial=initial,
                                     balance_tolerance=0.2, seed=seed))

    def test_cut_nets_helper(self, netlists):
        nl = netlists["tile"]
        rng = random.Random(0)
        assignment = {n: rng.randint(0, 1) for n in nl.instances}
        assert cut_nets(nl, assignment) == oracle_fm.cut_nets(nl,
                                                              assignment)


class TestMultiwayMatchesOracle:
    @pytest.mark.parametrize("which", ["tile", "system"])
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_nway_partition(self, netlists, which, k, seed):
        nl = netlists[which]
        got = nway_partition(nl, k, seed=seed)
        assert_same_multiway(got, oracle_mw.nway_partition(nl, k, seed=seed))
        assert got.cut_nets == oracle_mw.multiway_cut_nets(nl,
                                                           got.assignment)

    @pytest.mark.parametrize("k", (3, 9))
    def test_recursive_bisection(self, netlists, k):
        nl = netlists["system"]
        assert_same_multiway(recursive_bisection(nl, k, seed=7),
                             oracle_mw.recursive_bisection(nl, k, seed=7))

    def test_cut_helpers(self, netlists):
        nl = netlists["system"]
        rng = random.Random(1)
        assignment = {n: rng.randrange(5) for n in nl.instances}
        assert multiway_cut_nets(nl, assignment) == \
            oracle_mw.multiway_cut_nets(nl, assignment)


class TestPairSkip:
    @pytest.mark.parametrize("k", (9, 16))
    def test_skipped_pairs_are_no_ops_in_the_oracle(self, netlists, k):
        """A pair whose parts share no net starts at cut 0.  FM keeps a
        pass's result only when its true cut is strictly lower, which is
        impossible below 0, so the oracle returns the starting assignment
        (even when drifting gains make a pass wander) and the sweep may
        skip the pair."""
        nl = netlists["system"]
        base = recursive_bisection(nl, k, seed=1)
        graph = Hypergraph(nl)
        part = np.array([base.assignment[n] for n in graph.names])
        pin_part = part[graph.pin_cell]
        nets = len(graph.net_deg)
        skipped = 0
        for i in range(base.k):
            for j in range(i + 1, base.k):
                on_i = np.bincount(graph.pin_net[pin_part == i],
                                   minlength=nets)
                on_j = np.bincount(graph.pin_net[pin_part == j],
                                   minlength=nets)
                if np.any((on_i > 0) & (on_j > 0)):
                    continue
                skipped += 1
                union = [n for n in nl.instances
                         if base.assignment[n] in (i, j)]
                initial = {n: int(base.assignment[n] == j) for n in union}
                sub = nl.subset(union)
                assert not oracle_fm.cut_nets(sub, initial)
                ran = oracle_fm.fm_bipartition(
                    sub, initial=initial, balance_tolerance=0.35,
                    max_passes=5, seed=1 + 101 * i + j)
                assert ran.assignment == initial
        assert skipped > 0


@st.composite
def fm_cases(draw):
    nl = random_netlist(draw(st.integers(0, 10 ** 6)),
                        cells=draw(st.integers(2, 16)),
                        nets=draw(st.integers(0, 24)))
    kwargs = dict(balance_tolerance=draw(st.sampled_from(
                      (0.01, 0.05, 0.1, 0.2, 0.35, 0.45))),
                  max_passes=draw(st.integers(1, 6)),
                  seed=draw(st.integers(0, 10 ** 4)),
                  restarts=draw(st.integers(0, 3)))
    if draw(st.booleans()):
        names = list(nl.instances)
        order = draw(st.permutations(names))
        kwargs["initial"] = {n: draw(st.integers(0, 1)) for n in order}
    return nl, kwargs


@settings(max_examples=150, deadline=None)
@given(fm_cases())
def test_random_hypergraphs_match_oracle(case):
    nl, kwargs = case
    assert_same_bipartition(fm_bipartition(nl, **kwargs),
                            oracle_fm.fm_bipartition(nl, **kwargs))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), k=st.integers(1, 6),
       tolerance=st.sampled_from((0.1, 0.35, 0.45)))
def test_random_hypergraphs_nway_match_oracle(seed, k, tolerance):
    nl = random_netlist(seed, cells=14, nets=20)
    assert_same_multiway(
        nway_partition(nl, k, balance_tolerance=tolerance, seed=seed),
        oracle_mw.nway_partition(nl, k, balance_tolerance=tolerance,
                                 seed=seed))


def test_clamp_and_pushback_paths_are_covered(monkeypatch):
    """The generator really reaches the clamped-gain and push-back
    paths, and the package agrees with the oracle on those inputs."""
    monkeypatch.setattr(oracle_fm, "_GainBuckets", _RecordingBuckets)
    monkeypatch.setattr(_RecordingBuckets, "clamps", 0)
    monkeypatch.setattr(_RecordingBuckets, "pushbacks", 0)
    for seed in range(40):
        nl = random_netlist(seed)
        for tolerance in (0.05, 0.45):
            assert_same_bipartition(
                fm_bipartition(nl, balance_tolerance=tolerance, seed=seed),
                oracle_fm.fm_bipartition(nl, balance_tolerance=tolerance,
                                         seed=seed))
    assert _RecordingBuckets.clamps > 0
    assert _RecordingBuckets.pushbacks > 0
