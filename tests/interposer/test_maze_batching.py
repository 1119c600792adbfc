"""Batched maze engines: dial kernel, field cache, diagonal A* kernel.

Property tests for the PR that retired the maze-routing hot spot:

* the compiled dial-Dijkstra kernel must match ``maze_route_scalar``
  bit-for-bit on random congested grids, including sequences of calls
  with occupancy flips in between (the kernel reuses scratch arrays
  across calls via a touched-list reset protocol — exactly the pattern
  a stale reset would corrupt);
* the per-(src, dst) distance-field result cache must answer repeat
  calls without a fresh sweep (``fields_patched``), and must invalidate
  when overflow flags inside the cached bounding box change;
* the compiled diagonal A* must serve diagonal grids of every size and
  match the scalar search exactly: paths, expansion counts (probed
  through the node budget), occupancy-flip sequences that reuse its
  scratch arrays, and non-integer cost constants;
* with ``REPRO_NO_CCOMPILE=1`` the kernel must refuse to load, the
  scipy fallback chain must still be bit-identical, and diagonal grids
  must run the scalar search.
"""

import random

import numpy as np
import pytest

import repro._ckernel as ckernel
import repro.interposer.routing as routing
from repro.interposer.routing import RoutingGrid


def _random_grid(rng, diagonal=False, layers=None, max_mm=0.8):
    layers = layers if layers is not None else rng.choice([1, 2, 3, 5])
    g = RoutingGrid(rng.uniform(0.3, max_mm), rng.uniform(0.3, max_mm),
                    layers=layers, wire_pitch_um=4.0, diagonal=diagonal)
    occ = np.random.default_rng(rng.randrange(1 << 30)).integers(
        0, g.capacity.max() + 2, size=g.occupancy.shape)
    g.occupancy[:] = occ.astype(g.occupancy.dtype)
    return g


def _random_pair(rng, g):
    return ((rng.randrange(g.ny), rng.randrange(g.nx)),
            (rng.randrange(g.ny), rng.randrange(g.nx)))


def _flip_cells(rng, g, count):
    """Flip ``count`` random cells between saturated and free."""
    npr = np.random.default_rng(rng.randrange(1 << 30))
    li = npr.integers(0, g.layers, count)
    yi = npr.integers(0, g.ny, count)
    xi = npr.integers(0, g.nx, count)
    over = g.occupancy[li, yi, xi] >= g.capacity[li, yi, xi]
    g.occupancy[li, yi, xi] = np.where(over, 0, g.capacity[li, yi, xi] + 1)


class TestDialKernel:
    """The compiled kernel vs the scalar golden reference."""

    @pytest.fixture(autouse=True)
    def _need_kernel(self):
        if ckernel.load_kernel() is None:
            pytest.skip("no C compiler available — kernel path untestable")

    def test_kernel_selected_on_manhattan_grids(self):
        rng = random.Random(1)
        g = _random_grid(rng, diagonal=False)
        src, dst = _random_pair(rng, g)
        g._maze_route_info(src, dst, routing.MAZE_NODE_BUDGET)
        assert g._oracle is not None
        assert g._oracle._kernel is not None

    def test_matches_scalar_on_random_grids(self):
        rng = random.Random(20260808)
        for _ in range(25):
            g = _random_grid(rng)
            src, dst = _random_pair(rng, g)
            path, _nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert engine == "oracle"
            assert path == g.maze_route_scalar(src, dst)

    def test_occupancy_flip_sequences(self):
        """Repeated route calls with congestion mutations in between.

        This is the RRR access pattern: every call must see the current
        occupancy even though the kernel's distance/done scratch arrays
        and the oracle's result cache persist across calls.
        """
        rng = random.Random(77)
        for _ in range(6):
            g = _random_grid(rng)
            pairs = [_random_pair(rng, g) for _ in range(4)]
            for step in range(5):
                for src, dst in pairs:
                    assert g.maze_route(src, dst) \
                        == g.maze_route_scalar(src, dst), (
                            f"diverged after {step} flip batches")
                _flip_cells(rng, g, rng.randrange(1, 40))

    def test_budget_and_bound_semantics_preserved(self):
        rng = random.Random(99)
        hits = 0
        for _ in range(30):
            g = _random_grid(rng)
            src, dst = _random_pair(rng, g)
            ref_full = g.maze_route_scalar(src, dst)
            if ref_full is not None:
                ub = g.path_cost(ref_full)
                path, _n, _e = g._maze_route_info(
                    src, dst, routing.MAZE_NODE_BUDGET, ub)
                assert path == ref_full
            for budget in (1, 64):
                a = g.maze_route(src, dst, max_nodes=budget)
                b = g.maze_route_scalar(src, dst, max_nodes=budget)
                assert a == b
                hits += a is None
        assert hits > 0


class TestFieldCache:
    """The per-(src, dst) result cache behind ``fields_patched``."""

    def test_repeat_call_is_served_from_cache(self):
        g = RoutingGrid(0.5, 0.5, layers=2, wire_pitch_um=4.0)
        src, dst = (3, 3), (20, 20)
        first = g.maze_route(src, dst)
        second = g.maze_route(src, dst)
        assert first == second
        oracle = g._oracle
        assert oracle is not None
        assert oracle.fields_built == 1
        assert oracle.fields_patched == 1

    def test_cached_paths_are_independent_copies(self):
        """Callers mutate returned paths (rip-up bookkeeping); the
        cache must hand out fresh lists."""
        g = RoutingGrid(0.5, 0.5, layers=2, wire_pitch_um=4.0)
        src, dst = (3, 3), (20, 20)
        first = g.maze_route(src, dst)
        first.append((0, 0, 0))  # corrupt the caller's copy
        assert g.maze_route(src, dst) != first

    def test_in_box_flip_invalidates(self):
        g = RoutingGrid(0.5, 0.5, layers=2, wire_pitch_um=4.0)
        src, dst = (2, 2), (2, 20)
        before = g.maze_route(src, dst)
        g.occupancy[:, 2, :] = g.capacity[:, 2, :] + 1  # block the row
        after = g.maze_route(src, dst)
        oracle = g._oracle
        assert oracle.fields_built == 2
        assert oracle.fields_patched == 0
        assert before != after
        assert after == g.maze_route_scalar(src, dst)

    def test_far_away_flip_keeps_entry(self):
        """An overflow flip outside the cached bounding box cannot
        affect the result, so the entry must survive."""
        g = RoutingGrid(1.0, 1.0, layers=2, wire_pitch_um=4.0)
        src, dst = (2, 2), (2, 8)
        g.maze_route(src, dst)
        oracle = g._oracle
        y1 = oracle._results[(2, 2, 2, 8)][4]
        far_row = g.ny - 1
        assert far_row > y1 + 1  # genuinely outside the box + halo
        g.occupancy[:, far_row, :] = g.capacity[:, far_row, :] + 1
        g.maze_route(src, dst)
        assert oracle.fields_built == 1
        assert oracle.fields_patched == 1

    def test_flip_then_flip_back_keeps_entry(self):
        """Snapshot (not event-log) freshness: net zero change between
        calls must count as a cache hit even though flips occurred."""
        g = RoutingGrid(0.5, 0.5, layers=2, wire_pitch_um=4.0)
        src, dst = (2, 2), (2, 20)
        path = g.maze_route(src, dst)
        saved = g.occupancy[:, 2, :].copy()
        g.occupancy[:, 2, :] = g.capacity[:, 2, :] + 1
        g.occupancy[:, 2, :] = saved
        assert g.maze_route(src, dst) == path
        oracle = g._oracle
        assert oracle.fields_built == 1
        assert oracle.fields_patched == 1


class TestDiagonalKernel:
    """The compiled diagonal A* (``maze_astar_diag``) vs the scalar."""

    #: State count above which the retired numpy wavefront engine
    #: handed diagonal grids to the scalar A*.
    OLD_CAP = 20000

    @pytest.fixture(autouse=True)
    def _need_kernel(self):
        if ckernel.load_kernel() is None:
            pytest.skip("no C compiler available — kernel path untestable")

    @staticmethod
    def _check(g, src, dst, budget=routing.MAZE_NODE_BUDGET):
        path, nodes, engine = g._maze_route_info(src, dst, budget)
        assert engine == "astar_kernel"
        assert path == g.maze_route_scalar(src, dst, max_nodes=budget)
        return path, nodes

    def test_kernel_selected_and_identical(self):
        rng = random.Random(500)
        sizes = set()
        for layers in range(1, 7):
            for _ in range(4):
                g = _random_grid(rng, diagonal=True, layers=layers,
                                 max_mm=2.0)
                sizes.add(g.layers * g.ny * g.nx > self.OLD_CAP)
                src, dst = _random_pair(rng, g)
                self._check(g, src, dst)
        assert sizes == {False, True}

    def test_grids_above_old_cap_use_kernel(self):
        """Paper-sized organic grids (apx is 6 x 151 x 143 states)."""
        rng = random.Random(503)
        g = RoutingGrid(3.0, 2.8, layers=6, wire_pitch_um=4.0,
                        diagonal=True)
        assert g.layers * g.ny * g.nx > 5 * self.OLD_CAP
        occ = np.random.default_rng(7).integers(
            0, g.capacity.max() + 2, size=g.occupancy.shape)
        g.occupancy[:] = occ.astype(g.occupancy.dtype)
        for _ in range(3):
            src, dst = _random_pair(rng, g)
            self._check(g, src, dst)

    def test_expansion_count_matches_scalar(self):
        """The reported count is the scalar's: a budget of exactly that
        many pops succeeds and one fewer fails, in both engines."""
        rng = random.Random(504)
        checked = 0
        for _ in range(12):
            g = _random_grid(rng, diagonal=True,
                             layers=rng.choice([1, 2, 4, 6]))
            src, dst = _random_pair(rng, g)
            path, nodes = self._check(g, src, dst)
            if path is None:
                continue
            assert nodes >= len(path)
            assert self._check(g, src, dst, budget=nodes) == (path, nodes)
            assert self._check(g, src, dst, budget=nodes - 1) \
                == (None, nodes)
            checked += 1
        assert checked > 0

    def test_budget_exhaustion_matches_scalar(self):
        rng = random.Random(501)
        hits = 0
        for _ in range(15):
            g = _random_grid(rng, diagonal=True,
                             layers=rng.choice([1, 3, 6]))
            src, dst = _random_pair(rng, g)
            for budget in (1, 64):
                path, nodes = self._check(g, src, dst, budget)
                if path is None:
                    assert nodes == budget + 1
                    hits += 1
        assert hits > 0

    def test_occupancy_flip_sequences(self):
        """Scratch arrays persist per grid and are reset through the
        touched list; stale state would show up after flips."""
        rng = random.Random(502)
        for _ in range(4):
            g = _random_grid(rng, diagonal=True,
                             layers=rng.choice([1, 2, 5]))
            pairs = [_random_pair(rng, g) for _ in range(4)]
            for step in range(5):
                for src, dst in pairs:
                    for budget in (64, routing.MAZE_NODE_BUDGET):
                        self._check(g, src, dst, budget)
                _flip_cells(rng, g, rng.randrange(1, 60))
            assert np.isinf(g._astar.dist).all()
            assert not g._astar.done.any()

    @pytest.mark.parametrize("via, over", [(2.5, 7.25), (3.0, 0.1),
                                           (0.7, 12.0)])
    def test_non_integer_costs(self, monkeypatch, via, over):
        monkeypatch.setattr(routing, "VIA_COST", via)
        monkeypatch.setattr(routing, "OVERFLOW_COST", over)
        rng = random.Random(505)
        for _ in range(8):
            g = _random_grid(rng, diagonal=True,
                             layers=rng.choice([2, 3, 6]))
            src, dst = _random_pair(rng, g)
            self._check(g, src, dst)


class TestCompileGate:
    """``REPRO_NO_CCOMPILE`` must pin the scipy and scalar fallbacks."""

    @pytest.fixture
    def no_ccompile(self, monkeypatch):
        monkeypatch.setenv(ckernel.ENV_DISABLE, "1")
        ckernel._reset_for_tests()
        yield
        ckernel._reset_for_tests()  # let later tests re-load it

    def test_kernel_refuses_to_load(self, no_ccompile):
        assert ckernel.load_kernel() is None

    def test_scipy_fallback_is_identical(self, no_ccompile):
        rng = random.Random(321)
        for _ in range(10):
            g = _random_grid(rng)
            src, dst = _random_pair(rng, g)
            path, _nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert engine == "oracle"
            assert g._oracle._kernel is None
            assert path == g.maze_route_scalar(src, dst)

    def test_diagonal_grids_run_scalar(self, no_ccompile):
        rng = random.Random(322)
        for _ in range(6):
            g = _random_grid(rng, diagonal=True,
                             layers=rng.choice([1, 2, 6]))
            src, dst = _random_pair(rng, g)
            path, nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert (engine, nodes) == ("scalar", 0)
            assert g._astar is None
            assert path == g.maze_route_scalar(src, dst)

    def test_kernel_and_scipy_report_same_expansions(self, no_ccompile):
        """Both oracle backends must predict the same A* node counts
        (the budget semantics depend on them)."""
        rng = random.Random(654)
        scipy_counts = []
        grids = []
        for _ in range(8):
            g = _random_grid(rng)
            src, dst = _random_pair(rng, g)
            _p, nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert engine == "oracle"
            scipy_counts.append(nodes)
            grids.append((g, src, dst))
        import os
        os.environ.pop(ckernel.ENV_DISABLE, None)
        ckernel._reset_for_tests()
        if ckernel.load_kernel() is None:
            pytest.skip("no C compiler available")
        for (g, src, dst), ref_nodes in zip(grids, scipy_counts):
            g._oracle = None  # force a fresh oracle with the kernel
            _p, nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert engine == "oracle"
            assert g._oracle._kernel is not None
            assert nodes == ref_nodes
