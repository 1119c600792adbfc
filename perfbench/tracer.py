"""Span and counter tracing around the public entry points of each layer.

The tracer lives entirely in the benchmark: :func:`install` replaces the
layer functions listed in :data:`LAYER_SPANS` with wrappers, in the module
that defines each one and in every ``repro`` module that imported it by
name, so no program code changes.  Each call opens a span on a stack, so
the span below it is the one that caused it.  Per span name the tracer
keeps the call count, the total time, the self time (the total minus the
time its child spans cover) and every call's duration.  Counters are
read at the same boundaries from the result objects the layers already
return (``DesignResult.solver_stats``, ``InterposerRoute.stats``, the
cut-link map).

Spans stay in memory.  Each time a process's outermost span closes, that
process writes its cumulative aggregate to ``<trace_dir>/<pid>.json``, so
forked pool workers and a traced server report without any hook in the
program; the run merges every file when the pass ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: (module, attribute, span name).  ``Class.method`` attributes wrap the
#: method on the class.  Order only matters for readability.
LAYER_SPANS = (
    ("repro.core.flow", "run_design", "core.flow"),
    ("repro.core.fullchip", "full_chip_summary", "core.rollup"),
    ("repro.core.fullchip", "full_chip_summary_nway", "core.rollup"),
    ("repro.arch.generate", "generate_chiplet_netlist", "arch.netlist"),
    ("repro.arch.generate", "generate_monolithic_netlist", "arch.netlist"),
    ("repro.chiplet.design", "build_chiplet", "chiplet.build"),
    ("repro.chiplet.design", "build_chiplet_from_netlist", "chiplet.build"),
    ("repro.chiplet.floorplan", "floorplan", "chiplet.floorplan"),
    ("repro.chiplet.place", "place", "chiplet.place"),
    ("repro.chiplet.route", "global_route", "chiplet.route"),
    ("repro.chiplet.timing", "analyze_timing", "chiplet.timing"),
    ("repro.chiplet.power", "analyze_power", "chiplet.power"),
    ("repro.partition.multiway", "nway_partition", "partition.nway"),
    ("repro.partition.multiway", "pairwise_cut_links", "partition.cut_links"),
    ("repro.arch.netlist", "Netlist.subset", "partition.subset"),
    ("repro.interposer.placement", "place_dies", "interposer.place"),
    ("repro.interposer.placement", "place_chiplets", "interposer.place"),
    ("repro.interposer.routing", "route_interposer", "interposer.route"),
    ("repro.interposer.routing", "route_interposer_pins",
     "interposer.route"),
    ("repro.interposer.pdn", "build_pdn", "interposer.pdn"),
    ("repro.pi.impedance", "analyze_pdn_impedance", "pi.impedance"),
    ("repro.pi.irdrop", "solve_plane_ir_drop", "pi.irdrop"),
    ("repro.pi.transient", "analyze_power_transient", "pi.transient"),
    ("repro.si.channel", "measure_channel", "si.channel"),
    ("repro.si.eye", "simulate_eye", "si.eye"),
    ("repro.chiplet.power", "power_density_map", "thermal.map"),
    ("repro.thermal.model", "analyze_package_thermal", "thermal.solve"),
    ("repro.core.pool", "get_pool", "core.get_pool"),
)

#: ``RouterStats`` fields summed into ``interposer.<field>`` counters.
ROUTER_COUNTERS = ("maze_calls", "maze_nodes", "fields_built",
                   "maze_fallbacks", "overflow_cells")

#: ``DesignResult.solver_stats`` keys summed into ``circuit.<key>``.
SOLVER_COUNTERS = ("mna_factorizations", "mna_solves", "transient_solves",
                   "robust_fallbacks")


class Tracer:
    """In-memory span aggregates and counters for one process tree."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, total, self]
        self.durations: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[List[object]] = []  # [name, start, child_time]
        # A forked pool worker starts from zero: its file must not repeat
        # what the parent recorded before the fork.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans = {}
        self.durations = {}
        self.counters = {}
        self._stack = []

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span called ``name``.

        ``after(args, kwargs, result)`` runs inside the span once ``fn``
        returns and records counters read off the result.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                self._close(frame)
        return traced

    def _close(self, frame: List[object]) -> None:
        name, start, child = frame
        duration = time.perf_counter() - start
        self._stack.pop()
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        self.durations.setdefault(name, []).append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.flush()

    def add_time(self, name: str, seconds: float) -> None:
        """Record a phase time the program measured itself (no span, so
        its call count stays 0)."""
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        agg[1] += seconds
        agg[2] += seconds

    def snapshot(self) -> Dict[str, object]:
        """This process's aggregates as plain JSON data."""
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "durations": self.durations,
                "counters": dict(self.counters)}

    def flush(self) -> None:
        """Write this process's cumulative aggregate for the pass."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        tmp.replace(path)


def merge(trace_dir: Path) -> Dict[str, object]:
    """Sum the aggregates every traced process of a pass wrote."""
    spans: Dict[str, List[float]] = {}
    durations: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    for path in sorted(Path(trace_dir).glob("*.json")):
        data = json.loads(path.read_text())
        for name, (calls, total, self_s) in data["spans"].items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, values in data["durations"].items():
            durations.setdefault(name, []).extend(values)
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "durations": durations, "counters": counters}


def _resolve(module_name: str, attr: str):
    module = sys.modules[module_name]
    owner_name, _, member = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, member


def _after_flow(tracer: Tracer):
    from repro.tech.interposer import RoutingStyle, get_spec

    def after(args, kwargs, result) -> None:
        name = args[0] if args else kwargs["name"]
        for key in SOLVER_COUNTERS:
            tracer.count(f"circuit.{key}",
                         (result.solver_stats or {}).get(key, 0))
        stats = result.route.stats if result.route is not None else None
        if stats is None:
            return
        for key in ROUTER_COUNTERS:
            tracer.count(f"interposer.{key}", getattr(stats, key))
        # Maze time split by the package's public routing style: the
        # diagonal grids run the wavefront engine, Manhattan the kernel.
        style = ("diagonal" if get_spec(name).routing is RoutingStyle.DIAGONAL
                 else "manhattan")
        tracer.add_time(f"interposer.maze.{style}", stats.maze_time_s)
        tracer.add_time("interposer.pattern", stats.pattern_time_s)
        tracer.add_time("interposer.rrr", stats.rrr_time_s)
    return after


def _after_cut_links(tracer: Tracer):
    def after(args, kwargs, result) -> None:
        tracer.count("partition.cut_links", sum(result.values()))
    return after


def _after_get_pool(tracer: Tracer):
    def after(args, kwargs, result) -> None:
        _pool, reused = result
        if not reused:
            tracer.count("core.pool_creations")
    return after


def install(trace_dir: Path) -> Tracer:
    """Wrap every layer entry point in :data:`LAYER_SPANS`; returns the
    tracer.  Imports the layers, so call it before forking workers."""
    import repro.core.flow  # noqa: F401  (loads every traced layer)
    import repro.core.pool  # noqa: F401

    tracer = Tracer(trace_dir)
    after = {"core.flow": _after_flow(tracer),
             "partition.cut_links": _after_cut_links(tracer),
             "core.get_pool": _after_get_pool(tracer)}
    repro_modules = [m for n, m in list(sys.modules.items())
                     if n == "repro" or n.startswith("repro.")]
    for module_name, attr, span in LAYER_SPANS:
        owner, member = _resolve(module_name, attr)
        original = getattr(owner, member)
        traced = tracer.wrap(original, span, after.get(span))
        setattr(owner, member, traced)
        if owner is sys.modules[module_name]:
            # ``from x import f`` copies: rebind them too.
            for module in repro_modules:
                if vars(module).get(member) is original:
                    setattr(module, member, traced)
    return tracer


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one traced call over a plain call, in seconds."""
    def noop():
        return None
    probe = Tracer(Path("."))
    probe.flush = lambda: None  # keep the probe's spans off disk
    traced = probe.wrap(noop, "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - t0 - plain) / calls)
