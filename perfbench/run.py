"""The repository benchmark: one command per workload, metrics as JSON.

    python3 perfbench/run.py --workload paper_six --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each workload runs whole fixed-size
passes, each from a cold start (fresh process or fresh server, disk flow
cache off, fresh store and sweep directories), until ``--seconds`` have
elapsed, and at least one.  Set-up is timed several times per run and
reported as the median.  The outputs of every pass are checked; a digest
of the deterministic records is printed so two runs of one seed can be
compared.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced pass.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_run"

sys.path.insert(0, str(HERE))
import passes  # noqa: E402  (benchmark-local modules)
import tracer as tracing  # noqa: E402

WORKLOADS = ("nchiplet_sweep", "paper_six")
#: Set-up samples per run; the median is ``setup_s``.
SETUP_SAMPLES = 3
#: A child that does not finish in this many seconds fails the run.
CHILD_TIMEOUT_S = 150.0

# nchiplet_sweep: the glass 2.5D package at {9, 16} dies x {grid,
# hexagonal} packing, swept through ``python -m repro serve``.  Scale
# 0.005 keeps the four points near 15 s on the server's two workers; the
# N-way partitioner is still most of every point.
SWEEP_SCALE = 0.005
SWEEP_AXES = ((9, 16), ("grid", "hexagonal"))
SERVE_WORKERS = 2
#: Two ``sweep --server`` clients run the same sweep at once (each point
#: is one store miss and one dedupe join); a third reruns it afterwards
#: and reads every point from the store.
SHARED_CLIENTS = ("a", "b")
REREAD_CLIENT = "c"

END_TO_END = {"setup_s": "s", "wall_s": "s", "evals_per_s": "1/s",
              "peak_rss_mb": "MB"}


def child_env(work: Path) -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_FLOW_CACHE"] = "0"  # disk cache off: every pass is cold
    env["TMPDIR"] = str(work)
    return env


def kill_group(proc) -> None:
    """SIGKILL a child started in its own session, with everything it
    forked, and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


class Child:
    """A benchmark child process whose set-up ends at a ``READY`` line."""

    def __init__(self, argv, work: Path, log_name: str):
        self.log = open(work / log_name, "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(work), stdout=subprocess.PIPE,
            stderr=self.log, text=True, start_new_session=True)

    def wait_ready(self) -> float:
        """Seconds from start to ``READY``."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.stop()
            raise RuntimeError(f"child failed during set-up: {line!r}; "
                               f"see {self.log.name}")
        return time.perf_counter() - self.t0

    def finish(self, timeout: float = CHILD_TIMEOUT_S) -> None:
        """Wait for a clean exit; raise on failure or timeout."""
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"child exceeded {timeout:.0f}s")
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise RuntimeError(f"child exited {self.proc.returncode}; "
                               f"see {self.log.name}")

    def stop(self) -> None:
        """Kill the child and anything it forked, and reap it."""
        kill_group(self.proc)
        if not self.log.closed:
            self.log.close()


def prime(work: Path) -> None:
    """Compile the C maze kernel before anything is timed.

    The compiled object lands in the checkout's ``.build_cache`` and
    later runs load it, so only the first run of a checkout pays this.
    """
    if any((ROOT / ".build_cache").glob("mazekernel_*.so")):
        return
    child = Child([sys.executable, str(HERE / "passes.py"), "prime",
                   "--work", str(work)], work, "prime.log")
    child.finish()


# --------------------------------------------------------------------- #
# paper_six: passes in fresh child processes.
# --------------------------------------------------------------------- #

def run_paper_six(seed: int, seconds: float, trace: int,
                  work: Path) -> dict:
    base = [sys.executable, str(HERE / "passes.py"), "paper_six",
            "--seed", str(seed), "--trace", str(trace)]
    setups, outs = [], []
    for i in range(SETUP_SAMPLES - 1):
        pdir = work / f"probe{i}"
        pdir.mkdir()
        child = Child(base + ["--probe", "--work", str(pdir)], pdir,
                      "child.log")
        setups.append(child.wait_ready())
        child.finish()
    started = time.perf_counter()
    while True:
        pdir = work / f"pass{len(outs)}"
        pdir.mkdir()
        child = Child(base + ["--work", str(pdir)], pdir, "child.log")
        setups.append(child.wait_ready())
        child.finish()
        out = json.loads((pdir / "result.json").read_text())
        out["trace_dir"] = str(pdir / "trace")
        outs.append(out)
        elapsed = time.perf_counter() - started
        if elapsed + out["wall_s"] > seconds:
            break
    one = outs[0]
    return {"setups": setups, "passes": outs,
            "attempted": sum(p["attempted"] for p in outs),
            "failed": sum(p["failed"] for p in outs),
            "problems": [x for p in outs for x in p["problems"]],
            "digests": [p["digest"] for p in outs],
            "wall_s": statistics.median(p["wall_s"] for p in outs),
            "evals": one["attempted"] - one["failed"],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in outs),
            "trace_dir": one["trace_dir"],
            "claims_log_err": one["claims_log_err"]}


# --------------------------------------------------------------------- #
# nchiplet_sweep: sweep --server against a fresh evaluation service.
# --------------------------------------------------------------------- #

def sweep_spec(seed: int):
    from repro.dse.space import Axis, SweepSpec
    return SweepSpec(
        name="perfbench-nchiplet", design="glass_25d", evaluator="flow",
        scale=SWEEP_SCALE, seed=seed, with_eyes=False, with_thermal=False,
        axes=(Axis("num_chiplets", values=SWEEP_AXES[0]),
              Axis("arrangement", values=SWEEP_AXES[1])))


def start_server(work: Path, name: str, trace: int):
    """Start the service and warm its worker pool.

    Untraced, the server starts the way users start it, ``python -m
    repro serve``; traced, ``passes.py serve`` wraps the layers first.
    Returns ``(process, url, set-up seconds)``.
    """
    from repro.serve.client import ServeClient
    from repro.serve.protocol import EvalRequest
    args = ["--port", "0", "--workers", str(SERVE_WORKERS),
            "--cache-dir", str(work / f"{name}-store")]
    if trace:
        argv = [sys.executable, str(HERE / "passes.py"), "serve",
                "--work", str(work)] + args
    else:
        argv = [sys.executable, "-m", "repro", "serve"] + args
    log_path = work / f"{name}.log"
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(work),
                                stdout=subprocess.DEVNULL, stderr=log,
                                start_new_session=True)
    url = None
    while url is None and time.perf_counter() < t0 + 60.0:
        if proc.poll() is not None:
            break
        url = next((line.strip() for line in
                    log_path.read_text().splitlines()
                    if line.startswith("http://")), None)
        time.sleep(0.005)
    try:
        if url is None:
            raise RuntimeError(f"server did not start; see {log_path}")
        with ServeClient(url) as client:
            # Forks the pool: the pass starts on warm workers.
            if not client.evaluate(EvalRequest(kind="geometry")).ok:
                raise RuntimeError("warm-up request failed")
    except BaseException:
        stop_server(proc)
        raise
    return proc, url, time.perf_counter() - t0


def stop_server(proc) -> None:
    """Graceful drain (SIGTERM), then kill; always reaped."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
    kill_group(proc)  # the drained server's pool workers are gone too


def count_round_trips():
    """Count every HTTP round trip of every ``ServeClient``; returns the
    one-element list the count accumulates in."""
    from repro.serve.client import ServeClient
    trips = [0]
    original = ServeClient._request

    def counted(self, *args, **kwargs):
        trips[0] += 1
        return original(self, *args, **kwargs)
    ServeClient._request = counted
    return trips


def run_nchiplet_sweep(seed: int, trace: int, work: Path) -> dict:
    """One pass: two concurrent ``sweep --server`` clients, then a
    third that rereads the stored points.  A fresh server per pass, so a
    run makes one pass whatever ``--seconds`` says."""
    from repro.dse.runner import SweepRunner
    from repro.serve.client import ServeClient
    spec = sweep_spec(seed)
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        proc, _url, setup = start_server(work, f"probe{i}", 0)
        setups.append(setup)
        stop_server(proc)
    proc, url, setup = start_server(work, "server", trace)
    setups.append(setup)
    trips = count_round_trips() if trace else [0]
    records, errors = {}, []
    try:
        with ServeClient(url) as client:
            before = client.stats()
        trips_before = trips[0]

        def sweep(name):
            try:
                records[name] = SweepRunner(spec, out_dir=work / name,
                                            server_url=url).run()
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(f"client {name}: {type(exc).__name__}: "
                              f"{exc}")

        t0 = time.perf_counter()
        threads = [threading.Thread(target=sweep, args=(name,))
                   for name in SHARED_CLIENTS]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        t_reread = time.perf_counter()
        sweep(REREAD_CLIENT)
        wall = time.perf_counter() - t0
        reread = time.perf_counter() - t_reread
        round_trips = trips[0] - trips_before
        with ServeClient(url) as client:
            after = client.stats()
    finally:
        stop_server(proc)

    names = SHARED_CLIENTS + (REREAD_CLIENT,)
    problems = list(errors)
    stores = {name: (work / name / "points.jsonl").read_bytes()
              for name in names if name in records}
    if len(set(stores.values())) > 1:
        problems.append("sweep stores of the three clients differ")
    failed = 0
    for rec in records.get(SHARED_CLIENTS[0], []):
        if rec.get("error"):
            failed += 1
            problems.append(f"{rec['id']}: {rec['error']}")
            continue
        bad = [k for k, v in rec["metrics"].items()
               if isinstance(v, float) and not math.isfinite(v)]
        if bad or not rec["metrics"].get("area_mm2"):
            problems.append(f"{rec['id']}: bad metrics {bad}")
    for name in names:
        log = work / name / "errors.log"
        if log.exists() and log.read_text().strip():
            problems.append(f"client {name}: errors.log is not empty")
    stats = {"evaluations_run": after["evaluations_run"]
             - before["evaluations_run"],
             "dedupe_joins": after["dedupe_joins"] - before["dedupe_joins"],
             "store_hits": after["cache"]["hits"] - before["cache"]["hits"],
             "store_misses": after["cache"]["misses"]
             - before["cache"]["misses"]}
    points = len(spec.points())
    if stats["evaluations_run"] != points:
        problems.append(f"{stats['evaluations_run']} evaluations for "
                        f"{points} points")
    store = stores.get(SHARED_CLIENTS[0], b"")
    return {"setups": setups, "wall_s": wall, "reread_s": reread,
            "attempted": points, "failed": failed, "problems": problems,
            "digests": [hashlib.sha256(store).hexdigest()[:16]],
            "evals": points - failed, "peak_rss_mb": passes.peak_rss_mb(),
            "stats": stats, "round_trips": round_trips,
            "trace_dir": str(work / "trace")}


# --------------------------------------------------------------------- #
# Per-layer metrics (traced run).
# --------------------------------------------------------------------- #

#: Per-layer metric name -> (unit, source).  Sources: ``span:<name>``
#: total seconds, ``self:<name>`` self seconds, ``calls:<name>``,
#: ``count:<name>`` a counter; the rest are computed per workload.
SPAN_METRICS = {
    "arch.netlist_s": ("s", "span:arch.netlist"),
    "chiplet.build_s": ("s", "span:chiplet.build"),
    "chiplet.floorplan_s": ("s", "span:chiplet.floorplan"),
    "chiplet.place_s": ("s", "span:chiplet.place"),
    "chiplet.route_s": ("s", "span:chiplet.route"),
    "chiplet.timing_s": ("s", "span:chiplet.timing"),
    "chiplet.power_s": ("s", "span:chiplet.power"),
    "chiplet.builds": ("count", "calls:chiplet.build"),
    "partition.nway_s": ("s", "span:partition.nway"),
    "partition.subset_s": ("s", "span:partition.subset"),
    "partition.cut_links_s": ("s", "span:partition.cut_links"),
    "partition.cut_links": ("count", "count:partition.cut_links"),
    "interposer.place_s": ("s", "span:interposer.place"),
    "interposer.route_s": ("s", "span:interposer.route"),
    "interposer.pattern_s": ("s", "span:interposer.pattern"),
    "interposer.rrr_s": ("s", "span:interposer.rrr"),
    "interposer.maze_s.manhattan": ("s", "span:interposer.maze.manhattan"),
    "interposer.maze_s.diagonal": ("s", "span:interposer.maze.diagonal"),
    "interposer.pdn_s": ("s", "span:interposer.pdn"),
    "interposer.maze_calls": ("count", "count:interposer.maze_calls"),
    "interposer.maze_nodes": ("count", "count:interposer.maze_nodes"),
    "interposer.fields_built": ("count", "count:interposer.fields_built"),
    "interposer.maze_fallbacks": ("count",
                                  "count:interposer.maze_fallbacks"),
    "interposer.overflow_cells": ("count",
                                  "count:interposer.overflow_cells"),
    "circuit.mna_factorizations": ("count",
                                   "count:circuit.mna_factorizations"),
    "circuit.mna_solves": ("count", "count:circuit.mna_solves"),
    "circuit.transient_solves": ("count", "count:circuit.transient_solves"),
    "circuit.robust_fallbacks": ("count", "count:circuit.robust_fallbacks"),
    "pi.impedance_s": ("s", "span:pi.impedance"),
    "pi.irdrop_s": ("s", "span:pi.irdrop"),
    "pi.transient_s": ("s", "span:pi.transient"),
    "si.channel_s": ("s", "span:si.channel"),
    "si.eye_s": ("s", "span:si.eye"),
    "thermal.map_s": ("s", "span:thermal.map"),
    "thermal.solve_s": ("s", "span:thermal.solve"),
    "core.flow_self_s": ("s", "self:core.flow"),
    "core.rollup_s": ("s", "span:core.rollup"),
    "core.flows": ("count", "calls:core.flow"),
}
OTHER_METRICS = {
    "core.flow_p50_s": "s",
    "core.flow_max_s": "s",
    "core.pool_restarts": "count",
    "core.claims_log_err": "ln",
    "dse.errors": "count",
    "serve.reread_s": "s",
    "serve.store_hit_ratio": "ratio",
    "serve.store_hits": "count",
    "serve.store_misses": "count",
    "serve.dedupe_joins": "count",
    "serve.evaluations_run": "count",
    "serve.http_per_eval": "ratio",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}
PER_LAYER = {**{k: u for k, (u, _s) in SPAN_METRICS.items()},
             **OTHER_METRICS}


def layer_metrics(workload: str, run: dict) -> dict:
    """Per-layer values of one traced run (0 where a layer is idle)."""
    values = {name: 0.0 for name in PER_LAYER}
    trace = tracing.merge(Path(run["trace_dir"]))
    spans, counters = trace["spans"], trace["counters"]
    for name, (_unit, source) in SPAN_METRICS.items():
        kind, key = source.split(":", 1)
        if kind == "count":
            values[name] = counters.get(key, 0)
        elif key in spans:
            calls, total, self_s = spans[key]
            values[name] = {"span": total, "self": self_s,
                            "calls": calls}[kind]
    flows = trace["durations"].get("core.flow", [])
    if flows:
        values["core.flow_p50_s"] = statistics.median(flows)
        values["core.flow_max_s"] = max(flows)
    values["core.pool_restarts"] = max(
        0, counters.get("core.pool_creations", 0) - 1)
    n_spans = sum(v[0] for v in spans.values())
    values["trace.spans"] = n_spans
    values["trace.overhead_pct"] = (100.0 * n_spans * tracing.span_cost_s()
                                    / run["wall_s"])
    if workload == "paper_six":
        values["core.claims_log_err"] = run["claims_log_err"]
        return values
    stats = run["stats"]
    base = stats["store_hits"] + stats["store_misses"]
    served = run["attempted"] * (len(SHARED_CLIENTS) + 1)
    values.update({
        "dse.errors": run["failed"],
        "serve.reread_s": run["reread_s"],
        "serve.store_hit_ratio": stats["store_hits"] / base if base else 0.0,
        "serve.store_hits": stats["store_hits"],
        "serve.store_misses": stats["store_misses"],
        "serve.dedupe_joins": stats["dedupe_joins"],
        "serve.evaluations_run": stats["evaluations_run"],
        "serve.http_per_eval": run["round_trips"] / served,
    })
    return values


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=WORK_ROOT))
    try:
        prime(work)
        if args.workload == "paper_six":
            run = run_paper_six(args.seed, args.seconds, args.trace, work)
            print(f"claims_log_err {run['claims_log_err']:.6f}")
        else:
            run = run_nchiplet_sweep(args.seed, args.trace, work)
        problems, digests = run["problems"], run["digests"]
        if len(set(digests)) != 1:
            problems.append(f"passes of one seed disagree: {digests}")
        if args.trace:
            values = layer_metrics(args.workload, run)
            units = PER_LAYER
        else:
            values = {"setup_s": statistics.median(run["setups"]),
                      "wall_s": run["wall_s"],
                      "evals_per_s": run["evals"] / run["wall_s"],
                      "peak_rss_mb": run["peak_rss_mb"]}
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}")
    print(f"digest {args.workload} seed={args.seed} {digests[0]}")
    print(f"failed {run['failed']} of {run['attempted']}")
    print(json.dumps({"correct": not problems and run["failed"] == 0,
                      "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
