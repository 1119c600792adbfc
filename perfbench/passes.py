"""Child-process entry points of the benchmark.

``paper_six`` runs one cold pass of the paper's six packages in a fresh
interpreter, so every pass begins with empty in-process memos (channel
simulations, netlists, flow results) and its solver and router counters
repeat exactly for one seed.  It does the set-up, prints ``READY`` (the
parent times set-up from process start to that line), runs the pass and
writes ``result.json`` into its work directory.

    python3 perfbench/passes.py paper_six --seed 1 --trace 0 --work DIR
    python3 perfbench/passes.py paper_six --seed 1 --probe --work DIR

``--probe`` stops after set-up (extra set-up samples).  ``prime`` only
loads the C maze kernel, so its one-off compile lands before any timing.
``serve`` wraps the layers in spans and then runs ``python -m repro
serve`` with the remaining arguments; it is the traced form of the
service.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: The paper's six packages, in its table order.
PAPER_DESIGNS = ("glass_25d", "glass_3d", "silicon_25d", "silicon_3d",
                 "shinko", "apx")
#: Netlist scale of ``paper_six``.  apx's diagonal maze costs about 45 s
#: at every scale, so a paper-scale (1.0) pass would not fit the run budget.
PAPER_SIX_SCALE = 0.05
#: Packages whose die stack has no interposer, hence no route and no PDN.
NO_INTERPOSER = {"silicon_3d"}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def digest(data) -> str:
    """sha256 of canonical JSON (sorted keys, repr floats)."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# --------------------------------------------------------------------- #
# paper_six
# --------------------------------------------------------------------- #

def _design_record(result) -> dict:
    """Deterministic outputs and counters of one flow result."""
    stats = result.route.stats if result.route is not None else None
    return {
        "table4": result.table4_row(),
        "power_mw": result.fullchip.total_power_mw,
        "l2m_eye_v": result.l2m_eye.eye_height_v if result.l2m_eye else None,
        "l2l_eye_v": result.l2l_eye.eye_height_v if result.l2l_eye else None,
        "peak_c": result.thermal.peak_c if result.thermal else None,
        "solver": dict(result.solver_stats or {}),
        "router": ({k: getattr(stats, k) for k in
                    ("nets_rerouted", "maze_calls", "maze_nodes",
                     "fields_built", "maze_fallbacks", "overflow_cells")}
                   if stats is not None else None),
    }


def _design_problems(name: str, result) -> list:
    """Output checks on one paper_six result; empty when it is whole."""
    problems = []
    needs_interposer = name not in NO_INTERPOSER
    if (result.route is not None) != needs_interposer:
        problems.append(f"{name}: route present={result.route is not None}")
    for field in ("pdn", "pdn_impedance", "ir_drop", "power_transient"):
        if (getattr(result, field) is not None) != needs_interposer:
            problems.append(f"{name}: {field} present="
                            f"{getattr(result, field) is not None}")
    for field in ("l2m_eye", "l2l_eye", "thermal"):
        if getattr(result, field) is None:
            problems.append(f"{name}: no {field}")
    fallbacks = (result.solver_stats or {}).get("robust_fallbacks", 0)
    if fallbacks:
        problems.append(f"{name}: {fallbacks} robust solver fallbacks")
    return problems


def claims_log_err(results) -> float:
    """Mean |ln(measured / paper)| over the headline claims."""
    from repro.core.claims import PAPER_CLAIMS, compute_claims
    claims = compute_claims(results["glass_3d"], results["glass_25d"],
                            results["silicon_25d"]).as_dict()
    # A claim measured with the wrong sign counts as a 1000x miss.
    errs = [abs(math.log(claims[k] / v)) if claims[k] / v > 0
            else math.log(1e3) for k, v in PAPER_CLAIMS.items()]
    return statistics.fmean(errs)


def paper_six_setup() -> None:
    import repro.core.claims  # noqa: F401
    import repro.core.flow  # noqa: F401
    from repro.interposer._mazekernel import load_kernel
    load_kernel()


def paper_six_pass(seed: int) -> dict:
    from repro.core.flow import run_design
    results, walls, records, problems, failed = {}, {}, {}, [], 0
    t_pass = time.perf_counter()
    for name in PAPER_DESIGNS:
        t0 = time.perf_counter()
        try:
            result = run_design(name, scale=PAPER_SIX_SCALE, seed=seed,
                                use_cache=False)
        except Exception as exc:  # noqa: BLE001 — reported as a failure
            failed += 1
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        walls[name] = time.perf_counter() - t0
        results[name] = result
        records[name] = _design_record(result)
        problems.extend(_design_problems(name, result))
    wall = time.perf_counter() - t_pass
    err = (claims_log_err(results)
           if {"glass_3d", "glass_25d", "silicon_25d"} <= set(results)
           else float("nan"))
    return {"attempted": len(PAPER_DESIGNS), "failed": failed,
            "wall_s": wall, "flow_s": walls, "claims_log_err": err,
            "problems": problems,
            "digest": digest({"records": records, "claims": err})}


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=("paper_six", "prime", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    args, serve_args = parser.parse_known_args(argv)
    if serve_args and args.workload != "serve":
        parser.error(f"unrecognized arguments: {' '.join(serve_args)}")

    if args.workload == "prime":
        from repro.interposer._mazekernel import load_kernel
        load_kernel()
        return 0
    if args.workload == "serve":
        import tracer
        tracer.install(args.work / "trace")
        from repro.__main__ import main as repro_main
        return repro_main(["serve"] + serve_args)

    if args.trace:
        import tracer
        tracer.install(args.work / "trace")
    paper_six_setup()
    print("READY", flush=True)
    if args.probe:
        return 0
    out = paper_six_pass(args.seed)
    out["peak_rss_mb"] = peak_rss_mb()
    (args.work / "result.json").write_text(json.dumps(out))
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
