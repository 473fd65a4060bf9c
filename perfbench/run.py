"""pvdyn benchmark: one workload, one process, one thread, one caller.

    python3 perfbench/run.py --workload fd-tree --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/` of that checkout and nowhere else.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  The line before it records the machine and library
versions.  NOTES.md next to this file describes the workloads and the
metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS is pinned to one thread before numpy loads (harness imports it),
# so that one workload is one thread and the load fits a 2-core machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import harness  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5          # set-up is repeated and its median reported
RECONCILE_TOL = 0.01    # traced self flops must sum to flops_per_op within 1%


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=lambda text: int(text) % 2 ** 64, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_library():
    """Import pvdyn from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "pvdyn" / "__init__.py").is_file():
        print(f"pvdyn sources not found under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import pvdyn
    if Path(pvdyn.__file__).resolve().parent != (src / "pvdyn").resolve():
        print(f"pvdyn imported from {pvdyn.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return pvdyn


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(tally, setup_s):
    """Set-up time gets the timed phase's speed correction, like latency."""
    return {
        "setup_s": metric(setup_s * tally.speed_factor(), "s"),
        "op_ms_p50": metric(tally.op_ms(0.5), "ms"),
        "op_ms_p95": metric(tally.op_ms(0.95), "ms"),
        "ops_per_s": metric(tally.ops_per_s(), "1/s"),
        "flops_per_op": metric(tally.flops_per_op(), "flop"),
        "ok_frac": metric(1.0 - tally.failed / tally.attempted, "ratio"),
        "lam_ok_frac": metric(1.0 - tally.lam_missed / tally.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB"),
    }


def per_layer(tr, traced, plain, workspace_init_ns, checks):
    """Per-op layer metrics from the traced rounds of a run."""
    def calls(key):
        return metric(tr.total(key, 0), "count")

    def ms(key):
        return metric(tr.total(key, 1) / 1e6, "ms")

    def fl(key):
        return metric(tr.total(key, 2), "flop")

    caba_calls, caba_iters, caba_conv = tr.caba
    early_calls, early_frac = tr.pv_early
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_ms"] = ms(f"{layer}.")
        out[f"{layer}.self_flops"] = fl(f"{layer}.")
    for kernel in ("xm6", "xft6", "xi6", "cross_f6"):
        out[f"spatial.{kernel}.calls"] = calls(f"spatial.{kernel}")
    fk = "kinematics.forward_kinematics"
    out.update({
        "kinematics.fk.calls": calls(fk),
        "kinematics.fk.self_ms": ms(fk),
        "kinematics.fk.flops": fl(fk),
        "kinematics.jacobian.self_ms": ms(("kinematics.link_jacobian",
                                           "kinematics.constraint_jacobian")),
        "constrained.workspace_init_ms": metric(workspace_init_ns / 1e6, "ms"),
        "constrained.workspace_inits": calls("constrained.PvWorkspace"),
        "constrained.caba.iterations": metric(caba_iters / max(caba_calls, 1), "count"),
        "constrained.caba.converged_frac": metric(caba_conv / max(caba_calls, 1), "ratio"),
        "constrained.pv_early.base_dual_frac": metric(early_frac / max(early_calls, 1),
                                                      "ratio"),
        "constrained.errors": metric(sum(row[3] for name, row in tr.stats.items()
                                         if name.startswith("constrained."))
                                     / max(tr.ops, 1), "count"),
        "delassus.pv_osim.self_ms": ms("delassus.pv_osim"),
        "delassus.pv_osimr.self_ms": ms("delassus.pv_osimr"),
        "delassus.caba_osim.self_ms": ms("delassus.caba_osim"),
        "delassus.apply.self_ms": ms(("delassus.delassus_apply",
                                      "delassus.delassus_factor_solve")),
        "baseline.crba.self_ms": ms("baseline.crba"),
        "baseline.ltl_osim.self_ms": ms(("baseline.ltl_osim", "baseline.ltl_factorize")),
        "linalg.calls": calls("linalg."),
        "integrate.step.self_ms": ms(("integrate.step", "integrate.integrate_position")),
        "integrate.solver_calls": metric(tr.solver_calls_from_integrate / max(tr.ops, 1),
                                         "count"),
        "check.qdd_err_max": metric(checks["qdd"], "ratio"),
        "check.lam_err_max": metric(checks["lam"], "ratio"),
        "check.osim_err_max": metric(checks["osim"], "ratio"),
        "check.drift_max": metric(checks["drift"], "m"),
        "trace.op_ms_p50": metric(traced.op_ms(0.5), "ms"),
        "trace.base_op_ms_p50": metric(plain.op_ms(0.5), "ms"),
        "trace.overhead_ratio": metric(traced.op_ms(0.5) / plain.op_ms(0.5), "ratio"),
        "trace.self_flops_ratio": metric(tr.total("", 2) / traced.flops_per_op(), "ratio"),
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    pvdyn = load_library()
    import_s = time.perf_counter() - T_START

    import workloads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    errors = (pvdyn.errors.PvdynError,)

    builds = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pool = build(args.seed)
        harness.warm(pool)
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)
    pool.reference()

    tr = None
    workspace_init_ns = 0
    if args.trace:
        # workspace construction during set-up, from one extra traced build
        setup_tr = tracing.Tracer(pvdyn.flops.total, errors)
        setup_tr.install()
        setup_tr.active = True
        try:
            build(args.seed)
        finally:
            setup_tr.active = False
            setup_tr.uninstall()
        workspace_init_ns = sum(dur for name, _, dur, _, _ in setup_tr.spans
                                if name == "constrained.PvWorkspace")
        tr = tracing.Tracer(pvdyn.flops.total, errors)

    plain, traced, rounds = harness.measure(pool, args.seconds, pvdyn.flops.counted,
                                            errors, tr)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    correct = failed == 0
    if args.trace:
        checks = {k: max(plain.err_max[k], traced.err_max[k]) for k in plain.err_max}
        metrics = per_layer(tr, traced, plain, workspace_init_ns, checks)
        ratio = metrics["trace.self_flops_ratio"]["value"]
        if abs(ratio - 1.0) > RECONCILE_TOL:
            print(f"traced self flops sum to {ratio:.4f} of flops_per_op", file=sys.stderr)
            correct = False
    else:
        metrics = end_to_end(plain, setup_s)
    for line in plain.failures + traced.failures:
        print(f"failed op: {line}", file=sys.stderr)

    import numpy
    import scipy
    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": attempted, "rounds": rounds, "pool": len(pool),
        "speed_factor": plain.speed_factor(), "raw_op_ms_p50": plain.raw_op_ms(0.5),
        "raw_setup_s": setup_s,
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "pvdyn": pvdyn.__version__, "blas_threads": os.environ["OMP_NUM_THREADS"],
    }}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
