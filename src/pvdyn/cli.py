"""Command-line interface: check, bench, rollout, info.

Exit codes: 0 on success, 1 when the check suite finds a failure,
2 on usage or model-loading errors and when a rollout or a bench cell
raises a library error (a singular dual, for one); the other cells'
rows are still printed and written.
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from . import bench as bench_mod
from . import checks, generators
from .errors import ModelLoadError, PvdynError
from .integrate import SOLVERS, IntegratorConfig, attach_anchors, rollout
from .model import neutral_state, random_state


@click.group()
def main():
    """Constrained rigid-body dynamics toolbox."""


def _note_blas_threads() -> None:
    """One stderr line when neither OPENBLAS_NUM_THREADS nor OMP_NUM_THREADS
    is set: OpenBLAS then starts its default threads, which contend on a
    small machine and inflate the dense solves' times (kkt_oracle's mean
    most).  numpy has loaded BLAS by now, so only the environment can pin it."""
    if not (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")):
        click.echo("note: OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are unset, so BLAS runs "
                   "its default threads; set OPENBLAS_NUM_THREADS=1 for one-thread timings",
                   err=True)


@main.command()
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--sizes", default="12,24,40", show_default=True,
              help="comma-separated random-model sizes")
@click.option("--instances", default=20, show_default=True, type=click.IntRange(min=1),
              help="random instances per solver property")
@click.option("--out", default=None, type=click.Path(), help="write JSON report")
def check(seed, sizes, instances, out):
    """Run the cross-module property check suite."""
    _note_blas_threads()
    try:
        size_list = tuple(int(s) for s in sizes.split(","))
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--sizes") from exc
    if min(size_list) < 1:
        raise click.BadParameter("each size must be at least 1", param_hint="--sizes")
    report = checks.run_check_suite(seed=seed, sizes=size_list,
                                    instance_count=instances)
    for line in report.lines():
        click.echo(line)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    if not report.passed:
        sys.exit(1)


@main.command()
@click.option("--model", "models", required=True,
              help="comma-separated: chain:N | tree:N:B | humanoid | URDF path")
@click.option("--solver", "algorithms", default="pv,caba", show_default=True,
              help="comma-separated algorithm names")
@click.option("--m", "m_values", default="6", show_default=True,
              help="comma-separated total constraint rows")
@click.option("--reps", default=30, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", default=None, type=click.Path(),
              help="output path (.csv or .json)")
def bench(models, algorithms, m_values, reps, seed, out):
    """Benchmark algorithms over model families and constraint counts."""
    _note_blas_threads()
    try:
        specs = [bench_mod.BenchSpec(models=tuple(models.split(",")),
                                     algorithms=tuple(algorithms.split(",")),
                                     m=int(m), reps=reps, seed=seed)
                 for m in m_values.split(",")]
        records = [r for spec in specs for r in bench_mod.run_bench(spec)]
    except (PvdynError, ValueError) as exc:
        raise click.UsageError(f"model {models}, solver {algorithms}, m={m_values}: "
                               f"{type(exc).__name__}: {exc}") from exc
    click.echo(bench_mod.CSV_HEADER)
    for r in records:
        click.echo(f"{r.algorithm},{r.n},{r.m},{r.d},{r.reps},"
                   f"{r.mean_ns:.0f},{r.std_ns:.0f},{r.min_ns:.0f},{r.flops},{r.seed},"
                   f"{r.status}")
    if out:
        if out.endswith(".json"):
            bench_mod.emit_json(records, out)
        else:
            bench_mod.emit_csv(records, out)
        click.echo(f"wrote {out}")
    # run_bench goes model by model, then algorithm by algorithm, per m
    cell_models = [ms for spec in specs for ms in spec.models for _ in spec.algorithms]
    failed = [(ms, r) for ms, r in zip(cell_models, records) if r.status != "ok"]
    for ms, r in failed:
        click.echo(f"Error: model {ms}, solver {r.algorithm}, m={r.m}: {r.status}",
                   err=True)
    if failed:
        sys.exit(2)


@main.command("rollout")
@click.option("--model", "model_spec", required=True)
@click.option("--solver", default="pv", show_default=True)
@click.option("--m", default=0, show_default=True, type=int)
@click.option("--dt", default=1e-3, show_default=True, type=float)
@click.option("--steps", default=1000, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--scheme", default="semi_implicit_euler", show_default=True)
@click.option("--baumgarte", default="0,0", show_default=True,
              help="default k_p,k_d gains for anchored constraints")
@click.option("--out", default=None, type=click.Path(), help="write JSON summary")
def rollout_cmd(model_spec, solver, m, dt, steps, seed, scheme, baumgarte, out):
    """Simulate a rollout and report trajectory statistics."""
    if solver not in SOLVERS:
        raise click.UsageError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    try:
        model = bench_mod.load_model(model_spec, seed)
    except ModelLoadError as exc:
        raise click.UsageError(str(exc)) from exc
    try:
        kp, kd = (float(x) for x in baumgarte.split(","))
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--baumgarte") from exc
    state = random_state(model, seed) if seed else neutral_state(model)
    try:
        cs = generators.standard_constraints(model, m, seed)
        config = IntegratorConfig(scheme=scheme, dt=dt, baumgarte_default=(kp, kd))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if cs.m and (kp or kd):
        cs = attach_anchors(model, state, cs)
    tau = np.zeros(model.nv)
    try:
        traj = rollout(model, state, tau, cs, solver, config, steps)
    except PvdynError as exc:
        raise click.UsageError(f"model {model_spec}, solver {solver}, m={m}: "
                               f"{type(exc).__name__}: {exc}") from exc
    final = traj[-1]
    summary = {
        "model": model_spec, "solver": solver, "steps": steps, "dt": dt,
        "m": cs.m,
        "final_v_norm": float(np.linalg.norm(final.v)),
        "max_v_norm": float(max(np.linalg.norm(s.v) for s in traj)),
        "final_q": [float(x) for x in final.q],
    }
    for key, value in summary.items():
        if key != "final_q":
            click.echo(f"{key}: {value}")
    if out:
        import json
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")


@main.command()
@click.option("--model", "model_spec", required=True,
              help="chain:N | tree:N:B | humanoid | URDF path")
def info(model_spec):
    """Print structural statistics of a model."""
    try:
        model = bench_mod.load_model(model_spec)
    except ModelLoadError as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(f"links: {model.n_links}")
    click.echo(f"dofs (n): {model.nv}")
    click.echo(f"depth (d): {model.depth}")
    click.echo(f"base: {model.base_kind}")
    total_mass = sum(i.mass for i in model.inertia)
    click.echo(f"total mass: {total_mass:.3f} kg")
    kinds = {}
    for j in model.joints:
        kinds[j.kind] = kinds.get(j.kind, 0) + 1
    click.echo("joints: " + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())))


if __name__ == "__main__":
    main()
