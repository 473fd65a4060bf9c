"""Benchmark harness: wall time plus instrumented flop counts.

A benchmark cell is (model spec, algorithm): the cell callable maps a
fixed seeded (model, state, tau, constraints) to the algorithm's output,
including whatever front end the algorithm needs (kinematics, mass
matrix, Jacobians), so cells are comparable as whole pipelines.
Workspace allocation happens before timing starts.

Timed repetitions run with flop counting paused; one extra counted call
records the work.  Instrumented counts are the primary complexity
evidence, wall time is secondary.  A cell whose algorithm raises a
library error (a singular dual, for one) keeps its row, with the error's
class name as its status, NaN times and zero flops; the other cells
still run.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import baseline, constrained, delassus, flops, generators, kinematics, urdf
from .errors import ModelLoadError, PvdynError, UnknownAlgorithm
from .model import ConstraintSet, Model, random_state

CSV_HEADER = "algorithm,n,m,d,reps,mean_ns,std_ns,min_ns,flops,seed,status"

ALGORITHMS = ("aba", "rnea", "crba", "pv", "pv_soft", "pv_early", "caba",
              "kkt_oracle", "ltl_osim", "pv_osim", "pv_osimr", "caba_osim")


@dataclass
class BenchSpec:
    models: tuple[str, ...]
    algorithms: tuple[str, ...]
    m: int = 0
    reps: int = 30
    seed: int = 0

    def __post_init__(self):
        self.models = tuple(self.models)
        self.algorithms = tuple(self.algorithms)
        if self.reps < 30:
            raise ValueError("reps must be at least 30")


@dataclass
class BenchRecord:
    algorithm: str
    n: int
    m: int
    d: int
    reps: int
    mean_ns: float
    std_ns: float
    min_ns: float
    flops: int
    seed: int
    status: str = "ok"            # ok, or the class name of the cell's error

    def __post_init__(self):
        if self.reps < 30:
            raise ValueError("reps must be at least 30")
        if self.min_ns > self.mean_ns + 1e-9:
            raise ValueError("min_ns cannot exceed mean_ns")


def load_model(spec: str, seed: int = 0) -> Model:
    """Resolve 'chain:N', 'tree:N:B', 'humanoid', or a URDF path."""
    try:
        if spec.startswith("chain:"):
            parts = spec.split(":")
            kind = parts[2] if len(parts) > 2 else "revolute"
            return generators.generate_chain(int(parts[1]), kind)
        if spec.startswith("tree:"):
            _, n, b = spec.split(":")
            return generators.generate_tree(int(n), int(b), seed)
        if spec == "humanoid":
            return generators.generate_humanoid_like()
        if os.path.exists(spec):
            return urdf.load_urdf(spec)
    except ModelLoadError:
        raise
    except Exception as exc:
        raise ModelLoadError(f"cannot load model {spec!r}: {exc}") from exc
    raise ModelLoadError(f"cannot load model {spec!r}: no such file or family")


def build_cell(model: Model, algorithm: str, m: int, seed: int):
    """Return a zero-argument callable running the whole pipeline once."""
    state = random_state(model, seed)
    rng = np.random.default_rng((seed, 17))
    tau = rng.uniform(-5.0, 5.0, model.nv)
    cs = generators.standard_constraints(model, m, seed) if m else ConstraintSet.empty()
    ws = constrained.PvWorkspace(model, cs)
    settings = constrained.SolverSettings()

    if algorithm == "aba":
        return lambda: baseline.aba(model, state, tau)
    if algorithm == "rnea":
        return lambda: baseline.rnea(model, state, np.zeros(model.nv))
    if algorithm == "crba":
        return lambda: baseline.crba(model, state)
    if algorithm == "pv":
        return lambda: constrained.pv_solve(model, state, tau, cs, ws)
    if algorithm == "pv_soft":
        return lambda: constrained.pv_soft_solve(model, state, tau, cs, settings, ws)
    if algorithm == "pv_early":
        return lambda: constrained.pv_early_solve(model, state, tau, cs, ws)
    if algorithm == "caba":
        return lambda: constrained.constrained_aba(model, state, tau, cs, settings, ws)
    if algorithm == "kkt_oracle":
        return lambda: baseline.kkt_oracle(model, state, tau, cs)
    if algorithm == "ltl_osim":
        def run_ltl():
            cache = kinematics.forward_kinematics(model, state)
            mass = baseline.crba(model, state, cache=cache)
            jac = kinematics.constraint_jacobian(model, cache, cs)
            return baseline.ltl_osim(mass, jac)
        return run_ltl
    if algorithm == "pv_osim":
        return lambda: delassus.pv_osim(model, state, cs, ws)
    if algorithm == "pv_osimr":
        return lambda: delassus.pv_osimr(model, state, cs, ws)
    if algorithm == "caba_osim":
        return lambda: delassus.caba_osim(model, state, cs, settings, ws)
    raise UnknownAlgorithm(f"unknown algorithm {algorithm!r}; "
                           f"choose from {ALGORITHMS}")


def _run_cell(model_spec: str, algorithm: str, m: int, reps: int,
              seed: int) -> BenchRecord:
    model = load_model(model_spec, seed)
    cell = build_cell(model, algorithm, m, seed)
    try:
        with flops.paused():
            for _ in range(10):                       # warmup
                cell()
            times = []
            for _ in range(reps):
                t0 = time.perf_counter_ns()
                cell()
                times.append(time.perf_counter_ns() - t0)
        with flops.counted() as count:
            cell()
            work = count()
    except PvdynError as exc:
        nan = float("nan")
        return BenchRecord(
            algorithm=algorithm, n=model.nv, m=m, d=model.depth, reps=reps,
            mean_ns=nan, std_ns=nan, min_ns=nan, flops=0, seed=seed,
            status=type(exc).__name__)
    return BenchRecord(
        algorithm=algorithm, n=model.nv, m=m, d=model.depth, reps=reps,
        mean_ns=float(statistics.fmean(times)),
        std_ns=float(statistics.pstdev(times)),
        min_ns=float(min(times)), flops=int(work), seed=seed)


def run_bench(spec: BenchSpec) -> list[BenchRecord]:
    """Run every (model, algorithm) cell of the spec."""
    return [_run_cell(ms, alg, spec.m, spec.reps, spec.seed)
            for ms in spec.models for alg in spec.algorithms]


def emit_csv(records: list[BenchRecord], path: str) -> None:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.algorithm},{r.n},{r.m},{r.d},{r.reps},"
                     f"{r.mean_ns!r},{r.std_ns!r},{r.min_ns!r},{r.flops},{r.seed},"
                     f"{r.status}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_json(records: list[BenchRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(r) for r in records], fh, indent=2)
        fh.write("\n")


def load_json(path: str) -> list[BenchRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return [BenchRecord(**row) for row in json.load(fh)]
