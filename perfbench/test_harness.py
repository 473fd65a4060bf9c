"""Self-tests of the benchmark harness and tracer.

    python3 -m pytest -q perfbench/test_harness.py
"""

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
from harness import Check, Op  # noqa: E402


class FakeFlops:
    """Stands in for pvdyn.flops.counted: every op counts 10 flops."""

    def __call__(self):
        return self

    def __enter__(self):
        return lambda: 10

    def __exit__(self, *exc):
        return False


class TypedError(Exception):
    pass


def test_percentile_matches_inclusive_quantiles():
    values = [float((7 * k) % 31) for k in range(57)]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    assert harness.percentile(values, 0.50) == pytest.approx(cuts[49])
    assert harness.percentile(values, 0.95) == pytest.approx(cuts[94])


def test_measure_runs_whole_rounds_until_enough_rounds():
    pool = [Op("a", lambda: 1, lambda out: Check(out == 1)) for _ in range(7)]
    plain, traced, rounds = harness.measure(pool, 0.0, FakeFlops(), (TypedError,))
    assert rounds == harness.MIN_ROUNDS
    assert plain.attempted == 7 * rounds
    assert len(plain.latency_ns) == 7
    assert len(plain.calibration_ns) == 7 * rounds * harness.CAL_SAMPLES
    assert traced.attempted == 0
    assert plain.flops_per_op() == 10


def test_latency_is_corrected_by_the_calibration_in_the_same_rounds():
    tally = harness.Tally()
    # op 0 takes 1 ms and op 1 takes 3 ms when the calibration takes its
    # reference time; in half of the rounds the machine runs twice as slow
    for slow in (1, 2) * 20:
        for index, ms in enumerate((1, 3)):
            tally.record(index, "op", slow * ms * 1_000_000,
                         [slow * harness.REFERENCE_CAL_NS], 10, Check(True), None)
    assert tally.attempted == 80
    assert tally.speed_factor() == pytest.approx(2 / 3)
    assert tally.op_ms(0.0) == pytest.approx(1.0)
    assert tally.op_ms(1.0) == pytest.approx(3.0)
    assert tally.op_ms(0.5) == pytest.approx(2.0)
    assert tally.raw_op_ms(0.5) == pytest.approx(3.0)
    assert tally.ops_per_s() == pytest.approx(2 / 0.004)


def _raise_typed():
    raise TypedError("singular")


def test_failing_ops_raise_failed_frac_without_aborting():
    pool = [Op("good", lambda: 1, lambda out: Check(out == 1)),
            Op("raises", _raise_typed, lambda out: Check(True)),
            Op("wrong", lambda: 2, lambda out: Check(out == 1)),
            Op("good", lambda: 1, lambda out: Check(out == 1))]
    plain, _, rounds = harness.measure(pool, 0.0, FakeFlops(), (TypedError,),
                                       min_rounds=10)
    assert plain.attempted == 4 * rounds >= 40
    assert plain.failed == 2 * rounds
    assert plain.ops_per_s() > 0

    import run
    metrics = run.end_to_end(plain, setup_s=1.0)
    assert metrics["ok_frac"]["value"] == pytest.approx(0.5)
    assert metrics["lam_ok_frac"]["value"] == 1.0


def test_untyped_errors_abort_the_run():
    def broken():
        raise ValueError("a bug in the benchmark, not a library failure")
    with pytest.raises(ValueError):
        harness.measure([Op("bug", broken)], 0.0, FakeFlops(), (TypedError,))


def test_multiplier_misses_are_reported_not_failed():
    pool = [Op("ls", lambda: 0, lambda out: Check(True, lam_ok=False)),
            Op("ls", lambda: 0, lambda out: Check(True, lam_ok=True))]
    plain, _, _ = harness.measure(pool, 0.0, FakeFlops(), (TypedError,), min_rounds=1)
    assert plain.failed == 0
    assert plain.lam_missed * 2 == plain.attempted


def test_tracer_attributes_nested_calls_and_reconciles_flops():
    import numpy as np
    import pvdyn
    from tracer import Tracer

    model = pvdyn.generate_chain(6)
    cs = pvdyn.standard_constraints(model, 3)
    state = pvdyn.random_state(model, 0)
    tau = np.zeros(model.nv)
    ws = pvdyn.PvWorkspace(model, cs)
    tr = Tracer(pvdyn.flops.total, (pvdyn.errors.PvdynError,))
    pool = [Op("caba", lambda: pvdyn.constrained_aba(model, state, tau, cs, None, ws),
               lambda out: Check(True))]
    plain, traced, rounds = harness.measure(pool, 0.0, pvdyn.flops.counted,
                                            (pvdyn.errors.PvdynError,), tr, min_rounds=2)
    assert rounds >= 2 and traced.attempted == tr.ops >= 1
    assert tr.total("kinematics.forward_kinematics", 0) == 1.0
    assert tr.caba[0] == tr.ops
    assert tr.total("", 2) == traced.flops_per_op()
    # uninstalled after the traced rounds: names point at the originals again
    assert pvdyn.constrained_aba is pvdyn.constrained.constrained_aba
    assert not hasattr(pvdyn.constrained_aba, "__wrapped__")


def test_nearly_singular_draw_is_replaced_and_kept_for_prox_singular():
    import numpy as np
    import pvdyn
    import workloads

    model = pvdyn.generate_tree(*workloads.TREE)
    seed, index = workloads.NEAR_SINGULAR
    cs, points = workloads.fd_fixture(model, seed, index + 1)
    near = points[index]
    lam_min = np.linalg.eigvalsh(pvdyn.dense_delassus(model, near[0], cs))[0]
    assert lam_min < pvdyn.SolverSettings().mu

    spare = iter(points[:index])
    kept = workloads._well_posed(model, cs, near, lambda: next(spare), "test")
    assert kept is points[0]
    with pytest.raises(workloads.CertificationError):
        workloads._well_posed(model, cs, near, lambda: near, "test")
