"""Closed-loop timing of one workload's op pool, and the statistics it reports.

One caller runs the pool's ops in a fixed rotation; each op starts only
when the previous one has returned and been checked.  The loop runs
whole rounds of the pool, so every op of the pool runs equally often and
counts that depend on the inputs (flops, failures) repeat exactly for a
given seed, whatever the machine's speed.

Latency is corrected for the machine's speed.  On a shared machine the
time of fixed work swings by up to 1.9x within milliseconds, and the
share of slow time drifts over tens of seconds, so raw latencies of the
same op differ by 20 to 30% from one run to the next.  So a fixed
calibration kernel that uses none of the library is timed just before
every op.  An op's latency is its mean over the rounds times the speed
factor REFERENCE_CAL_NS / (mean calibration time of the same rounds):
the op's time in units of the kernel's, expressed in ms at the speed
where the kernel takes REFERENCE_CAL_NS.  Percentiles are taken over the
pool's ops.

This module imports nothing from the library: the flop counter and the
library's error type are passed in, which lets the self-tests drive it
with fake ops.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

MIN_ROUNDS = 3       # rounds, hence timed samples per op, at the least
CAL_STEPS = 150      # calibration work per sample
CAL_SAMPLES = 2      # calibration samples taken before each op
# the calibration time on an undisturbed core of the 2-vCPU machine the
# bounds were set on (the 5th percentile of its calibration times there)
REFERENCE_CAL_NS = 250_000
_CAL_MATRIX = np.eye(6) + np.arange(36.0).reshape(6, 6) / 100.0
_CAL_VECTOR = np.ones(6)


def calibrate() -> None:
    """Fixed reference work: 6x6 matrix-vector products driven from
    interpreted Python, the instruction mix of the library's spatial
    kernels, but none of its code, so no change to the library moves it."""
    x = _CAL_VECTOR
    for _ in range(CAL_STEPS):
        x = _CAL_MATRIX @ x
        x = x / (1.0 + abs(float(x[0])))


def percentile(values, q: float) -> float:
    """Quantile q of `values`, interpolating linearly between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Check:
    """Outcome of one op's output check.

    `ok` gates the op.  `lam_ok` is None when the op returns no
    multipliers with a reference, else whether they match it.  The error
    fields are the measured relative errors (None when not applicable).
    """

    __slots__ = ("ok", "lam_ok", "qdd_err", "lam_err", "osim_err", "drift")

    def __init__(self, ok, lam_ok=None, qdd_err=None, lam_err=None, osim_err=None,
                 drift=None):
        self.ok = bool(ok)
        self.lam_ok = lam_ok
        self.qdd_err = qdd_err
        self.lam_err = lam_err
        self.osim_err = osim_err
        self.drift = drift


class Op:
    """One unit of a workload's work: `run()` is timed, `check(out)` is not."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind: str, run, check=None):
        self.kind = kind
        self.run = run
        self.check = check


class Tally:
    """What one side (traced or plain) of a run measured."""

    def __init__(self):
        self.latency_ns: dict[int, list[int]] = {}   # pool position -> samples
        self.calibration_ns: list[int] = []
        self.flops = 0
        self.attempted = 0
        self.failed = 0
        self.lam_missed = 0
        self.err_max = {"qdd": 0.0, "lam": 0.0, "osim": 0.0, "drift": 0.0}
        self.failures: list[str] = []

    def record(self, index: int, kind: str, latency_ns: int, calibration_ns: list[int],
               flops: int, check: Check | None, error: Exception | None) -> None:
        self.attempted += 1
        self.latency_ns.setdefault(index, []).append(latency_ns)
        self.calibration_ns.extend(calibration_ns)
        self.flops += flops
        if error is not None or check is None or not check.ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{kind}: {error!r}" if error is not None
                                     else f"{kind}: output check failed")
        if check is None:
            return
        if check.lam_ok is not None and not check.lam_ok:
            self.lam_missed += 1
        for key, val in (("qdd", check.qdd_err), ("lam", check.lam_err),
                         ("osim", check.osim_err), ("drift", check.drift)):
            if val is not None:
                self.err_max[key] = max(self.err_max[key], float(val))

    def speed_factor(self) -> float:
        """Reference calibration time over this tally's mean one."""
        return REFERENCE_CAL_NS / statistics.fmean(self.calibration_ns)

    def _op_ns(self) -> list[float]:
        factor = self.speed_factor()
        return [factor * statistics.fmean(v) for v in self.latency_ns.values()]

    def op_ms(self, q: float) -> float:
        """Quantile q over the pool's ops of each op's corrected latency."""
        return percentile(self._op_ns(), q) / 1e6

    def raw_op_ms(self, q: float) -> float:
        """As op_ms, without the speed correction."""
        return self.op_ms(q) / self.speed_factor()

    def ops_per_s(self) -> float:
        """Ops that passed per second of a round at the corrected latencies:
        the closed-loop rate of one caller."""
        passed = 1.0 - self.failed / self.attempted
        ops = self._op_ns()
        return passed * len(ops) / (sum(ops) / 1e9)

    def flops_per_op(self) -> float:
        return self.flops / self.attempted


def warm(pool) -> None:
    """Run the first op of each kind once, untimed and unchecked."""
    seen = set()
    for op in pool:
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()


def run_op(index: int, op: Op, tally: Tally, counted, errors, tracer=None) -> None:
    """Time one op, count its flops, then check its output outside the timing."""
    error = None
    out = None
    calibration_ns = []
    for _ in range(CAL_SAMPLES):
        t_cal = time.perf_counter_ns()
        calibrate()
        calibration_ns.append(time.perf_counter_ns() - t_cal)
    with counted() as flops_of:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter_ns()
        try:
            out = op.run()
        except errors as exc:           # a typed library error fails the op only
            error = exc
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.active = False
    flops = flops_of()
    if tracer is not None:
        tracer.fold()
    check = op.check(out) if error is None else None
    tally.record(index, op.kind, t1 - t0, calibration_ns, flops, check, error)


def measure(pool, seconds: float, counted, errors, tracer=None,
            min_rounds: int = MIN_ROUNDS):
    """Run whole rounds of `pool` until `seconds` passed and at least
    `min_rounds` rounds ran.

    Without a tracer every round is plain.  With one, rounds alternate
    plain and traced, so the traced run carries its own untraced base
    measured under the same machine conditions.  Returns the plain and
    the traced tallies and the number of rounds run.
    """
    plain, traced = Tally(), Tally()
    start = time.perf_counter()
    rounds = 0
    while True:
        use_trace = tracer is not None and rounds % 2 == 1
        tally = traced if use_trace else plain
        if use_trace:
            tracer.install()
        try:
            for index, op in enumerate(pool):
                run_op(index, op, tally, counted, errors, tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        rounds += 1
        if (time.perf_counter() - start >= seconds and rounds >= min_rounds
                and (tracer is None or rounds >= 2)):
            return plain, traced, rounds
