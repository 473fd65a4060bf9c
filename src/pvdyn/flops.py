"""Floating-point work accounting shared by every dynamics algorithm.

Each algorithm accumulates an analytic count of the multiply/add work it
actually performs (branches taken, iterations run, path lengths walked)
using the constants below, and deposits the total into a per-thread
counter via :func:`add`.  Because all algorithms price their work with
the same primitive costs, counter totals are directly comparable, which
is what the complexity and speed-up evidence relies on.

Counts are flops (one multiply or one add each); small fixed-size
primitives use their dense operation counts.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

# 6-D spatial primitives on (rotation, translation) pairs
ADD6 = 6           # sum of two 6-vectors
XMOT = 42          # motion transform of a 6-vector
XFORCE_T = 42      # transposed force transform (child-to-parent push)
CROSS_M = 33       # motion x motion
CROSS_F = 33       # motion x* force
APPLY_I = 66       # 6x6 inertia times 6-vector
XINERTIA = 850     # congruence transform of a 6x6 inertia
COMPOSE = 63       # composition of two transforms
AXIS_ANGLE = 35    # rotation matrix from axis-angle


def gemm(m: int, n: int, k: int) -> int:
    """Dense (m x n) @ (n x k) product."""
    return 2 * m * n * k


def cholesky(n: int) -> int:
    return (2 * n ** 3) // 3 + 2 * n * n


def chol_solve(n: int, nrhs: int = 1) -> int:
    return 2 * n * n * nrhs


def sym_eig(n: int) -> int:
    return 10 * n ** 3


_tls = threading.local()


def _slot():
    if not hasattr(_tls, "count"):
        _tls.count = 0
        _tls.paused = False
    return _tls


def add(n: int) -> None:
    s = _slot()
    if not s.paused:
        s.count += int(n)


def total() -> int:
    return _slot().count


@contextmanager
def paused():
    """Suspend counting, e.g. around timed benchmark repetitions."""
    s = _slot()
    prev = s.paused
    s.paused = True
    try:
        yield
    finally:
        s.paused = prev


@contextmanager
def counted():
    """Measure the flops of a block: ``with counted() as c: ...; c()``."""
    start = _slot().count
    yield lambda: _slot().count - start
