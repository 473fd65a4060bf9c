import os

# one BLAS thread before numpy loads: on a small machine OpenBLAS's
# default threads make the dense factorizations slower and their times noisy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from pvdyn import (ConstraintSet, SolverSettings, generate_chain,
                   generate_humanoid_like, generate_tree, neutral_state,
                   point_constraint, random_state, weld_constraint)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def pendulum():
    """Single revolute-z link, mass 1, com at 0.5 m, gravity along -y."""
    return generate_chain(1).with_gravity([0.0, -9.81, 0.0])


@pytest.fixture
def chain8():
    return generate_chain(8)


@pytest.fixture
def humanoid():
    return generate_humanoid_like()


def random_transform(rng):
    from pvdyn import PlueckerTransform
    from pvdyn.spatial import axis_angle_rotation
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return PlueckerTransform(axis_angle_rotation(axis, rng.uniform(-3, 3)),
                             rng.standard_normal(3))


def congruence(x, inertia):
    """X' I X of a 6x6 inertia, symmetrized: the inertia mapped from the
    target frame of the motion transform X into its source frame."""
    out = x.T @ inertia @ x
    return 0.5 * (out + out.T)


def cons_in_subtree(model, cs):
    """For each link, the constraints on it or below it, in set order."""
    out = [[] for _ in range(model.n_links)]
    for ci, (link, _) in enumerate(cs.layout):
        while link >= 0:
            out[link].append(ci)
            link = model.parent[link]
    return out


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])
