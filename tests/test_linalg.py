"""The LAPACK-backed dense helpers and the dual pivot test built on them."""

import numpy as np
import pytest
import scipy.linalg

from pvdyn import flops, linalg
from pvdyn.constrained import _ELIM_PIVOT_RATIO, _try_chol
from pvdyn.errors import NotPositiveDefinite


def _spd(n, seed=0):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


INDEFINITE = np.diag([2.0, -1.0, 3.0])


class TestCholFactor:
    @pytest.mark.parametrize("a", [INDEFINITE, np.zeros((3, 3))],
                             ids=["indefinite", "zero"])
    def test_raises_not_positive_definite(self, a):
        with pytest.raises(NotPositiveDefinite):
            linalg.chol_factor(a)

    @pytest.mark.parametrize("n", [1, 3, 6, 24])
    def test_lower_factor_charged_once(self, n):
        a = _spd(n, n)
        with flops.counted() as count:
            low = linalg.chol_factor(a)
            assert count() == flops.cholesky(n)
        np.testing.assert_array_equal(low, np.tril(low))
        np.testing.assert_allclose(low @ low.T, a, rtol=1e-13, atol=1e-13 * n)

    @pytest.mark.parametrize("layout", ["c", "fortran", "view"])
    def test_leaves_its_input_alone(self, layout):
        # the dual solves factor views into the workspace's L
        big = _spd(9)
        a = {"c": big.copy(), "fortran": np.asfortranarray(big),
             "view": big[2:8, 2:8]}[layout]
        before = a.copy()
        linalg.chol_factor(a)
        _try_chol(a, _ELIM_PIVOT_RATIO)
        np.testing.assert_array_equal(a, before)


class TestCholSolve:
    @pytest.mark.parametrize("shape", [(6,), (6, 4), (6, 0)], ids=["1d", "2d", "no_columns"])
    def test_bitwise_cho_solve(self, shape):
        low = linalg.chol_factor(_spd(6))
        b = np.random.default_rng(1).standard_normal(shape)
        x = linalg.chol_solve(low, b)
        ref = scipy.linalg.cho_solve((low, True), b, check_finite=False)
        assert x.shape == ref.shape
        np.testing.assert_array_equal(x, ref)

    def test_charges_per_column(self):
        low = linalg.chol_factor(_spd(6))
        with flops.counted() as count:
            linalg.chol_solve(low, np.ones((6, 4)))
            assert count() == flops.chol_solve(6, 4)

    def test_inverse_matches_cho_solve_of_identity(self):
        low = linalg.chol_factor(_spd(6))
        inv = scipy.linalg.cho_solve((low, True), np.eye(6), check_finite=False)
        np.testing.assert_array_equal(linalg.chol_inverse(low), 0.5 * (inv + inv.T))


class TestFactorSolve:
    """The uncharged factor and solve that hold and apply the root's D."""

    @pytest.mark.parametrize("n", [1, 6])
    def test_solves_vectors_and_blocks(self, n):
        a = _spd(n, 2)
        low = linalg._factor(a)
        rng = np.random.default_rng(3)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 5))):
            np.testing.assert_allclose(a @ linalg._solve(low, rhs), rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("a", [np.zeros((1, 1)), -np.eye(1), np.zeros((6, 6)),
                                   np.diag([1.0, 1.0, 1.0, -1.0, 1.0, 1.0])],
                             ids=["zero1", "negative1", "zero6", "indefinite6"])
    def test_raises_on_a_block_that_is_not_pd(self, a):
        with pytest.raises(NotPositiveDefinite):
            linalg._factor(a)


class TestTryChol:
    @pytest.mark.parametrize("block", [np.zeros((3, 3)), INDEFINITE],
                             ids=["zero", "indefinite"])
    def test_none_on_a_block_that_is_not_pd(self, block):
        assert _try_chol(block, _ELIM_PIVOT_RATIO) is None

    def test_none_below_the_pivot_ratio(self):
        # positive definite, but its last pivot is 1e-8 of the largest diagonal
        block = np.diag([1.0, 1.0, 1e-8])
        assert linalg.chol_factor(block) is not None
        assert _try_chol(block, _ELIM_PIVOT_RATIO) is None

    def test_none_below_the_pivot_ratio_of_an_outer_scale(self):
        # comfortably PD on its own, but tiny next to the surrounding system
        block = 1e-9 * _spd(3)
        assert _try_chol(block, _ELIM_PIVOT_RATIO) is not None
        assert _try_chol(block, _ELIM_PIVOT_RATIO, scale=1.0) is None

    def test_factor_of_a_comfortable_block(self):
        block = _spd(3)
        np.testing.assert_array_equal(_try_chol(block, _ELIM_PIVOT_RATIO),
                                      linalg.chol_factor(block))
