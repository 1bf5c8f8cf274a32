import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracles
import systems
from dynrel.errors import (
    ExistenceFailure,
    NotPSD,
    SingularInput,
    SpectrumConflict,
)
from dynrel.kernels import (
    COND_LIMIT,
    DEFAULT_TOL,
    POLE_COND_LIMIT,
    Tolerances,
    is_invertible,
    matrix_exp,
    matrix_log_principal,
    nonzero_spectrum,
    numerical_rank,
    psd_factor,
    solve_lyap_continuous,
    solve_lyap_discrete,
)


class TestTolerances:
    def test_defaults_positive(self):
        tol = Tolerances()
        assert tol.rank_rtol == 1e-10
        assert tol.psd_tol == 1e-8
        assert tol.stability_margin == 1e-9
        assert tol.residual_tol == 1e-8

    @pytest.mark.parametrize("field", ["rank_rtol", "psd_tol", "stability_margin", "residual_tol"])
    def test_nonpositive_rejected(self, field):
        with pytest.raises(ValueError):
            Tolerances(**{field: 0.0})


class TestMatrixExp:
    def test_zero_matrix(self):
        np.testing.assert_allclose(matrix_exp(np.zeros((3, 3)), 2.7), np.eye(3))

    def test_scalar_diagonal(self):
        got = matrix_exp(np.array([[-1.0]]), 1.0)
        np.testing.assert_allclose(got, [[np.exp(-1.0)]], rtol=1e-14)

    def test_golden_against_taylor(self):
        got = matrix_exp(systems.A3, 0.1)
        want = oracles.taylor_expm(systems.A3, 0.1)
        assert np.abs(got - want).max() < 1e-10

    def test_time_factor(self, rng):
        a = oracles.hurwitz(rng, 4)
        np.testing.assert_allclose(matrix_exp(a, 0.37), matrix_exp(a * 0.37), rtol=1e-12)

    def test_against_taylor(self, rng):
        for _ in range(20):
            a = rng.normal(size=(5, 5)) * rng.uniform(0.1, 10.0)
            got = matrix_exp(a)
            want = oracles.taylor_expm(a)
            assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            matrix_exp(np.zeros((2, 3)))


class TestMatrixLog:
    def test_identity(self):
        np.testing.assert_allclose(matrix_log_principal(np.eye(4)), np.zeros((4, 4)), atol=1e-14)

    def test_scalar_diagonal(self):
        got = matrix_log_principal(np.diag([np.e, np.e**2]))
        np.testing.assert_allclose(got, np.diag([1.0, 2.0]), atol=1e-13)

    def test_roundtrip_golden(self):
        a_d = matrix_exp(systems.A2, 1.0)
        got = matrix_log_principal(a_d)
        assert np.abs(got - systems.A2).max() < 1e-8

    def test_negative_real_eigenvalue(self):
        with pytest.raises(ExistenceFailure):
            matrix_log_principal(np.diag([-0.5, 0.5]))

    def test_singular(self):
        with pytest.raises(SingularInput):
            matrix_log_principal(np.diag([0.0, 1.0]))

    def test_complex_pair_ok(self):
        a = np.array([[-1.0, 2.0], [-2.0, -1.0]])  # eigenvalues -1 +/- 2i
        m = matrix_exp(a, 0.3)
        got = matrix_log_principal(m) / 0.3
        assert np.abs(got - a).max() < 1e-10

    def test_against_scipy(self, rng):
        for _ in range(10):
            m = matrix_exp(oracles.hurwitz(rng, 4), rng.uniform(0.1, 1.0))
            got = matrix_log_principal(m)
            want = scipy.linalg.logm(m)
            assert np.abs(got - want).max() < 1e-9


class TestLyapContinuous:
    def test_scalar(self):
        np.testing.assert_allclose(solve_lyap_continuous([[-1.0]], [[2.0]]), [[1.0]])

    def test_decoupled_diagonal(self):
        got = solve_lyap_continuous(np.diag([-1.0, -2.0]), np.eye(2))
        np.testing.assert_allclose(got, np.diag([0.5, 0.25]), rtol=1e-12)

    def test_golden_against_kron(self):
        a, q = systems.A3, systems.B3 @ systems.B3.T
        got = solve_lyap_continuous(a, q)
        want = oracles.kron_lyap_continuous(a, q)
        assert np.abs(got - want).max() < 1e-8
        assert np.abs(got - want).max() < 1e-8 * np.abs(want).max()

    def test_spectrum_conflict(self):
        with pytest.raises(SpectrumConflict):
            solve_lyap_continuous(np.diag([1.0, -1.0]), np.eye(2))

    def test_residuals_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = oracles.hurwitz(rng, n)
            r = rng.normal(size=(n, n))
            q = r @ r.T
            p = solve_lyap_continuous(a, q)
            resid = np.linalg.norm(a @ p + p @ a.T + q, 2) / np.linalg.norm(q, 2)
            assert resid < DEFAULT_TOL.residual_tol


class TestLyapDiscrete:
    def test_scalar(self):
        np.testing.assert_allclose(solve_lyap_discrete([[0.5]], [[0.75]]), [[1.0]])

    def test_zero_dynamics(self):
        q = np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(solve_lyap_discrete(np.zeros((2, 2)), q), q)

    def test_dual_equation_golden(self):
        a, bbt = systems.A2, systems.B2 @ systems.B2.T
        a_d = matrix_exp(a, 0.1)
        q_d = oracles.simpson_qd(a, bbt, 0.1)
        p_disc = solve_lyap_discrete(a_d, q_d)
        p_cont = solve_lyap_continuous(a, bbt)
        assert np.abs(p_disc - p_cont).max() < 1e-7

    def test_against_kron(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a_d = rng.normal(size=(n, n))
            a_d *= rng.uniform(0.1, 0.9) / max(np.abs(np.linalg.eigvals(a_d)).max(), 1e-8)
            r = rng.normal(size=(n, n))
            q_d = r @ r.T
            got = solve_lyap_discrete(a_d, q_d)
            want = oracles.kron_lyap_discrete(a_d, q_d)
            assert np.abs(got - want).max() < 1e-8 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("edge", [-0.999, -0.99999, 0.99999])
    def test_eigenvalue_near_unit_circle(self, rng, edge):
        # the bilinear transform inverts A_d + I, which is near singular
        # when an eigenvalue of A_d approaches -1
        n = 6
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = np.concatenate([[edge], rng.uniform(-0.9, 0.9, n - 1)])
        a_d = basis @ np.diag(eigs) @ basis.T
        r = rng.normal(size=(n, n))
        q_d = r @ r.T
        got = solve_lyap_discrete(a_d, q_d)
        want = oracles.kron_lyap_discrete(a_d, q_d)
        assert np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2) < DEFAULT_TOL.residual_tol

    def test_unstable_rejected(self):
        with pytest.raises(SpectrumConflict):
            solve_lyap_discrete(np.eye(2), np.eye(2))


def test_lyapunov_memory_at_n40(rng):
    # an n^2 x n^2 Kronecker workspace at n = 40 traces 41-61 MB
    n = 40
    a = oracles.hurwitz(rng, n)
    a_d = a / (1.1 * np.abs(np.linalg.eigvals(a)).max())
    r = rng.normal(size=(n, n))
    q = r @ r.T
    tracemalloc.start()
    try:
        solve_lyap_continuous(a, q)
        solve_lyap_discrete(a_d, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


class TestNumericalRank:
    def test_tiny_singular_value_dropped(self):
        assert numerical_rank(np.diag([1.0, 1e-16])) == 1

    def test_golden_gamma(self):
        assert numerical_rank(systems.GAMMA3_FIRST) == 2
        assert numerical_rank(systems.GAMMA3_SECOND) == 2
        assert numerical_rank(systems.GAMMA2_FIRST) == 1
        assert numerical_rank(systems.GAMMA2_SECOND) == 1

    def test_known_factor_product(self, rng):
        m = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 4))
        assert numerical_rank(m) == 2

    def test_orthogonal_invariance(self, rng):
        for _ in range(25):
            m = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 4))
            q1, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            assert numerical_rank(q1 @ m @ q2) == numerical_rank(m)

    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0


class TestPsdFactor:
    def test_identity(self):
        b = psd_factor(np.eye(3))
        assert b.shape == (3, 3)
        np.testing.assert_allclose(b @ b.T, np.eye(3), atol=1e-12)

    def test_rank_one(self):
        s = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = psd_factor(s)
        assert b.shape == (2, 1)
        np.testing.assert_allclose(b @ b.T, s, atol=1e-12)
        assert b[np.argmax(np.abs(b[:, 0])), 0] > 0

    def test_golden_noise_shape(self):
        bbt = systems.B2 @ systems.B2.T
        b = psd_factor(bbt)
        assert b.shape[1] == 1
        np.testing.assert_allclose(b @ b.T, bbt, atol=1e-10)

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            psd_factor(np.diag([1.0, -1.0]))

    def test_zero(self):
        assert psd_factor(np.zeros((2, 2))).shape == (2, 0)

    def test_reconstruction_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, n + 1))
            r = rng.normal(size=(n, k))
            s = r @ r.T
            b = psd_factor(s)
            assert b.shape[1] == numerical_rank(s)
            assert numerical_rank(b) == b.shape[1]
            assert np.abs(b @ b.T - s).max() < 1e-8 * max(1.0, np.abs(s).max())


class TestNonzeroSpectrum:
    def test_zero_matrix(self):
        assert nonzero_spectrum(np.zeros((3, 3))).size == 0

    def test_golden_projection(self):
        c0 = systems.C3[0:1, :]
        k = systems.B3 @ np.linalg.inv(c0 @ systems.B3) @ c0
        got = nonzero_spectrum(k)
        assert got.shape == (1,)
        assert abs(got[0] - 1.0) < 1e-12

    def test_ab_ba_property(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            a = rng.normal(size=(m, n))
            b = rng.normal(size=(n, m))
            assert oracles.match_gap(nonzero_spectrum(a @ b), nonzero_spectrum(b @ a)) < 1e-8


class TestIsInvertible:
    def test_basic(self):
        assert is_invertible(np.eye(3))
        assert not is_invertible(np.zeros((2, 2)))
        assert not is_invertible(np.ones((2, 3)))
        assert not is_invertible(np.diag([1.0, 1e-15]))


def mixed_stack(rng, k, r, c, complex_):
    """k random r x c matrices of random rank; for k > 1 the first is
    zero and, when square and at least 2 x 2, the second has condition
    number 3.2e12, between COND_LIMIT and POLE_COND_LIMIT."""
    def draw(*shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if complex_ else x

    ranks = rng.integers(0, min(r, c) + 1, size=k)
    stack = np.array([draw(r, j) @ draw(j, c) for j in ranks]).reshape(k, r, c)
    if k > 1:
        stack[0] = 0.0
        if r == c > 1:
            stack[1] = np.diag(np.logspace(0.0, -12.5, r))
    return stack


class TestStacks:
    """The stack forms of numerical_rank and is_invertible against a
    per-matrix loop."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("shape", [(12, 3, 3), (12, 4, 2), (12, 2, 5), (12, 1, 1),
                                       (5, 0, 3), (5, 3, 0), (0, 3, 3)])
    def test_match_loop(self, rng, shape, complex_):
        stack = mixed_stack(rng, *shape, complex_)
        ranks = numerical_rank(stack)
        assert ranks.shape == shape[:1]
        assert ranks.tolist() == [numerical_rank(m) for m in stack]
        for limit in (COND_LIMIT, POLE_COND_LIMIT):
            ok = is_invertible(stack, limit)
            assert ok.shape == shape[:1]
            assert ok.tolist() == [is_invertible(m, limit) for m in stack]

    def test_cond_limits_split_ill_conditioned(self, rng):
        stack = mixed_stack(rng, 4, 3, 3, False)
        assert is_invertible(stack, COND_LIMIT)[:2].tolist() == [False, False]
        assert is_invertible(stack, POLE_COND_LIMIT)[:2].tolist() == [False, True]

    def test_leading_axes_kept(self, rng):
        stack = mixed_stack(rng, 12, 3, 3, True).reshape(2, 6, 3, 3)
        assert numerical_rank(stack).shape == is_invertible(stack).shape == (2, 6)
        assert numerical_rank(stack).ravel().tolist() == [
            numerical_rank(m) for m in stack.reshape(12, 3, 3)]

    def test_two_dimensional_input_gives_python_scalars(self):
        assert type(numerical_rank(np.eye(3))) is int
        assert type(numerical_rank(np.zeros((3, 0)))) is int
        assert is_invertible(np.eye(3)) is True
        assert is_invertible(np.zeros((3, 3))) is False
        assert is_invertible(np.ones((2, 3))) is False
        assert is_invertible(np.zeros((0, 0))) is True

    def test_stack_must_be_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            numerical_rank(np.full((2, 3, 3), np.nan))
