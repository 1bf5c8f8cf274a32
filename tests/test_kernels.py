import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import oracles
import systems
from oracles import nonzero_spectrum
from dynrel.errors import (
    DimensionMismatch,
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
    as_matrix,
    is_invertible,
    matrix_exp,
    matrix_log_principal,
    norm2,
    numerical_rank,
    psd_factor,
    require_shape,
    schur_form,
    solve_lyap_continuous,
    solve_lyap_discrete,
)
from conftest import count_calls


class TestTolerances:
    def test_defaults_positive(self):
        tol = Tolerances()
        assert tol.rank_rtol == 1e-10
        assert tol.psd_tol == 1e-8
        assert tol.stability_margin == 1e-9
        assert tol.residual_tol == 1e-8

    # psd_tol >= 1 is out of range too: the PSD gate would pass every matrix
    @pytest.mark.parametrize("field, value", [
        *(pytest.param(f, 0.0, id=f)
          for f in ("rank_rtol", "psd_tol", "stability_margin", "residual_tol")),
        pytest.param("psd_tol", 1.0, id="psd_tol-1.0"),
        pytest.param("psd_tol", 2.0, id="psd_tol-2.0"),
    ])
    def test_nonpositive_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Tolerances(**{field: value})


class TestRequireShape:
    @pytest.mark.parametrize("rows, cols", [(2, 3), (None, 3), (2, None), (None, None)])
    def test_fitting_shape_passes(self, rows, cols):
        assert require_shape("X", np.zeros((2, 3)), rows, cols) is None

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: require_shape("X", np.zeros((2, 3)), 3, 3),
                     "X: expected 3 rows, got 2", id="rows-first"),
        pytest.param(lambda: require_shape("X", np.zeros((2, 3)), None, 2),
                     "X: expected 2 columns, got 3", id="columns"),
        pytest.param(lambda: as_matrix(np.zeros((2, 3)), square=True, name="S"),
                     "S: expected 2 columns, got 3", id="as_matrix"),
        pytest.param(lambda: solve_lyap_continuous(-np.eye(3), np.eye(2)),
                     "Q: expected 3 rows, got 2", id="lyap-continuous"),
        pytest.param(lambda: solve_lyap_discrete(0.5 * np.eye(2), np.ones((2, 3))),
                     "Q_d: expected 2 columns, got 3", id="lyap-discrete"),
        pytest.param(lambda: matrix_exp(np.zeros((2, 3))),
                     "matrix_exp input: expected 2 columns, got 3", id="matrix_exp"),
    ])
    def test_shape_faults_are_dimension_mismatches(self, call, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$") as info:
            call()
        assert isinstance(info.value, ValueError)


class TestAsMatrix:
    @pytest.mark.parametrize("m, message", [
        pytest.param(np.zeros((2, 2, 2)), "2-dimensional", id="3-d"),
        pytest.param(np.array([[1.0, None]], dtype=object), "numeric", id="object"),
        pytest.param(np.array([["1", "2"]]), "numeric", id="str"),
        pytest.param(np.eye(2, dtype=bool), "numeric", id="bool"),
        pytest.param([[1.0, np.nan]], "non-finite", id="nan"),
        pytest.param(np.array([[np.inf, 0.0]]), "non-finite", id="inf"),
        pytest.param(np.array([[1j * np.inf]]), "non-finite", id="complex-inf"),
    ])
    def test_refusals_name_the_input(self, m, message):
        with pytest.raises(ValueError, match=f"^X .*{message}"):
            as_matrix(m, name="X")

    @pytest.mark.parametrize("m", [np.ones((2, 3)), [[1, 2, 3]]], ids=["float64", "list"])
    def test_non_square_refused_when_square_asked(self, m):
        assert as_matrix(m).shape == np.shape(m)
        with pytest.raises(ValueError, match=r"^matrix: expected [12] columns, got 3$"):
            as_matrix(m, square=True)

    @pytest.mark.parametrize("m, shape, dtype", [
        pytest.param(2.5, (1, 1), np.float64, id="0-d"),
        pytest.param([1.0, 2.0], (1, 2), np.float64, id="1-d"),
        pytest.param(np.array([[1, 2]]), (1, 2), np.float64, id="int"),
        pytest.param(np.array([[1.5]], dtype=np.float32), (1, 1), np.float64, id="float32"),
        pytest.param(np.array([[1.5, -2.0]], dtype=">f8"), (1, 2), np.float64, id="big-endian"),
        pytest.param(np.array([[1 + 2j]], dtype=np.complex64), (1, 1), np.complex128,
                     id="complex64"),
        pytest.param([[1j, 2]], (1, 2), np.complex128, id="complex-list"),
    ])
    def test_coercions(self, m, shape, dtype):
        a = as_matrix(m)
        assert type(a) is np.ndarray and a.shape == shape
        assert a.dtype == dtype and a.dtype.isnative
        np.testing.assert_array_equal(a, np.atleast_2d(np.asarray(m)))

    @pytest.mark.parametrize("m", [
        np.arange(6.0).reshape(2, 3),
        np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        np.arange(12.0).reshape(3, 4)[::2, 1:],
        np.arange(4.0).reshape(2, 2) * 1j,
    ], ids=["float64", "fortran", "strided", "complex128"])
    def test_never_shares_memory(self, m):
        a = as_matrix(m)
        assert not np.shares_memory(a, m)
        assert a.dtype == m.dtype and np.array_equal(a, m)
        # the layout a converting ``astype`` keeps, on which BLAS sums depend
        assert a.flags.f_contiguous == m.astype(m.dtype).flags.f_contiguous


def with_conjugate_pairs(seed: int, n: int, centre: float, spread: float) -> np.ndarray:
    """Real n x n matrix, in a random well-conditioned basis, with at least
    one complex-conjugate eigenvalue pair, so that its real Schur form has
    2x2 blocks. Every eigenvalue has real part within ``spread`` of
    ``centre`` and imaginary part below ``spread`` in modulus."""
    rng = np.random.default_rng(seed)
    d = np.triu(rng.normal(scale=0.5 * spread, size=(n, n)), 2)  # outside every block
    i = 0
    while i < n:
        re = centre + spread * rng.uniform(-0.9, 0.9)
        if n - i >= 2 and (i == 0 or rng.random() < 0.5):
            im = spread * rng.uniform(0.1, 0.9)
            d[i:i + 2, i:i + 2] = [[re, im * rng.uniform(0.5, 2.0)], [-im, re]]
            i += 2
        else:
            d[i, i] = re
            i += 1
    basis = rng.normal(size=(n, n)) + n * np.eye(n)
    a = np.linalg.solve(basis, d @ basis)
    assert np.any(np.diag(schur_form(a)[0], -1) != 0)
    return a


class TestSchurForm:
    def test_real_input_gives_quasi_triangular_factor(self):
        a = with_conjugate_pairs(0, 5, 0.0, 1.0)
        t, z, eigs = schur_form(a)
        assert t.dtype == z.dtype == np.float64
        assert np.all(np.tril(t, -2) == 0)
        np.testing.assert_allclose(z @ t @ z.T, a, atol=1e-13)
        assert oracles.match_gap(eigs, np.linalg.eigvals(a)) < 1e-12

    def test_complex_input_gives_triangular_factor(self):
        a = with_conjugate_pairs(1, 4, 0.0, 1.0) + 1j * np.eye(4)
        t, z, eigs = schur_form(a)
        assert t.dtype == np.complex128
        assert np.all(np.tril(t, -1) == 0)
        np.testing.assert_allclose(z @ t @ z.conj().T, a, atol=1e-13)
        np.testing.assert_array_equal(eigs, np.linalg.eigvals(t))

    def test_kernels_read_the_spectrum_off_the_factor(self, monkeypatch):
        # given the factor, no kernel takes eigenvalues; without it, each
        # takes them once, of the quasi-triangular factor and never of A
        a = with_conjugate_pairs(2, 6, -1.0, 0.9)
        a_d = scipy.linalg.expm(a)
        q = np.eye(6)
        shared = schur_form(a_d), schur_form(a)
        eig_calls = count_calls(monkeypatch, np.linalg.eigvals, packages=("numpy.linalg",))
        matrix_log_principal(a_d, schur=shared[0])
        solve_lyap_discrete(a_d, q, schur=shared[0])
        solve_lyap_continuous(a, q, schur=shared[1])
        assert eig_calls == []
        matrix_log_principal(a_d)
        solve_lyap_discrete(a_d, q)
        solve_lyap_continuous(a, q)
        assert len(eig_calls) == 3
        assert all(np.all(np.tril(args[0], -2) == 0) for args in eig_calls)


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

    @pytest.mark.parametrize("rtol, exists", [(1e-15, (True, True)), (1e-6, (True, False)),
                                              (1.0, (False, False))])
    def test_singular_follows_the_rank_cut(self, rtol, exists):
        # the cut rank_rtol * 2 * max|lam| is 2e-6 at rtol = 1e-6: an
        # eigenvalue 1% above it has a logarithm, one 1% below it has none
        tol = Tolerances(rank_rtol=rtol)
        for small, ok in zip((2.02e-6, 1.98e-6), exists):
            if ok:
                got = matrix_log_principal(np.diag([1.0, small]), tol)
                np.testing.assert_allclose(got, np.diag(np.log([1.0, small])), atol=1e-12)
            else:
                with pytest.raises(SingularInput):
                    matrix_log_principal(np.diag([1.0, small]), tol)

    def test_negative_axis_follows_the_rank_cut(self):
        # the pair -1 +/- iy lies on the negative axis when y is within the cut
        tol = Tolerances(rank_rtol=1e-6)
        above = np.array([[-1.0, 2.02e-6], [-2.02e-6, -1.0]])
        assert np.abs(matrix_exp(matrix_log_principal(above, tol)) - above).max() < 1e-12
        with pytest.raises(ExistenceFailure):
            matrix_log_principal(np.array([[-1.0, 1.98e-6], [-1.98e-6, -1.0]]), tol)

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


class TestConjugatePairBlocks:
    """Real inputs whose Schur factor has 2x2 blocks. The Cayley transform
    of the discrete solver keeps that block structure, with equal block
    diagonals only up to roundoff, so ``?trsyl`` gets blocks that are not
    exactly in LAPACK's standard form."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7))
    def test_continuous_against_kron(self, seed, n):
        a = with_conjugate_pairs(seed, n, -1.0, 0.9)
        r = np.random.default_rng(seed + 1).normal(size=(n, n))
        q = r @ r.T
        got = solve_lyap_continuous(a, q)
        want = oracles.kron_lyap_continuous(a, q)
        assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7))
    def test_discrete_against_kron(self, seed, n):
        a_d = with_conjugate_pairs(seed, n, 0.0, 0.6)
        r = np.random.default_rng(seed + 1).normal(size=(n, n))
        q_d = r @ r.T
        got = solve_lyap_discrete(a_d, q_d)
        want = oracles.kron_lyap_discrete(a_d, q_d)
        assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7))
    def test_log_is_real_and_inverts_exp(self, seed, n):
        # |Im lam| < 2 < pi: log(expm(A)) is A itself
        a = with_conjugate_pairs(seed, n, -0.5, 2.0)
        m = scipy.linalg.expm(a)
        got = matrix_log_principal(m)
        assert got.dtype == np.float64
        scale = np.abs(a).max()
        assert np.abs(scipy.linalg.expm(got) - m).max() < 1e-10 * np.abs(m).max()
        assert np.abs(got - scipy.linalg.logm(m)).max() < 1e-10 * scale
        assert np.abs(got - a).max() < 1e-10 * scale

    def test_complex_q_with_real_a(self):
        # the complex ?trsyl would read the real factor's 2x2 blocks as
        # triangular, leaving a relative residual of 0.3 on this input;
        # the real and imaginary parts of Q are solved apart
        a = with_conjugate_pairs(3, 4, -1.0, 0.9)
        r = np.random.default_rng(3).normal(size=(4, 4, 2)) @ [1.0, 1j]
        q = r @ r.conj().T
        p = solve_lyap_continuous(a, q)
        assert np.abs(a @ p + p @ a.T + q).max() < 1e-12 * np.abs(q).max()
        a_d = scipy.linalg.expm(a)
        p = solve_lyap_discrete(a_d, q)
        assert np.abs(p - a_d @ p @ a_d.T - q).max() < 1e-12 * np.abs(q).max()

    def test_perturbed_trsyl_solve_raises(self):
        # eigenvalues that pass each solver's own spectrum test, with a
        # factor whose pair sums to zero (continuous: 1 and -1; discrete:
        # 2 and 1/2, whose Cayley images are 1/3 and -1/3): only ?trsyl's
        # perturbation flag can catch it, and it must not pass silently
        t = np.diag([1.0, -1.0])
        with pytest.raises(SpectrumConflict):
            solve_lyap_continuous(t, np.eye(2), schur=(t, np.eye(2), np.array([-1.0, -2.0])))
        t = np.diag([2.0, 0.5])
        with pytest.raises(SpectrumConflict):
            solve_lyap_discrete(t, np.eye(2), schur=(t, np.eye(2), np.array([0.5, 0.5])))

    @pytest.mark.parametrize("m, error", [
        (np.diag([-0.5, 0.5]), ExistenceFailure),
        (-np.eye(2), ExistenceFailure),
        # a rotation by pi: the pair -1 +/- 1.2e-16i is on the axis
        ([[np.cos(np.pi), -np.sin(np.pi)], [np.sin(np.pi), np.cos(np.pi)]], ExistenceFailure),
        ([[-1.0, 1e-12], [-1e-12, -1.0]], ExistenceFailure),
        (np.diag([-1.0 + 0j, 1.0]), ExistenceFailure),
        (np.diag([0.0, 1.0]), SingularInput),
        (np.zeros((3, 3)), SingularInput),
        ([[0.0, 1.0], [0.0, 0.0]], SingularInput),
        (np.diag([1e-12, 1.0]), SingularInput),
        (np.diag([0j, 1.0]), SingularInput),
        # just off the axis: a real logarithm exists
        ([[-1.0, 1e-6], [-1e-6, -1.0]], None),
    ])
    def test_refusals_on_curated_inputs(self, m, error):
        if error is None:
            got = matrix_log_principal(m)
            assert got.dtype == np.float64
            assert np.abs(scipy.linalg.expm(got) - m).max() < 1e-10
        else:
            with pytest.raises(error):
                matrix_log_principal(m)


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

    @pytest.mark.parametrize("rtol, cols", [(1e-15, 3), (1e-6, 2), (1.0, 0)])
    def test_columns_follow_the_rank_cut(self, rtol, cols):
        # the cut rank_rtol * 3 * max(w) is 3e-6 at rtol = 1e-6: the
        # eigenvalue 1% above it is kept and the one 1% below it dropped
        s = np.diag([1.0, 3.03e-6, 2.97e-6])
        assert psd_factor(s, Tolerances(rank_rtol=rtol)).shape == (3, cols)

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
        # 0x0, zero, and nilpotent in triangular form (exact zero eigenvalues)
        for m in (np.zeros((0, 0)), np.zeros((3, 3)), np.diag(np.ones(3), 1)):
            got = nonzero_spectrum(m)
            assert got.shape == (0,) and got.dtype == np.complex128

    def test_nilpotent_in_random_basis(self):
        # LAPACK puts the four zero eigenvalues about 5e-5 from zero, a
        # 1e-5 fraction of ||m||_2, and none of them counts as nonzero
        q = np.random.default_rng(0).standard_normal((4, 4))
        m = q @ np.diag(np.ones(3), 1) @ np.linalg.inv(q)
        assert np.abs(np.linalg.eigvals(m)).min() > 1e-6
        assert nonzero_spectrum(m).shape == (0,)

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
    """The stack forms of numerical_rank, is_invertible and norm2 against
    a per-matrix loop."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("shape", [(12, 3, 3), (12, 4, 2), (12, 2, 5), (12, 1, 1),
                                       (5, 0, 3), (5, 3, 0), (0, 3, 3)])
    def test_match_loop(self, rng, shape, complex_):
        stack = mixed_stack(rng, *shape, complex_)
        ranks = numerical_rank(stack)
        assert ranks.shape == shape[:1]
        assert ranks.tolist() == [numerical_rank(m) for m in stack]
        want = [np.linalg.norm(m, 2) if m.size else 0.0 for m in stack]
        np.testing.assert_allclose(norm2(stack), np.reshape(want, shape[:1]), rtol=1e-14)
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
