import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import systems
from conftest import count_calls
from oracles import PhiUSingular, f_from_spectrum, spectral_density
from dynrel.errors import DynrelError, NotSemidefinite, QdSingular, RankInconsistent
from dynrel.kernels import numerical_rank, rank_from_values
from dynrel.lti import StateSpace, freq_response, validate_ct_model
from dynrel.sampling import hidden_rank_report
from dynrel.spectral import default_grid, spectral_rank_profile


def full_rank_model():
    a = np.array([[-1.0, 0.5], [0.0, -2.0]])
    return validate_ct_model(StateSpace(a, np.eye(2), np.eye(2)))


class TestSpectralDensityEval:
    def test_scalar_at_zero(self):
        model = validate_ct_model(StateSpace([[-1.0]], [[1.0]], [[1.0]]))
        phi = spectral_density(model, [0.0])[0]
        np.testing.assert_allclose(phi, [[1.0]], rtol=1e-12)

    def test_golden_hermitian_psd_rank_one(self, m3):
        phi = spectral_density(m3, [1.0])[0]
        assert phi.shape == (4, 4)
        assert np.abs(phi - phi.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(phi).min() > -1e-10
        assert numerical_rank(phi) == 1

    def test_conjugate_pair(self, m2):
        pos, neg = spectral_density(m2, [2.3, -2.3])
        assert np.abs(neg - pos.conj()).max() < 1e-12

    def test_random_hermitian_psd(self, rng):
        for _ in range(10):
            model = oracles.random_ct_model(rng)
            phi = spectral_density(model, [rng.uniform(0.01, 50)])[0]
            assert np.abs(phi - phi.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(phi).min() > -1e-8 * max(
                1.0, np.abs(np.linalg.eigvalsh(phi)).max())


class TestRankProfile:
    def test_golden_models(self, m3, m2):
        assert spectral_rank_profile(m3, default_grid()) == m3.m == 1
        assert spectral_rank_profile(m2, default_grid()) == m2.m == 1

    def test_full_rank_model(self):
        assert spectral_rank_profile(full_rank_model(), default_grid()) == 2

    def test_isolated_drop_tolerated(self):
        model = systems.model_with_axis_zero()
        grid = np.concatenate([default_grid(), [1.0]])  # exact axis zero
        assert spectral_rank_profile(model, grid) == 1

    def test_inconsistent_grid_rejected(self):
        model = systems.model_with_axis_zero()
        with pytest.raises(RankInconsistent):
            spectral_rank_profile(model, [1.0, 1.0, 0.5, 2.0, 3.0])

    def test_tie_goes_to_first_seen_rank(self):
        model = systems.model_with_axis_zero()
        assert spectral_rank_profile(model, [1.0, 2.0]) == 0
        assert spectral_rank_profile(model, [2.0, 1.0]) == 1

    def test_one_rank_call(self, monkeypatch, m3):
        calls = count_calls(monkeypatch, rank_from_values)
        assert spectral_rank_profile(m3, default_grid()) == 1
        # the singular values of W, one per shock channel, for n_out = 4
        assert len(calls) == 1 and calls[0][0].shape == (200, 1) and calls[0][1] == 4

    def test_rank_of_w_is_rank_of_density(self, rng):
        # the rank rule on the squared singular values of W gives the rank
        # of the formed W W* at every point, rank drops at zeros included
        models = [oracles.random_ct_model(rng) for _ in range(5)]
        for model, grid in [(systems.model_with_axis_zero(), np.array([0.5, 1.0, 2.0]))] + [
                (model, default_grid(count=50)) for model in models]:
            w = freq_response(model, 1j * grid)
            s = np.linalg.svd(w, compute_uv=False)
            want = numerical_rank(w @ w.conj().swapaxes(1, 2))
            np.testing.assert_array_equal(rank_from_values(s * s, model.n_out), want)

    def test_random_rank_matches_m(self, rng):
        for _ in range(10):
            model = oracles.random_ct_model(rng)
            assert spectral_rank_profile(model, default_grid(count=50)) == model.m


def rank_or_inconsistent(model, grid) -> int | None:
    """The spectral rank of ``model`` on ``grid``, or None when the grid
    is inconsistent."""
    try:
        return spectral_rank_profile(model, grid)
    except RankInconsistent:
        return None


class TestRankOnFactor:
    """The density rank is decided on the singular values of W, the cut
    validation puts on B and CB, not on their squares: a model validation
    accepts with m shocks never gets another spectral rank."""

    def test_near_dependent_outputs(self):
        # sigma(CB) has ratio 4e-8: full rank at the cut on sigma (about
        # 1e-10 sigma_max), rank one at the cut on sigma^2 (about 1e-5 sigma_max)
        model = systems.near_dependent_outputs()
        assert model.m == 2
        assert spectral_rank_profile(model, default_grid()) == 2

    @pytest.mark.parametrize("eps", [1e-6, 1e-8])
    def test_output_perturbation_sweep(self, rng, eps):
        # the last row of C moved to within eps of the first
        checked = 0
        for _ in range(60):
            base = oracles.random_ct_model(rng, n=int(rng.integers(2, 9)))
            if base.n_out < 2:
                continue
            c = base.C.copy()
            c[-1] = c[0] + eps * rng.normal(size=base.n)
            try:
                model = validate_ct_model(StateSpace(base.A, base.B, c))
            except DynrelError:
                continue
            checked += 1
            assert rank_or_inconsistent(model, default_grid()) in (model.m, None)
        assert checked >= 30

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(5, 9), near=st.sampled_from("BC"),
           h=st.sampled_from([0.1, 0.5, 1.0]))
    def test_validated_rank_is_kept(self, seed, k, near, h):
        # the last column of B, or the last row of C with n_out = m, moved
        # to within 10^-k of the first: B or W is near deficient
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, n + 1))
        base = oracles.random_ct_model(rng, n=n, m=m, n_out=m if near == "C" else None)
        b, c = base.B.copy(), base.C.copy()
        if near == "B":
            b[:, -1] = b[:, 0] + 10.0 ** -k * rng.normal(size=n)
        else:
            c[-1] = c[0] + 10.0 ** -k * rng.normal(size=n)
        try:
            model = validate_ct_model(StateSpace(base.A, b, c))
        except DynrelError:
            return
        assert rank_or_inconsistent(model, default_grid(count=50)) in (model.m, None)
        try:
            rep = hidden_rank_report(model, h)
        except (QdSingular, NotSemidefinite):
            return  # desample refuses; no report to check
        assert rep.bbt_rank == model.m


class TestFFromSpectrum:
    def test_golden_first_selection(self, m3):
        got = f_from_spectrum(m3, (0,), [1.0])[0]
        np.testing.assert_allclose(got, systems.f3_first(1j), atol=1e-8)

    def test_golden_second_model(self, m2):
        got = f_from_spectrum(m2, (1,), [2.0])[0]
        np.testing.assert_allclose(got, systems.f2_second(2j), atol=1e-10)

    def test_zero_driven_block(self):
        a = np.array([[-1.0, 1.0], [0.0, -2.0]])
        b = np.array([[1.0], [1.0]])
        c = np.array([[0.0, 0.0], [1.0, 0.0]])  # driven row identically zero
        model = validate_ct_model(StateSpace(a, b, c))
        got = f_from_spectrum(model, (1,), [0.7])[0]
        np.testing.assert_allclose(got, np.zeros((1, 1)), atol=1e-14)

    def test_singular_phi_u(self):
        model = systems.model_with_axis_zero()
        with pytest.raises(PhiUSingular):
            f_from_spectrum(model, (1,), [1.0])  # axis zero kills Phi_u


class TestFactorIdentities:
    def test_stacked_factor_recovers_f(self, m3):
        c0 = systems.C3[0:1, :]
        c1 = systems.C3[1:, :]
        n_sys = StateSpace(systems.A3, systems.B3, c1 @ systems.A3, c1 @ systems.B3)
        m_sys = StateSpace(systems.A3, systems.B3, c0 @ systems.A3, c0 @ systems.B3)
        w = np.logspace(-1.5, 1.5, 12)
        s = 1j * w
        w_full = freq_response(m3, s)
        n_val = freq_response(n_sys, s)
        m_val = freq_response(m_sys, s)
        stacked = np.concatenate([n_val, m_val], axis=1) / s[:, None, None]
        np.testing.assert_allclose(stacked, w_full[:, [1, 2, 3, 0], :], atol=1e-10)
        np.testing.assert_allclose(
            n_val @ np.linalg.inv(m_val),
            f_from_spectrum(m3, (0,), w), atol=1e-8)

    def test_block_identity_without_return_path(self, rng):
        # W = [[G, F K], [0, K]] is the spectral factor of a loop with no
        # return path; the driving blocks then determine F exactly.
        p, q = 2, 2
        f_sys = oracles.random_stable_ss(rng, p, q, n=3)
        k_sys = oracles.random_stable_ss(rng, q, q, n=2)
        k_sys = StateSpace(k_sys.A, k_sys.B, k_sys.C, k_sys.D + 2.0 * np.eye(q))
        s = 1j * np.logspace(-1, 1, 8)
        f_val = freq_response(f_sys, s)
        k_val = freq_response(k_sys, s)
        w12 = f_val @ k_val
        np.testing.assert_allclose(w12, f_val @ k_val, atol=1e-12)
        phi_u = k_val @ k_val.conj().mT
        phi_yu = w12 @ k_val.conj().mT
        recovered = np.linalg.solve(phi_u.mT, phi_yu.mT).mT
        np.testing.assert_allclose(recovered, f_val, atol=1e-8)
