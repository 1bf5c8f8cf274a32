import numpy as np
import pytest

import oracles
import systems
from conftest import count_calls
from dynrel.errors import PhiUSingular, RankInconsistent
from dynrel.kernels import numerical_rank
from dynrel.lti import StateSpace, tf_eval, validate_ct_model
from dynrel.spectral import (
    PartitionSpec,
    default_grid,
    f_from_spectrum_eval,
    spectral_density_eval,
    spectral_rank_profile,
)


def full_rank_model():
    a = np.array([[-1.0, 0.5], [0.0, -2.0]])
    return validate_ct_model(StateSpace(a, np.eye(2), np.eye(2)))


class TestPartitionSpec:
    def test_from_u_rows(self):
        part = PartitionSpec.from_u_rows((1,), 4)
        assert part.p == 3 and part.q == 1
        assert part.row_order == (0, 2, 3, 1)

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            PartitionSpec(p=1, q=1, row_order=(0, 0))


class TestSpectralDensityEval:
    def test_scalar_at_zero(self):
        model = validate_ct_model(StateSpace([[-1.0]], [[1.0]], [[1.0]]))
        sample = spectral_density_eval(model, 0.0)
        np.testing.assert_allclose(sample.phi, [[1.0]], rtol=1e-12)

    def test_golden_hermitian_psd_rank_one(self, m3):
        sample = spectral_density_eval(m3, 1.0)
        phi = sample.phi
        assert phi.shape == (4, 4)
        assert np.abs(phi - phi.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(phi).min() > -1e-10
        assert numerical_rank(phi) == 1

    def test_conjugate_pair(self, m2):
        pos = spectral_density_eval(m2, 2.3).phi
        neg = spectral_density_eval(m2, -2.3).phi
        assert np.abs(neg - pos.conj()).max() < 1e-12

    def test_blocks_need_partition(self, m3):
        sample = spectral_density_eval(m3, 1.0)
        with pytest.raises(ValueError):
            _ = sample.phi_u

    def test_partitioned_blocks(self, m3):
        part = PartitionSpec.from_u_rows((0,), 4)
        sample = spectral_density_eval(m3, 1.0, part)
        w = tf_eval(m3.ss, 1j)
        phi_full = w @ w.conj().T
        np.testing.assert_allclose(sample.phi_u, phi_full[:1, :1], atol=1e-12)
        np.testing.assert_allclose(sample.phi_y, phi_full[1:, 1:], atol=1e-12)

    def test_random_hermitian_psd(self, rng):
        for _ in range(10):
            model = oracles.random_ct_model(rng)
            phi = spectral_density_eval(model, float(rng.uniform(0.01, 50))).phi
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
        calls = count_calls(monkeypatch, numerical_rank)
        assert spectral_rank_profile(m3, default_grid()) == 1
        assert len(calls) == 1 and calls[0][0].shape == (200, 4, 4)

    def test_random_rank_matches_m(self, rng):
        for _ in range(10):
            model = oracles.random_ct_model(rng)
            assert spectral_rank_profile(model, default_grid(count=50)) == model.m


class TestFFromSpectrum:
    def test_golden_first_selection(self, m3):
        part = PartitionSpec.from_u_rows((0,), 4)
        got = f_from_spectrum_eval(m3, part, 1.0)
        np.testing.assert_allclose(got, systems.f3_first(1j), atol=1e-8)

    def test_golden_second_model(self, m2):
        part = PartitionSpec.from_u_rows((1,), 2)
        got = f_from_spectrum_eval(m2, part, 2.0)
        np.testing.assert_allclose(got, systems.f2_second(2j), atol=1e-10)

    def test_zero_driven_block(self):
        a = np.array([[-1.0, 1.0], [0.0, -2.0]])
        b = np.array([[1.0], [1.0]])
        c = np.array([[0.0, 0.0], [1.0, 0.0]])  # driven row identically zero
        model = validate_ct_model(StateSpace(a, b, c))
        part = PartitionSpec.from_u_rows((1,), 2)
        got = f_from_spectrum_eval(model, part, 0.7)
        np.testing.assert_allclose(got, np.zeros((1, 1)), atol=1e-14)

    def test_singular_phi_u(self):
        model = systems.model_with_axis_zero()
        part = PartitionSpec.from_u_rows((1,), 2)
        with pytest.raises(PhiUSingular):
            f_from_spectrum_eval(model, part, 1.0)  # axis zero kills Phi_u


class TestFactorIdentities:
    def test_stacked_factor_recovers_f(self, m3):
        c0 = systems.C3[0:1, :]
        c1 = systems.C3[1:, :]
        n_sys = StateSpace(systems.A3, systems.B3, c1 @ systems.A3, c1 @ systems.B3)
        m_sys = StateSpace(systems.A3, systems.B3, c0 @ systems.A3, c0 @ systems.B3)
        part = PartitionSpec.from_u_rows((0,), 4)
        for w in np.logspace(-1.5, 1.5, 12):
            s = 1j * w
            w_full = tf_eval(m3.ss, s)
            n_val = tf_eval(n_sys, s)
            m_val = tf_eval(m_sys, s)
            stacked = np.vstack([n_val, m_val]) / s
            np.testing.assert_allclose(
                stacked, w_full[[1, 2, 3, 0], :], atol=1e-10)
            np.testing.assert_allclose(
                n_val @ np.linalg.inv(m_val),
                f_from_spectrum_eval(m3, part, w), atol=1e-8)

    def test_block_identity_without_return_path(self, rng):
        # W = [[G, F K], [0, K]] is the spectral factor of a loop with no
        # return path; the driving blocks then determine F exactly.
        p, q = 2, 2
        f_sys = oracles.random_stable_ss(rng, p, q, n=3)
        k_sys = oracles.random_stable_ss(rng, q, q, n=2)
        k_sys = StateSpace(k_sys.A, k_sys.B, k_sys.C, k_sys.D + 2.0 * np.eye(q))
        for w in np.logspace(-1, 1, 8):
            s = 1j * w
            f_val = tf_eval(f_sys, s)
            k_val = tf_eval(k_sys, s)
            w12 = f_val @ k_val
            np.testing.assert_allclose(w12, f_val @ k_val, atol=1e-12)
            phi_u = k_val @ k_val.conj().T
            phi_yu = w12 @ k_val.conj().T
            recovered = np.linalg.solve(phi_u.T, phi_yu.T).T
            np.testing.assert_allclose(recovered, f_val, atol=1e-8)
