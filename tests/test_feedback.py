import numpy as np
import pytest

import oracles
import systems
from conftest import count_calls
from dynrel.errors import AlgebraicLoopSingular
from dynrel.feedback import (
    closed_loop_T,
    feedback_free,
    granger_verdict,
    verify_interchange_identities,
)
from dynrel.kernels import Tolerances, numerical_rank
from dynrel.lti import (
    StateSpace,
    freq_response,
    is_strictly_stable,
    minimal_realization,
    poles,
)
from dynrel.relation import classify_selection, enumerate_selections


def scalar_lag():
    return StateSpace([[-1.0]], [[1.0]], [[1.0]])  # 1/(s+1)


def scalar_unstable():
    return StateSpace([[1.0]], [[1.0]], [[1.0]])  # 1/(s-1)


def overflowing_map():
    return StateSpace([[-1e-300]], [[1e200]], [[1e200]], [[0.0]])  # 1e400/(s+1e-300)


def random_loop(rng):
    p = int(rng.integers(1, 4))
    q = int(rng.integers(1, 4))
    f_sys = oracles.random_stable_ss(rng, p, q, n=int(rng.integers(1, 4)))
    h_sys = oracles.random_stable_ss(rng, q, p, n=int(rng.integers(1, 4)))
    return f_sys, h_sys


class TestClosedLoop:
    def test_no_return_path(self):
        f_sys = scalar_lag()
        t_sys = closed_loop_T(f_sys, systems.zero(1, 1))
        s = 1j * np.logspace(-1, 1, 7)
        ones, zeros = np.ones((7, 1, 1)), np.zeros((7, 1, 1))
        p_blk, pf_blk, qh_blk, q_blk = oracles.loop_blocks(t_sys, 1)
        np.testing.assert_allclose(freq_response(p_blk, s), ones, atol=1e-12)
        np.testing.assert_allclose(freq_response(q_blk, s), ones, atol=1e-12)
        np.testing.assert_allclose(freq_response(qh_blk, s), zeros, atol=1e-12)
        np.testing.assert_allclose(freq_response(pf_blk, s), freq_response(f_sys, s), atol=1e-12)

    def test_all_zero_is_identity(self):
        t_sys = closed_loop_T(systems.zero(2, 1), systems.zero(1, 2))
        np.testing.assert_allclose(freq_response(t_sys, 1j * np.logspace(-1, 1, 5)),
                                   np.broadcast_to(np.eye(3), (5, 3, 3)), atol=1e-14)

    def test_scalar_loop_closed_form(self):
        t_sys = closed_loop_T(scalar_lag(), systems.constant([[0.5]]))
        q_blk = oracles.loop_blocks(t_sys, 1)[3]
        assert oracles.match_gap(poles(q_blk), [-0.5]) < 1e-10
        s = 1j * np.logspace(-1, 1, 9)
        np.testing.assert_allclose(freq_response(q_blk, s),
                                   ((s + 1.0) / (s + 0.5))[:, None, None], rtol=1e-10)
        assert is_strictly_stable(t_sys)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^H must be 1x2 to close the loop with a 2x1 F, "
                                             r"got 2x1$"):
            closed_loop_T(systems.zero(2, 1), systems.zero(2, 1))

    def test_algebraic_loop(self):
        with pytest.raises(AlgebraicLoopSingular):
            closed_loop_T(systems.constant([[1.0]]), systems.constant([[1.0]]))

    def test_inverse_property_random(self, rng):
        for _ in range(25):
            f_sys, h_sys = random_loop(rng)
            p, q = f_sys.n_out, f_sys.n_in
            t_sys = closed_loop_T(f_sys, h_sys)
            s = 1j * np.logspace(-2, 2, 8)
            eye = np.broadcast_to(np.eye(p + q), (s.size, p + q, p + q))
            n_val = eye.astype(complex)
            n_val[:, :p, p:] = -freq_response(f_sys, s)
            n_val[:, p:, :p] = -freq_response(h_sys, s)
            np.testing.assert_allclose(n_val @ freq_response(t_sys, s), eye, atol=1e-8)

    def test_full_rank_on_axis(self, rng):
        for _ in range(10):
            f_sys, h_sys = random_loop(rng)
            t_sys = closed_loop_T(f_sys, h_sys)
            t_val = freq_response(t_sys, [1j * float(rng.uniform(0.05, 20.0))])[0]
            assert numerical_rank(t_val) == f_sys.n_out + f_sys.n_in


class TestInternalStability:
    def test_open_loop_unstable_pole_exposed(self):
        assert not is_strictly_stable(closed_loop_T(scalar_unstable(), systems.zero(1, 1)))

    def test_stabilizing_return_path(self):
        t_sys = closed_loop_T(scalar_unstable(), systems.constant([[-2.0]]))
        assert is_strictly_stable(t_sys)
        # all four blocks are (s-1)-over-(s+1) type entries with pole -1
        for blk in oracles.loop_blocks(t_sys, 1):
            assert oracles.match_gap(poles(blk), [-1.0]) < 1e-10

    def test_small_gain(self, rng):
        f_sys = oracles.random_stable_ss(rng, 2, 2, n=3, d_scale=0.01)
        h_sys = oracles.random_stable_ss(rng, 2, 2, n=2, d_scale=0.01)
        f_gains = np.linalg.norm(freq_response(f_sys, 1j * np.logspace(-2, 2, 40)), 2, axis=(1, 2))
        scale = 0.01 / max(f_gains.max(), 1e-6)
        f_small = StateSpace(f_sys.A, f_sys.B * scale, f_sys.C, f_sys.D * scale)
        assert is_strictly_stable(closed_loop_T(f_small, h_sys))

    def test_zero_return_map_with_unstable_hidden_states(self):
        f_sys, h_sys = systems.hidden_unstable_zero_h_loop()
        t_sys = closed_loop_T(f_sys, h_sys)
        assert is_strictly_stable(t_sys)
        assert oracles.match_gap(poles(t_sys), [-2.0, -1.5]) < 1e-10

    def test_zero_return_map_hidden_modes_leave_block_poles(self):
        # P = (I - F H)^{-1} = I: its observability block C v is zero up to
        # roundoff, and its cutoff comes from ||C||, so no pole survives
        f_sys, h_sys = systems.hidden_unstable_zero_h_loop()
        t_sys = closed_loop_T(f_sys, h_sys)
        p_blk, pf_blk, qh_blk, q_blk = oracles.loop_blocks(t_sys, f_sys.n_out)
        assert poles(p_blk).size == 0
        assert poles(q_blk).size == 0 and poles(qh_blk).size == 0
        for block in (pf_blk, t_sys):
            assert oracles.match_gap(poles(block), [-2.0, -1.5]) < 1e-10

    def test_one_reduction_of_t(self, monkeypatch, rng):
        f_sys, h_sys = random_loop(rng)
        calls = count_calls(monkeypatch, minimal_realization)
        t_sys = closed_loop_T(f_sys, h_sys)
        is_strictly_stable(t_sys)
        assert len(calls) == 1 and calls[0][0] is t_sys

    def test_agrees_with_block_pole_test(self, rng):
        for _ in range(20):
            f_sys, h_sys = random_loop(rng)
            t_sys = closed_loop_T(f_sys, h_sys)
            blocks = oracles.loop_blocks(t_sys, f_sys.n_out)
            by_poles = all(is_strictly_stable(blk) for blk in blocks)
            assert is_strictly_stable(t_sys) == by_poles


class TestInterchange:
    def test_scalar_exact(self):
        f_sys, h_sys = scalar_lag(), systems.constant([[0.5]])
        assert verify_interchange_identities(f_sys, h_sys, closed_loop_T(f_sys, h_sys)) < 1e-12

    def test_no_return_path_exact(self):
        f_sys, h_sys = scalar_lag(), systems.zero(1, 1)
        assert verify_interchange_identities(f_sys, h_sys, closed_loop_T(f_sys, h_sys)) == 0.0

    def test_random_mimo(self, rng):
        for _ in range(10):
            f_sys = oracles.random_stable_ss(rng, 2, 3, n=3)
            h_sys = oracles.random_stable_ss(rng, 3, 2, n=2)
            t_sys = closed_loop_T(f_sys, h_sys)
            assert verify_interchange_identities(f_sys, h_sys, t_sys) < 1e-8

    def test_one_response_each_of_f_h_and_t(self, monkeypatch, rng):
        f_sys, h_sys = random_loop(rng)
        t_sys = closed_loop_T(f_sys, h_sys)
        calls = count_calls(monkeypatch, freq_response)
        assert verify_interchange_identities(f_sys, h_sys, t_sys) < 1e-8
        assert len(calls) == 3
        assert all(args[0] is ss for args, ss in zip(calls, (f_sys, h_sys, t_sys)))


class TestGranger:
    def test_zero_map_no_causality(self):
        assert not granger_verdict(systems.zero(2, 1))[0]

    def test_golden_relation_causes(self, m3):
        f = classify_selection(m3, enumerate_selections(m3)[0]).F
        assert granger_verdict(f)[0]

    def test_tiny_gain_below_threshold(self):
        f = StateSpace([[-1.0]], [[1.0]], [[1e-12]])
        assert not granger_verdict(f)[0]
        assert granger_verdict(f, Tolerances(residual_tol=1e-14))[0]

    def test_nonfinite_peak_gain_raises(self):
        # the gain 1e400 / (s + 1e-300) overflows to a NaN peak: no verdict
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match=r"^non-finite peak gain: nan$"):
                granger_verdict(overflowing_map())


class TestFeedbackFree:
    def test_absent_and_consistent(self):
        v = feedback_free(systems.zero(1, 1), scalar_lag())
        assert v.h_zero and v.f_stable and not v.inconsistent

    def test_absent_but_inconsistent(self):
        v = feedback_free(systems.zero(1, 1), scalar_unstable())
        assert v.h_zero and v.f_stable is False and v.inconsistent

    def test_present(self):
        v = feedback_free(systems.constant([[0.5]]), scalar_lag())
        assert not v.h_zero and v.f_stable is None and not v.inconsistent

    def test_nonfinite_peak_gain_of_h_raises(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match=r"^non-finite peak gain: nan$"):
                feedback_free(overflowing_map(), scalar_lag())


class TestSpectralAssembly:
    def test_unit_noise_gives_hermitian_psd(self, rng):
        for _ in range(10):
            f_sys, h_sys = random_loop(rng)
            p, q = f_sys.n_out, f_sys.n_in
            phi_v = np.eye(p)
            phi_r = np.eye(q)
            t_sys = closed_loop_T(f_sys, h_sys)
            intensity = np.block([
                [phi_v, np.zeros((p, q))],
                [np.zeros((q, p)), phi_r],
            ])
            for t_val in freq_response(t_sys, 1j * rng.uniform(0.05, 20.0, size=4)):
                phi = t_val @ intensity @ t_val.conj().T
                assert np.abs(phi - phi.conj().T).max() < 1e-10
                assert np.linalg.eigvalsh(phi).min() > -1e-8 * max(
                    1.0, np.abs(np.linalg.eigvalsh(phi)).max())

    def test_rank_propagation_with_silent_forward_noise(self, rng):
        # driving noise only on the return side: spectral rank collapses
        # to the return-channel count
        for _ in range(5):
            p, q = 2, 1
            f_sys = oracles.random_stable_ss(rng, p, q, n=2)
            h_sys = oracles.random_stable_ss(rng, q, p, n=2, d_scale=0.05)
            t_sys = closed_loop_T(f_sys, h_sys)
            for t_val in freq_response(t_sys, 1j * rng.uniform(0.1, 10.0, size=3)):
                intensity = np.diag([0.0] * p + [1.0] * q)
                phi = t_val @ intensity @ t_val.conj().T
                assert numerical_rank(phi) == q
