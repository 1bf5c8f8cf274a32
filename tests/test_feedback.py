import numpy as np
import pytest

import oracles
import systems
from conftest import count_calls
from dynrel.errors import AlgebraicLoopSingular
from dynrel.feedback import (
    FeedbackModel,
    _interchange_residual,
    closed_loop_T,
    feedback_free,
    granger_causes,
    internal_stability,
    verify_interchange_identities,
)
from dynrel.kernels import Tolerances, numerical_rank
from dynrel.lti import (
    StateSpace,
    freq_response,
    is_strictly_stable,
    minimal_realization,
    poles,
    tf_eval,
)
from dynrel.relation import compute_F, enumerate_selections


def scalar_lag():
    return StateSpace([[-1.0]], [[1.0]], [[1.0]])  # 1/(s+1)


def scalar_unstable():
    return StateSpace([[1.0]], [[1.0]], [[1.0]])  # 1/(s-1)


def random_loop(rng):
    p = int(rng.integers(1, 4))
    q = int(rng.integers(1, 4))
    f_sys = oracles.random_stable_ss(rng, p, q, n=int(rng.integers(1, 4)))
    h_sys = oracles.random_stable_ss(rng, q, p, n=int(rng.integers(1, 4)))
    return FeedbackModel(F=f_sys, H=h_sys)


class TestClosedLoop:
    def test_no_return_path(self):
        f_sys = scalar_lag()
        cl = closed_loop_T(FeedbackModel(F=f_sys, H=StateSpace.zero(1, 1)))
        for s in 1j * np.logspace(-1, 1, 7):
            np.testing.assert_allclose(tf_eval(cl.P, s), np.eye(1), atol=1e-12)
            np.testing.assert_allclose(tf_eval(cl.Q, s), np.eye(1), atol=1e-12)
            np.testing.assert_allclose(tf_eval(cl.QH, s), np.zeros((1, 1)), atol=1e-12)
            np.testing.assert_allclose(tf_eval(cl.PF, s), tf_eval(f_sys, s), atol=1e-12)

    def test_all_zero_is_identity(self):
        cl = closed_loop_T(FeedbackModel(F=StateSpace.zero(2, 1), H=StateSpace.zero(1, 2)))
        for s in 1j * np.logspace(-1, 1, 5):
            np.testing.assert_allclose(tf_eval(cl.T, s), np.eye(3), atol=1e-14)

    def test_scalar_loop_closed_form(self):
        fm = FeedbackModel(F=scalar_lag(), H=StateSpace.constant([[0.5]]))
        cl = closed_loop_T(fm)
        assert oracles.match_gap(poles(cl.Q), [-0.5]) < 1e-10
        for w in np.logspace(-1, 1, 9):
            s = 1j * w
            np.testing.assert_allclose(tf_eval(cl.Q, s), [[(s + 1.0) / (s + 0.5)]],
                                       rtol=1e-10)
        assert cl.internally_stable

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FeedbackModel(F=StateSpace.zero(2, 1), H=StateSpace.zero(2, 1))

    def test_algebraic_loop(self):
        fm = FeedbackModel(F=StateSpace.constant([[1.0]]), H=StateSpace.constant([[1.0]]))
        with pytest.raises(AlgebraicLoopSingular):
            closed_loop_T(fm)

    def test_inverse_property_random(self, rng):
        for _ in range(25):
            fm = random_loop(rng)
            cl = closed_loop_T(fm)
            eye = np.eye(fm.p + fm.q)
            for s in 1j * np.logspace(-2, 2, 8):
                f_val = tf_eval(fm.F, s)
                h_val = tf_eval(fm.H, s)
                n_val = np.block([
                    [np.eye(fm.p), -f_val],
                    [-h_val, np.eye(fm.q)],
                ])
                np.testing.assert_allclose(n_val @ tf_eval(cl.T, s), eye, atol=1e-8)

    def test_full_rank_on_axis(self, rng):
        for _ in range(10):
            fm = random_loop(rng)
            cl = closed_loop_T(fm)
            t_val = tf_eval(cl.T, 1j * float(rng.uniform(0.05, 20.0)))
            assert numerical_rank(t_val) == fm.p + fm.q


class TestInternalStability:
    def test_open_loop_unstable_pole_exposed(self):
        fm = FeedbackModel(F=scalar_unstable(), H=StateSpace.zero(1, 1))
        assert not internal_stability(fm)

    def test_stabilizing_return_path(self):
        fm = FeedbackModel(F=scalar_unstable(), H=StateSpace.constant([[-2.0]]))
        cl = closed_loop_T(fm)
        assert cl.internally_stable
        # all four blocks are (s-1)-over-(s+1) type entries with pole -1
        for blk in (cl.P, cl.PF, cl.QH, cl.Q):
            assert oracles.match_gap(poles(blk), [-1.0]) < 1e-10

    def test_small_gain(self, rng):
        f_sys = oracles.random_stable_ss(rng, 2, 2, n=3, d_scale=0.01)
        h_sys = oracles.random_stable_ss(rng, 2, 2, n=2, d_scale=0.01)
        scale = 0.01 / max(
            max(np.linalg.norm(tf_eval(f_sys, 1j * w), 2) for w in np.logspace(-2, 2, 40)),
            1e-6)
        f_small = StateSpace(f_sys.A, f_sys.B * scale, f_sys.C, f_sys.D * scale)
        assert internal_stability(FeedbackModel(F=f_small, H=h_sys))

    def test_zero_return_map_with_unstable_hidden_states(self):
        f_sys, h_sys = systems.hidden_unstable_zero_h_loop()
        cl = closed_loop_T(FeedbackModel(F=f_sys, H=h_sys))
        assert cl.internally_stable
        assert oracles.match_gap(poles(cl.T), [-2.0, -1.5]) < 1e-10

    def test_one_reduction_of_t(self, monkeypatch, rng):
        fm = random_loop(rng)
        calls = count_calls(monkeypatch, minimal_realization)
        cl = closed_loop_T(fm)
        assert len(calls) == 1 and calls[0][0] is cl.T

    def test_agrees_with_block_pole_test(self, rng):
        for _ in range(20):
            fm = random_loop(rng)
            cl = closed_loop_T(fm)
            by_poles = all(
                is_strictly_stable(blk) for blk in (cl.P, cl.PF, cl.QH, cl.Q))
            assert cl.internally_stable == by_poles


class TestInterchange:
    def test_scalar_exact(self):
        fm = FeedbackModel(F=scalar_lag(), H=StateSpace.constant([[0.5]]))
        assert verify_interchange_identities(fm, np.logspace(-2, 2, 20)) < 1e-12

    def test_no_return_path_exact(self):
        fm = FeedbackModel(F=scalar_lag(), H=StateSpace.zero(1, 1))
        assert verify_interchange_identities(fm, np.logspace(-2, 2, 20)) == 0.0

    def test_random_mimo(self, rng):
        for _ in range(10):
            f_sys = oracles.random_stable_ss(rng, 2, 3, n=3)
            h_sys = oracles.random_stable_ss(rng, 3, 2, n=2)
            fm = FeedbackModel(F=f_sys, H=h_sys)
            assert verify_interchange_identities(fm, np.logspace(-2, 2, 20)) < 1e-8

    def test_one_response_each_of_f_h_and_t(self, monkeypatch, rng):
        fm = random_loop(rng)
        cl = closed_loop_T(fm)
        calls = count_calls(monkeypatch, freq_response)
        assert _interchange_residual(fm, cl, np.logspace(-2, 2, 20)) < 1e-8
        assert len(calls) == 3
        assert all(args[0] is ss for args, ss in zip(calls, (fm.F, fm.H, cl.T)))

    def test_empty_grid(self):
        fm = FeedbackModel(F=scalar_lag(), H=StateSpace.constant([[0.5]]))
        assert verify_interchange_identities(fm, []) == 0.0


class TestGranger:
    def test_zero_map_no_causality(self):
        assert not granger_causes(StateSpace.zero(2, 1))

    def test_golden_relation_causes(self, m3):
        f = compute_F(m3, enumerate_selections(m3)[0])
        assert granger_causes(f)

    def test_tiny_gain_below_threshold(self):
        f = StateSpace([[-1.0]], [[1.0]], [[1e-12]])
        assert not granger_causes(f)
        assert granger_causes(f, Tolerances(residual_tol=1e-14))


class TestFeedbackFree:
    def test_absent_and_consistent(self):
        v = feedback_free(StateSpace.zero(1, 1), scalar_lag())
        assert v.h_zero and v.f_stable and not v.inconsistent

    def test_absent_but_inconsistent(self):
        v = feedback_free(StateSpace.zero(1, 1), scalar_unstable())
        assert v.h_zero and v.f_stable is False and v.inconsistent

    def test_present(self):
        v = feedback_free(StateSpace.constant([[0.5]]), scalar_lag())
        assert not v.h_zero and v.f_stable is None and not v.inconsistent


class TestSpectralAssembly:
    def test_unit_noise_gives_hermitian_psd(self, rng):
        for _ in range(10):
            fm = random_loop(rng)
            fm.phi_v = np.eye(fm.p)
            fm.phi_r = np.eye(fm.q)
            cl = closed_loop_T(fm)
            intensity = np.block([
                [fm.phi_v, np.zeros((fm.p, fm.q))],
                [np.zeros((fm.q, fm.p)), fm.phi_r],
            ])
            for w in rng.uniform(0.05, 20.0, size=4):
                t_val = tf_eval(cl.T, 1j * float(w))
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
            cl = closed_loop_T(FeedbackModel(F=f_sys, H=h_sys))
            for w in rng.uniform(0.1, 10.0, size=3):
                t_val = tf_eval(cl.T, 1j * float(w))
                intensity = np.diag([0.0] * p + [1.0] * q)
                phi = t_val @ intensity @ t_val.conj().T
                assert numerical_rank(phi) == q
