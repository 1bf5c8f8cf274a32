"""Acceptance gate: one test per release criterion, each printing a
pass/fail line. Tolerances are fixed here and nowhere else."""

import functools
import time

import numpy as np
import pytest

import oracles
import systems
from oracles import (
    evaluation_gap,
    f_from_spectrum,
    loop_blocks,
    nonzero_spectrum,
    probe_points,
    ss_inverse,
)
from dynrel.errors import LogFailure, NotSemidefinite, QdSingular
from dynrel.feedback import closed_loop_T, verify_interchange_identities
from dynrel.kernels import (
    matrix_exp,
    matrix_log_principal,
    numerical_rank,
    psd_factor,
)
from dynrel.lti import (
    StateSpace,
    freq_response,
    is_strictly_stable,
    minimal_realization,
)
from dynrel.relation import classify_selection, enumerate_selections, stable_selection_exists
from dynrel.sampling import SampledModel, desample, dual_lyapunov_check, sample

PROBES_IMAG = 1j * np.logspace(-2, 2, 20)


def report(criterion):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {criterion}: FAIL")
                raise
            print(f"[acceptance] {criterion}: PASS")
        return wrapper
    return decorate


@report("C1 stable selection of the three-state network")
def test_c1_first_selection_exact(m3):
    start = time.perf_counter()
    rep = classify_selection(m3, enumerate_selections(m3)[0])
    np.testing.assert_allclose(rep.gamma, systems.GAMMA3_FIRST, atol=1e-10)
    assert oracles.match_gap(rep.gamma_eigs, [0.0, -1.0, -2.0]) < 1e-8
    assert rep.degree == 2
    assert rep.stable
    assert oracles.match_gap(rep.poles, [-1.0, -2.0]) < 1e-8
    want = [systems.f3_first(s) for s in PROBES_IMAG]
    assert np.abs(freq_response(rep.F, PROBES_IMAG) - want).max() < 1e-8
    assert time.perf_counter() - start < 1.0


@report("C2 unstable selection of the three-state network")
def test_c2_second_selection(m3):
    rep = classify_selection(m3, enumerate_selections(m3)[1])
    np.testing.assert_allclose(rep.gamma, systems.GAMMA3_SECOND, atol=1e-10)
    assert oracles.match_gap(rep.gamma_eigs, [0.0, -3.0, 3.0]) < 1e-8
    assert not rep.stable
    want = [systems.f3_second(s) for s in PROBES_IMAG]
    assert np.abs(freq_response(rep.F, PROBES_IMAG) - want).max() < 1e-8


@report("C3 counterexample admits no stable selection")
def test_c3_counterexample(m2):
    reps = [classify_selection(m2, sel) for sel in enumerate_selections(m2)]
    assert len(reps) == 2
    assert not reps[0].stable and not reps[1].stable
    assert oracles.match_gap(reps[0].poles, [8.0 / 9.0]) < 1e-8
    assert oracles.match_gap(reps[1].poles, [79.0 / 6.0]) < 1e-8
    want_first = [systems.f2_first(s) for s in PROBES_IMAG]
    want_second = [systems.f2_second(s) for s in PROBES_IMAG]
    assert np.abs(freq_response(reps[0].F, PROBES_IMAG) - want_first).max() < 1e-8
    assert np.abs(freq_response(reps[1].F, PROBES_IMAG) - want_second).max() < 1e-8
    assert stable_selection_exists(m2) is None


@report("C4 realization matches the density-block formula")
def test_c4_spectral_consistency(m3, m2):
    grid = np.logspace(-2, 2, 50)
    for model in (m3, m2):
        for sel in enumerate_selections(model):
            f = classify_selection(model, sel).F
            want = f_from_spectrum(model, sel, grid)
            assert np.abs(freq_response(f, 1j * grid) - want).max() < 1e-6


@report("C5 closed-loop suite over 100 random loops")
def test_c5_closed_loop_suite():
    rng = np.random.default_rng(50)
    for _ in range(100):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        n_f = int(rng.integers(1, 4))
        n_h = int(rng.integers(1, 7 - n_f))
        f_sys = oracles.random_stable_ss(rng, p, q, n=n_f)
        h_sys = oracles.random_stable_ss(rng, q, p, n=n_h)
        t_sys = closed_loop_T(f_sys, h_sys)
        eye = np.eye(p + q)
        n_val = np.broadcast_to(eye, (PROBES_IMAG.size, p + q, p + q)).astype(complex)
        n_val[:, :p, p:] = -freq_response(f_sys, PROBES_IMAG)
        n_val[:, p:, :p] = -freq_response(h_sys, PROBES_IMAG)
        assert np.abs(n_val @ freq_response(t_sys, PROBES_IMAG) - eye).max() < 1e-8
        assert verify_interchange_identities(f_sys, h_sys, t_sys) < 1e-8
        by_poles = all(is_strictly_stable(blk) for blk in loop_blocks(t_sys, p))
        assert is_strictly_stable(t_sys) == by_poles


@report("C6 one covariance solves both Lyapunov equations")
def test_c6_sampling_duality(m3, m2):
    rng = np.random.default_rng(60)
    models = [m3, m2] + [oracles.random_ct_model(rng, n=int(rng.integers(2, 7)))
                         for _ in range(50)]
    for model in models:
        for h in (0.01, 0.1, 1.0):
            r_cont, r_disc = dual_lyapunov_check(model, sample(model, h))
            assert r_cont < 1e-8
            assert r_disc < 1e-8


@report("C7 hidden rank restored by de-sampling")
def test_c7_hidden_rank_recovery(m3, m2):
    for model, expect_qd_rank in ((m2, 2), (m3, 3)):
        sm = sample(model, 0.1)
        bbt = model.B @ model.B.T
        assert numerical_rank(bbt) == 1
        assert numerical_rank(sm.Qd) == expect_qd_rank
        recovered, diag = desample(sm)
        assert np.abs(recovered.A - model.A).max() < 1e-6 * np.linalg.norm(model.A, 2)
        got_bbt = recovered.B @ recovered.B.T
        assert np.abs(got_bbt - bbt).max() < 1e-6 * np.linalg.norm(bbt, 2)
        assert recovered.B.shape[1] == 1
        assert diag.recovered_rank == 1


@report("C8 de-sampling gates fire on curated fixtures")
def test_c8_desample_gates():
    with pytest.raises(LogFailure):
        desample(SampledModel(
            np.diag([-0.5, 0.5]), np.eye(2), np.eye(2), 0.1))
    with pytest.raises(QdSingular):
        desample(SampledModel(
            np.diag([0.5, 0.4]), np.diag([1.0, 0.0]), np.eye(2), 0.1))
    sm = sample(systems.model_shear(), 1.0)
    perturbed = SampledModel(
        sm.Ad, sm.Qd + 0.5 * np.eye(2), sm.Cd, sm.h)
    with pytest.raises(NotSemidefinite):
        desample(perturbed)


@report("C9 randomized property suites")
def test_c9_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(90)

    for _ in range(100):  # exponential/logarithm round trip
        n = int(rng.integers(1, 7))
        a = oracles.hurwitz(rng, n)
        h = float(rng.uniform(0.05, 1.0))
        back = matrix_log_principal(matrix_exp(a, h)) / h
        assert np.abs(back - a).max() < 1e-7

    for _ in range(100):  # shared nonzero spectra of AB and BA
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=(n, m))
        assert oracles.match_gap(nonzero_spectrum(a @ b), nonzero_spectrum(b @ a)) < 1e-8

    eye_probe = probe_points()[:10]
    for _ in range(100):  # realization inversion composes to identity
        k = int(rng.integers(1, 4))
        ss = oracles.random_stable_ss(rng, k, k, n=int(rng.integers(1, 5)))
        ss = StateSpace(ss.A, ss.B, ss.C, ss.D + np.eye(k) * rng.uniform(1.0, 2.0))
        inv = ss_inverse(ss)
        prod = freq_response(ss, eye_probe) @ freq_response(inv, eye_probe)
        assert np.abs(prod - np.eye(k)).max() < 1e-8

    for _ in range(100):  # degree reduction preserves evaluations
        ss = oracles.random_stable_ss(rng, int(rng.integers(1, 4)),
                                      int(rng.integers(1, 4)),
                                      n=int(rng.integers(1, 9)))
        assert evaluation_gap(minimal_realization(ss), ss) < 1e-8

    for _ in range(100):  # PSD factorization reconstructs its input
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, n + 1))
        r = rng.normal(size=(n, k))
        s_mat = r @ r.T
        b = psd_factor(s_mat)
        assert b.shape[1] == numerical_rank(s_mat)
        assert np.abs(b @ b.T - s_mat).max() < 1e-8 * max(1.0, np.abs(s_mat).max())

    assert time.perf_counter() - start < 60.0
