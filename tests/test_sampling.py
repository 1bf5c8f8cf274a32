import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

import oracles
import systems
from conftest import count_calls, count_checks
from dynrel.errors import (
    DimensionMismatch,
    LogFailure,
    NonPositiveH,
    NotSemidefinite,
    QdSingular,
)
from dynrel.kernels import (
    DEFAULT_TOL,
    numerical_rank,
    psd_factor,
    solve_lyap_continuous,
    solve_lyap_discrete,
)
from dynrel import sampling
from dynrel.lti import CtModel, StateSpace, validate_ct_model
from dynrel.relation import classify_selections, enumerate_selections
from dynrel.sampling import (
    SampledModel,
    desample,
    dual_lyapunov_check,
    hidden_rank_report,
    sample,
)

H_LN2 = float(np.log(2.0))


def scalar_model():
    return validate_ct_model(StateSpace([[-1.0]], [[np.sqrt(2.0)]], [[1.0]]))


class TestSample:
    def test_scalar_closed_form(self):
        sm = sample(scalar_model(), H_LN2)
        np.testing.assert_allclose(sm.Ad, [[0.5]], rtol=1e-12)
        np.testing.assert_allclose(sm.Qd, [[0.75]], rtol=1e-12)
        bd = psd_factor(sm.Qd)
        np.testing.assert_allclose(bd @ bd.T, [[0.75]], rtol=1e-12)

    def test_diagonal(self):
        model = validate_ct_model(StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2)))
        sm = sample(model, 0.3)
        np.testing.assert_allclose(sm.Ad, np.diag(np.exp([-0.3, -0.6])), rtol=1e-12)

    def test_golden_quadrature_oracle(self, m2):
        sm = sample(m2, 0.05)
        want = oracles.simpson_qd(systems.A2, systems.B2 @ systems.B2.T, 0.05)
        assert np.abs(sm.Qd - want).max() < 1e-9
        assert numerical_rank(sm.Qd) == 2
        assert numerical_rank(systems.B2 @ systems.B2.T) == 1

    def test_positive_definite_qd(self, rng):
        for _ in range(10):
            model = oracles.random_ct_model(rng)
            for h in (0.01, 0.1, 1.0):
                sm = sample(model, h)
                assert np.linalg.eigvalsh(sm.Qd).min() > 0

    def test_semigroup(self, rng):
        for _ in range(10):
            model = oracles.random_ct_model(rng)
            h1, h2 = rng.uniform(0.05, 0.6, size=2)
            left = sample(model, h1 + h2).Ad
            right = sample(model, h1).Ad @ sample(model, h2).Ad
            assert np.abs(left - right).max() < 1e-8

    def test_bad_period(self, m2):
        with pytest.raises(NonPositiveH):
            sample(m2, 0.0)
        with pytest.raises(NonPositiveH):
            sample(m2, -1.0)


class TestSampledModel:
    @pytest.mark.parametrize("ad, qd, cd, message", [
        pytest.param(np.zeros((2, 3)), np.eye(2), np.eye(2), "Ad: expected 2 columns, got 3",
                     id="Ad"),
        pytest.param(np.eye(2), np.eye(3), np.eye(2), "Qd: expected 2 rows, got 3", id="Qd-rows"),
        pytest.param(np.eye(2), np.ones((2, 1)), np.eye(2), "Qd: expected 2 columns, got 1",
                     id="Qd-columns"),
        pytest.param(np.eye(2), np.eye(2), np.ones((1, 3)), "Cd: expected 2 columns, got 3",
                     id="Cd"),
    ])
    def test_shape_faults(self, ad, qd, cd, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            SampledModel(ad, qd, cd, 0.1)

    def test_qd_stored_symmetric(self):
        # stored as 0.5 (Q_d + Q_d'); an exactly symmetric Q_d, subnormal
        # entries included, keeps its bits
        qd = np.array([[1.0, 0.3], [0.1, 2.0]])
        sm = SampledModel(0.5 * np.eye(2), qd, np.eye(2), 0.1)
        assert np.array_equal(sm.Qd, sm.Qd.T)
        np.testing.assert_array_equal(sm.Qd, 0.5 * (qd + qd.T))
        sym = np.array([[1 / 3, 5e-324], [5e-324, np.pi]])
        assert SampledModel(0.5 * np.eye(2), sym, np.eye(2), 0.1).Qd.tobytes() == sym.tobytes()

    def test_qd_beyond_half_the_float_range_stored_finite(self):
        # where Q_d + Q_d' overflows it is stored as 0.5 Q_d + 0.5 Q_d', the
        # other entries as 0.5 (Q_d + Q_d')
        qd = np.array([[1e308, 1.7e308], [1.5e308, 0.1]])
        stored = SampledModel(0.5 * np.eye(2), qd, np.eye(2), 0.1).Qd
        assert np.array_equal(stored, stored.T)
        assert stored.tolist() == [[1e308, 0.5 * 1.7e308 + 0.5 * 1.5e308], [1.6e308, 0.1]]

    def test_frozen(self):
        sm = SampledModel([[0.5]], [[0.75]], [[1.0]], H_LN2)
        for name, value in (("h", -1), ("Ad", np.eye(1)), ("Qd", np.eye(1))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sm, name, value)
        assert sm.h == H_LN2 and sm.Ad.tolist() == [[0.5]]


class TestPeriodRule:
    """``sample`` and ``SampledModel`` refuse the same periods with the
    same kind and message."""

    @staticmethod
    def refusals(model, h):
        with pytest.raises(NonPositiveH) as by_sample:
            sample(model, h)
        with pytest.raises(NonPositiveH) as by_model:
            SampledModel([[0.5]], [[0.75]], [[1.0]], h)
        return str(by_sample.value), str(by_model.value)

    @pytest.mark.parametrize("h", [0, 0.0, -1, np.nan, np.inf,
                                   pytest.param(10**400, id="int-beyond-float-range"),
                                   pytest.param(10**5000, id="int-beyond-digit-limit")])
    def test_not_finite_and_positive(self, m2, h):
        got, want = self.refusals(m2, h)
        # repr cannot write an integer beyond Python's digit limit
        shown = "an integer of 16610 bits" if h == 10**5000 else repr(h)
        assert got == want == f"sampling period must be finite and positive, got {shown}"

    @pytest.mark.parametrize("h", [True, np.True_, "0.5", None])
    def test_not_a_real_number(self, m2, h):
        got, want = self.refusals(m2, h)
        assert got == want == f"sampling period must be finite and positive, got {h!r}"

    def test_infinite_period_refused_before_the_exponential(self, m2, monkeypatch):
        # exp(A inf) is NaN, with a RuntimeWarning that tier-1 makes an error
        exps = count_calls(monkeypatch, sampling.matrix_exp)
        with pytest.raises(NonPositiveH):
            sample(m2, np.inf)
        assert not exps

    @pytest.mark.parametrize("h", [1, np.float64(0.5), np.int64(2)])
    def test_numbers_kept_as_float(self, m2, h):
        for sm in (sample(m2, h), SampledModel([[0.5]], [[0.75]], [[1.0]], h)):
            assert type(sm.h) is float and sm.h == h


class TestDualLyapunov:
    def test_scalar(self):
        model = scalar_model()
        p = solve_lyap_continuous(model.A, model.B @ model.B.T)
        np.testing.assert_allclose(p, [[1.0]], rtol=1e-12)
        r_cont, r_disc = dual_lyapunov_check(model, sample(model, H_LN2))
        assert r_cont < 1e-12 and r_disc < 1e-12

    def test_golden_models(self, m3, m2):
        for model, h in ((m3, 0.1), (m2, 0.5)):
            r_cont, r_disc = dual_lyapunov_check(model, sample(model, h))
            assert r_cont < 1e-8 and r_disc < 1e-8

    def test_kron_oracle_agreement(self, m3):
        sm = sample(m3, 0.1)
        bbt = m3.B @ m3.B.T
        p_cont = solve_lyap_continuous(m3.A, bbt)
        p_disc = solve_lyap_discrete(sm.Ad, sm.Qd)
        scale = np.abs(p_cont).max()
        assert np.abs(p_cont - p_disc).max() < 1e-8 * scale
        assert np.abs(p_cont - oracles.kron_lyap_continuous(m3.A, bbt)).max() < 1e-8 * scale
        assert np.abs(p_disc - oracles.kron_lyap_discrete(sm.Ad, sm.Qd)).max() < 1e-8 * scale


class TestResidualNorms:
    """Both residual pairs keep their definitions,
    ``||A P + P A' + B B'||_2 / ||B B'||_2`` and
    ``||P - A_d P A_d' - Q_d||_2 / ||Q_d||_2``; the denominators come
    from values at hand (B, and the eigenvalues of the Q_d gate), not
    from n x n 2-norms."""

    def test_denominators_are_the_two_norms(self, monkeypatch, rng):
        seen = []
        residuals = sampling._residuals

        def recording(a, bbt, sm, p, bbt_norm, qd_norm):
            seen.append((bbt, sm.Qd, bbt_norm, qd_norm))
            return residuals(a, bbt, sm, p, bbt_norm, qd_norm)

        monkeypatch.setattr(sampling, "_residuals", recording)
        for _ in range(10):
            model = oracles.random_ct_model(rng)
            sm = sample(model, 1.0)
            dual_lyapunov_check(model, sm)
            desample(sm)
        assert len(seen) == 20
        for bbt, qd, bbt_norm, qd_norm in seen:
            np.testing.assert_allclose(bbt_norm, np.linalg.norm(bbt, 2), rtol=1e-12)
            np.testing.assert_allclose(qd_norm, np.linalg.norm(qd, 2), rtol=1e-12)


class TestDesample:
    def test_scalar_inverse(self):
        sm = SampledModel([[0.5]], [[0.75]], [[1.0]], H_LN2)
        model, diag = desample(sm)
        np.testing.assert_allclose(model.A, [[-1.0]], rtol=1e-10)
        np.testing.assert_allclose(model.B @ model.B.T, [[2.0]], rtol=1e-10)
        assert diag.logm_exists and diag.qd_nonsingular and diag.neg_semidef_ok
        assert diag.recovered_rank == 1

    def test_golden_round_trip(self, m2):
        sm = sample(m2, 0.1)
        model, diag = desample(sm)
        assert np.abs(model.A - m2.A).max() < 1e-6 * np.abs(m2.A).max()
        bbt = m2.B @ m2.B.T
        assert np.abs(model.B @ model.B.T - bbt).max() < 1e-6 * np.abs(bbt).max()
        np.testing.assert_allclose(model.C, m2.C)
        assert diag.recovered_rank == 1
        assert max(diag.residuals) < 1e-8

    def test_recovered_model_checked_once(self, m2, monkeypatch):
        sm = sample(m2, 0.1)
        calls = count_checks(monkeypatch)
        model, _ = desample(sm)
        assert calls == [CtModel] and type(model) is CtModel

    def test_random_round_trips(self, rng):
        # at tiny h with a deep rank gap the discrete intensity is
        # numerically singular (eigenvalue ratios scale like h^(2k)), so
        # the nonsingularity gate legitimately refuses; recoveries are
        # asserted whenever the gate admits the instance
        recovered_count = 0
        for _ in range(15):
            model = oracles.random_ct_model(rng)
            h = float(rng.choice([0.01, 0.1, 1.0]))
            sm = sample(model, h)
            try:
                recovered, diag = desample(sm)
            except QdSingular:
                continue
            assert np.abs(recovered.A - model.A).max() < 1e-6 * np.abs(model.A).max()
            bbt = model.B @ model.B.T
            assert np.abs(recovered.B @ recovered.B.T - bbt).max() < 1e-6 * np.abs(bbt).max()
            assert diag.recovered_rank == model.m
            recovered_count += 1
        assert recovered_count >= 8

    def test_deep_rank_gap_small_h_is_refused(self, rng):
        # single shock driving a four-state chain at h = 0.01: Q_d has
        # eigenvalue ratio far below double precision, so condition (ii)
        # must fire
        model = oracles.random_ct_model(rng, n=4, m=1, n_out=4)
        with pytest.raises(QdSingular):
            desample(sample(model, 0.01))

    def test_log_failure(self):
        sm = SampledModel(np.diag([-0.5, 0.5]), np.eye(2), np.eye(2), 0.1)
        with pytest.raises(LogFailure) as exc_info:
            desample(sm)
        diag = exc_info.value.diagnostics
        assert not diag.logm_exists

    def test_qd_singular(self):
        # a singular and an indefinite intensity both fail condition (ii)
        for qd in (np.diag([1.0, 0.0]), np.diag([1.0, -0.5])):
            sm = SampledModel(np.diag([0.5, 0.4]), qd, np.eye(2), 0.1)
            with pytest.raises(QdSingular) as exc_info:
                desample(sm)
            diag = exc_info.value.diagnostics
            assert diag.logm_exists and not diag.qd_nonsingular

    def test_not_semidefinite_curated(self):
        # genuine sampled model with strongly non-normal A; inflating the
        # noise intensity by 0.5 I breaks the semidefiniteness condition
        sm = sample(systems.model_shear(), 1.0)
        pert = SampledModel(sm.Ad, sm.Qd + 0.5 * np.eye(2), sm.Cd, sm.h)
        with pytest.raises(NotSemidefinite) as exc_info:
            desample(pert)
        diag = exc_info.value.diagnostics
        assert diag.logm_exists and diag.qd_nonsingular and not diag.neg_semidef_ok


class TestHiddenRank:
    def test_golden_reports(self, m3, m2):
        rep2 = hidden_rank_report(m2, 0.1)
        assert (rep2.bbt_rank, rep2.qd_rank, rep2.recovered_rank) == (1, 2, 1)
        rep3 = hidden_rank_report(m3, 0.1)
        assert (rep3.bbt_rank, rep3.qd_rank, rep3.recovered_rank) == (1, 3, 1)

    def test_full_rank_noise_hides_nothing(self, rng):
        model = oracles.random_ct_model(rng, n=3, m=3, n_out=3)
        rep = hidden_rank_report(model, 0.1)
        assert (rep.bbt_rank, rep.qd_rank, rep.recovered_rank) == (3, 3, 3)


    def test_near_dependent_noise_keeps_validated_rank(self):
        # sigma(B) has ratio 3e-7: validation gives m = 2 on the singular
        # values of B, and so does B B'. The recovered B comes from the
        # eigenvalues of -(A P + P A'), a Gram matrix with no factor at hand,
        # whose rank resolves only to about sqrt(eps) in factor terms: at this
        # h the second channel is not resolvable
        model = systems.near_dependent_noise()
        rep = hidden_rank_report(model, 1.0)
        assert model.m == 2
        assert (rep.bbt_rank, rep.qd_rank, rep.recovered_rank) == (2, 4, 1)

    def test_one_decomposition_per_matrix(self, monkeypatch, m3):
        # Q_d's rank is read off the eigvalsh of the Q_d gate, and B B''s
        # rank is m, which validation proved on B; no SVD of B is taken, and
        # no rank decision takes an SVD of either 3 x 3 matrix
        qd, bbt = sample(m3, 0.1).Qd, m3.B @ m3.B.T
        eigvalsh = count_calls(monkeypatch, np.linalg.eigvalsh, packages=("numpy.linalg",))
        svd = count_calls(monkeypatch, np.linalg.svd, packages=("numpy.linalg",))
        ranks = count_calls(monkeypatch, numerical_rank)
        rep = hidden_rank_report(m3, 0.1)
        assert (rep.bbt_rank, rep.qd_rank, rep.recovered_rank) == (1, 3, 1)
        assert len(eigvalsh) == 1 and np.array_equal(eigvalsh[0][0], qd)
        assert not any(np.array_equal(args[0], m3.B) for args in svd)
        assert not any(np.array_equal(args[0], x) for args in ranks for x in (qd, bbt))


class TestSharedSchurFactor:
    def test_one_schur_form_per_desample(self, monkeypatch, rng):
        # the logarithm and the discrete solve share one Schur form of A_d
        # and read the spectrum off it instead of taking eigvals(A_d)
        model = oracles.random_ct_model(rng, n=6, m=2, n_out=6)
        sm = sample(model, 0.3)
        schurs = count_calls(monkeypatch, scipy.linalg.schur, packages=("dynrel", "scipy"))
        eig_calls = count_calls(monkeypatch, np.linalg.eigvals, packages=("numpy.linalg",))
        desample(sm)
        assert len(schurs) == 1
        assert not any(np.array_equal(args[0], sm.Ad) for args in eig_calls)
        hidden_rank_report(model, 0.3)
        assert len(schurs) == 2


#: The draw of the round-trip properties: a random validated model with n
#: states, as many outputs and 1 + int(m_frac (n - 1)) shocks, and a period
#: at ``h_frac`` of its aliasing limit ``pi / max|Im lam(A)|`` (at most 1).
ROUND_TRIP_DRAW = given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
                        m_frac=st.floats(0.0, 1.0), h_frac=st.floats(0.05, 0.95))


def below_aliasing_limit(seed, n, m_frac, h_frac):
    """The model and the period of one draw of ``ROUND_TRIP_DRAW``."""
    rng = np.random.default_rng(seed)
    m = 1 + int(m_frac * (n - 1))
    model = oracles.random_ct_model(rng, n=n, m=m, n_out=n)
    im_max = np.abs(np.linalg.eigvals(model.A).imag).max()
    return model, h_frac * min(1.0, np.pi / im_max if im_max else 1.0)


class TestRoundTripProperty:
    """``desample(sample(model, h))`` returns the model when h is below
    the aliasing limit ``h * max|Im lam(A)| < pi``."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @ROUND_TRIP_DRAW
    def test_recovers_model_below_aliasing_limit(self, seed, n, m_frac, h_frac):
        model, h = below_aliasing_limit(seed, n, m_frac, h_frac)
        m = model.m
        sm = sample(model, h)
        w = np.linalg.eigvalsh(sm.Qd)
        if w.min() <= DEFAULT_TOL.psd_tol * w.max():
            # a deep rank gap at small h: condition (ii) refuses
            with pytest.raises(QdSingular):
                desample(sm)
            return
        recovered, diag = desample(sm)
        bbt = model.B @ model.B.T
        assert np.abs(recovered.A - model.A).max() < 1e-9 * np.abs(model.A).max()
        assert np.abs(recovered.B @ recovered.B.T - bbt).max() < 1e-9 * np.abs(bbt).max()
        assert diag.recovered_rank == numerical_rank(model.B) == m

    @settings(derandomize=True, max_examples=200, deadline=None)
    @ROUND_TRIP_DRAW
    def test_relation_verdicts_survive_round_trip(self, seed, n, m_frac, h_frac):
        # the paper's question: which hidden relations survive sampling. The
        # recovered B is B Q for an orthogonal Q, and K = B Q (C0 B Q)^-1 =
        # B (C0 B)^-1, so each relation F is the model's, to the accuracy
        # of the recovered A and B B' (1e-9 relative, test above). The poles
        # agree to 1e-6 ||A||_2; 552 such draws moved them by 1.8e-8 ||A||_2 at most
        model, h = below_aliasing_limit(seed, n, m_frac, h_frac)
        try:
            recovered, _ = desample(sample(model, h))
        except QdSingular:
            return
        want = classify_selections(model, enumerate_selections(model))
        got = classify_selections(recovered, enumerate_selections(recovered))
        assert [rep.rows0 for rep in got] == [rep.rows0 for rep in want]
        scale = max(1.0, model.a_norm)
        for rep, ref in zip(got, want):
            assert rep.stable == ref.stable and rep.degree == ref.degree
            assert oracles.match_gap(rep.poles, ref.poles) < 1e-6 * scale

    @pytest.mark.parametrize("h_over_limit", [1.1, 1.2])
    def test_aliased_period_is_refused(self, h_over_limit):
        # eigenvalues -0.5 +/- 4i and -1: beyond h = pi/4 the principal
        # logarithm picks another branch, and condition (iii) fails
        a = [[-0.5, 4.0, 0.0], [-4.0, -0.5, 1.0], [0.0, 0.0, -1.0]]
        model = validate_ct_model(StateSpace(a, [[0.0], [0.0], [1.0]], np.eye(3)))
        recovered, _ = desample(sample(model, 0.9 * np.pi / 4.0))
        assert np.abs(recovered.A - model.A).max() < 1e-12
        with pytest.raises(NotSemidefinite) as exc_info:
            desample(sample(model, h_over_limit * np.pi / 4.0))
        diag = exc_info.value.diagnostics
        assert diag.logm_exists and diag.qd_nonsingular and not diag.neg_semidef_ok


class TestTimeRescaling:
    """Rescaling time, (A, B, h) -> (cA, sqrt(c) B, h/c), leaves exp(A h)
    and Q_d = int_0^h exp(A t) B B' exp(A' t) dt unchanged (substitute
    t = c s). So ``sample`` gives the same A_d and Q_d, ``desample``
    recovers cA and c B B' within the tolerances of
    ``test_recovers_model_below_aliasing_limit``, or refuses exactly when it
    refuses the unscaled draw, and ``hidden_rank_report`` gives the same
    ranks. As in ``test_relation.py::TestScaling``, a draw with a pole
    within 1e-6 of the axis is not used: at c = 1e-3 the absolute 1e-9
    ``stability_margin`` could refuse the rescaled model."""

    @staticmethod
    def rescaled(model, c):
        return validate_ct_model(CtModel(c * model.A, np.sqrt(c) * model.B, model.C))

    @staticmethod
    def refusal(sm):
        """The recovered model, or the type of the refusal."""
        try:
            return desample(sm)[0]
        except (LogFailure, QdSingular, NotSemidefinite) as exc:
            return type(exc)

    def check(self, model, h):
        sm = sample(model, h)
        want = self.refusal(sm)
        for c in (1e-3, 1e3):
            scaled = sample(self.rescaled(model, c), h / c)
            for got, ref in ((scaled.Ad, sm.Ad), (scaled.Qd, sm.Qd)):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            got = self.refusal(scaled)
            if isinstance(want, type):
                assert got is want
                continue
            a, bbt = c * model.A, c * model.B @ model.B.T
            assert np.abs(got.A - a).max() < 1e-9 * np.abs(a).max()
            assert np.abs(got.B @ got.B.T - bbt).max() < 1e-9 * np.abs(bbt).max()
            assert (hidden_rank_report(self.rescaled(model, c), h / c)
                    == hidden_rank_report(model, h))

    @pytest.mark.parametrize("h", [0.05, 0.3, 1.0])
    def test_model2(self, m2, h):
        self.check(m2, h)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @ROUND_TRIP_DRAW
    def test_random_draws(self, seed, n, m_frac, h_frac):
        model, h = below_aliasing_limit(seed, n, m_frac, h_frac)
        assume(np.abs(model.eigenvalues.real).min() >= 1e-6)
        self.check(model, h)
