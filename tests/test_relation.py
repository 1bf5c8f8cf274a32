import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

import oracles
import systems
from oracles import f_from_spectrum, has_full_eigenbasis, nonzero_spectrum
from conftest import count_calls
from dynrel import relation
from dynrel.errors import (
    InadmissibleSelection,
    NoAdmissibleSelection,
    SelectionLimitExceeded,
)
from dynrel.kernels import DEFAULT_TOL, is_invertible, numerical_rank
from dynrel.lti import (
    CtModel,
    StateSpace,
    freq_response,
    minimal_realization,
    minimal_realizations,
    poles,
    validate_ct_model,
)
from dynrel.relation import (
    classify_selection,
    classify_selections,
    enumerate_selections,
    stable_selection_exists,
)


def constant_relation_model():
    """m = n = 1 with two output channels: the relation is a constant."""
    return validate_ct_model(StateSpace([[-1.0]], [[1.0]], [[1.0], [2.0]]))


def near_threshold_model():
    """m = 2 model whose 15 subsets give cond(C0 B) of 1 or between 6e11
    and 4e12, on both sides of the invertibility ceiling of 1e12."""
    u = [[1.0, 0.0], [0.0, 1.0], [1.0, 3e-12], [1.0, 1.5e-12], [1.0, 8e-13], [1.0, 2.05e-12]]
    c = np.hstack([u, np.ones((6, 1))])
    b = np.vstack([np.eye(2), np.zeros((1, 2))])
    return CtModel(A=np.diag([-1.0, -2.0, -3.0]), B=b, C=c)


def seeded_model():
    """n = 10 model whose first stable selection is its third."""
    return oracles.random_ct_model(np.random.default_rng(15), n=10, m=3, n_out=6)


def dependent_rows_model(rng, n, mix, out_scale):
    """Validated model with outputs ``out_scale * [C0; mix C0]`` (A, B, C0
    drawn in that order): every row after the first m is a combination of
    the first m, so the relation they drive is the constant
    ``D1 mix D0^-1`` with ``D = diag(out_scale)``."""
    a = oracles.hurwitz(rng, n)
    b = rng.normal(size=(n, mix.shape[1]))
    c0 = rng.normal(size=(mix.shape[1], n))
    return validate_ct_model(StateSpace(a, b, out_scale[:, None] * np.vstack([c0, mix @ c0])))


def assert_same_report(got, want):
    """Every field of two relation reports equal with ``==``."""
    assert got.rows0 == want.rows0 and got.rows1 == want.rows1
    assert got.degree == want.degree and got.stable == want.stable
    for x, y in ((got.gamma, want.gamma), (got.gamma_eigs, want.gamma_eigs),
                 (got.poles, want.poles)):
        assert x.shape == y.shape and np.all(x == y)
    for name in "ABCD":
        x, y = getattr(got.F, name), getattr(want.F, name)
        assert x.shape == y.shape and np.all(x == y)


def relation_F(model, sel):
    """Minimal realization of the relation F of ``sel``."""
    return classify_selection(model, sel).F


class TestEnumerate:
    def test_golden_four_singletons(self, m3):
        sels = enumerate_selections(m3)
        assert sels == [(0,), (1,), (2,), (3,)]
        assert [rep.rows1 for rep in classify_selections(m3, sels)] == [
            (1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
        c0b = [float(systems.C3[i] @ systems.B3[:, 0]) for i in range(4)]
        np.testing.assert_allclose(c0b, [4.0, 4.0, -4.0, -4.0])

    def test_golden_two_selections(self, m2):
        sels = enumerate_selections(m2)
        assert sels == [(0,), (1,)]
        c0b = [float(systems.C2[i] @ systems.B2[:, 0]) for i in range(2)]
        np.testing.assert_allclose(c0b, [-3.0, -1.0])

    def test_orthogonal_row_excluded(self):
        a = np.array([[-1.0, 0.0], [1.0, -2.0]])
        b = np.array([[1.0], [0.0]])
        c = np.eye(2)  # row 1 is orthogonal to the column of B
        model = validate_ct_model(StateSpace(a, b, c))
        sels = enumerate_selections(model)
        assert sels == [(0,)]

    def test_batched_verdicts_match_per_subset(self, m3, m2):
        near = near_threshold_model()
        conds = [np.linalg.cond(near.C[list(rows0)] @ near.B)
                 for rows0 in itertools.combinations(range(near.n_out), near.m)]
        assert any(1e11 < x < 1e12 for x in conds) and any(1e12 < x < 1e13 for x in conds)
        for model in (m3, m2, near):
            kept = enumerate_selections(model)
            assert kept == [rows0 for rows0 in itertools.combinations(range(model.n_out), model.m)
                            if is_invertible(model.C[list(rows0)] @ model.B)]
        assert len(kept) == 8

    def test_cap(self, m3, monkeypatch):
        monkeypatch.setattr(relation, "SELECTION_CAP", 3)
        with pytest.raises(SelectionLimitExceeded):
            enumerate_selections(m3)

    def test_no_admissible_selection(self):
        # hand-assembled (unvalidated) triple whose single row kills C0 B
        model = CtModel(A=[[-1.0, 0.0], [1.0, -2.0]], B=[[1.0], [0.0]], C=[[0.0, 1.0]])
        with pytest.raises(NoAdmissibleSelection):
            enumerate_selections(model)


class TestGamma:
    def test_golden_first(self, m3):
        sel = enumerate_selections(m3)[0]
        gamma = classify_selection(m3, sel).gamma
        np.testing.assert_allclose(gamma, systems.GAMMA3_FIRST, atol=1e-12)
        assert oracles.match_gap(np.linalg.eigvals(gamma), [0.0, -1.0, -2.0]) < 1e-8

    def test_golden_second_model(self, m2):
        first, second = (classify_selection(m2, sel).gamma for sel in enumerate_selections(m2))
        np.testing.assert_allclose(first, systems.GAMMA2_FIRST, atol=1e-12)
        np.testing.assert_allclose(second, systems.GAMMA2_SECOND, atol=1e-12)
        assert oracles.match_gap(
            np.linalg.eigvals(systems.GAMMA2_SECOND), [0.0, 79.0 / 6.0]) < 1e-12

    def test_square_model_gives_zero(self):
        model = constant_relation_model()
        sel = enumerate_selections(model)[0]
        np.testing.assert_allclose(classify_selection(model, sel).gamma, np.zeros((1, 1)))

    def test_inadmissible_rejected(self, m3):
        with pytest.raises(InadmissibleSelection):
            classify_selection(m3, (0, 1))

    def test_rank_drop(self, rng):
        for _ in range(20):
            model = oracles.random_ct_model(rng)
            for sel in enumerate_selections(model)[:2]:
                k = model.B @ np.linalg.solve(
                    model.C[list(sel), :] @ model.B, model.C[list(sel), :])
                if not has_full_eigenbasis(k):
                    continue
                gamma = classify_selection(model, sel).gamma
                assert numerical_rank(gamma) == model.n - model.m


class TestComputeF:
    def test_golden_first(self, m3):
        sel = enumerate_selections(m3)[0]
        f = relation_F(m3, sel)
        assert f.n == 2
        s = 1j * np.logspace(-2, 2, 20)
        np.testing.assert_allclose(freq_response(f, s), [systems.f3_first(x) for x in s],
                                   atol=1e-8)

    def test_golden_unstable_scalar(self, m2):
        sel = enumerate_selections(m2)[0]
        f = relation_F(m2, sel)
        s = 1j * np.logspace(-2, 2, 20)
        np.testing.assert_allclose(freq_response(f, s), [systems.f2_first(x) for x in s],
                                   atol=1e-10)

    def test_constant_relation(self):
        model = constant_relation_model()
        f = relation_F(model, enumerate_selections(model)[0])
        assert f.n == 0
        np.testing.assert_allclose(f.D, [[2.0]])

    def test_alternative_form(self, m3, rng):
        # s C1 (sI - Gamma)^{-1} B (C0 B)^{-1} agrees with the realization
        sel = enumerate_selections(m3)[1]
        gamma = classify_selection(m3, sel).gamma
        f = relation_F(m3, sel)
        c0 = systems.C3[list(sel), :]
        c1 = systems.C3[[i for i in range(4) if i not in sel], :]
        k = systems.B3 @ np.linalg.inv(c0 @ systems.B3)
        s = 1j * rng.uniform(0.1, 10.0, size=8)
        alt = [x * c1 @ np.linalg.solve(x * np.eye(3) - gamma, k) for x in s]
        np.testing.assert_allclose(freq_response(f, s), alt, atol=1e-9)

    def test_zero_pole_cancels(self, m3, m2, rng):
        models = [m3, m2] + [oracles.random_ct_model(rng) for _ in range(10)]
        for model in models:
            for sel in enumerate_selections(model):
                p = poles(relation_F(model, sel))
                if p.size:
                    assert np.abs(p).min() > 1e-6

    def test_projection_spectrum(self, m3, rng):
        models = [m3] + [oracles.random_ct_model(rng) for _ in range(10)]
        for model in models:
            sel = enumerate_selections(model)[0]
            c0 = model.C[list(sel), :]
            k = model.B @ np.linalg.solve(c0 @ model.B, c0)
            got = nonzero_spectrum(k)
            assert got.shape == (model.m,)
            assert oracles.match_gap(got, np.ones(model.m)) < 1e-8


class TestClassify:
    def test_golden_first(self, m3):
        sel = enumerate_selections(m3)[0]
        rep = classify_selection(m3, sel)
        assert rep.stable
        assert rep.degree == 2
        assert relation._realizations(m3, [sel]).a.shape == (1, 2, 2)  # n - m raw states
        assert oracles.match_gap(rep.poles, [-1.0, -2.0]) < 1e-8

    def test_golden_second(self, m3):
        rep = classify_selection(m3, enumerate_selections(m3)[1])
        assert not rep.stable
        assert oracles.match_gap(rep.gamma_eigs, [0.0, -3.0, 3.0]) < 1e-8
        assert oracles.match_gap(rep.poles, [-3.0, 3.0]) < 1e-8
        s = 1j * np.logspace(-2, 2, 10)
        np.testing.assert_allclose(freq_response(rep.F, s), [systems.f3_second(x) for x in s],
                                   atol=1e-8)

    def test_golden_second_model_selections(self, m2):
        reps = [classify_selection(m2, sel) for sel in enumerate_selections(m2)]
        assert not reps[0].stable and not reps[1].stable
        assert oracles.match_gap(reps[0].poles, [8.0 / 9.0]) < 1e-8
        assert oracles.match_gap(reps[1].poles, [79.0 / 6.0]) < 1e-8
        assert oracles.match_gap(reps[1].gamma_eigs, [0.0, 79.0 / 6.0]) < 1e-8

    def test_reciprocity(self, m2):
        sels = enumerate_selections(m2)
        s = 1j * np.logspace(-1, 1, 10)
        prod = freq_response(relation_F(m2, sels[0]), s) @ freq_response(relation_F(m2, sels[1]), s)
        np.testing.assert_allclose(prod, np.ones((10, 1, 1)), atol=1e-10)

    def test_poles_are_eigenvalues_of_reported_minimal_F(self, m3, m2):
        seeded = oracles.random_ct_model(np.random.default_rng(10), n=10, m=3, n_out=6)
        for model in (m3, m2, seeded):
            for sel in enumerate_selections(model):
                rep = classify_selection(model, sel)
                eigs = np.linalg.eigvals(rep.F.A)
                expected = np.array(sorted(eigs, key=lambda z: (z.real, z.imag)),
                                    dtype=np.complex128)
                np.testing.assert_array_equal(rep.poles, expected)
                assert rep.stable == bool(
                    eigs.size == 0 or eigs.real.max() < -DEFAULT_TOL.stability_margin)
                # a second reduction must not cut the reported F further
                assert minimal_realization(rep.F).n == rep.degree

    def test_one_reduction_and_one_gamma_per_selection(self, m3, monkeypatch):
        sels = enumerate_selections(m3)
        reductions = count_calls(monkeypatch, minimal_realizations)
        gammas = count_calls(monkeypatch, relation._realizations)
        for sel in sels:
            classify_selection(m3, sel)
        assert len(reductions) == len(gammas) == len(sels)
        assert all(len(args[1]) == 1 for args in gammas)
        reductions.clear()
        gammas.clear()
        classify_selections(m3, sels)
        assert len(reductions) == len(gammas) == 1
        assert reductions[0][0].shape[0] == len(gammas[0][1]) == len(sels)

    def test_stack_matches_single_selections_exactly(self, m3, m2):
        seeded = oracles.random_ct_model(np.random.default_rng(10), n=10, m=3, n_out=6)
        for model in (m3, m2, seeded):
            sels = enumerate_selections(model)
            for rep, sel in zip(classify_selections(model, sels), sels):
                assert_same_report(rep, classify_selection(model, sel))

    def test_first_inadmissible_selection_named(self, m3):
        sels = enumerate_selections(m3)
        with pytest.raises(InadmissibleSelection, match="out of range"):
            classify_selections(m3, [sels[0], (7,)])
        with pytest.raises(InadmissibleSelection, match="needs m = 1"):
            classify_selections(m3, [sels[0], (0, 1)])
        assert classify_selections(m3, []) == []

    def test_one_check_per_selection(self):
        # m = 3: (0, 0, 1) has the right count and is caught as a repeat
        model = seeded_model()
        first = enumerate_selections(model)[0]
        for rows0, match in (((0, 0, 1), "repeats a row"), ((0, 1), "needs m = 3"),
                             ((0, 1, 6), "out of range"), ((0, 1, -1), "out of range"),
                             ((0, 1, 2.0), "not an integer"), ((0, 1, True), "not an integer")):
            with pytest.raises(InadmissibleSelection, match=match):
                classify_selections(model, [first, rows0])
        np_rows = np.array(first)
        assert classify_selection(model, np_rows).rows0 == first

    def test_ill_conditioned_member_named(self):
        # the second and third rows give a singular C0 B; the first is fine
        model = CtModel(A=[[-1.0, 0.0], [1.0, -2.0]], B=[[1.0], [0.0]],
                        C=[[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        sels = [(0,), (1,), (2,)]
        with pytest.raises(InadmissibleSelection, match=r"rows \(1,\)"):
            classify_selections(model, sels)


class TestDependentRows:
    """Driven rows that are combinations of driving rows make C1 V
    roundoff; the observability cutoff comes from ||C1||, so the relation
    is the constant it is, of degree 0."""

    @pytest.mark.parametrize("seed", range(5))
    def test_repeated_row_gives_a_constant(self, seed):
        # C = [c; 2c]: F is 2 for rows0 = (0,) and 0.5 for rows0 = (1,)
        model = dependent_rows_model(np.random.default_rng(seed), 4, np.array([[2.0]]),
                                     np.ones(2))
        reps = classify_selections(model, enumerate_selections(model))
        assert [rep.rows0 for rep in reps] == [(0,), (1,)]
        for rep, gain in zip(reps, (2.0, 0.5)):
            assert rep.degree == 0 and rep.stable
            np.testing.assert_allclose(rep.F.D, [[gain]], rtol=1e-12)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), m=st.integers(1, 3),
           extra=st.integers(1, 3))
    def test_combination_rows_give_a_constant(self, seed, n, m, extra):
        m = min(m, n)
        rng = np.random.default_rng(seed)
        mix = rng.normal(size=(extra, m))
        out_scale = np.exp(rng.uniform(-3.0, 3.0, size=m + extra))
        model = dependent_rows_model(rng, n, mix, out_scale)
        rep = classify_selection(model, tuple(range(m)))
        assert rep.degree == 0 and rep.stable
        want = out_scale[m:, None] * mix / out_scale[:m]
        np.testing.assert_allclose(rep.F.D, want, rtol=1e-8, atol=1e-8 * np.abs(want).max())


class TestChannelOrder:
    """Listing the outputs in another order relabels the selections and
    changes no verdict. For a permutation P of C0's rows, K = B (P C0 B)^-1
    P = B (C0 B)^-1, so Gamma is the same matrix, and F becomes P1 F P0'.
    So ``stable`` and ``degree`` are equal, and the poles and Gamma's
    spectrum agree to roundoff: 1e-7 ||A||_2 is allowed, where 4404
    selections of 800 random draws moved by 7.5e-10 ||A||_2 at most."""

    @staticmethod
    def by_channels(model):
        """The report of each admissible selection, keyed by the labels
        of its driving rows."""
        reps = classify_selections(model, enumerate_selections(model))
        return {frozenset(model.labels[i] for i in rep.rows0): rep for rep in reps}

    def check(self, model, order):
        labels = [f"y{i}" for i in range(model.n_out)]
        named = validate_ct_model(CtModel(model.A, model.B, model.C, labels=labels))
        permuted = validate_ct_model(CtModel(model.A, model.B, model.C[list(order)],
                                             labels=[labels[i] for i in order]))
        want, got = self.by_channels(named), self.by_channels(permuted)
        assert got.keys() == want.keys()
        tol = 1e-7 * max(1.0, model.a_norm)
        for key, rep in got.items():
            ref = want[key]
            assert rep.stable == ref.stable and rep.degree == ref.degree
            assert oracles.match_gap(rep.poles, ref.poles) < tol
            assert oracles.match_gap(rep.gamma_eigs, ref.gamma_eigs) < tol
        first = stable_selection_exists(permuted)
        assert (first is None) == (stable_selection_exists(named) is None)
        if first is not None:
            assert want[frozenset(permuted.labels[i] for i in first.rows0)].stable

    @pytest.mark.parametrize("name", ["m3", "m2"])
    def test_golden_models_every_order(self, request, name):
        model = request.getfixturevalue(name)
        for order in itertools.permutations(range(model.n_out)):
            self.check(model, order)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), m=st.integers(1, 3),
           extra=st.integers(0, 3))
    def test_random_models(self, seed, n, m, extra):
        rng = np.random.default_rng(seed)
        m = min(m, n)
        model = oracles.random_ct_model(rng, n=n, m=m, n_out=m + extra)
        self.check(model, tuple(rng.permutation(model.n_out).tolist()))


class TestScaling:
    """Output scaling C -> diag(d) C and time rescaling (A, B) -> (cA, sqrt(c) B)
    keep the selections and the verdicts. With D0 the scaling of C0,
    K = B (D0 C0 B)^-1 D0 = B (C0 B)^-1, so F's poles and Gamma do not move
    under output scaling; under time rescaling K is unchanged and both scale
    by c. ``stable`` and ``degree`` are equal, and poles and Gamma's spectrum
    agree to 1e-7 ||A||_2 after dividing by c, where 2400 scalings of 800
    random draws moved them by 9.8e-10 ||A||_2 at most.

    ``stability_margin`` is absolute (1e-9), so c = 1e-3 could move a pole
    within 1e-6 of the axis across it: a draw with a pole of A or of any
    relation that close is not used. None of those 800 draws had one."""

    @staticmethod
    def near_axis(model):
        reps = classify_selections(model, enumerate_selections(model))
        p = np.concatenate([model.eigenvalues, *(rep.poles for rep in reps)])
        return bool(np.abs(p.real).min() < 1e-6)

    def check(self, model, scaled, c=1.0):
        sels = enumerate_selections(model)
        assert enumerate_selections(scaled) == sels
        tol = 1e-7 * max(1.0, model.a_norm)
        for rep, ref in zip(classify_selections(scaled, sels), classify_selections(model, sels)):
            assert rep.stable == ref.stable and rep.degree == ref.degree
            assert oracles.match_gap(rep.poles / c, ref.poles) < tol
            assert oracles.match_gap(rep.gamma_eigs / c, ref.gamma_eigs) < tol
        first, want = stable_selection_exists(scaled), stable_selection_exists(model)
        assert (first and first.rows0) == (want and want.rows0)

    @staticmethod
    def output_scaled(model, rng):
        d = 10 ** rng.uniform(-2, 2, size=model.n_out)  # log-uniform in [1e-2, 1e2]
        return validate_ct_model(CtModel(model.A, model.B, d[:, None] * model.C,
                                         labels=model.labels))

    @staticmethod
    def time_rescaled(model, c):
        return validate_ct_model(CtModel(c * model.A, np.sqrt(c) * model.B, model.C,
                                         labels=model.labels))

    @pytest.mark.parametrize("name", ["m3", "m2"])
    def test_golden_models(self, request, name):
        model = request.getfixturevalue(name)
        assert not self.near_axis(model)
        rng = np.random.default_rng(7)
        for _ in range(5):
            self.check(model, self.output_scaled(model, rng))
        for c in (1e-3, 1e3):
            self.check(model, self.time_rescaled(model, c), c)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), m=st.integers(1, 3),
           extra=st.integers(0, 3))
    def test_random_models(self, seed, n, m, extra):
        rng = np.random.default_rng(seed)
        model = oracles.random_ct_model(rng, n=n, m=min(m, n), n_out=min(m, n) + extra)
        assume(not self.near_axis(model))
        self.check(model, self.output_scaled(model, rng))
        for c in (1e-3, 1e3):
            self.check(model, self.time_rescaled(model, c), c)


class TestStateBasis:
    """A change of state basis (A, B, C) -> (T A T^-1, T B, C T^-1) keeps
    the selections and the verdicts, for a random orthogonal T and for a
    state scaling T = diag(d), d log-uniform in [1e-1, 1e1]: it moves F's
    realization by T and Gamma by a similarity, so F's poles and Gamma's
    spectrum do not move. They agree to 1e-7 ||A||_2, where 400 random
    draws (n = 2 to 6) moved them by 4.4e-10 ||A||_2 (orthogonal) and
    9.1e-11 ||A||_2 (diagonal) at most. Wider scalings are not used: at
    diag(1, 1e3, 1e6) validation refuses the golden three-state model as
    ``NotReachable``, which ROADMAP item 6 holds open."""

    @staticmethod
    def changed_bases(model, rng):
        """The model in a random orthogonal basis and in a random scaled one."""
        for ss in oracles.changed_bases(model, rng):
            yield validate_ct_model(CtModel(ss.A, ss.B, ss.C, labels=model.labels))

    @pytest.mark.parametrize("name", ["m3", "m2"])
    def test_golden_models(self, request, name):
        model = request.getfixturevalue(name)
        rng = np.random.default_rng(11)
        for _ in range(5):
            for changed in self.changed_bases(model, rng):
                TestScaling().check(model, changed)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), m=st.integers(1, 3),
           extra=st.integers(0, 3))
    def test_random_models(self, seed, n, m, extra):
        rng = np.random.default_rng(seed)
        model = oracles.random_ct_model(rng, n=n, m=min(m, n), n_out=min(m, n) + extra)
        # a pole within 1e-6 of the axis could cross the absolute margin
        assume(not TestScaling.near_axis(model))
        for changed in self.changed_bases(model, rng):
            TestScaling().check(model, changed)


class TestStableSelection:
    def test_golden(self, m3, m2):
        assert stable_selection_exists(m3).rows0 == (0,)
        assert stable_selection_exists(m2) is None

    def test_constant_relation_model(self):
        model = constant_relation_model()
        assert stable_selection_exists(model).rows0 == (0,)

    @pytest.mark.parametrize("name", ["model3", "model2", "constant", "seeded"])
    def test_first_stable_report_of_the_stack(self, m3, m2, name):
        model = {"model3": m3, "model2": m2, "constant": constant_relation_model(),
                 "seeded": seeded_model()}[name]
        got = stable_selection_exists(model)
        want = next((rep for rep in classify_selections(model, enumerate_selections(model))
                     if rep.stable), None)
        if want is None:
            assert got is None
        else:
            assert_same_report(got, want)

    def test_stops_at_first_stable_subset(self, m3, monkeypatch):
        # the first of model3's four subsets is stable and is not certified
        # unstable, so it alone is reduced, and nothing after it
        reductions = count_calls(monkeypatch, minimal_realizations)
        condition_tests = count_calls(monkeypatch, is_invertible)
        assert stable_selection_exists(m3).rows0 == (0,)
        assert len(reductions) == 1 and reductions[0][0].shape[0] == 1
        # one batched test of every subset, and no other
        assert [args[0].shape for args in condition_tests] == [(4, 1, 1)]

    def test_no_reduction_when_every_selection_is_certified(self, m2, monkeypatch):
        # both of model2's relations have a real unstable pole that passes
        # the PBH tests, so no staircase runs at all
        reductions = count_calls(monkeypatch, minimal_realizations)
        assert stable_selection_exists(m2) is None
        assert not reductions

    def test_cap_raised_before_any_subset(self, m3, monkeypatch):
        condition_tests = count_calls(monkeypatch, is_invertible)
        monkeypatch.setattr(relation, "SELECTION_CAP", 3)
        with pytest.raises(SelectionLimitExceeded):
            stable_selection_exists(m3)
        assert not condition_tests

    def test_no_admissible_selection(self):
        model = CtModel(A=[[-1.0, 0.0], [1.0, -2.0]], B=[[1.0], [0.0]], C=[[0.0, 1.0]])
        with pytest.raises(NoAdmissibleSelection):
            stable_selection_exists(model)


#: Relative distance, to max(1, |p|), within which every reported pole p
#: must lie from an invariant zero. The largest seen over 1163 selections
#: (golden, random and bench n = 10 and n = 30 models) was 1.4e-10.
ZERO_RTOL = 1e-8


def invariant_zeros(model, rows0):
    """Invariant zeros of the square system (A, B, C0): the finite
    generalized eigenvalues of the Rosenbrock pencil
    ``([[A, B], [C0, 0]], diag(I, 0))`` by QZ (Emami-Naeini & Van Dooren
    1982). With C0 B invertible exactly n - m of them are finite; the
    2m infinite ones form Jordan chains of length two, which roundoff can
    move to about 1/sqrt(eps), so the n - m of smallest modulus are kept."""
    n, m = model.n, model.m
    pencil = np.block([[model.A, model.B], [model.C[list(rows0), :], np.zeros((m, m))]])
    mass = np.zeros((n + m, n + m))
    mass[:n, :n] = np.eye(n)
    alpha, beta = scipy.linalg.eigvals(pencil, mass, homogeneous_eigvals=True)
    keep = np.argsort(np.abs(alpha) / np.maximum(np.abs(beta), 1e-300), kind="stable")[:n - m]
    return alpha[keep] / beta[keep]


class TestInvariantZeroOracle:
    """The poles of each relation F are invariant zeros of (A, B, C0), an
    oracle that shares no code with Gamma or with the staircase."""

    def check(self, model):
        """Check every selection of ``model``; return their reports."""
        margin = DEFAULT_TOL.stability_margin
        n, m = model.n, model.m
        reps = classify_selections(model, enumerate_selections(model))
        for rep in reps:
            zeros = invariant_zeros(model, rep.rows0)
            assert rep.degree <= n - m
            for p in rep.poles:
                assert np.abs(zeros - p).min() <= ZERO_RTOL * max(1.0, abs(p))
            if rep.degree == zeros.size:  # no zero cancels
                assert rep.stable == bool(zeros.size == 0 or zeros.real.max() < -margin)
            # Gamma = V W: m exact zeros and the zero dynamics, which are the
            # poles themselves when the staircase keeps every state
            g = rep.gamma_eigs
            assert np.array_equal(np.lexsort((g.imag, g.real)), np.arange(n))  # sorted
            exact = np.flatnonzero(g == 0)
            assert exact.size >= m
            rest = np.delete(g, exact[:m])
            for z in rest:
                assert np.abs(zeros - z).min() <= ZERO_RTOL * max(1.0, abs(z))
            if rep.degree == n - m:
                assert np.array_equal(rest, rep.poles)
        return reps

    def test_golden(self, m3, m2):
        for model in (m3, m2, constant_relation_model()):
            self.check(model)

    @pytest.mark.parametrize("seed", range(3))
    def test_cut_selections(self, seed):
        # driven rows that combine driving rows: every relation is a
        # constant, so the staircase cuts all n - m states
        rng = np.random.default_rng(seed)
        model = dependent_rows_model(rng, 6, rng.normal(size=(2, 2)), np.ones(4))
        reps = self.check(model)
        assert [rep.degree for rep in reps if rep.rows0 == (0, 1)] == [0]

    def test_as_many_shocks_as_states(self):
        # m = n: V is empty, so Gamma and its spectrum are exactly zero
        model = oracles.random_ct_model(np.random.default_rng(4), n=3, m=3, n_out=5)
        for rep in self.check(model):
            assert rep.degree == 0
            assert not rep.gamma.any() and not rep.gamma_eigs.any()
            assert rep.gamma_eigs.shape == (3,)

    def test_bench_size(self):
        # n = 30, m = 3 and nine outputs, 84 selections: the size of the
        # models in the benchmark's relations workload
        self.check(oracles.random_ct_model(np.random.default_rng(30), n=30, m=3, n_out=9))

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), m=st.integers(1, 3),
           extra=st.integers(0, 2))
    def test_random_models(self, seed, n, m, extra):
        m = min(m, n)
        self.check(oracles.random_ct_model(np.random.default_rng(seed), n=n, m=m,
                                           n_out=m + extra))


def filtered_input_model(model, z, p=1.0):
    """``model`` behind the filter (s - z) / (s + p) on every shock
    channel. Every output gains the zero z and every relation F cancels
    it, so z is an eigenvalue of each selection's zero dynamics that C~
    does not observe."""
    n, m = model.n, model.m
    a = np.block([[model.A, -(p + z) * model.B], [np.zeros((m, n)), -p * np.eye(m)]])
    b = np.vstack([model.B, np.eye(m)])
    c = np.hstack([model.C, np.zeros((model.n_out, m))])
    return CtModel(A=a, B=b, C=c)


def hidden_mode_model(model, z, rng):
    """``model`` with one more state, of eigenvalue z, that every output
    sees and no shock reaches: z is an eigenvalue of each selection's
    zero dynamics that B~ does not reach. A is no longer Hurwitz, so the
    model is assembled without validation."""
    a = scipy.linalg.block_diag(model.A, [[z]])
    b = np.vstack([model.B, np.zeros((1, model.m))])
    c = np.hstack([model.C, rng.normal(size=(model.n_out, 1))])
    return CtModel(A=a, B=b, C=c)


def filtered_rows_model(model, rows, zeros, p=1.0):
    """``model`` with output ``rows[i]`` filtered through
    (s - zeros[i]) / (s + p): a selection that drives through that row
    inverts the filter, so its zero dynamics gain the eigenvalue
    zeros[i]."""
    n, k = model.n, len(rows)
    a = np.block([[model.A, np.zeros((n, k))], [model.C[rows], -p * np.eye(k)]])
    b = np.vstack([model.B, np.zeros((k, model.m))])
    c = np.hstack([model.C, np.zeros((model.n_out, k))])
    c[rows, n:] = -np.diag(p + np.asarray(zeros))
    return CtModel(A=a, B=b, C=c)


def certificates(model, sels):
    """The unstable certificate of every selection in ``sels``."""
    return relation._certified_unstable(model, relation._realizations(model, sels),
                                        DEFAULT_TOL)


@st.composite
def certificate_models(draw):
    """Random validated models, and the same behind a cancelled unstable
    zero (unobservable or unreachable in the zero dynamics), or with
    outputs filtered so that some zero dynamics have an eigenvalue within
    a few ulps of ``-stability_margin``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, min(n, 3)))
    model = oracles.random_ct_model(rng, n=n, m=m, n_out=m + draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(["plain", "unobservable", "unreachable", "margin"]))
    z = draw(st.floats(0.0, 3.0))
    if kind == "unobservable":
        return filtered_input_model(model, z)
    if kind == "unreachable":
        return hidden_mode_model(model, z, rng)
    if kind == "margin":
        margin = DEFAULT_TOL.stability_margin
        rows = draw(st.lists(st.integers(0, model.n_out - 1), min_size=1, max_size=2,
                             unique=True))
        ulps = draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
        return filtered_rows_model(model, rows, -margin + np.spacing(margin) * np.array(ulps))
    return model


class TestUnstableCertificate:
    """``stable_selection_exists`` skips the staircase only on selections
    certified unstable from their zero dynamics."""

    def test_zero_dynamics_realize_F(self, m3, m2, rng):
        # F = C1 K + C1 V (sI - Gamma11)^{-1} W K agrees with the n-state
        # realization on Gamma, and eig(Gamma11) are the invariant zeros
        s = 1j * np.logspace(-1, 1, 7)
        for model in (m3, m2, oracles.random_ct_model(rng, n=6, m=2, n_out=5)):
            sels = enumerate_selections(model)
            raw = relation._realizations(model, sels)
            for i, sel in enumerate(sels):
                zd = StateSpace(raw.a[i], raw.b[i], raw.c[i], raw.d[i])
                want = oracles.gamma_realization(model, sel)
                np.testing.assert_allclose(freq_response(zd, s), freq_response(want, s),
                                           atol=1e-9)
                zeros = invariant_zeros(model, sel)
                assert oracles.match_gap(np.linalg.eigvals(raw.a[i]), zeros) < 1e-8

    def test_free_of_units(self):
        # the certificates do not move when the time unit or a common unit
        # of the outputs or of the inputs changes
        model = seeded_model()
        sels = enumerate_selections(model)
        want = certificates(model, sels)
        assert want[:2].all() and not want[2]
        for a, b, c in ((1e3, np.sqrt(1e3), 1.0), (1e-3, np.sqrt(1e-3), 1.0),
                        (1.0, 1.0, 1e6), (1.0, 1.0, 1e-6), (1.0, 1e-6, 1.0)):
            scaled = CtModel(A=a * model.A, B=b * model.B, C=c * model.C)
            np.testing.assert_array_equal(certificates(scaled, sels), want)

    @pytest.mark.parametrize("kind", ["unobservable", "unreachable"])
    def test_cancelled_unstable_zero_falls_through(self, m3, kind):
        # model3's first relation keeps its stable poles -1 and -2; its zero
        # dynamics gain the cancelled zero 0.5, which must not certify it
        model = (filtered_input_model(m3, 0.5) if kind == "unobservable"
                 else hidden_mode_model(m3, 0.5, np.random.default_rng(0)))
        sels = enumerate_selections(model)
        g11 = relation._realizations(model, sels).a
        assert oracles.match_gap(np.linalg.eigvals(g11[0]), [-1.0, -2.0, 0.5]) < 1e-8
        assert not certificates(model, sels)[0]
        got = stable_selection_exists(model)
        assert got.rows0 == (0,) and oracles.match_gap(got.poles, [-1.0, -2.0]) < 1e-8
        assert_same_report(got, classify_selection(model, sels[0]))

    def test_zero_at_the_margin_falls_through(self, m3):
        # row 0 filtered with its zero on -stability_margin: the relation of
        # the first selection gains that pole, which only the staircase decides
        margin = DEFAULT_TOL.stability_margin
        model = filtered_rows_model(m3, [0], [-margin])
        sels = enumerate_selections(model)
        assert not certificates(model, sels)[0]
        assert_same_report(stable_selection_exists(model),
                           next(rep for rep in classify_selections(model, sels) if rep.stable))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(model=certificate_models())
    def test_certified_selections_are_unstable(self, model):
        sels = enumerate_selections(model)
        reps = classify_selections(model, sels)
        for certified, rep in zip(certificates(model, sels), reps):
            assert not (certified and rep.stable), rep.rows0
        want = next((rep for rep in reps if rep.stable), None)
        got = stable_selection_exists(model)
        assert (got is None) == (want is None)
        if want is not None:
            assert_same_report(got, want)


class TestSpectrumConsistency:
    def test_f_matches_spectrum_everywhere(self, m3, m2):
        for model in (m3, m2):
            for sel in enumerate_selections(model):
                w = np.logspace(-2, 2, 50)
                want = f_from_spectrum(model, sel, w)
                gap = np.abs(freq_response(relation_F(model, sel), 1j * w) - want).max()
                assert gap < 1e-6

    def test_random_models(self, rng):
        for _ in range(5):
            model = oracles.random_ct_model(rng, n=4, m=2, n_out=3)
            for sel in enumerate_selections(model)[:2]:
                w = np.logspace(-1, 1, 10)
                want = f_from_spectrum(model, sel, w)
                gap = np.abs(freq_response(relation_F(model, sel), 1j * w) - want).max()
                assert gap < 1e-6
