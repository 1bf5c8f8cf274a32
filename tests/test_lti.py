import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import systems
from conftest import count_calls
from oracles import DNotInvertible, evaluation_gap, probe_points, ss_inverse
from dynrel.errors import (
    BColumnDeficient,
    DimensionMismatch,
    NotObservable,
    NotReachable,
    NotStable,
    ParseError,
    PoleHit,
    RankCBDeficient,
)
from dynrel.kernels import POLE_COND_LIMIT, is_invertible, norm2, sorted_eigvals
from dynrel import lti
from dynrel.lti import (
    CtModel,
    StateSpace,
    freq_response,
    is_strictly_stable,
    minimal_realization,
    minimal_realizations,
    poles,
    validate_ct_model,
)
from dynrel.relation import classify_selection, enumerate_selections
from dynrel.spectral import default_grid


def first_relation(model):
    """Minimal realization of the relation F of the first selection."""
    return classify_selection(model, enumerate_selections(model)[0]).F


def f3_first_min():
    return StateSpace(systems.F3_MIN_A, systems.F3_MIN_B, systems.F3_MIN_C, systems.F3_MIN_D)


class TestStateSpace:
    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch, match=r"^B: expected 2 rows, got 3$"):
            StateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)))
        with pytest.raises(DimensionMismatch, match=r"^C: expected 2 columns, got 3$"):
            StateSpace(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)))
        with pytest.raises(DimensionMismatch, match=r"^D: expected 1 rows, got 2$"):
            StateSpace(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)),
                       np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch, match=r"^D: expected 1 columns, got 2$"):
            StateSpace(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)),
                       np.zeros((1, 2)))
        with pytest.raises(DimensionMismatch, match=r"^A: expected 2 columns, got 3$"):
            CtModel(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)))

    def test_default_feedthrough(self):
        ss = StateSpace(np.eye(2) * -1, np.ones((2, 1)), np.ones((3, 2)))
        assert ss.D.shape == (3, 1)
        assert not ss.D.any()

    def test_constant(self):
        ss = systems.constant([[2.0, 1.0]])
        assert ss.n == 0 and ss.n_out == 1 and ss.n_in == 2

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            StateSpace([[np.nan]], [[1.0]], [[1.0]])


class TestTfEval:
    """Transfer-function values at a single point."""

    def test_constant_system(self):
        d = np.array([[3.0, -1.0]])
        np.testing.assert_allclose(freq_response(systems.constant(d), [1j])[0].real, d)

    def test_golden_dc_gain(self, m3):
        want = -m3.C @ np.linalg.solve(m3.A, m3.B)
        np.testing.assert_allclose(freq_response(m3, [0.0])[0], want, rtol=1e-12)

    def test_scalar_lag(self):
        ss = StateSpace([[-1.0]], [[1.0]], [[1.0]])
        got = freq_response(ss, [1j])[0]
        np.testing.assert_allclose(got, [[1.0 / (1.0 + 1j)]], rtol=1e-14)

    def test_pole_hit(self):
        ss = StateSpace([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(PoleHit):
            freq_response(ss, [-1.0])


class TestFreqResponse:
    def test_golden_relations_on_grid(self, m3, m2):
        s = 1j * np.logspace(-3, 3, 200)
        for model, closed_form in ((m3, systems.f3_first), (m2, systems.f2_first)):
            f = first_relation(model)
            want = np.array([closed_form(x) for x in s])
            np.testing.assert_allclose(freq_response(f, s), want, atol=1e-8)

    def test_matches_pointwise_solve(self, rng):
        # kappa2(V) about 1e6: every point is certified, but the modal
        # form is gated out, so every point takes the batched LU solve
        ss = oracles.random_stable_ss(rng, 3, 2, n=5)
        a = oracles.near_defective(rng, [-1.0, -1.0, -2.0, -3.0, -0.5], 1e-6)
        ss = StateSpace(a, ss.B, ss.C, ss.D)
        assert np.linalg.cond(np.linalg.eig(a)[1]) > lti._MODAL_COND_LIMIT
        s = np.concatenate([1j * np.logspace(-2, 2, 30), probe_points()])
        # the same arithmetic point by point, so the same bits
        np.testing.assert_array_equal(freq_response(ss, s), oracles.pointwise_response(ss, s))

    def test_certified_grid_takes_no_lu(self, monkeypatch, rng):
        # well-conditioned V and a certified grid: the modal form at every
        # point, with one 2-d solve (V^{-1} B) and no pole test
        g = rng.normal(size=(10, 10))
        a = 0.5 * g / np.abs(np.linalg.eigvals(g)).max() - np.eye(10)
        ss = StateSpace(a, rng.normal(size=(10, 2)), rng.normal(size=(3, 10)))
        assert np.linalg.cond(np.linalg.eig(a)[1]) < lti._MODAL_COND_LIMIT
        solves = []
        solve = np.linalg.solve

        def counting(m, *args, **kwargs):
            solves.append(np.ndim(m))
            return solve(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting)
        calls = count_calls(monkeypatch, is_invertible)
        s = 1j * default_grid()
        got = freq_response(ss, s)
        assert calls == [] and solves == [2]
        want = oracles.pointwise_response(ss, s)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_uncertified_points_take_the_lu_path(self, rng):
        # kappa2(V) is small, so 1j is evaluated in modal form; the points
        # next to two poles are not certified, pass the pole test and are
        # solved by LU. There the two routes differ well above roundoff.
        a = oracles.hurwitz(rng, 4)
        lam = np.linalg.eigvals(a)
        ss = StateSpace(a, rng.normal(size=(4, 2)), rng.normal(size=(3, 4)))
        s = np.array([1j, lam[0] + 1e-11, lam[-1] - 1e-10j])
        got = freq_response(ss, s)
        want = oracles.pointwise_response(ss, s)
        np.testing.assert_array_equal(got[1:], want[1:])
        np.testing.assert_allclose(got[0], want[0], rtol=1e-13)

    def test_constant_system_shape(self):
        d = np.array([[3.0, -1.0], [0.5, 2.0], [1.0, 0.0]])
        got = freq_response(systems.constant(d), 1j * np.arange(1.0, 8.0))
        assert got.shape == (7, 3, 2) and got.dtype == np.complex128
        np.testing.assert_array_equal(got, np.broadcast_to(d, (7, 3, 2)))

    def test_pole_on_grid_named(self):
        ss = StateSpace(np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(PoleHit, match=re.escape(f"{complex(-2.0):.6g} is")):
            freq_response(ss, [1j, -2.0, 2j, -1.0])

    def test_empty_points(self):
        ss = StateSpace([[-1.0]], [[1.0]], [[1.0]])
        assert freq_response(ss, []).shape == (0, 1, 1)
        assert evaluation_gap(ss, systems.zero(1, 1), points=[]) == 0.0

    def test_certified_grid_takes_no_svd(self, monkeypatch, rng):
        # non-normal, spectrum in the disc of radius 0.5 around -1
        g = rng.normal(size=(10, 10))
        a = 0.5 * g / np.abs(np.linalg.eigvals(g)).max() - np.eye(10)
        ss = StateSpace(a, rng.normal(size=(10, 2)), rng.normal(size=(3, 10)))
        calls = count_calls(monkeypatch, is_invertible)
        assert freq_response(ss, 1j * default_grid()).shape == (200, 3, 2)
        assert calls == []

    def test_svd_only_at_uncertified_points(self, monkeypatch):
        a = np.diag([-1.0, -2.0])
        ss = StateSpace(a, np.ones((2, 1)), np.ones((1, 2)))
        near = np.array([-1.0 + 1e-11, -2.0 - 1e-10j])
        s = np.concatenate([1j * np.logspace(-2, 2, 5), near[:1], [3j], near[1:]])
        calls = count_calls(monkeypatch, is_invertible)
        freq_response(ss, s)
        assert len(calls) == 1
        stack, limit = calls[0]
        assert stack.shape == (2, 2, 2) and limit == POLE_COND_LIMIT
        np.testing.assert_array_equal(stack, near[:, None, None] * np.eye(2) - a)

    def test_jordan_block_near_pole_named(self, monkeypatch):
        # kappa(V) is about 1e16 for a Jordan block: no point certifies,
        # so the whole stack goes to the SVD and the first hit is named
        ss = StateSpace([[1.0, 1.0], [0.0, 1.0]], np.eye(2), np.eye(2))
        s = [2j, 1.0 + 1e-15j, 3j, 1.0 - 1e-15]
        calls = count_calls(monkeypatch, is_invertible)
        with pytest.raises(PoleHit, match=re.escape(f"{complex(s[1]):.6g} is")):
            freq_response(ss, s)
        assert [c[0].shape for c in calls] == [(4, 2, 2)]

    def test_ill_conditioned_point_reaches_svd_and_passes(self, monkeypatch):
        a = np.array([[-1.0, 1.0], [0.0, -2.0]])
        ss = StateSpace(a, np.ones((2, 1)), np.ones((1, 2)))
        s = -1.0 + 1e-11
        assert 1e10 < np.linalg.cond(s * np.eye(2) - a) < POLE_COND_LIMIT
        calls = count_calls(monkeypatch, is_invertible)
        got = freq_response(ss, [1j, s])
        assert [c[0].shape for c in calls] == [(1, 2, 2)]
        assert np.all(np.isfinite(got))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           kind=st.sampled_from(["normal", "non-normal", "near-defective"]),
           scale=st.sampled_from([1e-3, 1.0, 1e3]),
           near=st.lists(st.integers(-16, -2), max_size=6), on=st.integers(0, 2))
    def test_pole_verdict_matches_svd_rule(self, seed, n, kind, scale, near, on):
        """freq_response raises PoleHit exactly when the SVD rule at every
        point finds a hit, and names the same first point. A is real; its
        eigenvalues, and so the points near them, are complex."""
        rng = np.random.default_rng(seed)

        def draw(*shape):
            return rng.normal(size=shape)

        if kind == "normal":
            q = np.linalg.qr(draw(n, n))[0]
            a = q @ np.diag(draw(n)) @ q.T
        elif kind == "non-normal":
            a = draw(n, n)
        else:
            # a Jordan block, slightly perturbed, in a random basis
            jordan = draw(1)[0] * np.eye(n) + np.eye(n, k=1)
            t = draw(n, n) + n * np.eye(n)
            eps = 10.0 ** rng.uniform(-16, -6) * rng.integers(0, 2)
            a = np.linalg.solve(t, (jordan + eps * draw(n, n)) @ t)
        a = scale * a
        lam = np.linalg.eigvals(a)
        picks = lam[rng.integers(0, n, size=len(near) + on)]
        angles = 2j * np.pi * rng.uniform(size=len(near))
        offsets = 10.0 ** np.array(near, dtype=float) * np.exp(angles)
        s = np.concatenate([1j * scale * np.logspace(-2, 2, 8),
                            picks[:len(near)] + scale * offsets, picks[len(near):]])
        s = s[rng.permutation(s.size)]
        ss = StateSpace(a, draw(n, 2), draw(1, n))

        f = np.empty((s.size, n, n), dtype=np.complex128)
        f[:] = -a
        f[:, np.arange(n), np.arange(n)] += s[:, None]
        hit = ~is_invertible(f, POLE_COND_LIMIT)
        if hit.any():
            want = f"evaluation point {complex(s[hit.argmax()]):.6g} is numerically a pole"
            with pytest.raises(PoleHit) as exc:
                freq_response(ss, s)
            assert str(exc.value) == want
        else:
            assert freq_response(ss, s).shape == (s.size, 1, 2)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           kind=st.sampled_from(["real", "repeated", "identity", "near-defective"]),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), feedthrough=st.booleans())
    def test_modal_form_matches_pointwise_solve(self, seed, n, kind, scale, feedthrough):
        """Where kappa2(V) passes the gate, the modal form agrees with a
        pointwise LU solve to 1e-12 of ``||C|| ||(sI - A)^{-1}|| ||B|| + ||D||``,
        the scale of both routes' rounding errors; where it fails the gate,
        the values are the LU bits. The points stay 0.1 * scale away from
        every eigenvalue: nearer a pole both routes lose accuracy in
        proportion to ||A|| / gap, and neither is a reference there."""
        rng = np.random.default_rng(seed)
        if kind == "real":  # complex-conjugate pairs
            a = rng.normal(size=(n, n))
        elif kind == "identity":
            a = -np.eye(n)
        elif kind == "repeated":  # diagonalizable, in a random basis
            lam = rng.normal(size=n)
            lam[:n // 2 + 1] = lam[0]
            a = oracles.in_random_basis(rng, np.diag(lam))
        else:
            a = oracles.near_defective(rng, rng.normal(size=n), 10.0 ** rng.uniform(-5, 0))
        a = scale * a
        lam = np.linalg.eigvals(a)
        angles = np.exp(2j * np.pi * rng.uniform(size=n))
        s = np.concatenate([1j * scale * np.logspace(-2, 2, 8),
                            lam + scale * 10.0 ** rng.uniform(-1, 0, n) * angles])
        s = s[np.abs(s[:, None] - lam).min(axis=1) >= 0.1 * scale]
        ss = StateSpace(a, rng.normal(size=(n, 2)), rng.normal(size=(3, n)),
                        rng.normal(size=(3, 2)) if feedthrough else None)
        got = freq_response(ss, s)
        want = oracles.pointwise_response(ss, s)
        if np.linalg.cond(np.linalg.eig(a)[1]) > lti._MODAL_COND_LIMIT:
            np.testing.assert_array_equal(got, want)
            return
        size = np.array([np.linalg.norm(np.linalg.inv(x * np.eye(n) - a), 2) for x in s])
        size = size * np.linalg.norm(ss.C, 2) * np.linalg.norm(ss.B, 2) + np.linalg.norm(ss.D, 2)
        err = np.linalg.norm(got - want, 2, axis=(1, 2))
        assert np.all(err <= 1e-12 * size)


def reach_reducing_system(rng):
    """Three states behind a random rotation, the last one unreachable:
    the reachable part V'AV has ||V'AV||_2 = 2.29 against ||A||_2 = 10,
    and its observable pass has a grown block."""
    a = np.array([[-1.0, 1.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -10.0]])
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return q @ a @ q.T, q @ [[0.0], [1.0], [0.0]], np.array([[1.0, 0.0, 1.0]]) @ q.T


class TestMinimalRealization:
    def test_golden_reduction(self, m3):
        raw = oracles.gamma_realization(m3, enumerate_selections(m3)[0])
        assert raw.n == 3
        reduced = minimal_realization(raw)
        assert reduced.n == 2
        assert evaluation_gap(reduced, f3_first_min()) < 1e-8
        assert evaluation_gap(reduced, raw) < 1e-8

    def test_golden_reduction_second_model(self, m2):
        raw = oracles.gamma_realization(m2, enumerate_selections(m2)[0])
        assert raw.n == 2
        reduced = minimal_realization(raw)
        assert reduced.n == 1
        assert abs(poles(reduced)[0] - 8.0 / 9.0) < 1e-10

    def test_idempotent_on_minimal(self, rng):
        ss = oracles.random_stable_ss(rng, 2, 2, n=4)
        reduced = minimal_realization(ss)
        assert reduced.n == ss.n
        assert evaluation_gap(reduced, ss) < 1e-8

    def test_strips_unreachable_and_unobservable(self, rng):
        core = oracles.random_stable_ss(rng, 2, 1, n=3)
        pad = oracles.hurwitz(rng, 2)
        a = np.block([[core.A, np.zeros((3, 2))], [np.zeros((2, 3)), pad]])
        b = np.vstack([core.B, np.zeros((2, 1))])
        c = np.hstack([core.C, rng.normal(size=(2, 2))])
        big = StateSpace(a, b, c, core.D)
        reduced = minimal_realization(big)
        assert reduced.n == 3
        assert evaluation_gap(reduced, big) < 1e-8

    def test_random_equivalence(self, rng):
        for _ in range(25):
            ss = oracles.random_stable_ss(rng, int(rng.integers(1, 4)),
                                          int(rng.integers(1, 4)),
                                          n=int(rng.integers(1, 9)))
            assert evaluation_gap(minimal_realization(ss), ss) < 1e-8

    def test_grown_blocks_cut_at_the_unreduced_a(self, rng, monkeypatch):
        a, b, c = reach_reducing_system(rng)
        orth = lti._orth
        calls = []

        def recording(m, dim, scale, tol):
            calls.append((m.shape[-2], scale.copy()))
            return orth(m, dim, scale, tol)

        monkeypatch.setattr(lti, "_orth", recording)
        f = minimal_realization(StateSpace(a, b, c))
        assert f.n == 2
        assert norm2(f.A[None])[0] < 0.3 * norm2(a[None])[0]  # ||V'AV||_2 < ||A||_2
        grown = [scale for rows, scale in calls if rows == 2][1:]  # observable pass
        assert grown and all(np.array_equal(s, norm2(a[None])) for s in grown)


def hidden_state_system(rng, n, hidden_in, hidden_out, rank_b=2):
    """Random n-state system with two inputs and two outputs whose last
    ``hidden_in`` states are unreachable and whose first ``hidden_out``
    states are unobservable, behind a random orthogonal change of basis;
    B has rank ``rank_b``. The McMillan degree is n - hidden_in - hidden_out."""
    o, u = hidden_out, hidden_in
    a = oracles.hurwitz(rng, n)
    a[o:, :o] = 0.0          # x1 (unobservable) drives nothing downstream
    a[n - u:, :n - u] = 0.0  # x3 (unreachable) is driven by nothing
    b = rng.normal(size=(n, 2))
    b[n - u:] = 0.0
    b[:, rank_b:] = 0.0
    c = rng.normal(size=(2, n))
    c[:, :o] = 0.0
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return q @ a @ q.T, q @ b, c @ q.T


class TestMinimalRealizationStack:
    # (unreachable, unobservable, rank of B) per member: the members go
    # through different rank profiles, so the lockstep staircase splits
    PROFILES = [(0, 0, 2), (1, 0, 2), (2, 0, 2), (0, 1, 2), (0, 2, 2), (1, 1, 2),
                (0, 0, 1), (2, 1, 1), (0, 0, 2)]

    def stack(self, rng, n=6):
        members = [hidden_state_system(rng, n, u, o, r) for u, o, r in self.PROFILES]
        a, b, c = (np.stack(x) for x in zip(*members))
        return a, b, c, 0.1 * rng.normal(size=(len(members), 2, 2))

    def test_members_match_single_reductions_exactly(self, rng):
        a, b, c, d = self.stack(rng)
        got = minimal_realizations(a, b, c, d, norm2(b), norm2(c))
        assert len({f.n for f in got}) > 2
        for i, f in enumerate(got):
            alone = minimal_realization(StateSpace(a[i], b[i], c[i], d[i]))
            for name in "ABCD":
                x, y = getattr(f, name), getattr(alone, name)
                assert x.shape == y.shape and np.all(x == y), (i, name)

    def test_degrees_follow_the_hidden_states(self, rng):
        a, b, c, d = self.stack(rng)
        got = minimal_realizations(a, b, c, d, norm2(b), norm2(c))
        for i, ((u, o, _), f) in enumerate(zip(self.PROFILES, got)):
            assert f.n == 6 - u - o
            assert evaluation_gap(f, StateSpace(a[i], b[i], c[i], d[i])) < 1e-8

    def test_one_svd_per_step_for_an_even_stack(self, rng, monkeypatch):
        # members with one rank profile stay one stack: each SVD sees all
        # of them, and there are no more SVDs than for one member alone
        members = [hidden_state_system(rng, 5, 1, 1) for _ in range(4)]
        a, b, c = (np.stack(x) for x in zip(*members))
        d = np.zeros((4, 2, 2))
        b_scale, c_scale = norm2(b), norm2(c)
        svds = []
        svd = np.linalg.svd

        def counting(m, *args, **kwargs):
            svds.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        minimal_realizations(a[:1], b[:1], c[:1], d[:1], b_scale[:1], c_scale[:1])
        alone = len(svds)
        svds.clear()
        minimal_realizations(a, b, c, d, b_scale, c_scale)
        assert len(svds) == alone
        assert all(shape[0] == 4 for shape in svds)

    def test_one_norm_of_a_per_stack(self, rng, monkeypatch):
        # members of different rank profiles split into groups, but both
        # passes of every group cut their grown blocks at the stack's one ||a||_2
        a, b, c, d = self.stack(rng)
        b_scale, c_scale = norm2(b), norm2(c)
        norms = count_calls(monkeypatch, norm2)
        minimal_realizations(a, b, c, d, b_scale, c_scale)
        assert len(norms) == 1 and norms[0][0] is a


class TestPolesAndDegree:
    def test_golden_first_selection(self, m3):
        f = first_relation(m3)
        assert oracles.match_gap(poles(f), [-2.0, -1.0]) < 1e-8
        assert minimal_realization(f).n == 2

    def test_golden_second_model(self, m2):
        sels = enumerate_selections(m2)
        assert oracles.match_gap(poles(classify_selection(m2, sels[0]).F), [8.0 / 9.0]) < 1e-8
        assert minimal_realization(classify_selection(m2, sels[1]).F).n == 1

    def test_constant_has_no_poles(self):
        assert poles(systems.constant([[5.0]])).size == 0
        assert minimal_realization(systems.constant([[5.0]])).n == 0


class TestStability:
    def test_golden(self, m3, m2):
        assert is_strictly_stable(first_relation(m3))
        assert not is_strictly_stable(first_relation(m2))

    def test_constant_is_stable(self):
        assert is_strictly_stable(systems.constant([[1.0]]))

    def test_model_poles_respect_margin(self, rng):
        for _ in range(10):
            model = oracles.random_ct_model(rng)
            assert is_strictly_stable(model)


class TestSsInverse:
    def test_scalar(self):
        ss = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]])  # (s+2)/(s+1)
        inv = ss_inverse(ss)
        np.testing.assert_allclose(inv.A, [[-2.0]])
        np.testing.assert_allclose(inv.B, [[1.0]])
        np.testing.assert_allclose(inv.C, [[-1.0]])
        np.testing.assert_allclose(inv.D, [[1.0]])

    def test_golden_m_inverse(self, m3):
        c0 = systems.C3[0:1, :]
        c0b = c0 @ systems.B3
        m_sys = StateSpace(systems.A3, systems.B3, c0 @ systems.A3, c0b)
        inv = ss_inverse(m_sys)
        k = systems.B3 @ np.linalg.inv(c0b)
        np.testing.assert_allclose(inv.A, systems.A3 - k @ c0 @ systems.A3, atol=1e-12)
        np.testing.assert_allclose(inv.B, k, atol=1e-12)
        np.testing.assert_allclose(inv.C, -np.linalg.inv(c0b) @ c0 @ systems.A3, atol=1e-12)
        np.testing.assert_allclose(inv.D, np.linalg.inv(c0b), atol=1e-12)
        prod = freq_response(m_sys, probe_points()) @ freq_response(inv, probe_points())
        assert np.abs(prod - np.eye(1)).max() < 1e-8

    def test_identity_feedthrough_no_dynamics(self):
        ss = StateSpace([[-1.0]], [[0.0]], [[1.0]], [[1.0]])
        inv = ss_inverse(ss)
        np.testing.assert_allclose(inv.D, [[1.0]])
        np.testing.assert_allclose(freq_response(inv, probe_points()[:5]), np.ones((5, 1, 1)),
                                   atol=1e-12)

    def test_not_invertible(self):
        with pytest.raises(DNotInvertible):
            ss_inverse(StateSpace([[-1.0]], [[1.0]], [[1.0]]))  # D = 0
        with pytest.raises(DNotInvertible):
            ss_inverse(systems.constant([[1.0, 0.0]]))  # non-square

    def test_random_composition(self, rng):
        for _ in range(25):
            n_io = int(rng.integers(1, 4))
            ss = oracles.random_stable_ss(rng, n_io, n_io, n=int(rng.integers(1, 5)))
            ss = StateSpace(ss.A, ss.B, ss.C, ss.D + np.eye(n_io) * rng.uniform(1.0, 2.0))
            inv = ss_inverse(ss)
            s = probe_points()[:10]
            prod = freq_response(ss, s) @ freq_response(inv, s)
            assert np.abs(prod - np.eye(n_io)).max() < 1e-8


class TestValidateCtModel:
    def test_golden(self, m3):
        assert m3.m == 1
        assert m3.n == 3
        assert m3.n_out == 4

    def test_unstable(self):
        with pytest.raises(NotStable):
            validate_ct_model(StateSpace([[1.0]], [[1.0]], [[1.0]]))

    def test_zero_b_column(self):
        with pytest.raises(BColumnDeficient):
            validate_ct_model(StateSpace(systems.A3, np.zeros((3, 1)), systems.C3))

    def test_not_reachable(self):
        a = np.array([[-1.0, 0.0], [0.0, -2.0]])
        with pytest.raises(NotReachable):
            validate_ct_model(StateSpace(a, [[1.0], [0.0]], np.eye(2)))

    def test_not_observable(self):
        a = np.array([[-1.0, 0.0], [1.0, -2.0]])
        with pytest.raises(NotObservable):
            validate_ct_model(StateSpace(a, [[1.0], [0.0]], [[1.0, 0.0]]))

    def test_rank_cb_deficient(self):
        a = np.diag([-1.0, -2.0])
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(RankCBDeficient):
            validate_ct_model(StateSpace(a, np.eye(2), c))

    def test_nonzero_feedthrough_rejected(self):
        with pytest.raises(ValueError):
            validate_ct_model(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]]))

    def test_labels(self):
        model = validate_ct_model(CtModel(systems.A3, systems.B3, systems.C3,
                                          labels=["a", "b", "c", "d"]))
        assert model.labels == ("a", "b", "c", "d")
        with pytest.raises(ValueError, match=r"^labels: expected 4 entries, got 1$"):
            CtModel(systems.A3, systems.B3, systems.C3, labels=["a"])

    @pytest.mark.parametrize("labels", ["abcd", [1, 2, 3, None], ("a", "b", "c", 4)],
                             ids=["str", "list", "tuple"])
    def test_labels_must_be_strings(self, labels):
        # as in a model file: a bare string or a non-string entry is refused
        with pytest.raises(ParseError, match=r"^labels: must be a list of strings$"):
            CtModel(systems.A3, systems.B3, systems.C3, labels=labels)

    def test_validated_model_is_a_state_space(self):
        ss = StateSpace(systems.A3, systems.B3, systems.C3)
        model = validate_ct_model(ss)
        assert isinstance(model, StateSpace) and type(model) is CtModel
        assert model.m == model.B.shape[1] == 1
        s = 1j * default_grid(count=50)
        plain = StateSpace(model.A, model.B, model.C)
        assert np.array_equal(freq_response(model, s), freq_response(plain, s))

    def test_ct_model_checked_in_place(self):
        model = CtModel(A=systems.A3, B=systems.B3, C=systems.C3, labels=["a", "b", "c", "d"])
        assert validate_ct_model(model) is model
        assert model.labels == ("a", "b", "c", "d")
        with pytest.raises(ValueError, match="labels: expected 4 entries, got 1"):
            validate_ct_model(CtModel(A=systems.A3, B=systems.B3, C=systems.C3, labels=["a"]))

    def test_models_are_frozen(self, m3):
        ss = StateSpace(systems.A3, systems.B3, systems.C3)
        model = CtModel(systems.A3, systems.B3, systems.C3, labels=["a", "b", "c", "d"])
        for obj, name, value in ((ss, "A", -np.eye(3)), (m3, "A", -np.eye(3)),
                                 (model, "labels", ("w", "x", "y", "z"))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
        assert model.labels == ("a", "b", "c", "d")

    def test_spectrum_and_norm_kept_on_the_model(self, m3):
        assert np.array_equal(m3.eigenvalues, sorted_eigvals(m3.A))
        assert m3.a_norm == norm2(m3.A)
        assert m3.eigenvalues is m3.eigenvalues

    def test_one_svd_of_b_and_one_norm_of_a(self, monkeypatch):
        # the column-rank test of B and the staircase scale ||B||_2 share
        # one SVD; both staircases share one ||A||_2. A fresh model: the
        # m3 fixture has its ||A||_2 kept from an earlier validation
        m3 = CtModel(systems.A3, systems.B3, systems.C3)
        svds = []
        svd = np.linalg.svd

        def counting(m, *args, **kwargs):
            svds.append((np.array(m), kwargs.get("compute_uv", True)))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        validate_ct_model(m3)

        def of(*xs):
            return [uv for m, uv in svds if any(np.array_equal(m, x) for x in xs)]

        b, a = m3.B, m3.A
        assert of(b, b[None]) == [False, True]  # B's values, then the first block's basis
        assert of(a, a[None], a.T, a.T[None]) == [False]

    def test_spectral_factor_rank_on_axis(self, rng):
        for _ in range(10):
            model = oracles.random_ct_model(rng)
            w = freq_response(model, [1j * rng.uniform(0.05, 20.0)])[0]
            sv = np.linalg.svd(w, compute_uv=False)
            assert np.count_nonzero(sv > 1e-10 * sv[0] * max(w.shape)) >= model.m
