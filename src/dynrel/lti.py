"""State-space realizations of proper rational transfer matrices and
validated continuous-time stochastic models.

Transfer functions are handled through their values, never through
polynomial coefficients: :func:`freq_response` evaluates a realization
on a set of points, and every verdict built on it is a threshold
decision on those values.
"""

import functools

import numpy as np
from dataclasses import dataclass, field

from .errors import (
    BColumnDeficient,
    DimensionMismatch,
    NotObservable,
    NotReachable,
    NotStable,
    ParseError,
    PoleHit,
    RankCBDeficient,
)
from .kernels import (DEFAULT_TOL, POLE_COND_LIMIT, Tolerances, as_matrix, is_invertible,
                      norm2, numerical_rank, rank_cut, rank_from_values, require_shape,
                      sorted_eigvals)

__all__ = [
    "StateSpace",
    "CtModel",
    "freq_response",
    "poles_stable",
    "poles",
    "minimal_realization",
    "minimal_realizations",
    "is_strictly_stable",
    "validate_ct_model",
]


@dataclass(frozen=True)
class StateSpace:
    """Realization ``C (sI - A)^{-1} B + D`` of a proper rational matrix.

    ``A`` may be 0x0, which represents a constant (static gain) system.
    Instances are frozen: the arrays are checked once, at construction,
    their shapes by :func:`~dynrel.kernels.require_shape`.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray | None = None

    def __post_init__(self):
        a = as_matrix(self.A, square=True, name="A")
        b = as_matrix(self.B, name="B")
        require_shape("B", b, a.shape[0], None)
        c = as_matrix(self.C, name="C")
        require_shape("C", c, None, a.shape[0])
        if self.D is None:
            d = np.zeros((c.shape[0], b.shape[1]))
        else:
            d = as_matrix(self.D, name="D")
            require_shape("D", d, c.shape[0], b.shape[1])
        for name, x in zip("ABCD", (a, b, c, d)):
            object.__setattr__(self, name, x)

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def n_in(self) -> int:
        return self.B.shape[1]

    @property
    def n_out(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class CtModel(StateSpace):
    """Validated continuous-time stochastic model (A, B, C) with zero
    feedthrough: a :class:`StateSpace` that :func:`validate_ct_model`
    has checked.

    ``m`` is the number of shock channels, the column count of B, which
    validation proves equal to rank B, to rank(CB) and to the rank of the
    output spectral density almost everywhere. ``labels``, a list or tuple
    of one string per output, name the outputs; ``eigenvalues`` and
    ``a_norm``, computed once on first use, are shared by validation and
    the analyses after it.
    """

    labels: tuple[str, ...] | None = field(default=None, kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "labels", _labels(self.labels, self.n_out))

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A, sorted as by :func:`sorted_eigvals`."""
        return sorted_eigvals(self.A)

    @functools.cached_property
    def a_norm(self) -> float:
        """``||A||_2``, by which validation and the relation staircases scale."""
        return norm2(self.A)


def _labels(labels, count: int) -> tuple[str, ...] | None:
    """``labels`` as a tuple when it is a list or tuple of ``count``
    strings (None stays None): the rule of :class:`CtModel` and of the
    model files. Else ParseError, or DimensionMismatch on the count."""
    if labels is None:
        return None
    if not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels):
        raise ParseError("labels: must be a list of strings")
    if len(labels) != count:
        raise DimensionMismatch(f"labels: expected {count} entries, got {len(labels)}")
    return tuple(labels)


#: Fixed safety factor of the pole certificate in :func:`freq_response`: a
#: certified point has cond2(sI - A) below this fraction of ``POLE_COND_LIMIT``
#: (three digits of margin for the roundoff in the eigenvalues and in kappa2(V)).
_POLE_CERT_FACTOR = 1e-3

#: Fixed ceiling on kappa2(V), the condition number of the eigenvector matrix
#: of A, for the modal evaluation in :func:`freq_response`. The solve with
#: V and the products with ``C V`` and ``V^{-1} B`` add a relative error of
#: about ``kappa2(V) n eps`` to the value, beyond what the LU route has. At
#: this ceiling and n = 30 that is 1e3 * 30 * 2.2e-16 = 7e-12, about 100
#: times below the default rank cutoff (``kernels.rank_cut``, 1e-10 * 6 on a
#: six-channel spectrum) that the spectral verdict applies to the values.
_MODAL_COND_LIMIT = 1e3


def freq_response(ss: StateSpace, points) -> np.ndarray:
    """``C (sI - A)^{-1} B + D`` at each point of the 1-d sequence
    ``points``, as a ``(k, n_out, n_in)`` complex array.

    One eigendecomposition ``A = V diag(lam) V^{-1}`` per system serves
    both the pole test and the evaluation. By the Bauer-Fike bound
    (Bauer & Fike 1960), cond2(sI - A) is at most
    ``(|s| + ||A||_F) kappa2(V) / min_i |s - lam_i|``; a point where that
    bound is below ``_POLE_CERT_FACTOR * POLE_COND_LIMIT`` cannot fail the
    pole test. When kappa2(V) is at most ``_MODAL_COND_LIMIT``, every
    certified point is evaluated in modal form,
    ``(C V) diag(1 / (s - lam)) (V^{-1} B) + D``, in one broadcast product
    of O(n n_out n_in) work per point instead of an O(n^3) factorization.

    The other points, and all points of a system whose V fails that
    gate (A defective or nearly so), go to the LU path: the points the
    certificate did not clear are tested by the SVD condition number, as
    ``is_invertible(sI - A, POLE_COND_LIMIT)``, and the stack of
    ``sI - A`` at those points is solved in one batched LU solve.

    Raises
    ------
    PoleHit
        ``sI - A`` is numerically singular at a point (the first is named).
    """
    s = np.asarray(points, dtype=np.complex128)
    if ss.n == 0:
        return np.broadcast_to(ss.D, (s.size, *ss.D.shape)).astype(np.complex128)
    lam, v = np.linalg.eig(ss.A)
    sv = np.linalg.svd(v, compute_uv=False)
    gap = np.abs(s[:, None] - lam).min(axis=1)
    # multiplied out: no division, so no warning when V is singular
    sure = ((np.abs(s) + np.linalg.norm(ss.A)) * sv[0]
            < _POLE_CERT_FACTOR * POLE_COND_LIMIT * gap * sv[-1])
    modal = sure & (sv[0] <= _MODAL_COND_LIMIT * sv[-1])
    out = np.empty((s.size, ss.n_out, ss.n_in), dtype=np.complex128)
    lu = np.flatnonzero(~modal)
    if lu.size:
        # built in place: a broadcast ``s * I - A`` would allocate a second stack
        f = np.empty((lu.size, ss.n, ss.n), dtype=np.complex128)
        f[:] = -ss.A
        diag = np.arange(ss.n)
        f[:, diag, diag] += s[lu, None]
        unsure = np.flatnonzero(~sure[lu])
        if unsure.size:
            stack = f if unsure.size == lu.size else f[unsure]
            hit = lu[unsure[~is_invertible(stack, POLE_COND_LIMIT)]]
            if hit.size:
                raise PoleHit(f"evaluation point {complex(s[hit[0]]):.6g} is numerically a pole")
        out[lu] = ss.C @ np.linalg.solve(f, ss.B.astype(np.complex128)[None]) + ss.D
    idx = np.flatnonzero(modal)
    if idx.size:
        scaled = (ss.C @ v) * (1.0 / (s[idx, None] - lam))[:, None, :]
        out[idx] = scaled @ np.linalg.solve(v, ss.B) + ss.D
    return out


def _orth(m: np.ndarray, dim: int, scale: np.ndarray, tol: Tolerances) -> list:
    """Orthonormal bases for the columns of each member of the stack
    ``m`` (k, rows, cols) whose singular values pass the rank rule at
    ``dim`` and at the member's ``scale`` (k,).

    One batched SVD for the whole stack. Members of equal rank r form a
    group: the result is ``[(idx, basis), ...]`` in ascending r, with
    ``idx`` the members' positions and ``basis`` their (len(idx), rows, r)
    bases. The kept columns are taken with an index array, which gives
    each basis the column-major layout of a 2-d boolean-mask slice, so
    the products downstream sum in the same order as on a single system.
    """
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    groups = {}
    for i, row in enumerate((s > rank_cut(dim, scale[:, None], tol)).tolist()):
        groups.setdefault(row.count(True), []).append(i)
    idxs = {r: np.array(idx) for r, idx in groups.items()}
    return [(idx, _take(u, idx)[..., np.arange(r)]) for r, idx in sorted(idxs.items())]


def _take(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Members ``idx`` (ascending) of the stack ``x``; ``x`` itself when
    that is all of them. Taking keeps each member's memory layout."""
    return x if idx.size == x.shape[0] else x[idx]


def _controllable_basis(a: np.ndarray, b: np.ndarray, a_scale: np.ndarray,
                        b_scale: np.ndarray, tol: Tolerances) -> list:
    """Orthonormal basis of the smallest A-invariant subspace containing
    range(B), by staircase expansion with SVD rank decisions, for every
    member of the stacks ``a`` (k, n, n) and ``b`` (k, n, p) in lockstep.

    Each step takes one batched SVD for all members still growing. When
    their ranks at a step differ, the stack splits into groups of equal
    rank, and each group goes on with the same code. The result is
    ``[(idx, basis), ...]``, one entry per group of members that went
    through the same rank profile.

    Rank cutoffs are referenced to ``b_scale`` (first block) and ``a_scale``
    (grown blocks), each (k,) and taken by the caller from before any
    projection, since a projected B can be roundoff and a projected A has a
    smaller norm than the roundoff it carries; so a global rescaling changes
    no decision.
    """
    n = a.shape[-1]
    work = [(idx, v, v) for idx, v in _orth(b, max(b.shape[-2:]), b_scale, tol)]
    done = []
    while work:
        idx, v, fresh = work.pop()
        if v.shape[-1] == n or fresh.shape[-1] == 0:
            done.append((idx, v))
            continue
        w = _take(a, idx) @ fresh
        w = w - v @ (v.conj().mT @ w)
        w = w - v @ (v.conj().mT @ w)
        for jdx, fresh in _orth(w, n, _take(a_scale, idx), tol):
            vj = _take(v, jdx)
            if fresh.shape[-1]:
                vj = np.concatenate([vj, fresh], axis=-1)
            work.append((_take(idx, jdx), vj, fresh))
    return done


def minimal_realizations(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
                         b_scale: np.ndarray, c_scale: np.ndarray,
                         tol: Tolerances = DEFAULT_TOL) -> list[StateSpace]:
    """Minimal realizations of the stack of systems ``(a, b, c, d)``,
    shaped (k, n, n), (k, n, p), (k, q, n) and (k, q, p), one per member.

    Staircase reduction in lockstep: project every member onto its
    reachable subspace, then onto the observable subspace of the result,
    with one batched SVD per staircase step for all members (see
    :func:`_controllable_basis`, which scales the first rank decision on B
    and on C by ``b_scale`` and ``c_scale`` (k,), and the grown blocks of
    both passes by each member's ``||a||_2``, taken once here; members of
    different rank continue in groups). Each returned state dimension is
    that member's McMillan degree up to the rank tolerance, and each
    member's reduction is bit-for-bit the one of that member alone.
    """
    out = [None] * a.shape[0]
    a_scale = norm2(a)
    for idx, v in _controllable_basis(a, b, a_scale, b_scale, tol):
        vh = v.conj().mT
        ar = vh @ _take(a, idx) @ v
        br = vh @ _take(b, idx)
        cr = _take(c, idx) @ v
        for jdx, w in _controllable_basis(ar.conj().mT, cr.conj().mT, _take(a_scale, idx),
                                          _take(c_scale, idx), tol):
            wh = w.conj().mT
            a2 = wh @ _take(ar, jdx) @ w
            b2 = wh @ _take(br, jdx)
            c2 = _take(cr, jdx) @ w
            for i, j in enumerate(_take(idx, jdx).tolist()):
                out[j] = StateSpace(a2[i], b2[i], c2[i], d[j])
    return out


def minimal_realization(ss: StateSpace, tol: Tolerances = DEFAULT_TOL) -> StateSpace:
    """Minimal realization with the same transfer function:
    :func:`minimal_realizations` of a stack of one.

    Staircase reduction with the first blocks cut at ``||B||_2`` and
    ``||C||_2`` and the grown blocks of both passes at ``||A||_2``; the
    returned state dimension is the McMillan degree up to the rank tolerance.
    """
    a, b, c, d = (x[None] for x in (ss.A, ss.B, ss.C, ss.D))
    return minimal_realizations(a, b, c, d, norm2(b), norm2(c), tol)[0]


def poles_stable(p: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every pole in ``p`` has real part below
    ``-stability_margin``. An empty pole set (a constant system) is
    stable."""
    return p.size == 0 or bool(p.real.max() < -tol.stability_margin)


def poles(ss: StateSpace, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Poles (eigenvalues of the minimal realization's state matrix),
    sorted by (real, imaginary) part."""
    return sorted_eigvals(minimal_realization(ss, tol).A)


def is_strictly_stable(ss: StateSpace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every pole has real part below ``-stability_margin``.
    A constant system (no poles) is stable."""
    return poles_stable(poles(ss, tol), tol)


def validate_ct_model(ss: StateSpace, tol: Tolerances = DEFAULT_TOL) -> CtModel:
    """Check every structural assumption of a continuous-time model and
    return it as a :class:`CtModel`.

    A CtModel argument is checked in place and returned, so a model built
    as one has its arrays checked once; a plain StateSpace is converted once.

    Verifies, in order: zero feedthrough, Hurwitz A, full column rank of
    B, reachability of (A, B), observability of (C, A), and
    rank(CB) equal to the number of shock channels. Each failure raises
    the error naming the violated assumption. One SVD of B gives its rank
    and the staircase scale ``||B||_2``; ``eigenvalues`` and ``a_norm`` are the model's.
    """
    model = ss if isinstance(ss, CtModel) else CtModel(ss.A, ss.B, ss.C, ss.D)
    if np.any(model.D):
        raise ValueError("continuous-time model must have zero feedthrough")
    n, m = model.n, model.m
    if n == 0:
        raise ValueError("model must have at least one state")
    eigs = model.eigenvalues
    if not poles_stable(eigs, tol):
        raise NotStable(f"eigenvalue with real part {eigs.real.max():.6g} is not strictly stable")
    s_b = np.linalg.svd(model.B, compute_uv=False)
    if rank_from_values(s_b, max(n, m), tol) != m:
        raise BColumnDeficient("B does not have full column rank")
    a, b, c = model.A[None], model.B[None], model.C[None]
    a_scale, b_scale = model.a_norm[None], s_b.max(keepdims=True, initial=0.0)
    if _controllable_basis(a, b, a_scale, b_scale, tol)[0][1].shape[-1] != n:
        raise NotReachable("(A, B) is not reachable")
    if _controllable_basis(a.conj().mT, c.conj().mT, a_scale, norm2(c), tol)[0][1].shape[-1] != n:
        raise NotObservable("(C, A) is not observable")
    rank_cb = numerical_rank(model.C @ model.B, tol)
    if rank_cb != m:
        raise RankCBDeficient(f"rank(CB) = {rank_cb}, expected {m}")
    return model
