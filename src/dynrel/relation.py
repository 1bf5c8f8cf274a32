"""Extraction of the hidden deterministic relation between sub-processes.

Given a validated model with m shock channels, any m rows of C whose
product with B is invertible can serve as the driving channels u; the
remaining rows, in ascending order, become the driven channels y. A
selection is the tuple ``rows0`` of its driving rows; they form C0 and
the driven rows form C1. Each admissible selection induces the matrix
``Gamma = A - B (C0 B)^{-1} C0 A`` and an exact rational map F(s) from
u to y.

Let V be an orthonormal basis of ker C0, K = B (C0 B)^{-1} and
Pi = I - K C0. Since C0 Pi = 0, Gamma = Pi A maps into ker C0, so
Gamma = V W with W = V' Pi A: its rank is at most n - m, it has at
least m zero eigenvalues, and it is exactly zero when m = n. In the
coordinates (V' x, C0 x) the relation has the realization with n - m
states

    F(s) = C1 K + C1 V (sI - W V)^{-1} W K,

and it is the only one built. W V = V' Pi A V is the zero dynamics of
(A, B, C0) (Isidori, *Nonlinear Control Systems*): its eigenvalues are
the invariant zeros of (A, B, C0), and the poles of F are those that are
reachable from W K and observable through C1 V. So the minimal degree is
at most n - m. Whether a selection with strictly stable F exists is a
property of the model, not a given: some models admit none.

The search for a stable selection certifies on the same realizations:
a selection whose zero dynamics have an unstable eigenvalue that passes
both PBH tests with margin has an unstable F and is skipped unreduced.
Every other selection is reduced alone, so its report is the one
``relation`` gives.
"""

import itertools
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import (
    InadmissibleSelection,
    NoAdmissibleSelection,
    SelectionLimitExceeded,
)
from .kernels import DEFAULT_TOL, Tolerances, is_invertible, norm2, rank_cut, sorted_eigvals
from .lti import CtModel, StateSpace, minimal_realizations, poles_stable

__all__ = [
    "SELECTION_CAP",
    "RelationReport",
    "enumerate_selections",
    "classify_selection",
    "classify_selections",
    "stable_selection_exists",
]

#: Hard cap on the number of row subsets enumerated.
SELECTION_CAP = 10_000


def _driven_rows(n_out: int, rows0: tuple[int, ...]) -> tuple[int, ...]:
    """``rows1``: every row of C that ``rows0`` does not drive, in
    ascending order."""
    return tuple(i for i in range(n_out) if i not in rows0)


@dataclass
class RelationReport:
    """Everything a selection yields: its driving rows ``rows0`` and
    driven rows ``rows1``, Gamma and its spectrum, the minimal
    realization of F and its degree, and the stability verdict. An unstable
    F means the configuration only exists inside a stabilizing feedback
    loop; a stable F means the plain causal map exists with no
    feedback."""

    rows0: tuple[int, ...]
    rows1: tuple[int, ...]
    gamma: np.ndarray
    gamma_eigs: np.ndarray
    F: StateSpace
    stable: bool
    poles: np.ndarray

    @property
    def degree(self) -> int:
        return self.F.n


def enumerate_selections(model: CtModel) -> list[tuple[int, ...]]:
    """The ``rows0`` of all admissible selections, in lexicographic
    order.

    A subset is admissible when its C0 B has condition number below the
    invertibility ceiling. All ``comb(n_out, m)`` subsets are tested by
    one batched :func:`is_invertible` call, whose verdict on each C0 B is
    the one that matrix gets alone.

    Raises
    ------
    SelectionLimitExceeded
        More than ``SELECTION_CAP`` subsets would have to be examined;
        raised before any subset is tested.
    NoAdmissibleSelection
        Every subset fails the invertibility test.
    """
    n_out, m = model.n_out, model.m
    if comb(n_out, m) > SELECTION_CAP:
        raise SelectionLimitExceeded(
            f"{comb(n_out, m)} candidate subsets exceed the cap of {SELECTION_CAP}")
    subsets = np.array(list(itertools.combinations(range(n_out), m)), dtype=np.intp)
    ok = is_invertible(model.C[subsets.reshape(-1, m)] @ model.B)
    if not ok.any():
        raise NoAdmissibleSelection("no row subset gives an invertible C0 B")
    return [tuple(rows0) for rows0 in subsets[ok].tolist()]


def _check_rows(model: CtModel, rows0) -> tuple[int, ...]:
    """``rows0`` as a tuple of ints, once it is checked as a selection:
    integer entries, each in range, distinct, exactly m of them. The one
    check of a selection that comes from outside."""
    rows0 = tuple(rows0)
    n_out = model.n_out
    for idx in rows0:
        if not isinstance(idx, (int, np.integer)) or isinstance(idx, bool):
            raise InadmissibleSelection(f"row index {idx!r} is not an integer")
        if not 0 <= idx < n_out:
            raise InadmissibleSelection(f"row index {idx} out of range 0..{n_out - 1}")
    if len(set(rows0)) != len(rows0):
        raise InadmissibleSelection(f"selection {rows0} repeats a row")
    if len(rows0) != model.m:
        raise InadmissibleSelection(
            f"selection picks {len(rows0)} rows, model needs m = {model.m}")
    return tuple(int(i) for i in rows0)


def _channel_rows(model: CtModel, sels: list[tuple[int, ...]]):
    """C0 and C1 of every selection in ``sels``, as (k, m, n) and
    (k, n_out - m, n) stacks."""
    k = len(sels)
    c0 = model.C[np.array(sels, dtype=np.intp).reshape(k, -1)]
    c1 = model.C[np.array([_driven_rows(model.n_out, rows0) for rows0 in sels],
                          dtype=np.intp).reshape(k, -1)]
    return c0, c1


class _Stack(NamedTuple):
    """The realizations of F for a list of selections, as (k, ., .)
    stacks (see :func:`_realizations`): ``gamma`` = V W for the report,
    ``(a, b, c, d)`` = (W V, W K, C1 V, C1 K), the (n - m)-state
    realization of F, and the K and C1 it was built from. ``a`` is
    Gamma11, the zero dynamics of (A, B, C0); ``b`` and ``c`` are B~ and
    C~."""

    gamma: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    k: np.ndarray
    c1: np.ndarray

    def member(self, i: int) -> "_Stack":
        """The stack of member ``i`` alone."""
        return _Stack(*(x[i:i + 1] for x in self))


def _realizations(model: CtModel, sels: list[tuple[int, ...]]) -> _Stack:
    """The raw realizations of F for the admissible selections ``sels``.

    One batched QR of C0' gives V, an orthonormal basis of ker C0, and
    one batched solve gives K = B (C0 B)^{-1}. With
    W = V' A - (V' K)(C0 A) = V' Pi A, Gamma = V W and F is
    ``(W V, W K, C1 V, C1 K)``.
    """
    c0, c1 = _channel_rows(model, sels)
    v = np.linalg.qr(c0.mT, mode="complete")[0][..., model.m:]
    k = np.linalg.solve((c0 @ model.B).mT, model.B.T).mT
    vt = v.mT
    w = vt @ model.A - (vt @ k) @ (c0 @ model.A)
    return _Stack(v @ w, w @ v, w @ k, c1 @ v, c1 @ k, k, c1)


def _reports(model: CtModel, sels: list[tuple[int, ...]], raw: _Stack,
             tol: Tolerances) -> list[RelationReport]:
    """The reports of ``sels`` from their realizations ``raw``: one
    lockstep :func:`minimal_realizations` for the stack and one batched
    eigenvalue call for the poles of each group of equal degree. The
    staircase scales come from before the projections: ``||C1||_2`` for
    C1 V, which is roundoff when driven rows combine driving rows, and
    ``||A||_2 ||K||_2`` (the model's ``a_norm``) for W K, whose roundoff
    it bounds.

    Gamma = V W has the spectrum of W V and m zeros. When the staircase
    keeps all n - m states, F.A is W V in an orthonormal basis, so
    Gamma's spectrum is the member's poles and m exact zeros; only the
    members it cuts take one more batched eigenvalue call, of their W V.
    Both are sorted as by :func:`sorted_eigvals`."""
    f_min = minimal_realizations(raw.a, raw.b, raw.c, raw.d, model.a_norm * norm2(raw.k),
                                 norm2(raw.c1), tol)
    by_degree = {}
    for i, f in enumerate(f_min):
        by_degree.setdefault(f.n, []).append(i)
    d = model.n - model.m
    f_poles = [None] * len(sels)
    spectrum = np.zeros((len(sels), model.n), dtype=np.complex128)
    cut = []
    for degree, idx in by_degree.items():
        eigs = sorted_eigvals(np.stack([f_min[i].A for i in idx]))
        for i, p in zip(idx, eigs):
            f_poles[i] = p
        if degree == d:
            spectrum[idx, :d] = eigs
        else:
            cut += idx
    if cut:
        spectrum[cut, :d] = np.linalg.eigvals(raw.a[cut])
    order = np.lexsort((spectrum.imag, spectrum.real), axis=-1)
    gamma_eigs = np.take_along_axis(spectrum, order, axis=-1)
    return [RelationReport(
        rows0=rows0,
        rows1=_driven_rows(model.n_out, rows0),
        gamma=raw.gamma[i],
        gamma_eigs=gamma_eigs[i],
        F=f_min[i],
        stable=poles_stable(f_poles[i], tol),
        poles=f_poles[i],
    ) for i, rows0 in enumerate(sels)]


def classify_selections(model: CtModel, sels, tol: Tolerances = DEFAULT_TOL) -> list[RelationReport]:
    """Full reports for the admissible selections ``sels`` (each the
    ``rows0`` of a selection), in order, classified as one stack.

    The raw realizations come from one condition test of the C0 B and
    one stack build (:func:`_realizations`); all of them are reduced by
    one call of :func:`minimal_realizations`, which runs the staircase
    for every selection in lockstep. ``poles`` are the sorted
    eigenvalues of the reported minimal F, and ``stable`` is decided on
    those same poles. ``gamma_eigs`` are those poles and m exact zeros
    when the staircase keeps all n - m states, and the eigenvalues of
    W V and m exact zeros when it cuts one (:func:`_reports`). Every
    report is bit-for-bit the one the selection gets alone.

    Raises
    ------
    InadmissibleSelection
        For the first selection with an entry that is not an integer,
        out of range or repeated, or with other than m entries
        (:func:`_check_rows`), else for the first whose C0 B fails the
        condition test.
    """
    sels = [_check_rows(model, rows0) for rows0 in sels]
    if not sels:
        return []
    ok = is_invertible(_channel_rows(model, sels)[0] @ model.B)
    if not ok.all():
        raise InadmissibleSelection(
            f"C0 B for rows {sels[int(np.argmin(ok))]} is not numerically invertible")
    return _reports(model, sels, _realizations(model, sels), tol)


def classify_selection(model: CtModel, rows0, tol: Tolerances = DEFAULT_TOL) -> RelationReport:
    """Full report for the one admissible selection ``rows0``:
    :func:`classify_selections` of a stack of one."""
    return classify_selections(model, [rows0], tol)[0]


#: Fixed safety factor of the unstable-relation certificate in
#: :func:`stable_selection_exists`, in units of the rank cutoff at dim n:
#: an eigenvalue of Gamma11 counts when it lies that far right of
#: ``-stability_margin`` and passes both PBH tests by that much, each relative
#: to the scale of what it tests, so roundoff cannot certify a removable pole.
_UNSTABLE_CERT_FACTOR = 1e3


def _pbh_passes(gamma11: np.ndarray, b: np.ndarray, c: np.ndarray, mu: np.ndarray,
                cut: float, floor: float) -> np.ndarray:
    """For each member, whether ``mu`` passes both PBH tests with margin:
    the smallest singular value of [mu I - Gamma11, B~] and of
    [mu I - Gamma11; C~] exceeds ``cut`` times the larger of that
    matrix's Frobenius norm and ``floor``. One batched SVD per test, in
    the arithmetic of ``mu``."""
    d = gamma11.shape[-1]
    shifted = np.empty(gamma11.shape, dtype=mu.dtype)
    shifted[:] = -gamma11
    shifted[:, np.arange(d), np.arange(d)] += mu[:, None]
    ok = np.ones(mu.size, dtype=bool)
    for pbh in (np.concatenate([shifted, b], axis=-1), np.concatenate([shifted, c], axis=-2)):
        s = np.linalg.svd(pbh, compute_uv=False)
        ok &= s[:, -1] > cut * np.maximum(np.linalg.norm(pbh, axis=(-2, -1)), floor)
    return ok


def _certified_unstable(model: CtModel, raw: _Stack, tol: Tolerances) -> np.ndarray:
    """One verdict per member of the stack ``raw``: True when its
    relation F has, for certain, a pole with real part at least
    ``-stability_margin``.

    The test runs on Gamma11 with B~ and C~ divided by ``||K||_F`` and
    ``||C1||_F``, the norms of the matrices they are built from. That
    takes the units of the inputs and of the outputs out of them and
    leaves both PBH tests as they are. An eigenvalue lam of Gamma11 is a
    pole of F when it passes the PBH tests (Hautus 1969):
    [lam I - Gamma11, B~] has full row rank and [lam I - Gamma11; C~]
    full column rank. Let the cutoff be ``_UNSTABLE_CERT_FACTOR`` times
    the rank cutoff at dim n and unit scale, and the scale of a matrix
    the larger of its Frobenius norm and ``||A||_F``; the floor keeps a
    Gamma11 that is roundoff from passing on its own scale. C~, which has
    no units here, is first multiplied by the scale of Gamma11. lam is a
    candidate when its real part exceeds ``-stability_margin`` by the
    cutoff times the scale of Gamma11, and it certifies its member when
    it passes both tests with the cutoff times the scale of the tested
    matrix (:func:`_pbh_passes`). One batched eigenvalue call serves the
    stack. Round r tries the r-th candidate from the right of every
    member not yet certified; of a conjugate pair only the upper member
    is tried, since both give the same singular values. A member that is
    not certified may still be unstable.
    """
    gamma11 = raw.a
    k, d = gamma11.shape[:2]
    certified = np.zeros(k, dtype=bool)
    cut = _UNSTABLE_CERT_FACTOR * rank_cut(model.n, 1.0, tol)
    floor = float(np.linalg.norm(model.A))
    g = np.maximum(np.linalg.norm(gamma11, axis=(-2, -1)), floor)
    b = raw.b / np.linalg.norm(raw.k, axis=(-2, -1), keepdims=True)
    # a C1 of zeros gives a C~ of zeros, not 0 / 0
    c1_norm = np.maximum(np.linalg.norm(raw.c1, axis=(-2, -1), keepdims=True),
                         np.finfo(float).tiny)
    c = raw.c / c1_norm * g[:, None, None]
    lam = np.linalg.eigvals(gamma11).astype(np.complex128)
    lam = np.take_along_axis(lam, np.argsort(-lam.real, axis=-1, kind="stable"), axis=-1)
    live = (lam.real > -tol.stability_margin + cut * g[:, None]) & (lam.imag >= 0)
    rank = np.cumsum(live, axis=-1) - 1  # order of each candidate within its member
    for r in range(d):
        who, j = np.nonzero(live & (rank == r) & ~certified[:, None])
        if who.size == 0:  # every member with an r-th candidate is certified
            break
        mu = lam[who, j]
        real = mu.imag == 0
        # a real candidate is tested in real arithmetic, at a fraction of the cost
        for sub, z in ((real, mu.real), (~real, mu)):
            if sub.any():
                idx = who[sub]
                certified[idx] = _pbh_passes(gamma11[idx], b[idx], c[idx], z[sub], cut, floor)
    return certified


def stable_selection_exists(model: CtModel, tol: Tolerances = DEFAULT_TOL) -> RelationReport | None:
    """The report of the first (lexicographic) selection whose F is
    strictly stable, or None when every admissible selection yields an
    unstable relation.

    Certify, then reduce. The admissible selections are walked in order
    in chunks of 1, 2, 4, ... members, so that an early stable selection
    costs little and a search through all of them takes few batched
    calls. The realizations of a chunk are built once, as one stack
    (:func:`_realizations`), and certified by one batched eigenvalue
    call (:func:`_certified_unstable`). A selection certified unstable
    is skipped without a staircase; every other one is reduced alone,
    from its member of the chunk's stack, and the first whose report is
    stable is returned. The selections are admissible by construction,
    so the condition test of :func:`enumerate_selections` is the only
    one. The certificate holds only where F has an unstable pole, so the
    result is the first stable report of :func:`classify_selections` on
    all admissible selections, bit for bit.

    Raises
    ------
    SelectionLimitExceeded
        More than ``SELECTION_CAP`` subsets would have to be examined;
        raised before any subset is tested.
    NoAdmissibleSelection
        Every subset fails the invertibility test.
    """
    sels = enumerate_selections(model)
    start, size = 0, 1
    while start < len(sels):
        chunk = sels[start:start + size]
        raw = _realizations(model, chunk)
        for i in np.flatnonzero(~_certified_unstable(model, raw, tol)).tolist():
            rep = _reports(model, [chunk[i]], raw.member(i), tol)[0]
            if rep.stable:
                return rep
        start, size = start + size, 2 * size
    return None
