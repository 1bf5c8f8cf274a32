"""Extraction of the hidden deterministic relation between sub-processes.

Given a validated model with m shock channels, any m rows of C whose
product with B is invertible can serve as the driving channels u; the
remaining rows become the driven channels y. Each admissible selection
induces the matrix ``Gamma = A - B (C0 B)^{-1} C0 A`` and an exact
rational map F(s) from u to y, realized as

    F(s) = C1 B (C0 B)^{-1} + C1 Gamma (sI - Gamma)^{-1} B (C0 B)^{-1},

equivalently ``s C1 (sI - Gamma)^{-1} B (C0 B)^{-1}``. Since
``B (C0 B)^{-1} C0`` is an oblique projection with trace m, Gamma has
rank n - m with at least m zero eigenvalues; these cancel in the
reduction, so the minimal degree is at most n - m and the nonzero
eigenvalues of Gamma are the candidate poles of F. Whether a selection
with strictly stable F exists is a property of the model, not a given:
some models admit none.

In the coordinates (V' Pi x, C0 x), with V an orthonormal basis of
ker C0 and Pi = I - B (C0 B)^{-1} C0, Gamma drops its m zero
eigenvalues and keeps the zero dynamics of (A, B, C0), a realization of
F with n - m states. The search for a stable selection certifies on
those: a selection whose zero dynamics have an unstable eigenvalue that
passes both PBH tests with margin has an unstable F and is skipped
unreduced. Every other selection is reduced alone, from the raw
realization above, so its report is the one ``relation`` gives.
"""

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    InadmissibleSelection,
    NoAdmissibleSelection,
    SelectionLimitExceeded,
)
from .kernels import DEFAULT_TOL, Tolerances, is_invertible, sorted_eigvals
from .lti import CtModel, StateSpace, minimal_realizations, poles_stable

__all__ = [
    "SELECTION_CAP",
    "RowSelection",
    "RelationReport",
    "enumerate_selections",
    "classify_selection",
    "classify_selections",
    "stable_selection_exists",
]

#: Hard cap on the number of row subsets enumerated.
SELECTION_CAP = 10_000


@dataclass
class RowSelection:
    """Choice of driving rows: ``rows0`` index the m rows of C forming
    C0 (the u-channels), ``rows1`` the complementary rows forming C1."""

    rows0: tuple[int, ...]
    rows1: tuple[int, ...]

    def __post_init__(self):
        self.rows0 = tuple(int(i) for i in self.rows0)
        self.rows1 = tuple(int(i) for i in self.rows1)
        if not self.rows0:
            raise ValueError("rows0 must select at least one row")
        if set(self.rows0) & set(self.rows1):
            raise ValueError("rows0 and rows1 must be disjoint")


@dataclass
class RelationReport:
    """Everything a selection yields: Gamma and its spectrum, the raw
    dimension-n realization, the minimal realization, the degree, and
    the stability verdict. An unstable F means the configuration only
    exists inside a stabilizing feedback loop; a stable F means the
    plain causal map exists with no feedback."""

    selection: RowSelection
    gamma: np.ndarray
    gamma_eigs: np.ndarray
    F: StateSpace
    F_raw: StateSpace
    degree: int
    stable: bool
    poles: np.ndarray


def enumerate_selections(model: CtModel) -> list[RowSelection]:
    """All admissible selections, in lexicographic order of ``rows0``.

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
    return [RowSelection(rows0, tuple(i for i in range(n_out) if i not in rows0))
            for rows0 in subsets[ok].tolist()]


def _check_rows(model: CtModel, sel: RowSelection):
    n_out = model.n_out
    for idx in sel.rows0 + sel.rows1:
        if not 0 <= idx < n_out:
            raise InadmissibleSelection(f"row index {idx} out of range 0..{n_out - 1}")
    if len(sel.rows0) != model.m:
        raise InadmissibleSelection(
            f"selection picks {len(sel.rows0)} rows, model needs m = {model.m}")


def _channel_rows(model: CtModel, sels: list[RowSelection]):
    """C0 and C1 of every selection in ``sels``, as (k, m, n) and
    (k, n_out - m, n) stacks."""
    k = len(sels)
    c0 = model.C[np.array([sel.rows0 for sel in sels], dtype=np.intp).reshape(k, -1)]
    c1 = model.C[np.array([sel.rows1 for sel in sels], dtype=np.intp).reshape(k, -1)]
    return c0, c1


def _raw_stacks(model: CtModel, sels: list[RowSelection], tol: Tolerances):
    """The raw realizations of F for ``sels`` as (k, ., .) stacks:
    ``(Gamma, B (C0 B)^{-1}, C1 Gamma, C1 B (C0 B)^{-1}, ||Gamma||_2)``.

    One batched condition test of the C0 B, one batched solve for each
    of ``(C0 B)^{-1} C0 A`` and ``B (C0 B)^{-1}``, and one batched SVD
    for the norms, which serve both the noise-floor snap and, as the
    A-scale, the staircase.
    """
    for sel in sels:
        _check_rows(model, sel)
    if len({len(sel.rows1) for sel in sels}) > 1:
        raise ValueError("selections must all have the same number of driven rows")
    c0, c1 = _channel_rows(model, sels)
    c0b = c0 @ model.B
    ok = is_invertible(c0b)
    if not ok.all():
        raise InadmissibleSelection(
            f"C0 B for rows {sels[int(np.argmin(ok))].rows0} is not numerically invertible")
    x = np.linalg.solve(c0b, c0 @ model.A)
    gamma = model.A - model.B @ x
    # when m = n the projection is the identity and Gamma vanishes in
    # exact arithmetic; snap the all-cancellation case to a true zero so
    # rank and degree decisions downstream are not fooled by noise
    norm = np.linalg.norm(gamma, 2, axis=(-2, -1))
    snap = norm <= tol.rank_rtol * model.n * np.linalg.norm(model.A, 2)
    gamma[snap] = 0.0
    norm[snap] = 0.0
    kb = np.linalg.solve(c0b.mT, model.B.T).mT  # B (C0 B)^{-1}
    return gamma, kb, c1 @ gamma, c1 @ kb, norm


def classify_selections(model: CtModel, sels, tol: Tolerances = DEFAULT_TOL) -> list[RelationReport]:
    """Full reports for the admissible selections ``sels``, in order,
    classified as one stack.

    The raw realizations come from one condition test and one batched
    solve per factor; all of them are reduced by one call of
    :func:`minimal_realizations`, which runs the staircase for every
    selection in lockstep. The Gamma eigenvalues come from one batched
    eigenvalue call, and so do the poles of each group of equal degree.
    Gamma is the state matrix of the raw realization; ``poles`` are the
    sorted eigenvalues of the reported minimal F, and ``stable`` is
    decided on those same poles. Every report is bit-for-bit the one the
    selection gets alone.

    Raises
    ------
    InadmissibleSelection
        For the first selection with a row out of range or a wrong
        count, else for the first whose C0 B fails the condition test.
    ValueError
        The selections drive different numbers of rows.
    """
    sels = list(sels)
    if not sels:
        return []
    gamma, kb, c, d, norm = _raw_stacks(model, sels, tol)
    f_min = minimal_realizations(gamma, kb, c, d, tol, a_scale=norm)
    by_degree = {}
    for i, f in enumerate(f_min):
        by_degree.setdefault(f.n, []).append(i)
    f_poles = [None] * len(sels)
    for idx in by_degree.values():
        for i, p in zip(idx, sorted_eigvals(np.stack([f_min[i].A for i in idx]))):
            f_poles[i] = p
    gamma_eigs = sorted_eigvals(gamma)
    reports = []
    for i, sel in enumerate(sels):
        f_raw = StateSpace(gamma[i], kb[i], c[i], d[i])
        reports.append(RelationReport(
            selection=sel,
            gamma=f_raw.A,
            gamma_eigs=gamma_eigs[i],
            F=f_min[i],
            F_raw=f_raw,
            degree=f_min[i].n,
            stable=poles_stable(f_poles[i], tol),
            poles=f_poles[i],
        ))
    return reports


def classify_selection(model: CtModel, sel: RowSelection, tol: Tolerances = DEFAULT_TOL) -> RelationReport:
    """Full report for one admissible selection:
    :func:`classify_selections` of a stack of one."""
    return classify_selections(model, [sel], tol)[0]


#: Safety factor of the unstable-relation certificate in
#: :func:`stable_selection_exists`, in units of the staircase's rank
#: cutoff ``rank_rtol * n``: an eigenvalue of the zero dynamics counts when
#: it lies that far right of ``-stability_margin`` and passes both PBH
#: tests by that much, each relative to the scale of what it tests.
_UNSTABLE_CERT_FACTOR = 1e3


def _zero_dynamics(model: CtModel, sels: list[RowSelection]):
    """The zero dynamics of every selection in ``sels`` as (k, ., .)
    stacks ``(Gamma11, B~, C~)``: with B~ and C~ multiplied by
    ``||K||_F`` and ``||C1||_F``, ``C1 K + C~ (sI - Gamma11)^{-1} B~`` is
    F, with n - m states.

    V is an orthonormal basis of ker C0, from one batched QR of C0';
    K = B (C0 B)^{-1} and Pi = I - K C0. Then Gamma11 = V' Pi A V,
    B~ = V' Pi A K / ||K||_F and C~ = C1 V / ||C1||_F: Gamma in the
    coordinates (V' Pi x, C0 x), without its m structural zero
    eigenvalues. The eigenvalues of Gamma11 are the invariant zeros of
    (A, B, C0), and the poles of F are those that are reachable from B~
    and observable through C~. Dividing by the norms B~ and C~ are
    computed from takes the units of the inputs and the outputs out of
    them and leaves both PBH tests as they are. The selections must be
    admissible.
    """
    c0, c1 = _channel_rows(model, sels)
    v = np.linalg.qr(c0.mT, mode="complete")[0][..., model.m:]
    kb = np.linalg.solve((c0 @ model.B).mT, model.B.T).mT  # B (C0 B)^{-1}
    vt = v.mT
    av, ak = model.A @ v, model.A @ kb
    vk = vt @ kb
    gamma11 = vt @ av - vk @ (c0 @ av)
    b = (vt @ ak - vk @ (c0 @ ak)) / np.linalg.norm(kb, axis=(-2, -1), keepdims=True)
    # a C1 of zeros gives a C~ of zeros, not 0 / 0
    c1_norm = np.maximum(np.linalg.norm(c1, axis=(-2, -1), keepdims=True), np.finfo(float).tiny)
    return gamma11, b, c1 @ v / c1_norm


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


def _certified_unstable(model: CtModel, gamma11: np.ndarray, b: np.ndarray, c: np.ndarray,
                        tol: Tolerances) -> np.ndarray:
    """One verdict per member of the zero-dynamics stacks of
    :func:`_zero_dynamics`: True when its relation F has, for certain, a
    pole with real part at least ``-stability_margin``.

    An eigenvalue lam of Gamma11 is a pole of F when it passes the PBH
    tests (Hautus 1969): [lam I - Gamma11, B~] has full row rank and
    [lam I - Gamma11; C~] full column rank. Let the cutoff be
    ``_UNSTABLE_CERT_FACTOR * rank_rtol * n``, and the scale of a matrix
    the larger of its Frobenius norm and ``||A||_F``; the floor keeps a
    Gamma11 that is roundoff from passing on its own scale, as the
    noise-floor snap of the raw realization does. C~, which has no units
    here, is first multiplied by the scale of Gamma11. lam is a candidate
    when its real part exceeds ``-stability_margin`` by the cutoff times
    the scale of Gamma11, and it certifies its member when it passes
    both tests with the cutoff times the scale of the tested matrix
    (:func:`_pbh_passes`). One batched eigenvalue call serves the stack.
    Round r tries the r-th candidate from the right of every member not
    yet certified; of a conjugate pair only the upper member is tried,
    since both give the same singular values. A member that is not
    certified may still be unstable.
    """
    k, d = gamma11.shape[:2]
    certified = np.zeros(k, dtype=bool)
    if d == 0:
        return certified
    cut = _UNSTABLE_CERT_FACTOR * tol.rank_rtol * model.n
    floor = float(np.linalg.norm(model.A))
    g = np.maximum(np.linalg.norm(gamma11, axis=(-2, -1)), floor)
    c = c * g[:, None, None]
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
    calls. The zero dynamics of a chunk are built as one stack
    (:func:`_zero_dynamics`) and certified by one batched eigenvalue
    call (:func:`_certified_unstable`). A selection
    certified unstable is skipped without a staircase; every other one
    is reduced alone by :func:`classify_selection`, and the first whose
    report is stable is returned. The certificate holds only where F
    has an unstable pole, so the result is the first stable report of
    :func:`classify_selections` on all admissible selections, bit for
    bit.

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
        unstable = _certified_unstable(model, *_zero_dynamics(model, chunk), tol)
        for sel, skip in zip(chunk, unstable.tolist()):
            if not skip:
                rep = classify_selection(model, sel, tol)
                if rep.stable:
                    return rep
        start, size = start + size, 2 * size
    return None
