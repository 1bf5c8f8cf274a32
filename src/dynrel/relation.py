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
from .kernels import DEFAULT_TOL, Tolerances, is_invertible, numerical_rank, sorted_eigvals
from .lti import CtModel, StateSpace, minimal_realizations, poles_stable

__all__ = [
    "SELECTION_CAP",
    "RowSelection",
    "RelationReport",
    "enumerate_selections",
    "classify_selection",
    "classify_selections",
    "stable_selection_exists",
    "has_full_eigenbasis",
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


def enumerate_selections(model: CtModel, cap: int = SELECTION_CAP) -> list[RowSelection]:
    """All admissible selections, in lexicographic order of ``rows0``.

    A subset is admissible when its C0 B has condition number below the
    invertibility ceiling. All ``comb(n_out, m)`` subsets are tested by
    one batched :func:`is_invertible` call, whose verdict on each C0 B is
    the one that matrix gets alone.

    Raises
    ------
    SelectionLimitExceeded
        More than ``cap`` subsets would have to be examined; raised
        before any subset is tested.
    NoAdmissibleSelection
        Every subset fails the invertibility test.
    """
    n_out, m = model.n_out, model.m
    if comb(n_out, m) > cap:
        raise SelectionLimitExceeded(
            f"{comb(n_out, m)} candidate subsets exceed the cap of {cap}")
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
    k = len(sels)
    c0 = model.C[np.array([sel.rows0 for sel in sels], dtype=np.intp).reshape(k, -1)]
    c1 = model.C[np.array([sel.rows1 for sel in sels], dtype=np.intp).reshape(k, -1)]
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


def stable_selection_exists(model: CtModel, tol: Tolerances = DEFAULT_TOL) -> RelationReport | None:
    """The report of the first (lexicographic) selection whose F is
    strictly stable, or None when every admissible selection yields an
    unstable relation.

    Whether the first subset is stable cannot be known before it is
    reduced, so every admissible selection is classified as one stack by
    :func:`classify_selections`, as ``relation --all`` does, and the
    first stable report is read off that stack.

    Raises
    ------
    SelectionLimitExceeded
        More than ``SELECTION_CAP`` subsets would have to be examined;
        raised before any subset is tested.
    NoAdmissibleSelection
        Every subset fails the invertibility test.
    """
    reports = classify_selections(model, enumerate_selections(model, SELECTION_CAP), tol)
    return next((rep for rep in reports if rep.stable), None)


def has_full_eigenbasis(m, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Numerical test that a square matrix has n independent
    eigenvectors (eigenvector-matrix rank at the rank tolerance)."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    _, vecs = np.linalg.eig(a)
    return numerical_rank(vecs, tol) == a.shape[0]
