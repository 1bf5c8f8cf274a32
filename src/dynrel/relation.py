"""Extraction of the hidden deterministic relation between sub-processes.

Given a validated model with m shock channels, any m rows of C whose
product with B is invertible can serve as the driving channels u; the
remaining rows become the driven channels y. Each admissible selection
induces the matrix ``Gamma = A - B (C0 B)^{-1} C0 A`` and an exact
rational map F(s) from u to y, realized as

    F(s) = C1 B (C0 B)^{-1} + C1 Gamma (sI - Gamma)^{-1} B (C0 B)^{-1},

equivalently ``s C1 (sI - Gamma)^{-1} B (C0 B)^{-1}``. The zero
eigenvalues of Gamma cancel in the reduction, so the minimal degree is
at most n - m. Whether a selection with strictly stable F exists is a
property of the model, not a given: some models admit none.
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
from .kernels import DEFAULT_TOL, Tolerances, is_invertible, numerical_rank
from .lti import (
    CtModel,
    StateSpace,
    minimal_realization,
    poles_stable,
    sorted_eigvals,
)

__all__ = [
    "SELECTION_CAP",
    "RowSelection",
    "RelationReport",
    "enumerate_selections",
    "compute_gamma",
    "compute_F_raw",
    "classify_selection",
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


def _split_c(model: CtModel, sel: RowSelection):
    c = model.C
    n_out = model.n_out
    for idx in sel.rows0 + sel.rows1:
        if not 0 <= idx < n_out:
            raise InadmissibleSelection(f"row index {idx} out of range 0..{n_out - 1}")
    return c[list(sel.rows0), :], c[list(sel.rows1), :]


def _admissible_selections(model: CtModel, cap: int):
    """Yield the admissible selections in lexicographic order of
    ``rows0``; raise before the first subset is tested when there are
    more than ``cap`` subsets, and after the last one when none was
    admissible."""
    n_out, m = model.n_out, model.m
    if comb(n_out, m) > cap:
        raise SelectionLimitExceeded(
            f"{comb(n_out, m)} candidate subsets exceed the cap of {cap}")
    found = False
    for rows0 in itertools.combinations(range(n_out), m):
        c0b = model.C[list(rows0), :] @ model.B
        if is_invertible(c0b):
            found = True
            rows1 = tuple(i for i in range(n_out) if i not in rows0)
            yield RowSelection(rows0=rows0, rows1=rows1)
    if not found:
        raise NoAdmissibleSelection("no row subset gives an invertible C0 B")


def enumerate_selections(model: CtModel, cap: int = SELECTION_CAP) -> list[RowSelection]:
    """All admissible selections, in lexicographic order of ``rows0``.

    A subset is admissible when its C0 B has condition number below the
    invertibility ceiling.

    Raises
    ------
    SelectionLimitExceeded
        More than ``cap`` subsets would have to be examined.
    NoAdmissibleSelection
        Every subset fails the invertibility test.
    """
    return list(_admissible_selections(model, cap))


def compute_gamma(model: CtModel, sel: RowSelection, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """``Gamma = A - B (C0 B)^{-1} C0 A`` for the given selection.

    Since ``B (C0 B)^{-1} C0`` is an (always diagonalizable) oblique
    projection with trace m, Gamma has rank n - m with at least m zero
    eigenvalues; its nonzero eigenvalues are the candidate poles of F.
    """
    c0, _ = _split_c(model, sel)
    if len(sel.rows0) != model.m:
        raise InadmissibleSelection(
            f"selection picks {len(sel.rows0)} rows, model needs m = {model.m}")
    c0b = c0 @ model.B
    if not is_invertible(c0b):
        raise InadmissibleSelection(
            f"C0 B for rows {sel.rows0} is not numerically invertible")
    x = np.linalg.solve(c0b, c0 @ model.A)
    gamma = model.A - model.B @ x
    # when m = n the projection is the identity and Gamma vanishes in
    # exact arithmetic; snap the all-cancellation case to a true zero so
    # rank and degree decisions downstream are not fooled by noise
    noise_floor = tol.rank_rtol * model.n * np.linalg.norm(model.A, 2)
    if np.linalg.norm(gamma, 2) <= noise_floor:
        gamma = np.zeros_like(gamma)
    return gamma


def compute_F_raw(model: CtModel, sel: RowSelection, tol: Tolerances = DEFAULT_TOL) -> StateSpace:
    """Dimension-n realization of F(s), prior to degree reduction."""
    gamma = compute_gamma(model, sel, tol)  # also tests admissibility
    c0, c1 = _split_c(model, sel)
    k = np.linalg.solve((c0 @ model.B).T, model.B.T).T  # B (C0 B)^{-1}
    return StateSpace(gamma, k, c1 @ gamma, c1 @ k)


def _report(sel: RowSelection, f_raw: StateSpace, f_min: StateSpace, tol: Tolerances) -> RelationReport:
    """Report on ``sel`` from its raw realization and the reduction of it."""
    f_poles = sorted_eigvals(f_min.A)
    return RelationReport(
        selection=sel,
        gamma=f_raw.A,
        gamma_eigs=sorted_eigvals(f_raw.A),
        F=f_min,
        F_raw=f_raw,
        degree=f_min.n,
        stable=poles_stable(f_poles, tol),
        poles=f_poles,
    )


def classify_selection(model: CtModel, sel: RowSelection, tol: Tolerances = DEFAULT_TOL) -> RelationReport:
    """Full report for one admissible selection.

    Gamma is the state matrix of the raw realization, which is reduced
    once. ``poles`` are the sorted eigenvalues of the reported minimal
    F, and ``stable`` is decided on those same poles.
    """
    f_raw = compute_F_raw(model, sel, tol)
    return _report(sel, f_raw, minimal_realization(f_raw, tol), tol)


def stable_selection_exists(model: CtModel, tol: Tolerances = DEFAULT_TOL) -> RelationReport | None:
    """:func:`classify_selection` of the first (lexicographic) selection
    whose F is strictly stable, or None when every admissible selection
    yields an unstable relation.

    The subsets are tested one at a time, each with one minimal
    realization, and the search stops at the first stable one: subsets
    after it are neither condition-tested nor reduced, and a rejected
    subset costs only its stability test.

    Raises
    ------
    SelectionLimitExceeded
        More than ``SELECTION_CAP`` subsets would have to be examined;
        raised before any subset is tested.
    NoAdmissibleSelection
        Every subset fails the invertibility test.
    """
    for sel in _admissible_selections(model, SELECTION_CAP):
        f_raw = compute_F_raw(model, sel, tol)
        f_min = minimal_realization(f_raw, tol)
        if poles_stable(np.linalg.eigvals(f_min.A), tol):
            return _report(sel, f_raw, f_min, tol)
    return None


def has_full_eigenbasis(m, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Numerical test that a square matrix has n independent
    eigenvectors (eigenvector-matrix rank at the rank tolerance)."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    _, vecs = np.linalg.eig(a)
    return numerical_rank(vecs, tol) == a.shape[0]
