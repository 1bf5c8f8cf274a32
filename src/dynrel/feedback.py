"""Closed-loop structure of a pair of coupled rational maps.

A forward map F (u to y) and a return map H (y to u), driven by two
noise sources, form the loop ``y = F u + v``, ``u = H y + r``. The
transfer matrix from (v, r) to (y, u) is

    T = [[P, P F], [Q H, Q]],   P = (I - F H)^{-1},  Q = (I - H F)^{-1},

with the interchange identities ``P F = F Q`` and ``H P = Q H``.
Stationarity of the driven processes forces T to be stable, which is
why an unstable F can only occur together with a nonzero stabilizing H.
On the prediction side: the past of u improves prediction of y exactly
when F is nonzero, and the loop is feedback-free exactly when H is
identically zero, in which case F must be strictly stable.
"""

import numpy as np
import scipy.linalg
from dataclasses import dataclass

from .errors import AlgebraicLoopSingular
from .kernels import DEFAULT_TOL, Tolerances, as_matrix, is_invertible
from .lti import StateSpace, freq_response, is_strictly_stable
from .spectral import default_grid

__all__ = [
    "FeedbackModel",
    "ClosedLoop",
    "FeedbackFreeVerdict",
    "closed_loop_T",
    "internal_stability",
    "verify_interchange_identities",
    "granger_verdict",
    "granger_causes",
    "feedback_free",
]


@dataclass
class FeedbackModel:
    """Forward map F (p x q), return map H (q x p), and optional constant
    noise intensities for the two sources."""

    F: StateSpace
    H: StateSpace
    phi_v: np.ndarray | None = None
    phi_r: np.ndarray | None = None

    def __post_init__(self):
        p, q = self.F.n_out, self.F.n_in
        if (self.H.n_out, self.H.n_in) != (q, p):
            raise ValueError(
                f"H must be {q}x{p} to close the loop with a {p}x{q} F, "
                f"got {self.H.n_out}x{self.H.n_in}")
        if self.phi_v is not None:
            self.phi_v = as_matrix(self.phi_v, square=True, name="phi_v")
            if self.phi_v.shape[0] != p:
                raise ValueError(f"phi_v must be {p}x{p}")
        if self.phi_r is not None:
            self.phi_r = as_matrix(self.phi_r, square=True, name="phi_r")
            if self.phi_r.shape[0] != q:
                raise ValueError(f"phi_r must be {q}x{q}")

    @property
    def p(self) -> int:
        return self.F.n_out

    @property
    def q(self) -> int:
        return self.F.n_in


@dataclass
class ClosedLoop:
    """The four blocks of T plus the combined realization.

    Block realizations share the loop state (they are not reduced).
    ``internally_stable`` is decided on T itself: T strictly stable.
    """

    T: StateSpace
    P: StateSpace
    PF: StateSpace
    QH: StateSpace
    Q: StateSpace
    internally_stable: bool


def _subsystem(ss: StateSpace, rows: slice, cols: slice) -> StateSpace:
    return StateSpace(ss.A, ss.B[:, cols], ss.C[rows, :], ss.D[rows, cols])


def closed_loop_T(fm: FeedbackModel, tol: Tolerances = DEFAULT_TOL) -> ClosedLoop:
    """Realize the closed-loop transfer matrix T by state-space
    interconnection of F and H.

    Well-posedness is decided on the feedthroughs: the static loop
    matrix ``[[I, -D_F], [-D_H, I]]`` must be numerically invertible.

    Raises
    ------
    AlgebraicLoopSingular
        The static loop matrix is numerically singular.
    """
    f, h = fm.F, fm.H
    p, q = fm.p, fm.q
    loop = np.block([
        [np.eye(p), -f.D],
        [-h.D, np.eye(q)],
    ])
    if not is_invertible(loop):
        raise AlgebraicLoopSingular(
            "I - D_F D_H is numerically singular; the loop is not well posed")
    loop_inv = np.linalg.inv(loop)
    a_open = scipy.linalg.block_diag(f.A, h.A)
    c_stack = np.block([
        [f.C, np.zeros((p, h.n))],
        [np.zeros((q, f.n)), h.C],
    ])
    b_mix = np.block([
        [np.zeros((f.n, p)), f.B],
        [h.B, np.zeros((h.n, q))],
    ])
    t = StateSpace(
        a_open + b_mix @ loop_inv @ c_stack,
        b_mix @ loop_inv,
        loop_inv @ c_stack,
        loop_inv,
    )
    y, u = slice(0, p), slice(p, p + q)  # the rows (y, u) and the columns (v, r) of T
    return ClosedLoop(T=t, P=_subsystem(t, y, y), PF=_subsystem(t, y, u),
                      QH=_subsystem(t, u, y), Q=_subsystem(t, u, u),
                      internally_stable=is_strictly_stable(t, tol))


def internal_stability(fm: FeedbackModel, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the closed-loop transfer matrix T is strictly stable; its
    poles are the union of the poles of the four blocks."""
    return closed_loop_T(fm, tol).internally_stable


def verify_interchange_identities(
    fm: FeedbackModel, grid=None, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Largest residual of ``P F - F Q`` and ``H P - Q H`` over the grid
    of imaginary-axis frequencies (defaults to the package grid)."""
    return _interchange_residual(fm, closed_loop_T(fm, tol), grid)


def _interchange_residual(fm: FeedbackModel, cl: ClosedLoop, grid=None) -> float:
    """:func:`verify_interchange_identities` on an already built closed
    loop ``cl`` of ``fm``."""
    s = 1j * np.asarray(default_grid() if grid is None else grid, dtype=float)
    f_val = freq_response(fm.F, s)
    h_val = freq_response(fm.H, s)
    t_val = freq_response(cl.T, s)
    p_val, q_val = t_val[:, :fm.p, :fm.p], t_val[:, fm.p:, fm.p:]  # diagonal blocks of T
    pf_fq = np.linalg.norm(p_val @ f_val - f_val @ q_val, 2, axis=(1, 2))
    hp_qh = np.linalg.norm(h_val @ p_val - q_val @ h_val, 2, axis=(1, 2))
    return float(max(pf_fq.max(initial=0.0), hp_qh.max(initial=0.0)))


def granger_verdict(F: StateSpace, tol: Tolerances = DEFAULT_TOL, grid=None) -> tuple[bool, float]:
    """:func:`granger_causes` together with the peak gain it was decided
    on, the largest 2-norm of ``F`` over the imaginary-axis grid (defaults
    to the package grid). :func:`feedback_free` applies it to H."""
    s = 1j * np.asarray(default_grid() if grid is None else grid, dtype=float)
    peak = float(np.linalg.norm(freq_response(F, s), 2, axis=(1, 2)).max())
    return peak > tol.residual_tol, peak


def granger_causes(F: StateSpace, tol: Tolerances = DEFAULT_TOL, grid=None) -> bool:
    """Whether the past of u improves linear prediction of y: true iff
    the forward map is nonzero, decided as a peak gain above
    ``residual_tol`` on the frequency grid."""
    return granger_verdict(F, tol, grid)[0]


@dataclass
class FeedbackFreeVerdict:
    """Outcome of the feedback-freeness test.

    ``h_zero`` reports whether the return map vanishes on the grid.
    When it does, ``f_stable`` records the stability check that
    stationarity then forces on F, and ``inconsistent`` flags the
    combination of a vanishing H with an unstable F.
    """

    h_zero: bool
    f_stable: bool | None
    inconsistent: bool


def feedback_free(
    H: StateSpace,
    F: StateSpace,
    tol: Tolerances = DEFAULT_TOL,
    grid=None,
) -> FeedbackFreeVerdict:
    """Test for absence of feedback (H identically zero) and, when it is
    absent, the consistency requirement that F be strictly stable."""
    h_zero = not granger_verdict(H, tol, grid)[0]
    if not h_zero:
        return FeedbackFreeVerdict(h_zero=False, f_stable=None, inconsistent=False)
    f_stable = is_strictly_stable(F, tol)
    return FeedbackFreeVerdict(h_zero=True, f_stable=f_stable, inconsistent=not f_stable)
