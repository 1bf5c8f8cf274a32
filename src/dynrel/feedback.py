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
from .kernels import DEFAULT_TOL, Tolerances, is_invertible, norm2
from .lti import StateSpace, freq_response, is_strictly_stable
from .spectral import default_grid

__all__ = [
    "FeedbackModel",
    "ClosedLoop",
    "FeedbackFreeVerdict",
    "closed_loop_T",
    "verify_interchange_identities",
    "granger_verdict",
    "feedback_free",
]

#: Frequencies (rad/s) on which the interchange identities are checked.
_INTERCHANGE_GRID = np.logspace(-2, 2, 20)


@dataclass
class FeedbackModel:
    """Forward map F (p x q) and return map H (q x p)."""

    F: StateSpace
    H: StateSpace

    def __post_init__(self):
        p, q = self.F.n_out, self.F.n_in
        if (self.H.n_out, self.H.n_in) != (q, p):
            raise ValueError(
                f"H must be {q}x{p} to close the loop with a {p}x{q} F, "
                f"got {self.H.n_out}x{self.H.n_in}")

    @property
    def p(self) -> int:
        return self.F.n_out

    @property
    def q(self) -> int:
        return self.F.n_in


@dataclass
class ClosedLoop:
    """The loop (F, H) and the combined realization T, with rows (y, u)
    and columns (v, r). ``internally_stable`` is decided on T itself:
    T strictly stable.
    """

    loop: FeedbackModel
    T: StateSpace
    internally_stable: bool


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
    return ClosedLoop(loop=fm, T=t, internally_stable=is_strictly_stable(t, tol))


def verify_interchange_identities(cl: ClosedLoop) -> float:
    """Largest residual of ``P F - F Q`` and ``H P - Q H`` over 20
    log-spaced imaginary-axis frequencies in [1e-2, 1e2] rad/s."""
    fm = cl.loop
    s = 1j * _INTERCHANGE_GRID
    f_val = freq_response(fm.F, s)
    h_val = freq_response(fm.H, s)
    t_val = freq_response(cl.T, s)
    p_val, q_val = t_val[:, :fm.p, :fm.p], t_val[:, fm.p:, fm.p:]  # diagonal blocks of T
    pf_fq = norm2(p_val @ f_val - f_val @ q_val)
    hp_qh = norm2(h_val @ p_val - q_val @ h_val)
    return float(max(pf_fq.max(), hp_qh.max()))


def granger_verdict(F: StateSpace, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether the past of u improves linear prediction of y, and the peak
    gain it was decided on. True iff the forward map is nonzero: its
    largest 2-norm over the imaginary axis, sampled on the package grid,
    exceeds ``residual_tol``, an absolute bound. :func:`feedback_free`
    applies it to H.

    Raises
    ------
    ValueError
        The peak gain is not finite (the evaluation overflowed), so no
        verdict can be decided on it.
    """
    s = 1j * default_grid()
    peak = float(norm2(freq_response(F, s)).max())
    if not np.isfinite(peak):
        raise ValueError(f"non-finite peak gain: {peak}")
    return peak > tol.residual_tol, peak


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


def feedback_free(H: StateSpace, F: StateSpace,
                  tol: Tolerances = DEFAULT_TOL) -> FeedbackFreeVerdict:
    """Test for absence of feedback (H identically zero) and, when it is
    absent, the consistency requirement that F be strictly stable.
    Raises ValueError as :func:`granger_verdict` does on H."""
    h_zero = not granger_verdict(H, tol)[0]
    if not h_zero:
        return FeedbackFreeVerdict(h_zero=False, f_stable=None, inconsistent=False)
    f_stable = is_strictly_stable(F, tol)
    return FeedbackFreeVerdict(h_zero=True, f_stable=f_stable, inconsistent=not f_stable)
