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

Every function here takes the realizations F, H and T as they are:
:func:`closed_loop_T` builds T from F and H, and the loop is internally
stable when T is strictly stable (:func:`dynrel.lti.is_strictly_stable`).
"""

import numpy as np
import scipy.linalg
from dataclasses import dataclass

from .errors import AlgebraicLoopSingular
from .kernels import DEFAULT_TOL, Tolerances, is_invertible, norm2
from .lti import StateSpace, freq_response, is_strictly_stable
from .spectral import default_grid

__all__ = [
    "FeedbackFreeVerdict",
    "closed_loop_T",
    "verify_interchange_identities",
    "granger_verdict",
    "feedback_free",
]

#: Frequencies (rad/s) on which the interchange identities are checked.
_INTERCHANGE_GRID = np.logspace(-2, 2, 20)


def closed_loop_T(F: StateSpace, H: StateSpace) -> StateSpace:
    """Realize the closed-loop transfer matrix T of the forward map F
    (p x q) and the return map H (q x p) by state-space interconnection,
    with rows (y, u) and columns (v, r).

    Well-posedness is decided on the feedthroughs: the static loop
    matrix ``[[I, -D_F], [-D_H, I]]`` must be numerically invertible.

    Raises
    ------
    ValueError
        H is not q x p.
    AlgebraicLoopSingular
        The static loop matrix is numerically singular.
    """
    p, q = F.n_out, F.n_in
    if (H.n_out, H.n_in) != (q, p):
        raise ValueError(
            f"H must be {q}x{p} to close the loop with a {p}x{q} F, "
            f"got {H.n_out}x{H.n_in}")
    loop = np.block([[np.eye(p), -F.D], [-H.D, np.eye(q)]])
    if not is_invertible(loop):
        raise AlgebraicLoopSingular(
            "I - D_F D_H is numerically singular; the loop is not well posed")
    loop_inv = np.linalg.inv(loop)
    a_open = scipy.linalg.block_diag(F.A, H.A)
    c_stack = np.block([
        [F.C, np.zeros((p, H.n))],
        [np.zeros((q, F.n)), H.C],
    ])
    b_mix = np.block([
        [np.zeros((F.n, p)), F.B],
        [H.B, np.zeros((H.n, q))],
    ])
    return StateSpace(
        a_open + b_mix @ loop_inv @ c_stack,
        b_mix @ loop_inv,
        loop_inv @ c_stack,
        loop_inv,
    )


def verify_interchange_identities(F: StateSpace, H: StateSpace, T: StateSpace) -> float:
    """Largest residual of ``P F - F Q`` and ``H P - Q H`` over 20
    log-spaced imaginary-axis frequencies in [1e-2, 1e2] rad/s, with P
    and Q the diagonal blocks of the closed loop ``T = closed_loop_T(F, H)``."""
    p = F.n_out
    s = 1j * _INTERCHANGE_GRID
    f_val = freq_response(F, s)
    h_val = freq_response(H, s)
    t_val = freq_response(T, s)
    p_val, q_val = t_val[:, :p, :p], t_val[:, p:, p:]
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

    @property
    def inconsistent(self) -> bool:
        return self.h_zero and self.f_stable is False


def feedback_free(H: StateSpace, F: StateSpace,
                  tol: Tolerances = DEFAULT_TOL) -> FeedbackFreeVerdict:
    """Test for absence of feedback (H identically zero) and, when it is
    absent, the consistency requirement that F be strictly stable.
    Raises ValueError as :func:`granger_verdict` does on H."""
    if granger_verdict(H, tol)[0]:
        return FeedbackFreeVerdict(h_zero=False, f_stable=None)
    return FeedbackFreeVerdict(h_zero=True, f_stable=is_strictly_stable(F, tol))
