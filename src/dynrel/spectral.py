"""Frequency-domain view of a model: the frequency grid and the rank
profile of the spectral density ``W(iw) W(iw)*`` over it, read off the
singular values of ``W(iw)``. The relation
module computes F from a realization; the density-block formula
``F = Phi_yu Phi_u^{-1}`` is an identity the tests check against it."""

import numpy as np
from collections import Counter

from .errors import RankInconsistent
from .kernels import DEFAULT_TOL, Tolerances, rank_from_values
from .lti import CtModel, freq_response

__all__ = ["default_grid", "spectral_rank_profile"]


def default_grid(lo: float = 1e-3, hi: float = 1e3, count: int = 200) -> np.ndarray:
    """Logarithmically spaced frequency grid in rad/s; the bounds must
    be finite and positive, else ``ValueError``."""
    if not (0 < lo < np.inf and 0 < hi < np.inf and count >= 1):
        raise ValueError("grid bounds must be finite and positive, and count >= 1")
    return np.logspace(np.log10(lo), np.log10(hi), count)


def spectral_rank_profile(model: CtModel, grid, tol: Tolerances = DEFAULT_TOL) -> int:
    """Modal numerical rank of the spectral density over the grid.

    The rank of ``W W*`` at each point is the rank of its factor ``W``, by
    the rule of :func:`numerical_rank` on the singular values of ``W`` (the
    cut validation puts on B and CB); ``W W*`` itself is not formed.
    Isolated deviations (rank drops at zeros of the spectral factor) are
    tolerated up to 5% of the grid; beyond that the grid is considered
    inconsistent. For a validated model the result equals ``model.m``
    almost everywhere, which callers may check.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    w = freq_response(model, 1j * grid)
    s = np.linalg.svd(w, compute_uv=False)
    ranks = rank_from_values(s, model.n_out, tol)
    mode, _ = Counter(ranks.tolist()).most_common(1)[0]  # ties go to the first seen
    deviations = int(np.count_nonzero(ranks != mode))
    allowed = max(1, grid.size // 20)
    if deviations > allowed:
        raise RankInconsistent(
            f"{deviations} of {grid.size} grid points deviate from modal rank {mode}")
    return int(mode)

