"""Frequency-domain view of a model: the frequency grid and the rank
profile of the spectral density ``W(iw) W(iw)*`` over it. The relation
module computes F from a realization; the density-block formula
``F = Phi_yu Phi_u^{-1}`` is an identity the tests check against it."""

import numpy as np
from collections import Counter

from .errors import RankInconsistent
from .kernels import DEFAULT_TOL, Tolerances, numerical_rank
from .lti import CtModel, freq_response

__all__ = ["default_grid", "spectral_rank_profile"]


def default_grid(lo: float = 1e-3, hi: float = 1e3, count: int = 200) -> np.ndarray:
    """Logarithmically spaced frequency grid in rad/s; the bounds must
    be finite and positive, else ``ValueError``."""
    if not (0 < lo < np.inf and 0 < hi < np.inf and count >= 1):
        raise ValueError("grid bounds must be finite and positive, and count >= 1")
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _density(w: np.ndarray) -> np.ndarray:
    """``W W*`` of each matrix in the stack ``w``, made exactly Hermitian."""
    phi = w @ w.conj().swapaxes(1, 2)
    return 0.5 * (phi + phi.conj().swapaxes(1, 2))


def spectral_rank_profile(model: CtModel, grid, tol: Tolerances = DEFAULT_TOL) -> int:
    """Modal numerical rank of the spectral density over the grid.

    Isolated deviations (rank drops at zeros of the spectral factor) are
    tolerated up to 5% of the grid; beyond that the grid is considered
    inconsistent. For a validated model the result equals ``model.m``
    almost everywhere, which callers may check.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    ranks = numerical_rank(_density(freq_response(model.ss, 1j * grid)), tol)
    mode, _ = Counter(ranks.tolist()).most_common(1)[0]  # ties go to the first seen
    deviations = int(np.count_nonzero(ranks != mode))
    allowed = max(1, grid.size // 20)
    if deviations > allowed:
        raise RankInconsistent(
            f"{deviations} of {grid.size} grid points deviate from modal rank {mode}")
    return int(mode)

