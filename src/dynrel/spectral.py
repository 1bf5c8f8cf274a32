"""Frequency-domain view of a model: spectral density samples, block
partitions, rank profile over a grid, and the direct formula recovering
the deterministic relation from the density blocks."""

import numpy as np
from collections import Counter
from dataclasses import dataclass

from .errors import PhiUSingular, RankInconsistent
from .kernels import DEFAULT_TOL, Tolerances, is_invertible, numerical_rank
from .lti import CtModel, freq_response

__all__ = [
    "PartitionSpec",
    "SpectrumSample",
    "default_grid",
    "spectral_density_eval",
    "spectral_rank_profile",
    "f_from_spectrum_eval",
]


def default_grid(lo: float = 1e-3, hi: float = 1e3, count: int = 200) -> np.ndarray:
    """Logarithmically spaced frequency grid in rad/s."""
    if not (lo > 0 and hi > 0 and count >= 1):
        raise ValueError("grid bounds must be positive and count >= 1")
    return np.logspace(np.log10(lo), np.log10(hi), count)


@dataclass
class PartitionSpec:
    """Split of the output channels into p driven channels (y) followed
    by q driving channels (u).

    ``row_order`` permutes the original channel indices into (y, u)
    order; the first p entries name the y-channels.
    """

    p: int
    q: int
    row_order: tuple[int, ...]

    def __post_init__(self):
        self.row_order = tuple(int(i) for i in self.row_order)
        if self.p < 0 or self.q <= 0:
            raise ValueError("need p >= 0 and q >= 1 channels")
        if sorted(self.row_order) != list(range(self.p + self.q)):
            raise ValueError(
                f"row_order {self.row_order} is not a permutation of 0..{self.p + self.q - 1}")

    @classmethod
    def from_u_rows(cls, u_rows, total: int) -> "PartitionSpec":
        """Partition taking ``u_rows`` (original indices) as the driving
        channels and the remaining rows, in original order, as driven."""
        u = tuple(int(i) for i in u_rows)
        y = tuple(i for i in range(total) if i not in set(u))
        return cls(p=len(y), q=len(u), row_order=y + u)


@dataclass
class SpectrumSample:
    """Spectral density value at one frequency.

    ``phi`` is Hermitian PSD. When a partition is attached, ``phi`` is
    stored in (y, u) channel order and the four blocks are available as
    properties; without a partition the original channel order is kept.
    """

    omega: float
    phi: np.ndarray
    part: PartitionSpec | None = None

    def _blocks(self):
        if self.part is None:
            raise ValueError("sample carries no partition; blocks undefined")
        p = self.part.p
        return self.phi[:p, :p], self.phi[:p, p:], self.phi[p:, :p], self.phi[p:, p:]

    @property
    def phi_y(self) -> np.ndarray:
        return self._blocks()[0]

    @property
    def phi_yu(self) -> np.ndarray:
        return self._blocks()[1]

    @property
    def phi_uy(self) -> np.ndarray:
        return self._blocks()[2]

    @property
    def phi_u(self) -> np.ndarray:
        return self._blocks()[3]


def _density(w: np.ndarray) -> np.ndarray:
    """``W W*`` of each matrix in the stack ``w``, made exactly Hermitian."""
    phi = w @ w.conj().swapaxes(1, 2)
    return 0.5 * (phi + phi.conj().swapaxes(1, 2))


def spectral_density_eval(
    model: CtModel, omega: float, part: PartitionSpec | None = None
) -> SpectrumSample:
    """Spectral density ``W(iw) W(iw)*`` of the model output at ``omega``.

    Hurwitz A guarantees the imaginary axis is pole-free, so this never
    fails for a validated model.
    """
    w = freq_response(model.ss, [1j * float(omega)])
    if part is not None:
        if part.p + part.q != model.n_out:
            raise ValueError(
                f"partition covers {part.p + part.q} channels, model has {model.n_out}")
        w = w[:, list(part.row_order), :]
    return SpectrumSample(omega=float(omega), phi=_density(w)[0], part=part)


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


def f_from_spectrum_eval(
    model: CtModel,
    part: PartitionSpec,
    omega: float,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Deterministic relation recovered from the density blocks:
    ``Phi_yu(iw) Phi_u(iw)^{-1}``.

    For an admissible row selection this agrees with the realization
    produced by the relation module at every frequency, since the ratio
    depends only on the spectral density and not on the chosen factor.

    Raises
    ------
    PhiUSingular
        ``Phi_u(iw)`` has condition number at or above the
        invertibility ceiling.
    """
    sample = spectral_density_eval(model, omega, part)
    phi_u = sample.phi_u
    if not is_invertible(phi_u):
        raise PhiUSingular(f"Phi_u is numerically singular at omega = {omega:.6g}")
    return np.linalg.solve(phi_u.T, sample.phi_yu.T).T
