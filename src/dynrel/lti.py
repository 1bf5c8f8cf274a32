"""State-space realizations of proper rational transfer matrices and
validated continuous-time stochastic models.

Transfer-function equality throughout the package is evaluation-based:
two systems are considered equal when their values agree on a probe set
(see :func:`probe_points`), never through polynomial coefficients.
"""

import numpy as np
from dataclasses import dataclass

from .errors import (
    BColumnDeficient,
    DNotInvertible,
    NotObservable,
    NotReachable,
    NotStable,
    PoleHit,
    RankCBDeficient,
)
from .kernels import DEFAULT_TOL, POLE_COND_LIMIT, Tolerances, as_matrix, is_invertible, numerical_rank

__all__ = [
    "StateSpace",
    "CtModel",
    "freq_response",
    "tf_eval",
    "sorted_eigvals",
    "poles_stable",
    "poles",
    "minimal_realization",
    "mcmillan_degree",
    "is_strictly_stable",
    "ss_inverse",
    "validate_ct_model",
    "probe_points",
    "evaluation_gap",
]


@dataclass
class StateSpace:
    """Realization ``C (sI - A)^{-1} B + D`` of a proper rational matrix.

    ``A`` may be 0x0, which represents a constant (static gain) system.
    Instances are treated as immutable by every function in the package.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray | None = None

    def __post_init__(self):
        self.A = as_matrix(self.A, square=True, name="A")
        self.B = as_matrix(self.B, name="B")
        self.C = as_matrix(self.C, name="C")
        n = self.A.shape[0]
        if self.B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {self.B.shape}")
        if self.C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {self.C.shape}")
        if self.D is None:
            self.D = np.zeros((self.C.shape[0], self.B.shape[1]))
        else:
            self.D = as_matrix(self.D, name="D")
            if self.D.shape != (self.C.shape[0], self.B.shape[1]):
                raise ValueError(
                    f"D must be {self.C.shape[0]}x{self.B.shape[1]}, got {self.D.shape}")

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def n_in(self) -> int:
        return self.B.shape[1]

    @property
    def n_out(self) -> int:
        return self.C.shape[0]

    @classmethod
    def constant(cls, d) -> "StateSpace":
        """Static-gain system with value ``d`` and no dynamics."""
        d = as_matrix(d, name="D")
        return cls(np.zeros((0, 0)), np.zeros((0, d.shape[1])),
                   np.zeros((d.shape[0], 0)), d)

    @classmethod
    def zero(cls, n_out: int, n_in: int) -> "StateSpace":
        """Identically zero transfer function of the given shape."""
        return cls.constant(np.zeros((n_out, n_in)))


@dataclass
class CtModel:
    """Validated continuous-time stochastic model (A, B, C) with zero
    feedthrough.

    ``m`` is the number of shock channels, equal to rank(CB) and to the
    rank of the output spectral density almost everywhere.
    """

    ss: StateSpace
    m: int
    labels: tuple[str, ...] | None = None

    @property
    def A(self) -> np.ndarray:
        return self.ss.A

    @property
    def B(self) -> np.ndarray:
        return self.ss.B

    @property
    def C(self) -> np.ndarray:
        return self.ss.C

    @property
    def n(self) -> int:
        return self.ss.n

    @property
    def n_out(self) -> int:
        return self.ss.n_out


def freq_response(ss: StateSpace, points) -> np.ndarray:
    """``C (sI - A)^{-1} B + D`` at each point of the 1-d sequence
    ``points``, as a ``(k, n_out, n_in)`` complex array: one stack of
    ``sI - A``, one batched pole test and one batched solve (Laub 1981).

    Raises
    ------
    PoleHit
        ``sI - A`` is numerically singular at a point (the first is named).
    """
    s = np.asarray(points, dtype=np.complex128)
    if ss.n == 0:
        return np.broadcast_to(ss.D, (s.size, *ss.D.shape)).astype(np.complex128)
    # built in place: a broadcast ``s * I - A`` would allocate a second stack
    f = np.empty((s.size, ss.n, ss.n), dtype=np.complex128)
    f[:] = -ss.A
    diag = np.arange(ss.n)
    f[:, diag, diag] += s[:, None]
    hit = ~is_invertible(f, POLE_COND_LIMIT)
    if hit.any():
        raise PoleHit(f"evaluation point {complex(s[hit.argmax()]):.6g} is numerically a pole")
    x = np.linalg.solve(f, ss.B.astype(np.complex128)[None])
    return ss.C @ x + ss.D


def tf_eval(ss: StateSpace, s: complex) -> np.ndarray:
    """:func:`freq_response` at the one complex point ``s``."""
    return freq_response(ss, [s])[0]


def _orth(m: np.ndarray, rtol: float, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis for the columns of ``m`` whose singular value
    exceeds ``rtol * scale``; ``scale`` defaults to the largest singular
    value of ``m``."""
    if m.shape[0] == 0 or m.shape[1] == 0:
        return np.zeros((m.shape[0], 0), dtype=m.dtype)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, s > rtol * (s[0] if scale is None else scale)]


def _controllable_basis(a: np.ndarray, b: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Orthonormal basis of the smallest A-invariant subspace containing
    range(B), by staircase expansion with SVD rank decisions.

    Rank cutoffs are referenced to the scale of B (first block) and of A
    (grown blocks), so the decisions are invariant under a global
    rescaling of the system.
    """
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    v = _orth(b, tol.rank_rtol * max(b.shape))
    if v.shape[1] == 0:
        return v
    a_scale = float(np.linalg.norm(a, 2))
    fresh = v
    while v.shape[1] < n and fresh.shape[1] > 0:
        w = a @ fresh
        w = w - v @ (v.conj().T @ w)
        w = w - v @ (v.conj().T @ w)
        fresh = _orth(w, tol.rank_rtol * n, a_scale)
        if fresh.shape[1]:
            v = np.hstack([v, fresh])
    return v


def minimal_realization(ss: StateSpace, tol: Tolerances = DEFAULT_TOL) -> StateSpace:
    """Minimal realization with the same transfer function.

    Staircase reduction: project onto the reachable subspace, then onto
    the observable subspace of the result. The returned state dimension
    is the McMillan degree up to the rank tolerance.
    """
    v = _controllable_basis(ss.A, ss.B, tol)
    a = v.conj().T @ ss.A @ v
    b = v.conj().T @ ss.B
    c = ss.C @ v
    w = _controllable_basis(a.conj().T, c.conj().T, tol)
    a2 = w.conj().T @ a @ w
    b2 = w.conj().T @ b
    c2 = c @ w
    if np.isrealobj(ss.A) and np.isrealobj(ss.B) and np.isrealobj(ss.C):
        a2, b2, c2 = a2.real, b2.real, c2.real
    return StateSpace(a2, b2, c2, ss.D.copy())


def mcmillan_degree(ss: StateSpace, tol: Tolerances = DEFAULT_TOL) -> int:
    """State dimension of the minimal realization."""
    return minimal_realization(ss, tol).n


def sorted_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix as a complex array sorted by
    (real, imaginary) part; empty for a 0x0 matrix."""
    eigs = np.linalg.eigvals(a)
    return np.array(sorted(eigs, key=lambda z: (z.real, z.imag)), dtype=np.complex128)


def poles_stable(p: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every pole in ``p`` has real part below
    ``-stability_margin``. An empty pole set (a constant system) is
    stable."""
    return p.size == 0 or bool(p.real.max() < -tol.stability_margin)


def poles(ss: StateSpace, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Poles (eigenvalues of the minimal realization's state matrix),
    sorted by (real, imaginary) part."""
    return sorted_eigvals(minimal_realization(ss, tol).A)


def is_strictly_stable(ss: StateSpace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every pole has real part below ``-stability_margin``.
    A constant system (no poles) is stable."""
    return poles_stable(poles(ss, tol), tol)


def ss_inverse(ss: StateSpace) -> StateSpace:
    """Realization of the inverse transfer function.

    Requires square, numerically invertible D; the inverse is
    ``(A - B D^{-1} C,  B D^{-1},  -D^{-1} C,  D^{-1})``.
    """
    d = ss.D
    if d.shape[0] != d.shape[1] or not is_invertible(d):
        raise DNotInvertible(
            f"feedthrough of shape {d.shape} is not numerically invertible")
    dinv = np.linalg.inv(d)
    bdi = ss.B @ dinv
    return StateSpace(ss.A - bdi @ ss.C, bdi, -dinv @ ss.C, dinv)


def validate_ct_model(
    ss: StateSpace,
    tol: Tolerances = DEFAULT_TOL,
    labels: tuple[str, ...] | list[str] | None = None,
) -> CtModel:
    """Check every structural assumption of a continuous-time model and
    return the validated triple.

    Verifies, in order: zero feedthrough, Hurwitz A, full column rank of
    B, reachability of (A, B), observability of (C, A), and
    rank(CB) equal to the number of shock channels. Each failure raises
    the error naming the violated assumption.
    """
    if np.any(ss.D):
        raise ValueError("continuous-time model must have zero feedthrough")
    n = ss.n
    if n == 0:
        raise ValueError("model must have at least one state")
    eigs = np.linalg.eigvals(ss.A)
    if not poles_stable(eigs, tol):
        raise NotStable(f"eigenvalue with real part {eigs.real.max():.6g} is not strictly stable")
    m = ss.B.shape[1]
    if numerical_rank(ss.B, tol) != m:
        raise BColumnDeficient("B does not have full column rank")
    if _controllable_basis(ss.A, ss.B, tol).shape[1] != n:
        raise NotReachable("(A, B) is not reachable")
    if _controllable_basis(ss.A.conj().T, ss.C.conj().T, tol).shape[1] != n:
        raise NotObservable("(C, A) is not observable")
    rank_cb = numerical_rank(ss.C @ ss.B, tol)
    if rank_cb != m:
        raise RankCBDeficient(f"rank(CB) = {rank_cb}, expected {m}")
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != ss.n_out:
            raise ValueError(f"expected {ss.n_out} labels, got {len(labels)}")
    return CtModel(ss=ss, m=m, labels=labels)


def probe_points(n_imag: int = 20, n_complex: int = 5, seed: int = 0) -> np.ndarray:
    """Standard probe set for evaluation-based transfer-function equality.

    ``n_imag`` logarithmically spaced points on the imaginary axis with
    frequencies in [1e-2, 1e2], plus ``n_complex`` seeded random points
    with positive real part (so they cannot hit poles of stable systems).
    """
    pts = list(1j * np.logspace(-2.0, 2.0, n_imag))
    rng = np.random.default_rng(seed)
    for _ in range(n_complex):
        pts.append(complex(rng.uniform(0.1, 10.0), rng.uniform(-10.0, 10.0)))
    return np.array(pts, dtype=np.complex128)


def evaluation_gap(ss1: StateSpace, ss2: StateSpace, points=None) -> float:
    """Largest 2-norm difference between two transfer functions over the
    probe set (defaults to :func:`probe_points`)."""
    if points is None:
        points = probe_points()
    if (ss1.n_out, ss1.n_in) != (ss2.n_out, ss2.n_in):
        raise ValueError("systems must have matching input/output dimensions")
    gaps = np.linalg.norm(freq_response(ss1, points) - freq_response(ss2, points), 2, axis=(1, 2))
    return float(gaps.max(initial=0.0))
