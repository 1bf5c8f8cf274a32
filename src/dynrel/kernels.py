"""Dense numerical kernels shared by the analysis modules.

Everything here is plain dense linear algebra: matrix exponential and
principal logarithm, Lyapunov solvers, numerical rank decisions, and
positive-semidefinite factorization. Every kernel costs O(n^3) time and
O(n^2) memory. All functions are pure and never modify their inputs.
"""

import numpy as np
import scipy.linalg
from dataclasses import dataclass

from .errors import ExistenceFailure, NotPSD, SingularInput, SpectrumConflict

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "COND_LIMIT",
    "POLE_COND_LIMIT",
    "LYAP_SEP_RTOL",
    "as_matrix",
    "is_invertible",
    "matrix_exp",
    "matrix_log_principal",
    "solve_lyap_continuous",
    "solve_lyap_discrete",
    "numerical_rank",
    "psd_factor",
    "nonzero_spectrum",
    "sorted_eigvals",
]

#: Condition-number ceiling for "numerically invertible" decisions
#: (row selections, feedthrough inversion, spectral input blocks).
COND_LIMIT = 1e12

#: Condition-number ceiling of ``sI - A`` at an evaluation point that is not a pole.
POLE_COND_LIMIT = 1e13

#: Smallest ``|lam_i + lam_j|`` over eigenvalue pairs of A, relative to
#: ``n * max(1, max |lam|)``, for which ``A P + P A' + Q = 0`` counts as solvable.
LYAP_SEP_RTOL = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds realizing exact-arithmetic assumptions.

    Attributes
    ----------
    rank_rtol : float
        Relative singular-value cutoff. A singular value counts toward
        rank when it exceeds ``rank_rtol * sigma_max * max_dim``.
    psd_tol : float
        How negative an eigenvalue may be, relative to the largest
        eigenvalue magnitude, before a matrix stops counting as PSD.
    stability_margin : float
        Continuous-time eigenvalues must have real part below
        ``-stability_margin`` to count as strictly stable.
    residual_tol : float
        Relative residual bound for equation solutions and round trips.
    """

    rank_rtol: float = 1e-10
    psd_tol: float = 1e-8
    stability_margin: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rtol", "psd_tol", "stability_margin", "residual_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")


DEFAULT_TOL = Tolerances()


def as_matrix(m, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a finite 2-d float or complex array (a copy)."""
    a = np.atleast_2d(np.asarray(m))
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.number):
        raise ValueError(f"{name} must be numeric, got dtype {a.dtype}")
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def is_invertible(m, cond_limit: float = COND_LIMIT) -> bool | np.ndarray:
    """Square and with 2-norm condition number below ``cond_limit`` (a 0x0
    matrix is, a zero matrix is not). A stack ``(..., k, k)`` gives a bool
    array, one verdict per matrix; a 2-d input gives a ``bool``."""
    a = np.atleast_2d(np.asarray(m))
    if a.shape[-2] != a.shape[-1] or a.shape[-1] == 0:
        ok = np.full(a.shape[:-2], a.shape[-2] == a.shape[-1])
    else:
        s = np.linalg.svd(a, compute_uv=False)
        ok = s[..., 0] < cond_limit * s[..., -1]
    return bool(ok) if a.ndim == 2 else ok


def matrix_exp(m, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(m * t)``.

    Scaling and squaring with Pade approximants chosen from 1-norm
    estimates (Al-Mohy & Higham 2009, ``scipy.linalg.expm``).

    Parameters
    ----------
    m : array_like, square
    t : float
        Scalar time factor applied before exponentiation.

    Returns
    -------
    ndarray
        ``exp(m * t)``, same dtype class (real or complex) as ``m``.
    """
    a = as_matrix(m, square=True, name="matrix_exp input")
    return scipy.linalg.expm(a * float(t))


# --------------------------------------------------------------------------
# principal matrix logarithm: complex Schur form, square roots until the
# spectrum sits inside the Pade radius, then unsquaring

_LOG_GAUSS_DEGREE = 8
_LOG_THETA = 0.25
_MAX_SQRT_STEPS = 60


def matrix_log_principal(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Principal matrix logarithm.

    Exists iff no eigenvalue lies on the closed negative real axis.
    Computed by inverse scaling and squaring on the complex Schur form:
    repeated principal square roots (``scipy.linalg.sqrtm``) bring the
    triangular factor within the convergence radius of a Gauss-Legendre
    (diagonal Pade) form of ``log(I + X)``, which is then rescaled by the
    square-root count.

    Raises
    ------
    SingularInput
        ``m`` is numerically singular.
    ExistenceFailure
        Some eigenvalue sits on the negative real axis.
    """
    a = as_matrix(m, square=True, name="matrix_log input")
    n = a.shape[0]
    if n == 0:
        return a.copy()
    eigs = np.linalg.eigvals(a)
    scale = float(np.abs(eigs).max())
    cut = n * tol.rank_rtol * scale
    if scale == 0.0 or np.any(np.abs(eigs) <= cut):
        raise SingularInput("matrix is numerically singular; no logarithm")
    on_negative_axis = (eigs.real < 0) & (np.abs(eigs.imag) <= cut)
    if np.any(on_negative_axis):
        bad = eigs[on_negative_axis][0]
        raise ExistenceFailure(
            f"eigenvalue {bad:.6g} lies on the negative real axis; "
            "principal logarithm does not exist")

    t_mat, q_mat = scipy.linalg.schur(a.astype(np.complex128), output="complex")
    t_work = t_mat
    ident = np.eye(n, dtype=np.complex128)
    steps = 0
    while np.linalg.norm(t_work - ident, 1) > _LOG_THETA:
        if steps >= _MAX_SQRT_STEPS:
            raise SingularInput("inverse scaling and squaring failed to converge")
        t_work = scipy.linalg.sqrtm(t_work)
        steps += 1
    x = t_work - ident
    nodes, weights = np.polynomial.legendre.leggauss(_LOG_GAUSS_DEGREE)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    log_t = np.zeros_like(x)
    for wi, xi in zip(weights, nodes):
        log_t += wi * np.linalg.solve(ident + xi * x, x)
    log_t *= 2.0 ** steps
    result = q_mat @ log_t @ q_mat.conj().T
    if not np.iscomplexobj(np.asarray(m)):
        # principal log of a real matrix with no negative-real spectrum is real
        result = result.real
    return result


# --------------------------------------------------------------------------
# Lyapunov solvers: Bartels-Stewart on the Schur form, O(n^3) time and
# O(n^2) memory

def solve_lyap_continuous(a, q) -> np.ndarray:
    """Solve ``A P + P A' + Q = 0`` for symmetric P.

    Solvable iff A and -A share no eigenvalue (guaranteed for Hurwitz A).
    Uses the Bartels-Stewart method (``scipy.linalg.solve_continuous_lyapunov``).
    """
    a = as_matrix(a, square=True, name="A")
    q = as_matrix(q, square=True, name="Q")
    n = a.shape[0]
    if q.shape[0] != n:
        raise ValueError(f"Q must be {n}x{n}, got {q.shape}")
    if n == 0:
        return a.copy()
    eigs = np.linalg.eigvals(a)
    pair_sums = np.abs(eigs[:, None] + eigs[None, :])
    scale = max(1.0, float(np.abs(eigs).max()))
    if pair_sums.min() <= n * LYAP_SEP_RTOL * scale:
        raise SpectrumConflict("A and -A share an eigenvalue; equation is singular")
    p = scipy.linalg.solve_continuous_lyapunov(a, -q)
    return 0.5 * (p + p.conj().T)


def solve_lyap_discrete(a_d, q_d) -> np.ndarray:
    """Solve ``P = A_d P A_d' + Q_d`` for symmetric P.

    Requires Schur stability (spectral radius of ``A_d`` below one).
    The bilinear transform maps the equation to a continuous one, which
    is solved by Bartels-Stewart (``scipy.linalg.solve_discrete_lyapunov``).
    """
    a_d = as_matrix(a_d, square=True, name="A_d")
    q_d = as_matrix(q_d, square=True, name="Q_d")
    n = a_d.shape[0]
    if q_d.shape[0] != n:
        raise ValueError(f"Q_d must be {n}x{n}, got {q_d.shape}")
    if n == 0:
        return a_d.copy()
    radius = float(np.abs(np.linalg.eigvals(a_d)).max())
    if radius >= 1.0:
        raise SpectrumConflict(
            f"spectral radius {radius:.6g} is not below one; equation is singular")
    # explicit method: the default falls back to a Kronecker solve for n <= 10
    p = scipy.linalg.solve_discrete_lyapunov(a_d, q_d, method="bilinear")
    return 0.5 * (p + p.conj().T)


# --------------------------------------------------------------------------
# rank, PSD factorization, nonzero spectra

def numerical_rank(m, tol: Tolerances = DEFAULT_TOL) -> int | np.ndarray:
    """Number of singular values above ``rank_rtol * sigma_max * max_dim``.
    A stack ``(..., r, c)`` gives an int array, one rank per matrix; a 2-d
    input gives an ``int``."""
    a = np.asarray(m)
    if a.ndim <= 2:
        a = as_matrix(a, name="rank input")
    elif not np.all(np.isfinite(a)):
        raise ValueError("rank input has non-finite entries")
    s = np.linalg.svd(a, compute_uv=False)  # no singular value for an empty matrix
    cutoff = tol.rank_rtol * s[..., :1] * max(a.shape[-2:])
    ranks = np.count_nonzero(s > cutoff, axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def psd_factor(s_mat, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Full-column-rank left factor B of a symmetric PSD matrix, ``B B' = S``.

    Built from the symmetric eigendecomposition; eigenvalues below the
    rank cutoff are discarded, so the column count matches
    :func:`numerical_rank` of a cleanly PSD input. Column signs are
    fixed by making the largest-magnitude entry of each column positive,
    making the output deterministic. Only ``B B'`` is contractual: any
    right-orthogonal rotation of the factor reproduces the same S.

    Raises
    ------
    NotPSD
        Some eigenvalue is below ``-psd_tol * max |eigenvalue|``.
    """
    s_arr = as_matrix(s_mat, square=True, name="S")
    n = s_arr.shape[0]
    if n == 0:
        return s_arr.copy()
    sym = 0.5 * (s_arr + s_arr.conj().T)
    w, v = np.linalg.eigh(sym)
    scale = float(np.abs(w).max())
    if scale == 0.0:
        return np.zeros((n, 0))
    if w.min() < -tol.psd_tol * scale:
        raise NotPSD(
            f"eigenvalue {w.min():.6g} below -psd_tol * {scale:.6g}; not PSD")
    cutoff = tol.rank_rtol * scale * n
    order = np.argsort(w)[::-1]
    keep = [i for i in order if w[i] > cutoff]
    cols = v[:, keep] * np.sqrt(w[keep])
    if np.isrealobj(sym):
        cols = cols.real
    for j in range(cols.shape[1]):
        lead = np.argmax(np.abs(cols[:, j]))
        if cols[lead, j].real < 0:
            cols[:, j] = -cols[:, j]
    return cols


def sorted_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix, or of each matrix of a stack
    (..., d, d) from one batched call, as a complex array sorted along
    the last axis by (real, imaginary) part; empty for a 0x0 matrix.
    The sort is stable, so equal keys keep LAPACK's order."""
    eigs = np.linalg.eigvals(a).astype(np.complex128)
    order = np.lexsort((eigs.imag, eigs.real), axis=-1)
    return np.take_along_axis(eigs, order, axis=-1)


def nonzero_spectrum(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues with modulus above the rank cutoff
    ``rank_rtol * max|lam| * n``, sorted by (real, imaginary) part.

    Backs the similarity property that AB and BA share their nonzero
    eigenvalues for any conformable rectangular A, B.
    """
    a = as_matrix(m, square=True, name="spectrum input")
    eigs = sorted_eigvals(a)
    cutoff = tol.rank_rtol * np.abs(eigs).max(initial=0.0) * a.shape[0]
    return eigs[np.abs(eigs) > cutoff]
