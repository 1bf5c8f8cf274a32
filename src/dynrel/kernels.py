"""Dense numerical kernels shared by the analysis modules.

Everything here is plain dense linear algebra: matrix exponential, Schur
form, principal logarithm, Lyapunov solvers, numerical rank decisions, and
positive-semidefinite factorization. Every kernel costs O(n^3) time and
O(n^2) memory. All functions are pure and never modify their inputs.
"""

import functools
import numbers
import numpy as np
from dataclasses import dataclass

from .errors import (DimensionMismatch, ExistenceFailure, InputError, NotPSD, SingularInput,
                     SpectrumConflict)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "COND_LIMIT",
    "POLE_COND_LIMIT",
    "LYAP_SEP_RTOL",
    "as_matrix",
    "require_shape",
    "is_invertible",
    "matrix_exp",
    "schur_form",
    "matrix_log_principal",
    "solve_lyap_continuous",
    "solve_lyap_discrete",
    "norm2",
    "numerical_rank",
    "rank_cut",
    "rank_from_values",
    "psd_factor",
    "sorted_eigvals",
]

#: Condition-number ceiling for "numerically invertible" decisions
#: (row selections, feedthrough inversion, spectral input blocks). A fixed safety
#: factor: a solve with such a matrix keeps about four digits (1e12 eps = 2e-4).
COND_LIMIT = 1e12

#: Condition-number ceiling of ``sI - A`` at an evaluation point that is not a pole: a fixed
#: safety factor a digit above ``COND_LIMIT``, so only a point no invertibility test passes fails.
POLE_COND_LIMIT = 1e13

#: Smallest ``|lam_i + lam_j|`` over eigenvalue pairs of A, relative to
#: ``n * max(1, max |lam|)``, for which ``A P + P A' + Q = 0`` counts as solvable.
#: A fixed safety factor: the solution's error grows like eps / separation, so
#: about four digits remain, as at ``COND_LIMIT``.
LYAP_SEP_RTOL = 1e-12


def _real_value(x) -> float:
    """``x`` as a float: NaN unless ``x`` is a real number and not a bool,
    and inf for an integer beyond the float range."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return np.nan
    try:
        return float(x)
    except OverflowError:
        return np.inf


def _shown(x) -> str:
    """``repr(x)`` for a message, or the bit length of an integer too long
    for ``repr`` to write (beyond Python's digit limit)."""
    try:
        return repr(x)
    except ValueError:
        return f"an integer of {x.bit_length()} bits"


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds realizing exact-arithmetic assumptions.

    Attributes
    ----------
    rank_rtol : float
        The one rank rule (:func:`rank_cut`): a value counts when above
        ``rank_rtol * dim * scale``; scale is sigma_max for a plain rank,
        and in a staircase the caller's ``||B||_2`` or ``||C||_2`` from
        before any projection (first block) or, for the grown blocks of
        both passes, ``||A||_2`` of the system handed to the reduction.
    psd_tol : float
        How negative an eigenvalue may be, relative to the largest
        eigenvalue magnitude, before a matrix stops counting as PSD;
        below 1, or a negative definite matrix would pass. It also gates
        Q_d in ``sampling.desample``: Q_d is singular when
        ``lambda_min <= psd_tol * lambda_max``, the one singularity
        decision that does not go through :func:`rank_cut`.
    stability_margin : float
        Continuous-time eigenvalues must have real part below
        ``-stability_margin`` to count as strictly stable.
    residual_tol : float
        Absolute bound on a map's peak gain over the default grid: at or
        below it the map counts as zero (``feedback.granger_verdict``, and
        through it ``feedback.feedback_free`` on H). Nothing else reads it.

    Each field must be a finite positive real number and not a bool, else
    :class:`~dynrel.errors.InputError`.
    """

    rank_rtol: float = 1e-10
    psd_tol: float = 1e-8
    stability_margin: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rtol", "psd_tol", "stability_margin", "residual_tol"):
            value = getattr(self, name)
            if not 0 < _real_value(value) < np.inf:
                raise InputError(f"{name} must be strictly positive, got {_shown(value)}")
        if self.psd_tol >= 1:
            raise InputError(f"psd_tol must be below 1, got {self.psd_tol!r}")


DEFAULT_TOL = Tolerances()


def as_matrix(m, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a finite real 2-d float64 array (a copy): the one
    number type of every model and of the kernels that take a model's
    matrices. A complex matrix is refused, not converted."""
    a = np.array(m, ndmin=2)  # a copy, in the layout ``astype`` keeps
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.dtype != np.float64:  # a byte-swapped float64 is converted too
        if not np.issubdtype(a.dtype, np.number):
            raise InputError(f"{name} must be numeric, got dtype {a.dtype}")
        if np.iscomplexobj(a):
            raise InputError(f"{name} must be real, got dtype {a.dtype}")
        a = a.astype(np.float64)
    if not np.isfinite(a).all():
        raise InputError(f"{name} has non-finite entries")
    if square:
        require_shape(name, a, None, a.shape[0])
    return a


def require_shape(name: str, a: np.ndarray, rows: int | None, cols: int | None):
    """Raise :class:`DimensionMismatch` naming ``name`` unless the 2-d
    array ``a`` has ``rows`` rows and ``cols`` columns (None: any number).
    The one shape check of the package."""
    if rows is not None and a.shape[0] != rows:
        raise DimensionMismatch(f"{name}: expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise DimensionMismatch(f"{name}: expected {cols} columns, got {a.shape[1]}")


def _symmetric_part(x: np.ndarray) -> np.ndarray:
    """``0.5 (X + X')`` of a square array X, exactly symmetric. Where the
    sum overflows (entries above about 9e307) it is ``0.5 X + 0.5 X'``,
    so a finite X gives a finite result; elsewhere it keeps the bits of
    ``0.5 (X + X')``."""
    with np.errstate(over="ignore"):  # the overflowed entries are redone below
        s = 0.5 * (x + x.T)
    over = np.isinf(s)
    if over.any():
        i, j = np.nonzero(over)
        s[i, j] = 0.5 * x[i, j] + 0.5 * x[j, i]
    return s


def is_invertible(m, cond_limit: float = COND_LIMIT) -> bool | np.ndarray:
    """Square and with 2-norm condition number below ``cond_limit`` (a 0x0
    matrix is, a zero matrix is not). A stack ``(..., k, k)`` gives a bool
    array, one verdict per matrix; a 2-d input gives a ``bool``."""
    a = np.atleast_2d(np.asarray(m))
    if a.shape[-2] != a.shape[-1] or a.shape[-1] == 0:
        ok = np.full(a.shape[:-2], a.shape[-2] == a.shape[-1])
    else:
        s = np.linalg.svd(a, compute_uv=False)
        # an overflow here fails safe, so it warns no more: an infinite right
        # side is truly above a finite sigma_max
        with np.errstate(over="ignore"):
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
        ``exp(m * t)``, real.
    """
    import scipy.linalg
    a = as_matrix(m, square=True, name="matrix_exp input")
    return scipy.linalg.expm(a * float(t))


# --------------------------------------------------------------------------
# Schur-based kernels: one Schur form A = Z T Z' serves the logarithm and
# both Lyapunov solvers; a caller that holds it passes it down as ``schur=``.
# These kernels and matrix_exp are the only users of scipy and import it in
# the function body: importing scipy.linalg costs about 0.25 s, which a command
# that samples nothing should not pay; after the first import it is a
# sys.modules lookup, under 1 us per call.

def schur_form(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(T, Z, eigs)``: one ``scipy.linalg.schur`` call gives the real Schur form
    ``A = Z T Z'``, T quasi-triangular (2x2 blocks for complex pairs); eigs are T's."""
    import scipy.linalg
    a = as_matrix(a, square=True, name="Schur input")
    t_mat, z_mat = scipy.linalg.schur(a)
    return t_mat, z_mat, np.linalg.eigvals(t_mat)


_LOG_THETA = 0.25
_MAX_SQRT_STEPS = 60


@functools.cache
def _log_quadrature() -> tuple[np.ndarray, np.ndarray]:
    """Degree-8 Gauss-Legendre nodes and weights moved from [-1, 1] to [0, 1];
    computed on first use, so numpy.polynomial is imported only by a logarithm."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def matrix_log_principal(m, tol: Tolerances = DEFAULT_TOL, schur=None) -> np.ndarray:
    """Principal matrix logarithm of a real ``m``, itself real.

    Exists iff no eigenvalue lies on the closed negative real axis.
    Inverse scaling and squaring on the real Schur factor T (``schur``, or :func:`schur_form`
    of ``m``), in real arithmetic (Al-Mohy, Higham & Relton 2013): square
    roots (``scipy.linalg.sqrtm`` keeps T quasi-triangular) bring T near I, where one
    batched solve evaluates the Gauss-Legendre (diagonal Pade) form of ``log(I + X)``.

    Raises
    ------
    SingularInput
        ``m`` is numerically singular.
    ExistenceFailure
        Some eigenvalue sits on the negative real axis.
    """
    import scipy.linalg
    a = as_matrix(m, square=True, name="matrix_log input")
    n = a.shape[0]
    if n == 0:
        return a.copy()
    t_mat, z_mat, eigs = schur_form(a) if schur is None else schur
    modulus = np.abs(eigs)
    if rank_from_values(modulus, n, tol) < n:
        raise SingularInput("matrix is numerically singular; no logarithm")
    on_negative_axis = (eigs.real < 0) & (np.abs(eigs.imag) <= rank_cut(n, modulus.max(), tol))
    if np.any(on_negative_axis):
        bad = eigs[on_negative_axis][0]
        raise ExistenceFailure(
            f"eigenvalue {bad:.6g} lies on the negative real axis; "
            "principal logarithm does not exist")
    steps = 0
    while np.linalg.norm(t_mat - np.eye(n), 1) > _LOG_THETA:
        if steps >= _MAX_SQRT_STEPS:
            raise SingularInput("inverse scaling and squaring failed to converge")
        t_mat = scipy.linalg.sqrtm(t_mat)
        steps += 1
    nodes, weights = _log_quadrature()
    x = t_mat - np.eye(n)
    terms = np.linalg.solve(np.eye(n) + nodes[:, None, None] * x, x)
    return z_mat @ np.tensordot(weights * 2.0 ** steps, terms, axes=1) @ z_mat.T


def _lyap_operands(a, q, schur, names):
    """Q validated against A, and the Schur form of A."""
    a = as_matrix(a, square=True, name=names[0])
    q = as_matrix(q, name=names[1])
    require_shape(names[1], q, a.shape[0], a.shape[0])
    return q, schur_form(a) if schur is None else schur


def _lyap_schur(t_mat, z_mat, c) -> np.ndarray:
    """``Z Y Z'`` for Y solving ``T Y + Y T' = C`` by LAPACK ``?trsyl`` (Bartels &
    Stewart 1972); T's 2x2 blocks need not be in standard form. A solve that
    ``?trsyl`` perturbed (eigenvalues summing to about zero) raises."""
    if c.size == 0:  # ?trsyl takes no empty matrix
        return c.copy()
    import scipy.linalg
    trsyl = scipy.linalg.get_lapack_funcs("trsyl", (t_mat, c))
    y, scale, info = trsyl(t_mat, t_mat, c, tranb="T")
    if info == 1:
        raise SpectrumConflict("two eigenvalues of the Schur factor sum to about zero")
    return z_mat.dot(y / scale).dot(z_mat.T)


def solve_lyap_continuous(a, q, schur=None) -> np.ndarray:
    """Solve ``A P + P A' + Q = 0`` for symmetric P.

    Solvable iff A and -A share no eigenvalue (guaranteed for Hurwitz A).
    Bartels-Stewart on ``A = Z T Z'`` (``schur``, or :func:`schur_form` of
    ``a``): ``T Y + Y T' = -Z' Q Z`` and ``P = Z Y Z'``.
    """
    q, (t_mat, z_mat, eigs) = _lyap_operands(a, q, schur, ("A", "Q"))
    scale = max(1.0, float(np.abs(eigs).max(initial=0.0)))
    if np.abs(eigs[:, None] + eigs).min(initial=np.inf) <= len(eigs) * LYAP_SEP_RTOL * scale:
        raise SpectrumConflict("A and -A share an eigenvalue; equation is singular")
    return _symmetric_part(_lyap_schur(t_mat, z_mat, z_mat.T.dot((-q).dot(z_mat))))


def solve_lyap_discrete(a_d, q_d, schur=None) -> np.ndarray:
    """Solve ``P = A_d P A_d' + Q_d`` for symmetric P.

    Requires Schur stability (spectral radius of ``A_d`` below one). On
    ``A_d = Z T Z'`` (``schur``, or :func:`schur_form` of ``a_d``), the Cayley
    transform ``S = (T + I)^-1 (T - I)`` keeps T's blocks, and P = Z Y Z' with
    ``S Y + Y S' = -2 (T + I)^-1 Z' Q_d Z (T' + I)^-1``.
    """
    q_d, (t_mat, z_mat, eigs) = _lyap_operands(a_d, q_d, schur, ("A_d", "Q_d"))
    radius = float(np.abs(eigs).max(initial=0.0))
    if radius >= 1.0:
        raise SpectrumConflict(
            f"spectral radius {radius:.6g} is not below one; equation is singular")
    import scipy.linalg
    # LU of T + I pivots only inside 2x2 blocks: S keeps T's zeros exactly, as ?trsyl needs
    lu = scipy.linalg.lu_factor(t_mat + np.eye(len(eigs)))
    s_mat = scipy.linalg.lu_solve(lu, t_mat - np.eye(len(eigs)))
    c = scipy.linalg.lu_solve(lu, scipy.linalg.lu_solve(lu, z_mat.T @ q_d @ z_mat).T)
    return _symmetric_part(_lyap_schur(s_mat, z_mat, -2.0 * c.T))


# --------------------------------------------------------------------------
# rank, PSD factorization, sorted spectra

def norm2(m) -> np.ndarray:
    """The 2-norm of a matrix, or of each matrix of a stack; 0 when empty."""
    return np.linalg.svd(m, compute_uv=False).max(axis=-1, initial=0.0)


def numerical_rank(m, tol: Tolerances = DEFAULT_TOL) -> int | np.ndarray:
    """Number of singular values above :func:`rank_cut` at scale sigma_max
    and dim max(r, c). A stack ``(..., r, c)`` gives an int array, one rank
    per matrix; a 2-d input gives an ``int``. Real or complex: the values
    of a frequency response are complex."""
    a = np.asarray(m)
    if not np.all(np.isfinite(a)):
        raise InputError("rank input has non-finite entries")
    s = np.linalg.svd(a, compute_uv=False)  # no singular value for an empty matrix
    return rank_from_values(s, max(a.shape[-2:]), tol)


def rank_cut(dim: int, scale, tol: Tolerances = DEFAULT_TOL):
    """The one rank rule: a value counts toward rank when it exceeds
    ``rank_rtol * dim * scale``; the caller names ``scale`` (see
    :class:`Tolerances`) and ``dim``, the larger dimension of the matrix."""
    return tol.rank_rtol * dim * scale


def rank_from_values(s, dim: int, tol: Tolerances = DEFAULT_TOL) -> int | np.ndarray:
    """The number of ``s`` (along the last axis) above :func:`rank_cut` at
    scale ``max(s)``: the rule of :func:`numerical_rank` applied to values
    at hand. The absolute eigenvalues of a symmetric matrix serve, and so
    do the singular values (not their squares) of a factor B of ``B B'``,
    whose rank is that of B. A 1-d ``s`` gives an ``int``."""
    s = np.asarray(s)
    ranks = (s > rank_cut(dim, s.max(axis=-1, keepdims=True, initial=0.0), tol)).sum(axis=-1)
    return int(ranks) if s.ndim == 1 else ranks


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
        Some eigenvalue is below ``-psd_tol * max |eigenvalue|``; the
        smallest eigenvalue is attached as ``.eigenvalue``.
    """
    s_arr = as_matrix(s_mat, square=True, name="S")
    n = s_arr.shape[0]
    w, v = np.linalg.eigh(_symmetric_part(s_arr))
    scale = float(np.abs(w).max(initial=0.0))
    if scale == 0.0:
        return np.zeros((n, 0))
    if w.min() < -tol.psd_tol * scale:
        err = NotPSD(f"eigenvalue {w.min():.6g} below -psd_tol * {scale:.6g}; not PSD")
        err.eigenvalue = float(w.min())
        raise err
    keep = np.argsort(w)[::-1][:rank_from_values(w, n, tol)]
    cols = v[:, keep] * np.sqrt(w[keep])
    lead = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    return np.where(lead < 0, -cols, cols)


def sorted_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix, or of each matrix of a stack
    (..., d, d) from one batched call, as a complex array sorted along
    the last axis by (real, imaginary) part; empty for a 0x0 matrix.
    The sort is stable, so equal keys keep LAPACK's order."""
    eigs = np.linalg.eigvals(a).astype(np.complex128)
    order = np.lexsort((eigs.imag, eigs.real), axis=-1)
    return np.take_along_axis(eigs, order, axis=-1)
