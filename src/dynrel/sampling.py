"""Exact discretization at a fixed period and the inverse procedure.

Sampling a continuous model (A, B, C) with period h gives the discrete
triple ``A_d = exp(A h)``, ``C_d = C`` and noise intensity

    Q_d = B_d B_d' = integral_0^h exp(A s) B B' exp(A' s) ds,

computed here in closed form from one block matrix exponential. For a
reachable model Q_d is positive definite for every h, regardless of the
rank of B B': sampling hides rank deficiency of the continuous noise.
The same state covariance P solves both the continuous and the discrete
Lyapunov equations, which is the consistency check behind the inverse.

De-sampling inverts the map when three conditions hold: (i) A_d admits
a principal logarithm, (ii) Q_d is nonsingular, (iii) with
``A = log(A_d)/h`` and P solving the discrete equation, ``A P + P A'``
is negative semidefinite. Then B is recovered as a full-column-rank
factor of ``-(A P + P A')``, restoring any hidden rank deficiency; B is
unique only up to a right orthogonal factor, so only B B' is
contractual.
"""

import numbers

import numpy as np
from dataclasses import dataclass

from .errors import (
    ExistenceFailure,
    LogFailure,
    NonPositiveH,
    NotPSD,
    NotSemidefinite,
    QdSingular,
    SingularInput,
)
from .kernels import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    matrix_exp,
    matrix_log_principal,
    norm2,
    psd_factor,
    rank_from_values,
    require_shape,
    schur_form,
    solve_lyap_continuous,
    solve_lyap_discrete,
)
from .lti import CtModel, validate_ct_model

__all__ = [
    "SampledModel",
    "DesampleDiagnostics",
    "HiddenRankReport",
    "sample",
    "dual_lyapunov_check",
    "desample",
    "hidden_rank_report",
]


def _period(h) -> float:
    """The sampling period ``h`` as a float. It must be a finite positive
    real number, and not a bool; anything else, a string that ``float``
    would parse included, raises :class:`~dynrel.errors.NonPositiveH`."""
    x = float(h) if isinstance(h, numbers.Real) and not isinstance(h, bool) else np.nan
    if not (np.isfinite(x) and x > 0):
        raise NonPositiveH(f"sampling period must be finite and positive, got {h!r}")
    return x


@dataclass(frozen=True)
class SampledModel:
    """Discrete-time pair (A_d, C_d) with period h and noise intensity
    Q_d. Instances are frozen: the arrays are checked once, at
    construction, their shapes by :func:`~dynrel.kernels.require_shape`."""

    Ad: np.ndarray
    Qd: np.ndarray
    Cd: np.ndarray
    h: float

    def __post_init__(self):
        ad = as_matrix(self.Ad, square=True, name="Ad")
        qd = as_matrix(self.Qd, name="Qd")
        require_shape("Qd", qd, *ad.shape)
        cd = as_matrix(self.Cd, name="Cd")
        require_shape("Cd", cd, None, ad.shape[0])
        for name, x in zip(("Ad", "Qd", "Cd", "h"), (ad, qd, cd, _period(self.h))):
            object.__setattr__(self, name, x)

    @property
    def n(self) -> int:
        return self.Ad.shape[0]


@dataclass
class DesampleDiagnostics:
    """Condition checks of the inverse procedure. De-sampling succeeds
    iff all three booleans are true; ``residuals`` holds the relative
    residual pair (continuous, discrete) of the shared covariance,
    ``recovered_rank`` the column count of the recovered B, and
    ``qd_rank`` the numerical rank of Q_d, read off the eigenvalues of
    the Q_d gate once it passes."""

    logm_exists: bool
    qd_nonsingular: bool
    neg_semidef_ok: bool
    residuals: tuple[float, float] | None = None
    recovered_rank: int = 0
    qd_rank: int = 0


@dataclass
class HiddenRankReport:
    """Rank bookkeeping across one sample/de-sample round trip."""

    n: int
    bbt_rank: int
    qd_rank: int
    recovered_rank: int


def sample(model: CtModel, h: float) -> SampledModel:
    """Exact discretization of a validated model at period ``h``.

    ``A_d`` and ``Q_d`` come from one exponential of the block matrix
    ``[[A, B B'], [0, -A']] * h``: with the result partitioned as
    ``[[E11, E12], [0, E22]]``, ``A_d = E11`` and ``Q_d = E12 E11'``.
    This is exact to kernel accuracy with no step-size tuning.
    """
    h = _period(h)  # first: an infinite h would make the exponential NaN
    a, b, c = model.A, model.B, model.C
    n = model.n
    bbt = b @ b.T
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = a
    block[:n, n:] = bbt
    block[n:, n:] = -a.T
    big = matrix_exp(block, h)
    a_d = big[:n, :n]
    q_d = big[:n, n:] @ a_d.T
    q_d = 0.5 * (q_d + q_d.T)
    return SampledModel(Ad=a_d, Qd=q_d, Cd=c.copy(), h=h)


def dual_lyapunov_check(model: CtModel, sm: SampledModel) -> tuple[float, float]:
    """Relative residuals of the single state covariance P in both the
    continuous equation ``A P + P A' + B B' = 0`` and the discrete one
    ``P = A_d P A_d' + Q_d``. Both are at roundoff level when ``sm``
    really is a sampling of ``model``; no threshold is applied to them."""
    bbt = model.B @ model.B.T
    return _residuals(model.A, bbt, sm, solve_lyap_continuous(model.A, bbt),
                      norm2(model.B) ** 2, norm2(sm.Qd))


def _residuals(a: np.ndarray, bbt: np.ndarray, sm: SampledModel, p: np.ndarray,
               bbt_norm: float, qd_norm: float) -> tuple[float, float]:
    """Relative residuals of ``p`` in the equations of
    :func:`dual_lyapunov_check`; the caller passes ``||B B'||_2`` and
    ``||Q_d||_2`` from values it already holds."""
    r_cont = norm2(a @ p + p @ a.T + bbt) / bbt_norm
    r_disc = norm2(p - sm.Ad @ p @ sm.Ad.T - sm.Qd) / qd_norm
    return float(r_cont), float(r_disc)


def _refusal(err, diag: DesampleDiagnostics):
    """``err`` with the partial diagnostics attached as ``.diagnostics``."""
    err.diagnostics = diag
    return err


def desample(
    sm: SampledModel, tol: Tolerances = DEFAULT_TOL
) -> tuple[CtModel, DesampleDiagnostics]:
    """Recover the continuous model behind a sampled triple.

    Checks the three existence conditions in order and raises the error
    naming the first one that fails; the partial diagnostics are
    attached to the exception as ``.diagnostics``. On success the
    returned model passes full validation, and the recovered B has as
    many columns as the true continuous noise rank.

    Raises
    ------
    LogFailure
        Condition (i): no principal logarithm of ``A_d``.
    QdSingular
        Condition (ii): ``Q_d`` numerically singular. A triple whose
        noise intensity is rank deficient cannot come from sampling a
        reachable continuous model.
    NotSemidefinite
        Condition (iii): ``A P + P A'`` has a significantly positive
        eigenvalue.
    """
    diag = DesampleDiagnostics(logm_exists=False, qd_nonsingular=False,
                               neg_semidef_ok=False)
    schur = schur_form(sm.Ad)  # shared by the logarithm and the discrete solve
    try:
        log_ad = matrix_log_principal(sm.Ad, tol, schur=schur)
    except (ExistenceFailure, SingularInput) as exc:
        raise _refusal(LogFailure(f"A_d admits no principal logarithm: {exc}"), diag) from exc
    diag.logm_exists = True
    a = log_ad / sm.h

    w = np.linalg.eigvalsh(0.5 * (sm.Qd + sm.Qd.T))
    if w.max() <= 0 or w.min() <= tol.psd_tol * w.max():
        raise _refusal(QdSingular(
            "Q_d is numerically singular; the triple cannot arise from "
            "sampling a reachable model"), diag)
    diag.qd_nonsingular = True
    diag.qd_rank = rank_from_values(np.abs(w), sm.n, tol)

    p = solve_lyap_discrete(sm.Ad, sm.Qd, schur=schur)
    candidate = a @ p + p @ a.T
    try:
        b = psd_factor(-candidate, tol)
    except NotPSD as exc:
        raise _refusal(NotSemidefinite(
            f"A P + P A' has positive eigenvalue {-exc.eigenvalue:.6g}; "
            "condition (iii) fails"), diag) from exc
    diag.neg_semidef_ok = True

    # validated first: a reachable B is nonzero, so B B' scales the residual.
    # B's columns are orthogonal (eigenvectors scaled by the square roots of
    # their eigenvalues), so ||B B'||_2 is the largest squared column norm;
    # ||Q_d||_2 is the largest eigenvalue of the Q_d gate, all positive there
    model = validate_ct_model(CtModel(a, b, sm.Cd.copy()), tol)
    diag.residuals = _residuals(a, b @ b.T, sm, p,
                                np.linalg.norm(b, axis=0).max() ** 2, w.max())
    diag.recovered_rank = b.shape[1]
    return model, diag


def hidden_rank_report(model: CtModel, h: float, tol: Tolerances = DEFAULT_TOL) -> HiddenRankReport:
    """Rank bookkeeping for one round trip: the continuous noise rank,
    the (full) rank of the sampled intensity, and the rank recovered by
    de-sampling.

    The rank of B B' is ``model.m``, proved on B by validation; the rank
    of Q_d comes from the eigenvalues of the Q_d gate of :func:`desample`.
    A ``recovered_rank`` below ``bbt_rank`` means not resolvable at this h.
    """
    _, diag = desample(sample(model, h), tol)
    return HiddenRankReport(
        n=model.n,
        bbt_rank=model.m,
        qd_rank=diag.qd_rank,
        recovered_rank=diag.recovered_rank,
    )
