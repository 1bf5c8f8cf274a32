"""Independent reference computations and random instance generators.

The oracles here deliberately take different computational routes from
the package: truncated Taylor series for the exponential, composite
Simpson quadrature for the sampled noise integral, and Kronecker
vectorization of the Lyapunov equations against the package's
Bartels-Stewart solvers. The Kronecker route builds an n^2 x n^2 system,
O(n^6) time and O(n^4) memory, so keep oracle inputs small.
"""

import numpy as np
import scipy.linalg

from dynrel.errors import DynrelError
from dynrel.lti import StateSpace, validate_ct_model


def taylor_expm(m, t: float = 1.0, terms: int = 60) -> np.ndarray:
    """Matrix exponential by scaled truncated Taylor series plus
    repeated squaring."""
    a = np.asarray(m, dtype=float) * t
    n = a.shape[0]
    squarings = 0
    while np.linalg.norm(a, 1) > 0.25:
        a = a / 2.0
        squarings += 1
    term = np.eye(n)
    total = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ a / k
        total = total + term
        if np.linalg.norm(term, 1) < 1e-30:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def kron_lyap_continuous(a, q) -> np.ndarray:
    """Solve ``A P + P A' + Q = 0`` through the vectorized system
    ``(I (x) A + A (x) I) vec(P) = -vec(Q)``."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    n = a.shape[0]
    ident = np.eye(n)
    vec_p = np.linalg.solve(np.kron(ident, a) + np.kron(a, ident),
                            -q.reshape(-1, order="F"))
    return vec_p.reshape((n, n), order="F")


def kron_lyap_discrete(a_d, q_d) -> np.ndarray:
    """Solve ``P = A_d P A_d' + Q_d`` through the vectorized system
    ``(I - A_d (x) A_d) vec(P) = vec(Q_d)``."""
    a_d = np.asarray(a_d, dtype=float)
    q_d = np.asarray(q_d, dtype=float)
    n = a_d.shape[0]
    vec_p = np.linalg.solve(np.eye(n * n) - np.kron(a_d, a_d),
                            q_d.reshape(-1, order="F"))
    return vec_p.reshape((n, n), order="F")


def simpson_qd(a, q, h: float, intervals: int = 1000) -> np.ndarray:
    """Composite-Simpson quadrature of ``exp(A s) Q exp(A' s)`` over
    [0, h]; the step is fine enough for ~1e-10 relative accuracy at
    desk scale."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if intervals % 2:
        intervals += 1
    sigma = np.linspace(0.0, h, intervals + 1)
    weights = np.ones(intervals + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (h / intervals) / 3.0
    total = np.zeros_like(q)
    for w, s in zip(weights, sigma):
        e = scipy.linalg.expm(a * s)
        total += w * (e @ q @ e.T)
    return total


def match_gap(a, b) -> float:
    """Largest pairing distance between two complex multisets under
    greedy nearest matching; large when the multisets differ."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        return np.inf
    worst = 0.0
    for z in a:
        if not b:
            return np.inf
        j = int(np.argmin([abs(z - w) for w in b]))
        worst = max(worst, abs(z - b.pop(j)))
    return worst


def nonzero_spectrum(m) -> np.ndarray:
    """Eigenvalues of the square matrix ``m`` that are not zero up to
    roundoff, sorted by (real, imaginary) part.

    The cutoff is ``||m||_2 * (n eps)^(1/n)``: a perturbation of relative
    size ``n eps`` moves a zero eigenvalue of a nilpotent block of size
    up to n by at most about that much, so the roundoff of a defective
    zero eigenvalue is not counted. A cutoff from ``max |lam|`` would be
    roundoff itself for a nilpotent m. Backs the similarity property
    that AB and BA share their nonzero eigenvalues.
    """
    a = np.atleast_2d(np.asarray(m, dtype=float))
    n = a.shape[0]
    eigs = np.linalg.eigvals(a).astype(np.complex128)
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    if n == 0:
        return eigs
    cutoff = np.linalg.norm(a, 2) * (n * np.finfo(float).eps) ** (1.0 / n)
    return eigs[np.abs(eigs) > cutoff]


def hurwitz(rng, n: int, margin=(0.5, 1.5)) -> np.ndarray:
    """Random Hurwitz matrix: a Gaussian matrix shifted left of the
    imaginary axis by a random margin."""
    a = rng.normal(size=(n, n))
    shift = float(np.linalg.eigvals(a).real.max()) + rng.uniform(*margin)
    return a - shift * np.eye(n)


def random_ct_model(rng, n=None, m=None, n_out=None, tries: int = 50):
    """Random validated continuous-time model; retries until the random
    draw passes all structural checks."""
    for _ in range(tries):
        nn = int(n if n is not None else rng.integers(2, 7))
        mm = int(m if m is not None else rng.integers(1, nn + 1))
        ll = int(n_out if n_out is not None else rng.integers(mm, nn + 2))
        a = hurwitz(rng, nn)
        b = rng.normal(size=(nn, mm))
        c = rng.normal(size=(ll, nn))
        try:
            return validate_ct_model(StateSpace(a, b, c))
        except DynrelError:
            continue
    raise RuntimeError("could not draw a valid random model")


def random_stable_ss(rng, n_out: int, n_in: int, n: int = None, d_scale: float = 0.15) -> StateSpace:
    """Random strictly stable realization with a small feedthrough,
    suitable for building well-posed loops."""
    nn = int(n if n is not None else rng.integers(1, 4))
    a = hurwitz(rng, nn)
    b = rng.normal(size=(nn, n_in))
    c = rng.normal(size=(n_out, nn))
    d = d_scale * rng.normal(size=(n_out, n_in))
    return StateSpace(a, b, c, d)
