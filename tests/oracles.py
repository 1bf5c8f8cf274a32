"""Independent reference computations and random instance generators.

The oracles here deliberately take different computational routes from
the package: truncated Taylor series for the exponential, composite
Simpson quadrature for the sampled noise integral, and Kronecker
vectorization of the Lyapunov equations against the package's
Bartels-Stewart solvers. The Kronecker route builds an n^2 x n^2 system,
O(n^6) time and O(n^4) memory, so keep oracle inputs small.

Transfer-function equality in the tests is evaluation-based: two systems
are equal when their values agree on a probe set (:func:`probe_points`,
:func:`evaluation_gap`). The relation's defining identity
``F = Phi_yu Phi_u^{-1}`` is evaluated from the spectral density
(:func:`f_from_spectrum`). Reports are checked against a serializer
with one ``'%.17g' %`` per float (:func:`reference_dumps`).
"""

import json

import numpy as np
import scipy.linalg

from dynrel.errors import ConditionError, DynrelError
from dynrel.kernels import DEFAULT_TOL, Tolerances, is_invertible, numerical_rank
from dynrel.lti import StateSpace, freq_response, validate_ct_model


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


class DNotInvertible(ConditionError):
    """The feedthrough matrix of a realization to be inverted is not
    square and numerically invertible."""


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


def pointwise_response(ss: StateSpace, points) -> np.ndarray:
    """``C (sI - A)^{-1} B + D`` by one LU solve per point, as a
    ``(k, n_out, n_in)`` complex array."""
    ident = np.eye(ss.n)
    b = ss.B.astype(np.complex128)
    return np.array([ss.C @ np.linalg.solve(x * ident - ss.A, b) + ss.D for x in points],
                    dtype=np.complex128).reshape(len(points), ss.n_out, ss.n_in)


def in_random_basis(rng, j) -> np.ndarray:
    """``T^{-1} j T`` for a random, well-conditioned T."""
    n = j.shape[0]
    t = rng.normal(size=(n, n)) + n * np.eye(n)
    return np.linalg.solve(t, j @ t)


def near_defective(rng, lam, delta: float) -> np.ndarray:
    """Matrix with the real eigenvalues ``lam``, whose second eigenvalue
    is moved to ``lam[0] + delta`` and coupled to the first by a unit
    entry, in a random basis: the condition number of its eigenvector
    matrix grows like 1 / delta."""
    j = np.diag(np.asarray(lam, dtype=float))
    if j.shape[0] > 1:
        j[1, 1] = j[0, 0] + delta
        j[0, 1] = 1.0
    return in_random_basis(rng, j)


class PhiUSingular(ConditionError):
    """The input-block spectral density is numerically singular."""


def spectral_density(model, omegas) -> np.ndarray:
    """``W(iw) W(iw)*`` of the model output at each frequency of the 1-d
    ``omegas``, made exactly Hermitian, as a ``(k, n_out, n_out)`` array."""
    w = freq_response(model, 1j * np.asarray(omegas, dtype=float))
    phi = w @ w.conj().mT
    return 0.5 * (phi + phi.conj().mT)


def f_from_spectrum(model, rows0, omegas) -> np.ndarray:
    """The relation from the density blocks, ``Phi_yu(iw) Phi_u(iw)^{-1}``,
    at each frequency of ``omegas``; u are the rows ``rows0`` in that
    order, y the other rows in original order. This is the definition of
    F that the relation module's realization must satisfy, so it is
    formed from the blocks of the density, not from a factor of it.

    Raises :class:`PhiUSingular` where ``Phi_u`` fails :func:`is_invertible`.
    """
    phi = spectral_density(model, omegas)
    u = list(rows0)
    y = [i for i in range(model.n_out) if i not in u]
    phi_u, phi_yu = phi[:, u][:, :, u], phi[:, y][:, :, u]
    singular = ~is_invertible(phi_u)
    if singular.any():
        omega = np.asarray(omegas, dtype=float)[singular][0]
        raise PhiUSingular(f"Phi_u is numerically singular at omega = {omega:.6g}")
    return np.linalg.solve(phi_u.mT, phi_yu.mT).mT


def gamma_realization(model, rows0) -> StateSpace:
    """The n-state realization ``(Gamma, K, C1 Gamma, C1 K)`` of the
    relation F whose driving rows are ``rows0``, with K = B (C0 B)^{-1}
    and Gamma = A - K C0 A. It is not minimal: Gamma's m zero
    eigenvalues cancel, so it reduces to at most n - m states."""
    u = list(rows0)
    c0, c1 = model.C[u], model.C[[i for i in range(model.n_out) if i not in u]]
    k = model.B @ np.linalg.inv(c0 @ model.B)
    gamma = model.A - k @ (c0 @ model.A)
    return StateSpace(gamma, k, c1 @ gamma, c1 @ k)


def loop_blocks(t: StateSpace, p: int) -> tuple[StateSpace, ...]:
    """The blocks P, PF, QH, Q of a closed loop's T = [[P, PF], [QH, Q]]
    with a forward map of p outputs, each sharing the loop state (not
    reduced)."""
    y, u = slice(0, p), slice(p, None)
    return tuple(StateSpace(t.A, t.B[:, c], t.C[r], t.D[r, c])
                 for r, c in ((y, y), (y, u), (u, y), (u, u)))


def has_full_eigenbasis(m, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Numerical test that a square matrix has n independent
    eigenvectors (eigenvector-matrix rank at the rank tolerance)."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    _, vecs = np.linalg.eig(a)
    return numerical_rank(vecs, tol) == a.shape[0]


def float17_families() -> dict:
    """Edge families for the 17-digit float formatting of reports, each a
    float64 array: zeros, subnormals and the extremes; every power of ten
    with both neighbours; the switches between fixed and scientific
    notation; doubles below a power of ten whose 17-digit rounding carries
    into the next decade; 2**53 and 2**54 with small offsets; and exact
    ties at the 17th digit (j 10**k + 2**(k - 17) for k < 15, whose
    scaled fraction is exactly 1/2)."""
    tiny = np.finfo(float).smallest_subnormal
    specials = np.array([0.0, tiny, 2 * tiny, 3 * tiny, 1e-320, 4.9406564584124654e-322,
                         np.finfo(float).smallest_normal * (1 - 2.0 ** -52),
                         np.finfo(float).smallest_normal, np.finfo(float).max, 1e-300, 1e300])
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    powers = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    steps = np.arange(-40, 41)
    switches = np.concatenate([_ulp_steps(b, steps) for b in (1e-5, 1e-4, 1e16, 1e17)])
    carries = np.array([v for k, v in zip(range(-323, 309), tens.tolist())
                        if _below_power_of_ten(v, k) and _digits(v) == "1"])
    integers = np.concatenate([2.0 ** 53 + np.arange(-64, 65), 2.0 ** 54 + np.arange(-64, 65, 2)])
    ties = np.array([j * 10.0 ** k + 2.0 ** (k - 17) for k in range(15) for j in range(1, 10)])
    families = {"specials": specials, "powers_of_ten": powers, "notation_switches": switches,
                "decade_carries": carries, "integers_near_2_53": integers, "ties": ties}
    return {name: np.concatenate([v, -v]) for name, v in families.items()}


def _ulp_steps(x: float, steps) -> np.ndarray:
    """The doubles ``steps`` units in the last place from ``x``."""
    bits = np.float64(x).view(np.int64) + np.asarray(steps, dtype=np.int64)
    return bits.view(np.float64)


def _digits(x: float) -> str:
    """The significant digits of ``'%.17g' % x``."""
    return ("%.17g" % x).partition("e")[0].replace(".", "").strip("0")


def _below_power_of_ten(x: float, k: int) -> bool:
    """Whether x < 10**k exactly."""
    n, d = x.as_integer_ratio()
    return n * 10 ** max(-k, 0) < d * 10 ** max(k, 0)


def reference_dumps(obj) -> str:
    """A report in the layout of its nested lists with one
    ``'%.17g' %`` per float: the reference for the batched serializer.
    Non-finite floats raise ValueError in walk order."""
    def scalar(v):
        if v is None:
            return "null"
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, str):
            return json.dumps(v)
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            if not np.isfinite(v):
                raise ValueError(f"non-finite number in report: {float(v)!r}")
            return "%.17g" % v
        if isinstance(v, (complex, np.complexfloating)):
            z = complex(v)
            return f'{{"re": {scalar(z.real)}, "im": {scalar(z.imag)}}}'
        return None

    def emit(v, pad):
        if isinstance(v, np.ndarray):
            v = v.tolist()
        text = scalar(v)
        if text is not None:
            return text
        inner = pad + "  "
        if isinstance(v, dict):
            if not v:
                return "{}"
            items = [f"{inner}{json.dumps(str(k))}: {emit(x, inner)}" for k, x in v.items()]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if not v:
            return "[]"
        tokens = [scalar(x) for x in v]
        if all(t is not None for t in tokens):
            return "[" + ", ".join(tokens) + "]"
        return "[\n" + ",\n".join(inner + emit(x, inner) for x in v) + "\n" + pad + "]"

    return emit(obj, "") + "\n"
