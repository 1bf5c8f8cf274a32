"""Seeded inputs and call schedules for the three benchmark workloads.

Every model is drawn from ``numpy.random.default_rng(seed)`` and checked
here with numpy and scipy only, so the program under test receives
nothing but the generated JSON files. A schedule is the list of CLI calls
one cycle of a workload makes; the benchmark repeats whole cycles, so the
mix of call classes is the same in every run.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

# golden networks of the package's acceptance suite
A3 = [[-9.0, -4.0, -6.0], [6.0, 1.0, 6.0], [4.0, 2.0, 2.0]]
B3 = [[0.0], [4.0], [-4.0]]
C3 = [[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.0, 0.0, 1.0], [3.0, 1.0, 2.0]]
LABELS3 = ["zeta1", "zeta2", "zeta3", "zeta4"]
A2 = [[-3.0, -4.0 / 3.0], [1.5, 0.0]]
B2 = [[-3.0], [-2.0]]
C2 = [[1.0, 0.0], [1.0, -1.0]]

H = 0.1            # sampling period of the roundtrip workload
PSD_GATE = 1e-8    # dynrel's default psd_tol, the Q_d singularity gate
GATE_MARGIN = 100  # both roundtrip sets sit this far from the gate
N_OUT_REL = 9      # relations models: 9 outputs, m = 3 -> 84 subsets
M_REL = 3
N_OUT_SPEC = 6
# freqgrid loops as (p, q, states of F, states of H); shapes are fixed so
# that the cost of a cycle does not depend on the seed
LOOP_SHAPES = ((2, 2, 4, 3), (3, 1, 5, 1), (1, 3, 3, 4), (4, 4, 5, 5))


@dataclass
class Call:
    """One CLI call: its argv, the call class it belongs to, the exit
    code it must return, and what its check needs to know."""

    argv: list
    cls: str
    expect_code: int | None
    check: str
    ctx: dict = field(default_factory=dict)


def interleave(counts):
    """One cycle from (call, count) pairs, each call's repeats spread
    evenly over the cycle. A class's calls then sample the host across
    the whole run, not in one burst per cycle."""
    keyed = [((j + 0.5) / n, i, call) for i, (call, n) in enumerate(counts) for j in range(n)]
    return [call for _, _, call in sorted(keyed, key=lambda k: k[:2])]


def _jsonable(v):
    return v.tolist() if isinstance(v, np.ndarray) else v


def write_model(path, **fields):
    data = {"v": 1}
    data.update({k: _jsonable(v) for k, v in fields.items()})
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f)
    return path


def _hurwitz(rng, n, radius=0.5, centre=-1.0):
    """Random non-normal matrix with spectrum in a disc around ``centre``."""
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    rho = np.abs(np.linalg.eigvals(g)).max()
    return radius * g / rho + centre * np.eye(n)


def _dissipative(rng, n):
    """``A + A'`` negative definite: with ``C0 = B'`` the channel
    subsystem is passive, so that selection has stable zero dynamics."""
    g = rng.standard_normal((n, n))
    s = g @ g.T / n + 0.5 * np.eye(n)
    k = rng.standard_normal((n, n))
    return -(s + 0.5 * (k - k.T))


def _reachable(a, b, rtol=1e-8):
    """PBH test: [A - lambda I, B] keeps full row rank at every eigenvalue."""
    n = a.shape[0]
    scale = np.linalg.norm(np.hstack([a, b]), 2)
    for lam in np.linalg.eigvals(a):
        s = np.linalg.svd(np.hstack([a - lam * np.eye(n), b]), compute_uv=False)
        if s[-1] <= rtol * scale:
            return False
    return True


def _all_pass_rows(rng, a0, b0, c0, rows):
    """Filter each listed output through its own (s - a_i)/(s + a_i), one
    state per row. A selection whose driving rows include a filtered row
    inverts that factor, so its relation F has the pole a_i > 0."""
    n0, k = a0.shape[0], len(rows)
    poles = rng.uniform(0.5, 2.0, size=k)
    a = np.block([[a0, np.zeros((n0, k))], [c0[rows], -np.diag(poles)]])
    b = np.vstack([b0, np.zeros((k, b0.shape[1]))])
    c = np.hstack([c0, np.zeros((c0.shape[0], k))])
    c[rows, n0:] = -2.0 * np.diag(poles)
    return a, b, c


def relation_model(rng, n, kind):
    """n states, m = 3 shocks, 9 outputs.

    ``early``: dissipative A with C0 = B' on rows (0, 1, 2), so the first
    subset in lexicographic order is stable and a lazy search stops there.
    ``none``: all but two outputs (at most n - 3) carry an all-pass
    factor with a right-half-plane zero, so every 3-subset includes one
    and no selection is stable: every subset is examined.
    """
    while True:
        if kind == "early":
            a = _dissipative(rng, n)
            b = rng.standard_normal((n, M_REL))
            c = rng.standard_normal((N_OUT_REL, n))
            c[:M_REL] = b.T
        else:
            k = min(N_OUT_REL, n - M_REL)
            n0 = n - k
            a, b, c = _all_pass_rows(
                rng, _dissipative(rng, n0), rng.standard_normal((n0, M_REL)),
                rng.standard_normal((N_OUT_REL, n0)), list(range(N_OUT_REL - k, N_OUT_REL)))
        if _reachable(a, b) and _reachable(a.T, c.T):
            return a, b, c


def sampling_model(rng, n, m, want_singular):
    """Stable model with m = n/2 (Q_d well conditioned) or m = n/5 (Q_d
    numerically singular at h = 0.1); returns (A, B, C, eig ratio of Q_d).

    For m = n/2 the block of A that maps range(B) onto its complement is
    twice an orthonormal matrix, which keeps the smallest eigenvalue of
    Q_d near h^2/12 of the largest. For m = n/5 that block is random and
    range(B) needs five steps of A to reach the whole space, so Q_d falls
    below roundoff. Redraws until the ratio is GATE_MARGIN times away
    from the gate on the wanted side.
    """
    while True:
        mat = rng.standard_normal((n, n)) / np.sqrt(n)
        if not want_singular:
            mat[m:, :m] = 2.0 * np.linalg.qr(rng.standard_normal((n - m, m)))[0]
        mat -= (np.linalg.eigvals(mat).real.max() + 1.0) * np.eye(n)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a, b = q @ mat @ q.T, q[:, :m]
        c = rng.standard_normal((m, n))
        if not (_reachable(a, b) and _reachable(a.T, c.T)):
            continue
        w = np.linalg.eigvalsh(exact_sample(a, b, H)[1])
        ratio = w.min() / w.max()
        if (ratio < PSD_GATE / GATE_MARGIN) if want_singular else (ratio > PSD_GATE * GATE_MARGIN):
            return a, b, c, ratio


def exact_sample(a, b, h):
    """Van Loan: one exponential of ``[[A, B B'], [0, -A']] h``."""
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = a
    block[:n, n:] = b @ b.T
    block[n:, n:] = -a.T
    e = scipy.linalg.expm(block * h)
    ad = e[:n, :n]
    qd = e[:n, n:] @ ad.T
    return ad, 0.5 * (qd + qd.T)


def hinf_estimate(a, b, c, d, grid):
    """Peak 2-norm gain of C (iwI - A)^-1 B + D over a grid."""
    n = a.shape[0]
    peak = 0.0
    for w in grid:
        g = c @ np.linalg.solve(1j * w * np.eye(n) - a, b) + d
        peak = max(peak, float(np.linalg.norm(g, 2)))
    return peak


def random_stable_map(rng, p, q, n, d_scale=0.1):
    a = _dissipative(rng, n)
    b = rng.standard_normal((n, q))
    c = rng.standard_normal((p, n))
    d = d_scale * rng.standard_normal((p, q))
    return a, b, c, d


def zero_map(p, q):
    """Identically zero p x q map as a one-state realization: the file
    schema forbids the empty matrices of a static zero gain."""
    return np.array([[-1.0]]), np.zeros((1, q)), np.zeros((p, 1))


# --------------------------------------------------------------------------
# workloads


def _rel_calls(path, cls, model):
    return [
        Call(["validate", path], f"validate/{cls}", 0, "validate", model),
        Call(["relation", path, "--all"], f"relation/{cls}", None, "relation", model),
        Call(["stable-selection", path], f"stable-selection/{cls}", None,
             "stable_selection", model),
    ]


def build_relations(rng, workdir):
    """Each builder returns (one cycle of calls, one call of each
    subcommand on the smallest model for the set-up probe, a record of
    the inputs)."""
    models = {
        "model3": (np.array(A3), np.array(B3), np.array(C3), LABELS3),
        "model2": (np.array(A2), np.array(B2), np.array(C2), None),
    }
    for n, kind in ((10, "early"), (10, "none"), (30, "early"), (30, "none")):
        a, b, c = relation_model(rng, n, kind)
        models[f"n{n}-{kind}"] = (a, b, c, None)
    calls = {}
    for name, (a, b, c, labels) in models.items():
        path = os.path.join(workdir, f"{name}.json")
        extra = {"labels": labels} if labels else {}
        write_model(path, A=a, B=b, C=c, **extra)
        ctx = {"A": a, "B": b, "C": c, "labels": labels}
        calls[name] = _rel_calls(path, name, ctx)
    # calls per cycle of (validate, relation, stable-selection): see
    # README.md for how they place p50 and p90
    weights = {
        "model3": (2, 8, 2), "model2": (2, 2, 2),
        "n10-early": (1, 1, 1), "n10-none": (1, 1, 1),
        "n30-early": (1, 3, 1), "n30-none": (1, 3, 1),
    }
    counts = [pair for name, ws in weights.items() for pair in zip(calls[name], ws)]
    return interleave(counts), calls["model2"], {}


def build_roundtrip(rng, workdir, sample_fn):
    """``sample_fn(argv)`` runs ``dynrel sample`` and returns its report
    text; desample reads that output, as a user piping the two would."""
    specs = [(10, 5, False), (30, 15, False), (60, 30, False),
             (10, 2, True), (30, 6, True)]
    calls = {}
    margins = {}
    for n, m, singular in specs:
        a, b, c, ratio = sampling_model(rng, n, m, singular)
        name = f"n{n}-m{m}"
        margins[name] = ratio
        path = os.path.join(workdir, f"{name}.json")
        write_model(path, A=a, B=b, C=c)
        sampled = os.path.join(workdir, f"{name}-sampled.json")
        with open(sampled, "w", encoding="utf-8") as f:
            f.write(sample_fn(["sample", path, "--h", str(H)]))
        ctx = {"A": a, "B": b, "C": c, "singular": singular}
        code = 3 if singular else 0
        calls[name] = [
            Call(["sample", path, "--h", str(H)], f"sample/{name}", 0, "sample", ctx),
            Call(["desample", sampled], f"desample/{name}", code, "desample", ctx),
            Call(["hidden-rank", path, "--h", str(H)], f"hidden-rank/{name}", code,
                 "hidden_rank", ctx),
        ]
    weights = {"n10-m5": 7, "n10-m2": 1, "n30-m15": 1, "n30-m6": 1, "n60-m30": 2}
    counts = [(call, w) for name, w in weights.items() for call in calls[name]]
    return interleave(counts), calls["n10-m5"], {"qd_eig_ratio": margins}


def build_freqgrid(rng, workdir):
    spec_calls = {}
    for n in (10, 30):
        a = _hurwitz(rng, n)
        b = rng.standard_normal((n, M_REL))
        c = rng.standard_normal((N_OUT_SPEC, n))
        path = os.path.join(workdir, f"spec-n{n}.json")
        write_model(path, A=a, B=b, C=c)
        spec_calls[n] = Call(["spectrum", path], f"spectrum/n{n}", 0, "spectrum",
                             {"m": M_REL})
    grid = np.logspace(-3, 3, 400)
    loops = []
    for i, (p, q, nf, nh) in enumerate(LOOP_SHAPES):
        fa, fb, fc, fd = random_stable_map(rng, p, q, nf)
        f_path = os.path.join(workdir, f"F{i}.json")
        write_model(f_path, A=fa, B=fb, C=fc, D=fd)
        h_zero = i % 2 == 1
        if h_zero:
            ha, hb, hc = zero_map(q, p)
            hd = np.zeros((q, p))
        else:
            ha, hb, hc, hd = random_stable_map(rng, q, p, nh)
            # small gain: |F|inf |H|inf <= 0.25 makes the loop internally stable
            gain = hinf_estimate(fa, fb, fc, fd, grid) * hinf_estimate(ha, hb, hc, hd, grid)
            scale = 0.25 / gain
            hc, hd = hc * scale, hd * scale
        h_path = os.path.join(workdir, f"H{i}.json")
        write_model(h_path, A=ha, B=hb, C=hc, D=hd)
        f_map = (fa, fb, fc, fd)
        loops.append(Call(["feedback", "--f", f_path, "--h", h_path], f"feedback/loop{i}",
                          0 if h_zero else 1, "feedback", {"h_zero": h_zero}))
        loops.append(Call(["granger", "--f", f_path], f"granger/F{i}", 0, "granger",
                          {"F": f_map}))
    za, zb, zc = zero_map(2, 2)
    z_path = os.path.join(workdir, "F-zero.json")
    write_model(z_path, A=za, B=zb, C=zc)
    zero_call = Call(["granger", "--f", z_path], "granger/F-zero", 1, "granger",
                     {"F": (za, zb, zc, np.zeros((2, 2)))})
    counts = [(spec_calls[10], 2), (spec_calls[30], 3)] + [(c, 1) for c in loops + [zero_call]]
    return interleave(counts), [spec_calls[10], loops[0], loops[1]], {}
