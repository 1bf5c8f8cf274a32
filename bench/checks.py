"""Independent checks of dynrel's reports, written with numpy and scipy
only. Each check takes the call's context (the matrices the benchmark
generated), the exit code and the parsed report, and returns ``None`` when
the report is right or a one-line reason when it is not.
"""

import itertools

import numpy as np
import scipy.linalg

COND_LIMIT = 1e12          # dynrel's invertibility ceiling for C0 B
STABILITY_MARGIN = 1e-9    # dynrel's default stability margin
PROBE_OMEGAS = (0.37, 1.3, 4.1)
GRID_COUNT = 200           # dynrel's default frequency grid: 1e-3..1e3


def _close(x, y, rtol):
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape:
        return False
    scale = max(float(np.abs(y).max(initial=0.0)), 1e-300)
    return float(np.abs(x - y).max(initial=0.0)) <= rtol * scale


def _complex(z):
    return complex(z["re"], z["im"])


def _sorted_eigs(a):
    return sorted(np.linalg.eigvals(a), key=lambda z: (z.real, z.imag))


def _tf(a, b, c, d, s):
    a, b, c = np.atleast_2d(a), np.atleast_2d(b), np.atleast_2d(c)
    if a.size == 0:
        return np.asarray(d, dtype=complex)
    return c @ np.linalg.solve(s * np.eye(a.shape[0]) - a, b) + d


def _f_matrices(entry, p, m):
    f = entry["F"]
    if entry["degree"] == 0:
        return np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), np.array(f["D"])
    return np.array(f["A"]), np.array(f["B"]), np.array(f["C"]), np.array(f["D"])


def _expect_refusal(code, rep, kind):
    if code != 3:
        return f"exit {code}, expected 3"
    got = rep.get("error", {}).get("kind")
    if got != kind:
        return f"error kind {got}, expected {kind}"
    return None


def check_validate(ctx, code, rep):
    a, b, c = ctx["A"], ctx["B"], ctx["C"]
    if code != 0 or rep.get("valid") is not True:
        return f"exit {code}, valid {rep.get('valid')}"
    if (rep["n"], rep["outputs"], rep["m"]) != (a.shape[0], c.shape[0], b.shape[1]):
        return "wrong (n, outputs, m)"
    eigs = [_complex(z) for z in rep["eigenvalues"]]
    if not _close(eigs, _sorted_eigs(a), 1e-8):
        return "eigenvalues differ from numpy"
    if rep["labels"] != ctx["labels"]:
        return "labels differ"
    return None


def admissible_subsets(b, c):
    m = b.shape[1]
    return [rows for rows in itertools.combinations(range(c.shape[0]), m)
            if np.linalg.cond(c[list(rows)] @ b) < COND_LIMIT]


def check_relation_entry(a, b, c, entry):
    """Gamma, degree, stability and the map F itself for one selection."""
    n, m = a.shape[0], b.shape[1]
    rows0, rows1 = list(entry["rows0"]), list(entry["rows1"])
    if sorted(rows0 + rows1) != list(range(c.shape[0])):
        return f"rows {rows0} + {rows1} are not a partition"
    c0 = c[rows0]
    gamma = a - b @ np.linalg.solve(c0 @ b, c0 @ a)
    if not _close(np.array(entry["gamma"]), gamma, 1e-8):
        return f"rows0 {rows0}: Gamma differs"
    if entry["degree"] > n - m:
        return f"rows0 {rows0}: degree {entry['degree']} above n - m = {n - m}"
    fa, fb, fc, fd = _f_matrices(entry, len(rows1), m)
    if fa.shape[0] != entry["degree"]:
        return f"rows0 {rows0}: F.A has {fa.shape[0]} states, degree {entry['degree']}"
    stable = bool(fa.size == 0 or np.linalg.eigvals(fa).real.max() < -STABILITY_MARGIN)
    if stable != entry["stable"]:
        return f"rows0 {rows0}: stable {entry['stable']}, eigenvalues of F.A say {stable}"
    for w in PROBE_OMEGAS:
        # with Phi = W W*, W = C (iwI - A)^-1 B and W0 square,
        # Phi_yu Phi_u^-1 = W1 W0* (W0 W0*)^-1 = W1 W0^-1; solving with W0
        # avoids squaring its condition number, which reaches 1e5 on some
        # admissible selections
        wmat = _tf(a, b, c, 0.0, 1j * w)
        ref = np.linalg.solve(wmat[rows0].T, wmat[rows1].T).T
        if not _close(_tf(fa, fb, fc, fd, 1j * w), ref, 1e-6):
            return f"rows0 {rows0}: F(i{w}) differs from Phi_yu Phi_u^-1"
    return None


def check_relation(ctx, code, rep):
    a, b, c = ctx["A"], ctx["B"], ctx["C"]
    entries = rep.get("selections")
    if entries is None:
        return f"exit {code}, no selections"
    if [tuple(e["rows0"]) for e in entries] != admissible_subsets(b, c):
        return "admissible rows0 set differs from cond(C0 B) < 1e12"
    for entry in entries:
        reason = check_relation_entry(a, b, c, entry)
        if reason:
            return reason
    any_stable = any(e["stable"] for e in entries)
    if rep["any_stable"] != any_stable:
        return "any_stable disagrees with the entries"
    if code != (0 if any_stable else 1):
        return f"exit {code} with any_stable {any_stable}"
    return None


def first_stable(relation_report):
    """First stable entry of a ``relation --all`` report, or None."""
    return next((e for e in relation_report["selections"] if e["stable"]), None)


def check_stable_selection(ctx, code, rep, first):
    """``first`` is :func:`first_stable` of the checked ``relation --all``
    report of the same model."""
    if first is None:
        if code != 1 or rep.get("found") is not False:
            return f"exit {code}, found {rep.get('found')}; no selection is stable"
        return None
    if code != 0 or rep.get("found") is not True:
        return f"exit {code}, found {rep.get('found')}; rows0 {first['rows0']} is stable"
    if rep["selection"] != first:
        return f"picked rows0 {rep['selection']['rows0']}, first stable is {first['rows0']}"
    return None


def check_spectrum(ctx, code, rep):
    if code != 0 or rep.get("modal_rank") != ctx["m"] or rep.get("match") is not True:
        return f"exit {code}, modal_rank {rep.get('modal_rank')}, m {ctx['m']}"
    if rep["grid"]["count"] != GRID_COUNT:
        return f"grid has {rep['grid']['count']} points"
    return None


def check_sample(ctx, code, rep):
    a, c = ctx["A"], ctx["C"]
    if code != 0:
        return f"exit {code}"
    if not _close(np.array(rep["Ad"]), scipy.linalg.expm(a * rep["h"]), 1e-9):
        return "Ad differs from scipy.linalg.expm(A h)"
    if not _close(np.array(rep["Cd"]), c, 0.0):
        return "Cd differs from C"
    return None


def check_desample(ctx, code, rep):
    if ctx["singular"]:
        return _expect_refusal(code, rep, "QdSingular")
    a, b, c = ctx["A"], ctx["B"], ctx["C"]
    if code != 0:
        return f"exit {code}"
    if not _close(np.array(rep["A"]), a, 1e-6):
        return "recovered A differs from the source model"
    if not _close(np.array(rep["BBt"]), b @ b.T, 1e-6):
        return "recovered B B' differs from the source model"
    if not _close(np.array(rep["C"]), c, 0.0) or rep["m"] != b.shape[1]:
        return "recovered C or m differs"
    return None


def check_hidden_rank(ctx, code, rep):
    if ctx["singular"]:
        return _expect_refusal(code, rep, "QdSingular")
    n, m = ctx["A"].shape[0], ctx["B"].shape[1]
    got = (rep.get("bbt_rank"), rep.get("qd_rank"), rep.get("recovered_rank"))
    if code != 0 or got != (m, n, m) or rep["n"] != n:
        return f"exit {code}, ranks {got}, expected {(m, n, m)}"
    return None


def check_feedback(ctx, code, rep):
    h_zero = ctx["h_zero"]
    if code != (0 if h_zero else 1):
        return f"exit {code} with H zero {h_zero}"
    if rep["feedback_free"] != h_zero:
        return f"feedback_free {rep['feedback_free']}, H zero by construction {h_zero}"
    if rep["f_stable_when_h_zero"] != (True if h_zero else None):
        return f"f_stable_when_h_zero {rep['f_stable_when_h_zero']}"
    if not (rep["internally_stable"] and rep["consistent"] and rep["well_posed"]):
        return "small-gain loop of stable maps reported unstable or inconsistent"
    if not rep["interchange_residual"] <= 1e-6:
        return f"interchange residual {rep['interchange_residual']}"
    return None


def check_granger(ctx, code, rep):
    fa, fb, fc, fd = ctx["F"]
    grid = np.logspace(-3, 3, GRID_COUNT)
    peak = max(float(np.linalg.norm(_tf(fa, fb, fc, fd, 1j * w), 2)) for w in grid)
    causes = peak > 0.0
    if code != (0 if causes else 1) or rep["granger_causes"] != causes:
        return f"exit {code}, granger_causes {rep['granger_causes']}, F zero {not causes}"
    if not _close(rep["peak_gain"], peak, 1e-9):
        return f"peak gain {rep['peak_gain']}, numpy gives {peak}"
    return None


CHECKS = {
    "validate": check_validate,
    "relation": check_relation,
    "spectrum": check_spectrum,
    "sample": check_sample,
    "desample": check_desample,
    "hidden_rank": check_hidden_rank,
    "feedback": check_feedback,
    "granger": check_granger,
}
