"""Command-line front end.

Each subcommand reads JSON model files, runs the corresponding analysis,
and writes a single machine-readable JSON report to standard output.
Exit codes: 0 success / positive verdict, 1 computed negative verdict,
2 input or validation error, 3 mathematical condition failure. Floats
are emitted with 17 significant digits so reports are byte-identical
across runs.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .errors import ConditionError, InputError
from .feedback import (
    FeedbackModel,
    closed_loop_T,
    feedback_free,
    granger_verdict,
    verify_interchange_identities,
)
from .kernels import DEFAULT_TOL, psd_factor, sorted_eigvals
from .modelio import load_ct_model, load_sampled_model, load_state_space
from .relation import (
    classify_selection,
    classify_selections,
    enumerate_selections,
    stable_selection_exists,
)
from .sampling import desample, dual_lyapunov_check, hidden_rank_report, sample
from .spectral import default_grid, spectral_rank_profile

__all__ = ["run", "main", "dumps_report"]


# --------------------------------------------------------------------------
# deterministic JSON emission

def _float_token(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in report: {x!r}")
    return f"{x:.17g}"


def _scalar_token(v):
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _float_token(float(v))
    if isinstance(v, (complex, np.complexfloating)):
        z = complex(v)
        return f'{{"re": {_float_token(z.real)}, "im": {_float_token(z.imag)}}}'
    return None


def _emit(v, lines: list, pad: str, indent: str = "  "):
    token = _scalar_token(v)
    if token is not None:
        lines.append(token)
        return
    if isinstance(v, np.ndarray):
        if v.ndim == 2 and v.dtype.kind == "f":
            _emit_matrix(v, lines, pad, indent)
            return
        if v.ndim == 1 and v.dtype.kind == "c":
            _emit_complex(v, lines)
            return
        v = v.tolist()
    if isinstance(v, dict):
        if not v:
            lines.append("{}")
            return
        lines.append("{\n")
        for i, (key, val) in enumerate(v.items()):
            lines.append(f"{pad}{indent}{json.dumps(str(key))}: ")
            _emit(val, lines, pad + indent, indent)
            lines.append(",\n" if i < len(v) - 1 else "\n")
        lines.append(pad + "}")
        return
    if isinstance(v, (list, tuple)):
        items = list(v)
        if not items:
            lines.append("[]")
            return
        tokens = [_scalar_token(x) for x in items]
        if all(t is not None for t in tokens):
            lines.append("[" + ", ".join(tokens) + "]")
            return
        lines.append("[\n")
        for i, item in enumerate(items):
            lines.append(pad + indent)
            _emit(item, lines, pad + indent, indent)
            lines.append(",\n" if i < len(items) - 1 else "\n")
        lines.append(pad + "]")
        return
    raise TypeError(f"cannot serialize {type(v).__name__} in report")


_FLOAT_FIELD = "%.17g"
_COMPLEX_FIELD = '{"re": %.17g, "im": %.17g}'


def _check_finite(a: np.ndarray):
    """Raise the list path's error for the first non-finite entry of
    ``a`` in row-major order."""
    finite = np.isfinite(a)
    if not finite.all():
        _float_token(float(a[~finite][0]))


@functools.lru_cache(maxsize=256)
def _matrix_template(rows: int, cols: int, pad: str, indent: str) -> str:
    """``%`` template of a rows x cols matrix in the layout the list path
    gives its nested list."""
    row = pad + indent + "[" + ", ".join([_FLOAT_FIELD] * cols) + "]"
    return "[\n" + ",\n".join([row] * rows) + "\n" + pad + "]"


def _emit_matrix(a: np.ndarray, lines: list, pad: str, indent: str):
    """A real matrix, formatted with one ``%`` on a cached template;
    the same bytes as the list path."""
    _check_finite(a)
    if a.shape[0] == 0:
        lines.append("[]")
        return
    lines.append(_matrix_template(*a.shape, pad, indent) % tuple(a.ravel().tolist()))


def _emit_complex(z: np.ndarray, lines: list):
    """A 1-d complex array, formatted with one ``%``; the same bytes as
    the list of its Python complex values."""
    parts = np.stack([z.real, z.imag], axis=-1)  # re, im interleaved
    _check_finite(parts)
    lines.append("[" + ", ".join([_COMPLEX_FIELD] * z.size) % tuple(parts.ravel().tolist()) + "]")


def dumps_report(obj: dict) -> str:
    """Serialize a report with stable field order and 17-significant-digit
    floats; identical inputs give byte-identical output."""
    lines: list = []
    _emit(obj, lines, "")
    return "".join(lines) + "\n"


# --------------------------------------------------------------------------
# argument parsing

def _add_tol_flags(sp: argparse.ArgumentParser):
    sp.add_argument("--tol-rank", type=float, default=None,
                    help="override the relative rank cutoff")
    sp.add_argument("--tol-psd", type=float, default=None,
                    help="override the PSD negativity allowance")
    sp.add_argument("--tol-stability", type=float, default=None,
                    help="override the stability margin")
    sp.add_argument("--tol-residual", type=float, default=None,
                    help="override the residual bound")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynrel",
        description="Hidden deterministic relations, feedback structure, and "
                    "exact sampling for rational stochastic models.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check every model assumption")
    sp.add_argument("model")

    sp = sub.add_parser("spectrum", help="spectral density rank profile over a grid")
    sp.add_argument("model")
    sp.add_argument("--grid", default=None, metavar="LO:HI:N",
                    help="log-spaced frequency grid (default 1e-3:1e3:200)")

    sp = sub.add_parser("relation", help="extract the deterministic relation")
    sp.add_argument("model")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--rows", default=None, metavar="I,J,...",
                       help="driving rows of C (the u-channels)")
    group.add_argument("--all", action="store_true",
                       help="classify every admissible selection (default)")

    sp = sub.add_parser("stable-selection",
                        help="first selection with a strictly stable relation")
    sp.add_argument("model")

    sp = sub.add_parser("feedback", help="closed-loop analysis of a pair (F, H)")
    sp.add_argument("--f", required=True, dest="f_path", metavar="F.json")
    sp.add_argument("--h", required=True, dest="h_path", metavar="H.json")

    sp = sub.add_parser("granger", help="does the input channel help predict the output")
    sp.add_argument("--f", required=True, dest="f_path", metavar="F.json")

    sp = sub.add_parser("sample", help="exact discretization at period h")
    sp.add_argument("model")
    sp.add_argument("--h", required=True, type=float, dest="period")

    sp = sub.add_parser("desample", help="invert the sampling map")
    sp.add_argument("model")
    sp.add_argument("--h", type=float, default=None, dest="period",
                    help="sampling period (overrides the file's h)")

    sp = sub.add_parser("hidden-rank", help="rank bookkeeping across a round trip")
    sp.add_argument("model")
    sp.add_argument("--h", required=True, type=float, dest="period")

    for sp in sub.choices.values():  # every subcommand takes the tolerance flags
        _add_tol_flags(sp)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on first use and never modified."""
    return build_parser()


def _tolerances(args):
    """DEFAULT_TOL with the ``--tol-*`` flags that were given."""
    flags = {"rank_rtol": args.tol_rank, "psd_tol": args.tol_psd,
             "stability_margin": args.tol_stability, "residual_tol": args.tol_residual}
    overrides = {k: v for k, v in flags.items() if v is not None}
    if not overrides:
        return DEFAULT_TOL
    try:
        return replace(DEFAULT_TOL, **overrides)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_grid(spec: str | None) -> np.ndarray:
    if spec is None:
        return default_grid()
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError(f"--grid must look like LO:HI:N, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"--grid must look like LO:HI:N, got {spec!r}") from exc
    try:
        return default_grid(lo, hi, count)
    except ValueError as exc:
        raise InputError(f"--grid {spec!r}: {exc}") from exc


# --------------------------------------------------------------------------
# subcommand handlers: each returns (report body, exit_code); ``run``
# puts the header {"v": 1, "command": ...} in front of the body

def _cmd_validate(args, tol):
    model = load_ct_model(args.model, tol)
    eigs = sorted_eigvals(model.A)
    report = {
        "input": args.model,
        "valid": True,
        "n": model.n,
        "outputs": model.n_out,
        "m": model.m,
        "eigenvalues": eigs,
        "labels": list(model.labels) if model.labels else None,
    }
    return report, 0


def _cmd_spectrum(args, tol):
    model = load_ct_model(args.model, tol)
    grid = _parse_grid(args.grid)
    modal = spectral_rank_profile(model, grid, tol)
    match = modal == model.m
    report = {
        "input": args.model,
        "grid": {"lo": float(grid[0]), "hi": float(grid[-1]), "count": int(grid.size)},
        "modal_rank": modal,
        "m": model.m,
        "match": match,
    }
    return report, 0 if match else 1


def _selection_entry(model, report):
    entry = {
        "rows0": list(report.rows0),
        "rows1": list(report.rows1),
        "gamma": report.gamma,
        "gamma_eigenvalues": report.gamma_eigs,
        "degree": report.degree,
        "stable": report.stable,
        "poles": report.poles,
        "F": {name: getattr(report.F, name) for name in "ABCD"},
    }
    if model.labels:
        entry["u_labels"] = [model.labels[i] for i in report.rows0]
    return entry


def _parse_rows(spec: str) -> tuple[int, ...]:
    """The integers of ``--rows``; :func:`classify_selection` checks them
    as a selection."""
    try:
        return tuple(int(p) for p in spec.split(","))
    except ValueError as exc:
        raise InputError(f"--rows must be comma-separated integers, got {spec!r}") from exc


def _cmd_relation(args, tol):
    model = load_ct_model(args.model, tol)
    base = {"input": args.model, "m": model.m}
    if args.rows is not None:
        rep = classify_selection(model, _parse_rows(args.rows), tol)
        base["selection"] = _selection_entry(model, rep)
        return base, 0 if rep.stable else 1
    entries = [
        _selection_entry(model, rep)
        for rep in classify_selections(model, enumerate_selections(model), tol)
    ]
    any_stable = any(e["stable"] for e in entries)
    base["selections"] = entries
    base["any_stable"] = any_stable
    return base, 0 if any_stable else 1


def _cmd_stable_selection(args, tol):
    model = load_ct_model(args.model, tol)
    rep = stable_selection_exists(model, tol)
    report = {"input": args.model}
    if rep is None:
        report["found"] = False
        return report, 1
    report["found"] = True
    report["selection"] = _selection_entry(model, rep)
    return report, 0


def _cmd_feedback(args, tol):
    f_sys = load_state_space(args.f_path)
    h_sys = load_state_space(args.h_path)
    fm = FeedbackModel(F=f_sys, H=h_sys)
    cl = closed_loop_T(fm, tol)
    residual = verify_interchange_identities(cl)
    verdict = feedback_free(h_sys, f_sys, tol)
    ok = verdict.h_zero and not verdict.inconsistent and cl.internally_stable
    report = {
        "f": args.f_path,
        "h": args.h_path,
        "well_posed": True,
        "internally_stable": cl.internally_stable,
        "interchange_residual": residual,
        "feedback_free": verdict.h_zero,
        "f_stable_when_h_zero": verdict.f_stable,
        "consistent": not verdict.inconsistent,
    }
    return report, 0 if ok else 1


def _cmd_granger(args, tol):
    f_sys = load_state_space(args.f_path)
    causes, peak = granger_verdict(f_sys, tol)
    report = {
        "f": args.f_path,
        "granger_causes": causes,
        "peak_gain": peak,
    }
    return report, 0 if causes else 1


def _cmd_sample(args, tol):
    model = load_ct_model(args.model, tol)
    sm = sample(model, args.period)
    r_cont, r_disc = dual_lyapunov_check(model, sm)
    report = {
        "input": args.model,
        "h": float(args.period),
        "Ad": sm.Ad,
        "Bd": psd_factor(sm.Qd, tol),
        "Qd": sm.Qd,
        "Cd": sm.Cd,
        "dual_residuals": {"continuous": r_cont, "discrete": r_disc},
    }
    return report, 0


def _diag_dict(diag) -> dict:
    out = {
        "logm_exists": diag.logm_exists,
        "qd_nonsingular": diag.qd_nonsingular,
        "neg_semidef_ok": diag.neg_semidef_ok,
    }
    if diag.residuals is not None:
        out["residuals"] = {"continuous": diag.residuals[0],
                            "discrete": diag.residuals[1]}
    out["recovered_rank"] = diag.recovered_rank
    return out


def _cmd_desample(args, tol):
    sm = load_sampled_model(args.model, h=args.period)
    model, diag = desample(sm, tol)
    report = {
        "input": args.model,
        "h": sm.h,
        "diagnostics": _diag_dict(diag),
        "A": model.A,
        "B": model.B,
        "BBt": model.B @ model.B.T,
        "C": model.C,
        "m": model.m,
    }
    return report, 0


def _cmd_hidden_rank(args, tol):
    model = load_ct_model(args.model, tol)
    rep = hidden_rank_report(model, args.period, tol)
    report = {
        "input": args.model,
        "h": float(args.period),
        "n": rep.n,
        "bbt_rank": rep.bbt_rank,
        "qd_rank": rep.qd_rank,
        "recovered_rank": rep.recovered_rank,
        "hidden": rep.qd_rank > rep.bbt_rank,
    }
    return report, 0


_HANDLERS = {
    "validate": _cmd_validate,
    "spectrum": _cmd_spectrum,
    "relation": _cmd_relation,
    "stable-selection": _cmd_stable_selection,
    "feedback": _cmd_feedback,
    "granger": _cmd_granger,
    "sample": _cmd_sample,
    "desample": _cmd_desample,
    "hidden-rank": _cmd_hidden_rank,
}


def _error_report(err: Exception) -> dict:
    report = {"error": {"kind": type(err).__name__, "message": str(err)}}
    diag = getattr(err, "diagnostics", None)
    if diag is not None:
        report["diagnostics"] = _diag_dict(diag)
    return report


def run(argv) -> int:
    """Execute one subcommand; report to stdout, messages to stderr."""
    args = _shared_parser().parse_args(argv)
    header = {"v": 1, "command": args.command}
    try:
        tol = _tolerances(args)
        body, code = _HANDLERS[args.command](args, tol)
    except (InputError, ValueError, ConditionError) as err:
        sys.stdout.write(dumps_report(header | _error_report(err)))
        sys.stderr.write(f"error: {err}\n")
        return 3 if isinstance(err, ConditionError) else 2
    sys.stdout.write(dumps_report(header | body))
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
