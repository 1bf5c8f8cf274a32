"""Command-line front end.

Each subcommand reads JSON model files, runs the corresponding analysis,
and writes a single machine-readable JSON report to standard output.
Exit codes: 0 success / positive verdict, 1 computed negative verdict,
2 input or validation error, 3 mathematical condition failure.

Every float is written as ``'%.17g' % x``: 17 significant digits,
correctly rounded, so identical inputs give byte-identical reports. A
numpy pass (``_decimal17`` and ``_format17``) gives those bytes for
|x| in [1e-280, 1e280] whenever its double-double product decides the
rounding with margin; the other values, and every pass of fewer than
``_BATCH_MIN`` floats, are written by ``'%.17g' %`` itself. A
non-finite value makes an error report (exit code 2).
"""

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from .errors import ConditionError, DynrelError, InputError
from .feedback import closed_loop_T, feedback_free, granger_verdict, verify_interchange_identities
from .kernels import DEFAULT_TOL, psd_factor
from .lti import is_strictly_stable
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
#
# A report is written in the layout of its nested lists, every float as
# ``'%.17g' % x``: 17 significant digits, correctly rounded. The walk in
# ``_emit`` goes through the report once, in emission order; ``_Text``
# keeps the literal text between floats and formats the floats in numpy
# passes of ``_CHUNK`` values (``_format17``), each joined with its text
# as soon as it is full, so that no temporary grows with the report.

_CHUNK = 8192
# A pass of fewer floats, which is every pass of a small report, takes
# one ``%`` per float: the two took the same time at about 300 floats.
_BATCH_MIN = 300

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_Q_LO, _Q_HI = -270, 299  # holds q = 16 - k for every value in [1e-280, 1e280]
_TIE_BOUND = 2.0 ** -36


def _pow10_table() -> tuple:
    """Arrays P, p, P1, P2 for q in [_Q_LO, _Q_HI]: P = fl(10**q),
    p = fl(10**q - P), and P1 + P2 = P is Dekker's split of P. Built from
    Python ints, whose true division is correctly rounded."""
    rows = []
    for q in range(_Q_LO, _Q_HI + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        big = num / den
        n, d = big.as_integer_ratio()
        rows.append((big, (num * d - n * den) / (den * d)))
    big, small = np.array(rows).T
    c = _SPLIT * big
    big1 = c - (c - big)
    return big, small, big1, big - big1


_K0 = 290  # k + _K0 indexes the tables by decimal exponent, |k| <= 282


def _exponent_tables() -> tuple:
    """By k + _K0: the digit the point follows (17, none, when
    -4 <= k < 0, where the point comes with the prefix) and the exponent
    text; by sign and k: the prefix ("-", "0." and zeros) as a word and
    its length in bits."""
    point, exp, prefix, shift = [], [], [], []
    for k in range(-_K0, _K0 + 1):
        fixed = -4 <= k <= 16
        point.append((k if k >= 0 else 17) if fixed else 0)
        exp.append(b"" if fixed else b"e%+03d" % k)
    for sign in (b"", b"-"):
        for k in range(-_K0, _K0 + 1):
            text = sign + (b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"")
            prefix.append(int.from_bytes(text, "little"))
            shift.append(8 * len(text))
    return (np.array(point), np.array(exp),
            np.array(prefix, dtype=np.uint64), np.array(shift, dtype=np.uint64))


_POINT, _EXP_TEXT, _PREFIX, _PREFIX_BITS = _exponent_tables()


def _layout_table() -> np.ndarray:
    """Three groups of three word rows, indexed by 17 point + last for
    the digit ``point`` the point follows (17 for none: the point then
    comes with the prefix) and the last nonzero digit: which bytes of the
    digits stay, which come one byte on to make room for the point, and
    the point. A fraction that is all zeros loses its point."""
    point, last = np.divmod(np.arange(18 * 17), 17)
    cut = np.where(point == 17, last, np.where(last > point, last + 1, point))[:, None]
    point = point[:, None]
    j = np.arange(24)  # the byte
    groups = ((j <= np.minimum(point, cut), 0xFF), ((point + 1 < j) & (j <= cut), 0xFF),
              ((j == point + 1) & (j <= cut), ord(".")))
    return np.concatenate([np.where(bytes_, fill, 0).astype(np.uint8).view(np.uint64).T
                           for bytes_, fill in groups])


_LAYOUT = _layout_table()
# four ASCII digits of 0-9999, first digit in the lowest byte, and the
# count of their trailing zeros
_DIGITS4 = sum((np.arange(10000, dtype=np.uint64) // 10 ** (3 - i) % 10 + 48) << 8 * i
               for i in range(4))
_ZEROS4 = sum(np.arange(10000) % 10 ** j == 0 for j in range(1, 5))
_P, _P_LOW, _P1, _P2 = _pow10_table()


def _format_each(values) -> list:
    """The reference and fallback: one correctly rounded ``%`` per float."""
    return [b"%.17g" % v for v in values]


def _decimal17(x: np.ndarray) -> tuple:
    """For the finite float64 array ``x``: the 17 significant digits of
    each |v| correctly rounded, as an integer D in [1e16, 1e17) (0 for
    zero), its decimal exponent k, and whether D was decided here.

    For |v| in [1e-280, 1e280] with q = 16 - k, D = round(v 10**q) comes
    from v (P + p) as hi + lo: hi + e = v P exactly (Dekker's product, no
    FMA needed) and lo = fl(e + fl(v p)). With T = v 10**q < 2**57,
    |e| <= ulp(hi)/2 <= 2**3 and |v p| < 2**-53 |v P| < 2**4, so the two
    roundings in lo err by at most 2**-49 + 2**-48, and dropping
    10**q - P - p (at most 2**-106 10**q) errs by at most 2**-49:
    |hi + lo - T| < 2**-47. hi is an integer once hi + lo >= 1e16 > 2**53,
    so floor and fraction of hi + lo are exact, and a fraction at least
    _TIE_BOUND from 1/2 rounds as T does. Values out of that range,
    fractions within the bound, and a floor of hi + lo out of
    [1e16, 1e17 - 1) (at a power of ten, where k may be off by one or the
    rounding carry into the next decade) are not decided."""
    ax = np.abs(x)
    ok = (ax >= 1e-280) & (ax <= 1e280)
    xs = np.where(ok, ax, 1.0)
    k = np.log10(xs).astype(np.int64)  # within one of the exponent
    est = xs * _P[(16 - _Q_LO) - k]
    k += est >= 1e17
    k -= est < 1e16
    q = (16 - _Q_LO) - k
    t = _SPLIT * xs
    x1 = t - (t - xs)
    x2 = xs - x1
    p1, p2 = _P1[q], _P2[q]
    hi = xs * _P[q]
    lo = (((x1 * p1 - hi) + x1 * p2 + x2 * p1) + x2 * p2) + xs * _P_LOW[q]
    del est, t, x1, x2, p1, p2  # a smaller workspace for the rest
    whole = np.floor(lo)
    frac = lo - whole
    digits = hi.astype(np.int64) + whole.astype(np.int64)
    # floor(hi + lo) in [1e16, 1e17 - 1), so that D stays below 1e17
    decided = (ok & (np.abs(frac - 0.5) >= _TIE_BOUND)
               & ((digits - 10 ** 16).view(np.uint64) < 9 * 10 ** 16 - 1))
    digits += frac > 0.5
    zero = ax == 0
    digits[zero] = 0
    k[zero] = 0
    return digits, k, decided | zero


def _digit_words(digits: np.ndarray) -> tuple:
    """The 17 digits of each D as ASCII in three little-endian words, the
    first digit in the lowest byte (one row per word), and the index of
    the last nonzero digit (0 for D = 0)."""
    def split(v, unit):  # np.divmod, by a division numpy makes fast
        high = v // unit
        return high, v - high * unit

    upper, lower = split(digits, 10 ** 8)
    lead, upper = split(upper, 10 ** 8)
    g1, g2 = split(upper, 10 ** 4)
    g3, g4 = split(lower, 10 ** 4)
    a, b, c, d = _DIGITS4[g1], _DIGITS4[g2], _DIGITS4[g3], _DIGITS4[g4]
    words = np.empty((3, digits.size), np.uint64)
    words[0] = (lead + 48).astype(np.uint64) | a << 8 | b << 40
    words[1] = b >> 24 | c << 8 | d << 40
    words[2] = d >> 24
    last = 16 - (_ZEROS4[g4] + (g4 == 0) * (_ZEROS4[g3] + (g3 == 0) * (
        _ZEROS4[g2] + (g2 == 0) * _ZEROS4[g1])))
    return words, last


def _format17(x: np.ndarray) -> list:
    """``b'%.17g' % v`` of every v of the finite float64 array ``x``, at
    most ``_CHUNK`` values: the digits of :func:`_decimal17` laid out as
    ``%g`` does, and ``_format_each`` for the values it did not decide."""
    digits, k, decided = _decimal17(x)
    head = _tokens(*_digit_words(digits), k, np.signbit(x)).view("S24").ravel()
    tokens = np.strings.add(head, _EXP_TEXT[k + _K0]).tolist()
    slow = np.flatnonzero(~decided)
    for i, token in zip(slow.tolist(), _format_each(x[slow].tolist())):
        tokens[i] = token
    return tokens


def _tokens(plain: np.ndarray, last: np.ndarray, k: np.ndarray,
            negative: np.ndarray) -> np.ndarray:
    """The ``%g`` tokens, less the exponent, of the digit words ``plain``
    with their last nonzero digit, decimal exponent and sign: the prefix
    and the digits with their point, left-aligned in a row of three
    little-endian words each and padded with NUL."""
    e = k + _K0
    keep, move, dot = np.take(_LAYOUT, _POINT[e] * 17 + last, axis=1).reshape(3, 3, -1)
    words = plain << 8  # the digits one byte on, behind the point
    words[1:] |= plain[:-1] >> 56
    words &= move
    words |= plain & keep
    words |= dot
    e += negative * (2 * _K0 + 1)
    shift = _PREFIX_BITS[e]
    out = np.empty((k.size, 3), np.uint64)
    np.left_shift(words, shift, out=out.T)
    out.T[1:] |= words[:-1] >> 1 >> 63 - shift
    out[:, 0] |= _PREFIX[e]
    return out


class _Text:
    """A report being written: the literal text since the last float,
    the floats not yet formatted with the bytes before each, and the
    text done so far."""

    __slots__ = ("parts", "lits", "values", "pending", "done")

    def __init__(self):
        self.parts = []  # str pieces of the text since the last float
        self.lits = []  # bytes before each pending float
        self.values = []  # the pending floats: float64 arrays and tuples
        self.pending = 0
        self.done = []

    def floats(self, values, seps):
        """Append the floats ``values`` with the bytes ``seps`` between them."""
        self.lits.append("".join(self.parts).encode())
        self.parts.clear()
        self.lits += seps
        self.values.append(values)
        self.pending += len(values)
        if self.pending >= _CHUNK:
            self.flush(final=False)

    def flush(self, final=True):
        """Format the pending floats in passes of ``_CHUNK`` and join them
        with their text; unless ``final``, a last partial pass stays
        pending. The first non-finite float raises."""
        if not self.pending:
            return
        x = np.concatenate(self.values)
        finite = np.isfinite(x)
        if not finite.all():
            raise InputError(f"non-finite number in report: {float(x[~finite][0])!r}")
        end = x.size if final else x.size - x.size % _CHUNK
        for start in range(0, end, _CHUNK):
            part = x[start:start + _CHUNK]
            tokens = _format17(part) if part.size >= _BATCH_MIN else _format_each(part.tolist())
            joined = [None] * (2 * len(tokens))
            joined[::2] = self.lits[start:start + _CHUNK]
            joined[1::2] = tokens
            self.done.append(b"".join(joined).decode())
        self.values = [x[end:]]
        self.lits = self.lits[end:]
        self.pending = x.size - end

    def finish(self) -> str:
        self.flush()
        self.done.append("".join(self.parts))
        return "".join(self.done)


_COMMA = b", "
_IM, _RE = b', "im": ', b'}, {"re": '
_SCALARS = (str, int, float)  # bool is an int
# the arrays a report holds, by (ndim, dtype): matrices and spectra
_ARRAYS = ((2, np.dtype(np.float64)), (1, np.dtype(np.complex128)))
_INDENT = "  "


@functools.lru_cache(maxsize=256)
def _key_text(pad: str, key: str) -> str:
    """The text before a dict value: ``key`` as a JSON string after
    ``pad``. A report's keys are its field names, a few dozen at each
    depth; the bound holds the cache for any other dict."""
    return f"{pad}{json.dumps(key)}: "


def _block(out: _Text, values, cols: int, head: str, row: bytes, col: bytes, tail: str):
    """Write the floats ``values``, ``cols`` to a row: ``head``, the rows
    with ``row`` between them and ``col`` between their values, ``tail``."""
    out.parts.append(head)
    out.floats(values, (([row] + [col] * (cols - 1)) * (len(values) // cols))[1:])
    out.parts.append(tail)


def _emit(v, out: _Text, pad: str):
    """Write ``v``, its lines after the first indented by ``pad``. ``v`` is
    one of the kinds a report holds: None, a bool, int, float or str, a
    list or dict of them, a float64 matrix or a complex128 vector; any
    other value raises ``TypeError``."""
    if v is None:
        out.parts.append("null")
    elif isinstance(v, bool):
        out.parts.append("true" if v else "false")
    elif isinstance(v, str):
        out.parts.append(json.dumps(v))
    elif isinstance(v, int):
        out.parts.append(str(int(v)))
    elif isinstance(v, float):
        out.floats((v,), ())
    elif isinstance(v, np.ndarray) and (v.ndim, v.dtype) in _ARRAYS:
        if not v.size:
            _emit(v.tolist(), out, pad)
        elif v.ndim == 2:
            inner = pad + _INDENT
            _block(out, v.ravel(), v.shape[1], f"[\n{inner}[", f"],\n{inner}[".encode(), _COMMA,
                   f"]\n{pad}]")
        else:
            _block(out, np.ascontiguousarray(v).view(np.float64), 2, '[{"re": ', _RE, _IM, "}]")
    elif isinstance(v, dict):
        if not v:
            out.parts.append("{}")
        else:
            out.parts.append("{\n")
            inner = pad + _INDENT
            for i, (key, val) in enumerate(v.items()):
                out.parts.append(_key_text(inner, str(key)))
                _emit(val, out, inner)
                out.parts.append(",\n" if i < len(v) - 1 else "\n")
            out.parts.append(pad + "}")
    elif isinstance(v, list):
        if not v:
            out.parts.append("[]")
        elif all(x is None or isinstance(x, _SCALARS) for x in v):
            out.parts.append("[")
            for i, item in enumerate(v):
                if i:
                    out.parts.append(", ")
                _emit(item, out, pad)
            out.parts.append("]")
        else:
            out.parts.append("[\n")
            for i, item in enumerate(v):
                out.parts.append(pad + _INDENT)
                _emit(item, out, pad + _INDENT)
                out.parts.append(",\n" if i < len(v) - 1 else "\n")
            out.parts.append(pad + "]")
    else:
        out.flush()  # a non-finite float before it is named first
        raise TypeError(f"cannot serialize {type(v).__name__} in report")


def dumps_report(obj: dict) -> str:
    """Serialize a report with stable field order and 17-significant-digit
    floats; identical inputs give byte-identical output."""
    out = _Text()
    _emit(obj, out, "")
    out.parts.append("\n")
    return out.finish()


# --------------------------------------------------------------------------
# subcommand handlers: each returns (report body, exit_code); ``run``
# puts the header {"v": 1, "command": ...} in front of the body

def _cmd_validate(args, tol):
    model = load_ct_model(args.model, tol)
    report = {
        "input": args.model,
        "valid": True,
        "n": model.n,
        "outputs": model.n_out,
        "m": model.m,
        "eigenvalues": model.eigenvalues,
        "labels": list(model.labels) if model.labels else None,
    }
    return report, 0


def _parse_grid(spec: str | None) -> np.ndarray:
    if spec is None:
        return default_grid()
    try:
        lo, hi, count = spec.split(":")
        return default_grid(float(lo), float(hi), int(count))
    except InputError as exc:  # first: every InputError is a ValueError
        raise InputError(f"--grid {spec!r}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"--grid must look like LO:HI:N, got {spec!r}") from exc


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
    t_sys = closed_loop_T(f_sys, h_sys)
    internally_stable = is_strictly_stable(t_sys, tol)
    residual = verify_interchange_identities(f_sys, h_sys, t_sys)
    verdict = feedback_free(h_sys, f_sys, tol)
    ok = verdict.h_zero and not verdict.inconsistent and internally_stable
    report = {
        "f": args.f_path,
        "h": args.h_path,
        "well_posed": True,
        "internally_stable": internally_stable,
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


# --------------------------------------------------------------------------
# the command table and the parser it builds

#: each ``Tolerances`` field: its flag and the flag's help
_TOL_FLAGS = {
    "rank_rtol": ("--tol-rank", "override the relative rank cutoff"),
    "psd_tol": ("--tol-psd", "override the PSD negativity allowance and the Q_d singularity gate"),
    "stability_margin": ("--tol-stability", "override the stability margin"),
    "residual_tol": ("--tol-residual",
                     "override the peak gain at or below which a map counts as zero"),
}

_MODEL = ("model", {})
_F = ("--f", dict(required=True, dest="f_path", metavar="F.json"))
_PERIOD = ("--h", dict(required=True, type=float, dest="period"))
_RANK_STABLE = ("rank_rtol", "stability_margin")
_SAMPLING = ("rank_rtol", "psd_tol", "stability_margin")

# The command table, the one declaration of each command: its handler,
# the ``Tolerances`` fields its verdicts read (in the order of
# ``_TOL_FLAGS``), its help and its arguments, each a ``(flag, options of
# add_argument)`` pair and a list of them a mutually exclusive group.
# ``build_parser`` adds the arguments in this order, then the ``--tol-*``
# flags of the fields and no others: a field the command does not read
# could not change its report. ``tests/test_cli.py`` records the reads of
# each handler and holds them to these sets.
_HANDLERS = {
    "validate": (_cmd_validate, _RANK_STABLE, "check every model assumption", [_MODEL]),
    "spectrum": (_cmd_spectrum, _RANK_STABLE, "spectral density rank profile over a grid", [
        _MODEL, ("--grid", dict(metavar="LO:HI:N",
                                help="log-spaced frequency grid (default 1e-3:1e3:200)"))]),
    "relation": (_cmd_relation, _RANK_STABLE, "extract the deterministic relation", [
        _MODEL, [("--rows", dict(metavar="I,J,...", help="driving rows of C (the u-channels)")),
                 ("--all", dict(action="store_true",
                                help="classify every admissible selection (default)"))]]),
    "stable-selection": (_cmd_stable_selection, _RANK_STABLE,
                         "first selection with a strictly stable relation", [_MODEL]),
    "feedback": (_cmd_feedback, _RANK_STABLE + ("residual_tol",),
                 "closed-loop analysis of a pair (F, H)",
                 [_F, ("--h", dict(required=True, dest="h_path", metavar="H.json"))]),
    "granger": (_cmd_granger, ("residual_tol",), "does the input channel help predict the output",
                [_F]),
    "sample": (_cmd_sample, _SAMPLING, "exact discretization at period h", [_MODEL, _PERIOD]),
    "desample": (_cmd_desample, _SAMPLING, "invert the sampling map", [
        _MODEL, ("--h", dict(type=float, dest="period",
                             help="sampling period (overrides the file's h)"))]),
    "hidden-rank": (_cmd_hidden_rank, _SAMPLING, "rank bookkeeping across a round trip",
                    [_MODEL, _PERIOD]),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the commands of ``_HANDLERS``, which takes each flag
    only as spelled in full."""
    parser = argparse.ArgumentParser(
        prog="dynrel", allow_abbrev=False,
        description="Hidden deterministic relations, feedback structure, and "
                    "exact sampling for rational stochastic models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, fields, text, arguments) in _HANDLERS.items():
        sp = sub.add_parser(name, help=text, allow_abbrev=False)
        for arg in arguments:
            if isinstance(arg, list):
                group = sp.add_mutually_exclusive_group()
                for flag, options in arg:
                    group.add_argument(flag, **options)
            else:
                sp.add_argument(arg[0], **arg[1])
        for field in fields:
            flag, text = _TOL_FLAGS[field]
            sp.add_argument(flag, type=float, dest=field, help=text)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on first use and never modified."""
    return build_parser()


def _tolerances(args):
    """DEFAULT_TOL with the ``--tol-*`` flags that were given."""
    overrides = {k: v for k, v in vars(args).items() if k in _TOL_FLAGS and v is not None}
    return replace(DEFAULT_TOL, **overrides) if overrides else DEFAULT_TOL


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
        body, code = _HANDLERS[args.command][0](args, tol)
        text = dumps_report(header | body)  # a non-finite value raises here
    except (DynrelError, ValueError) as err:  # ValueError: numpy's and scipy's own
        sys.stdout.write(dumps_report(header | _error_report(err)))
        sys.stderr.write(f"error: {err}\n")
        return 3 if isinstance(err, ConditionError) else 2
    sys.stdout.write(text)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
