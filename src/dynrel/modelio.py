"""JSON model-file schema (version 1) and loaders.

Continuous files carry ``{"v": 1, "A": [[..]], "B": [[..]], "C": [[..]]}``
with optional ``"D"`` (needed only for general transfer-function inputs)
and optional ``"labels"``. Sampled files carry
``{"v": 1, "Ad": [[..]], "Qd": [[..]] or "Bd": [[..]], "Cd": [[..]], "h": ..}``;
when both ``Qd`` and ``Bd`` are present, ``Qd`` wins.

Each loader takes a path and returns the object the analyses take:
:func:`load_ct_model` a validated :class:`CtModel`,
:func:`load_state_space` a plain :class:`StateSpace` (D allowed) and
:func:`load_sampled_model` a :class:`SampledModel`. All three read the
file through :func:`parse_model`, the one site that checks the JSON;
the model types check the shapes of the matrices they are built from.
"""

import json
from pathlib import Path

import numpy as np

from .errors import (DimensionMismatch, InputError, NonPositiveH, ParseError,
                     SchemaVersionUnsupported)
from .kernels import DEFAULT_TOL, Tolerances, require_shape
from .lti import CtModel, StateSpace, _labels, validate_ct_model
from .sampling import SampledModel, _period

__all__ = [
    "SCHEMA_VERSION",
    "parse_model",
    "load_ct_model",
    "load_state_space",
    "load_sampled_model",
]

SCHEMA_VERSION = 1

#: Types a JSON number parses to; ``bool`` is excluded although it subclasses int.
_REAL_TYPES = frozenset((int, float))


def _matrix_field(data: dict, field: str, required: bool = True) -> np.ndarray | None:
    raw = data.get(field)
    if raw is None:
        if required:
            raise DimensionMismatch(f"{field}: required matrix field is missing")
        return None
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise DimensionMismatch(f"{field}: must be a non-empty list of rows")
    width = len(raw[0])
    for i, row in enumerate(raw):
        if len(row) != width:
            raise DimensionMismatch(
                f"{field}: row {i} has {len(row)} entries, expected {width}")
        # one C-level pass per row; the entries are visited only to name an offender
        if not set(map(type, row)) <= _REAL_TYPES:
            j, entry = next((j, e) for j, e in enumerate(row) if type(e) not in _REAL_TYPES)
            raise ParseError(f"{field}[{i}][{j}]: not a real number: {entry!r}")
    if width == 0:
        raise DimensionMismatch(f"{field}: rows must be non-empty")
    try:
        arr = np.array(raw, dtype=float)
        finite = np.all(np.isfinite(arr))
    except OverflowError:  # an int beyond the float range, where a float literal is inf
        finite = False
    if not finite:
        raise ParseError(f"{field}: contains non-finite entries")
    return arr


def parse_model(path, kind: str) -> dict:
    """The checked fields of the model file at ``path``, which must be of
    ``kind``, "continuous" or "sampled".

    The one site that reads a model file: the file, its JSON, its schema
    version and its kind are checked here, in that order, then every
    field: present when required, a matrix of equal-length rows of real,
    finite numbers, ``h`` a period by the rule ``SampledModel`` applies
    (its refusal a ``ParseError`` "h: ..."). The only shapes checked here
    are those no model type sees: the label count against the rows of
    ``C`` and the rows of ``Bd`` against ``Ad``; the model the loaders
    build checks the rest. A continuous file gives ``A, B, C, D, labels``
    and a sampled file ``Ad, Qd, Cd, h``; an absent optional field is
    None, and a ``Bd`` file gives ``Qd = Bd Bd'``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # too many digits, or nested too deep
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("model file must hold a JSON object")
    version = data.get("v")
    if type(version) is not int or version != SCHEMA_VERSION:  # true and 1.0 equal 1 in Python
        raise SchemaVersionUnsupported(
            f"schema version {version!r} unsupported; expected {SCHEMA_VERSION}")
    if "A" not in data and "Ad" not in data:
        raise ParseError("model file carries neither 'A' (continuous) nor 'Ad' (sampled)")
    if ("A" in data) != (kind == "continuous"):  # 'A' wins when a file carries both
        raise InputError(f"{path}: expected a {kind} model file")
    return _parse_continuous(data) if kind == "continuous" else _parse_sampled(data)


def _parse_continuous(data: dict) -> dict:
    a = _matrix_field(data, "A")
    b = _matrix_field(data, "B")
    c = _matrix_field(data, "C")
    d = _matrix_field(data, "D", required=False)
    labels = _labels(data.get("labels"), c.shape[0])
    return {"A": a, "B": b, "C": c, "D": d, "labels": labels}


def _parse_sampled(data: dict) -> dict:
    ad = _matrix_field(data, "Ad")
    qd = _matrix_field(data, "Qd", required=False)
    bd = _matrix_field(data, "Bd", required=False)
    if qd is None and bd is None:
        raise DimensionMismatch("Qd: sampled model needs either 'Qd' or 'Bd'")
    cd = _matrix_field(data, "Cd")
    h = data.get("h")
    if h is not None:
        try:
            h = _period(h)
        except NonPositiveH as exc:
            raise ParseError(f"h: {exc}") from exc
    if bd is not None:
        require_shape("Bd", bd, ad.shape[0], None)
    return {"Ad": ad, "Qd": qd if qd is not None else bd @ bd.T, "Cd": cd, "h": h}


def load_state_space(path) -> StateSpace:
    """The continuous model file at ``path`` as a plain realization (D
    allowed)."""
    f = parse_model(path, "continuous")
    return StateSpace(f["A"], f["B"], f["C"], f["D"])


def load_ct_model(path, tol: Tolerances = DEFAULT_TOL) -> CtModel:
    """The continuous model file at ``path``, built as a CtModel and
    validated in place (D must be absent or zero)."""
    f = parse_model(path, "continuous")
    return validate_ct_model(CtModel(f["A"], f["B"], f["C"], f["D"], labels=f["labels"]), tol)


def load_sampled_model(path, h: float | None = None) -> SampledModel:
    """The sampled model file at ``path`` as a SampledModel; ``h``
    overrides the file's period when given."""
    f = parse_model(path, "sampled")
    period = h if h is not None else f["h"]
    if period is None:
        raise ParseError("h: sampling period missing from file and command line")
    return SampledModel(Ad=f["Ad"], Qd=f["Qd"], Cd=f["Cd"], h=period)
