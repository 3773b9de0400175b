"""Serialization of problems and strategies to JSON documents.

The document layout mirrors ProblemData: dimensions, horizon {t, T, steps},
one entry per coefficient (flat row-major list for a constant, {"grid":
[...]} with one flat matrix per node for a sampled path, {"const": ...,
"noise": ...} for noise-affine inhomogeneities) and the initial law.  A
strategy's noise-affine offset may also carry "frozen_at_start": true; a
problem coefficient may not.  An unknown key of a document, of its
coefficients or of a noise-affine object is refused; a left-out
coefficient is zero.  The built problem checks the rest, such as
symmetry.  Every matrix is written with explicit dimensions implied by the
field, never broadcast.  Round-trips are lossless: floats serialize via
repr, so load after emit reproduces the arrays bit for bit.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .errors import ValidationError
from .problem import (
    ControlSpec,
    InitialLaw,
    MatrixPath,
    NoiseAffinePath,
    ProblemData,
    TimeGrid,
    _coeff_table,
    make_problem,
)

PROBLEM_KIND = "mflq-problem"
STRATEGY_KIND = "mflq-strategy"
_PROBLEM_KEYS = {"kind", "dims", "horizon", "coefficients", "initial_law"}
_STRATEGY_KEYS = {"kind", "dims", "horizon", "feedback", "mean_feedback", "offset"}


# ---------------------------------------------------------------------------
# emission


def _flat(arr: np.ndarray) -> list:
    return [float(v) for v in np.asarray(arr, dtype=float).ravel(order="C")]


def _encode_path(path: MatrixPath):
    if path.is_constant:
        return _flat(path.values)
    return {"grid": [_flat(v) for v in path.values]}


def _encode_noise(na: NoiseAffinePath):
    doc = {
        "const": _encode_path(na.const_part),
        "noise": _encode_path(na.noise_part),
    }
    if na.frozen_at_start:
        doc["frozen_at_start"] = True
    return doc


def emit_problem(p: ProblemData, law: Optional[InitialLaw] = None) -> dict:
    """Render a problem (and optionally its initial law) as a plain dict."""
    table = _coeff_table(p.n, p.m)
    coeffs = {}
    for name, (kind, _shape, _sym) in table.items():
        value = getattr(p, name)
        if kind == "path":
            coeffs[name] = _encode_path(value)
        elif kind == "noise":
            coeffs[name] = _encode_noise(value)
        else:
            coeffs[name] = _flat(value)
    doc = {
        "kind": PROBLEM_KIND,
        "dims": {"n": p.n, "m": p.m},
        "horizon": {
            "t": p.horizon.t0,
            "T": p.horizon.tT,
            "steps": p.horizon.n_steps,
        },
        "coefficients": coeffs,
    }
    if law is not None:
        doc["initial_law"] = {
            "mean": _flat(law.mean),
            "brownian_load": _flat(law.brownian_load),
            "indep_load": _flat(law.indep_load),
        }
    return doc


def emit_strategy(spec: ControlSpec, n: int, m: int,
                  horizon: TimeGrid) -> dict:
    return {
        "kind": STRATEGY_KIND,
        "dims": {"n": n, "m": m},
        "horizon": {"t": horizon.t0, "T": horizon.tT, "steps": horizon.n_steps},
        "feedback": _encode_path(spec.feedback),
        "mean_feedback": _encode_path(spec.mean_feedback),
        "offset": _encode_noise(spec.offset),
    }


def dumps(doc: dict) -> str:
    """Deterministic text form: sorted keys, two-space indent, newline end."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# loading


class _Reader:
    """Accumulates field-level problems while decoding a document."""

    def __init__(self):
        self.errors = []

    def fail(self, where: str, msg: str):
        self.errors.append(f"{where}: {msg}")

    def require(self, doc: dict, where: str, key: str, types, default=None):
        if not isinstance(doc, dict):
            self.fail(where, "expected an object")
            return default
        if key not in doc:
            self.fail(where, f"missing field {key!r}")
            return default
        value = doc[key]
        # JSON true/false load as bool, which Python counts as an int.
        if types is not None and (
            isinstance(value, bool) or not isinstance(value, types)
        ):
            self.fail(f"{where}.{key}", f"unexpected type {type(value).__name__}")
            return default
        return value

    def refuse_unknown(self, doc: dict, known, prefix: str = "",
                       what: str = "field"):
        """One failure per key of ``doc`` outside ``known``, in sorted order."""
        for key in sorted(set(doc) - set(known)):
            self.fail(f"{prefix}{key}", f"unknown {what}")

    def floats(self, value, where: str, count: int) -> Optional[np.ndarray]:
        if not isinstance(value, list):
            self.fail(where, "expected a list of numbers")
            return None
        if len(value) != count:
            self.fail(where, f"expected {count} entries, got {len(value)}")
            return None
        if any(isinstance(v, bool) for v in value):
            self.fail(where, "entries are not all numeric")
            return None
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            self.fail(where, "entries are not all numeric")
            return None
        if not np.all(np.isfinite(arr)):
            self.fail(where, "contains non-finite entries")
            return None
        return arr

    def raise_if_failed(self):
        if self.errors:
            raise ValidationError(self.errors)


def _decode_path(r: _Reader, value, where: str, shape,
                 horizon: TimeGrid) -> Optional[MatrixPath]:
    size = int(np.prod(shape))
    if isinstance(value, dict):
        rows = value.get("grid")
        if rows is None or not isinstance(rows, list) or len(rows) < 2:
            r.fail(where, "sampled path needs a 'grid' list of 2+ samples")
            return None
        mats = []
        for k, row in enumerate(rows):
            arr = r.floats(row, f"{where}.grid[{k}]", size)
            if arr is None:
                return None
            mats.append(arr.reshape(shape))
        grid = horizon.with_steps(len(mats) - 1)
        return MatrixPath.sampled(grid, np.stack(mats))
    arr = r.floats(value, where, size)
    if arr is None:
        return None
    return MatrixPath.constant(arr.reshape(shape))


def _decode_noise(r: _Reader, value, where: str, shape,
                  horizon: TimeGrid) -> Optional[NoiseAffinePath]:
    if not isinstance(value, dict) or "const" not in value or "noise" not in value:
        r.fail(where, "expected an object with 'const' and 'noise'")
        return None
    r.refuse_unknown(value, {"const", "noise", "frozen_at_start"}, f"{where}.")
    const = _decode_path(r, value["const"], f"{where}.const", shape, horizon)
    noise = _decode_path(r, value["noise"], f"{where}.noise", shape, horizon)
    frozen = value.get("frozen_at_start", False)
    if not isinstance(frozen, bool):
        r.fail(f"{where}.frozen_at_start", "expected a boolean")
        return None
    if const is None or noise is None:
        return None
    return NoiseAffinePath(const, noise, frozen)


def _decode_horizon(r: _Reader, doc: dict) -> Optional[TimeGrid]:
    hor = r.require(doc, "document", "horizon", dict)
    if hor is None:
        return None
    t0 = r.require(hor, "horizon", "t", (int, float))
    tT = r.require(hor, "horizon", "T", (int, float))
    steps = r.require(hor, "horizon", "steps", int)
    if t0 is None or tT is None or steps is None:
        return None
    try:
        return TimeGrid(float(t0), float(tT), steps)
    except ValidationError as exc:
        r.fail("horizon", str(exc))
        return None


def _decode_dims(r: _Reader, doc: dict):
    dims = r.require(doc, "document", "dims", dict)
    if dims is None:
        return None, None
    n = r.require(dims, "dims", "n", int)
    m = r.require(dims, "dims", "m", int)
    if n is None or m is None or n < 1 or m < 1:
        if n is not None and m is not None:
            r.fail("dims", "n and m must be positive integers")
        return None, None
    return n, m


def load_problem(doc: dict):
    """Decode a problem document; returns (ProblemData, InitialLaw or None).

    Raises ValidationError carrying one line per offending field.
    """
    r = _Reader()
    if not isinstance(doc, dict) or doc.get("kind") != PROBLEM_KIND:
        raise ValidationError(
            [f"document: expected kind {PROBLEM_KIND!r}"]
        )
    r.refuse_unknown(doc, _PROBLEM_KEYS)
    n, m = _decode_dims(r, doc)
    horizon = _decode_horizon(r, doc)
    raw = r.require(doc, "document", "coefficients", None, default={})
    if not isinstance(raw, dict):
        r.fail("coefficients", "expected an object")
    r.raise_if_failed()

    table = _coeff_table(n, m)
    r.refuse_unknown(raw, table, "coefficients.", "coefficient")
    built = {}
    for name, (kind, shape, _sym) in table.items():
        if name not in raw:
            continue
        where = f"coefficients.{name}"
        if kind == "path":
            got = _decode_path(r, raw[name], where, shape, horizon)
        elif kind == "noise":
            got = _decode_noise(r, raw[name], where, shape, horizon)
        else:
            arr = r.floats(raw[name], where, int(np.prod(shape)))
            got = None if arr is None else arr.reshape(shape)
        if got is not None:
            built[name] = got

    law = None
    if "initial_law" in doc:
        law_doc = doc["initial_law"]
        mean = r.floats(
            r.require(law_doc, "initial_law", "mean", list, default=[]),
            "initial_law.mean", n,
        )
        bl = r.floats(
            r.require(law_doc, "initial_law", "brownian_load", list, default=[]),
            "initial_law.brownian_load", n,
        )
        il = r.floats(
            r.require(law_doc, "initial_law", "indep_load", list, default=[]),
            "initial_law.indep_load", n * n,
        )
        if mean is not None and bl is not None and il is not None:
            law = InitialLaw(mean, bl, il.reshape(n, n))
    r.raise_if_failed()
    return make_problem(n, m, horizon, **built), law


def load_strategy(doc: dict, n: int, m: int,
                  horizon: TimeGrid) -> ControlSpec:
    """Decode a strategy document against the problem's dimensions."""
    r = _Reader()
    if not isinstance(doc, dict) or doc.get("kind") != STRATEGY_KIND:
        raise ValidationError(
            [f"document: expected kind {STRATEGY_KIND!r}"]
        )
    r.refuse_unknown(doc, _STRATEGY_KEYS)
    doc_n, doc_m = _decode_dims(r, doc)
    if doc_n is not None and (doc_n, doc_m) != (n, m):
        r.fail("dims", f"strategy is for n={doc_n}, m={doc_m}; "
                       f"problem has n={n}, m={m}")
    hor = _decode_horizon(r, doc)
    if hor is not None:
        tol = 1e-12 * max(1.0, abs(horizon.tT))
        if abs(hor.t0 - horizon.t0) > tol or abs(hor.tT - horizon.tT) > tol:
            r.fail("horizon", "strategy horizon does not match the problem")
    r.raise_if_failed()

    fb = _decode_path(r, doc.get("feedback", []), "feedback", (m, n), horizon)
    mf = _decode_path(
        r, doc.get("mean_feedback", []), "mean_feedback", (m, n), horizon
    )
    offset_doc = doc.get("offset")
    if offset_doc is None:
        offset = NoiseAffinePath.zero((m,))
    else:
        offset = _decode_noise(r, offset_doc, "offset", (m,), horizon)
    r.raise_if_failed()
    return ControlSpec(feedback=fb, mean_feedback=mf, offset=offset)


def load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"document: not valid JSON ({exc.msg} at "
                               f"line {exc.lineno})"]) from exc
    if not isinstance(doc, dict):
        raise ValidationError(["document: top level must be an object"])
    return doc
