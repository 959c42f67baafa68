"""Canonical JSON encodings for matrices, maps, states and reports.

Matrices are row-major lists of [re, im] pairs whose parts are JSON
numbers. A map document is its Choi matrix; a report document holds the
report's fields under their own names. Serialization is deterministic:
dumps writes json's ``sort_keys``, ``indent=2`` layout with Python's
shortest round-trip float formatting, so identical values produce
identical bytes. Parsing raises ParseError on malformed documents and
leaves mathematical validation (PSD checks and so on) to the
constructors.
"""
from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np

from .blocks import SeparableEnsemble
from .duality import BipartiteState, HolevoForm, MatrixMap, holevo_to_map, kraus_to_map
from .errors import ParseError
from .linalg import DEFAULT_TOL, Tolerances

# The types json.load gives a JSON number; bool is not among them.
_NUMBER = (int, float)


class _Entries(list):
    """The [re, im] float pairs of one matrix, as built by matrix_to_json.

    A plain list to every reader; the type tells dumps that each item
    is a pair of Python floats, so it can render them without the
    stdlib's per-value encoder.
    """


def _json_int(value, field: str) -> int:
    """A JSON integer: an int, not a bool, a float or a string."""
    if type(value) is not int:
        raise ParseError(f"{field} must be an integer, not {value!r}")
    return value


def _json_float(value, field: str) -> float:
    """A JSON number as a float: an int or a float, not a bool or a string."""
    if type(value) not in _NUMBER:
        raise ParseError(f"{field} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError(f"{field} is too large for a float") from exc


def matrix_to_json(x: np.ndarray) -> dict:
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    rows, cols = a.shape
    pairs = zip(a.real.ravel().tolist(), a.imag.ravel().tolist())
    return {"rows": rows, "cols": cols, "entries": _Entries(map(list, pairs))}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be an object")
    try:
        rows = _json_int(obj["rows"], "rows")
        cols = _json_int(obj["cols"], "cols")
        entries = obj["entries"]
    except KeyError as exc:
        raise ParseError(f"matrix document missing field: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ParseError("matrix dimensions must be positive")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError(f"matrix entries must hold {rows * cols} [re, im] pairs")
    # One conversion; re + 1j * im is float(re) + 1j * float(im) bit for
    # bit, signed zeros too. _parts checks each entry as fromiter reaches
    # it, so the first bad entry reports, a float overflow included.
    try:
        flat = np.fromiter(_parts(entries), np.float64, 2 * len(entries))
    except OverflowError as exc:
        raise ParseError("matrix entries must be numeric") from exc
    return (flat[0::2] + 1j * flat[1::2]).reshape(rows, cols)


def _parts(entries: list):
    """re, im, re, im, ... of [re, im] pairs of JSON numbers."""
    for pair in entries:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError("matrix entries must be [re, im] pairs")
        re, im = pair
        if type(re) not in _NUMBER or type(im) not in _NUMBER:
            raise ParseError("matrix entries must be numeric")
        yield re
        yield im


def map_to_json(f: MatrixMap) -> dict:
    """The Choi document of a map, however it was built."""
    choi = matrix_to_json(f.choi)
    return {"dim_in": f.dim_in, "dim_out": f.dim_out, "repr": "choi", "choi": choi}


def holevo_terms_to_json(form: HolevoForm) -> list:
    return [
        {"omega": matrix_to_json(omega), "b": matrix_to_json(b)}
        for omega, b in form.terms
    ]


def holevo_terms_from_json(obj) -> HolevoForm:
    if not isinstance(obj, list) or not obj:
        raise ParseError("holevo payload must be a nonempty list of terms")
    terms = []
    for term in obj:
        if not isinstance(term, dict) or "omega" not in term or "b" not in term:
            raise ParseError("each holevo term needs 'omega' and 'b' matrices")
        terms.append((matrix_from_json(term["omega"]), matrix_from_json(term["b"])))
    return HolevoForm(tuple(terms))


def map_from_json(obj) -> MatrixMap:
    if not isinstance(obj, dict):
        raise ParseError("map document must be an object")
    try:
        n = _json_int(obj["dim_in"], "dim_in")
        m = _json_int(obj["dim_out"], "dim_out")
        repr_tag = obj["repr"]
    except KeyError as exc:
        raise ParseError(f"map document missing field: {exc}") from exc
    if repr_tag == "choi":
        if "choi" not in obj:
            raise ParseError("choi repr requires a 'choi' matrix")
        return MatrixMap(n, m, matrix_from_json(obj["choi"]))
    if repr_tag == "kraus":
        ops = obj.get("kraus")
        if not isinstance(ops, list) or not ops:
            raise ParseError("kraus repr requires a nonempty 'kraus' list")
        f = kraus_to_map([matrix_from_json(v) for v in ops])
    elif repr_tag == "holevo":
        f = holevo_to_map(holevo_terms_from_json(obj.get("holevo")))
    else:
        raise ParseError(f"unknown map repr {repr_tag!r}")
    if (f.dim_in, f.dim_out) != (n, m):
        raise ParseError(f"{repr_tag} shapes disagree with declared dims")
    return f


def state_to_json(s: BipartiteState) -> dict:
    return {
        "dims": [s.dims[0], s.dims[1]],
        "repr": "density",
        "density": matrix_to_json(s.density),
    }


def state_document_from_json(
    obj, tol: Tolerances = DEFAULT_TOL
) -> BipartiteState | SeparableEnsemble:
    """Parse a state file, a density or an ensemble envelope, at tol."""
    if not isinstance(obj, dict):
        raise ParseError("state document must be an object")
    dims = obj.get("dims")
    if not isinstance(dims, list) or len(dims) != 2:
        raise ParseError("state document needs dims [n, m]")
    n, m = _json_int(dims[0], "dims[0]"), _json_int(dims[1], "dims[1]")
    repr_tag = obj.get("repr", "density")
    if repr_tag == "density":
        if "density" not in obj:
            raise ParseError("density repr requires a 'density' matrix")
        return BipartiteState((n, m), matrix_from_json(obj["density"]), tol)
    if repr_tag == "ensemble":
        raw_terms = obj.get("terms")
        if not isinstance(raw_terms, list) or not raw_terms:
            raise ParseError("ensemble repr requires a nonempty 'terms' list")
        terms = []
        for term in raw_terms:
            if not isinstance(term, dict):
                raise ParseError("ensemble terms must be objects")
            try:
                weight = _json_float(term["weight"], "weight")
                a = matrix_from_json(term["a"])
                b = matrix_from_json(term["b"])
            except KeyError as exc:
                raise ParseError("ensemble terms need 'weight', 'a' and 'b'") from exc
            terms.append((weight, a, b))
        ens = SeparableEnsemble(tuple(terms), tol)
        if ens.dims != (n, m):
            raise ParseError("ensemble factor shapes disagree with declared dims")
        return ens
    raise ParseError(f"unknown state repr {repr_tag!r}")


# Report fields written under another key.
_RENAMED = {"witness_name": "witness"}


def report_to_json(node):
    """The JSON document of a report dataclass, by walking its fields.

    States, Holevo forms and arrays take their own encoders (a vector
    becomes one column), tuples become lists, and every other value is
    written as it is.
    """
    if isinstance(node, np.ndarray):
        return matrix_to_json(node)
    if isinstance(node, tuple):
        return [report_to_json(item) for item in node]
    if not dataclasses.is_dataclass(node):
        return node
    if isinstance(node, BipartiteState):
        return state_to_json(node)
    if isinstance(node, HolevoForm):
        return holevo_terms_to_json(node)
    names = [field.name for field in dataclasses.fields(node)]
    return {_RENAMED.get(k, k): report_to_json(getattr(node, k)) for k in names}


_encode_key = json.encoder.encode_basestring_ascii
_encode_leaf = json.JSONEncoder(allow_nan=False).encode


def dumps(obj) -> str:
    """Canonical JSON text: the bytes of ``json.dumps(obj, sort_keys=True,
    indent=2, allow_nan=False)``, for documents with string keys.

    With ``indent`` the stdlib runs its pure-Python encoder, one call
    per value; here each matrix's entries are rendered in one go with
    ``float.__repr__``, as json renders floats. Non-finite values raise
    ValueError, as with ``allow_nan=False``.
    """
    out: list[str] = []
    _emit(obj, "\n", out)
    return "".join(out)


def _emit(node, newline: str, out: list) -> None:
    """Append node's text to out; ``newline`` is a line break followed by
    the indent of the line node starts on."""
    if type(node) is _Entries and node:
        out.append(_render_entries(node, newline))
    elif isinstance(node, (dict, list, tuple)):
        if isinstance(node, dict):
            brackets = "{}"
            items = [(_encode_key(key) + ": ", node[key]) for key in sorted(node)]
        else:
            brackets, items = "[]", [("", item) for item in node]
        if not items:
            out.append(brackets)
            return
        inner = newline + "  "
        sep = brackets[0] + inner
        for prefix, child in items:
            out += (sep, prefix)
            _emit(child, inner, out)
            sep = "," + inner
        out += (newline, brackets[1])
    else:
        out.append(_encode_leaf(node))


def _render_entries(entries: _Entries, newline: str) -> str:
    """json's indent=2 layout of a nonempty list of [re, im] float pairs;
    ``newline`` is a line break and the indent of its opening line."""
    outer = newline + "  "
    inner = outer + "  "
    # %r is float.__repr__ on the Python floats matrix_to_json stores.
    body = f"{outer}],{outer}[{inner}".join(
        [f"%r,{inner}%r"] * len(entries)
    ) % tuple(itertools.chain.from_iterable(entries))
    # Finite float reprs hold no "n"; nan, inf and -inf do.
    if "n" in body:
        raise ValueError("Out of range float values are not JSON compliant")
    return f"[{outer}[{inner}{body}{outer}]{newline}]"


def to_text(obj) -> str:
    """Flat key: value rendering carrying the same verdicts as the JSON.

    Matrices are summarized by shape; everything scalar is printed.
    """
    lines: list[str] = []

    def walk(node, path: str) -> None:
        if isinstance(node, dict):
            if set(node) == {"rows", "cols", "entries"}:
                lines.append(f"{path}: matrix {node['rows']}x{node['cols']}")
                return
            for key in sorted(node):
                walk(node[key], f"{path}.{key}" if path else key)
        elif isinstance(node, list) and any(isinstance(v, (dict, list)) for v in node):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")
        else:
            lines.append(f"{path}: {node}")

    walk(obj, "")
    return "\n".join(lines)


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"JSON in {path} is nested too deeply") from exc
