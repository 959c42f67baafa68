"""Canonical JSON encodings for matrices, maps, states and reports.

Matrices are row-major lists of [re, im] pairs. Serialization is
deterministic: sorted keys, fixed layout, and Python's shortest
round-trip float formatting, so identical values produce identical
bytes. Parsing raises ParseError on malformed documents and leaves
mathematical validation (PSD checks and so on) to the constructors.
"""
from __future__ import annotations

import contextlib
import itertools
import json

import numpy as np

from .blocks import BlockDecomposition, SeparableEnsemble
from .classify import MapClassReport
from .duality import (
    BipartiteState,
    HolevoForm,
    MatrixMap,
    holevo_to_map,
    kraus_to_map,
)
from .errors import ParseError
from .states import SearchResult, StateReport


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
    if type(value) not in (int, float):
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
        raise ParseError(
            f"matrix entries must hold {rows * cols} [re, im] pairs"
        )
    # Well-formed finite entries take one array conversion; re + 1j * im
    # is the loop's float(re) + 1j * float(im) bit for bit, signed zeros
    # too. Anything else, None (which numpy reads as NaN) included, goes
    # through the loop, which raises for the first bad entry.
    if all(isinstance(pair, list) and len(pair) == 2 for pair in entries):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            flat = np.fromiter(
                itertools.chain.from_iterable(entries), np.float64, 2 * len(entries)
            )
            if np.isfinite(flat).all():
                return (flat[0::2] + 1j * flat[1::2]).reshape(rows, cols)
    out = np.empty((rows, cols), dtype=np.complex128)
    for k, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError("matrix entries must be [re, im] pairs")
        try:
            out[k // cols, k % cols] = float(pair[0]) + 1j * float(pair[1])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError("matrix entries must be numeric") from exc
    return out


def map_to_json(f: MatrixMap, force_choi: bool = False) -> dict:
    doc = {"dim_in": f.dim_in, "dim_out": f.dim_out}
    if force_choi or f.form == "choi":
        doc["repr"] = "choi"
        doc["choi"] = matrix_to_json(f.choi)
    elif f.form == "kraus":
        doc["repr"] = "kraus"
        doc["kraus"] = [matrix_to_json(v) for v in f.kraus]
    else:
        doc["repr"] = "holevo"
        doc["holevo"] = holevo_terms_to_json(f.holevo)
    return doc


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
        if (f.dim_in, f.dim_out) != (n, m):
            raise ParseError("kraus operator shapes disagree with declared dims")
        return f
    if repr_tag == "holevo":
        form = holevo_terms_from_json(obj.get("holevo"))
        f = holevo_to_map(form)
        if (f.dim_in, f.dim_out) != (n, m):
            raise ParseError("holevo term shapes disagree with declared dims")
        return f
    raise ParseError(f"unknown map repr {repr_tag!r}")


def state_to_json(s: BipartiteState) -> dict:
    return {
        "dims": [s.dims[0], s.dims[1]],
        "repr": "density",
        "density": matrix_to_json(s.density),
    }


def state_document_from_json(obj) -> BipartiteState | SeparableEnsemble:
    """Parse a state file: a density envelope or an ensemble envelope."""
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
        return BipartiteState((n, m), matrix_from_json(obj["density"]))
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
                raise ParseError(
                    "ensemble terms need 'weight', 'a' and 'b'"
                ) from exc
            terms.append((weight, a, b))
        ens = SeparableEnsemble(tuple(terms))
        if ens.dims != (n, m):
            raise ParseError("ensemble factor shapes disagree with declared dims")
        return ens
    raise ParseError(f"unknown state repr {repr_tag!r}")


def _vector_or_null(v: np.ndarray | None) -> dict | None:
    return None if v is None else matrix_to_json(np.asarray(v).reshape(-1, 1))


def map_report_to_json(r: MapClassReport) -> dict:
    return {
        "dim_in": r.dim_in,
        "dim_out": r.dim_out,
        "cp": r.cp,
        "cp_witness": _vector_or_null(r.cp_witness),
        "copositive": r.copositive,
        "copositive_witness": _vector_or_null(r.copositive_witness),
        "block_min": r.block_min,
        "block_x": _vector_or_null(r.block_x),
        "block_y": _vector_or_null(r.block_y),
        "block_converged": r.block_converged,
        "positive_verdict": r.positive_verdict,
        "eb_verdict": r.eb_verdict,
        "eb_certificate": (
            None if r.eb_certificate is None else holevo_terms_to_json(r.eb_certificate)
        ),
        "eb_witness_name": r.eb_witness_name,
    }


def state_report_to_json(r: StateReport) -> dict:
    return {
        "dims": [r.dims[0], r.dims[1]],
        "mass": r.mass,
        "ppt": r.ppt,
        "ppt_min_eigenvalue": r.ppt_min_eigenvalue,
        "ppt_witness": _vector_or_null(r.ppt_witness),
        "entanglement": r.entanglement,
        "certificate_name": r.certificate_name,
        "certificate_value": r.certificate_value,
        "certificate_vector": _vector_or_null(r.certificate_vector),
        "hits": [
            {
                "name": h.name,
                "eigenvalue": h.eigenvalue,
                "eigenvector": _vector_or_null(h.eigenvector),
            }
            for h in r.hits
        ],
        "peres_crosscheck": r.peres_crosscheck,
    }


def search_result_to_json(r: SearchResult) -> dict:
    return {
        "witness": r.witness_name,
        "violation": r.violation,
        "iterations": r.iterations,
        "converged": r.converged,
        "seed": r.seed,
        "state": state_to_json(r.state),
    }


def decomposition_to_json(d: BlockDecomposition) -> dict:
    return {
        "components": [
            {
                "indices": list(c.indices),
                "weight": c.weight,
                "e": matrix_to_json(c.e),
                "f": matrix_to_json(c.f),
                "state": state_to_json(c.state),
            }
            for c in d.components
        ],
        "max_cross_overlap": d.max_cross_overlap,
    }


# Stands in for each matrix's entries in the skeleton that json encodes.
# The NULs keep it apart from every string the package writes; a
# document string equal to it is rejected rather than spliced.
_SLOT = "\x00entries\x00"
_SLOT_JSON = json.dumps(_SLOT)


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False)``. That call runs the stdlib's pure-Python encoder
    (``indent`` rules out the C one), so here it encodes only a
    skeleton, with a slot in place of each matrix's entries; the
    entries are rendered with ``float.__repr__``, as json renders
    floats, and spliced in at their slot's indent. Non-finite values
    raise ValueError, as with ``allow_nan=False``.
    """
    blocks: list[_Entries] = []
    skeleton = _skeleton(obj, blocks)
    text = json.dumps(skeleton, sort_keys=True, indent=2, allow_nan=False)
    parts = text.split(_SLOT_JSON)
    if len(parts) != len(blocks) + 1:
        raise ValueError("a document string equals the matrix entries placeholder")
    out = []
    for before, entries in zip(parts, blocks):
        line = before[before.rfind("\n") + 1:]
        out += [before, _render_entries(entries, len(line) - len(line.lstrip(" ")))]
    out.append(parts[-1])
    return "".join(out)


def _skeleton(node, blocks: list):
    """Copy of a document with each _Entries replaced by _SLOT, visited in
    json's sorted-key order so that blocks[i] fills the i-th slot."""
    if type(node) is _Entries:
        blocks.append(node)
        return _SLOT
    if isinstance(node, dict):
        return {key: _skeleton(node[key], blocks) for key in sorted(node)}
    if isinstance(node, (list, tuple)):
        return [_skeleton(item, blocks) for item in node]
    return node


def _render_entries(entries: _Entries, indent: int) -> str:
    """json's indent=2 layout of a list of [re, im] float pairs whose
    opening bracket sits on a line indented by ``indent`` spaces."""
    if not entries:
        return "[]"
    outer = " " * (indent + 2)
    inner = " " * (indent + 4)
    # %r is float.__repr__ on the Python floats matrix_to_json stores.
    body = f"\n{outer}],\n{outer}[\n{inner}".join(
        [f"%r,\n{inner}%r"] * len(entries)
    ) % tuple(itertools.chain.from_iterable(entries))
    # Finite float reprs hold no "n"; nan, inf and -inf do.
    if "n" in body:
        raise ValueError("Out of range float values are not JSON compliant")
    return f"[\n{outer}[\n{inner}{body}\n{outer}]\n{' ' * indent}]"


def to_text(obj, prefix: str = "") -> str:
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
        elif isinstance(node, list):
            if node and all(not isinstance(v, (dict, list)) for v in node):
                lines.append(f"{path}: {node}")
            else:
                for i, v in enumerate(node):
                    walk(v, f"{path}[{i}]")
                if not node:
                    lines.append(f"{path}: []")
        else:
            lines.append(f"{path}: {node}")

    walk(obj, prefix)
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
