import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entanglecone.blocks import BlockComponent, BlockDecomposition, SeparableEnsemble
from entanglecone.classify import MapClassReport
from entanglecone.duality import (
    BipartiteState,
    HolevoForm,
    MatrixMap,
    holevo_to_map,
    kraus_to_map,
    maximally_entangled_matrix,
)
from entanglecone.errors import DomainError, ParseError
from entanglecone.linalg import as_matrix
from entanglecone.serialize import (
    dumps,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    state_document_from_json,
    state_to_json,
)
from entanglecone.states import SearchResult, StateReport, WitnessHit
from reference import (
    derive_stream,
    ensemble_to_json,
    gaussian_complex_matrix,
    random_density,
)


def _json_cycle(doc):
    # Force a real text trip so float formatting is exercised, not just
    # the in-memory dict.
    return json.loads(dumps(doc))


def test_matrix_roundtrip_exact():
    stream = derive_stream(701, 0)
    for shape in ((1, 1), (2, 2), (3, 5), (4, 1)):
        x = gaussian_complex_matrix(stream, *shape)
        back = matrix_from_json(_json_cycle(matrix_to_json(x)))
        # repr formatting of doubles is lossless, so equality is exact.
        assert np.array_equal(back, x)


def test_matrix_vector_becomes_column():
    doc = matrix_to_json(np.array([1.0, 2.0 + 1j]))
    assert (doc["rows"], doc["cols"]) == (2, 1)
    back = matrix_from_json(doc)
    assert back.shape == (2, 1)
    assert back[1, 0] == 2.0 + 1j


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"rows": 2, "cols": 2},
        {"rows": 0, "cols": 1, "entries": []},
        {"rows": 2, "cols": 2, "entries": [[1.0, 0.0]] * 3},
        {"rows": 1, "cols": 1, "entries": [[1.0]]},
        {"rows": 1, "cols": 1, "entries": [["a", "b"]]},
        {"rows": "x", "cols": 1, "entries": []},
    ],
)
def test_matrix_from_json_rejects_malformed(doc):
    with pytest.raises(ParseError):
        matrix_from_json(doc)


def _pairwise_parse(entries, rows, cols):
    """The entry-by-entry parse: float(re) + 1j * float(im)."""
    out = np.empty((rows, cols), dtype=np.complex128)
    for k, (re, im) in enumerate(entries):
        out[k // cols, k % cols] = float(re) + 1j * float(im)
    return out


_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    data=st.data(),
)
def test_matrix_from_json_matches_the_pairwise_parse(shape, data):
    # Bit for bit, signed zeros included.
    rows, cols = shape
    entries = data.draw(
        st.lists(st.lists(_PARTS, min_size=2, max_size=2), min_size=rows * cols,
                 max_size=rows * cols)
    )
    doc = {"rows": rows, "cols": cols, "entries": entries}
    assert matrix_from_json(doc).tobytes() == _pairwise_parse(entries, rows, cols).tobytes()


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[None, 1.0], [1.0, 0.0]], "numeric"),
        ([[1.0, 0.0], [1.0, None]], "numeric"),
        ([["x", 1.0], [1.0]], "numeric"),
        ([[1.0, 0.0], [1.0]], "pairs"),
        ([[1.0], [None, 1.0]], "pairs"),
        ([(1.0, 0.0), [1.0, 0.0]], "pairs"),
    ],
)
def test_matrix_from_json_reports_the_first_bad_entry(entries, message):
    with pytest.raises(ParseError, match=message):
        matrix_from_json({"rows": 1, "cols": 2, "entries": entries})


def test_matrix_from_json_leaves_nonfinite_entries_to_the_constructors():
    doc = json.loads('{"rows": 1, "cols": 2, "entries": [[NaN, 0.0], [Infinity, 1.0]]}')
    parsed = matrix_from_json(doc)
    assert np.isnan(parsed[0, 0].real) and np.isinf(parsed[0, 1].real)
    with pytest.raises(DomainError, match="non-finite"):
        as_matrix(parsed, square=False)


def test_map_roundtrip_choi():
    c = maximally_entangled_matrix(2)
    f = MatrixMap(2, 2, c)
    doc = _json_cycle(map_to_json(f))
    assert doc["repr"] == "choi"
    g = map_from_json(doc)
    assert (g.dim_in, g.dim_out) == (2, 2)
    assert np.array_equal(g.choi, f.choi)


def test_map_roundtrip_kraus():
    stream = derive_stream(702, 0)
    ops = [gaussian_complex_matrix(stream, 3, 2) for _ in range(2)]
    doc = {"dim_in": 2, "dim_out": 3, "repr": "kraus",
           "kraus": [matrix_to_json(v) for v in ops]}
    g = map_from_json(_json_cycle(doc))
    assert (g.dim_in, g.dim_out) == (2, 3)
    # Operators roundtrip exactly, so the recomputed Choi matrix does too.
    assert np.array_equal(g.choi, kraus_to_map(ops).choi)


def test_map_roundtrip_holevo():
    stream = derive_stream(703, 0)
    terms = [(random_density(stream, 2), random_density(stream, 3)) for _ in range(2)]
    doc = {"dim_in": 2, "dim_out": 3, "repr": "holevo",
           "holevo": [{"omega": matrix_to_json(omega), "b": matrix_to_json(b)}
                      for omega, b in terms]}
    g = map_from_json(_json_cycle(doc))
    assert np.array_equal(g.choi, holevo_to_map(HolevoForm(tuple(terms))).choi)
    # The parsed terms stay with the map as its entanglement breaking
    # certificate.
    for (omega, b), (omega_back, b_back) in zip(terms, g.holevo.terms):
        assert np.array_equal(omega, omega_back)
        assert np.array_equal(b, b_back)


def test_map_to_json_writes_the_choi_document():
    stream = derive_stream(705, 0)
    kraus = kraus_to_map([gaussian_complex_matrix(stream, 3, 2) for _ in range(2)])
    holevo = holevo_to_map(
        HolevoForm(((random_density(stream, 2), random_density(stream, 3)),))
    )
    for f in (kraus, holevo):
        doc = _json_cycle(map_to_json(f))
        assert doc.keys() == {"dim_in", "dim_out", "repr", "choi"}
        assert (doc["dim_in"], doc["dim_out"], doc["repr"]) == (2, 3, "choi")
        assert matrix_from_json(doc["choi"]).tobytes() == f.choi.tobytes()


def test_map_from_json_rejects_malformed():
    with pytest.raises(ParseError):
        map_from_json("not a dict")
    with pytest.raises(ParseError):
        map_from_json({"dim_in": 2, "dim_out": 2, "repr": "spectral"})
    with pytest.raises(ParseError):
        map_from_json({"dim_in": 2, "dim_out": 2, "repr": "choi"})
    eye = matrix_to_json(np.eye(2, dtype=complex))
    with pytest.raises(ParseError):
        # declared dims disagree with the 2x2 operator
        map_from_json({"dim_in": 3, "dim_out": 3, "repr": "kraus", "kraus": [eye]})
    with pytest.raises(ParseError):
        map_from_json({"dim_in": 2, "dim_out": 2, "repr": "kraus", "kraus": []})
    term = {"omega": eye, "b": eye}
    with pytest.raises(ParseError):
        map_from_json({"dim_in": 3, "dim_out": 2, "repr": "holevo", "holevo": [term]})
    with pytest.raises(ParseError):
        map_from_json({"dim_in": 2, "dim_out": 2, "repr": "holevo", "holevo": [{"omega": eye}]})


def test_state_roundtrip_density():
    s = BipartiteState((2, 2), maximally_entangled_matrix(2) / 2.0)
    doc = _json_cycle(state_to_json(s))
    back = state_document_from_json(doc)
    assert isinstance(back, BipartiteState)
    assert back.dims == (2, 2)
    assert np.array_equal(back.density, s.density)


def test_state_roundtrip_ensemble():
    stream = derive_stream(704, 0)
    terms = tuple(
        (w, random_density(stream, 2), random_density(stream, 2))
        for w in (0.3, 0.7)
    )
    ens = SeparableEnsemble(terms)
    doc = _json_cycle(ensemble_to_json(ens))
    back = state_document_from_json(doc)
    assert isinstance(back, SeparableEnsemble)
    assert back.dims == (2, 2)
    for (w0, a0, b0), (w1, a1, b1) in zip(ens.terms, back.terms):
        assert w0 == w1
        assert np.array_equal(a0, a1)
        assert np.array_equal(b0, b1)


def test_state_document_rejects_malformed():
    dens = matrix_to_json(np.eye(4, dtype=complex) / 4.0)
    with pytest.raises(ParseError):
        state_document_from_json([1, 2])
    with pytest.raises(ParseError):
        state_document_from_json({"repr": "density", "density": dens})
    with pytest.raises(ParseError):
        state_document_from_json({"dims": [2, 2], "repr": "density"})
    with pytest.raises(ParseError):
        state_document_from_json({"dims": [2, 2], "repr": "ensemble", "terms": []})
    with pytest.raises(ParseError):
        state_document_from_json({"dims": [2, 2], "repr": "vector", "density": dens})
    good_term = {
        "weight": 1.0,
        "a": matrix_to_json(np.diag([1.0, 0.0]).astype(complex)),
        "b": matrix_to_json(np.diag([1.0, 0.0]).astype(complex)),
    }
    with pytest.raises(ParseError):
        # 2x2 factors under declared dims (3, 3)
        state_document_from_json({"dims": [3, 3], "repr": "ensemble", "terms": [good_term]})


def test_density_repr_is_default():
    dens = matrix_to_json(np.eye(4, dtype=complex) / 4.0)
    back = state_document_from_json({"dims": [2, 2], "density": dens})
    assert isinstance(back, BipartiteState)


def test_dumps_is_canonical():
    a = {"beta": 1.0, "alpha": [1, 2], "nested": {"y": 0.5, "x": None}}
    b = {"nested": {"x": None, "y": 0.5}, "alpha": [1, 2], "beta": 1.0}
    assert dumps(a) == dumps(b)
    assert dumps(a) == dumps(json.loads(dumps(a)))


def test_dumps_rejects_nonfinite():
    with pytest.raises(ValueError):
        dumps({"v": float("nan")})


def _stdlib_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


# Floats at the edges of what repr prints: signed zero, the least
# subnormal, and near the largest double.
_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _matrix_docs(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    size = 2 * rows * cols
    values = draw(st.lists(_FLOATS, min_size=size, max_size=size))
    return matrix_to_json(np.array(values).view(np.complex128).reshape(rows, cols))


# Keys that sort before, after and between the matrix fields.
_KEYS = st.sampled_from(
    ["\x00", "Z", "a", "cols", "e", "entries", "entries0", "entriez", "f", "rows"]
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    _FLOATS,
    st.text(max_size=3),
    _matrix_docs(),
    _matrix_docs().map(lambda doc: doc["entries"]),
)
_DOCS = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_DOCS)
def test_dumps_matches_the_stdlib_encoder(doc):
    assert dumps(doc) == _stdlib_dumps(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["re", "im"])
def test_dumps_rejects_nonfinite_matrix_entries(bad, where):
    x = np.ones((2, 2), dtype=complex)
    x[1, 0] = complex(bad, 0.0) if where == "re" else complex(0.0, bad)
    doc = {"components": [{"e": matrix_to_json(np.eye(2)), "f": matrix_to_json(x)}]}
    with pytest.raises(ValueError):
        dumps(doc)


# The placeholder an earlier dumps spliced matrix entries into; a string
# equal to it is written like any other.
_PLACEHOLDER = "\x00entries\x00"


@pytest.mark.parametrize(
    "doc",
    [
        {"note": _PLACEHOLDER, "m": matrix_to_json(np.eye(2))},
        {_PLACEHOLDER: matrix_to_json(np.eye(2))},
        [matrix_to_json(np.eye(2))["entries"], _PLACEHOLDER],
        {"note": _PLACEHOLDER},
    ],
)
def test_dumps_never_splices_a_string_equal_to_the_placeholder(doc):
    assert dumps(doc) == _stdlib_dumps(doc)


_MATRIX_KEYS = {"rows", "cols", "entries"}


def _sample_state_report() -> StateReport:
    vec = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    return StateReport(
        dims=(2, 2),
        mass=1.0,
        ppt=False,
        ppt_witness=vec,
        ppt_min_eigenvalue=-0.5,
        entanglement="certified-entangled",
        certificate_name="transpose2",
        certificate_vector=vec,
        certificate_value=-0.5,
        hits=(WitnessHit("transpose2", -0.5, vec),),
        peres_crosscheck=True,
    )


def test_state_report_document_shape():
    doc = _json_cycle(report_to_json(_sample_state_report()))
    assert doc.keys() == {
        "dims", "mass", "ppt", "ppt_min_eigenvalue", "ppt_witness",
        "entanglement", "certificate_name", "certificate_value",
        "certificate_vector", "hits", "peres_crosscheck",
    }
    assert doc["hits"][0].keys() == {"name", "eigenvalue", "eigenvector"}
    assert doc["hits"][0]["eigenvector"].keys() == _MATRIX_KEYS
    assert doc["dims"] == [2, 2]
    assert doc["entanglement"] == "certified-entangled"
    assert doc["hits"][0]["name"] == "transpose2"
    assert doc["ppt_witness"]["cols"] == 1
    assert doc["peres_crosscheck"] is True


def test_map_report_document_shape():
    report = MapClassReport(
        dim_in=2,
        dim_out=2,
        cp=True,
        cp_witness=None,
        copositive=False,
        copositive_witness=np.array([1.0, 0.0, 0.0, 1.0], dtype=complex),
        block_min=0.0,
        block_x=np.array([1.0, 0.0], dtype=complex),
        block_y=np.array([0.0, 1.0], dtype=complex),
        block_converged=True,
        positive_verdict="probably-positive",
        eb_verdict="inconclusive",
    )
    doc = _json_cycle(report_to_json(report))
    assert doc.keys() == {
        "dim_in", "dim_out", "cp", "cp_witness", "copositive",
        "copositive_witness", "block_min", "block_x", "block_y",
        "block_converged", "positive_verdict", "eb_verdict", "eb_certificate",
        "eb_witness_name",
    }
    assert doc["block_x"].keys() == _MATRIX_KEYS
    assert doc["cp"] is True
    assert doc["cp_witness"] is None
    assert doc["copositive_witness"]["rows"] == 4
    assert doc["eb_certificate"] is None
    assert doc["positive_verdict"] == "probably-positive"


def test_search_result_document_shape():
    s = BipartiteState((2, 2), np.eye(4, dtype=complex) / 4.0)
    r = SearchResult(
        state=s, violation=0.01, iterations=42, converged=True, seed=7,
        witness_name="choi3",
    )
    doc = _json_cycle(report_to_json(r))
    assert doc.keys() == {"witness", "violation", "iterations", "converged", "seed", "state"}
    assert doc["state"].keys() == {"dims", "repr", "density"}
    assert doc["witness"] == "choi3"
    assert doc["seed"] == 7
    back = state_document_from_json(doc["state"])
    assert isinstance(back, BipartiteState)
    assert np.array_equal(back.density, s.density)


def test_decomposition_document_shape():
    e = np.diag([1.0, 0.0]).astype(complex)
    s = BipartiteState((2, 2), np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    comp = BlockComponent(indices=(0,), e=e, f=e, weight=1.0, state=s)
    doc = _json_cycle(report_to_json(BlockDecomposition((comp,), 0.0)))
    assert doc.keys() == {"components", "max_cross_overlap"}
    assert doc["components"][0].keys() == {"indices", "weight", "e", "f", "state"}
    assert doc["components"][0]["e"].keys() == _MATRIX_KEYS
    assert doc["components"][0]["state"].keys() == {"dims", "repr", "density"}
    assert doc["components"][0]["indices"] == [0]
    assert doc["components"][0]["weight"] == 1.0
    assert doc["max_cross_overlap"] == 0.0


def test_to_text_flattening():
    from entanglecone.serialize import to_text

    doc = {
        "verdict": "ok",
        "value": -0.5,
        "vec": matrix_to_json(np.zeros((3, 1), dtype=complex)),
        "hits": [{"name": "w"}],
        "empty": [],
        "flags": [True, False],
    }
    text = to_text(doc)
    lines = dict(line.split(": ", 1) for line in text.splitlines())
    assert lines["verdict"] == "ok"
    assert lines["value"] == "-0.5"
    assert lines["vec"] == "matrix 3x1"
    assert lines["hits[0].name"] == "w"
    assert lines["empty"] == "[]"
    assert lines["flags"] == "[True, False]"
