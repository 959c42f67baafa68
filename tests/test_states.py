import dataclasses
import logging
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entanglecone import states
from entanglecone.classify import (
    Budget,
    WitnessLibrary,
    builtin_choi_map,
    builtin_map,
    default_witness_library,
)
from entanglecone.duality import (
    BipartiteState,
    HolevoForm,
    MatrixMap,
    apply_to_second,
    compose,
    holevo_to_map,
    identity_map,
    kraus_to_map,
    map_adjoint,
    map_from_state,
    maximally_entangled_matrix,
    state_from_map,
    transpose_map,
)
from entanglecone.errors import DomainError, NumericalError
from entanglecone.linalg import (
    DEFAULT_TOL,
    Tolerances,
    hermitian_part,
    is_psd,
    kron,
    partial_transpose,
    psd_verdicts,
)
from entanglecone.rng import stream_words
from entanglecone.states import (
    SEARCH_BUDGET,
    _dykstra,
    peres_equivalence,
    ppt_check,
    random_product_mixtures,
    search_ppt_entangled,
    witness_battery,
)
from reference import (
    derive_stream,
    gaussian_complex_matrix,
    min_eigenpair,
    random_density,
    random_product_mixture,
    random_hermitian,
    random_pure_mixture,
    witness_battery_per_call,
)


def _holevo_state(stream, n, m, terms=3):
    pairs = tuple(
        (random_density(stream, n), random_density(stream, m)) for _ in range(terms)
    )
    return state_from_map(holevo_to_map(HolevoForm(pairs))).normalized()


def test_ppt_check_maximally_entangled():
    s = BipartiteState((2, 2), maximally_entangled_matrix(2) / 2)
    ok, witness = ppt_check(s)
    assert not ok
    assert witness is not None
    pt = partial_transpose(s.density, (2, 2), "second")
    value = (witness.conj() @ pt @ witness).real
    assert abs(value + 0.5) < 1e-12


def test_ppt_check_product_and_mixed():
    e11 = np.diag([1.0, 0.0]).astype(complex)
    s = BipartiteState((2, 2), kron(e11, e11))
    ok, witness = ppt_check(s)
    assert ok and witness is None
    ok, _ = ppt_check(BipartiteState((2, 2), np.eye(4, dtype=complex) / 4.0))
    assert ok


def test_ppt_check_product_mixtures_always_pass():
    stream = derive_stream(401, 0)
    for _ in range(10):
        h = random_product_mixture(stream, 2, 3, 4)
        ok, _ = ppt_check(BipartiteState((2, 3), h))
        assert ok


def _equal_count(arrays, x):
    """How many of the matrices in arrays, stacks included, equal x."""
    return sum(
        np.array_equal(a, x) for stack in arrays for a in stack.reshape((-1,) + stack.shape[-2:])
    )


def test_battery_diagonalises_each_partial_transpose_once(eigh_inputs):
    # A complex state: for a real one the two partial transposes coincide.
    # White noise makes the PPT variant; the spectra are the same either way.
    h = random_pure_mixture(derive_stream(409, 0), 9, 2)
    g = random_pure_mixture(derive_stream(409, 1), 4, 2)
    # The partial transpose and the four choi3 outputs; on a 2x2 state
    # the partial transpose alone. The density is not diagonalised again:
    # its check reads the least eigenvalue BipartiteState took.
    # The Peres condition makes the dual map's Choi matrix and the
    # first-factor partial transpose redundant, so neither is diagonalised.
    for ppt, dims, density, count in [
        (False, (3, 3), h, 5),
        (True, (3, 3), 0.1 * h + 0.9 * np.eye(9) / 9, 5),
        (False, (2, 2), g, 1),
    ]:
        s = BipartiteState(dims, density)
        witness_battery(s)
        eigh_inputs.clear()
        report = witness_battery(s)
        assert report.ppt == ppt
        first = hermitian_part(partial_transpose(s.density, s.dims, "first"))
        second = hermitian_part(partial_transpose(s.density, s.dims, "second"))
        dual = hermitian_part(map_from_state(s).choi)
        assert not np.array_equal(first, second)
        assert _equal_count(eigh_inputs, first) == 0
        assert _equal_count(eigh_inputs, dual) == 0
        assert _equal_count(eigh_inputs, hermitian_part(s.density)) == 0
        # The stack's first row gives the PPT verdict.
        assert _equal_count(eigh_inputs, second) == 1
        assert len(eigh_inputs) == 1
        assert len(eigh_inputs[0]) == count
        assert report.peres_crosscheck


def _assert_one_map_at_a_time(s, library):
    """The library's stacked pass equals, bit for bit, the verdicts of
    the partial transpose and of each map's own apply_to_second output,
    one at a time, and names its first failing row."""
    *stacked, first = library.verdicts(s.density, s.dims)
    names = library.names(s.dims[1])
    assert len(stacked[0]) == len(names)
    failing = [name for name, ok in zip(names, stacked[0]) if not ok]
    assert first == (failing[0] if failing else None)
    rows = [partial_transpose(s.density, s.dims)] + [
        hermitian_part(apply_to_second(s.density, s.dims, psi))
        for _, psi in library.entries
    ]
    for i, row in enumerate(rows):
        for got, want in zip(stacked, psd_verdicts(row)):
            assert got[i].tobytes() == want.tobytes()
    return stacked


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_library_pass_equals_one_map_at_a_time(n, m, rank, seed):
    h = random_pure_mixture(derive_stream(seed, 0), n * m, rank)
    s = BipartiteState((n, m), h)
    _assert_one_map_at_a_time(s, default_witness_library(m))


def _bits(x):
    """x with every array and float replaced by its exact bits."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, tuple):
        return tuple(_bits(y) for y in x)
    return x


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 4),
    rank=st.integers(1, 3),
    noise=st.floats(0.0, 1.0),
    slack=st.sampled_from([DEFAULT_TOL.psd_slack, 1e-10]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, m=3, rank=2, noise=0.0, slack=1e-10, seed=409)
def test_battery_equals_the_per_call_reference(n, m, rank, noise, slack, seed):
    # The one stacked spectrum gives the report of one checked call per
    # matrix, bit for bit; the reference also takes the Peres route and
    # raises or clears peres_crosscheck where the theorem would fail.
    d = n * m
    h = random_pure_mixture(derive_stream(seed, 0), d, rank)
    s = BipartiteState((n, m), (1.0 - noise) * h + noise * np.eye(d) / d)
    tol = Tolerances(slack)
    got = witness_battery(s, tol)
    want = witness_battery_per_call(s, tol)
    assert _bits(dataclasses.astuple(got)) == _bits(dataclasses.astuple(want))


@pytest.mark.parametrize("row", ["transpose3", "choi3-twist1"])
def test_stacked_residual_fault_raises_as_the_separate_call(monkeypatch, row):
    # eigh returns a wrong spectrum for one matrix of the stack only: the
    # partial transpose or the output of a twisted Choi map. The battery
    # raises what is_psd on that matrix alone raises.
    s = BipartiteState((3, 3), random_pure_mixture(derive_stream(411, 0), 9, 2))
    if row == "transpose3":
        target = partial_transpose(s.density, s.dims)
    else:
        psi = dict(default_witness_library(3).entries)[row]
        target = apply_to_second(s.density, s.dims, psi)
    faulty_input = hermitian_part(target)
    real = np.linalg.eigh

    def faulty(a, *args, **kwargs):
        w, v = real(a, *args, **kwargs)
        w = w.copy()
        w[np.all(a == faulty_input, axis=(-2, -1))] += 1.0
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", faulty)
    with pytest.raises(NumericalError, match="residual") as separate:
        is_psd(target)
    with pytest.raises(NumericalError) as stacked:
        witness_battery(s)
    assert str(stacked.value) == str(separate.value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 4),
    kind=st.sampled_from(["product", "noisy"]),
    noise=st.floats(0.0, 1.0),
    ops=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_copositive_maps_keep_ppt_states_positive(n, m, kind, noise, ops, seed):
    # The Peres theorem on the map side: a copositive map t o sum_k A_k . A_k*
    # sends every PPT state, through id (x) psi, to a PSD matrix.
    stream = derive_stream(seed, 0)
    if kind == "product":
        h = random_product_mixture(stream, n, m, 3)
    else:
        # A trace-one state's partial transpose has no eigenvalue below
        # -1/2, so white noise of weight at least d/(d + 2) makes it PPT.
        d = n * m
        weight = (d + 2 * noise) / (d + 2)
        h = (1.0 - weight) * random_pure_mixture(stream, d, 2) + weight * np.eye(d) / d
    s = BipartiteState((n, m), h)
    assert ppt_check(s)[0]
    maps = [
        compose(
            transpose_map(m),
            kraus_to_map([gaussian_complex_matrix(stream, m, m) for _ in range(ops)]),
        )
        for _ in range(4)
    ]
    library = WitnessLibrary(tuple((f"map{k}", f) for k, f in enumerate(maps)))
    ok, low, _ = _assert_one_map_at_a_time(s, library)
    assert ok.all(), low


def _ppt_product_state():
    e11 = np.diag([1.0, 0.0]).astype(complex)
    return BipartiteState((2, 2), kron(e11, np.eye(2, dtype=complex) / 2.0))


def test_first_factor_fault_fails_peres(monkeypatch):
    # A first-factor partial transpose with the wrong sign is not PSD.
    real = states.partial_transpose

    def faulty(x, dims, side="second"):
        out = real(x, dims, side)
        return -out if side == "first" else out

    monkeypatch.setattr(states, "partial_transpose", faulty)
    s = _ppt_product_state()
    assert ppt_check(s)[0]
    assert not peres_equivalence(s)


def test_transpose_route_fault_fails_peres(monkeypatch):
    # The dual map rebuilt with a negated Choi matrix is not CP.
    monkeypatch.setattr(
        states,
        "map_from_state",
        lambda s: MatrixMap(*s.dims, -s.density.T),
    )
    s = _ppt_product_state()
    assert not peres_equivalence(s)


def test_witness_battery_detects_maximally_entangled():
    s = BipartiteState((2, 2), maximally_entangled_matrix(2) / 2)
    report = witness_battery(s)
    assert report.entanglement == "certified-entangled"
    assert report.certificate_name is not None
    assert not report.ppt
    assert report.peres_crosscheck
    assert abs(report.ppt_min_eigenvalue + 0.5) < 1e-12
    # The certificate value is a genuinely negative eigenvalue.
    assert report.certificate_value < -1e-9


def test_witness_battery_separable_inconclusive():
    stream = derive_stream(402, 0)
    s = _holevo_state(stream, 2, 2)
    report = witness_battery(s)
    assert report.ppt
    assert not report.hits
    assert report.entanglement == "inconclusive"


def test_witness_battery_separable_certificate_flag():
    stream = derive_stream(403, 0)
    s = _holevo_state(stream, 3, 3)
    report = witness_battery(s, separable_certificate=True)
    assert report.entanglement == "certified-separable"
    assert not report.hits


def test_peres_equivalence_battery():
    stream = derive_stream(406, 0)
    s = BipartiteState((2, 2), maximally_entangled_matrix(2) / 2)
    assert peres_equivalence(s)
    for _ in range(20):
        d = 2 if stream.next_float() < 0.5 else 3
        h = random_pure_mixture(stream, d * d, 2)
        assert peres_equivalence(BipartiteState((d, d), h))
    assert peres_equivalence(_holevo_state(stream, 2, 2))


def _random_state(kind, n, m, seed, weight):
    """A product mixture, or pure states mixed with white noise."""
    stream = derive_stream(seed, 0)
    if kind == "product":
        h = random_product_mixture(stream, n, m, 3)
    else:
        h = weight * random_pure_mixture(stream, n * m, 2)
        h += (1.0 - weight) * np.eye(n * m) / (n * m)
    return BipartiteState((n, m), h)


_STATES = dict(
    kind=st.sampled_from(["product", "noisy"]),
    n=st.sampled_from([2, 3]),
    m=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    weight=st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(**_STATES)
def test_peres_equivalence_holds_on_random_states(kind, n, m, seed, weight):
    assert peres_equivalence(_random_state(kind, n, m, seed, weight))


def _state_at_the_ppt_edge(n, m, rank, seed, slack, ulps):
    """A trace-one mixture (1 - t) h + t I/d of an entangled pure mixture
    h with white noise, t set so that lambda_min(PT2 rho) falls on
    -slack, the psd floor of a matrix of norm below one, then moved by
    ``ulps`` units in the last place of t. Each unit moves that
    eigenvalue by about 1e-17, below the eigensolver's roundoff, so the
    draws straddle the verdict's edge. None when h has no such edge."""
    d = n * m
    h = random_pure_mixture(derive_stream(seed, 0), d, rank)

    def low(t):
        rho = (1.0 - t) * h + t * np.eye(d) / d
        return np.linalg.eigvalsh(hermitian_part(partial_transpose(rho, (n, m))))[0]

    low0 = low(0.0)
    if low0 >= -slack:
        return None
    # lambda_min(PT2 rho) is linear in t until another eigenvalue crosses.
    t = (-slack - low0) / (1.0 / d - low0)
    for _ in range(3):
        t += (-slack - low(t)) / (1.0 / d - low0)
    t += ulps * np.spacing(t)
    return BipartiteState((n, m), (1.0 - t) * h + t * np.eye(d) / d)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
    rank=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    slack=st.sampled_from([DEFAULT_TOL.psd_slack, 1e-10]),
    ulps=st.integers(-8, 8),
)
def test_peres_condition_at_the_tolerance_edge(dims, rank, seed, slack, ulps):
    # The battery reads the PPT verdict from PT2 rho alone. On states
    # whose least PT eigenvalue sits on the psd floor, the Peres route
    # (the dual map CP and copositive, that is PT1 rho PSD) still agrees.
    s = _state_at_the_ppt_edge(*dims, rank, seed, slack, ulps)
    assume(s is not None)
    tol = Tolerances(slack)
    assert peres_equivalence(s, tol)
    first = partial_transpose(s.density, s.dims, "first")
    assert witness_battery(s, tol).ppt == is_psd(first, tol)[0]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(**_STATES)
def test_ppt_check_agrees_with_the_battery(kind, n, m, seed, weight):
    s = _random_state(kind, n, m, seed, weight)
    ok, witness = ppt_check(s)
    report = witness_battery(s)
    assert report.ppt == ok
    assert (witness is None) == (report.ppt_witness is None)
    if kind == "product":
        assert ok


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (1, 17)]),
    rank=st.integers(1, 4),
    edge=st.booleans(),
    shift=st.sampled_from([0.0, -1e-12, -3e-10, -8e-10]),
    slack=st.sampled_from([1e-9, 1e-10, 1e-16]),
    ulps=st.integers(-8, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_battery_density_and_ppt_verdicts_are_is_psd(
    dims, rank, edge, shift, slack, ulps, seed
):
    # The density check reads the least eigenvalue BipartiteState took,
    # the PPT fields the first row of the battery's stack: each is what
    # is_psd finds on the density and on its partial transpose, bit for
    # bit. Draws sit on the PPT edge, or shift a rank-deficient density's
    # zero eigenvalues across the density floor of each slack; the
    # density is Hermitian bit for bit, so both checks see one norm.
    d = dims[0] * dims[1]
    s = _state_at_the_ppt_edge(*dims, rank, seed, slack, ulps) if edge else None
    h = random_pure_mixture(derive_stream(seed, 0), d, rank) if s is None else s.density
    s = BipartiteState(dims, hermitian_part(h + shift * np.eye(d)))
    tol = Tolerances(slack)
    if not is_psd(s.density, tol)[0]:
        with pytest.raises(DomainError, match="state density is not PSD"):
            witness_battery(s, tol)
        return
    report = witness_battery(s, tol)
    pt = partial_transpose(s.density, s.dims)
    ok, low, vec = psd_verdicts(pt, tol)
    ppt, witness = is_psd(pt, tol)
    assert report.ppt == ok == ppt
    assert report.ppt_min_eigenvalue.hex() == float(low).hex()
    if ppt:
        assert report.ppt_witness is None
    else:
        assert report.ppt_witness.tobytes() == witness.tobytes() == vec.tobytes()


def _alpha_state(alpha: float) -> np.ndarray:
    """Horodecki's alpha state on 3x3: PPT for alpha <= 4, entangled for
    alpha > 3, where the Choi map detects it."""
    psi = np.eye(3, dtype=complex).reshape(9) / np.sqrt(3.0)
    plus, minus = np.zeros(9), np.zeros(9)
    plus[[1, 5, 6]] = minus[[3, 7, 2]] = 1.0 / 3.0  # |01>, |12>, |20> and swapped
    mixed = np.diag(alpha * plus + (5.0 - alpha) * minus)
    return (2.0 * np.outer(psi, psi.conj()) + mixed) / 7.0


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (1, 17)]),
    kind=st.sampled_from(["mixture", "alpha", "product"]),
    rank=st.integers(1, 4),
    noise=st.floats(0.0, 1.0),
    alpha=st.floats(2.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_battery_certificate_is_its_first_hit(dims, kind, rank, noise, alpha, seed):
    # Covers no hit, a failing partial transpose first, and choi3 hits on
    # PPT alpha states; product mixtures carry a separable certificate.
    stream = derive_stream(seed, 0)
    if kind == "alpha":
        dims, h = (3, 3), _alpha_state(alpha)
    elif kind == "product":
        h = random_product_mixture(stream, *dims, rank)
    else:
        d = dims[0] * dims[1]
        h = (1.0 - noise) * random_pure_mixture(stream, d, rank) + noise * np.eye(d) / d
    separable = kind == "product"
    report = witness_battery(BipartiteState(dims, h), separable_certificate=separable)
    name, vector, value = (
        report.certificate_name, report.certificate_vector, report.certificate_value
    )
    if report.hits:
        first = report.hits[0]
        assert name == first.name
        assert vector.tobytes() == first.eigenvector.tobytes()
        assert value.hex() == first.eigenvalue.hex()
    else:
        assert name is None and vector is None and value is None
    assert (report.ppt_witness is None) == report.ppt
    if not report.ppt:
        assert report.certificate_name == f"transpose{dims[1]}"
        assert report.ppt_witness.tobytes() == report.certificate_vector.tobytes()


def test_random_pure_mixture_is_state():
    stream = derive_stream(407, 0)
    h = random_pure_mixture(stream, 4, 3)
    assert abs(np.trace(h).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(hermitian_part(h))[0] > -1e-13


def test_dykstra_lands_in_both_cones():
    stream = derive_stream(408, 0)
    x = random_pure_mixture(stream, 9, 2) - 0.05 * np.eye(9)
    out, *_ = _dykstra(x, (3, 3), np.zeros_like(x))
    assert np.linalg.eigvalsh(hermitian_part(out))[0] >= -1e-6
    pt = partial_transpose(out, (3, 3), "second")
    assert np.linalg.eigvalsh(hermitian_part(pt))[0] >= -1e-6


def _first_ascent_candidate() -> np.ndarray:
    """The first point restart 0 of the seed-0 choi3 search projects.

    Built as search_ppt_entangled builds it: a fresh start from the
    restart's stream, then one full subgradient step. The step leaves
    both cones, and the projection lands where their boundaries meet:
    plain Dykstra still leaves a gap of about 3e-5 after 500 sweeps.
    """
    witness = builtin_choi_map()
    stream = derive_stream(0, 0)
    mixed = random_product_mixture(stream, 3, 3, states._INIT_PRODUCT_TERMS)
    h = (1.0 - states._INIT_INTERIOR_WEIGHT) * mixed
    h += states._INIT_INTERIOR_WEIGHT * np.eye(9) / 9.0
    h, *_ = _dykstra(h, (3, 3), np.zeros_like(h))
    h /= np.trace(h).real
    moved = hermitian_part(apply_to_second(h, (3, 3), witness))
    _, vec = min_eigenpair(moved)
    grad = -hermitian_part(
        apply_to_second(np.outer(vec, vec.conj()), (3, 3), map_adjoint(witness))
    )
    return h + states._ASCENT_STEP * grad


def _certified_distance(x0, out, correction, gap):
    """The bound of the _dykstra docstring on the distance to the nearest point."""
    p = x0 - out - correction
    # The bound rests on p <= 0 and PT(correction) <= 0.
    assert is_psd(-p)[0]
    assert is_psd(-partial_transpose(correction, (3, 3), "second"))[0]
    return np.sqrt(
        gap * (3.0 * np.linalg.norm(x0 - out) + 9.0 * gap + np.linalg.norm(p))
    )


def test_dykstra_exits_on_gap_near_both_boundaries(monkeypatch):
    x0 = _first_ascent_candidate()
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    out, correction, _, _ = _dykstra(x0, (3, 3), np.zeros_like(x0))
    # Two eigendecompositions per sweep.
    assert len(calls) // 2 < states._DYKSTRA_ITERATIONS
    assert is_psd(out)[0]
    assert is_psd(partial_transpose(out, (3, 3), "second"))[0]
    gap = states._DYKSTRA_GAP * max(1.0, np.linalg.norm(out))
    bound = _certified_distance(x0, out, correction, gap)
    assert bound < 3e-5

    # The same iteration run to a gap near rounding level.
    monkeypatch.setattr(states, "_DYKSTRA_ITERATIONS", 5000)
    calls.clear()
    ref, ref_correction, _, _ = _dykstra(x0, (3, 3), np.zeros_like(x0), 1e-13)
    assert len(calls) // 2 < 5000
    ref_bound = _certified_distance(x0, ref, ref_correction, 1e-13)
    assert np.linalg.norm(out - ref) <= bound + ref_bound


def test_dykstra_cap_is_logged(monkeypatch, caplog):
    x0 = _first_ascent_candidate()
    monkeypatch.setattr(states, "_DYKSTRA_ITERATIONS", 3)
    with caplog.at_level(logging.WARNING, logger="entanglecone.states"):
        _dykstra(x0, (3, 3), np.zeros_like(x0))
    assert any("cap of 3 iterations" in rec.message for rec in caplog.records)


def _stack_to_project():
    """Four matrices whose projections stop at different sweeps."""
    stream = derive_stream(408, 1)
    hard = _first_ascent_candidate()
    return np.stack(
        [
            hard,
            random_pure_mixture(stream, 9, 2) - 0.05 * np.eye(9),
            random_pure_mixture(stream, 9, 3),
            hard + 0.02 * (random_pure_mixture(stream, 9, 2) - np.eye(9) / 9.0),
        ]
    )


def _history_lengths(monkeypatch, x):
    """Per solve of the Anderson system, each row's history length: the
    number of nonzero entries of A res."""
    lengths = []
    solve = np.linalg.solve

    def recording(a, b):
        lengths.append(np.count_nonzero(b[:, :, 0], axis=1))
        return solve(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", recording)
        out, _, _, sweeps = _dykstra(x, (3, 3), np.zeros_like(x))
    return out, sweeps, lengths


def _assert_stack_matches_each_slice_alone(x, gaps):
    gap = states._DYKSTRA_GAP if gaps is None else np.array(gaps)
    out, correction, r, sweeps = _dykstra(x, (3, 3), np.zeros_like(x), gap)
    assert out.shape == correction.shape == x.shape
    assert r.shape == sweeps.shape == (4,)
    assert len(set(sweeps.tolist())) == 4
    for k in range(4):
        alone, alone_correction, alone_r, alone_sweeps = _dykstra(
            x[k], (3, 3), np.zeros_like(x[k]), gap if gaps is None else gap[k]
        )
        assert alone_sweeps == sweeps[k]
        if gaps is None:
            assert is_psd(out[k])[0]
            assert is_psd(partial_transpose(out[k], (3, 3), "second"))[0]
        # Bit for bit: each row's projection, final correction and gap are
        # its own.
        assert np.array_equal(out[k], alone)
        assert np.array_equal(correction[k], alone_correction)
        assert r[k] == alone_r


def test_dykstra_stack_matches_each_slice_alone():
    x = _stack_to_project()
    _assert_stack_matches_each_slice_alone(x, None)
    # Mixed exit gaps: each slice alone at its own gap.
    _assert_stack_matches_each_slice_alone(x, [1e-9, 1e-4, 1e-5, 1e-6])


def test_dykstra_loose_gap_keeps_its_certificate():
    # A loose exit keeps PT(x_pt) PSD exactly and lambda_min(x_pt) >= -r.
    x = _stack_to_project()
    gap = 1e-4
    _, _, _, exact_sweeps = _dykstra(x, (3, 3), np.zeros_like(x))
    out, _, _, sweeps = _dykstra(x, (3, 3), np.zeros_like(x), gap)
    assert (sweeps < exact_sweeps).all()
    for k in range(4):
        scale = max(1.0, np.linalg.norm(out[k]))
        pt = partial_transpose(out[k], (3, 3), "second")
        assert np.linalg.eigvalsh(hermitian_part(pt))[0] >= -1e-12 * scale
        assert np.linalg.eigvalsh(hermitian_part(out[k]))[0] >= -gap * scale


def test_dykstra_resets_only_the_history_whose_gap_grew(monkeypatch):
    x = _stack_to_project()
    _, sweeps, stacked = _history_lengths(monkeypatch, x)
    alone = [_history_lengths(monkeypatch, x[k])[2] for k in range(4)]
    # The rows of solve j are the matrices still open after sweep j + 1.
    expected = [
        [alone[k][j][0] for k in range(4) if sweeps[k] > j + 1]
        for j in range(int(sweeps.max()) - 1)
    ]
    assert [row.tolist() for row in stacked] == expected
    # The stack does contain a sweep where one history is dropped while
    # another grows.
    assert any(
        0 in row.tolist() and row.max() > 1 and len(prev) == len(row)
        and (prev[row == 0] > 0).any()
        for prev, row in zip(stacked, stacked[1:])
    )


def test_dykstra_cap_names_the_capped_slices(monkeypatch, caplog):
    x = _stack_to_project()
    *_, sweeps = _dykstra(x, (3, 3), np.zeros_like(x))
    cap = int(sweeps.max()) - 1
    monkeypatch.setattr(states, "_DYKSTRA_ITERATIONS", cap)
    with caplog.at_level(logging.WARNING, logger="entanglecone.states"):
        out, tv, r, capped_sweeps = _dykstra(x, (3, 3), np.zeros_like(x))
    assert any(
        f"cap of {cap} iterations in 1 of 4 matrices" in rec.message
        for rec in caplog.records
    )
    assert capped_sweeps.tolist() == np.minimum(sweeps, cap).tolist()
    assert capped_sweeps[sweeps > cap].tolist() == [cap]
    # The capped matrix leaves in the cap sweep as the others leave at
    # their gaps: each result is that of the matrix alone, bit for bit.
    for k in range(4):
        alone = _dykstra(x[k], (3, 3), np.zeros_like(x[k]))
        for got, want in zip((out[k], tv[k], r[k], capped_sweeps[k]), alone):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _sweep_locals(monkeypatch, x):
    """Copies of _dykstra's kept G, ring, exit norm and x_pt, taken as
    each sweep solves its Anderson system."""
    seen = []
    solve = np.linalg.solve

    def recording(a, b):
        scope = sys._getframe(1).f_locals
        seen.append({k: scope[k].copy() for k in ("gram", "d_res", "norm", "x_pt")})
        return solve(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", recording)
        _dykstra(x, (3, 3), np.zeros_like(x), np.array([1e-9, 1e-4, 1e-5, 1e-6]))
    return seen


def test_dykstra_kept_gram_matches_its_ring(monkeypatch):
    seen = _sweep_locals(monkeypatch, _stack_to_project())
    for s in seen:
        rebuilt = s["d_res"] @ s["d_res"].swapaxes(1, 2)
        error = np.linalg.norm(s["gram"] - rebuilt, axis=(1, 2))
        assert (error <= 1e-12 * np.linalg.norm(rebuilt, axis=(1, 2))).all()
    # The sweeps cover compaction and a history reset.
    traces = [np.trace(s["gram"], axis1=1, axis2=2) for s in seen]
    assert len(traces[0]) == 4 and len(traces[-1]) == 1
    assert any(
        len(a) == len(b) and ((a > 0.0) & (b == 0.0)).any()
        for a, b in zip(traces, traces[1:])
    )


def test_dykstra_exit_norm_from_the_spectrum(monkeypatch):
    for s in _sweep_locals(monkeypatch, _stack_to_project()):
        frob = np.linalg.norm(s["x_pt"], axis=(1, 2))
        assert (np.abs(s["norm"] - frob) <= 1e-14 * frob).all()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    dims=st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 3)]),
    gaps=st.lists(st.sampled_from([1e-9, 1e-6, 1e-3]), min_size=1, max_size=4),
    warm=st.booleans(),
)
@example(seed=0, dims=(3, 3), gaps=[1e-9, 1e-3, 1e-6], warm=True)
def test_dykstra_record_certifies_its_projection(seed, dims, gaps, warm):
    # With q = T(v) and p = x0 - x_pt - q, x0 = x_pt + p + q where p and
    # PT(q) are negative semidefinite and lambda_min(x_pt) >= -r, from
    # any start v, which the call only reads.
    stream = derive_stream(seed, 0)
    d = dims[0] * dims[1]
    x = np.stack([random_hermitian(stream, d) for _ in gaps])
    correction = np.zeros_like(x)
    if warm:
        correction += np.stack([0.1 * random_hermitian(stream, d) for _ in gaps])
    start = correction.copy()
    x_pt, q, r, sweeps = _dykstra(x, dims, correction, np.array(gaps))
    assert np.array_equal(correction, start)
    assert (sweeps < states._DYKSTRA_ITERATIONS).all()
    p = hermitian_part(x) - x_pt - q
    for k, gap in enumerate(gaps):
        scale = max(1.0, np.linalg.norm(x_pt[k]))
        rounding = 1e-13 * max(1.0, np.linalg.norm(x[k]))
        assert r[k] <= gap * scale
        assert np.linalg.eigvalsh(hermitian_part(p[k]))[-1] <= rounding
        pt_q = partial_transpose(q[k], dims, "second")
        assert np.linalg.eigvalsh(hermitian_part(pt_q))[-1] <= rounding
        assert np.linalg.eigvalsh(hermitian_part(x_pt[k]))[0] >= -r[k] - rounding


def test_search_finds_ppt_entangled_state():
    result = search_ppt_entangled(
        builtin_choi_map(),
        budget=Budget(restarts=2, iterations=80),
        seed=0,
        witness_name="choi3",
    )
    assert result.violation >= 1e-3
    h = result.state.density
    assert result.state.dims == (3, 3)
    assert np.linalg.eigvalsh(hermitian_part(h))[0] >= -1e-9
    pt = partial_transpose(h, (3, 3), "second")
    assert np.linalg.eigvalsh(hermitian_part(pt))[0] >= -1e-9
    # The found state is PPT yet detected by the witness.
    ok, _ = ppt_check(result.state)
    assert ok
    moved = apply_to_second(h, (3, 3), builtin_choi_map())
    low, vec = min_eigenpair(hermitian_part(moved))
    assert abs(low + result.violation) < 1e-10
    assert abs((vec.conj() @ moved @ vec).real - low) < 1e-10


@pytest.mark.parametrize(
    "seed, iterations", [(0, 20), (1, 20), (2, 20), (1145069700, 1)]
)
def test_search_reports_a_state_inside_both_cones(seed, iterations):
    # The finish shifts the winner's projection by its gap r, so both
    # least eigenvalues are at least about r > 0, not merely -1e-15; in
    # the last case that projection stops at its cap.
    result = search_ppt_entangled(
        builtin_choi_map(), Budget(restarts=8, iterations=iterations), seed=seed
    )
    h = hermitian_part(result.state.density)
    assert np.linalg.eigvalsh(h)[0] >= 0.0
    assert np.linalg.eigvalsh(partial_transpose(h, (3, 3), "second"))[0] >= 0.0


def _start(stream, n):
    """The unprojected search start a restart draws from its stream."""
    mixed = random_product_mixture(stream, n, n, states._INIT_PRODUCT_TERMS)
    h = (1.0 - states._INIT_INTERIOR_WEIGHT) * mixed
    h += states._INIT_INTERIOR_WEIGHT * np.eye(n * n) / (n * n)
    return h


def _per_restart_search(witness, budget, seed):
    """Reference: each restart of search_ppt_entangled run on its own.

    Returns (violation, restart, h, converged, steps, resets) per
    restart, h the state the search would report and resets the
    number of times progress cleared a nonzero plateau count. A restart
    starts from its normalised draw, unprojected. Each candidate is
    projected to the gap its step allows, and the violation is that of
    the loosely projected state; a candidate whose projection has no
    trace is a rejected step. h is the search's finish: the exact
    projection of the start or candidate that state came from, shifted
    by its gap.
    """
    n = witness.dim_in
    dims = (n, n)
    adjoint = map_adjoint(witness)

    def violation(h):
        low, vec = min_eigenpair(hermitian_part(apply_to_second(h, dims, witness)))
        return -low, vec

    def normalised(h):
        return h / np.real(np.trace(h))

    runs = []
    for r in range(budget.restarts):
        source = _start(derive_stream(seed, r), n)
        h = normalised(source)
        correction = np.zeros((n * n, n * n), dtype=complex)
        viol, vec = violation(h)
        plateau, converged, steps, resets = 0, False, 0, 0
        for _ in range(budget.iterations):
            steps += 1
            grad = -hermitian_part(
                apply_to_second(np.outer(vec, vec.conj()), dims, adjoint)
            )
            before = viol
            step = states._ASCENT_STEP
            for _ in range(states._MAX_HALVINGS):
                x = h + step * grad
                length = step * np.linalg.norm(grad, axis=(-2, -1))
                gap = max(states._DYKSTRA_GAP, states._ASCENT_GAP_RATIO * length)
                cand, correction, _, _ = _dykstra(x, dims, correction, gap)
                trace = np.real(np.trace(cand))
                if trace >= 1e-12:
                    cand = cand / trace
                    cand_viol, cand_vec = violation(cand)
                    if cand_viol > viol:
                        h, viol, vec, source = cand, cand_viol, cand_vec, x
                        break
                step /= 2.0
            else:
                converged = True
                break
            scale = max(abs(viol), states._PLATEAU_SCALE_FLOOR)
            if viol - before < states._PLATEAU_RELATIVE * scale:
                plateau += 1
                if plateau >= states._PLATEAU_EXIT:
                    converged = True
                    break
            else:
                resets += plateau > 0
                plateau = 0
        x_pt, _, gap, _ = _dykstra(source, dims, correction)
        h = _finish(x_pt, gap)
        runs.append((viol, r, h, converged, steps, resets))
    return runs


def _finish(x_pt, r):
    """The search's finish: an exact projection x_pt with gap r, shifted
    into both cones and normalised."""
    h = x_pt + r * np.eye(len(x_pt))
    return h / np.real(np.trace(h))


def _recorded_dykstra(monkeypatch):
    """Patch states._dykstra to record each call's x, starting correction
    and gap; returns the list the calls go to."""
    dykstra = states._dykstra
    calls = []

    def recording(x, dims, correction, gap=states._DYKSTRA_GAP):
        calls.append((x.copy(), correction.copy(), gap))
        return dykstra(x, dims, correction, gap)

    monkeypatch.setattr(states, "_dykstra", recording)
    return calls


def _assert_lockstep_matches(monkeypatch, witness, budget, runs):
    """search_ppt_entangled returns the winner of the per-restart runs."""
    _, restart, h, converged, _, _ = min(runs, key=lambda run: (-run[0], run[1]))
    calls = _recorded_dykstra(monkeypatch)
    result = search_ppt_entangled(witness, budget, seed=0)
    # The last projection is the finish's: the winner alone, exact.
    *_, (source, _, gap) = calls
    assert source.shape == (9, 9) and gap == states._DYKSTRA_GAP
    distances = [np.linalg.norm(result.state.density - run[2]) for run in runs]
    assert int(np.argmin(distances)) == restart
    assert distances[restart] <= 1e-12
    assert result.converged == converged
    assert result.iterations == sum(run[4] for run in runs)
    moved = hermitian_part(apply_to_second(h, (3, 3), witness))
    assert abs(result.violation + min_eigenpair(moved)[0]) <= 1e-12


def test_lockstep_search_matches_per_restart_runs(monkeypatch):
    # A short plateau makes the restarts leave the stack at different
    # steps; one of them runs to the step budget.
    monkeypatch.setattr(states, "_PLATEAU_EXIT", 3)
    monkeypatch.setattr(states, "_PLATEAU_RELATIVE", 3e-2)
    witness = builtin_choi_map()
    budget = Budget(restarts=6, iterations=40)
    runs = _per_restart_search(witness, budget, seed=0)
    assert len({run[4] for run in runs}) == 6
    assert {run[3] for run in runs} == {True, False}
    _assert_lockstep_matches(monkeypatch, witness, budget, runs)


def test_lockstep_search_resets_plateaus_like_per_restart_runs(monkeypatch):
    # Restart 3 makes progress after four flat steps and clears its
    # plateau count. Had it kept the count, it would have stopped at
    # step 53 instead of 57.
    monkeypatch.setattr(states, "_PLATEAU_EXIT", 10)
    monkeypatch.setattr(states, "_PLATEAU_RELATIVE", 2e-2)
    witness = builtin_choi_map()
    budget = Budget(restarts=4, iterations=60)
    runs = _per_restart_search(witness, budget, seed=0)
    assert [run[5] for run in runs] == [0, 0, 0, 1]
    assert runs[3][4] == 57
    _assert_lockstep_matches(monkeypatch, witness, budget, runs)


def test_collapsed_candidate_is_a_rejected_step(monkeypatch):
    dykstra = states._dykstra
    calls = []

    def collapsing(x, dims, correction, gap=states._DYKSTRA_GAP):
        out, tv, r, sweeps = dykstra(x, dims, correction, gap)
        if not calls:
            # The first ascent projection holds every restart in order.
            out[1] = 0.0
        calls.append(x.copy())
        return out, tv, r, sweeps

    monkeypatch.setattr(states, "_dykstra", collapsing)
    witness = builtin_choi_map()
    result = search_ppt_entangled(witness, Budget(restarts=3, iterations=2), seed=4)
    # The starts are the normalised draws and get no projection: the
    # first projection steps from the draws.
    start = np.stack([_start(derive_stream(4, r), 3) for r in range(3)])
    h = start / np.real(np.trace(start, axis1=1, axis2=2))[:, np.newaxis, np.newaxis]
    _, vec = states._violation(h, (3, 3), witness)
    grad = -hermitian_part(
        apply_to_second(
            vec[:, :, np.newaxis] * vec.conj()[:, np.newaxis, :],
            (3, 3),
            map_adjoint(witness),
        )
    )
    assert np.allclose(calls[0], h + states._ASCENT_STEP * grad, rtol=0, atol=1e-15)
    # Restart 1's collapsed candidate is rejected: the next projection
    # tries it again from the same state at half the step.
    halved = (calls[0][1] - h[1]) / 2
    assert any(np.allclose(row - h[1], halved, rtol=0, atol=1e-15) for row in calls[1])
    assert result.iterations == 6


_BUILTIN_WITNESSES = ["choi3"] + [
    f"{kind}{n}" for kind in ("identity", "transpose") for n in range(1, 17)
]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(_BUILTIN_WITNESSES),
    seed=st.integers(0, 2**64 - 1),
    restart=st.integers(0, SEARCH_BUDGET.restarts - 1),
)
@example(name="choi3", seed=0, restart=0)
@example(name="identity16", seed=0, restart=15)
@example(name="transpose3", seed=2**64 - 1, restart=0)
def test_first_step_from_a_start_keeps_a_positive_pairing(name, seed, restart):
    # x = h + step grad projects to zero only if x is polar to both
    # cones, which needs <x, h> = ||h||^2 + step violation(h) <= 0. At
    # the longest step that pairing stays positive from each start of a
    # default-budget search, so no builtin witness collapses one.
    witness = builtin_map(name)
    n = witness.dim_in
    dims = (n, n)
    h = _start(derive_stream(seed, restart), n)
    h /= np.real(np.trace(h))
    _, vec = states._violation(h, dims, witness)
    grad = -hermitian_part(
        apply_to_second(np.outer(vec, vec.conj()), dims, map_adjoint(witness))
    )
    x = h + states._ASCENT_STEP * grad
    assert np.real(np.vdot(h, x)) > 0.0


def test_search_projects_the_winner_exactly_once(monkeypatch):
    # The ascent projects loosely; the finish projects the winner's
    # stored candidate exactly, from its restart's correction, and
    # reports that projection shifted by its gap and normalised.
    dykstra = states._dykstra
    calls = _recorded_dykstra(monkeypatch)
    result = search_ppt_entangled(
        builtin_choi_map(), Budget(restarts=2, iterations=3), seed=1
    )
    *ascent, (source, start, gap) = calls
    assert gap == states._DYKSTRA_GAP and source.shape == (9, 9)
    # The candidate was projected loosely in the ascent.
    assert any(
        (np.asarray(g) > states._DYKSTRA_GAP)[(x == source).all(axis=(1, 2))].any()
        for x, _, g in ascent
    )
    exact, _, r, _ = dykstra(source, (3, 3), start)
    assert np.array_equal(result.state.density, _finish(exact, r))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    terms=st.integers(1, 4),
    indices=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
)
@example(seed=0, n=1, m=1, terms=1, indices=[0])
@example(seed=2**64 - 1, n=4, m=3, terms=4, indices=[5, 2**64 - 1, 5])
def test_stacked_product_mixtures_match_the_scalar_streams(seed, n, m, terms, indices):
    # Bit for bit, for a first and a second draw from the same streams.
    words = stream_words(seed, indices)
    scalar = [derive_stream(seed, r) for r in indices]
    for _ in range(2):
        want = np.stack([random_product_mixture(s, n, m, terms) for s in scalar])
        got = random_product_mixtures(words, n, m, terms)
        assert got.shape == (len(indices), n * m, n * m)
        assert got.tobytes() == want.tobytes()


def test_search_logs_one_debug_summary(caplog, monkeypatch):
    budget = Budget(restarts=2, iterations=3)
    recorded = _recorded_dykstra(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="entanglecone.states"):
        result = search_ppt_entangled(
            builtin_choi_map(), budget, seed=1, witness_name="choi3"
        )
    (summary,) = [r for r in caplog.records if r.levelno == logging.DEBUG]
    restarts, steps, calls, sweeps, finish, caps = [
        int(v) for v in summary.args[1:7]
    ]
    assert summary.getMessage().startswith("search choi3: 2 restarts")
    assert (restarts, steps, caps) == (2, result.iterations, 0)
    # At least one call per lockstep ascent step, and the finish's one:
    # the winner's exact projection, whose sweeps count toward the
    # finish. The starts get no projection.
    assert calls == len(recorded)
    assert finish >= 1
    assert calls >= 1 + -(-steps // restarts)
    assert sweeps >= calls - 1
    # Three phases: start, ascent and finish.
    assert len(summary.args[7:]) == 3
    assert all(t >= 0.0 for t in summary.args[7:])


def test_search_reports_witness_hit_in_battery():
    result = search_ppt_entangled(
        builtin_choi_map(),
        budget=Budget(restarts=2, iterations=80),
        seed=0,
        witness_name="choi3",
    )
    report = witness_battery(result.state)
    assert report.ppt
    assert report.entanglement == "certified-entangled"
    assert "choi3" in report.certificate_name


def test_search_decomposable_witness_cannot_succeed(caplog):
    with caplog.at_level(logging.WARNING, logger="entanglecone.states"):
        result = search_ppt_entangled(
            transpose_map(2),
            budget=Budget(restarts=2, iterations=10),
            seed=0,
            witness_name="transpose2",
        )
    assert result.violation <= 1e-9
    assert any("transpose2" in rec.message for rec in caplog.records)
    result = search_ppt_entangled(
        identity_map(2),
        budget=Budget(restarts=1, iterations=5),
        seed=0,
        witness_name="identity2",
    )
    assert result.violation <= 1e-9


def test_search_deterministic_across_runs_and_threads():
    # Across BLAS thread counts: see acceptance criterion 9, whose
    # subprocesses set them before numpy loads.
    budget = Budget(restarts=3, iterations=30)
    first = search_ppt_entangled(builtin_choi_map(), budget=budget, seed=5)
    second = search_ppt_entangled(builtin_choi_map(), budget=budget, seed=5)
    assert first.violation == second.violation
    assert np.array_equal(first.state.density, second.state.density)


def test_search_seed_changes_outcome_details():
    budget = Budget(restarts=1, iterations=15)
    a = search_ppt_entangled(builtin_choi_map(), budget=budget, seed=1)
    b = search_ppt_entangled(builtin_choi_map(), budget=budget, seed=2)
    assert not np.array_equal(a.state.density, b.state.density)


def test_search_checks_only_the_finished_winner(monkeypatch):
    # The ascent's violations come from the bare solver; the checked one
    # runs once, on the finished winner whose violation is reported.
    checked = []
    real = states.hermitian_eigen

    def recording(x):
        checked.append(np.array(x))
        return real(x)

    monkeypatch.setattr(states, "hermitian_eigen", recording)
    witness = builtin_choi_map()
    result = search_ppt_entangled(witness, Budget(restarts=3, iterations=10), seed=0)
    (image,) = checked
    h = result.state.density
    assert np.array_equal(image, hermitian_part(apply_to_second(h, (3, 3), witness)))
    assert result.violation == -real(image)[0][-1]
