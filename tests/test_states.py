import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entanglecone import states
from entanglecone.classify import (
    Budget,
    builtin_choi_map,
    default_witness_library,
)
from entanglecone.duality import (
    BipartiteState,
    HolevoForm,
    MatrixMap,
    apply_to_second,
    holevo_to_map,
    identity_map,
    kraus_to_map,
    map_adjoint,
    map_from_state,
    maximally_entangled,
    post_transpose,
    state_from_map,
    transpose_map,
)
from entanglecone.errors import NumericalError
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
    _dykstra,
    peres_equivalence,
    ppt_check,
    random_product_mixtures,
    search_ppt_entangled,
    witness_battery,
    witness_pairing,
)
from reference import (
    derive_stream,
    gaussian_complex_matrix,
    min_eigenpair,
    pairing_via_adjoint,
    random_density,
    random_product_mixture,
    random_pure_mixture,
    witness_battery_per_call,
)


def _holevo_state(stream, n, m, terms=3):
    pairs = tuple(
        (random_density(stream, n), random_density(stream, m)) for _ in range(terms)
    )
    return state_from_map(holevo_to_map(HolevoForm(pairs))).normalized()


def test_ppt_check_maximally_entangled():
    s = maximally_entangled(2)
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
    # The six distinct library outputs (choi3-tconj has choi3's Choi
    # matrix); on a 2x2 state the library is identity2 and transpose2.
    # The Peres condition makes the dual map's Choi matrix and the
    # first-factor partial transpose redundant, so neither is diagonalised.
    for ppt, dims, density, count in [
        (False, (3, 3), h, 6),
        (True, (3, 3), 0.1 * h + 0.9 * np.eye(9) / 9, 6),
        (False, (2, 2), g, 2),
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
        # The transpose witness gives the PPT verdict.
        assert _equal_count(eigh_inputs, second) == 1
        assert len(eigh_inputs) == 1
        assert len(eigh_inputs[0]) == count
        assert report.peres_crosscheck


def _assert_one_map_at_a_time(s, choi4):
    """The stacked pass over the Choi tensors choi4 equals, bit for bit,
    the verdicts of each map's own apply_to_second output."""
    stacked = psd_verdicts(states._second_factor_outputs(s, choi4))
    m = s.dims[1]
    for i, c4 in enumerate(choi4):
        psi = MatrixMap(m, m, c4.reshape(m * m, m * m))
        single = psd_verdicts(hermitian_part(apply_to_second(s.density, s.dims, psi)))
        for got, want in zip(stacked, single):
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
    entries = default_witness_library(m).entries
    _assert_one_map_at_a_time(s, np.stack([psi.choi4() for _, psi in entries]))


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
    # matrix, bit for bit, duplicate library maps included; the reference
    # also takes the Peres route and raises or clears peres_crosscheck
    # where the theorem would fail.
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
    # output of the transpose or of a twisted Choi map. The battery raises
    # what is_psd on that output alone raises.
    s = BipartiteState((3, 3), random_pure_mixture(derive_stream(411, 0), 9, 2))
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
        post_transpose(
            kraus_to_map([gaussian_complex_matrix(stream, m, m) for _ in range(ops)])
        )
        for _ in range(4)
    ]
    ok, low, _ = _assert_one_map_at_a_time(s, np.stack([f.choi4() for f in maps]))
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
    report = witness_battery(maximally_entangled(2))
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


def test_witness_pairing_pinned_values():
    s = maximally_entangled(2)
    assert abs(witness_pairing(s, transpose_map(2)) - 1.0) < 1e-12
    e11 = np.diag([1.0, 0.0]).astype(complex)
    prod = BipartiteState((2, 2), kron(e11, e11))
    assert abs(witness_pairing(prod, identity_map(2)) - 1.0) < 1e-12


def test_witness_pairing_matches_adjoint_route():
    stream = derive_stream(404, 0)
    s = _holevo_state(stream, 3, 3)
    for f in (transpose_map(3), identity_map(3), builtin_choi_map()):
        direct = witness_pairing(s, f)
        adjoint = pairing_via_adjoint(s, f)
        assert abs(direct - adjoint) < 1e-10
    # Rectangular pairing: the map must run between the two factors.
    from entanglecone.duality import kraus_to_map

    rect = _holevo_state(stream, 2, 3)
    g = kraus_to_map([gaussian_complex_matrix(stream, 3, 2)])
    assert abs(witness_pairing(rect, g) - pairing_via_adjoint(rect, g)) < 1e-10


def test_witness_pairing_nonnegative_for_separable_positive_pairs():
    stream = derive_stream(405, 0)
    for _ in range(10):
        s = _holevo_state(stream, 2, 2)
        for f in (identity_map(2), transpose_map(2)):
            assert witness_pairing(s, f) >= -1e-9


def test_peres_equivalence_battery():
    stream = derive_stream(406, 0)
    assert peres_equivalence(maximally_entangled(2))
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


def test_random_pure_mixture_is_state():
    stream = derive_stream(407, 0)
    h = random_pure_mixture(stream, 4, 3)
    assert abs(np.trace(h).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(hermitian_part(h))[0] > -1e-13


def test_dykstra_lands_in_both_cones():
    stream = derive_stream(408, 0)
    x = random_pure_mixture(stream, 9, 2) - 0.05 * np.eye(9)
    out, _ = _dykstra(x, (3, 3))
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
    h, _ = _dykstra(h, (3, 3))
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
    correction = np.zeros((9, 9), dtype=complex)
    out, _ = _dykstra(x0, (3, 3), correction)
    # Two eigendecompositions per sweep.
    assert len(calls) // 2 < states._DYKSTRA_ITERATIONS
    assert is_psd(out)[0]
    assert is_psd(partial_transpose(out, (3, 3), "second"))[0]
    gap = states._DYKSTRA_GAP * max(1.0, np.linalg.norm(out))
    bound = _certified_distance(x0, out, correction, gap)
    assert bound < 3e-5

    # The same iteration run to a gap near rounding level.
    monkeypatch.setattr(states, "_DYKSTRA_GAP", 1e-13)
    monkeypatch.setattr(states, "_DYKSTRA_ITERATIONS", 5000)
    calls.clear()
    ref_correction = np.zeros((9, 9), dtype=complex)
    ref, _ = _dykstra(x0, (3, 3), ref_correction)
    assert len(calls) // 2 < 5000
    ref_bound = _certified_distance(x0, ref, ref_correction, 1e-13)
    assert np.linalg.norm(out - ref) <= bound + ref_bound


def test_dykstra_cap_is_logged(monkeypatch, caplog):
    x0 = _first_ascent_candidate()
    monkeypatch.setattr(states, "_DYKSTRA_ITERATIONS", 3)
    with caplog.at_level(logging.WARNING, logger="entanglecone.states"):
        _dykstra(x0, (3, 3))
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
        out, sweeps = _dykstra(x, (3, 3), np.zeros_like(x))
    return out, sweeps, lengths


def _assert_stack_matches_each_slice_alone(x, gaps):
    correction = np.zeros_like(x)
    out, sweeps = _dykstra(x, (3, 3), correction, None if gaps is None else np.array(gaps))
    assert out.shape == x.shape and sweeps.shape == (4,)
    assert len(set(sweeps.tolist())) == 4
    for k in range(4):
        alone_correction = np.zeros((9, 9), dtype=complex)
        gap = None if gaps is None else gaps[k]
        alone, alone_sweeps = _dykstra(x[k], (3, 3), alone_correction, gap)
        assert alone_sweeps == sweeps[k]
        if gap is None:
            assert is_psd(out[k])[0]
            assert is_psd(partial_transpose(out[k], (3, 3), "second"))[0]
        # Bit for bit: each row's projection and final correction are its own.
        assert np.array_equal(out[k], alone)
        assert np.array_equal(correction[k], alone_correction)


def test_dykstra_stack_matches_each_slice_alone():
    x = _stack_to_project()
    _assert_stack_matches_each_slice_alone(x, None)
    # Mixed exit gaps: each slice alone at its own gap.
    _assert_stack_matches_each_slice_alone(x, [1e-9, 1e-4, 1e-5, 1e-6])


def test_dykstra_loose_gap_keeps_its_certificate():
    # A loose exit keeps PT(x_pt) PSD exactly and lambda_min(x_pt) >= -r.
    x = _stack_to_project()
    gap = 1e-4
    exact_out, exact_sweeps = _dykstra(x, (3, 3))
    out, sweeps = _dykstra(x, (3, 3), gap=gap)
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
    _, sweeps = _dykstra(x, (3, 3))
    cap = int(sweeps.max()) - 1
    monkeypatch.setattr(states, "_DYKSTRA_ITERATIONS", cap)
    with caplog.at_level(logging.WARNING, logger="entanglecone.states"):
        out, capped_sweeps = _dykstra(x, (3, 3))
    assert any(
        f"cap of {cap} iterations in 1 of 4 matrices" in rec.message
        for rec in caplog.records
    )
    assert capped_sweeps.tolist() == np.minimum(sweeps, cap).tolist()
    for k in range(4):
        alone, _ = _dykstra(x[k], (3, 3))
        assert np.array_equal(out[k], alone)


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


def _per_restart_search(witness, budget, seed):
    """Reference: each restart of search_ppt_entangled run on its own.

    Returns (violation, restart, h, converged, steps, resets) per
    restart, h before the winner's feasibility polish and resets the
    number of times progress cleared a nonzero plateau count. Each
    candidate is projected to the gap its step allows, and the violation
    is that of the loosely projected state; h is the exact projection of
    the candidate that state came from, the search's finish.
    """
    n = witness.dim_in
    dims = (n, n)
    adjoint = map_adjoint(witness)

    def violation(h):
        low, vec = min_eigenpair(hermitian_part(apply_to_second(h, dims, witness)))
        return -low, vec

    def fresh_start(stream):
        mixed = random_product_mixture(stream, n, n, states._INIT_PRODUCT_TERMS)
        h = (1.0 - states._INIT_INTERIOR_WEIGHT) * mixed
        h += states._INIT_INTERIOR_WEIGHT * np.eye(n * n) / (n * n)
        h, _ = _dykstra(h, dims)
        return h / np.real(np.trace(h))

    runs = []
    for r in range(budget.restarts):
        stream = derive_stream(seed, r)
        h = fresh_start(stream)
        correction = np.zeros((n * n, n * n), dtype=complex)
        viol, vec = violation(h)
        best, plateau, converged, steps, resets = viol, 0, False, 0, 0
        last_move, source = np.inf, None
        for _ in range(budget.iterations):
            steps += 1
            grad = -hermitian_part(
                apply_to_second(np.outer(vec, vec.conj()), dims, adjoint)
            )
            step = states._ASCENT_STEP
            for _ in range(states._MAX_HALVINGS):
                x = h + step * grad
                delta = min(last_move, step * states._frob_each(grad))
                gap = max(states._DYKSTRA_GAP, states._ASCENT_GAP_RATIO * delta)
                cand, _ = _dykstra(x, dims, correction, gap)
                trace = np.real(np.trace(cand))
                collapsed = trace < 1e-12
                if collapsed:
                    cand, trace = fresh_start(stream), 1.0
                cand = cand / trace
                cand_viol, cand_vec = violation(cand)
                if cand_viol > viol:
                    last_move = states._frob_each(cand - h)
                    h, viol, vec = cand, cand_viol, cand_vec
                    loose = gap > states._DYKSTRA_GAP and not collapsed
                    source = x if loose else None
                    break
                step /= 2.0
            else:
                converged = True
                break
            scale = max(abs(viol), states._PLATEAU_SCALE_FLOOR)
            if viol - best < states._PLATEAU_RELATIVE * scale:
                plateau += 1
                if plateau >= states._PLATEAU_EXIT:
                    converged = True
                    break
            else:
                resets += plateau > 0
                plateau = 0
            best = max(best, viol)
        if source is not None:
            h, _ = _dykstra(source, dims, correction)
            h = h / np.real(np.trace(h))
        runs.append((viol, r, h, converged, steps, resets))
    return runs


def _assert_lockstep_matches(monkeypatch, witness, budget, runs):
    """search_ppt_entangled returns the winner of the per-restart runs."""
    _, restart, h, converged, _, _ = min(runs, key=lambda run: (-run[0], run[1]))
    polished = []
    polish = states._polish_feasibility

    def recording(h, dims):
        polished.append(h)
        return polish(h, dims)

    monkeypatch.setattr(states, "_polish_feasibility", recording)
    result = search_ppt_entangled(witness, budget, seed=0)
    (winner_h,) = polished
    distances = [np.linalg.norm(winner_h - run[2]) for run in runs]
    assert int(np.argmin(distances)) == restart
    assert distances[restart] <= 1e-12
    assert result.converged == converged
    assert result.iterations == sum(run[4] for run in runs)
    moved = hermitian_part(apply_to_second(polish(h, (3, 3)), (3, 3), witness))
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
    # Restart 3 makes progress after eight flat steps and clears its
    # plateau count. Had it kept the count, it would have stopped at
    # step 51 instead of 59.
    monkeypatch.setattr(states, "_PLATEAU_EXIT", 10)
    monkeypatch.setattr(states, "_PLATEAU_RELATIVE", 2e-2)
    witness = builtin_choi_map()
    budget = Budget(restarts=4, iterations=60)
    runs = _per_restart_search(witness, budget, seed=0)
    assert [run[5] for run in runs] == [0, 0, 0, 1]
    assert runs[3][4] == 59
    _assert_lockstep_matches(monkeypatch, witness, budget, runs)


def test_collapsed_candidate_redraws_from_its_own_stream(monkeypatch):
    dykstra = states._dykstra
    fresh = []
    planted = []

    def collapsing(x, dims, correction=None, gap=None):
        if correction is None:
            # The fresh starts are the only projections without a correction.
            fresh.append(x.copy())
        out, sweeps = dykstra(x, dims, correction, gap)
        if correction is not None and not planted:
            # The first ascent projection holds every restart in order.
            out[1] = 0.0
            planted.append(True)
        return out, sweeps

    monkeypatch.setattr(states, "_dykstra", collapsing)
    result = search_ppt_entangled(
        builtin_choi_map(), Budget(restarts=3, iterations=2), seed=4
    )

    def start(stream):
        mixed = random_product_mixture(stream, 3, 3, states._INIT_PRODUCT_TERMS)
        h = (1.0 - states._INIT_INTERIOR_WEIGHT) * mixed
        h += states._INIT_INTERIOR_WEIGHT * np.eye(9) / 9
        return h

    streams = [derive_stream(4, r) for r in range(3)]
    assert planted and len(fresh) == 2
    assert np.array_equal(fresh[0], np.stack([start(s) for s in streams]))
    # Restart 1 collapsed: its new start is the second draw of its stream.
    assert np.array_equal(fresh[1], start(streams[1])[np.newaxis])
    assert result.iterations == 6


def test_search_projects_the_winner_exactly_once(monkeypatch):
    # The ascent projects loosely; the polished state is the exact
    # projection of the winner's stored candidate, normalised.
    dykstra = states._dykstra
    calls = []
    polished = []
    polish = states._polish_feasibility

    def recording(x, dims, correction=None, gap=None):
        start = None if correction is None else correction.copy()
        calls.append((x.copy(), start, gap))
        return dykstra(x, dims, correction, gap)

    def recording_polish(h, dims):
        polished.append(h)
        return polish(h, dims)

    monkeypatch.setattr(states, "_dykstra", recording)
    monkeypatch.setattr(states, "_polish_feasibility", recording_polish)
    search_ppt_entangled(builtin_choi_map(), Budget(restarts=2, iterations=3), seed=1)
    *ascent, (source, start, gap) = calls
    assert gap is None and source.shape == (9, 9)
    # The candidate was projected loosely in the ascent.
    assert any(
        (np.asarray(g) > states._DYKSTRA_GAP)[(x == source).all(axis=(1, 2))].any()
        for x, _, g in ascent
        if g is not None
    )
    exact, _ = dykstra(source, (3, 3), start.copy())
    (winner,) = polished
    assert np.array_equal(winner, exact / np.real(np.trace(exact)))


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


def test_search_logs_one_debug_summary(caplog):
    budget = Budget(restarts=2, iterations=3)
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
    # One call for the starts, then at least one per lockstep ascent step,
    # and one for the finish when the winner was projected loosely.
    assert calls >= 1 + -(-steps // restarts) + (finish > 0)
    assert sweeps >= calls - (finish > 0)
    # Four phases: start, ascent, finish and polish.
    assert len(summary.args[7:]) == 4
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


def test_search_deterministic_across_runs_and_threads(monkeypatch):
    budget = Budget(restarts=3, iterations=30)
    first = search_ppt_entangled(builtin_choi_map(), budget=budget, seed=5)
    second = search_ppt_entangled(builtin_choi_map(), budget=budget, seed=5)
    assert first.violation == second.violation
    assert np.array_equal(first.state.density, second.state.density)
    monkeypatch.setenv("ENTANGLECONE_THREADS", "4")
    third = search_ppt_entangled(builtin_choi_map(), budget=budget, seed=5)
    assert first.violation == third.violation
    assert np.array_equal(first.state.density, third.state.density)


def test_search_seed_changes_outcome_details():
    budget = Budget(restarts=1, iterations=15)
    a = search_ppt_entangled(builtin_choi_map(), budget=budget, seed=1)
    b = search_ppt_entangled(builtin_choi_map(), budget=budget, seed=2)
    assert not np.array_equal(a.state.density, b.state.density)


def test_search_checks_only_the_polished_winner(monkeypatch):
    # The ascent's violations come from the bare solver; the checked one
    # runs once, on the polished winner whose violation is reported.
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
