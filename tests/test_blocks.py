import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entanglecone import blocks
from entanglecone.blocks import (
    NotAbelian,
    SeparableEnsemble,
    abelian_range_decompose,
    conditional_expectation_verdict,
    decompose_separable,
    hermitian_basis,
    is_definite_element,
    split_by_projection,
)
from entanglecone.duality import (
    BipartiteState,
    HolevoForm,
    MatrixMap,
    apply_map,
    choi_from_action,
    holevo_to_map,
    identity_map,
    transpose_map,
)
from entanglecone.errors import DimensionError, DomainError, NumericalError
from entanglecone.linalg import DEFAULT_TOL, Tolerances, frob
from reference import (
    derive_stream,
    first_noncommuting_pair,
    is_idempotent_per_basis,
    random_density,
    random_hermitian,
    random_unitary,
    split_by_projection_per_basis,
)

_E11_2 = np.diag([1.0, 0.0]).astype(complex)
_E22_2 = np.diag([0.0, 1.0]).astype(complex)


def _diag_expectation(n):
    return choi_from_action(n, n, lambda x: np.diag(np.diag(x)))


def _two_block_ensemble():
    return SeparableEnsemble(((0.5, _E11_2, _E11_2), (0.5, _E22_2, _E22_2)))


def test_ensemble_validation():
    with pytest.raises(DomainError):
        SeparableEnsemble(((0.5, _E11_2, _E11_2),))  # weights must sum to one
    with pytest.raises(DomainError):
        SeparableEnsemble(((1.0, 2.0 * _E11_2, _E11_2),))  # trace one required
    for weight in (np.nan, np.inf):
        with pytest.raises(DomainError, match="weights must be finite"):
            SeparableEnsemble(((weight, _E11_2, _E11_2), (0.5, _E22_2, _E22_2)))
    with pytest.raises(DimensionError, match="nonempty"):
        SeparableEnsemble(((1.0, np.zeros((0, 0)), _E11_2),))
    ens = _two_block_ensemble()
    assert ens.dims == (2, 2)
    s = ens.to_state()
    assert abs(np.trace(s.density).real - 1.0) < 1e-12
    assert frob(s.density - np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)) < 1e-12


_PSD_FAULT = np.diag([1.5, -0.5]).astype(complex)  # trace one, not PSD
_TRACE_FAULT = np.eye(2, dtype=complex)  # PSD, trace two


@pytest.mark.parametrize(
    "faulty, message",
    [
        ({2: (_PSD_FAULT, _E11_2)}, "factor a is not PSD"),
        ({2: (_TRACE_FAULT, _E11_2)}, "factor a must have trace one"),
        ({2: (_E11_2, _PSD_FAULT)}, "factor b is not PSD"),
        ({2: (_E11_2, _TRACE_FAULT)}, "factor b must have trace one"),
        # Of two faulty terms the first reports, whatever its side.
        ({1: (_E11_2, _PSD_FAULT), 2: (_TRACE_FAULT, _E11_2)}, "factor b is not PSD"),
    ],
)
def test_ensemble_reports_the_first_failing_term(faulty, message):
    terms = tuple((0.25, *faulty.get(i, (_E11_2, _E22_2))) for i in range(4))
    with pytest.raises(DomainError, match=message):
        SeparableEnsemble(terms)


def test_ensemble_size_caps():
    e11 = np.zeros((16, 16), dtype=complex)
    e11[0, 0] = 1.0
    # 16 terms on 16 x 16 fill the entry budget exactly; one more is over.
    at_cap = ((1.0 / 16, e11, e11),) * 16
    assert len(at_cap) * 256**2 == blocks.MAX_ENSEMBLE_ENTRIES
    assert SeparableEnsemble(at_cap).dims == (16, 16)
    with pytest.raises(DimensionError, match="exceeds the caps"):
        SeparableEnsemble(((1.0 / 17, e11, e11),) * 17)
    wide = np.zeros((17, 17), dtype=complex)
    wide[0, 0] = 1.0
    with pytest.raises(DimensionError, match="exceeds the caps"):
        SeparableEnsemble(((1.0, e11, wide),))


def test_ensemble_to_holevo_matches_state():
    stream = derive_stream(501, 0)
    terms = tuple(
        (w, random_density(stream, 2), random_density(stream, 3))
        for w in (0.25, 0.75)
    )
    ens = SeparableEnsemble(terms)
    f = holevo_to_map(ens.to_holevo())
    from entanglecone.duality import state_from_map

    assert frob(state_from_map(f).density - ens.to_state().density) < 1e-12


def test_definite_identity_element():
    f = _diag_expectation(2)
    assert is_definite_element(f, np.eye(2, dtype=complex))


def test_definite_offdiagonal_counterexample():
    # E(a^2) = I but E(a)^2 = 0 for the off-diagonal involution.
    f = _diag_expectation(2)
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert not is_definite_element(f, a)


def test_definite_projection_member():
    f = _diag_expectation(2)
    assert is_definite_element(f, _E11_2)


def test_definite_rejects_non_hermitian():
    f = _diag_expectation(2)
    with pytest.raises(DomainError):
        is_definite_element(f, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_split_diag_expectation():
    f = _diag_expectation(2)
    assert split_by_projection(f, _E11_2)


def test_split_identity_map_negative_control():
    # exe + fxf drops the off-diagonal corners, so the identity map does
    # not split along e11 even though e11 is in its definite set.
    assert not split_by_projection(identity_map(2), _E11_2)


def test_split_holevo_orthogonal_groups():
    # Unweighted projector terms: f(e11) = e11 is idempotent, so e11 is
    # definite and the split succeeds. Folding ensemble weights into the
    # terms would scale that down to w*e11 and break definiteness.
    f = holevo_to_map(HolevoForm(((_E11_2, _E11_2), (_E22_2, _E22_2))))
    assert split_by_projection(f, _E11_2)


def _diag_to_identity(t):
    """(1 - t) diag + t id on M2: e11 stays in the definite set, and the
    off-diagonal corners of size t break the first splitting identity."""
    return choi_from_action(2, 2, lambda x: (1.0 - t) * np.diag(np.diag(x)) + t * x)


def _split_cases():
    """(map, projection in its definite set) pairs, splitting or not."""
    yield _diag_expectation(2), _E11_2
    yield identity_map(2), _E11_2
    yield holevo_to_map(HolevoForm(((_E11_2, _E11_2), (_E22_2, _E22_2)))), _E11_2
    for t in (1e-12, 1e-9, 1e-6, 0.5):
        yield _diag_to_identity(t), _E11_2
    for n, sizes in ((3, [1, 2]), (4, [2, 1, 1]), (4, [1, 1, 1, 1])):
        u = random_unitary(derive_stream(511, n), n)
        f = _block_expectation(u, sizes)
        # The range projections split the map; the first block's alone, and
        # the first two blocks' together.
        for k in (sizes[0], sizes[0] + sizes[1]):
            e = u[:, :k] @ u[:, :k].conj().T
            yield f, e
            h = random_hermitian(derive_stream(511, 10 * n + k), n * n)
            yield MatrixMap(n, n, f.choi + 1e-11 * h / frob(h)), e


def test_split_identities_on_the_choi_matrix_match_the_basis_loop():
    # One check per identity on the Choi matrices gives the verdict of
    # the reference's loop over the Hermitian basis, in both directions.
    verdicts = []
    for f, e in _split_cases():
        verdicts.append(split_by_projection(f, e))
        assert verdicts[-1] == split_by_projection_per_basis(f, e)
    assert True in verdicts and False in verdicts


def _rejected_as_not_idempotent(f):
    try:
        conditional_expectation_verdict(f)
    except (DomainError, NumericalError) as err:
        return "not idempotent" in str(err)
    return False


def test_idempotence_on_the_choi_matrix_matches_the_basis_loop():
    maps = [identity_map(2), transpose_map(2), _diag_expectation(3)]
    maps += [_diag_to_identity(t) for t in (1e-12, 1e-6, 0.5)]
    for n, sizes in ((3, [1, 2]), (4, [2, 2])):
        u = random_unitary(derive_stream(512, n), n)
        f = _block_expectation(u, sizes)
        h = random_hermitian(derive_stream(512, 10 + n), n * n)
        maps += [f, MatrixMap(n, n, f.choi + 1e-11 * h / frob(h))]
    rejected = [_rejected_as_not_idempotent(f) for f in maps]
    assert rejected == [not is_idempotent_per_basis(f) for f in maps]
    assert True in rejected and False in rejected


def test_split_precondition_failures():
    f = _diag_expectation(2)
    not_projection = 0.5 * np.eye(2, dtype=complex)
    with pytest.raises(DomainError):
        split_by_projection(f, not_projection)
    tilted = np.full((2, 2), 0.5, dtype=complex)  # projection, but not definite
    with pytest.raises(DomainError):
        split_by_projection(f, tilted)


def test_decompose_two_blocks():
    result = decompose_separable(_two_block_ensemble())
    assert len(result.components) == 2
    es = [c.e for c in result.components]
    assert frob(es[0] - _E11_2) < 1e-12
    assert frob(es[1] - _E22_2) < 1e-12
    assert result.max_cross_overlap <= 1e-9
    weights = [c.weight for c in result.components]
    assert abs(sum(weights) - 1.0) < 1e-12


def test_decompose_single_term():
    stream = derive_stream(502, 0)
    a = random_density(stream, 3)
    b = random_density(stream, 2)
    result = decompose_separable(SeparableEnsemble(((1.0, a, b),)))
    assert len(result.components) == 1
    comp = result.components[0]
    assert frob(comp.e @ a - a) < 1e-8
    assert frob(comp.f @ b - b) < 1e-8


def test_decompose_chain_links_into_one():
    e11_3 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    e22_3 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    e33_3 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    mixed = np.diag([0.5, 0.5, 0.0]).astype(complex)
    third = 1.0 / 3.0
    ens = SeparableEnsemble(
        (
            (third, np.diag([1.0, 0.0]).astype(complex), e11_3),
            (third, mixed[:2, :2], e22_3),
            (third, np.diag([0.0, 1.0]).astype(complex), e33_3),
        )
    )
    result = decompose_separable(ens)
    assert len(result.components) == 1


def test_decompose_reconstruction_and_support():
    stream = derive_stream(503, 0)
    # Three blocks on M6 (x) M6 with disjoint 2x2 supports on both sides.
    terms = []
    weights = (0.2, 0.5, 0.3)
    for k, w in enumerate(weights):
        basis = np.zeros((6, 2), dtype=complex)
        basis[2 * k, 0] = 1.0
        basis[2 * k + 1, 1] = 1.0
        a_small = random_density(stream, 2)
        b_small = random_density(stream, 2)
        terms.append((w, basis @ a_small @ basis.conj().T, basis @ b_small @ basis.conj().T))
    ens = SeparableEnsemble(tuple(terms))
    result = decompose_separable(ens)
    assert len(result.components) == 3
    total = sum(c.weight * c.state.density for c in result.components)
    assert frob(total - ens.to_state().density) < 1e-9
    for comp in result.components:
        for idx in comp.indices:
            _, a, b = ens.terms[idx]
            assert frob(comp.e @ a - a) < 1e-8
            assert frob(comp.f @ b - b) < 1e-8


def test_decompose_invariant_under_permutation():
    stream = derive_stream(504, 0)
    terms = []
    for k, w in enumerate((0.4, 0.6)):
        basis = np.zeros((4, 2), dtype=complex)
        basis[2 * k, 0] = 1.0
        basis[2 * k + 1, 1] = 1.0
        a_small = random_density(stream, 2)
        b_small = random_density(stream, 2)
        terms.append(
            (w, basis @ a_small @ basis.conj().T, basis @ b_small @ basis.conj().T)
        )
    forward = decompose_separable(SeparableEnsemble(tuple(terms)))
    backward = decompose_separable(SeparableEnsemble(tuple(reversed(terms))))
    assert len(forward.components) == len(backward.components) == 2
    es_f = sorted(np.trace(c.e).real for c in forward.components)
    es_b = sorted(np.trace(c.e).real for c in backward.components)
    assert es_f == es_b


def test_decompose_invariant_under_a_side_unitary():
    stream = derive_stream(505, 0)
    terms = []
    for k, w in enumerate((0.4, 0.6)):
        basis = np.zeros((4, 2), dtype=complex)
        basis[2 * k, 0] = 1.0
        basis[2 * k + 1, 1] = 1.0
        a_small = random_density(stream, 2)
        b_small = random_density(stream, 2)
        terms.append(
            (w, basis @ a_small @ basis.conj().T, basis @ b_small @ basis.conj().T)
        )
    u = random_unitary(derive_stream(505, 1), 4)
    rotated = tuple((w, u @ a @ u.conj().T, b) for w, a, b in terms)
    plain = decompose_separable(SeparableEnsemble(tuple(terms)))
    turned = decompose_separable(SeparableEnsemble(rotated))
    assert len(plain.components) == len(turned.components)


def test_decompose_proof_identity_holds():
    # Across distinct blocks: omega_i(e_C) omega_j(1 - e_C) Tr(b_i b_j) = 0.
    ens = _two_block_ensemble()
    result = decompose_separable(ens)
    for comp in result.components:
        e = comp.e
        complement = np.eye(2, dtype=complex) - e
        for wi, ai, bi in ens.terms:
            for wj, aj, bj in ens.terms:
                value = (
                    np.trace(ai @ e).real
                    * np.trace(aj @ complement).real
                    * abs(np.trace(bi @ bj))
                )
                assert value <= 1e-9


def _diag_units(n):
    return [np.diag(row).astype(complex) for row in np.eye(n)]


def test_decompose_raises_when_a_component_support_misses_a_term():
    # The last term puts 1.5e-8 on e3: above its own support cut (1e-9),
    # below its component's, whose twenty copies of e2 raise the cut to
    # about 2.1e-8, so e3 falls outside the component's support.
    e1, e2, e3 = _diag_units(3)
    f1, f2 = _diag_units(2)
    tilted = (1.0 - 1.5e-8) * e2 + 1.5e-8 * e3
    rest = 0.5 / 21
    terms = ((0.5, e1, f1),) + ((rest, e2, f2),) * 20 + ((rest, tilted, f2),)
    with pytest.raises(NumericalError, match="does not contain one of its terms"):
        decompose_separable(SeparableEnsemble(terms))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    terms=st.lists(st.integers(1, 4), min_size=3, max_size=3),
)
def test_decompose_components_sum_to_the_state(seed, sizes, terms):
    # Planted blocks: block r holds terms[r] products supported on the
    # r-th group of columns of a random unitary, one unitary a side. The
    # weighted components regroup the ensemble's products, so they sum to
    # its density within 1e-9 max(1, ||rho||). Over the 40 examples the
    # largest relative error is 1.1e-16.
    stream = derive_stream(seed, 0)
    d = sum(sizes)
    u, v = random_unitary(stream, d), random_unitary(stream, d)
    bounds = np.cumsum([0, *sizes])
    planted = []
    for lo, hi, count in zip(bounds, bounds[1:], terms):
        for _ in range(count):
            a = random_density(stream, hi - lo)
            b = random_density(stream, hi - lo)
            w = 0.1 + stream.next_float()
            planted.append(
                (w, u[:, lo:hi] @ a @ u[:, lo:hi].conj().T,
                 v[:, lo:hi] @ b @ v[:, lo:hi].conj().T)
            )
    total = sum(w for w, _, _ in planted)
    ens = SeparableEnsemble(tuple((w / total, a, b) for w, a, b in planted))
    result = decompose_separable(ens)
    assert len(result.components) == len(sizes)
    rho = ens.density_matrix()
    summed = sum(c.weight * c.state.density for c in result.components)
    assert frob(summed - rho) <= 1e-9 * max(1.0, frob(rho))


def _components_by_union_find(subsets):
    """Reference labelling: terms meet when their subsets intersect; each
    component lists its terms in index order, components by first term."""
    parent = list(range(len(subsets)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(subsets)), 2):
        if subsets[i] & subsets[j]:
            ri, rj = sorted((find(i), find(j)))
            parent[rj] = ri
    groups = {}
    for i in range(len(subsets)):
        groups.setdefault(find(i), []).append(i)
    return [tuple(g) for _, g in sorted(groups.items())]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=2), min_size=1, max_size=8))
def test_decompose_components_match_union_find(subsets):
    # Term i's a factor is uniform on the basis vectors in subsets[i] and
    # its b factor is e_ii, so two terms overlap exactly when their
    # subsets intersect; chains of any length must link into one block.
    k = len(subsets)
    terms = []
    for i, subset in enumerate(subsets):
        a = np.zeros((6, 6), dtype=complex)
        a[sorted(subset), sorted(subset)] = 1.0 / len(subset)
        b = np.zeros((k, k), dtype=complex)
        b[i, i] = 1.0
        terms.append((1.0 / k, a, b))
    result = decompose_separable(SeparableEnsemble(tuple(terms)))
    assert [c.indices for c in result.components] == _components_by_union_find(subsets)


def test_decompose_raises_when_overlapping_terms_are_split(monkeypatch):
    # No trace of a product of rank-one projections exceeds 1, so no two
    # terms join. The last two share their b factor across the boundary
    # that now splits them, while each a lies inside or outside each e.
    monkeypatch.setattr(blocks, "_OVERLAP_THRESHOLD", 2.0)
    e1, e2, e3 = _diag_units(3)
    f1, f2 = _diag_units(2)
    terms = ((0.5, e1, f1), (0.25, e2, f2), (0.25, e3, f2))
    with pytest.raises(NumericalError, match="splitting identity violated"):
        decompose_separable(SeparableEnsemble(terms))


def _two_blocks_of(per_block):
    stream = derive_stream(508, 0)
    terms = []
    for k in range(2):
        basis = np.zeros((4, 2), dtype=complex)
        basis[2 * k, 0] = basis[2 * k + 1, 1] = 1.0
        for _ in range(per_block):
            a = basis @ random_density(stream, 2) @ basis.T
            b = basis @ random_density(stream, 2) @ basis.T
            terms.append((1.0 / (2 * per_block), a, b))
    return tuple(terms)


def test_decompose_eigh_calls_do_not_grow_with_terms(eigh_inputs):
    counts = []
    for per_block in (3, 12):  # 6 and 24 terms in the same two blocks
        terms = _two_blocks_of(per_block)
        del eigh_inputs[:]
        result = decompose_separable(SeparableEnsemble(terms))
        assert [c.indices for c in result.components] == [
            tuple(range(per_block)),
            tuple(range(per_block, 2 * per_block)),
        ]
        counts.append(len(eigh_inputs))
    assert counts[0] == counts[1]


def test_block_projections_definite_for_projector_ensembles():
    # With unweighted projection terms the map sends e_C to a projection,
    # so e_C lands in the definite set. (Not true once weights fold in.)
    f = holevo_to_map(HolevoForm(((_E11_2, _E11_2), (_E22_2, _E22_2))))
    result = decompose_separable(_two_block_ensemble())
    for comp in result.components:
        assert is_definite_element(f, comp.e)


def test_hermitian_basis_orthonormal():
    for n in (2, 3):
        basis = hermitian_basis(n)
        assert len(basis) == n * n
        for i, x in enumerate(basis):
            assert frob(x - x.conj().T) < 1e-15
            for j, y in enumerate(basis):
                inner = np.trace(x @ y).real
                expect = 1.0 if i == j else 0.0
                assert abs(inner - expect) < 1e-12


def test_abelian_decompose_diag_expectation():
    form = abelian_range_decompose(_diag_expectation(2))
    assert isinstance(form, HolevoForm)
    f = _diag_expectation(2)
    stream = derive_stream(506, 0)
    for _ in range(5):
        x = random_hermitian(stream, 2)
        rebuilt = sum(np.trace(w @ x) * p for w, p in form.terms)
        assert frob(rebuilt - apply_map(f, x)) < 1e-9


@pytest.mark.parametrize("scale", [1.0 + 1e-6, 0.5])
def test_spectral_resolution_fault_raises(monkeypatch, scale):
    # A scaled adjoint scales every omega_r, so the certificate rebuilds
    # scale * phi: the Choi check must reject it, through either caller.
    real = blocks.map_adjoint
    monkeypatch.setattr(
        blocks,
        "map_adjoint",
        lambda f: MatrixMap(f.dim_out, f.dim_in, scale * real(f).choi),
    )
    for decide in (abelian_range_decompose, conditional_expectation_verdict):
        with pytest.raises(NumericalError, match="does not reproduce the map"):
            decide(_diag_expectation(3))


def test_abelian_decompose_identity_is_not_abelian():
    result = abelian_range_decompose(identity_map(2))
    assert isinstance(result, NotAbelian)
    assert result.commutator_norm > 0.1
    assert len(result.pair) == 2


def test_abelian_decompose_coarse_block_range():
    # Expectation onto span{e11, 1 - e11} in M3.
    e11 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rest = np.eye(3, dtype=complex) - e11

    def action(x):
        return x[0, 0] * e11 + (np.trace(rest @ x) / 2.0) * rest

    f = choi_from_action(3, 3, action)
    form = abelian_range_decompose(f)
    assert isinstance(form, HolevoForm)
    assert len(form.terms) == 2
    projections = sorted(np.trace(p).real for _, p in form.terms)
    assert abs(projections[0] - 1.0) < 1e-9
    assert abs(projections[1] - 2.0) < 1e-9


def _reconstruction_error(f, form):
    """Largest relative error of phi(h) = sum_r Tr(omega_r h) p_r over the
    Hermitian basis; both sides are linear in h."""
    worst = 0.0
    for h in hermitian_basis(f.dim_in):
        fh = apply_map(f, h)
        rebuilt = sum(np.trace(w @ h).real * p for w, p in form.terms)
        worst = max(worst, frob(rebuilt - fh) / max(1.0, frob(fh)))
    return worst


def test_abelian_decompose_refines_with_each_image():
    # The range holds g1 = u diag(1, 1, 0) u* and g2 = u diag(0, 1, 1) u*,
    # the images of e11 and e22. Neither separates u's three columns
    # alone: g1 leaves a rank-two block that only g2 splits.
    u = random_unitary(derive_stream(509, 0), 3)
    g1, g2 = (u @ np.diag(d) @ u.conj().T for d in ([1.0, 1.0, 0.0], [0.0, 1.0, 1.0]))
    f = choi_from_action(3, 3, lambda x: x[0, 0] * g1 + x[1, 1] * g2)
    form = abelian_range_decompose(f)
    assert isinstance(form, HolevoForm)
    assert [round(np.trace(p).real) for _, p in form.terms] == [1, 1, 1]
    total = sum(p for _, p in form.terms)
    assert frob(total - np.eye(3)) < 1e-10
    for g in (g1, g2):
        for _, p in form.terms:
            assert frob(g @ p - p @ g) < 1e-10
    assert _reconstruction_error(f, form) < 1e-9


def _block_expectation(u, sizes):
    """x -> sum_r Tr(p_r x) / rank_r p_r for the projections p_r onto
    consecutive blocks of u's columns, of the given sizes."""
    bounds = np.cumsum([0, *sizes])
    projections = [
        u[:, lo:hi] @ u[:, lo:hi].conj().T for lo, hi in zip(bounds, bounds[1:])
    ]
    n = u.shape[0]
    return choi_from_action(
        n, n, lambda x: sum(np.trace(p @ x) / np.trace(p).real * p for p in projections)
    )


def _scan_cases(n):
    """Maps on M_n for the commutator scan: abelian ones, and Schur
    multipliers keeping the diagonal and one off-diagonal pair (i, j),
    whose first noncommuting pair moves with (i, j)."""
    stream = derive_stream(510, n)
    u = random_unitary(stream, n)
    yield _block_expectation(u, [1] * n)
    yield _block_expectation(u, [1, n - 1])
    yield identity_map(n)
    yield transpose_map(n)
    for i, j in itertools.combinations(range(n), 2):
        mask = np.eye(n)
        mask[i, j] = mask[j, i] = 1.0
        yield choi_from_action(n, n, lambda x, mask=mask: mask * x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_commutator_scan_matches_the_pairwise_loop(n):
    for f in _scan_cases(n):
        want = first_noncommuting_pair(f)
        got = abelian_range_decompose(f)
        if want is None:
            assert isinstance(got, HolevoForm)
            continue
        assert isinstance(got, NotAbelian)
        assert got.pair == want[0]
        # The row's norms are summed in another order than frob's.
        assert abs(got.commutator_norm - want[1]) <= 1e-14 * want[1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.sets(st.integers(1, 4)),
    perturb=st.booleans(),
)
@example(n=4, seed=0, cuts=set(), perturb=True)
def test_conditional_expectations_onto_abelian_ranges(n, seed, cuts, perturb):
    # A random partition of n, from the cut points below n, planted in a
    # random unitary's columns; the perturbation is 1e-11 in Frobenius.
    # With no cuts the range is the scalars, and the perturbed images
    # stay one block: within 1e-8 of a scalar, they split nothing.
    bounds = [0, *sorted(c for c in cuts if c < n), n]
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    stream = derive_stream(seed, n)
    f = _block_expectation(random_unitary(stream, n), sizes)
    if perturb:
        h = random_hermitian(stream, n * n)
        f = MatrixMap(n, n, f.choi + 1e-11 * h / frob(h))
    report = conditional_expectation_verdict(f)
    assert report.verdict == "separable"
    ranks = sorted(round(np.trace(p).real) for _, p in report.certificate.terms)
    assert ranks == sorted(sizes)
    assert _reconstruction_error(f, report.certificate) < 1e-9
    assert isinstance(abelian_range_decompose(identity_map(n)), NotAbelian)


def test_conditional_expectation_separable_with_certificate():
    report = conditional_expectation_verdict(_diag_expectation(2))
    assert report.verdict == "separable"
    assert report.certificate is not None
    f = _diag_expectation(2)
    stream = derive_stream(507, 0)
    for _ in range(5):
        x = random_hermitian(stream, 2)
        rebuilt = sum(np.trace(w @ x) * p for w, p in report.certificate.terms)
        assert frob(rebuilt - apply_map(f, x)) < 1e-9


def test_conditional_expectation_identity_entangled():
    report = conditional_expectation_verdict(identity_map(2))
    assert report.verdict == "entangled"
    assert report.commutator is not None
    # The dual state is unnormalized P; its partial transpose dips to -1.
    assert report.state_report is not None
    assert abs(report.state_report.ppt_min_eigenvalue + 1.0) < 1e-9
    assert report.state_report.entanglement == "certified-entangled"


def test_conditional_expectation_diagonalises_the_density_once(eigh_inputs):
    # At the default slack as the state is built; the battery's density
    # check at tol reads the least eigenvalue that spectrum gave.
    # The density of the identity's state is the real symmetric P.
    f = identity_map(2)
    density = f.choi.T
    for tol in (DEFAULT_TOL, Tolerances(psd_slack=1e-10)):
        conditional_expectation_verdict(f, tol)
        eigh_inputs.clear()
        report = conditional_expectation_verdict(f, tol)
        assert report.verdict == "entangled"
        matrices = [a for stack in eigh_inputs for a in stack.reshape((-1,) + stack.shape[-2:])]
        assert sum(np.array_equal(a, density) for a in matrices) == 1


def test_conditional_expectation_m3_block_range_separable():
    e11 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rest = np.eye(3, dtype=complex) - e11

    def action(x):
        return x[0, 0] * e11 + (np.trace(rest @ x) / 2.0) * rest

    report = conditional_expectation_verdict(choi_from_action(3, 3, action))
    assert report.verdict == "separable"


def test_conditional_expectation_rejects_non_idempotent():
    with pytest.raises(DomainError):
        conditional_expectation_verdict(transpose_map(2))


def test_conditional_expectation_rejects_non_unital():
    def action(x):
        return x[0, 0] * _E11_2

    f = choi_from_action(2, 2, action)
    with pytest.raises(DomainError):
        conditional_expectation_verdict(f)
