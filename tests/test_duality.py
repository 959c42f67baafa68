import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entanglecone.classify import Budget, classify_map
from entanglecone.duality import (
    BipartiteState,
    HolevoForm,
    MatrixMap,
    apply_map,
    apply_to_second,
    choi_from_action,
    compose,
    holevo_to_map,
    identity_map,
    kraus_to_map,
    map_adjoint,
    map_from_state,
    maximally_entangled_matrix,
    pairing_value,
    state_from_map,
    transpose_map,
)
from entanglecone.errors import DimensionError, DomainError
from entanglecone.linalg import (
    DEFAULT_TOL,
    Tolerances,
    e_matrix,
    frob,
    is_psd,
    kron,
    partial_trace,
    partial_transpose,
    psd_verdicts,
)
from reference import (
    derive_stream,
    gaussian_complex_matrix,
    random_density,
    random_hermitian,
)


def _apply_via_trace_formula(f, x):
    # Literal route phi(x) = Tr_first((x^T (x) I) C), kept independent of
    # the einsum contraction inside apply_map.
    lifted = kron(x.T, np.eye(f.dim_out)) @ f.choi
    return partial_trace(lifted, (f.dim_in, f.dim_out), "first")


def _kraus_choi_via_projector(ops, n):
    # C = sum_k (I (x) V_k) P (I (x) V_k)^* with P the unnormalized
    # maximally entangled projector.
    p = maximally_entangled_matrix(n)
    total = np.zeros((n * ops[0].shape[0], n * ops[0].shape[0]), dtype=complex)
    for v in ops:
        lift = kron(np.eye(n), v)
        total += lift @ p @ lift.conj().T
    return total


def _random_kraus_map(stream, n, m, count=2):
    ops = [gaussian_complex_matrix(stream, m, n) for _ in range(count)]
    return kraus_to_map(ops), ops


def test_identity_choi_is_p():
    f = identity_map(2)
    assert np.array_equal(f.choi, maximally_entangled_matrix(2))


def test_transpose_choi_is_swap():
    f = transpose_map(2)
    swap = partial_transpose(maximally_entangled_matrix(2), (2, 2), "second")
    assert np.array_equal(f.choi, swap)


def test_choi_from_action_matches_definition():
    # C = sum_ij e_ij (x) phi(e_ij), assembled by hand for the transpose.
    f = choi_from_action(3, 3, lambda x: x.T)
    by_hand = sum(
        kron(e_matrix(i, j, 3), e_matrix(i, j, 3).T)
        for i in range(3)
        for j in range(3)
    )
    assert np.array_equal(f.choi, by_hand)


def test_apply_map_agrees_with_trace_formula():
    stream = derive_stream(201, 0)
    for n, m in ((2, 2), (2, 3), (3, 2), (4, 4)):
        f, _ = _random_kraus_map(stream, n, m)
        for _ in range(5):
            x = random_hermitian(stream, n)
            direct = apply_map(f, x)
            literal = _apply_via_trace_formula(f, x)
            assert frob(direct - literal) < 1e-12 * max(1.0, frob(x))


def test_kraus_choi_against_projector_route():
    stream = derive_stream(202, 0)
    for n, m in ((2, 2), (3, 2), (2, 4)):
        f, ops = _random_kraus_map(stream, n, m)
        oracle = _kraus_choi_via_projector(ops, n)
        assert frob(f.choi - oracle) < 1e-12 * max(1.0, frob(oracle))


def test_kraus_action_is_conjugation():
    stream = derive_stream(203, 0)
    f, ops = _random_kraus_map(stream, 3, 2)
    x = random_hermitian(stream, 3)
    expect = sum(v @ x @ v.conj().T for v in ops)
    assert frob(apply_map(f, x) - expect) < 1e-12


def test_holevo_choi_structure():
    stream = derive_stream(204, 0)
    omegas = [random_density(stream, 2) for _ in range(3)]
    outs = [random_density(stream, 3) for _ in range(3)]
    form = HolevoForm(tuple((w, b) for w, b in zip(omegas, outs)))
    f = holevo_to_map(form)
    oracle = sum(kron(w.T, b) for w, b in zip(omegas, outs))
    assert frob(f.choi - oracle) < 1e-13
    # Action route: phi(x) = sum Tr(w x) b.
    x = random_hermitian(stream, 2)
    expect = sum(np.trace(w @ x) * b for w, b in zip(omegas, outs))
    assert frob(apply_map(f, x) - expect) < 1e-12


def test_adjoint_trace_pairing():
    # Tr(phi(a) b) = Tr(a phi*(b)) as a bilinear identity, so it must hold
    # for arbitrary (non-Hermitian) a and b too.
    stream = derive_stream(205, 0)
    f, _ = _random_kraus_map(stream, 3, 2)
    g = map_adjoint(f)
    assert (g.dim_in, g.dim_out) == (2, 3)
    for _ in range(10):
        a = gaussian_complex_matrix(stream, 3, 3)
        b = gaussian_complex_matrix(stream, 2, 2)
        lhs = np.trace(apply_map(f, a) @ b)
        rhs = np.trace(a @ apply_map(g, b))
        assert abs(lhs - rhs) < 1e-12


def test_adjoint_is_involution():
    stream = derive_stream(206, 0)
    f, _ = _random_kraus_map(stream, 2, 3)
    assert np.array_equal(map_adjoint(map_adjoint(f)).choi, f.choi)


def test_transpose_conjugate_is_choi_transpose():
    stream = derive_stream(207, 0)
    f, _ = _random_kraus_map(stream, 3, 3)
    t = transpose_map(3)
    g = compose(t, compose(f, t))
    assert np.array_equal(g.choi, f.choi.T)
    # Action route: t o phi o t.
    x = random_hermitian(stream, 3)
    expect = apply_map(f, x.T).T
    assert frob(apply_map(g, x) - expect) < 1e-12


def test_post_and_pre_transpose():
    # Composing with the transpose on either side partially transposes the
    # Choi matrix, bit for bit; on both sides it transposes it.
    stream = derive_stream(208, 0)
    f, _ = _random_kraus_map(stream, 2, 3)
    x = random_hermitian(stream, 2)
    post = compose(transpose_map(3), f)
    assert frob(apply_map(post, x) - apply_map(f, x).T) < 1e-12
    pre = compose(f, transpose_map(2))
    assert frob(apply_map(pre, x) - apply_map(f, x.T)) < 1e-12
    for n, m in ((2, 3), (3, 3), (3, 2), (4, 2)):
        for _ in range(20):
            f, _ = _random_kraus_map(stream, n, m)
            post = compose(transpose_map(m), f)
            pre = compose(f, transpose_map(n))
            assert np.array_equal(post.choi, partial_transpose(f.choi, (n, m), "second"))
            assert np.array_equal(pre.choi, partial_transpose(f.choi, (n, m), "first"))
            assert np.array_equal(compose(transpose_map(m), pre).choi, f.choi.T)


def test_compose_matches_action():
    stream = derive_stream(209, 0)
    f, _ = _random_kraus_map(stream, 2, 3)
    g, _ = _random_kraus_map(stream, 3, 2)
    h = compose(g, f)
    assert (h.dim_in, h.dim_out) == (2, 2)
    x = random_hermitian(stream, 2)
    assert frob(apply_map(h, x) - apply_map(g, apply_map(f, x))) < 1e-11
    # Bit for bit the one contraction of the two Choi tensors.
    for n, m, p in [(2, 3, 2), (3, 3, 3), (3, 2, 4), (4, 2, 3)]:
        f, _ = _random_kraus_map(stream, n, m)
        g, _ = _random_kraus_map(stream, m, p)
        c4 = np.einsum("ikjl,kalb->iajb", f.choi4(), g.choi4())
        assert np.array_equal(compose(g, f).choi, c4.reshape(n * p, n * p))


def test_compose_transpose_twice_is_identity():
    h = compose(transpose_map(3), transpose_map(3))
    assert frob(h.choi - identity_map(3).choi) < 1e-14


def test_state_from_map_is_choi_transpose():
    stream = derive_stream(210, 0)
    f, _ = _random_kraus_map(stream, 2, 3)
    s = state_from_map(f)
    assert s.dims == (2, 3)
    assert np.array_equal(s.density, f.choi.T)


def test_state_from_map_rejects_non_cp_with_witness():
    f = transpose_map(2)
    with pytest.raises(DomainError) as info:
        state_from_map(f)
    witness = getattr(info.value, "witness", None)
    assert witness is not None
    value = (witness.conj() @ f.choi.T @ witness).real
    assert value < -1e-9


def test_state_keeps_the_least_eigenvalue_of_its_one_spectrum(eigh_inputs):
    # The checked spectrum that accepts a density also gives the least
    # eigenvalue the battery's density check reads; one that rejects it
    # names the least eigenvector.
    h = random_density(derive_stream(214, 0), 6)
    s = BipartiteState((2, 3), h)
    assert len(eigh_inputs) == 1
    assert s.min_eigenvalue == float(psd_verdicts(h)[1])
    bad = h - (s.min_eigenvalue + 1e-6) * np.eye(6)
    eigh_inputs.clear()
    with pytest.raises(DomainError, match="state density is not PSD") as info:
        BipartiteState((2, 3), bad)
    assert len(eigh_inputs) == 1
    assert info.value.witness.tobytes() == is_psd(bad)[1].tobytes()


def test_state_from_map_one_spectrum_and_tolerances(eigh_inputs):
    f = identity_map(2)
    state_from_map(f)
    assert len(eigh_inputs) == 1
    # Negative beyond the default slack: the rejection names its witness.
    # One spectrum gives the verdict and the witness.
    dip = MatrixMap(2, 2, f.choi - 1e-7 * np.eye(4))
    eigh_inputs.clear()
    with pytest.raises(DomainError, match="not completely positive") as info:
        state_from_map(dip)
    assert len(eigh_inputs) == 1
    assert info.value.witness.tobytes() == is_psd(dip.choi.T)[1].tobytes()

    # classify_map on a CP map never diagonalises the state density: its
    # CP verdict at tol is the density check, and its partial transpose
    # and the EB witnesses are read on it as one stack. So it makes three
    # checked 9x9 calls (C, PT2 C and the stack of 5) covering 7 matrices.
    g, _ = _random_kraus_map(derive_stream(213, 0), 3, 3)
    density = g.choi.T
    budget = Budget(restarts=2, iterations=20)
    for tol in (DEFAULT_TOL, Tolerances(psd_slack=1e-10)):
        classify_map(g, budget, tol=tol)
        eigh_inputs.clear()
        classify_map(g, budget, tol=tol)
        calls = [a for a in eigh_inputs if a.shape[-1] == 9]
        matrices = [a for stack in calls for a in stack.reshape((-1, 9, 9))]
        assert sum(np.array_equal(a, density) for a in matrices) == 0
        assert len(calls) == 3
        assert len(matrices) == 7


def test_choi_size_cap_checked_before_allocation():
    # Each of these would allocate a Choi matrix with n*m > 256.
    with pytest.raises(DimensionError):
        identity_map(17)
    with pytest.raises(DimensionError):
        transpose_map(99)
    with pytest.raises(DimensionError):
        choi_from_action(1, 257, lambda a: pytest.fail("action evaluated"))
    with pytest.raises(DimensionError):
        kraus_to_map([np.zeros((257, 1))])
    with pytest.raises(DimensionError):
        holevo_to_map(HolevoForm(((np.eye(17), np.eye(16)),)))
    # A Choi matrix handed in whole is held to the same cap.
    with pytest.raises(DimensionError, match=r"map dims \(17, 17\) exceed"):
        MatrixMap(17, 17, np.eye(289))
    assert identity_map(16).choi.shape == (256, 256)


def test_map_state_roundtrip_exact():
    stream = derive_stream(211, 0)
    f, _ = _random_kraus_map(stream, 3, 2)
    s = state_from_map(f)
    g = map_from_state(s)
    assert np.array_equal(g.choi, f.choi)
    s2 = state_from_map(g)
    assert np.array_equal(s2.density, s.density)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_map_state_roundtrips_hold_for_random_cp_maps(n, m, count, seed):
    stream = derive_stream(seed, 0)
    f, _ = _random_kraus_map(stream, n, m, count)
    s = state_from_map(f)
    assert np.array_equal(map_from_state(s).choi, f.choi)
    t = BipartiteState((n, m), random_density(stream, n * m))
    assert np.array_equal(state_from_map(map_from_state(t)).density, t.density)


def test_pairing_value_is_functional_on_products():
    stream = derive_stream(212, 0)
    f, _ = _random_kraus_map(stream, 2, 3)
    s = state_from_map(f)
    for _ in range(10):
        a = random_hermitian(stream, 2)
        b = random_hermitian(stream, 3)
        via_map = pairing_value(f, a, b)
        via_state = np.trace(s.density @ kron(a, b))
        assert abs(via_map - via_state) < 1e-11


def test_pairing_value_pinned_example():
    # For the identity map the functional is Tr(a b^t).
    f = identity_map(2)
    a = np.array([[1.0, 2.0], [2.0, 0.0]], dtype=complex)
    b = np.array([[0.0, 1.0], [1.0, 3.0]], dtype=complex)
    assert abs(pairing_value(f, a, b) - np.trace(a @ b.T)) < 1e-13


def test_apply_to_second_matches_blockwise_route():
    stream = derive_stream(213, 0)
    f, _ = _random_kraus_map(stream, 3, 3)
    h = random_hermitian(stream, 6)  # dims (2, 3)
    out = apply_to_second(h, (2, 3), f)
    blocks = [
        [apply_map(f, h[i * 3:(i + 1) * 3, j * 3:(j + 1) * 3]) for j in range(2)]
        for i in range(2)
    ]
    oracle = np.block(blocks)
    assert frob(out - oracle) < 1e-12


def test_apply_to_second_identity_and_transpose():
    stream = derive_stream(214, 0)
    h = random_hermitian(stream, 4)
    assert frob(apply_to_second(h, (2, 2), identity_map(2)) - h) < 1e-14
    pt = apply_to_second(h, (2, 2), transpose_map(2))
    assert frob(pt - partial_transpose(h, (2, 2), "second")) < 1e-14


def test_maximally_entangled_properties():
    p = maximally_entangled_matrix(3)
    assert abs(np.trace(p).real - 3.0) < 1e-13
    assert np.linalg.matrix_rank(p) == 1
    s = BipartiteState((3, 3), maximally_entangled_matrix(3) / 3)
    assert abs(np.trace(s.density).real - 1.0) < 1e-13
    # PT spectrum is +-1/n.
    values = np.linalg.eigvalsh(partial_transpose(s.density, (3, 3), "second"))
    assert abs(values[0] + 1.0 / 3.0) < 1e-12
    assert abs(values[-1] - 1.0 / 3.0) < 1e-12


def test_matrixmap_validates_hermiticity():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(DomainError):
        MatrixMap(2, 2, bad)


def test_matrixmap_rejects_wrong_size():
    with pytest.raises(DimensionError):
        MatrixMap(2, 3, np.eye(4, dtype=complex))


def test_apply_map_dimension_check():
    f = identity_map(2)
    with pytest.raises(DimensionError):
        apply_map(f, np.eye(3))


def test_bipartite_state_validation():
    with pytest.raises(DomainError, match="not PSD"):
        BipartiteState((2, 2), np.diag([1.0, -0.2, 0.1, 0.1]).astype(complex))
    with pytest.raises(DomainError, match="positive trace"):
        BipartiteState((2, 3), np.zeros((6, 6)))
    with pytest.raises(DimensionError):
        BipartiteState((3, 3), random_density(derive_stream(221, 0), 6))
    s = BipartiteState((2, 2), np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex))
    t = s.normalized()
    assert abs(np.trace(t.density).real - 1.0) < 1e-13


@pytest.mark.parametrize(
    "dims, density",
    [
        # The dims multiply to the density's side, but no factor is empty.
        ((-1, -1), np.eye(1)),
        ((-2, -2), np.eye(4) / 4.0),
        ((0, 3), np.zeros((0, 0))),
    ],
)
def test_bipartite_state_rejects_empty_or_negative_dims(dims, density):
    with pytest.raises(DimensionError):
        BipartiteState(dims, density)


def test_holevo_form_validation():
    indefinite = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(DomainError):
        HolevoForm(((indefinite, np.eye(2, dtype=complex)),))
    with pytest.raises(DomainError):
        HolevoForm(())
    with pytest.raises(DimensionError, match="nonempty"):
        HolevoForm(((np.zeros((0, 0)), np.eye(2)),))


_EYE2 = np.eye(2, dtype=complex)
_INDEFINITE = np.diag([1.0, -1.0]).astype(complex)
_ZERO = np.zeros((2, 2), dtype=complex)


@pytest.mark.parametrize(
    "terms, error, message",
    [
        # Two faulty terms: the first in term order reports.
        (((_EYE2, _EYE2), (_EYE2, _INDEFINITE), (_INDEFINITE, _EYE2)),
         DomainError, "term b is not PSD"),
        (((_EYE2, _ZERO), (_INDEFINITE, _EYE2)), DomainError, "b must be nonzero"),
        (((_EYE2, _INDEFINITE), (np.eye(3), _EYE2)), DomainError, "term b is not PSD"),
        (((_EYE2, _INDEFINITE), (np.ones((2, 3)), _EYE2)),
         DomainError, "term b is not PSD"),
        (((_EYE2, _EYE2), (np.eye(3), _EYE2), (_INDEFINITE, _EYE2)),
         DimensionError, "inconsistent term dimensions"),
        # Within one term: omega, then b, then b nonzero.
        (((_INDEFINITE, _INDEFINITE),), DomainError, "term omega is not PSD"),
        (((_INDEFINITE, _ZERO),), DomainError, "term omega is not PSD"),
        (((_EYE2, -_EYE2), (_EYE2, _ZERO)), DomainError, "term b is not PSD"),
    ],
)
def test_holevo_form_reports_its_first_failing_term(terms, error, message):
    with pytest.raises(error, match=message):
        HolevoForm(terms)
