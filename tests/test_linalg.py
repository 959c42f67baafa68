import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entanglecone.errors import DimensionError, DomainError, NumericalError
from entanglecone.linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    e_matrix,
    frob,
    hermitian_deviation,
    hermitian_eigen,
    hermitian_part,
    is_psd,
    kron,
    partial_trace,
    partial_transpose,
    psd_floor,
    psd_verdicts,
    support_projection,
)
from reference import derive_stream, min_eigenpair, random_hermitian


def _charpoly_eigenvalues(x):
    """Independent eigenvalue oracle from characteristic polynomial roots.

    2x2 uses the closed-form quadratic; 3x3 builds the cubic from the
    trace/second-invariant/determinant and calls np.roots.
    """
    n = x.shape[0]
    if n == 2:
        a, c = x[0, 0].real, x[1, 1].real
        b2 = abs(x[0, 1]) ** 2
        disc = np.sqrt((a - c) ** 2 / 4.0 + b2)
        mid = (a + c) / 2.0
        return np.array([mid + disc, mid - disc])
    if n == 3:
        tr = np.trace(x).real
        tr2 = np.trace(x @ x).real
        det = np.linalg.det(x).real
        coeffs = [1.0, -tr, (tr * tr - tr2) / 2.0, -det]
        roots = np.roots(coeffs)
        return np.sort(roots.real)[::-1]
    raise ValueError("oracle covers sizes 2 and 3 only")


# The 4x4 flip operator, written out by hand: entry ((i,k),(j,l)) = [i==l][j==k].
_SWAP_2 = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

# P = sum_ij e_ij (x) e_ij for n=2, expanded by hand.
_P_2 = np.array(
    [
        [1, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 1],
    ],
    dtype=complex,
)


def test_kron_basis_cases():
    e11 = e_matrix(0, 0, 2)
    assert np.array_equal(kron(e11, np.eye(2)), np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    e12 = e_matrix(0, 1, 2)
    out = kron(e12, e12)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 3] = 1.0
    assert np.array_equal(out, expect)


def test_kron_mixed_product():
    stream = derive_stream(101, 0)
    for _ in range(20):
        a = random_hermitian(stream, 2)
        b = random_hermitian(stream, 2)
        c = random_hermitian(stream, 2)
        d = random_hermitian(stream, 2)
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_partial_transpose_of_p_is_swap():
    p = sum(kron(e_matrix(i, j, 2), e_matrix(i, j, 2)) for i in range(2) for j in range(2))
    assert np.array_equal(partial_transpose(p, (2, 2), "second"), _SWAP_2)
    assert np.array_equal(p, _P_2)


def test_partial_transpose_diag_fixed():
    d = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).astype(complex)
    assert np.array_equal(partial_transpose(d, (2, 3), "second"), d)
    assert np.array_equal(partial_transpose(d, (2, 3), "first"), d)


def test_partial_transpose_product_rule():
    stream = derive_stream(102, 0)
    for _ in range(10):
        a = random_hermitian(stream, 2)
        b = random_hermitian(stream, 3)
        x = kron(a, b)
        assert np.max(np.abs(partial_transpose(x, (2, 3), "second") - kron(a, b.T))) == 0.0
        assert np.max(np.abs(partial_transpose(x, (2, 3), "first") - kron(a.T, b))) == 0.0


def test_partial_transpose_involution_exact():
    stream = derive_stream(103, 0)
    x = random_hermitian(stream, 6)
    for side in ("first", "second"):
        twice = partial_transpose(partial_transpose(x, (2, 3), side), (2, 3), side)
        assert np.array_equal(twice, x)


def test_partial_transpose_dimension_mismatch():
    with pytest.raises(DimensionError):
        partial_transpose(np.eye(5), (2, 3), "second")


def test_partial_trace_product_rule():
    stream = derive_stream(104, 0)
    a = random_hermitian(stream, 2)
    b = random_hermitian(stream, 3)
    x = kron(a, b)
    tr_a = np.trace(a)
    tr_b = np.trace(b)
    assert np.max(np.abs(partial_trace(x, (2, 3), "first") - tr_a * b)) < 1e-13
    assert np.max(np.abs(partial_trace(x, (2, 3), "second") - tr_b * a)) < 1e-13


def test_partial_trace_consistency_with_full_trace():
    stream = derive_stream(105, 0)
    x = random_hermitian(stream, 6)
    full = np.trace(x)
    assert abs(np.trace(partial_trace(x, (2, 3), "first")) - full) < 1e-12
    assert abs(np.trace(partial_trace(x, (2, 3), "second")) - full) < 1e-12


def test_eigen_against_charpoly_oracle():
    stream = derive_stream(106, 0)
    for n in (2, 3):
        for _ in range(200):
            x = random_hermitian(stream, n)
            values, vectors = hermitian_eigen(x)
            oracle = _charpoly_eigenvalues(x)
            assert np.max(np.abs(values - oracle)) < 1e-10 * max(1.0, frob(x))
            # Eigenpairs reconstruct the matrix.
            recon = (vectors * values) @ vectors.conj().T
            assert frob(recon - x) < 1e-10 * max(1.0, frob(x))


def test_eigen_sorted_descending():
    x = np.diag([1.0, 5.0, -2.0]).astype(complex)
    values, _ = hermitian_eigen(x)
    assert np.array_equal(values, np.array([5.0, 1.0, -2.0]))


def test_eigen_rejects_non_hermitian():
    x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DomainError):
        hermitian_eigen(x)


def _hermitian_stack(seed, shape, k):
    stream = derive_stream(seed, 0)
    flat = [random_hermitian(stream, k) for _ in range(int(np.prod(shape)))]
    return np.array(flat).reshape(shape + (k, k))


def test_eigen_stack_matches_each_matrix():
    for shape, k in (((5,), 3), ((2, 3), 4), ((1,), 9)):
        stack = _hermitian_stack(109, shape, k)
        values, vectors = hermitian_eigen(stack)
        assert values.shape == shape + (k,)
        assert vectors.shape == shape + (k, k)
        for index in np.ndindex(*shape):
            w, v = hermitian_eigen(stack[index])
            assert np.array_equal(values[index], w)
            assert np.array_equal(vectors[index], v)


def test_eigen_stack_checks_every_matrix():
    stack = _hermitian_stack(110, (4,), 3)
    bad = stack.copy()
    bad[2, 0, 1] = np.inf
    with pytest.raises(DomainError):
        hermitian_eigen(bad)
    # A deviation of 1e-6 is small beside slice 0's norm but not beside
    # slice 3's own, which is what it is measured against.
    bad = stack.copy()
    bad[0] *= 1e8
    bad[3, 0, 1] += 1e-6
    # Each entry point rejects it with the message is_psd gives slice 3 alone.
    with pytest.raises(DomainError) as alone:
        is_psd(bad[3])
    for check in (hermitian_eigen, psd_verdicts):
        with pytest.raises(DomainError) as stacked:
            check(bad)
        assert str(stacked.value) == str(alone.value)
    with pytest.raises(DimensionError):
        hermitian_eigen(np.zeros((4, 3, 2)))


def test_eigen_stack_residual_failure_in_one_matrix(monkeypatch):
    stack = _hermitian_stack(111, (4,), 3)
    real = np.linalg.eigh

    def perturbed(a, *args, **kwargs):
        w, v = real(a, *args, **kwargs)
        v = v.copy()
        # Still a unit vector to first order, but no longer an eigenvector.
        v[2, :, 0] += 1e-6 * v[2, :, 1]
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(NumericalError):
        hermitian_eigen(stack)


def test_min_eigenpair_matches_full_solve():
    stream = derive_stream(107, 0)
    x = random_hermitian(stream, 5)
    low, vec = min_eigenpair(x)
    assert abs(low - np.linalg.eigvalsh(x)[0]) < 1e-12
    assert abs((vec.conj() @ x @ vec).real - low) < 1e-10
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_is_psd_verdicts_and_witness():
    ok, witness = is_psd(np.eye(3))
    assert ok and witness is None
    bad = np.diag([1.0, -0.5]).astype(complex)
    ok, witness = is_psd(bad)
    assert not ok
    # The witness certifies negativity by direct quadratic form.
    value = (witness.conj() @ bad @ witness).real
    assert value < -1e-9


def _matrix_near_the_floor(rng, k, kind):
    """A k x k Hermitian matrix of one of four kinds: 0 PSD, 1 generic,
    2 and 3 least eigenvalue at 0.5x and at 2x its own psd_floor, with
    the rest of the spectrum nonnegative. Norms span 1e-2 to 1e3."""
    scale = 10.0 ** rng.uniform(-2, 3)
    g = scale * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    if kind == 0:
        return g @ g.conj().T
    if kind == 1:
        return hermitian_part(g)
    rest = scale * rng.random(k - 1)
    low = 0.0
    for _ in range(4):  # low enters the norm its floor scales with; this settles
        low = (0.5 if kind == 2 else 2.0) * psd_floor(np.diag(np.append(rest, low)))
    q, _ = np.linalg.qr(g)
    return hermitian_part((q * np.append(rest, low)) @ q.conj().T)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(count=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_psd_verdicts_match_is_psd_and_min_eigenpair(count, seed):
    # The stacked verdicts are the per-matrix ones bit for bit: the
    # verdict of is_psd, and the value and vector of min_eigenpair.
    rng = np.random.default_rng(seed)
    for k in (2, 3, 4, 9):
        kinds = rng.integers(0, 4, count)
        stack = np.stack([_matrix_near_the_floor(rng, k, kind) for kind in kinds])
        ok, low, vec = psd_verdicts(stack)
        assert ok.shape == low.shape == (count,) and vec.shape == (count, k)
        for i, kind in enumerate(kinds):
            verdict, witness = is_psd(stack[i])
            value, vector = min_eigenpair(stack[i])
            assert ok[i] == verdict
            assert low[i] == value and np.array_equal(vec[i], vector)
            assert witness is None if verdict else np.array_equal(witness, vector)
            if kind in (0, 2, 3):
                assert verdict == (kind != 3)


def test_is_psd_relative_slack():
    # A large matrix with a tiny relative dip stays PSD under relative slack.
    x = np.diag([1e6, -1e-5]).astype(complex)
    ok, _ = is_psd(x)
    assert ok


def test_support_projection_rank_and_range():
    p = support_projection(np.diag([2.0, 0.0, 1.0]).astype(complex))
    assert np.array_equal(p, np.diag([1.0, 0.0, 1.0]).astype(complex))
    stream = derive_stream(108, 0)
    v = stream.gaussian_vector(4) + 1j * stream.gaussian_vector(4)
    v = v / np.linalg.norm(v)
    x = np.outer(v, v.conj())
    p = support_projection(x)
    assert frob(p @ p - p) < 1e-12
    assert frob(p @ x - x) < 1e-12
    assert abs(np.trace(p).real - 1.0) < 1e-12


def test_support_projection_diagonalises_once(eigh_inputs):
    support_projection(np.diag([2.0, 0.0, 1.0]).astype(complex))
    assert len(eigh_inputs) == 1
    with pytest.raises(DomainError):
        support_projection(np.diag([2.0, -1e-3, 1.0]).astype(complex))


def test_hermitian_helpers():
    x = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    h = hermitian_part(x)
    assert frob(h - h.conj().T) == 0.0
    assert hermitian_deviation(h) < 1e-15
    assert hermitian_deviation(x) > 0.5


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 9),
    stack=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 0.5),
)
def test_hermitian_part_is_idempotent_bit_for_bit(k, stack, seed, zeros):
    # Callers hand hermitian_part's output straight to the bare eigh, where
    # hermitian_eigen applied hermitian_part a second time; the two agree
    # bit for bit only because this holds. Entries: magnitudes 1e-300 to
    # 1e300 of either sign, with a share of signed zeros.
    rng = np.random.default_rng(seed)
    shape = (2, stack, k, k)
    parts = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
    parts[rng.random(shape) < zeros] = 0.0
    parts = np.copysign(parts, rng.choice([-1.0, 1.0], shape))
    x = np.empty((stack, k, k), dtype=np.complex128)
    x.real, x.imag = parts
    h = hermitian_part(x)
    assert hermitian_part(h).tobytes() == h.tobytes()


def test_as_matrix_validation():
    with pytest.raises(DomainError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((2, 3)))
    rect = as_matrix(np.zeros((2, 3)), square=False)
    assert rect.shape == (2, 3)
    for empty in ((0, 0), (0, 3), (2, 0), (4, 0, 0)):
        with pytest.raises(DimensionError, match="nonempty"):
            as_matrix(np.zeros(empty), square=False, stacked=True)


def test_tolerances_validation():
    with pytest.raises(DomainError):
        Tolerances(psd_slack=0.0)
    with pytest.raises(DomainError):
        Tolerances(psd_slack=1e-2)
    t = Tolerances(psd_slack=1e-8)
    assert t.psd_slack == 1e-8
    assert DEFAULT_TOL.psd_slack == 1e-9


def test_e_matrix():
    e = e_matrix(1, 2, 3)
    assert e.shape == (3, 3)
    assert e[1, 2] == 1.0
    assert np.count_nonzero(e) == 1
