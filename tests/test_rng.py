import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entanglecone.rng import (
    SplitMix64,
    complex_unit_vectors,
    derive_stream,
    gaussian_complex_matrix,
    random_density,
    random_hermitian,
    random_unitary,
)

# Published SplitMix64 sequence for seed 1234567 (Vigna's reference C code).
_REFERENCE_SEED = 1234567
_REFERENCE_OUTPUTS = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_reference_sequence():
    g = SplitMix64(_REFERENCE_SEED)
    assert [g.next_u64() for _ in range(5)] == _REFERENCE_OUTPUTS


def test_seed_wraps_to_64_bits():
    wide = SplitMix64(_REFERENCE_SEED + (1 << 64))
    narrow = SplitMix64(_REFERENCE_SEED)
    assert [wide.next_u64() for _ in range(3)] == [narrow.next_u64() for _ in range(3)]


def test_next_float_range_and_determinism():
    g = SplitMix64(99)
    values = [g.next_float() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    h = SplitMix64(99)
    assert values[:50] == [h.next_float() for _ in range(50)]


def test_gaussian_pair_moments():
    g = SplitMix64(7)
    samples = []
    for _ in range(20000):
        a, b = g.next_gaussian_pair()
        samples.extend((a, b))
    arr = np.asarray(samples)
    assert abs(arr.mean()) < 0.05
    assert abs(arr.std() - 1.0) < 0.05


def test_derive_stream_reproducible_and_distinct():
    a = derive_stream(42, 0)
    b = derive_stream(42, 0)
    c = derive_stream(42, 1)
    d = derive_stream(43, 0)
    seq_a = [a.next_u64() for _ in range(4)]
    assert seq_a == [b.next_u64() for _ in range(4)]
    assert seq_a != [c.next_u64() for _ in range(4)]
    assert seq_a != [d.next_u64() for _ in range(4)]


def test_random_unitary_is_unitary():
    for n in (2, 3, 5):
        u = random_unitary(derive_stream(11, n), n)
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-12


def test_random_unitary_phase_convention_deterministic():
    u = random_unitary(derive_stream(3, 0), 4)
    v = random_unitary(derive_stream(3, 0), 4)
    assert np.array_equal(u, v)


def test_random_density_is_state():
    for n in (2, 4):
        rho = random_density(derive_stream(13, n), n)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(rho)[0] > -1e-14


def test_random_hermitian_is_hermitian():
    x = random_hermitian(derive_stream(17, 0), 5)
    assert np.max(np.abs(x - x.conj().T)) == 0.0


def test_gaussian_complex_matrix_shape_and_scale():
    g = derive_stream(23, 0)
    m = gaussian_complex_matrix(g, 100, 100)
    assert m.shape == (100, 100)
    # Entries are standard complex gaussians: unit expected |z|^2.
    assert abs(np.mean(np.abs(m) ** 2) - 1.0) < 0.05


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    dim=st.integers(1, 9),
    count=st.integers(1, 64),
)
@example(seed=0, dim=1, count=1)
@example(seed=2**64 - 1, dim=9, count=64)
def test_complex_unit_vectors_match_the_scalar_streams(seed, dim, count):
    # Bit for bit, signed zeros included: row r is restart r's stream.
    want = np.stack(
        [derive_stream(seed, r).complex_unit_vector(dim) for r in range(count)]
    )
    got = complex_unit_vectors(seed, count, dim)
    assert got.shape == (count, dim)
    assert got.tobytes() == want.tobytes()
