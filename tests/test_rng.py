import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entanglecone import classify
from entanglecone.classify import (
    Budget,
    block_positivity_minimize,
    builtin_choi_map,
    classify_map,
    default_witness_library,
)
from entanglecone.duality import compose, kraus_to_map
from entanglecone.errors import DomainError
from entanglecone.rng import (
    complex_unit_vectors,
    gaussian_complex_matrix,
    gaussian_vectors,
    random_unitary,
    stream_words,
)
from entanglecone.states import search_ppt_entangled
import reference
from reference import VIGNA_OUTPUTS, VIGNA_SEED, SplitMix64, derive_stream, random_density


def test_reference_sequence():
    g = SplitMix64(VIGNA_SEED)
    assert [g.next_u64() for _ in range(5)] == VIGNA_OUTPUTS


def test_seed_wraps_to_64_bits():
    wide = SplitMix64(VIGNA_SEED + (1 << 64))
    narrow = SplitMix64(VIGNA_SEED)
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
        u = random_unitary(stream_words(11, [n, n + 1]), n)
        assert u.shape == (2, n, n)
        assert np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(n))) < 1e-12


def test_random_unitary_phase_convention_deterministic():
    u = random_unitary(stream_words(3, [0]), 4)
    v = random_unitary(stream_words(3, [0]), 4)
    assert np.array_equal(u, v)
    # The phase fix leaves R with a positive real diagonal.
    z = gaussian_complex_matrix(stream_words(3, [0]), 4, 4)[0]
    r = u[0].conj().T @ z
    assert np.all(np.diagonal(r).real > 0.0)
    assert np.max(np.abs(np.diagonal(r).imag)) < 1e-12


def test_random_density_is_state():
    for n in (2, 4):
        rho = random_density(derive_stream(13, n), n)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(rho)[0] > -1e-14


def test_gaussian_complex_matrix_shape_and_scale():
    m = gaussian_complex_matrix(stream_words(23, [0]), 100, 100)
    assert m.shape == (1, 100, 100)
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


# Each draw of the array path, its scalar form on one stream, and its sizes.
_SIDE = st.integers(1, 7)
_DRAWS = {
    "vector": (
        gaussian_vectors,
        lambda s, k: s.gaussian_vector(k),
        st.tuples(st.integers(1, 15)),
    ),
    "matrix": (
        gaussian_complex_matrix,
        reference.gaussian_complex_matrix,
        st.tuples(_SIDE, _SIDE),
    ),
    "unitary": (random_unitary, reference.random_unitary, st.tuples(_SIDE)),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    indices=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    draws=st.lists(
        st.sampled_from(sorted(_DRAWS)).flatmap(
            lambda kind: st.tuples(st.just(kind), _DRAWS[kind][2])
        ),
        min_size=1,
        max_size=4,
    ),
)
@example(
    seed=0, indices=[0], draws=[("vector", (1,)), ("vector", (15,)), ("vector", (2,))]
)
@example(
    seed=2**64 - 1,
    indices=[7, 2**64 - 1, 7],
    draws=[("matrix", (7, 7)), ("matrix", (1, 3)), ("matrix", (3, 3))],
)
def test_array_draws_match_the_scalar_streams(seed, indices, draws):
    # Several draws in a row continue each stream where it stopped, bit
    # for bit, odd sizes included.
    words = stream_words(seed, indices)
    scalar = [derive_stream(seed, r) for r in indices]
    for kind, size in draws:
        array_draw, scalar_draw, _ = _DRAWS[kind]
        got = array_draw(words, *size)
        want = np.stack([scalar_draw(s, *size) for s in scalar])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_set_up_draws_match_the_oracle():
    # The witness library's twists, built again from the scalar streams,
    # byte for byte.
    base = builtin_choi_map()
    twists = []
    for k in (1, 2):
        stream = derive_stream(classify._LIBRARY_SEED, k)
        a = reference.random_unitary(stream, 3)
        b = reference.random_unitary(stream, 3)
        twists.append(compose(kraus_to_map([a]), compose(base, kraus_to_map([b]))))
    library = dict(default_witness_library(3).entries)
    for k, want in zip((1, 2), twists):
        assert library[f"choi3-twist{k}"].choi.tobytes() == want.choi.tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_one_word_raise(seed):
    # Reduced mod 2^64, such a seed would alias another seed's streams.
    choi3 = builtin_choi_map()
    budget = Budget(1, 1)
    with pytest.raises(DomainError, match=r"seed must be in \[0, 2\^64\)"):
        search_ppt_entangled(choi3, budget, seed=seed)
    with pytest.raises(DomainError, match=r"seed must be in \[0, 2\^64\)"):
        classify_map(choi3, budget, seed=seed)
    with pytest.raises(DomainError, match=r"seed must be in \[0, 2\^64\)"):
        block_positivity_minimize(choi3.choi, (3, 3), budget, seed=seed)


def test_top_seed_keeps_its_streams():
    # The words 2^64 - 1 had when every seed was reduced mod 2^64.
    words = stream_words(2**64 - 1, [0, 1, 2])
    assert [int(w) for w in words] == [
        17492683508065611904,
        11305189083003979001,
        6136805500546321909,
    ]
    # Every draw starts in stream_words, so the words cover each consumer.
    top = search_ppt_entangled(builtin_choi_map(), Budget(1, 1), seed=2**64 - 1)
    assert top.seed == 2**64 - 1
