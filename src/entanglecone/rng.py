"""Deterministic random streams for restartable searches.

All stochastic routines in this package draw from SplitMix64 streams
derived from ``(seed, stream index)``. The derivation is a pure
function, so restart ``k`` of a search produces the same vectors
whatever the order in which restarts run, and on every platform. That
property is what makes the CLI output byte-identical across runs.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """Finalization mix of SplitMix64; bijective on 64-bit words."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal SplitMix64 generator.

    State advances by the golden-ratio increment and each output is the
    finalization mix of the state. Good enough statistical quality for
    restart vectors, and trivially reproducible from a single integer.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def next_float(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_gaussian_pair(self) -> tuple[float, float]:
        """Two independent standard normals via Box-Muller."""
        # 1 - u keeps the argument of log strictly positive.
        u1 = 1.0 - self.next_float()
        u2 = self.next_float()
        r = np.sqrt(-2.0 * np.log(u1))
        return r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)

    def gaussian_vector(self, size: int) -> np.ndarray:
        out = np.empty(size, dtype=np.float64)
        i = 0
        while i < size:
            a, b = self.next_gaussian_pair()
            out[i] = a
            if i + 1 < size:
                out[i + 1] = b
            i += 2
        return out

    def complex_unit_vector(self, dim: int) -> np.ndarray:
        """Haar-like random unit vector in C^dim."""
        re = self.gaussian_vector(dim)
        im = self.gaussian_vector(dim)
        v = re + 1j * im
        return v / np.linalg.norm(v)


def derive_stream(seed: int, index: int) -> SplitMix64:
    """Independent child stream number ``index`` of a master seed.

    child_state = mix(seed XOR mix((index + 1) * gamma)); the double mix
    decorrelates neighbouring indices and neighbouring seeds.
    """
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    child = _mix((seed & _MASK) ^ _mix(((index + 1) * _GAMMA) & _MASK))
    return SplitMix64(child)


def _mix_words(z: np.ndarray) -> np.ndarray:
    """_mix on a uint64 array; numpy's uint64 products wrap mod 2^64."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def stream_words(seed: int, indices) -> np.ndarray:
    """State words, as uint64, of derive_stream(seed, r) for r in indices.

    These are the streams of the array draws below. A stream's state
    after k draws is its word plus k gamma, so next_floats advances
    each word by the number of draws it made, and a stream drawn from
    twice continues where it stopped, as the scalar stream would.
    """
    # (index + 1) gamma wraps mod 2^64, as derive_stream masks it.
    index = (np.asarray(indices, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GAMMA)
    return _mix_words(np.uint64(seed & _MASK) ^ _mix_words(index))


def next_floats(words: np.ndarray, count: int) -> np.ndarray:
    """The next ``count`` next_float() draws of each stream, shaped
    ``words.shape + (count,)``; advances ``words`` in place."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    draws = _mix_words(words[..., np.newaxis] + steps)
    if count:
        words += steps[-1]
    return (draws >> 11).astype(np.float64) * 2.0**-53


def gaussians(u: np.ndarray) -> np.ndarray:
    """next_gaussian_pair on each consecutive pair (u1, u2) of uniform
    draws along the last axis, in the scalar order of operations."""
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2]))
    angle = 2.0 * np.pi * u[..., 1::2]
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1).reshape(u.shape)


def unit_rows(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im with each row along the last axis scaled to unit norm,
    as complex_unit_vector does. The norms stay 1-D np.linalg.norm
    calls, since a norm along an axis sums in another order."""
    v = re + 1j * im
    for row in v.reshape(-1, v.shape[-1]):
        row /= np.linalg.norm(row)
    return v


def complex_unit_vectors(seed: int, count: int, dim: int) -> np.ndarray:
    """Row r is derive_stream(seed, r).complex_unit_vector(dim), bit for bit.

    All rows come from one array evaluation of the same draws: each row
    takes two gaussian_vector(dim) calls, that is 4 ceil(dim / 2)
    SplitMix64 outputs, mixed and Box-Muller transformed elementwise.
    """
    width = 2 * ((dim + 1) // 2)
    g = gaussians(next_floats(stream_words(seed, range(count)), 2 * width))
    return unit_rows(g[:, :dim], g[:, width:width + dim])


def gaussian_complex_matrix(stream: SplitMix64, rows: int, cols: int) -> np.ndarray:
    re = stream.gaussian_vector(rows * cols).reshape(rows, cols)
    im = stream.gaussian_vector(rows * cols).reshape(rows, cols)
    return (re + 1j * im) / np.sqrt(2.0)


def random_unitary(stream: SplitMix64, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = gaussian_complex_matrix(stream, n, n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(stream: SplitMix64, n: int) -> np.ndarray:
    """Random full-rank density matrix (PSD, trace one)."""
    g = gaussian_complex_matrix(stream, n, n)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(stream: SplitMix64, n: int) -> np.ndarray:
    g = gaussian_complex_matrix(stream, n, n)
    return (g + g.conj().T) / 2.0
