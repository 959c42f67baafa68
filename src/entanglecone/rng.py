"""Deterministic random streams for restartable searches.

All stochastic routines in this package draw from SplitMix64 streams
derived from ``(seed, stream index)``. The derivation is a pure
function, so restart ``k`` of a search produces the same vectors
whatever the order in which restarts run, and on every platform. That
property is what makes the CLI output byte-identical across runs.

The generator runs on ``uint64`` arrays: a stream is one state word
(stream_words), and every draw takes a whole array of words at once,
advancing each in place. A single stream is a words array of length 1.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError

_GAMMA = 0x9E3779B97F4A7C15


def _mix_words(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalization mix on a uint64 array; numpy's uint64
    products wrap mod 2^64."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def stream_words(seed: int, indices) -> np.ndarray:
    """State words, as uint64, of child streams ``indices`` of ``seed``.

    A child's state is mix(seed XOR mix((index + 1) gamma)); the double
    mix decorrelates neighbouring indices and neighbouring seeds. A
    stream's state after k draws is its word plus k gamma, so next_floats
    advances each word by the number of draws it made, and a stream
    drawn from twice continues where it stopped. A seed outside
    [0, 2^64) raises DomainError rather than alias one mod 2^64.
    """
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be in [0, 2^64), got {seed}")
    # (index + 1) gamma wraps mod 2^64.
    index = (np.asarray(indices, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GAMMA)
    return _mix_words(np.uint64(seed) ^ _mix_words(index))


def next_floats(words: np.ndarray, count: int) -> np.ndarray:
    """The next ``count`` uniform draws in [0, 1), 53 bits each, of each
    stream, shaped ``words.shape + (count,)``; advances ``words`` in place."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    draws = _mix_words(words[..., np.newaxis] + steps)
    if count:
        words += steps[-1]
    return (draws >> 11).astype(np.float64) * 2.0**-53


def gaussians(u: np.ndarray) -> np.ndarray:
    """Box-Muller on each consecutive pair (u1, u2) of uniform draws
    along the last axis: r cos(2 pi u2), r sin(2 pi u2) with
    r = sqrt(-2 log(1 - u1)); 1 - u1 keeps the log's argument positive."""
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2]))
    angle = 2.0 * np.pi * u[..., 1::2]
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1).reshape(u.shape)


def gaussian_vectors(words: np.ndarray, size: int) -> np.ndarray:
    """``size`` standard normals from each stream, shaped
    ``words.shape + (size,)``; advances ``words`` in place. Normals come
    in pairs, so an odd size draws one more and drops it."""
    width = 2 * ((size + 1) // 2)
    return gaussians(next_floats(words, width))[..., :size]


def unit_rows(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im with each row along the last axis scaled to unit norm.
    The norms stay 1-D np.linalg.norm calls, since a norm along an axis
    sums in another order."""
    v = re + 1j * im
    for row in v.reshape(-1, v.shape[-1]):
        row /= np.linalg.norm(row)
    return v


def complex_unit_vectors(seed: int, count: int, dim: int) -> np.ndarray:
    """Row r is a Haar-like random unit vector in C^dim from child stream
    r of ``seed``: a gaussian real part, then a gaussian imaginary part."""
    words = stream_words(seed, range(count))
    return unit_rows(gaussian_vectors(words, dim), gaussian_vectors(words, dim))


def gaussian_complex_matrix(words: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(re + i im) / sqrt(2) with standard normal parts, real part first,
    shaped ``words.shape + (rows, cols)``; advances ``words`` in place."""
    shape = words.shape + (rows, cols)
    re = gaussian_vectors(words, rows * cols).reshape(shape)
    im = gaussian_vectors(words, rows * cols).reshape(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def random_unitary(words: np.ndarray, n: int) -> np.ndarray:
    """Haar-distributed unitaries via QR with the standard phase fix."""
    q, r = np.linalg.qr(gaussian_complex_matrix(words, n, n))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., np.newaxis, :]

