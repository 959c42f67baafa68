"""Scalar references the tests hold the package to.

The package draws every random number on uint64 arrays (entanglecone.rng).
This module keeps the scalar SplitMix64 generator that those arrays must
reproduce bit for bit, with Vigna's published outputs that pin it down,
and the scalar draws the tests take their inputs from. It also keeps
second routes to quantities the package computes one way only, and the
one-at-a-time loops that stacked passes of the package must reproduce.
"""
from __future__ import annotations

import numpy as np

from entanglecone.blocks import hermitian_basis
from entanglecone.classify import default_witness_library, is_cp
from entanglecone.duality import (
    BipartiteState,
    MatrixMap,
    apply_map,
    apply_to_second,
    map_adjoint,
    map_from_state,
    maximally_entangled_matrix,
)
from entanglecone.errors import DomainError, NumericalError
from entanglecone.linalg import (
    CONVERGENCE,
    Tolerances,
    frob,
    hermitian_eigen,
    hermitian_part,
    is_psd,
    partial_transpose,
    psd_verdicts,
)
from entanglecone.serialize import matrix_to_json
from entanglecone.states import StateReport, WitnessHit

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Published SplitMix64 sequence for seed 1234567 (Vigna's reference C code).
VIGNA_SEED = 1234567
VIGNA_OUTPUTS = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def _mix(z: int) -> int:
    """Finalization mix of SplitMix64; bijective on 64-bit words."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal SplitMix64 generator.

    State advances by the golden-ratio increment and each output is the
    finalization mix of the state.
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
    """Independent child stream number ``index`` of a master seed:
    child_state = mix(seed XOR mix((index + 1) * gamma))."""
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    child = _mix((seed & _MASK) ^ _mix(((index + 1) * _GAMMA) & _MASK))
    return SplitMix64(child)


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


def random_product_mixture(
    stream: SplitMix64, n: int, m: int, terms: int
) -> np.ndarray:
    """Random convex mixture of pure product states, trace one; the
    scalar form of states.random_product_mixtures on one stream."""
    h = np.zeros((n * m, n * m), dtype=np.complex128)
    weights = []
    pieces = []
    for _ in range(terms):
        weights.append(stream.next_float())
        x = stream.complex_unit_vector(n)
        y = stream.complex_unit_vector(m)
        pieces.append(np.kron(np.outer(x, x.conj()), np.outer(y, y.conj())))
    total = sum(weights)
    for w, piece in zip(weights, pieces):
        h += (w / total) * piece
    return h


def random_pure_mixture(stream: SplitMix64, d: int, terms: int) -> np.ndarray:
    """Random mixture of (generally entangled) pure states, trace one."""
    h = np.zeros((d, d), dtype=np.complex128)
    weights = [stream.next_float() for _ in range(terms)]
    total = sum(weights)
    for w in weights:
        v = stream.complex_unit_vector(d)
        h += (w / total) * np.outer(v, v.conj())
    return h


def min_eigenpair(x: np.ndarray) -> tuple[float, np.ndarray]:
    """Least eigenvalue and its unit eigenvector, from the checked solver."""
    w, v = hermitian_eigen(x)
    return float(w[-1]), v[:, -1]


def verify_block_value(f: MatrixMap, x: np.ndarray, y: np.ndarray) -> float:
    """Re-evaluate <x (x) y, C (x (x) y)> for certificate checking."""
    prod = np.kron(x, y)
    return float(np.real(prod.conj() @ f.choi @ prod))


def pairing_via_adjoint(s: BipartiteState, f: MatrixMap) -> float:
    """The pairing Tr(h C_phi) computed as Tr((id (x) phi*)(h) P)."""
    n = s.dims[0]
    moved = apply_to_second(s.density, s.dims, map_adjoint(f))
    return float(np.real(np.trace(moved @ maximally_entangled_matrix(n))))


def ensemble_to_json(ens) -> dict:
    """The ensemble document that serialize.state_document_from_json reads."""
    n, m = ens.dims
    return {
        "dims": [n, m],
        "repr": "ensemble",
        "terms": [
            {"weight": w, "a": matrix_to_json(a), "b": matrix_to_json(b)}
            for w, a, b in ens.terms
        ],
    }


def first_noncommuting_pair(f: MatrixMap) -> tuple[tuple[int, int], float] | None:
    """The first pair (k, l), k < l in row-major order, of images of the
    Hermitian basis whose commutator exceeds the relative bound, with its
    norm; None when all commute. One pair at a time."""
    images = [hermitian_part(apply_map(f, h)) for h in hermitian_basis(f.dim_in)]
    for k in range(len(images)):
        for l in range(k + 1, len(images)):
            comm = images[k] @ images[l] - images[l] @ images[k]
            norm = frob(comm)
            if norm > CONVERGENCE * max(1.0, frob(images[k]) * frob(images[l])):
                return (k, l), norm
    return None


def witness_battery_per_call(s: BipartiteState, tol: Tolerances) -> StateReport:
    """states.witness_battery, without a separable certificate, one checked
    call per matrix: each library entry's output through apply_to_second
    and psd_verdicts, then the Peres route the battery leaves out, is_cp
    of the dual map and is_psd of the first-factor partial transpose."""
    entries = default_witness_library(s.dims[1]).entries
    verdicts = [
        psd_verdicts(hermitian_part(apply_to_second(s.density, s.dims, psi)), tol)
        for _, psi in entries
    ]
    if not verdicts[0][0]:
        raise DomainError("state density is not PSD within tolerance")
    ppt, ppt_low, ppt_vec = verdicts[1]
    cp_dual = is_cp(map_from_state(s), tol)[0]
    copositive_dual = is_psd(partial_transpose(s.density, s.dims, "first"), tol)[0]
    if ppt != copositive_dual:
        raise NumericalError(
            "partial transposes on the two factors disagree about positivity"
        )
    hits = tuple(
        WitnessHit(name, float(low), vec)
        for (name, _), (ok, low, vec) in zip(entries, verdicts)
        if not ok
    )
    return StateReport(
        dims=s.dims,
        mass=s.mass,
        ppt=bool(ppt),
        ppt_witness=None if ppt else ppt_vec,
        ppt_min_eigenvalue=float(ppt_low),
        entanglement="certified-entangled" if hits else "inconclusive",
        certificate_name=hits[0].name if hits else None,
        certificate_vector=hits[0].eigenvector if hits else None,
        certificate_value=hits[0].eigenvalue if hits else None,
        hits=hits,
        peres_crosscheck=ppt == (cp_dual and copositive_dual),
    )
