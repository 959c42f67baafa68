"""Linear maps on matrix algebras and their bipartite counterparts.

A map phi : M_n -> M_m is stored through its Choi matrix

    C_phi = sum_ij e_ij (x) phi(e_ij)   in  M_n (x) M_m,

an (n*m) x (n*m) array under the composite ordering of linalg. The
matching linear functional on the tensor product acts as

    pair(a (x) b) = Tr(phi(a) b^T),

and the density implementing that functional is the global transpose of
the Choi matrix. Moving back and forth between the two pictures is
exact, which the tests exercise as a roundtrip identity.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, NumericalError
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    check_bipartite,
    e_matrix,
    frob,
    hermitian_deviation,
    kron,
    psd_verdicts,
    raise_first_fault,
)

# Cap on n*m, the side of a map's Choi matrix, checked before the Choi
# matrix is allocated: at n*m = 256 it holds 65536 complex entries (1 MB),
# while builtin:identity99 would need 9801 x 9801 (1.5 GB, and several
# times that in the analyses).
MAX_CHOI_DIM = 256
# Cap on k * (n*m)^2, the entries of k matrices of side n*m: the products
# of a k-term ensemble (16 MB; decomposing k = n = m = 16 peaked at about
# 100 MB under tracemalloc) or the states of a k-restart search, whose
# projections keep 32 history rows per state (0.8 GB at k = 16, n*m = 256).
MAX_ENSEMBLE_ENTRIES = 2**20


def _check_choi_size(n: int, m: int) -> None:
    if n * m > MAX_CHOI_DIM:
        raise DimensionError(
            f"map dims ({n}, {m}) exceed the cap n*m <= {MAX_CHOI_DIM}"
        )


@dataclass(eq=False)
class HolevoForm:
    """Finite expansion phi(x) = sum_k Tr(omega_k x) b_k.

    Each term is a pair ``(omega, b)`` of PSD matrices, ``omega`` acting
    on the input algebra and ``b`` sitting in the output algebra. Maps
    of this shape are exactly the entanglement breaking ones, so holding
    a HolevoForm is a separability certificate in itself. As for a
    SeparableEnsemble, every term is coerced and the terms must share one
    shape; then one spectrum per side checks them all, and the first
    failing term reports: omega not PSD, then b not PSD, then b zero.
    """

    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise DomainError("a Holevo form needs at least one term")
        self.terms = tuple((as_matrix(omega), as_matrix(b)) for omega, b in self.terms)
        if len({(omega.shape, b.shape) for omega, b in self.terms}) > 1:
            raise DimensionError("inconsistent term dimensions in Holevo form")
        omega, b = (np.stack(side) for side in zip(*self.terms))
        raise_first_fault([
            (~psd_verdicts(omega)[0], "Holevo term omega is not PSD"),
            (~psd_verdicts(b)[0], "Holevo term b is not PSD"),
            (np.linalg.norm(b, axis=(-2, -1)) == 0.0, "Holevo term b must be nonzero"),
        ])

    @property
    def dim_in(self) -> int:
        return self.terms[0][0].shape[0]

    @property
    def dim_out(self) -> int:
        return self.terms[0][1].shape[0]


@dataclass(eq=False)
class MatrixMap:
    """A Hermiticity-preserving linear map phi : M_n -> M_m.

    The Choi matrix is the canonical representation. A map built from
    Holevo terms keeps them, since they certify entanglement breaking,
    which the Choi matrix alone does not.
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray
    holevo: HolevoForm | None = None

    def __post_init__(self) -> None:
        n, m = self.dim_in, self.dim_out
        if n < 1 or m < 1:
            raise DimensionError("map dimensions must be positive")
        _check_choi_size(n, m)
        self.choi = check_bipartite(self.choi, (n, m))
        scale = max(1.0, frob(self.choi))
        if hermitian_deviation(self.choi) > DEFAULT_TOL.psd_slack * scale:
            raise DomainError("Choi matrix is not Hermitian within tolerance")

    def choi4(self) -> np.ndarray:
        """Choi tensor reshaped to indices [in_row, out_row, in_col, out_col]."""
        n, m = self.dim_in, self.dim_out
        return self.choi.reshape(n, m, n, m)


@dataclass(eq=False)
class BipartiteState:
    """An unnormalized state (PSD matrix with positive trace) on M_n (x) M_m,
    with the least eigenvalue of the one checked spectrum that finds it PSD
    at tol's slack; a density that fails raises DomainError with that
    spectrum's least eigenvector as its ``witness``."""

    dims: tuple[int, int]
    density: np.ndarray
    tol: InitVar[Tolerances] = DEFAULT_TOL
    min_eigenvalue: float = field(init=False)

    def __post_init__(self, tol: Tolerances) -> None:
        n, m = self.dims
        self.dims = (int(n), int(m))
        self.density = check_bipartite(self.density, self.dims)
        ok, low, vec = psd_verdicts(self.density, tol)
        if not ok:
            err = DomainError("state density is not PSD within tolerance")
            err.witness = vec
            raise err
        self.min_eigenvalue = float(low)
        if self.mass <= 0.0:
            raise DomainError("state must have positive trace")

    @property
    def mass(self) -> float:
        return float(np.real(np.trace(self.density)))

    def normalized(self, tol: Tolerances = DEFAULT_TOL) -> "BipartiteState":
        return BipartiteState(self.dims, self.density / self.mass, tol)


def choi_from_action(n: int, m: int, action) -> MatrixMap:
    """Build a map from a callable computing phi(a) on M_n inputs."""
    _check_choi_size(n, m)
    c4 = np.zeros((n, m, n, m), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            image = as_matrix(action(e_matrix(i, j, n)))
            if image.shape != (m, m):
                raise DimensionError(
                    f"action returned shape {image.shape}, expected ({m}, {m})"
                )
            c4[i, :, j, :] = image
    return MatrixMap(n, m, c4.reshape(n * m, n * m))


def apply_map(f: MatrixMap, a: np.ndarray) -> np.ndarray:
    """Evaluate phi(a) by contracting the Choi tensor against ``a``."""
    a = as_matrix(a)
    if a.shape != (f.dim_in, f.dim_in):
        raise DimensionError(
            f"input shape {a.shape} does not match map input dimension {f.dim_in}"
        )
    return np.einsum("ij,ikjl->kl", a, f.choi4())


def apply_to_second(
    x: np.ndarray, dims: tuple[int, int], f: MatrixMap
) -> np.ndarray:
    """Evaluate (id (x) phi)(x) on an operator over M_n (x) M_m.

    A stack ``(..., nm, nm)`` is mapped matrix by matrix. Raises
    DimensionError unless x acts on the n x m composite and phi on M_m.
    """
    n, m = dims
    if f.dim_in != m:
        raise DimensionError(
            f"map input dimension {f.dim_in} does not match second factor {m}"
        )
    a = check_bipartite(x, dims, stacked=True)
    lead = a.shape[:-2]
    x4 = a.reshape(lead + (n, m, n, m))
    out4 = np.einsum("...ikjl,kalb->...iajb", x4, f.choi4())
    p = f.dim_out
    return out4.reshape(lead + (n * p, n * p))


def map_adjoint(f: MatrixMap) -> MatrixMap:
    """Adjoint map phi* : M_m -> M_n for the Hilbert-Schmidt pairing.

    Index bookkeeping: the adjoint's Choi tensor is the original one
    read backwards, D[k,i,l,j] = C[j,l,i,k], which for Hermitian C is
    the entrywise rule phi*(f_kl)[i,j] = conj(phi(e_ij)[k,l]).
    """
    d4 = f.choi4().transpose(3, 2, 1, 0)
    return MatrixMap(f.dim_out, f.dim_in, d4.reshape(f.dim_in * f.dim_out, -1))


def compose(g: MatrixMap, f: MatrixMap) -> MatrixMap:
    """The composition g . f, whose Choi matrix is (id (x) g) of f's."""
    if f.dim_out != g.dim_in:
        raise DimensionError(
            f"cannot compose: inner dimensions {f.dim_out} and {g.dim_in} differ"
        )
    _check_choi_size(f.dim_in, g.dim_out)
    choi = apply_to_second(f.choi, (f.dim_in, f.dim_out), g)
    return MatrixMap(f.dim_in, g.dim_out, choi)


def kraus_to_map(ops) -> MatrixMap:
    """Completely positive map x -> sum_k V_k x V_k* from Kraus operators."""
    ops = tuple(as_matrix(v, square=False) for v in ops)
    if not ops:
        raise DomainError("need at least one Kraus operator")
    m, n = ops[0].shape
    _check_choi_size(n, m)
    c4 = np.zeros((n, m, n, m), dtype=np.complex128)
    for v in ops:
        if v.shape != (m, n):
            raise DimensionError("Kraus operators must share one shape")
        c4 += np.einsum("ki,lj->ikjl", v, v.conj())
    return MatrixMap(n, m, c4.reshape(n * m, n * m))


def holevo_to_map(form: HolevoForm) -> MatrixMap:
    """Entanglement breaking map from its Holevo expansion.

    C_phi = sum_k omega_k^T (x) b_k, separable by construction.
    """
    n, m = form.dim_in, form.dim_out
    _check_choi_size(n, m)
    choi = np.zeros((n * m, n * m), dtype=np.complex128)
    for omega, b in form.terms:
        choi += kron(omega.T, b)
    return MatrixMap(n, m, choi, holevo=form)


def state_from_map(f: MatrixMap) -> BipartiteState:
    """Bipartite state implementing the functional of a CP map.

    The density is the global transpose of the Choi matrix; it is PSD
    exactly when the map is completely positive, so non-CP maps are
    rejected here, by the PSD verdict at the default slack that
    BipartiteState takes, with the witness its spectrum names.
    """
    try:
        return BipartiteState((f.dim_in, f.dim_out), f.choi.T.copy())
    except DomainError as exc:
        if not hasattr(exc, "witness"):
            raise
        err = DomainError(
            "map is not completely positive, its functional is not a state"
        )
        err.witness = exc.witness
        raise err


def map_from_state(s: BipartiteState) -> MatrixMap:
    """Inverse of state_from_map; always lands on a CP map."""
    n, m = s.dims
    return MatrixMap(n, m, s.density.T.copy())


def pairing_value(f: MatrixMap, a: np.ndarray, b: np.ndarray) -> complex:
    """The duality pairing Tr(phi(a) b^T).

    Defined for every map, positive or not; equals the expectation of
    a (x) b in the state of the map whenever that state exists.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if b.shape != (f.dim_out, f.dim_out):
        raise DimensionError(
            f"second argument shape {b.shape} does not match output dimension"
        )
    value = complex(np.trace(apply_map(f, a) @ b.T))
    if not np.isfinite(value):
        raise NumericalError("pairing value overflows")
    return value


def maximally_entangled_matrix(n: int) -> np.ndarray:
    """The rank-one matrix P = sum_ij e_ij (x) e_ij of trace n.

    P / n is the maximally entangled projection, and P itself is the
    Choi matrix of the identity map.
    """
    psi = np.zeros(n * n, dtype=np.complex128)
    for i in range(n):
        psi[i * n + i] = 1.0
    return np.outer(psi, psi.conj())


def identity_map(n: int) -> MatrixMap:
    """The identity on M_n; its Choi matrix is n times the maximally
    entangled projection."""
    _check_choi_size(n, n)
    return MatrixMap(n, n, maximally_entangled_matrix(n))


def transpose_map(n: int) -> MatrixMap:
    """The transpose on M_n; its Choi matrix is the swap operator."""
    _check_choi_size(n, n)
    c4 = np.zeros((n, n, n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            c4[i, j, j, i] = 1.0
    return MatrixMap(n, n, c4.reshape(n * n, n * n))
