"""Dense Hermitian linear algebra on small matrix algebras.

Conventions used everywhere in this package:

* matrices are complex numpy arrays indexed from zero,
* a bipartite operator on ``M_n (x) M_m`` lives on the Kronecker
  composite where basis vector ``(i, k)`` maps to row ``i * m + k``,
* eigenvalues are reported in descending order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError

FIRST = "first"
SECOND = "second"


# Threshold of the eigensolver's Hermiticity and residual checks, and of
# the iterations' convergence tests; relative to the operand's norm.
CONVERGENCE = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """The one user-settable threshold, the CLI's --tol-psd.

    psd_slack   slack below zero allowed for "positive semidefinite",
                scaled by max(1, Frobenius norm) of the operand (psd_floor).
    """

    psd_slack: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.psd_slack <= 1e-3):
            raise DomainError(
                f"tolerance psd_slack={self.psd_slack!r} must lie in (0, 1e-3]"
            )


DEFAULT_TOL = Tolerances()


def as_matrix(x, square: bool = True, stacked: bool = False) -> np.ndarray:
    """Coerce to a finite, nonempty complex 2-D array, validating shape.

    With ``stacked`` a stack of matrices ``(..., k, l)`` is accepted too.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if 0 in a.shape[-2:]:
        raise DimensionError(f"expected a nonempty matrix, got shape {a.shape}")
    if square and a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix contains non-finite entries")
    return a


def frob(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(x + x*) / 2, idempotent bit for bit: both parts are halved as
    reals, since a complex division by 2 + 0j can flip the sign of a zero."""
    s = np.add(x, x.conj().swapaxes(-1, -2), order="C")
    return (s.view(s.real.dtype) * 0.5).view(s.dtype)


def hermitian_deviation(x: np.ndarray) -> float | np.ndarray:
    """Frobenius distance to the adjoint, per matrix for a stack."""
    return np.linalg.norm(x - x.conj().swapaxes(-1, -2), axis=(-2, -1))


def e_matrix(i: int, j: int, n: int) -> np.ndarray:
    """Matrix unit e_ij in M_n."""
    out = np.zeros((n, n), dtype=np.complex128)
    out[i, j] = 1.0
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, matrix by matrix for stacks ``(..., k, l)``.

    The entries are np.kron's products, bit for bit.
    """
    a = as_matrix(a, square=False, stacked=True)
    b = as_matrix(b, square=False, stacked=True)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(lead + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def check_bipartite(
    x: np.ndarray, dims: tuple[int, int], stacked: bool = False
) -> np.ndarray:
    """Coerce to a finite square matrix acting on the n x m composite.

    With ``stacked`` a stack of such matrices ``(..., nm, nm)`` is
    accepted too.
    """
    n, m = dims
    if n < 1 or m < 1:
        raise DimensionError(f"factor dimensions must be positive, got {dims}")
    a = as_matrix(x, stacked=stacked)
    if a.shape[-1] != n * m:
        raise DimensionError(
            f"matrix of shape {a.shape} does not act on a {n}x{m} composite"
        )
    return a


def _side_axis(side: str) -> str:
    s = str(side).lower()
    if s not in (FIRST, SECOND):
        raise DomainError(f"side must be {FIRST!r} or {SECOND!r}, got {side!r}")
    return s


def partial_transpose(
    x: np.ndarray, dims: tuple[int, int], side: str = SECOND
) -> np.ndarray:
    """Transpose one tensor factor of an operator on M_n (x) M_m."""
    n, m = dims
    a = check_bipartite(x, dims)
    if _side_axis(side) == SECOND:
        return transpose_second(a, dims)
    return a.reshape(n, m, n, m).transpose(2, 1, 0, 3).reshape(n * m, n * m)


def transpose_second(a: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Second-factor partial transpose without partial_transpose's checks.

    For inner loops whose operand check_bipartite has already accepted;
    a stack ``(..., nm, nm)`` is transposed matrix by matrix.
    """
    n, m = dims
    return a.reshape(a.shape[:-2] + (n, m, n, m)).swapaxes(-3, -1).reshape(a.shape)


def partial_trace(
    x: np.ndarray, dims: tuple[int, int], side: str = FIRST
) -> np.ndarray:
    """Trace out one tensor factor, returning the reduced operator."""
    n, m = dims
    a = check_bipartite(x, dims).reshape(n, m, n, m)
    if _side_axis(side) == FIRST:
        return np.einsum("ikil->kl", a)
    return np.einsum("ikjk->ij", a)


def hermitian_eigen(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian matrix or a stack of them.

    Returns ``(w, V)`` with eigenvalues ``w`` sorted descending and the
    matching unit eigenvectors in the columns of ``V``; a stack
    ``(..., k, k)`` gives ``w`` of shape ``(..., k)`` and ``V`` of
    shape ``(..., k, k)``, each slice equal to the call on that matrix.
    Raises DomainError when any matrix is not Hermitian within
    CONVERGENCE and NumericalError when the residual check fails
    afterwards; each matrix is measured against its own norm.
    """
    w, v, _ = _checked_eigen(as_matrix(x, stacked=True))
    return w, v


def _checked_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hermitian_eigen of an operand as_matrix has accepted, with the
    Frobenius norm of each matrix, taken once for every check and floor.
    A matrix whose norm overflows has no finite floor or bound, so it
    raises DomainError."""
    norm = np.linalg.norm(a, axis=(-2, -1))
    if not np.isfinite(norm).all():
        raise DomainError("matrix norm overflows")
    if (hermitian_deviation(a) > CONVERGENCE * norm).any():
        raise DomainError("matrix is not Hermitian within tolerance")
    # Symmetrize to absorb roundoff before handing to the solver.
    h = hermitian_part(a)
    w, v = np.linalg.eigh(h)
    # eigh returns eigenvalues in ascending order.
    w = np.ascontiguousarray(w[..., ::-1])
    v = np.ascontiguousarray(v[..., ::-1])
    residual = np.linalg.norm(h @ v - v * w[..., np.newaxis, :], axis=(-2, -1))
    if (residual > CONVERGENCE * np.maximum(1.0, norm)).any():
        raise NumericalError(
            f"eigendecomposition residual {np.max(residual):.3e} exceeds tolerance"
        )
    return w, v, norm


def _floor(norm: float | np.ndarray, tol: Tolerances) -> float | np.ndarray:
    return -tol.psd_slack * np.maximum(1.0, norm)


def psd_floor(x: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float | np.ndarray:
    """-psd_slack * max(1, ||x||_F), per matrix for a stack: the least
    eigenvalue that still counts as positive semidefinite."""
    return _floor(np.linalg.norm(x, axis=(-2, -1)), tol)


def psd_verdicts(
    x: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per matrix of x, one matrix or a stack ``(..., k, k)``: whether
    its least eigenvalue clears psd_floor, that eigenvalue and its unit
    eigenvector, all from one checked hermitian_eigen call."""
    w, v, norm = _checked_eigen(as_matrix(x, stacked=True))
    low = w[..., -1]
    return low >= _floor(norm, tol), low, v[..., -1]


def is_psd(
    x: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, np.ndarray | None]:
    """Positive-semidefiniteness test with a witness on failure.

    Returns ``(True, None)`` when the least eigenvalue clears
    psd_floor, otherwise ``(False, v)`` where the unit vector ``v``
    satisfies ``<v, x v> < 0`` beyond slack.
    """
    ok, _, vec = psd_verdicts(as_matrix(x), tol)
    return (True, None) if ok else (False, vec)


def raise_first_fault(faults: list[tuple[np.ndarray, str]]) -> None:
    """Raise DomainError for the first term failing a check: faults pair a
    per-term failure mask with its message, in check order."""
    failing = np.stack([bad for bad, _ in faults], axis=1)
    if failing.any():
        _, check = np.argwhere(failing)[0]
        raise DomainError(faults[check][1])


def support_projection(
    x: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Orthogonal projection onto the range of a PSD matrix.

    Eigenvalues at or below the slack threshold count as zero, so the
    support of a numerically tiny perturbation of ``p`` is ``p`` again.
    The one spectrum also gives the is_psd verdict. A stack
    ``(..., k, k)`` gives one projection per matrix from one stacked
    spectrum, each measured against its own norm.
    """
    a = as_matrix(x, stacked=True)
    w, v, norm = _checked_eigen(a)
    floor = _floor(norm, tol)
    if (w[..., -1] < floor).any():
        raise DomainError("support projection requires a PSD matrix")
    # Eigenvalues descend, so each kept set is a leading block of columns.
    # Matrices of equal rank share one matmul, bit for bit the 2-D product.
    k = a.shape[-1]
    v = v.reshape(-1, k, k)
    rank = (w > -floor[..., np.newaxis]).sum(axis=-1).reshape(-1)
    out = np.empty_like(v)
    for r in set(rank.tolist()):
        keep = v[rank == r][..., :r]
        out[rank == r] = keep @ keep.conj().swapaxes(-1, -2)
    return out.reshape(a.shape)
