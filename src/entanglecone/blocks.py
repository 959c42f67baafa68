"""Block structure of separable ensembles and abelian-range analyses.

A separable ensemble splits into components whose factor supports are
mutually orthogonal; the split is found as the connected components of
pairwise support overlaps. The definite set of a map (self-adjoint a with
phi(a^2) = phi(a)^2) drives the splitting identities, and unital
idempotent maps are separable-versus-entangled decidable through
commutativity of their range.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .duality import (
    MAX_CHOI_DIM,
    MAX_ENSEMBLE_ENTRIES,
    BipartiteState,
    HolevoForm,
    MatrixMap,
    apply_map,
    compose,
    holevo_to_map,
    kraus_to_map,
    map_adjoint,
    state_from_map,
)
from .errors import DimensionError, DomainError, NumericalError
from .linalg import (
    CONVERGENCE,
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    e_matrix,
    frob,
    hermitian_deviation,
    hermitian_eigen,
    hermitian_part,
    kron,
    psd_verdicts,
    raise_first_fault,
    support_projection,
)
from .states import witness_battery

logger = logging.getLogger(__name__)

# Trace of a product of projections is near an integer; anything above
# this is a genuine overlap, anything below is orthogonality. At the
# bound of _validate_splitting_identity, an overlap that would break the
# identity across a block boundary joins its terms into one block.
_OVERLAP_THRESHOLD = 1e-9
# Eigenvalue clusters are split at gaps larger than this fraction of
# the spectral spread.
_CLUSTER_GAP = 1e-8

VERDICT_SEPARABLE = "separable"
VERDICT_ENTANGLED = "entangled"


@dataclass(eq=False)
class SeparableEnsemble:
    """Convex combination sum_i w_i a_i (x) b_i of product densities."""

    terms: tuple[tuple[float, np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise DomainError("ensemble needs at least one term")
        checked = []
        n = m = None
        total = 0.0
        for weight, a, b in self.terms:
            weight = float(weight)
            if not np.isfinite(weight):
                raise DomainError("ensemble weights must be finite")
            if weight <= 0.0:
                raise DomainError("ensemble weights must be positive")
            a = as_matrix(a)
            b = as_matrix(b)
            n = n or a.shape[0]
            m = m or b.shape[0]
            if a.shape[0] != n or b.shape[0] != m:
                raise DimensionError("inconsistent factor dimensions in ensemble")
            total += weight
            checked.append((weight, a, b))
        if n * m > MAX_CHOI_DIM or len(checked) * (n * m) ** 2 > MAX_ENSEMBLE_ENTRIES:
            raise DimensionError(
                f"ensemble of {len(checked)} terms on dims ({n}, {m}) exceeds the "
                f"caps n*m <= {MAX_CHOI_DIM} and terms*(n*m)^2 <= "
                f"{MAX_ENSEMBLE_ENTRIES}"
            )
        self.terms = tuple(checked)
        # One spectrum per side. Of the terms failing these checks the
        # first reports, a before b and positivity before trace.
        _, a, b = _stacked(self)
        faults = []
        for label, factors in (("a", a), ("b", b)):
            trace = np.trace(factors, axis1=-2, axis2=-1).real
            faults += [
                (~psd_verdicts(factors)[0], f"ensemble factor {label} is not PSD"),
                (np.abs(trace - 1.0) > 1e-9,
                 f"ensemble factor {label} must have trace one"),
            ]
        raise_first_fault(faults)
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"ensemble weights sum to {total!r}, expected 1")

    @property
    def dims(self) -> tuple[int, int]:
        return (self.terms[0][1].shape[0], self.terms[0][2].shape[0])

    def density_matrix(self) -> np.ndarray:
        """sum_i w_i a_i (x) b_i, not re-proven PSD."""
        n, m = self.dims
        weights, a, b = _stacked(self)
        # The weighted products fold in term order starting from zero
        # (np.add.at is unbuffered): the term-by-term sum, bit for bit.
        products = weights[:, None, None] * kron(a, b)
        density = np.zeros((1, n * m, n * m), dtype=np.complex128)
        np.add.at(density, np.zeros(len(weights), dtype=int), products)
        return density[0]

    def to_state(self) -> BipartiteState:
        return BipartiteState(self.dims, self.density_matrix())

    def to_holevo(self) -> HolevoForm:
        """The Holevo-form map whose dual functional is this ensemble.

        The pairing Tr(phi(a) b^t) puts a transpose on the output side,
        so the terms carry b^t; state_from_map of the result reproduces
        to_state() exactly.
        """
        return HolevoForm(tuple((w * a, b.T.copy()) for w, a, b in self.terms))


def _stacked(ens: SeparableEnsemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weights (k,) and factor stacks (k, n, n), (k, m, m) of the terms."""
    return (
        np.array([w for w, _, _ in ens.terms]),
        np.stack([a for _, a, _ in ens.terms]),
        np.stack([b for _, _, b in ens.terms]),
    )


@dataclass(eq=False)
class BlockComponent:
    indices: tuple[int, ...]
    e: np.ndarray
    f: np.ndarray
    weight: float
    state: BipartiteState


@dataclass(eq=False)
class BlockDecomposition:
    components: tuple[BlockComponent, ...]
    max_cross_overlap: float


def is_definite_element(f: MatrixMap, a: np.ndarray) -> bool:
    """Whether phi(a^2) = phi(a)^2 within CONVERGENCE."""
    a = as_matrix(a)
    if hermitian_deviation(a) > CONVERGENCE * max(1.0, frob(a)):
        raise DomainError("definite-set membership is defined for Hermitian inputs")
    fa = apply_map(f, a)
    fa2 = apply_map(f, a @ a)
    return frob(fa2 - fa @ fa) <= CONVERGENCE * max(1.0, frob(fa) ** 2)


def _is_projection(p: np.ndarray, tol: Tolerances) -> bool:
    scale = max(1.0, frob(p))
    return (
        hermitian_deviation(p) <= tol.psd_slack * scale
        and frob(p @ p - p) <= tol.psd_slack * max(1.0, scale * scale)
    )


def split_by_projection(
    f: MatrixMap,
    e: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Whether the map splits across e and 1 - e.

    Checks that phi(e) and phi(f), f = 1 - e, are orthogonal
    projections, and the two splitting identities

        phi(x) = phi(exe) + phi(fxf)
        phi(x) = phi(e) phi(x) phi(e) + phi(f) phi(x) phi(f)

    as the map identities phi = phi . (Ad_e + Ad_f) and
    phi = (Ad_phi(e) + Ad_phi(f)) . phi on the Choi matrices, whose
    distance aggregates the per-input distances over any orthonormal
    basis, under one bound relative to the map's Choi matrix. Requires
    e to be a projection in the definite set; membership alone does not
    force the split, so a False return is a meaningful answer, not an
    error.
    """
    e = as_matrix(e)
    if e.shape != (f.dim_in, f.dim_in):
        raise DimensionError("projection size does not match map input")
    if not _is_projection(e, tol):
        raise DomainError("splitting requires a projection")
    if not is_definite_element(f, e):
        raise DomainError("projection is not in the definite set of the map")

    fc = np.eye(f.dim_in) - e
    pe = apply_map(f, e)
    pf = apply_map(f, fc)
    check_tol = 1e-9
    if not (_is_projection(pe, tol) and _is_projection(pf, tol)):
        return False
    if frob(pe @ pf) > check_tol * max(1.0, frob(pe) * frob(pf)):
        return False

    bound = check_tol * max(1.0, frob(f.choi))
    split_inputs = compose(f, kraus_to_map([e, fc]))
    split_outputs = compose(kraus_to_map([pe, pf]), f)
    return (
        frob(split_inputs.choi - f.choi) <= bound
        and frob(split_outputs.choi - f.choi) <= bound
    )


def decompose_separable(
    ens: SeparableEnsemble, tol: Tolerances = DEFAULT_TOL
) -> BlockDecomposition:
    """Split an ensemble into components with orthogonal factor supports.

    Terms are related when their supports overlap on either factor;
    connected components of that relation are the blocks. The result is
    validated in place: support containment, and the splitting identity
    omega_i(e) omega_j(1-e) Tr(b_i b_j) = 0 across each block boundary.
    The weighted components sum to the ensemble's density by
    construction, since they regroup the same weighted products, so
    that sum is not checked again.
    """
    k = len(ens.terms)
    n, m = ens.dims
    weights, a, b = _stacked(ens)

    # Tr(P_i P_j) for every pair of term supports, one Gram matrix a side.
    related = np.zeros((k, k), dtype=bool)
    for factors in (a, b):
        supports = support_projection(factors, tol)
        overlap = np.einsum("ixy,jyx->ij", supports, supports).real
        related |= overlap > _OVERLAP_THRESHOLD
    # Square the relation until it stops growing: each term then reaches its
    # whole component, whose smallest term (the row's first True) is the root
    # and orders the components; label[i] is term i's component.
    related = np.triu(related, 1)
    reach = related | related.T | np.eye(k, dtype=bool)
    while not np.array_equal(grown := reach @ reach, reach):
        reach = grown
    roots, label = np.unique(reach.argmax(axis=1), return_inverse=True)
    c = len(roots)

    # Per-component sums fold their terms in index order starting from
    # zero (np.add.at is unbuffered), so each reported matrix is the plain
    # term-by-term sum, bit for bit.
    weight = np.zeros(c)
    np.add.at(weight, label, weights)
    sum_a = np.zeros((c, n, n), dtype=np.complex128)
    np.add.at(sum_a, label, a)
    sum_b = np.zeros((c, m, m), dtype=np.complex128)
    np.add.at(sum_b, label, b)
    # w_i / weight * kron(a_i, b_i), scaled in place to keep one copy.
    scaled = kron(a, b)
    scaled *= (weights / weight[label])[:, None, None]
    density = np.zeros((c, n * m, n * m), dtype=np.complex128)
    np.add.at(density, label, scaled)
    e = support_projection(sum_a, tol)
    f = support_projection(sum_b, tol)

    outside = np.maximum(
        np.linalg.norm(e[label] @ a - a, axis=(-2, -1)),
        np.linalg.norm(f[label] @ b - b, axis=(-2, -1)),
    )
    if (outside > 1e-8).any():
        raise NumericalError("component support does not contain one of its terms")

    _validate_splitting_identity(a, b, e)

    components = tuple(
        BlockComponent(
            tuple(np.flatnonzero(label == s).tolist()),
            e[s],
            f[s],
            float(weight[s]),
            BipartiteState((n, m), density[s]),
        )
        for s in range(c)
    )
    # frob of each 2-D product: a stacked norm sums in another order, and
    # the reported maximum would move in its last bits.
    max_cross = 0.0
    for s, t in itertools.combinations(range(c), 2):
        max_cross = max(max_cross, frob(e[s] @ e[t]), frob(f[s] @ f[t]))
    return BlockDecomposition(components, max_cross)


def _validate_splitting_identity(a: np.ndarray, b: np.ndarray, e: np.ndarray) -> None:
    """The boundary identity omega_i(e) omega_j(1-e) Tr(b_i b_j) ~ 0.

    This is the consequence of the splitting theorem that the
    construction actually guarantees; it must hold for every component
    projection e[c] against every pair of terms (a_i, b_i), (a_j, b_j),
    checked as one (c, k, k) array.
    """
    complement = np.eye(a.shape[-1]) - e
    omega_e = np.einsum("cxy,iyx->ci", e, a).real
    omega_f = np.einsum("cxy,jyx->cj", complement, a).real
    cross = np.einsum("ixy,jyx->ij", b, b).real
    identity = omega_e[:, :, None] * omega_f[:, None, :] * cross
    if (np.abs(identity) > 1e-9).any():
        raise NumericalError("splitting identity violated across a block boundary")


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Standard Hermitian basis of M_n: diagonal units, symmetric and
    antisymmetric pair combinations."""
    basis = [e_matrix(i, i, n) for i in range(n)]
    root_half = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            basis.append(root_half * (e_matrix(i, j, n) + e_matrix(j, i, n)))
            basis.append(root_half * 1j * (e_matrix(i, j, n) - e_matrix(j, i, n)))
    return basis


@dataclass(eq=False)
class NotAbelian:
    """Evidence that a map's range fails to commute."""

    pair: tuple[int, int]
    commutator_norm: float


def abelian_range_decompose(
    f: MatrixMap, tol: Tolerances = DEFAULT_TOL
) -> HolevoForm | NotAbelian:
    """Spectral resolution of a map whose range is commutative.

    The images of a Hermitian basis either all commute, or some pair
    fails to commute and that pair is returned as evidence. Commuting
    images share their eigenspaces, found by refinement: starting from
    the whole space as one block, each image in turn splits every block
    on which its compression is not a scalar along the eigenvalue
    clusters of that compression. The blocks' projections p_r give
    phi(x) = sum_r omega_r(x) p_r; the Holevo form's Choi matrix must
    rebuild the map's within 1e-9 relative, or NumericalError is raised.
    """
    basis = hermitian_basis(f.dim_in)
    images = np.stack([hermitian_part(apply_map(f, h)) for h in basis])
    scale = np.linalg.norm(images, axis=(-2, -1))

    # Row k holds the pairs (k, l > k); the first failing row and its first
    # failing column give the first pair in row-major order.
    for k in range(len(images) - 1):
        rest = images[k + 1:]
        norm = np.linalg.norm(images[k] @ rest - rest @ images[k], axis=(-2, -1))
        bound = CONVERGENCE * np.maximum(1.0, scale[k] * scale[k + 1:])
        bad = np.flatnonzero(norm > bound)
        if bad.size:
            return NotAbelian((k, k + 1 + int(bad[0])), float(norm[bad[0]]))

    blocks = [np.eye(f.dim_out, dtype=np.complex128)]
    for g in images:
        if len(blocks) == f.dim_out:
            break  # every block is rank one, so none can split further
        refined = []
        for block in blocks:
            d = block.shape[1]
            comp = block.conj().T @ g @ block
            mean = np.trace(comp) / d
            if frob(comp - mean * np.eye(d)) <= 1e-8 * max(1.0, frob(comp)):
                refined.append(block)
                continue
            w, v = hermitian_eigen(comp)
            cuts = np.flatnonzero(w[:-1] - w[1:] > _CLUSTER_GAP * (w[0] - w[-1]))
            refined.extend(np.split(block @ v, cuts + 1, axis=1))
        blocks = refined

    adjoint = map_adjoint(f)
    terms = []
    for block in blocks:
        p = block @ block.conj().T
        rank = float(np.real(np.trace(p)))
        sigma = hermitian_part(apply_map(adjoint, p)) / rank
        if frob(sigma) <= tol.psd_slack:
            continue
        terms.append((sigma, p))
    form = HolevoForm(tuple(terms))

    # The Hermitian basis is orthonormal, so the Choi matrices' distance
    # is the root sum of squares of the two maps' distances on it: the
    # aggregate of the per-image identity, under one relative bound.
    if frob(holevo_to_map(form).choi - f.choi) > 1e-9 * max(1.0, frob(f.choi)):
        raise NumericalError(
            "spectral resolution does not reproduce the map within tolerance"
        )
    return form


@dataclass(eq=False)
class ExpectationReport:
    """Separability verdict for a unital idempotent map."""

    verdict: str
    certificate: HolevoForm | None
    commutator: NotAbelian | None
    state_report: object | None


def conditional_expectation_verdict(
    f: MatrixMap, tol: Tolerances = DEFAULT_TOL
) -> ExpectationReport:
    """Decide separability of a conditional expectation's functional.

    The functional is separable exactly when the range is abelian; the
    abelian branch returns the explicit Holevo certificate, the
    non-abelian branch cross-checks that the map's state really is
    detected as entangled, failing loudly if not.
    """
    if f.dim_in != f.dim_out:
        raise DomainError("a conditional expectation maps an algebra to itself")
    n = f.dim_in
    eye = np.eye(n)
    if frob(apply_map(f, eye) - eye) > CONVERGENCE * max(1.0, float(n)):
        raise DomainError("map is not unital")
    # On the Choi matrices, as in abelian_range_decompose: the aggregate of
    # phi(phi(x)) = phi(x) over an orthonormal basis, under one relative bound.
    if frob(compose(f, f).choi - f.choi) > CONVERGENCE * max(1.0, frob(f.choi)):
        raise DomainError("map is not idempotent")

    outcome = abelian_range_decompose(f, tol)
    if isinstance(outcome, HolevoForm):
        return ExpectationReport(VERDICT_SEPARABLE, outcome, None, None)

    # state_from_map checks the density at the default slack, the battery at tol.
    report = witness_battery(state_from_map(f), tol)
    if report.ppt and report.entanglement != "certified-entangled":
        raise NumericalError(
            "non-abelian range but the map's state evaded every witness"
        )
    return ExpectationReport(VERDICT_ENTANGLED, None, outcome, report)
