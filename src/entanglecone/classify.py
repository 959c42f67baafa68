"""Where a map sits in the positivity hierarchy.

Complete positivity and copositivity are exact spectral facts about the
Choi matrix and its partial transpose. Positivity of the map itself is
equivalent to block positivity of the Choi matrix, which has no
eigenvalue characterization; it is estimated by alternating
minimization over product vectors. A negative minimum certifies
non-positivity, a nonnegative one is evidence labeled
"probably-positive", never a proof.
"""
from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass

import numpy as np

from .duality import (
    HolevoForm,
    MatrixMap,
    compose,
    identity_map,
    kraus_to_map,
    map_transpose_conjugate,
    state_from_map,
    transpose_map,
)
from .errors import DomainError, NumericalError
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    frob,
    hermitian_eigen,
    hermitian_part,
    is_psd,
    partial_transpose,
)
from .rng import derive_stream, random_unitary

logger = logging.getLogger(__name__)

CERTIFIED_NONPOSITIVE = "certified-nonpositive"
PROBABLY_POSITIVE = "probably-positive"

EB_SEPARABLE = "certified-separable-choi"
EB_ENTANGLED = "certified-entangled-choi"
EB_INCONCLUSIVE = "inconclusive"
EB_NOT_APPLICABLE = "not-applicable"

# Internal seed fixing the witness library twists; constant so the
# library is identical across processes and independent of run seeds.
_LIBRARY_SEED = 0x1BCE11


# Cap on Budget.restarts: block_positivity_minimize holds every restart's
# vectors in one stack, so the cap bounds its memory before any stream
# is derived.
MAX_RESTARTS = 4096


@dataclass(frozen=True)
class Budget:
    """Restart and iteration caps for the product-vector minimizer."""

    restarts: int = 64
    iterations: int = 500

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.iterations < 1:
            raise DomainError("budget must allow at least one restart and iteration")
        if self.restarts > MAX_RESTARTS:
            raise DomainError(
                f"budget allows at most {MAX_RESTARTS} restarts, got {self.restarts}"
            )


DEFAULT_BUDGET = Budget()


@dataclass(eq=False)
class BlockMinimum:
    """Best product-vector value found for <x (x) y, C (x (x) y)>."""

    value: float
    x: np.ndarray
    y: np.ndarray
    converged: bool
    restart: int


def block_positivity_minimize(
    c: np.ndarray,
    dims: tuple[int, int],
    budget: Budget = DEFAULT_BUDGET,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> BlockMinimum:
    """Minimize <x (x) y, C (x (x) y)> over unit product vectors.

    Alternating eigenvector iteration: with x fixed, the optimal y is
    the bottom eigenvector of the second-factor compression
    (x* (x) I) C (x (x) I), and vice versa, so each half-step is exact
    and the value never increases. Restarts draw x from streams derived
    from (seed, restart index) and advance together as one stack: each
    half-step compresses and diagonalises every active restart at once,
    and a restart leaves the active set in the iteration where its
    value stops changing. The winner is picked by (value, restart
    index), which makes the result independent of execution order.
    """
    n, m = dims
    c = as_matrix(c)
    if c.shape != (n * m, n * m):
        raise DomainError(f"matrix shape {c.shape} does not match dims {dims}")
    c4 = c.reshape(n, m, n, m)
    scale = max(1.0, frob(c))

    restarts = budget.restarts
    x = np.stack(
        [derive_stream(seed, r).complex_unit_vector(n) for r in range(restarts)]
    )
    y = np.zeros((restarts, m), dtype=np.complex128)
    value = np.full(restarts, np.inf)
    converged = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    for _ in range(budget.iterations):
        xa = x[active]
        w, v = hermitian_eigen(
            hermitian_part(np.einsum("ri,ikjl,rj->rkl", xa.conj(), c4, xa)), tol
        )
        new_value, ya = w[:, -1], v[:, :, -1]
        _, v = hermitian_eigen(
            hermitian_part(np.einsum("rk,ikjl,rl->rij", ya.conj(), c4, ya)), tol
        )
        x[active] = v[:, :, -1]
        y[active] = ya
        done = np.abs(value[active] - new_value) < tol.convergence * scale
        value[active] = new_value
        converged[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break

    best = int(np.argmin(value))  # the first minimum: the lowest restart index
    return BlockMinimum(
        float(value[best]), x[best], y[best], bool(converged[best]), best
    )


def is_cp(
    f: MatrixMap, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, np.ndarray | None]:
    """Complete positivity: the Choi matrix is PSD."""
    return is_psd(f.choi, tol)


def is_copositive(
    f: MatrixMap, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, np.ndarray | None]:
    """Copositivity: the partial transpose of the Choi matrix is PSD.

    That array is also the Choi matrix of the transpose-composed map,
    so complete positivity of post_transpose(f) is the same test.
    """
    return is_psd(partial_transpose(f.choi, (f.dim_in, f.dim_out), "second"), tol)


@dataclass(eq=False)
class MapClassReport:
    """Everything classify_map can say about one map."""

    dim_in: int
    dim_out: int
    cp: bool
    cp_witness: np.ndarray | None
    copositive: bool
    copositive_witness: np.ndarray | None
    block_min: float
    block_x: np.ndarray
    block_y: np.ndarray
    block_converged: bool
    positive_verdict: str
    eb_verdict: str
    eb_certificate: HolevoForm | None = None
    eb_witness_name: str | None = None


def classify_map(
    f: MatrixMap,
    budget: Budget = DEFAULT_BUDGET,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> MapClassReport:
    """Run the full battery of cone-membership tests on one map."""
    cp, cp_witness = is_cp(f, tol)
    cop, cop_witness = is_copositive(f, tol)
    best = block_positivity_minimize(f.choi, (f.dim_in, f.dim_out), budget, seed, tol)
    slack = tol.psd_slack * max(1.0, frob(f.choi))
    if best.value < -slack:
        positive_verdict = CERTIFIED_NONPOSITIVE
    else:
        positive_verdict = PROBABLY_POSITIVE
    if cp and positive_verdict == CERTIFIED_NONPOSITIVE:
        raise NumericalError(
            "map is CP yet the product-vector search reports a negative value"
        )

    eb_verdict = EB_INCONCLUSIVE
    eb_certificate = None
    eb_witness_name = None
    if not cp:
        # The Choi functional of a non-CP map is not a state, so the
        # separable-versus-entangled question does not arise.
        eb_verdict = EB_NOT_APPLICABLE
    elif f.form == "holevo" and f.holevo is not None:
        eb_verdict = EB_SEPARABLE
        eb_certificate = f.holevo
    else:
        from .states import witness_battery

        # The battery checks the density at tol itself; state_from_map
        # checking it there too would take the same spectrum twice.
        state = state_from_map(f)
        report = witness_battery(state, default_witness_library(f.dim_out), tol)
        if report.entanglement == "certified-entangled":
            eb_verdict = EB_ENTANGLED
            eb_witness_name = report.certificate_name

    return MapClassReport(
        dim_in=f.dim_in,
        dim_out=f.dim_out,
        cp=cp,
        cp_witness=cp_witness,
        copositive=cop,
        copositive_witness=cop_witness,
        block_min=best.value,
        block_x=best.x,
        block_y=best.y,
        block_converged=best.converged,
        positive_verdict=positive_verdict,
        eb_verdict=eb_verdict,
        eb_certificate=eb_certificate,
        eb_witness_name=eb_witness_name,
    )


def _choi_action(x: np.ndarray) -> np.ndarray:
    d = np.diag(
        [
            x[0, 0] + x[2, 2],
            x[1, 1] + x[0, 0],
            x[2, 2] + x[1, 1],
        ]
    )
    off = x - np.diag(np.diag(x))
    return d - off


@functools.lru_cache(maxsize=1)
def builtin_choi_map() -> MatrixMap:
    """The nondecomposable witness map on M3.

    Sends x to diag(x11 + x33, x22 + x11, x33 + x22) minus the
    off-diagonal part of x. Validated at construction: block positive
    under the default search budget, yet neither CP nor copositive.
    Several sign and diagonal conventions circulate for this map; this
    one is pinned by passing that validation triple.
    """
    from .duality import choi_from_action

    f = choi_from_action(3, 3, _choi_action)
    screen = block_positivity_minimize(
        f.choi, (3, 3), Budget(restarts=16, iterations=200), seed=0
    )
    cp, _ = is_cp(f)
    cop, _ = is_copositive(f)
    slack = DEFAULT_TOL.psd_slack * max(1.0, frob(f.choi))
    if screen.value < -slack or cp or cop:
        raise NumericalError(
            "builtin witness map failed its validation triple; "
            "this indicates an implementation bug"
        )
    return f


def _conjugation(u: np.ndarray) -> MatrixMap:
    return kraus_to_map([u])


@dataclass(eq=False)
class WitnessLibrary:
    """Named positive maps applied as id (x) psi in the state battery."""

    entries: tuple[tuple[str, MatrixMap], ...]


@functools.lru_cache(maxsize=8)
def default_witness_library(m: int) -> WitnessLibrary:
    """Positive maps with input dimension m, screened for block positivity.

    Always contains the identity and the transpose. For m = 3 it adds
    the builtin witness map, its transpose conjugate, a composition
    with the transpose, and two unitary twists a phi(b x b*) a*, which
    stay positive and widen the set of detectable states. Entries
    failing the block-positivity screen are dropped with a warning
    rather than silently kept.
    """
    candidates: list[tuple[str, MatrixMap]] = [
        (f"identity{m}", identity_map(m)),
        (f"transpose{m}", transpose_map(m)),
    ]
    if m == 3:
        base = builtin_choi_map()
        candidates.append(("choi3", base))
        candidates.append(("choi3-tconj", map_transpose_conjugate(base)))
        candidates.append(("choi3-post-t", compose(transpose_map(3), base)))
        for k in (1, 2):
            stream = derive_stream(_LIBRARY_SEED, k)
            a = random_unitary(stream, 3)
            b = random_unitary(stream, 3)
            twisted = compose(_conjugation(a), compose(base, _conjugation(b)))
            candidates.append((f"choi3-twist{k}", twisted))

    kept = []
    for name, f in candidates:
        screen = block_positivity_minimize(
            f.choi,
            (f.dim_in, f.dim_out),
            Budget(restarts=16, iterations=200),
        )
        slack = DEFAULT_TOL.psd_slack * max(1.0, frob(f.choi))
        if screen.value < -slack:
            logger.warning(
                "dropping witness %s: block minimum %.3e fails screening",
                name,
                screen.value,
            )
            continue
        kept.append((name, f))
    return WitnessLibrary(entries=tuple(kept))


_BUILTIN_PATTERN = re.compile(r"^(identity|transpose)([1-9][0-9]?)$")


def builtin_map(name: str) -> MatrixMap:
    """Resolve a builtin map name: identity{n}, transpose{n}, choi3."""
    if name == "choi3":
        return builtin_choi_map()
    match = _BUILTIN_PATTERN.match(name)
    if match is None:
        raise DomainError(f"unknown builtin map {name!r}")
    n = int(match.group(2))
    if match.group(1) == "identity":
        return identity_map(n)
    return transpose_map(n)


def verify_block_value(
    f: MatrixMap, x: np.ndarray, y: np.ndarray
) -> float:
    """Re-evaluate <x (x) y, C (x (x) y)> for certificate checking."""
    prod = np.kron(x, y)
    return float(np.real(prod.conj() @ f.choi @ prod))
