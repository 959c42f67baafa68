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
import time
from dataclasses import dataclass, field

import numpy as np

from .duality import (
    HolevoForm,
    MatrixMap,
    choi_from_action,
    compose,
    identity_map,
    kraus_to_map,
    transpose_map,
)
from .errors import DomainError, NumericalError
from .linalg import (
    CONVERGENCE,
    DEFAULT_TOL,
    Tolerances,
    check_bipartite,
    frob,
    hermitian_part,
    is_psd,
    partial_transpose,
    psd_floor,
    psd_verdicts,
    transpose_second,
)
from .rng import complex_unit_vectors, random_unitary, stream_words

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
    """Best product-vector value found for <x (x) y, C (x (x) y)>.

    ``restart`` is the winning restart's index: the lowest value at the
    restarts' loose exit, ties to the lower index. The other fields are
    that restart's own run to the CONVERGENCE exit.
    """

    value: float
    x: np.ndarray
    y: np.ndarray
    converged: bool
    restart: int


# Restarts leave the stack once their value moves by less than this
# multiple of the CONVERGENCE bound; only the winner then runs on to the
# bound itself. On the first 400 bench classify jobs of seed 7, 1e2 and
# 1e3 moved no block_min by more than 5.2e-10, while 1e4 let a worse
# basin win one job, 2.2e-5 higher (CHANGES.md has the calibration).
_RESTART_EXIT_RATIO = 1e3


def _descend(
    c_second: np.ndarray,
    c_first: np.ndarray,
    x: np.ndarray,
    value: np.ndarray,
    iterations: int,
    bound: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Alternating half-steps on a stack of restarts, each until its value
    moves by less than bound or for `iterations` iterations.

    Row r starts from x[r] with previous value value[r] (inf for a fresh
    start). Returns each row's x, y and value, its last change of value
    (absolute) and the iterations it ran.
    """
    n, m = c_second.shape[0], c_first.shape[0]
    # The active rows, compacted: each is written back once, in the
    # iteration where it exits or at the cap.
    ids = np.arange(len(x))
    out_x = np.empty_like(x)
    out_y = np.empty((len(x), m), dtype=np.complex128)
    out_value = np.empty(len(x))
    out_delta = np.empty(len(x))
    used = np.full(len(x), iterations)
    for k in range(1, iterations + 1):
        # The product with the Choi tensor is taken as one (1, n) row per
        # restart: a plain (R, n) product rounds differently once R = 1, and
        # a restart's bits must not depend on how many others are still
        # active. eigh reads only the lower triangle and the real diagonal,
        # so the compressions need no hermitian_part; it sorts ascending,
        # the bottom pair first.
        t = (x.conj()[:, np.newaxis] @ c_second).reshape(-1, m, n, m)
        w, v = np.linalg.eigh(np.einsum("rkjl,rj->rkl", t, x))
        new_value, y = w[:, 0], v[:, :, 0]
        t = (y.conj()[:, np.newaxis] @ c_first).reshape(-1, n, n, m)
        _, v = np.linalg.eigh(np.einsum("rijl,rl->rij", t, y))
        x = v[:, :, 0]
        delta = np.abs(value - new_value)
        value = new_value
        done = delta < bound
        if done.any():
            gone = ids[done]
            out_x[gone], out_y[gone] = x[done], y[done]
            out_value[gone], out_delta[gone], used[gone] = value[done], delta[done], k
            keep = ~done
            ids, x, y, value, delta = ids[keep], x[keep], y[keep], value[keep], delta[keep]
            if ids.size == 0:
                break
    out_x[ids], out_y[ids], out_value[ids], out_delta[ids] = x, y, value, delta
    return out_x, out_y, out_value, out_delta, used


def block_positivity_minimize(
    c: np.ndarray,
    dims: tuple[int, int],
    budget: Budget = DEFAULT_BUDGET,
    seed: int = 0,
) -> BlockMinimum:
    """Minimize <x (x) y, C (x (x) y)> over unit product vectors.

    Alternating eigenvector iteration: with x fixed, the optimal y is
    the bottom eigenvector of the second-factor compression
    (x* (x) I) C (x (x) I), and vice versa, so each half-step is exact
    and the value never increases. Restarts draw x from streams derived
    from (seed, restart index) and advance together as one stack: each
    half-step compresses and diagonalises every active restart at once.
    A restart leaves the stack in the iteration where its value moves by
    less than _RESTART_EXIT_RATIO times the CONVERGENCE bound (the loose
    exit). The winner is picked by (loose value, restart index), which
    makes the result independent of execution order, and only the winner
    runs on, alone and from where it stopped, until its value moves by
    less than the bound itself or it has run budget.iterations in all.
    A restart's arithmetic does not depend on the others, so the result
    is the winner's own run to the CONVERGENCE exit, bit for bit.

    The loop's eigensolves are unchecked: only the winner is verified,
    raising NumericalError if it fails. One DEBUG line on the module
    logger summarises the run.
    """
    n, m = dims
    c = check_bipartite(c, dims)
    c4 = c.reshape(n, m, n, m)
    scale = max(1.0, frob(c))

    started = time.perf_counter()
    restarts, iterations = budget.restarts, budget.iterations
    bound = CONVERGENCE * scale
    loose_bound = _RESTART_EXIT_RATIO * bound
    # Each compression is a product with the Choi tensor, conjugated
    # factor's index first, then a contraction with the other copy of the
    # vector: (x* (x) I) C (x (x) I) and (I (x) y*) C (I (x) y).
    c_second = c4.reshape(n, m * n * m)
    c_first = c4.transpose(1, 0, 2, 3).reshape(m, n * n * m)
    x, y, value, delta, used = _descend(
        c_second,
        c_first,
        complex_unit_vectors(seed, restarts, n),
        np.full(restarts, np.inf),
        iterations,
        loose_bound,
    )

    best = int(np.argmin(value))  # the first minimum: the lowest restart index
    xb, yb, vb, db = x[best], y[best], value[best], delta[best]
    refined = 0
    if db >= bound and used[best] < iterations:
        # The winner runs on alone, from where it stopped, for what is left
        # of its iterations.
        rows = _descend(
            c_second, c_first, x[best:best + 1], value[best:best + 1],
            iterations - int(used[best]), bound,
        )
        xb, yb, vb, db, more = (a[0] for a in rows)
        refined = 2 * int(more)
    # The loop's solves are unchecked; verify the winner once instead:
    # unit vectors, and xb an eigenvector of its y-compression whose
    # eigenvalue is no worse than the reported value.
    lx = hermitian_part(np.einsum("k,ikjl,l->ij", yb.conj(), c4, yb)) @ xb
    lam = float(np.real(xb.conj() @ lx))
    unit = max(abs(np.linalg.norm(xb) - 1.0), abs(np.linalg.norm(yb) - 1.0))
    residual = float(np.linalg.norm(lx - lam * xb))
    if unit > CONVERGENCE or lam > vb + bound or residual > bound:
        raise NumericalError(
            f"block minimum fails its final check: unit error {unit:.3e}, value "
            f"{vb:.6e} but {lam:.6e} at its vectors, residual {residual:.3e}"
        )
    converged = bool(db < bound)
    logger.debug(
        "block positivity: %d restarts, %d half-steps, %d loose exits; "
        "restart %d wins at %.6e after %d refinement half-steps, %s; %.3f s",
        restarts,
        2 * int(used.sum()) + refined,
        int(np.count_nonzero(delta < loose_bound)),
        best,
        vb,
        refined,
        "converged" if converged else "not converged",
        time.perf_counter() - started,
    )
    return BlockMinimum(float(vb), xb, yb, converged, best)


def is_cp(
    f: MatrixMap, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, np.ndarray | None]:
    """Complete positivity: the Choi matrix is PSD."""
    return is_psd(f.choi, tol)


def is_copositive(
    f: MatrixMap, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, np.ndarray | None]:
    """Copositivity: the partial transpose of the Choi matrix is PSD.

    That array is also the Choi matrix of compose(transpose_map(m), f),
    so complete positivity of that map is the same test.
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
    best = block_positivity_minimize(f.choi, (f.dim_in, f.dim_out), budget, seed)
    if best.value < psd_floor(f.choi, tol):
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
    elif f.holevo is not None:
        eb_verdict = EB_SEPARABLE
        eb_certificate = f.holevo
    else:
        # The functional's state C^T is PSD at tol exactly when C is, as
        # is_cp decided; the EB witnesses, its partial transpose first,
        # are read on C^T.
        *_, eb_witness_name = default_witness_library(f.dim_out).verdicts(
            f.choi.T.copy(), (f.dim_in, f.dim_out), tol
        )
        if eb_witness_name is not None:
            eb_verdict = EB_ENTANGLED

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
    off-diagonal part of x: positive, yet neither CP nor copositive.
    Several sign and diagonal conventions circulate for this map; the
    test suite pins this one by that triple.
    """
    return choi_from_action(3, 3, _choi_action)


@dataclass(eq=False)
class WitnessLibrary:
    """Named positive maps on M_m, applied as id (x) psi by the state battery
    and classify_map; ``choi4`` stacks their Choi tensors in order, read-only,
    or is None without entries, so verdicts evaluates them in one pass."""

    entries: tuple[tuple[str, MatrixMap], ...]
    choi4: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.entries:
            self.choi4 = np.stack([f.choi4() for _, f in self.entries])
            self.choi4.flags.writeable = False

    def names(self, m: int) -> list[str]:
        """The names of the rows of verdicts on a second factor m."""
        return [f"transpose{m}"] + [name for name, _ in self.entries]

    def verdicts(
        self,
        density: np.ndarray,
        dims: tuple[int, int],
        tol: Tolerances = DEFAULT_TOL,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, str | None]:
        """psd_verdicts at tol, from one checked stack, of the density's
        second-factor partial transpose, then of the Hermitian part of
        (id (x) phi)(density) for each entry phi, as apply_to_second
        evaluates it; and the name of the first row that fails, or None:
        the certificate the state battery and classify_map report."""
        n, m = dims
        density = check_bipartite(density, dims)
        stack = transpose_second(density, dims)[np.newaxis]
        if self.entries:
            x4 = density.reshape(n, m, n, m)
            out = np.einsum("ikjl,skalb->siajb", x4, self.choi4)
            out = hermitian_part(out.reshape(len(self.entries), n * m, n * m))
            stack = np.concatenate([stack, out])
        ok, low, vec = psd_verdicts(stack, tol)
        failing = np.flatnonzero(~ok)
        first = self.names(m)[failing[0]] if failing.size else None
        return ok, low, vec, first


@functools.lru_cache(maxsize=8)
def default_witness_library(m: int) -> WitnessLibrary:
    """Positive maps on M_m beyond the transpose, whose output, the
    partial transpose, verdicts reads first for every m.

    Empty except for m = 3, where it holds the builtin witness map, a
    composition with the transpose, and two unitary twists
    a phi(b x b*) a*, which stay positive and widen the set of
    detectable states. Every entry is positive by construction; the
    test suite checks each for block positivity.
    """
    entries: list[tuple[str, MatrixMap]] = []
    if m == 3:
        base = builtin_choi_map()
        entries.append(("choi3", base))
        entries.append(("choi3-post-t", compose(transpose_map(3), base)))
        for k in (1, 2):
            words = stream_words(_LIBRARY_SEED, [k])
            a = random_unitary(words, 3)[0]
            b = random_unitary(words, 3)[0]
            twisted = compose(kraus_to_map([a]), compose(base, kraus_to_map([b])))
            entries.append((f"choi3-twist{k}", twisted))
    return WitnessLibrary(entries=tuple(entries))


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
