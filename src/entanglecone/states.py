"""State-side entanglement analyses.

The partial-transpose test is necessary for separability; the witness
battery applies positive maps to the second tensor factor and certifies
entanglement from any negative output eigenvalue; the search optimizer
hunts for states that pass the partial-transpose test yet are caught by
a nondecomposable witness, the interesting corner of the theory.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .classify import Budget, default_witness_library, is_copositive, is_cp
from .duality import (
    MAX_ENSEMBLE_ENTRIES,
    BipartiteState,
    MatrixMap,
    apply_to_second,
    map_adjoint,
    map_from_state,
)
from .errors import DimensionError, DomainError, NumericalError
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    check_bipartite,
    hermitian_eigen,
    hermitian_part,
    is_psd,
    kron,
    partial_transpose,
    psd_floor,
    transpose_second,
)
from .rng import gaussians, next_floats, stream_words, unit_rows

logger = logging.getLogger(__name__)

CERTIFIED_ENTANGLED = "certified-entangled"
CERTIFIED_SEPARABLE = "certified-separable"
INCONCLUSIVE = "inconclusive"

# Number of pure products mixed into each search starting point.
_INIT_PRODUCT_TERMS = 4
_INIT_INTERIOR_WEIGHT = 0.1
_ASCENT_STEP = 0.1
_MAX_HALVINGS = 30
_PLATEAU_EXIT = 50
# Subgradient tails shrink geometrically without ever hitting zero, so a
# step only counts as progress above a threshold relative to the attained
# violation. The floor keeps stalled runs near zero from crawling forever.
_PLATEAU_RELATIVE = 1e-4
_PLATEAU_SCALE_FLOOR = 1e-3
# _dykstra stops once its two cone projections agree to the default PSD
# slack; the iteration cap is a safety bound, not the normal exit.
_DYKSTRA_ITERATIONS = 500
_DYKSTRA_GAP = DEFAULT_TOL.psd_slack
# The ascent projects each candidate only to a gap of this fraction of
# the trial step's length step ||grad||_F, and never below _DYKSTRA_GAP.
# On 100 benchmark searches (8 restarts x 1 step), 2e-3 moved 6 reported
# violations by 2e-5 to 1.5e-4 against exact projections; 1e-3 moved
# none by more than 7e-10.
_ASCENT_GAP_RATIO = 1e-3
# Past sweeps combined by each Anderson step of _dykstra. Near the common
# boundary of the cones, 16 needed fewer sweeps than 5 or 8.
_DYKSTRA_MEMORY = 16

SEARCH_BUDGET = Budget(restarts=16, iterations=200)


def ppt_check(
    s: BipartiteState, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, np.ndarray | None]:
    """Partial-transpose test: ``(True, None)`` when the second-factor
    partial transpose is PSD within tol's slack, otherwise ``(False, v)``
    with v its least eigenvector."""
    return is_psd(partial_transpose(s.density, s.dims, "second"), tol)


@dataclass(eq=False)
class WitnessHit:
    name: str
    eigenvalue: float
    eigenvector: np.ndarray


@dataclass(eq=False)
class StateReport:
    """Combined verdicts of the battery on one state."""

    dims: tuple[int, int]
    mass: float
    ppt: bool
    ppt_witness: np.ndarray | None
    ppt_min_eigenvalue: float
    entanglement: str
    certificate_name: str | None
    certificate_vector: np.ndarray | None
    certificate_value: float | None
    hits: tuple[WitnessHit, ...]
    peres_crosscheck: bool


def witness_battery(
    s: BipartiteState,
    tol: Tolerances = DEFAULT_TOL,
    separable_certificate: bool = False,
) -> StateReport:
    """Apply default_witness_library to the second factor; collect verdicts.

    The density must be PSD within tol's slack, or DomainError is
    raised; the least eigenvalue BipartiteState took decides that. Every
    other check comes from the one stacked spectrum of
    WitnessLibrary.verdicts: its first row, the second-factor partial
    transpose, gives the report's PPT verdict, least eigenvalue and
    eigenvector, so a state that is not PPT is always caught, and
    certified by that row: the certificate is the first hit, or None.

    A separable certificate attached by the caller (states built from
    an explicit product ensemble) turns the verdict into
    certified-separable; such a state hitting any witness means a bug,
    not a result, and raises NumericalError.

    ``peres_crosscheck`` is true by construction: by the Peres condition
    the state is PPT exactly when its dual map is CP and copositive, so
    the battery takes that route no second time; peres_equivalence does,
    and the test suite checks the theorem with it.
    """
    # BipartiteState checked PSD at the slack it was given, by default not
    # tol's; the hits below use tol's, so a density below it is no state.
    if s.min_eigenvalue < psd_floor(hermitian_part(s.density), tol):
        raise DomainError("state density is not PSD within tolerance")
    library = default_witness_library(s.dims[1])
    ok, low, vec, _ = library.verdicts(s.density, s.dims, tol)
    ppt = bool(ok[0])
    hits = [
        WitnessHit(name, float(value), vector)
        for name, passed, value, vector in zip(library.names(s.dims[1]), ok, low, vec)
        if not passed
    ]

    verdict = CERTIFIED_ENTANGLED if hits else INCONCLUSIVE
    if separable_certificate:
        if hits:
            raise NumericalError(
                "state with a separable certificate was detected by witness "
                f"{hits[0].name}; one of the two must be wrong"
            )
        verdict = CERTIFIED_SEPARABLE
    return StateReport(
        dims=s.dims,
        mass=s.mass,
        ppt=ppt,
        ppt_witness=None if ppt else vec[0],
        ppt_min_eigenvalue=float(low[0]),
        entanglement=verdict,
        certificate_name=hits[0].name if hits else None,
        certificate_vector=hits[0].eigenvector if hits else None,
        certificate_value=hits[0].eigenvalue if hits else None,
        hits=tuple(hits),
        peres_crosscheck=True,
    )


def peres_equivalence(s: BipartiteState, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Agreement of the state-side and map-side positivity tests.

    The partial-transpose verdict on the state must match complete
    positivity plus copositivity of the dual map. Always true
    mathematically; a False return is a bug detector.
    """
    ok, _ = is_psd(partial_transpose(s.density, s.dims, "second"), tol)
    cp_dual, _ = is_cp(map_from_state(s), tol)
    # PT1 rho is, entry for entry, PT2 of the dual map's Choi matrix rho^T.
    copositive_dual, _ = is_psd(partial_transpose(s.density, s.dims, "first"), tol)
    return ok == (cp_dual and copositive_dual)


def random_product_mixtures(
    words: np.ndarray, n: int, m: int, terms: int
) -> np.ndarray:
    """Random convex mixtures of ``terms`` pure product states, trace
    one, one per stream of ``words``, stacked as ``(len(words), nm, nm)``;
    advances the words in place.

    Every term draws its weight and then two complex unit vectors, each
    as complex_unit_vectors draws one, that is 1 + 4 ceil(n / 2) +
    4 ceil(m / 2) floats, all taken as one array. The weights are summed
    left to right and the weighted terms folded from zero in term order.
    """
    # Normals come in pairs: gx floats per real part of x.
    gx, gy = 2 * ((n + 1) // 2), 2 * ((m + 1) // 2)
    u = next_floats(words, terms * (1 + 2 * gx + 2 * gy))
    u = u.reshape(len(words), terms, -1)
    g = gaussians(u[..., 1:])
    x = unit_rows(g[..., :n], g[..., gx:gx + n])
    g = g[..., 2 * gx:]
    y = unit_rows(g[..., :m], g[..., gy:gy + m])
    xx = x[..., :, np.newaxis] * x.conj()[..., np.newaxis, :]
    yy = y[..., :, np.newaxis] * y.conj()[..., np.newaxis, :]
    weights = u[..., 0]
    total = 0.0
    for t in range(terms):
        total = total + weights[:, t]
    h = np.zeros((len(words), n * m, n * m), dtype=np.complex128)
    for t in range(terms):
        # One term at a time keeps one (restarts, nm, nm) product stack alive.
        piece = kron(xx[:, t], yy[:, t])
        scale = (weights[:, t] / total)[:, np.newaxis, np.newaxis]
        h += np.multiply(scale, piece, out=piece)
    return h


def _proj_psd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest PSD matrix to a Hermitian x and its eigenvalues, matrix by
    matrix for a stack; eigh reads only one triangle."""
    w, v = np.linalg.eigh(x)
    w = np.maximum(w, 0.0)
    return (v * w[..., np.newaxis, :]) @ v.conj().swapaxes(-1, -2), w


def _dykstra(
    x: np.ndarray,
    dims: tuple[int, int],
    correction: np.ndarray,
    gap: float | np.ndarray = _DYKSTRA_GAP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest point of {PSD} intersect {PT-PSD} to the Hermitian part of x.

    x is one matrix or a nonempty stack ``(..., nm, nm)`` of them,
    projected matrix by matrix; a 2-D x is a stack of one.
    ``correction``, shaped like x and only read, holds the v each
    matrix starts from. ``gap`` is each matrix's relative exit gap, a
    scalar or an array shaped like ``x.shape[:-2]``. Returns each
    matrix's last sweep as ``(x_pt, T(v), r, sweeps)``: the projection
    and the final correction, shaped like x, and the gap and the number
    of sweeps taken, shaped like ``x.shape[:-2]``.

    Dykstra's algorithm for the two cones (Boyle & Dykstra 1986), in its
    one-variable form: with x0 the Hermitian part of a matrix and v the
    correction of its PT step, each sweep computes

        y = P_psd(x0 - v),   x_pt = P_pt(v + y),   T(v) = v + y - x_pt.

    Plain Dykstra iterates v <- T(v) from v = 0. Near the common
    boundary of both cones, where the search's optimum lies, that
    converges sublinearly: hundreds of sweeps that each move the point
    by 1e-5 to 1e-6. The residual T(v) - v = y - x_pt is the gap between
    the two projections, so Anderson acceleration (Walker & Ni, SIAM J.
    Numer. Anal. 2011; Higham & Strabic, Numer. Algorithms 2016, for the
    nearest correlation matrix) takes the combination of the last
    _DYKSTRA_MEMORY values of T whose residuals best cancel. The history
    is dropped whenever the gap grows, so a step that overshoots is
    followed by a plain Dykstra step.

    The stack advances in lockstep: each sweep makes one stacked eigh
    per cone over the matrices whose gap is still open, and a matrix
    leaves the stack in the sweep that closes its gap, or in the sweep
    at the cap, and its projection, final T(v) and sweep count are
    written out then and nowhere else. Every matrix
    keeps its own Anderson history in a ring of _DYKSTRA_MEMORY rows,
    zero where unused, and the combinations of the whole stack come
    from one batched solve of the regularised normal equations

        (G + lambda I) gamma = A res,   G = A A^T,   lambda = 1e-12 tr(G),

    where the rows of A are a matrix's stored residual differences. The
    ridge keeps G, singular while the ring is not full, invertible. A
    matrix with an empty history gets gamma = 0: the plain step. G is
    kept across sweeps: a sweep overwrites one row of A, so one batched
    product gives that row and column of G, and a reset zeros G too.

    Every sweep certifies its own x_pt, whatever v it started from.
    With p = x0 - v - y and q = T(v), x0 = x_pt + p + q where p is
    negative semidefinite with <p, y> = 0 and PT(q) is negative
    semidefinite with <q, x_pt> = 0: the optimality conditions of the
    nearest point x*, up to the gap r = ||y - x_pt||_F. Hence

    * PT(x_pt) is PSD, and lambda_min(x_pt) >= -r by Weyl's inequality,
      since y is PSD;
    * ||x_pt - x*||^2 <= r (sqrt(D) ||x0 - x_pt|| + D r + ||p||) with
      D = n m, by comparing x* with x_pt + r I, which lies in both
      cones. Every norm is Frobenius.

    Since the certificate does not depend on v, neither the ridge nor
    the lockstep changes this bound. A matrix leaves once r <= gap
    max(1, ||x_pt||), ||x_pt|| read off the clipped spectrum of PT(v + y)
    as PT only permutes entries. At the default gap, _DYKSTRA_GAP, the
    default PSD slack, the point then passes is_psd on both cones, and
    when ||x0 - x_pt|| and ||p|| are below 0.15, as for the search's
    candidates, it lies within 3e-5 of the nearest point. Measured
    distances are far smaller, about 3e-9 for the first candidate of
    the seed-0 choi3 search. A looser gap certifies less: PT(x_pt) is
    still PSD exactly, but only lambda_min(x_pt) >= -r, so any quantity
    read from x_pt, such as a witness violation, may be off by O(r)
    from its value at a feasible point. _DYKSTRA_ITERATIONS is a safety
    bound: the sweep at the cap is the last of every open matrix, and a
    warning gives how many stayed open and the widest of their gaps.

    Neither the fixed points of T nor the certificate depend on the
    start; a start near the final correction only saves sweeps.
    Consecutive ascent candidates differ by one short step, so the
    search passes each restart's returned T(v) to that restart's next
    projection.
    """
    x0 = hermitian_part(check_bipartite(x, dims, stacked=True))
    shape, lead = x0.shape, x0.shape[:-2]
    x0 = x0.reshape((-1,) + shape[-2:])
    count = x0.shape[0]
    exit_gap = np.broadcast_to(gap, lead).reshape(count)
    out = np.empty_like(x0)
    final_tv = np.empty_like(x0)
    final_r = np.empty(count)
    sweeps = np.empty(count, dtype=np.int64)
    v = correction.reshape(x0.shape)
    # Per matrix, differences of residuals and of T values over the last
    # sweeps, as real vectors: Anderson's combination has real
    # coefficients, which keeps v Hermitian. Sweep j writes slot j mod
    # _DYKSTRA_MEMORY of every ring, its oldest difference or zeros.
    d_res = np.zeros((count, _DYKSTRA_MEMORY, 2 * shape[-1] ** 2))
    d_tv = np.zeros_like(d_res)
    gram = np.zeros((count, _DYKSTRA_MEMORY, _DYKSTRA_MEMORY))
    prev_r = np.full(count, np.inf)
    prev_res = prev_tv = None
    live = np.arange(count)
    for sweep in range(1, _DYKSTRA_ITERATIONS + 1):
        y, _ = _proj_psd(x0 - v)
        vy = v + y
        x_pt, w_pt = _proj_psd(transpose_second(vy, dims))
        x_pt = transpose_second(x_pt, dims)
        tv = vy - x_pt
        res = (y - x_pt).reshape(live.size, -1).view(np.float64)
        # The sums np.linalg.norm takes along these axes, bit for bit.
        r = np.sqrt(np.add.reduce(res * res, axis=1))
        norm = np.sqrt(np.add.reduce(w_pt * w_pt, axis=1))  # ||x_pt||_F
        closed = r <= exit_gap * np.maximum(1.0, norm)
        if sweep == _DYKSTRA_ITERATIONS and not closed.all():
            logger.warning(
                "Dykstra projection stopped at its cap of %d iterations in %d of "
                "%d matrices, with gaps up to %.2e",
                _DYKSTRA_ITERATIONS,
                np.count_nonzero(~closed),
                count,
                r[~closed].max(),
            )
            closed[:] = True  # the cap sweep is the last of every matrix
        if closed.any():
            done = live[closed]
            out[done], final_tv[done], final_r[done] = x_pt[closed], tv[closed], r[closed]
            sweeps[done] = sweep
            keep = ~closed
            live = live[keep]
            if live.size == 0:
                break
            x0, tv, res, r = x0[keep], tv[keep], res[keep], r[keep]
            exit_gap, prev_r, gram = exit_gap[keep], prev_r[keep], gram[keep]
            # The histories are copied one at a time, which bounds the peak.
            d_res = d_res[keep]
            d_tv = d_tv[keep]
            if prev_res is not None:
                prev_res, prev_tv = prev_res[keep], prev_tv[keep]
        tv_vec = tv.reshape(live.size, -1).view(np.float64)
        if prev_res is not None:
            slot = sweep % _DYKSTRA_MEMORY
            d_res[:, slot] = res - prev_res
            d_tv[:, slot] = tv_vec - prev_tv
            row = (d_res @ d_res[:, slot, :, np.newaxis])[:, :, 0]
            gram[:, slot] = row
            gram[:, :, slot] = row
        # A matrix whose gap grew drops its whole history, the differences
        # just stored included.
        grew = r > prev_r
        if grew.any():
            d_res[grew] = 0.0
            d_tv[grew] = 0.0
            gram[grew] = 0.0
        ridge = 1e-12 * np.trace(gram, axis1=1, axis2=2)
        # An empty history has G = 0 and A res = 0; any positive ridge
        # then gives gamma = 0.
        ridge[ridge == 0.0] = 1.0
        system = gram.copy()
        system.reshape(live.size, -1)[:, :: _DYKSTRA_MEMORY + 1] += ridge[:, np.newaxis]
        gamma = np.linalg.solve(system, d_res @ res[:, :, np.newaxis])
        v_vec = tv_vec - (gamma.swapaxes(1, 2) @ d_tv)[:, 0]
        v = v_vec.view(np.complex128).reshape(x0.shape)
        prev_res, prev_tv, prev_r = res, tv_vec, r
    out, final_tv = out.reshape(shape), final_tv.reshape(shape)
    return out, final_tv, final_r.reshape(lead), sweeps.reshape(lead)


@dataclass(eq=False)
class SearchResult:
    """Outcome of the PPT-entangled state search."""

    state: BipartiteState
    violation: float
    iterations: int
    converged: bool
    seed: int
    witness_name: str


def _violation(
    h: np.ndarray, dims: tuple[int, int], witness: MatrixMap
) -> tuple[np.ndarray, np.ndarray]:
    """-lambda_min and its eigenvector per matrix, by the bare (unchecked) eigh."""
    w, v = np.linalg.eigh(hermitian_part(apply_to_second(h, dims, witness)))
    return -w[..., 0], v[..., 0]


def search_ppt_entangled(
    witness: MatrixMap,
    budget: Budget = SEARCH_BUDGET,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    witness_name: str = "witness",
) -> SearchResult:
    """Maximize the witness violation over the PPT spectrahedron.

    Projected subgradient ascent on violation(h) = -lambda_min of
    (id (x) witness)(h) over {h PSD, Tr h = 1, PT(h) PSD}. Each restart
    owns a PRNG stream derived from (seed, restart index), and the
    restarts advance in lockstep as one stack: each trial step length
    of an ascent step projects every restart still without an improving
    step in one stacked _dykstra call, and a restart leaves the stack
    once it is stationary or has stalled on a plateau. Each restart
    takes exactly the steps it would take alone. The winner is selected
    by (violation, restart index), so the result does not depend on the
    order of the stack. A decomposable witness makes success provably
    impossible; the ascent then stalls at zero and the caller sees a
    non-finding result rather than an error.

    A start, a product mixture plus _INIT_INTERIOR_WEIGHT I/d, lies
    strictly inside both cones and gets no projection. Each ascent
    candidate is projected only as tightly as its step needs (inexact
    projected gradient, as in Birgin, Martinez & Raydan, IMA J. Numer.
    Anal. 23, 2003): to the gap max(_DYKSTRA_GAP, _ASCENT_GAP_RATIO
    step ||grad||_F), loose on long trial steps and exact once they are
    short. A loosely projected candidate is PT-PSD exactly but only PSD
    to within its gap r (see _dykstra), so its violation, which the
    acceptance test compares, may exceed its value at a feasible point
    by O(r). A restart's state is its normalised start or the normalised
    projection of its last accepted candidate; a candidate whose
    projection has no trace is a rejected step. Only the winner's state
    is reported: its source, the start or that candidate, is projected
    exactly from the restart's correction to x_pt with gap r, and the
    state is (x_pt + r I) / Tr(x_pt + r I). By Weyl's inequality and
    PT(I) = I it lies in both cones, even where the projection stopped
    at its cap. The reported violation comes from the checked
    hermitian_eigen. A search with restarts (n m)^2 above
    MAX_ENSEMBLE_ENTRIES raises DimensionError.

    One DEBUG line on the module logger reports the restarts, ascent
    steps, stacked projection calls, the matrix-sweeps of the ascent and
    those of the winner's finish, cap hits, and the wall time of the
    start, ascent and finish phases.
    """
    n = m = witness.dim_in
    dims = (n, m)
    d = n * m
    restarts = budget.restarts
    if restarts * d**2 > MAX_ENSEMBLE_ENTRIES:
        raise DimensionError(
            f"{restarts} restarts on dims {dims} exceed the cap "
            f"restarts*(n*m)^2 <= {MAX_ENSEMBLE_ENTRIES}"
        )
    adjoint = map_adjoint(witness)

    cp_now, _ = is_cp(witness, tol)
    cop_now, _ = is_copositive(witness, tol)
    if cp_now or cop_now:
        logger.warning(
            "witness %s is %s; every PPT state passes it and the search "
            "cannot succeed",
            witness_name,
            "completely positive" if cp_now else "copositive",
        )

    started = time.perf_counter()
    calls = matrix_sweeps = cap_hits = 0

    def project(
        x: np.ndarray, correction: np.ndarray, gap: float | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        nonlocal calls, matrix_sweeps, cap_hits
        out, tv, r, sweeps = _dykstra(x, dims, correction, gap)
        calls += 1
        matrix_sweeps += int(sweeps.sum())
        cap_hits += int(np.count_nonzero(sweeps >= _DYKSTRA_ITERATIONS))
        return out, tv, r

    words = stream_words(seed, range(restarts))
    source = random_product_mixtures(words, n, m, _INIT_PRODUCT_TERMS)
    source *= 1.0 - _INIT_INTERIOR_WEIGHT
    source += _INIT_INTERIOR_WEIGHT * np.eye(d) / d
    # Every eigenvalue of the start and of its PT is at least
    # _INIT_INTERIOR_WEIGHT / d, so it needs no projection.
    h = source / np.real(np.trace(source, axis1=1, axis2=2))[:, np.newaxis, np.newaxis]
    correction = np.zeros((restarts, d, d), dtype=np.complex128)
    viol, vec = _violation(h, dims, witness)
    plateau = np.zeros(restarts, dtype=np.int64)
    converged = np.zeros(restarts, dtype=bool)
    steps = 0
    active = np.arange(restarts)
    ascent_started = time.perf_counter()
    for _ in range(budget.iterations):
        if active.size == 0:
            break
        steps += active.size
        va = vec[active]
        grad = -hermitian_part(
            apply_to_second(
                va[:, :, np.newaxis] * va.conj()[:, np.newaxis, :],
                (n, witness.dim_out),
                adjoint,
            )
        )
        grad_norm = np.linalg.norm(grad, axis=(-2, -1))
        before = viol[active]
        # Rows of `active` still without an improving step.
        looking = np.ones(active.size, dtype=bool)
        step = _ASCENT_STEP
        for _ in range(_MAX_HALVINGS):
            rows = np.flatnonzero(looking)
            rs = active[rows]
            x = h[rs] + step * grad[rows]
            gap = np.maximum(_DYKSTRA_GAP, _ASCENT_GAP_RATIO * (step * grad_norm[rows]))
            cand, correction[rs], _ = project(x, correction[rs], gap)
            trace = np.real(np.trace(cand, axis1=1, axis2=2))
            collapsed = trace < 1e-12  # no trace: a rejected step
            cand /= np.where(collapsed, 1.0, trace)[:, np.newaxis, np.newaxis]
            cand_viol, cand_vec = _violation(cand, dims, witness)
            up = (cand_viol > viol[rs]) & ~collapsed
            won = rs[up]
            h[won] = cand[up]
            source[won] = x[up]
            viol[won] = cand_viol[up]
            vec[won] = cand_vec[up]
            looking[rows[up]] = False
            if not looking.any():
                break
            step /= 2.0
        # No step length improves the objective: stationary.
        converged[active[looking]] = True
        moved = active[~looking]
        flat = viol[moved] - before[~looking] < _PLATEAU_RELATIVE * np.maximum(
            np.abs(viol[moved]), _PLATEAU_SCALE_FLOOR
        )
        plateau[moved] = np.where(flat, plateau[moved] + 1, 0)
        stalled = plateau[moved] >= _PLATEAU_EXIT
        converged[moved[stalled]] = True
        active = moved[~stalled]

    finish_started = time.perf_counter()
    ascent_sweeps = matrix_sweeps
    winner = int(np.argmax(viol))  # the first maximum: the lowest restart index
    h, _, r = project(source[winner], correction[winner], _DYKSTRA_GAP)
    # lambda_min(h) >= -r and PT(h) is PSD, so h + r I lies in both cones.
    h += r * np.eye(d)
    h /= np.real(np.trace(h))
    # The certified figure comes from the checked solver.
    w, _ = hermitian_eigen(hermitian_part(apply_to_second(h, dims, witness)))
    logger.debug(
        "search %s: %d restarts, %d ascent steps, %d projection calls, "
        "%d matrix-sweeps in the ascent, %d in the finish, "
        "%d cap hits; start %.3f s, ascent %.3f s, finish %.3f s",
        witness_name,
        restarts,
        steps,
        calls,
        ascent_sweeps,
        matrix_sweeps - ascent_sweeps,
        cap_hits,
        ascent_started - started,
        finish_started - ascent_started,
        time.perf_counter() - finish_started,
    )
    return SearchResult(
        state=BipartiteState(dims, h),
        violation=-float(w[-1]),
        iterations=steps,
        converged=bool(converged[winner]),
        seed=seed,
        witness_name=witness_name,
    )
