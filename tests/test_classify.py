import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entanglecone import classify, linalg
from entanglecone.classify import (
    MAX_RESTARTS,
    Budget,
    block_positivity_minimize,
    builtin_choi_map,
    builtin_map,
    classify_map,
    default_witness_library,
    is_copositive,
    is_cp,
)
from entanglecone.duality import (
    HolevoForm,
    MatrixMap,
    apply_map,
    choi_from_action,
    compose,
    holevo_to_map,
    identity_map,
    kraus_to_map,
    maximally_entangled_matrix,
    state_from_map,
    transpose_map,
)
from entanglecone.errors import DomainError, NumericalError
from entanglecone.linalg import (
    CONVERGENCE,
    DEFAULT_TOL,
    Tolerances,
    frob,
    hermitian_part,
    kron,
    partial_transpose,
)
from entanglecone.states import witness_battery
from reference import (
    derive_stream,
    gaussian_complex_matrix,
    random_density,
    random_hermitian,
    verify_block_value,
)

_FAST = Budget(restarts=8, iterations=100)


def _product_value(c, x, y):
    v = kron(x.reshape(-1, 1), y.reshape(-1, 1)).ravel()
    return (v.conj() @ c @ v).real


def test_is_cp_examples():
    stream = derive_stream(301, 0)
    for n, m in ((2, 2), (3, 2)):
        ops = [gaussian_complex_matrix(stream, m, n) for _ in range(2)]
        ok, witness = is_cp(kraus_to_map(ops))
        assert ok and witness is None
    ok, witness = is_cp(transpose_map(2))
    assert not ok
    # SWAP's negative eigenvector is the antisymmetric unit vector.
    antisym = np.zeros(4, dtype=complex)
    antisym[1] = 1.0 / np.sqrt(2.0)
    antisym[2] = -1.0 / np.sqrt(2.0)
    assert abs(abs(witness.conj() @ antisym) - 1.0) < 1e-10
    ok, _ = is_cp(builtin_choi_map())
    assert not ok


def test_is_copositive_examples():
    ok, _ = is_copositive(transpose_map(2))
    assert ok
    ok, witness = is_copositive(identity_map(2))
    assert not ok
    assert witness is not None
    ok, _ = is_copositive(builtin_choi_map())
    assert not ok


def test_is_copositive_diagonalises_once(eigh_inputs):
    is_copositive(builtin_choi_map())
    assert len(eigh_inputs) == 1


def test_cp_copositive_compose_identity():
    # f cp iff t o f copositive, definitionally, so verdicts agree exactly.
    stream = derive_stream(302, 0)
    maps = [
        identity_map(2),
        transpose_map(3),
        builtin_choi_map(),
        kraus_to_map([gaussian_complex_matrix(stream, 2, 2)]),
    ]
    for f in maps:
        cp_f, _ = is_cp(f)
        cop_tf, _ = is_copositive(compose(transpose_map(f.dim_out), f))
        assert cp_f == cop_tf


def test_block_minimum_p_closed_form():
    p = maximally_entangled_matrix(2)
    result = block_positivity_minimize(p, (2, 2), _FAST, seed=0)
    # <x(x)y, P x(x)y> = |x^T y|^2, so the true minimum is 0.
    assert -1e-12 < result.value < 1e-9
    assert abs(_product_value(p, result.x, result.y) - result.value) < 1e-12


def test_block_minimum_negative_p_closed_form():
    p = maximally_entangled_matrix(2)
    result = block_positivity_minimize(-p, (2, 2), _FAST, seed=0)
    assert abs(result.value + 1.0) < 1e-9
    assert result.converged


def test_block_minimum_swap_closed_form():
    swap = partial_transpose(maximally_entangled_matrix(2), (2, 2), "second")
    result = block_positivity_minimize(swap, (2, 2), _FAST, seed=0)
    assert -1e-12 < result.value < 1e-9


def test_block_minimum_budget_monotone():
    c = -maximally_entangled_matrix(3)
    small = block_positivity_minimize(c, (3, 3), Budget(restarts=2, iterations=50), seed=7)
    large = block_positivity_minimize(c, (3, 3), Budget(restarts=12, iterations=50), seed=7)
    assert large.value <= small.value + 1e-15


def test_block_minimum_deterministic():
    c = -maximally_entangled_matrix(2)
    a = block_positivity_minimize(c, (2, 2), _FAST, seed=3)
    b = block_positivity_minimize(c, (2, 2), _FAST, seed=3)
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)
    assert a.restart == b.restart


def test_verify_block_value_consistency():
    f = builtin_choi_map()
    result = block_positivity_minimize(f.choi, (3, 3), _FAST, seed=0)
    redone = verify_block_value(f, result.x, result.y)
    # Two contraction orders of the same quadratic form: they agree up to
    # rounding noise around zero, not to the last bit.
    assert abs(redone - result.value) < 1e-9


def test_builtin_choi_map_shipped_behavior():
    f = builtin_choi_map()
    # Diagonal-boost minus off-diagonal part; unital up to the factor two.
    assert frob(apply_map(f, np.eye(3)) - 2.0 * np.eye(3)) < 1e-13
    e11 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert frob(apply_map(f, e11) - np.diag([1.0, 1.0, 0.0])) < 1e-13
    x = np.array(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex
    )
    out = apply_map(f, x)
    assert frob(out + x) < 1e-13  # off-diagonals flip sign


def test_builtin_choi_map_validation_triple():
    f = builtin_choi_map()
    cp, _ = is_cp(f)
    cop, _ = is_copositive(f)
    assert not cp and not cop
    result = block_positivity_minimize(f.choi, (3, 3), Budget(16, 200), seed=0)
    assert result.value >= -1e-9


def test_classify_identity2():
    report = classify_map(identity_map(2), _FAST, seed=0)
    assert report.cp and not report.copositive
    assert report.positive_verdict == "probably-positive"
    assert report.eb_verdict == "certified-entangled-choi"
    assert report.eb_witness_name is not None
    assert "transpose" in report.eb_witness_name


def test_classify_transpose2():
    report = classify_map(transpose_map(2), _FAST, seed=0)
    assert not report.cp and report.copositive
    assert report.cp_witness is not None
    assert report.eb_verdict == "not-applicable"


def test_classify_choi3():
    report = classify_map(builtin_choi_map(), _FAST, seed=0)
    assert not report.cp and not report.copositive
    assert report.positive_verdict == "probably-positive"
    assert report.block_min >= -1e-9
    assert report.eb_verdict == "not-applicable"


def _generalized_choi(a, b, c):
    """Phi[a,b,c](x) = diag(W diag(x)) - x, W circulant with first row
    (a, b, c); Phi[2,0,1] is choi3. Not positive once a + b + c < 3."""
    w = np.array([[a, b, c], [c, a, b], [b, c, a]])
    return choi_from_action(3, 3, lambda x: np.diag(w @ np.diag(x)) - x)


@pytest.mark.parametrize("abc", [(1.2, 0.8, 0.7), (1.0, 0.5, 1.0)])
def test_classify_clearly_nonpositive_generalized_choi(abc):
    assert frob(_generalized_choi(2.0, 0.0, 1.0).choi - builtin_choi_map().choi) == 0.0
    f = _generalized_choi(*abc)
    report = classify_map(f, _FAST, seed=0)
    assert report.positive_verdict == "certified-nonpositive"
    assert not report.cp and report.eb_verdict == "not-applicable"
    assert report.block_converged
    # The reported vectors are the certificate: x (x) y has that value.
    value = verify_block_value(f, report.block_x, report.block_y)
    assert value < 0.0
    assert abs(value - report.block_min) <= 1e-9


def test_classify_holevo_is_separable_choi():
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    form = HolevoForm(((e11, e11), (e22, e22)))
    report = classify_map(holevo_to_map(form), _FAST, seed=0)
    assert report.cp and report.copositive
    assert report.eb_verdict == "certified-separable-choi"


def test_classify_cp_map_diagonalises_c_and_its_partial_transpose_once(eigh_inputs):
    # is_cp and is_copositive diagonalise C and PT2(C); the EB witnesses
    # read C^T, whose library outputs are neither of them.
    stream = derive_stream(305, 0)
    f = kraus_to_map([gaussian_complex_matrix(stream, 3, 3) for _ in range(2)])
    eigh_inputs.clear()
    report = classify_map(f, Budget(restarts=2, iterations=20))
    assert report.cp
    matrices = [a for stack in eigh_inputs for a in stack.reshape((-1,) + stack.shape[-2:])]
    pt = partial_transpose(f.choi, (3, 3), "second")
    for x in (f.choi, pt):
        assert sum(np.array_equal(a, hermitian_part(x)) for a in matrices) == 1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3),
    m=st.sampled_from([2, 3]),
    ops=st.integers(1, 6),
    slack=st.sampled_from([DEFAULT_TOL.psd_slack, 1e-10]),
    seed=st.integers(0, 2**32 - 1),
)
def test_eb_verdict_equals_the_battery_on_the_maps_state(n, m, ops, slack, seed):
    # classify_map reads the EB witnesses on C^T without building the
    # state; the battery on state_from_map(f) is the reference route.
    stream = derive_stream(seed, 0)
    f = kraus_to_map([gaussian_complex_matrix(stream, m, n) for _ in range(ops)])
    tol = Tolerances(slack)
    report = classify_map(f, Budget(restarts=1, iterations=5), tol=tol)
    battery = witness_battery(state_from_map(f), tol)
    if battery.entanglement == "certified-entangled":
        assert report.eb_verdict == "certified-entangled-choi"
    else:
        assert report.eb_verdict == "inconclusive"
    assert report.eb_witness_name == battery.certificate_name


def test_eb_witness_of_a_large_second_factor_is_the_partial_transpose():
    # An isometry M_2 -> M_17 has a rank-one entangled state; the library
    # holds no map for m = 17, so the partial transpose row detects it.
    v = np.zeros((17, 2), dtype=complex)
    v[0, 0] = v[16, 1] = 1.0
    report = classify_map(kraus_to_map([v]), Budget(restarts=2, iterations=20))
    assert report.cp
    assert report.eb_verdict == "certified-entangled-choi"
    assert report.eb_witness_name == "transpose17"


def test_classify_random_holevo_cp_and_copositive():
    stream = derive_stream(303, 0)
    for _ in range(20):
        terms = tuple(
            (random_density(stream, 2), random_density(stream, 2)) for _ in range(3)
        )
        f = holevo_to_map(HolevoForm(terms))
        cp, _ = is_cp(f)
        cop, _ = is_copositive(f)
        assert cp and cop


def test_mapping_cone_twist_preserves_block_positivity():
    # x -> a phi(b x b*) a* stays block positive for any a, b.
    stream = derive_stream(304, 0)
    base = builtin_choi_map()
    a = gaussian_complex_matrix(stream, 3, 3)
    b = gaussian_complex_matrix(stream, 3, 3)

    def twisted(x):
        return a @ apply_map(base, b @ x @ b.conj().T) @ a.conj().T

    g = choi_from_action(3, 3, twisted)
    result = block_positivity_minimize(g.choi, (3, 3), Budget(16, 200), seed=0)
    assert result.value >= -1e-9 * max(1.0, frob(g.choi))


def test_builtin_map_registry():
    assert builtin_map("identity2").choi.shape == (4, 4)
    assert builtin_map("transpose3").choi.shape == (9, 9)
    assert np.array_equal(builtin_map("choi3").choi, builtin_choi_map().choi)
    with pytest.raises(DomainError):
        builtin_map("identity0")
    with pytest.raises(DomainError):
        builtin_map("nonsense")


_LIBRARY_NAMES = {
    2: [],
    3: ["choi3", "choi3-post-t", "choi3-twist1", "choi3-twist2"],
    17: [],
}


def test_default_witness_library_contents():
    for m, names in _LIBRARY_NAMES.items():
        lib = default_witness_library(m)
        assert [name for name, _ in lib.entries] == names
        # The partial transpose is the first row of every pass.
        assert lib.names(m) == [f"transpose{m}"] + names
        # The battery's stack holds every entry's Choi tensor, in order.
        if names:
            assert lib.choi4.shape == (len(names), m, m, m, m)
            for (_, f), c4 in zip(lib.entries, lib.choi4):
                assert np.array_equal(c4, f.choi4())
        else:
            assert lib.choi4 is None
        # Cached: repeated calls return the same object.
        assert default_witness_library(m) is lib
    # No second factor is too large: the library builds no map to cap.
    assert default_witness_library(256).entries == ()
    # The builtin map's transpose conjugate is no entry: its Choi matrix is
    # real symmetric, so that map is the builtin map, bit for bit.
    base = builtin_choi_map()
    t = transpose_map(3)
    assert np.array_equal(compose(t, compose(base, t)).choi, base.choi)


@pytest.mark.parametrize(
    "m, name", [(m, name) for m, names in _LIBRARY_NAMES.items() for name in names]
)
def test_witness_library_entry_is_block_positive(m, name):
    # The library is positive by construction and is not screened at run
    # time; this is the screen it used to run, entry by entry.
    f = dict(default_witness_library(m).entries)[name]
    result = block_positivity_minimize(f.choi, (f.dim_in, f.dim_out), Budget(16, 200))
    assert result.value >= -DEFAULT_TOL.psd_slack * max(1.0, frob(f.choi))


def test_budget_validation():
    with pytest.raises(DomainError):
        Budget(restarts=0, iterations=10)
    with pytest.raises(DomainError):
        Budget(restarts=MAX_RESTARTS + 1, iterations=10)
    assert Budget(restarts=MAX_RESTARTS, iterations=10).restarts == MAX_RESTARTS


def _run_alone(c, dims, x, value, iterations, bound):
    """One restart as its own loop of 2-D eigensolves, from x with previous
    value `value`, until its value moves by less than bound or for
    `iterations` iterations.

    The compressions take the minimiser's arithmetic: one product with the
    Choi tensor, then a contraction with the other copy of the vector.
    Returns (value, x, y, last change of value, iterations run).
    """
    n, m = dims
    c4 = c.reshape(n, m, n, m)
    c_second = c4.reshape(n, m * n * m)
    c_first = c4.transpose(1, 0, 2, 3).reshape(m, n * n * m)
    for k in range(1, iterations + 1):
        second = np.einsum("kjl,j->kl", (x.conj() @ c_second).reshape(m, n, m), x)
        w, v = np.linalg.eigh(second)
        new_value, y = w[0], v[:, 0]
        first = np.einsum("ijl,l->ij", (y.conj() @ c_first).reshape(n, n, m), y)
        x = np.linalg.eigh(first)[1][:, 0]
        delta = abs(value - new_value)
        value = new_value
        if delta < bound:
            break
    return value, x, y, delta, k


def _start(seed, r, n):
    return derive_stream(seed, r).complex_unit_vector(n)


def _per_restart_minimize(c, dims, budget, seed):
    """Each restart alone to the loose exit, one after another; the least
    (loose value, restart index) then runs on alone to the CONVERGENCE
    exit, within the same iteration budget.

    Returns the winner as (value, restart, x, y, converged, iterations)
    and every restart's loose run as (value, x, y, last change, iterations).
    """
    bound = CONVERGENCE * max(1.0, frob(c))
    loose = [
        _run_alone(
            c, dims, _start(seed, r, dims[0]), np.inf, budget.iterations,
            classify._RESTART_EXIT_RATIO * bound,
        )
        for r in range(budget.restarts)
    ]
    restart = min(range(budget.restarts), key=lambda r: (loose[r][0], r))
    value, x, y, delta, used = loose[restart]
    if delta >= bound and used < budget.iterations:
        value, x, y, delta, more = _run_alone(
            c, dims, x, value, budget.iterations - used, bound
        )
        used += more
    return (value, restart, x, y, delta < bound, used), loose


def _full_run(c, dims, budget, seed, r):
    """Restart r's own run to the CONVERGENCE exit, as (value, x, y, converged)."""
    bound = CONVERGENCE * max(1.0, frob(c))
    value, x, y, delta, _ = _run_alone(
        c, dims, _start(seed, r, dims[0]), np.inf, budget.iterations, bound
    )
    return value, x, y, delta < bound


@pytest.mark.parametrize(
    "case",
    ["choi3-capped", "dims-2x3", "dims-3x2", "random-9x9", "all-tied", "loose-winner"],
)
def test_lockstep_minimizer_matches_per_restart_loops(case):
    budget, seed = Budget(restarts=6, iterations=200), 11
    if case == "choi3-capped":
        c, dims = builtin_choi_map().choi, (3, 3)
        budget, seed = Budget(restarts=16, iterations=60), 5
    elif case == "random-9x9":
        c, dims = random_hermitian(derive_stream(311, 0), 9), (3, 3)
    elif case == "all-tied":
        # Every restart ends at exactly 0.0; the lowest index must win.
        c, dims = np.zeros((9, 9), dtype=complex), (3, 3)
    elif case == "loose-winner":
        c, dims = random_hermitian(derive_stream(301, 0), 9), (3, 3)
    else:
        dims = (2, 3) if case == "dims-2x3" else (3, 2)
        c = random_hermitian(derive_stream(312, dims[0]), 6)
    (value, restart, x, y, converged, _), loose = _per_restart_minimize(
        c, dims, budget, seed
    )
    if case == "choi3-capped":
        # Restarts leave the stack at different iterations, some at the cap.
        assert len({run[4] for run in loose}) > 1
        assert any(run[4] == budget.iterations for run in loose)
    if case == "loose-winner":
        # The rule picks by loose value: run to the end, another restart
        # would have reported a lower value.
        full = [_full_run(c, dims, budget, seed, r) for r in range(budget.restarts)]
        assert min(range(budget.restarts), key=lambda r: (full[r][0], r)) != restart
    result = block_positivity_minimize(c, dims, budget, seed)
    assert result.restart == restart
    assert result.converged == converged
    assert result.value == value
    assert np.array_equal(result.x, x)
    assert np.array_equal(result.y, y)


def _einsum_route_value(c, dims, budget, seed):
    """The least value by the minimiser's earlier arithmetic: each
    compression one three-operand einsum, made exactly Hermitian by
    hermitian_part before the solve."""
    n, m = dims
    c4 = c.reshape(n, m, n, m)
    scale = max(1.0, frob(c))
    x = np.stack(
        [derive_stream(seed, r).complex_unit_vector(n) for r in range(budget.restarts)]
    )
    value = np.full(budget.restarts, np.inf)
    active = np.arange(budget.restarts)
    for _ in range(budget.iterations):
        xa = x[active]
        second = np.einsum("ri,ikjl,rj->rkl", xa.conj(), c4, xa)
        w, v = np.linalg.eigh(hermitian_part(second))
        ya = v[:, :, 0]
        first = np.einsum("rk,ikjl,rl->rij", ya.conj(), c4, ya)
        x[active] = np.linalg.eigh(hermitian_part(first))[1][:, :, 0]
        done = np.abs(value[active] - w[:, 0]) < CONVERGENCE * scale
        value[active] = w[:, 0]
        active = active[~done]
        if active.size == 0:
            break
    return value.min()


def _route_cases():
    budget = Budget(restarts=6, iterations=200)
    cases = [
        ("choi3-capped", builtin_choi_map().choi, (3, 3), Budget(16, 500), 5),
        ("random-9x9", random_hermitian(derive_stream(311, 0), 9), (3, 3), budget, 11),
        ("all-tied", np.zeros((9, 9), dtype=complex), (3, 3), budget, 11),
    ]
    for dims in ((2, 3), (3, 2)):
        c = random_hermitian(derive_stream(312, dims[0]), 6)
        cases.append((f"dims-{dims[0]}x{dims[1]}", c, dims, budget, 11))
    for restarts in (16, 64):
        for seed in range(3):
            c = builtin_choi_map().choi
            cases.append((f"choi3-{restarts}-{seed}", c, (3, 3), Budget(restarts, 500), seed))
    for n, m in ((2, 3), (3, 2), (2, 2), (3, 4), (3, 3), (4, 3)):
        for k in range(5):
            c = random_hermitian(derive_stream(313 + k, 10 * n + m), n * m)
            cases.append((f"random-{n}x{m}-{k}", c, (n, m), Budget(16, 300), k))
    return cases


@pytest.mark.parametrize("case", _route_cases(), ids=lambda case: case[0])
def test_minimizer_value_agrees_with_the_einsum_route(case):
    # The compressions now round differently on dense matrices; the value
    # must still agree with the earlier route to the convergence bound.
    _, c, dims, budget, seed = case
    result = block_positivity_minimize(c, dims, budget, seed)
    bound = CONVERGENCE * max(1.0, frob(c))
    assert abs(result.value - _einsum_route_value(c, dims, budget, seed)) <= bound


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([2, 3]),
    m=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-3, 3),
)
def test_block_minimum_certificate_holds_at_the_returned_vectors(n, m, seed, exponent):
    c = 10.0**exponent * random_hermitian(derive_stream(seed, 0), n * m)
    budget = Budget(restarts=4, iterations=100)
    result = block_positivity_minimize(c, (n, m), budget, seed)
    assert abs(np.linalg.norm(result.x) - 1.0) < 1e-12
    assert abs(np.linalg.norm(result.y) - 1.0) < 1e-12
    at_vectors = verify_block_value(MatrixMap(n, m, c), result.x, result.y)
    slack = 1e-9 * max(1.0, frob(c))
    assert at_vectors <= result.value + slack
    if result.converged:
        assert abs(at_vectors - result.value) <= slack


def _top_vectors(v):
    return v[..., ::-1]


def _long_vectors(v):
    return v * (1.0 + 1e-6)


def _tilted_vectors(v):
    # Unit, and close enough to the bottom eigenvector that its value
    # stays within the bound; only the eigen-residual gives it away.
    out = v.copy()
    out[..., 0] += 3e-6 * v[..., 1]
    out[..., 0] /= np.linalg.norm(out[..., 0], axis=-1, keepdims=True)
    return out


@pytest.mark.parametrize("fault", [_top_vectors, _long_vectors, _tilted_vectors])
def test_block_minimizer_rejects_wrong_eigenvectors(monkeypatch, fault):
    # A solver whose eigenvalues are right but whose eigenvectors of 3x3
    # stacks are not must not slip a wrong winner through.
    real = np.linalg.eigh

    def faulty(a, *args, **kwargs):
        w, v = real(a, *args, **kwargs)
        return (w, fault(v)) if np.shape(a)[-1] == 3 else (w, v)

    c = builtin_choi_map().choi
    monkeypatch.setattr(np.linalg, "eigh", faulty)
    with pytest.raises(NumericalError, match="final check"):
        block_positivity_minimize(c, (3, 3), _FAST, seed=0)


def test_block_minimizer_runs_without_the_checked_solver(monkeypatch):
    c = builtin_choi_map().choi
    want = block_positivity_minimize(c, (3, 3), Budget(16, 500), seed=5)

    def refuse(*args, **kwargs):
        raise AssertionError("the checked eigensolver was called")

    monkeypatch.setattr(linalg, "hermitian_eigen", refuse)
    monkeypatch.setattr(classify, "hermitian_eigen", refuse, raising=False)
    got = block_positivity_minimize(c, (3, 3), Budget(16, 500), seed=5)
    assert (got.value, got.converged, got.restart) == (
        want.value,
        want.converged,
        want.restart,
    )
    assert got.x.tobytes() == want.x.tobytes()
    assert got.y.tobytes() == want.y.tobytes()


def _summary_line(caplog, *args):
    """block_positivity_minimize(*args) and its DEBUG summary, parsed."""
    with caplog.at_level(logging.DEBUG, logger="entanglecone.classify"):
        result = block_positivity_minimize(*args)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "entanglecone.classify"]
    found = re.fullmatch(
        r"block positivity: (\d+) restarts, (\d+) half-steps, (\d+) loose exits; "
        r"restart (\d+) wins at (\S+) after (\d+) refinement half-steps, "
        r"(converged|not converged); \d+\.\d{3} s",
        line,
    )
    assert found is not None, line
    return result, found


def test_block_minimizer_logs_one_summary(caplog, eigh_inputs):
    c, budget, seed = builtin_choi_map().choi, Budget(restarts=6, iterations=40), 5
    (_, restart, _, _, converged, used), loose = _per_restart_minimize(
        c, (3, 3), budget, seed
    )
    del eigh_inputs[:]
    result, found = _summary_line(caplog, c, (3, 3), budget, seed)
    restarts, half_steps, exits, winner = (int(g) for g in found.groups()[:4])
    refined = int(found.group(6))
    assert restarts == 6
    # One stacked solve per half-step, one matrix per active restart, the
    # winner's refinement included.
    assert half_steps == sum(len(a) for a in eigh_inputs)
    assert half_steps == 2 * (sum(run[4] for run in loose) + used - loose[restart][4])
    # Some restarts make the loose exit and some reach the iteration cap.
    assert 0 < exits < restarts
    loose_bound = classify._RESTART_EXIT_RATIO * CONVERGENCE * max(1.0, frob(c))
    assert exits == sum(run[3] < loose_bound for run in loose)
    assert winner == result.restart == restart
    assert refined == 2 * (used - loose[restart][4]) > 0
    assert found.group(5) == f"{result.value:.6e}"
    assert found.group(7) == "converged" and result.converged == converged


def test_winner_capped_in_its_refinement_is_not_converged(caplog):
    # The winner makes its loose exit a few iterations before the cap and
    # reaches the cap before the CONVERGENCE exit.
    c, budget, seed = builtin_choi_map().choi, Budget(restarts=16, iterations=10), 5
    (value, restart, x, y, converged, used), loose = _per_restart_minimize(
        c, (3, 3), budget, seed
    )
    assert loose[restart][4] < budget.iterations and not converged
    result, found = _summary_line(caplog, c, (3, 3), budget, seed)
    assert not result.converged and found.group(7) == "not converged"
    # The refinement takes only what is left of the winner's budget.
    assert int(found.group(6)) == 2 * (budget.iterations - loose[restart][4])
    assert (result.restart, result.value) == (restart, value)
    assert np.array_equal(result.x, x) and np.array_equal(result.y, y)
    full = _full_run(c, (3, 3), budget, seed, restart)
    assert (result.value, result.converged) == (full[0], full[3])
    assert np.array_equal(result.x, full[1]) and np.array_equal(result.y, full[2])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([2, 3]),
    m=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-3, 3),
)
def test_block_minimum_is_its_winners_own_run(n, m, seed, exponent):
    c = 10.0**exponent * random_hermitian(derive_stream(seed, 0), n * m)
    budget = Budget(restarts=8, iterations=100)
    result = block_positivity_minimize(c, (n, m), budget, seed)
    loose_bound = classify._RESTART_EXIT_RATIO * CONVERGENCE * max(1.0, frob(c))
    for r in range(budget.restarts):
        run = _run_alone(c, (n, m), _start(seed, r, n), np.inf, budget.iterations, loose_bound)
        assert result.value <= run[0]
    value, x, y, converged = _full_run(c, (n, m), budget, seed, result.restart)
    assert (result.value, result.converged) == (value, converged)
    assert np.array_equal(result.x, x) and np.array_equal(result.y, y)
