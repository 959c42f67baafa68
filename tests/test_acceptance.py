"""End-to-end acceptance battery.

Nine numbered criteria cover the duality pairing, map classification,
the Peres equivalence, entanglement-breaking maps, the PPT-entangled
state search, block decomposition, conditional expectations, the
eigensolver oracle and byte determinism. Each test prints one
pass/fail line with the measured quantities so a transcript of this
file is a complete audit of the contract.
"""
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from entanglecone.blocks import (
    SeparableEnsemble,
    conditional_expectation_verdict,
    decompose_separable,
)
from entanglecone.classify import Budget, builtin_map, classify_map, is_cp, is_copositive
from entanglecone.duality import (
    BipartiteState,
    HolevoForm,
    choi_from_action,
    apply_map,
    holevo_to_map,
    identity_map,
    kraus_to_map,
    map_from_state,
    pairing_value,
    state_from_map,
    transpose_map,
)
from entanglecone.linalg import (
    e_matrix,
    frob,
    hermitian_eigen,
    hermitian_part,
    kron,
    partial_trace,
    partial_transpose,
)
from entanglecone.states import (
    SEARCH_BUDGET,
    peres_equivalence,
    ppt_check,
    search_ppt_entangled,
    witness_battery,
)
from reference import (
    derive_stream,
    gaussian_complex_matrix,
    min_eigenpair,
    random_density,
    random_hermitian,
    random_pure_mixture,
)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} {name} ({detail})")
    assert ok, f"criterion {num} failed: {name} ({detail})"


def _dim(stream, top: int) -> int:
    return 1 + int(stream.next_float() * top)


def test_criterion_1_duality_pairing_roundtrip():
    start = time.monotonic()
    stream = derive_stream(901, 0)
    max_pairing_err = 0.0
    max_roundtrip_err = 0.0
    for k in range(500):
        n = _dim(stream, 4)
        m = _dim(stream, 4)
        if k % 2 == 0:
            f = kraus_to_map(
                [gaussian_complex_matrix(stream, m, n) for _ in range(2)]
            )
        else:
            f = holevo_to_map(
                HolevoForm(
                    tuple(
                        (random_density(stream, n), random_density(stream, m))
                        for _ in range(2)
                    )
                )
            )
        s = state_from_map(f)
        a = gaussian_complex_matrix(stream, n, n)
        b = gaussian_complex_matrix(stream, m, m)
        direct = complex(np.trace(s.density @ kron(a, b)))
        max_pairing_err = max(
            max_pairing_err, abs(pairing_value(f, a, b) - direct)
        )
        g = map_from_state(s)
        max_roundtrip_err = max(
            max_roundtrip_err, float(np.max(np.abs(g.choi - f.choi)))
        )
    elapsed = time.monotonic() - start
    ok = max_pairing_err <= 1e-10 and max_roundtrip_err <= 1e-10 and elapsed < 10.0
    _verdict(
        1,
        "duality pairing and state roundtrip over 500 maps",
        ok,
        f"pairing err {max_pairing_err:.2e}, roundtrip err "
        f"{max_roundtrip_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_choi_cp_theorem():
    stream = derive_stream(902, 0)
    all_cp = True
    max_transpose_err = 0.0
    for _ in range(100):
        n = _dim(stream, 4)
        m = _dim(stream, 4)
        f = kraus_to_map([gaussian_complex_matrix(stream, m, n) for _ in range(2)])
        ok, _ = is_cp(f)
        all_cp = all_cp and ok
        # Independent route to t . phi . t through the action, compared
        # entrywise against the global transpose of the Choi matrix.
        twisted = choi_from_action(n, m, lambda x, g=f: apply_map(g, x.T).T)
        max_transpose_err = max(
            max_transpose_err, float(np.max(np.abs(twisted.choi - f.choi.T)))
        )
    report = classify_map(transpose_map(3), Budget(8, 100), seed=0)
    transpose_ok = (
        not report.cp and report.copositive and report.block_min >= -1e-9
    )
    ok = all_cp and transpose_ok and max_transpose_err <= 1e-12
    _verdict(
        2,
        "Kraus maps are cp, transpose map is copositive only",
        ok,
        f"transpose-conjugate err {max_transpose_err:.2e}, "
        f"transpose block_min {report.block_min:.2e}",
    )


def test_criterion_3_peres_equivalence():
    stream = derive_stream(903, 0)
    disagreements = 0
    for k in range(200):
        d = 2 if k % 2 == 0 else 3
        terms = 1 + int(stream.next_float() * 4)
        s = BipartiteState((d, d), random_pure_mixture(stream, d * d, terms))
        ppt, _ = ppt_check(s)
        dual = map_from_state(s)
        cp_ok, _ = is_cp(dual)
        cop_ok, _ = is_copositive(dual)
        if ppt != (cp_ok and cop_ok):
            disagreements += 1
        if not peres_equivalence(s):
            disagreements += 1
    _verdict(
        3,
        "ppt verdict equals cp-and-copositive of the dual map on 200 states",
        disagreements == 0,
        f"{disagreements} disagreements",
    )


def test_criterion_4_entanglement_breaking_states_pass_battery():
    stream = derive_stream(904, 0)
    not_ppt = 0
    false_certificates = 0
    for k in range(500):
        n = 2 + (k % 2)
        m = 2 + ((k // 2) % 2)
        terms = tuple(
            (random_density(stream, n), random_density(stream, m))
            for _ in range(1 + int(stream.next_float() * 3))
        )
        s = state_from_map(holevo_to_map(HolevoForm(terms)))
        ok, _ = ppt_check(s)
        if not ok:
            not_ppt += 1
        report = witness_battery(s)
        if report.entanglement == "certified-entangled":
            false_certificates += 1
    _verdict(
        4,
        "500 entanglement-breaking functionals are PPT with no certificate",
        not_ppt == 0 and false_certificates == 0,
        f"{not_ppt} non-PPT, {false_certificates} false certificates",
    )


def test_criterion_5_search_finds_ppt_entangled_state():
    witness = builtin_map("choi3")
    start = time.monotonic()
    result = search_ppt_entangled(
        witness, budget=SEARCH_BUDGET, seed=0, witness_name="choi3"
    )
    elapsed = time.monotonic() - start
    h = result.state.density
    shape_ok = h.shape == (9, 9)
    low_h, _ = min_eigenpair(hermitian_part(h))
    low_pt, _ = min_eigenpair(
        hermitian_part(partial_transpose(h, (3, 3), "second"))
    )
    # Re-verify the certificate from primitive operations only: slice h
    # into 3x3 blocks, push each through the literal trace formula for
    # the witness action, reassemble and take the least eigenvalue.
    c = witness.choi
    eye3 = np.eye(3, dtype=complex)
    out = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            block = h[3 * i:3 * i + 3, 3 * j:3 * j + 3]
            phi_block = partial_trace(kron(block.T, eye3) @ c, (3, 3), "first")
            out += kron(e_matrix(i, j, 3), phi_block)
    low_out, _ = min_eigenpair(hermitian_part(out))
    battery = witness_battery(result.state)
    battery_ok = battery.entanglement == "certified-entangled" and any(
        hit.name == "choi3" for hit in battery.hits
    )
    ok = (
        shape_ok
        and low_h >= -1e-9
        and low_pt >= -1e-9
        and low_out <= -1e-3
        and abs(low_out + result.violation) <= 1e-6
        and result.violation >= 1e-3
        and result.converged
        and battery_ok
        and elapsed < 60.0
    )
    _verdict(
        5,
        "default-budget search returns a verified PPT-entangled 9x9 state",
        ok,
        f"violation {result.violation:.6f}, min eig {low_h:.1e}, "
        f"PT min eig {low_pt:.1e}, witness output min {low_out:.4e}, "
        f"{elapsed:.1f}s",
    )


def _block_sizes(stream, k: int) -> list[int]:
    sizes = [1 + int(stream.next_float() * 2) for _ in range(k)]
    while sum(sizes) > 6:
        sizes[sizes.index(2)] = 1
    return sizes


def test_criterion_6_block_decomposition_recovers_structure():
    stream = derive_stream(906, 0)
    failures = 0
    for trial in range(100):
        k = 1 + (trial % 4)
        sizes = _block_sizes(stream, k)
        n = sum(sizes)
        offsets = [sum(sizes[:c]) for c in range(k)]
        raw = []
        for off, size in zip(offsets, sizes):
            for _ in range(1 + int(stream.next_float() * 2)):
                a = np.zeros((n, n), dtype=complex)
                a[off:off + size, off:off + size] = random_density(stream, size)
                b = np.zeros((n, n), dtype=complex)
                b[off:off + size, off:off + size] = random_density(stream, size)
                raw.append([0.1 + stream.next_float(), a, b])
        total = sum(t[0] for t in raw)
        for t in raw:
            t[0] /= total
        order = sorted(range(len(raw)), key=lambda _: stream.next_float())
        ens = SeparableEnsemble(tuple(tuple(raw[i]) for i in order))
        result = decompose_separable(ens)
        rebuilt = sum(c.weight * c.state.density for c in result.components)
        good = (
            len(result.components) == k
            and result.max_cross_overlap <= 1e-9
            and frob(rebuilt - ens.to_state().density) <= 1e-9
        )
        if not good:
            failures += 1
    _verdict(
        6,
        "decomposition recovers k blocks on 100 shuffled ensembles",
        failures == 0,
        f"{failures} failures",
    )


def test_criterion_7_conditional_expectation_verdicts():
    stream = derive_stream(907, 0)
    max_rebuild_err = 0.0
    separable_ok = True
    for n in (2, 3):
        f = choi_from_action(n, n, lambda x: np.diag(np.diag(x)))
        report = conditional_expectation_verdict(f)
        separable_ok = separable_ok and report.verdict == "separable"
        separable_ok = separable_ok and report.certificate is not None
        for _ in range(10):
            x = random_hermitian(stream, n)
            rebuilt = sum(
                np.trace(w @ x) * p for w, p in report.certificate.terms
            )
            max_rebuild_err = max(
                max_rebuild_err, frob(rebuilt - apply_map(f, x))
            )
    identity_report = conditional_expectation_verdict(identity_map(2))
    entangled_ok = (
        identity_report.verdict == "entangled"
        and identity_report.state_report is not None
        and abs(identity_report.state_report.ppt_min_eigenvalue + 1.0) <= 1e-9
    )
    ok = separable_ok and entangled_ok and max_rebuild_err <= 1e-9
    _verdict(
        7,
        "diagonal expectations separable, identity map entangled",
        ok,
        f"certificate rebuild err {max_rebuild_err:.2e}, identity PT eig "
        f"{identity_report.state_report.ppt_min_eigenvalue:.9f}",
    )


def _charpoly_roots(a: np.ndarray) -> np.ndarray:
    d = a.shape[0]
    tr = float(np.trace(a).real)
    if d == 2:
        det = float(np.linalg.det(a).real)
        disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
        roots = np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])
    else:
        tr2 = float(np.trace(a @ a).real)
        det = float(np.linalg.det(a).real)
        coeffs = [1.0, -tr, (tr * tr - tr2) / 2.0, -det]
        roots = np.sort(np.roots(coeffs).real)[::-1]
    return roots


def test_criterion_8_eigensolver_matches_charpoly_oracle():
    stream = derive_stream(908, 0)
    max_eig_err = 0.0
    for k in range(1000):
        d = 2 if k % 2 == 0 else 3
        x = random_hermitian(stream, d)
        w, _ = hermitian_eigen(x)
        max_eig_err = max(
            max_eig_err, float(np.max(np.abs(w - _charpoly_roots(x))))
        )
    max_residual = 0.0
    for d in range(2, 10):
        for _ in range(15):
            x = random_hermitian(stream, d)
            w, v = hermitian_eigen(x)
            residual = frob(v @ np.diag(w) @ v.conj().T - x)
            max_residual = max(max_residual, residual / max(frob(x), 1e-300))
    ok = max_eig_err <= 1e-10 and max_residual <= 1e-10
    _verdict(
        8,
        "eigenvalues match the characteristic-polynomial oracle",
        ok,
        f"eig err {max_eig_err:.2e}, relative residual {max_residual:.2e}",
    )


@pytest.mark.usefixtures("package_on_pythonpath")
def test_criterion_9_byte_determinism_across_threads():
    base = [sys.executable, "-m", "entanglecone"]
    reduced = ["--seed", "3", "--budget-restarts", "4", "--budget-iters", "40"]
    commands = [
        ["search-ppt-entangled", "choi3", *reduced],
        ["classify-map", "builtin:choi3", *reduced],
    ]
    ok = True
    details = []
    for cmd in commands:
        outputs = set()
        # numpy reads the BLAS thread counts once, as it loads.
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            for _ in range(3):
                proc = subprocess.run(
                    base + cmd, capture_output=True, env=env, timeout=300
                )
                ok = ok and proc.returncode in (0, 4)
                outputs.add(proc.stdout)
        ok = ok and len(outputs) == 1
        details.append(f"{cmd[0]}: {len(outputs)} distinct output(s)")
    _verdict(
        9,
        "search and classify stdout byte-identical across runs and threads",
        ok,
        "; ".join(details),
    )
