"""Tests of the benchmark itself: inputs, oracles, percentiles, tracing.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _run_cli(job: jobs.Job, tmp_path: Path) -> tuple[int, str]:
    from entanglecone import cli

    path = tmp_path / "input.json"
    if job.doc is not None:
        path.write_text(job.doc)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(path) if a == jobs.INPUT else a for a in job.argv])
    return code, out.getvalue()


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = [jobs.make_job(workload, 7, k) for k in range(12)]
    again = [jobs.make_job(workload, 7, k) for k in range(12)]
    other = [jobs.make_job(workload, 8, k) for k in range(12)]
    assert [(j.argv, j.doc) for j in first] == [(j.argv, j.doc) for j in again]
    assert [(j.argv, j.doc) for j in first] != [(j.argv, j.doc) for j in other]


def test_generalized_choi_2_0_1_is_builtin_choi3():
    from entanglecone.classify import builtin_map

    assert np.array_equal(orc.generalized_choi(2.0, 0.0, 1.0), builtin_map("choi3").choi)


def _block_minimum(choi: np.ndarray, starts: int = 200) -> float:
    """Least <x (x) y, C x (x) y> by alternating eigenvectors, numpy only."""
    c4 = choi.reshape(3, 3, 3, 3)
    rng = np.random.default_rng(0)
    best = np.inf
    for _ in range(starts):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        x /= np.linalg.norm(x)
        for _ in range(100):
            w, v = np.linalg.eigh(np.einsum("i,ikjl,j->kl", x.conj(), c4, x))
            y = v[:, 0]
            _, v = np.linalg.eigh(np.einsum("k,ikjl,l->ij", y.conj(), c4, y))
            x = v[:, 0]
        best = min(best, w[0])
    return best


# (a, b, c, cp, copositive, positive)
PINNED_PHI = [
    (2.0, 0.0, 1.0, False, False, True),   # choi3
    (3.0, 0.0, 0.0, True, False, True),
    (1.0, 1.0, 1.0, False, True, True),
    (1.5, 0.2, 1.3, False, False, True),   # a+b+c = 3, bc = 0.26 >= 0.25
    (1.5, 0.1, 1.4, False, False, False),  # a+b+c = 3, bc = 0.14 < 0.25
    (2.0, 0.4, 0.4, False, False, False),  # a+b+c < 3
    (0.5, 2.0, 2.0, False, False, False),  # a < 1
]


@pytest.mark.parametrize("a,b,c,cp,cop,pos", PINNED_PHI)
def test_phi_closed_forms_at_pinned_points(a, b, c, cp, cop, pos):
    assert (orc.phi_is_cp(a, b, c), orc.phi_is_copositive(a, b, c),
            orc.phi_is_positive(a, b, c)) == (cp, cop, pos)
    choi = orc.generalized_choi(a, b, c)
    assert (orc.least_eigenvalue(choi) >= -1e-12) == cp
    assert (orc.least_eigenvalue(orc.partial_transpose(choi, (3, 3))) >= -1e-12) == cop
    assert (_block_minimum(choi) >= -1e-10) == pos


@pytest.mark.parametrize("alpha,cls", [
    (2.0, orc.SEPARABLE), (2.5, orc.SEPARABLE), (3.0, orc.SEPARABLE),
    (3.5, orc.PPT_ENTANGLED), (4.5, orc.NPT), (5.0, orc.NPT),
])
def test_alpha_state_closed_forms_at_pinned_points(alpha, cls):
    assert orc.alpha_class(alpha) == cls
    h = orc.alpha_state(alpha)
    assert abs(np.trace(h).real - 1.0) < 1e-12
    assert orc.least_eigenvalue(h) >= -1e-12
    ppt = orc.least_eigenvalue(orc.partial_transpose(h, (3, 3))) >= -1e-12
    assert ppt == (cls != orc.NPT)
    witness = orc.apply_second_literal(h, orc.generalized_choi(2.0, 0.0, 1.0), 3, 3)
    # The choi3 output's least eigenvalue is (3 - alpha) / 21: it detects
    # exactly the alpha-states above 3.
    assert orc.least_eigenvalue(witness) == pytest.approx((3.0 - alpha) / 21.0, abs=1e-12)


def test_tail_rule_keeps_ten_jobs_beyond():
    assert run.tail_rule(19) is None
    assert run.tail_rule(20) == 50.0
    assert run.tail_rule(39) == 50.0
    assert run.tail_rule(40) == 75.0
    assert run.tail_rule(99) == 75.0
    assert run.tail_rule(100) == 90.0
    assert run.tail_rule(200) == 95.0
    assert run.tail_rule(1000) == 99.0
    assert run.tail_rule(2000) == 99.5
    assert run.tail_rule(10000) == 99.9
    for n in (20, 57, 100, 333, 1000, 4321):
        assert run.beyond(n, run.tail_rule(n)) >= 10


def test_harrell_davis_percentile():
    # On 1..n the Beta weights put the p-th percentile at n*p + 1/2.
    times = [float(i) for i in range(1, 101)]
    assert run.percentile(times, 90.0) == pytest.approx(90.5, abs=1e-6)
    assert run.percentile(times[:99], 50.0) == pytest.approx(50.0, abs=1e-9)
    assert run.percentile([0.25] * 7, 95.0) == pytest.approx(0.25, rel=1e-12)
    # Values far from the percentile's ranks carry no weight.
    assert run.percentile(times[:99] + [1e6], 50.0) == pytest.approx(50.5, abs=1e-6)
    # Too few jobs beyond p for a bounded density: nearest rank.
    assert run.percentile(times[:20], 99.0) == 20.0


def test_tail_uses_fixed_percentile_and_falls_back():
    times = [float(i) for i in range(1, 101)]
    p, value = run.tail("search", times)
    assert (p, value) == (75.0, pytest.approx(75.5, abs=1e-6))
    # 30 jobs leave fewer than ten beyond p75: fall back to p50.
    p, value = run.tail("search", times[:30])
    assert (p, value) == (50.0, pytest.approx(15.5, abs=1e-6))


def test_checks_reject_a_wrong_verdict(tmp_path):
    job = jobs.make_job("classify", 3, 0)  # a CP map
    code, stdout = _run_cli(job, tmp_path)
    assert jobs.check(job, code, stdout) == (jobs.OK, "")
    doc = json.loads(stdout)
    doc["cp"] = not doc["cp"]
    assert jobs.check(job, code, json.dumps(doc))[0] == jobs.FAIL
    assert jobs.check(job, 3, stdout)[0] == jobs.FAIL


def test_nonpositive_certificate_at_the_iteration_cap(tmp_path):
    # Its winning restart stops at the cap, and the certificate lies
    # 1e-9 below block_min.
    job = jobs.make_job("classify", 405, 247)
    code, stdout = _run_cli(job, tmp_path)
    doc = json.loads(stdout)
    assert doc["positive_verdict"] == "certified-nonpositive"
    assert doc["block_converged"] is False
    assert jobs.check(job, code, stdout) == (jobs.OK, "")
    # A certificate weaker than the reported minimum is wrong either way.
    doc["block_min"] -= 1e-6
    assert jobs.check(job, code, json.dumps(doc))[0] == jobs.FAIL
    doc["block_converged"] = True
    doc["block_min"] += 1e-6 - 1e-8
    assert jobs.check(job, code, json.dumps(doc))[0] == jobs.FAIL


def test_missing_boundary_is_reported_absent(monkeypatch, tmp_path):
    """A deleted or renamed boundary must not crash the traced run."""
    import entanglecone.parallel

    monkeypatch.delattr(entanglecone.parallel, "run_indexed")
    tracer = tracing.Tracer()
    tracer.install(tracing.BOUNDARIES + (("states.renamed", "states", "_no_such_function"),
                                         ("gone.module", "no_such_module", "f")))
    try:
        tracer.set_job("job-0")
        code, stdout = _run_cli(jobs.make_job("search", 1, 0), tmp_path)
    finally:
        tracer.uninstall()
    assert code in (0, 4) and json.loads(stdout)["violation"] is not None
    assert set(tracer.absent) == {"parallel.run_indexed", "states.renamed", "gone.module"}
    metrics = tracer.metrics(500, 0, 0)
    assert metrics["parallel.run_indexed.calls"] == 0
    assert metrics["states.dykstra.calls"] > 0
    assert tracing.absent_metrics(metrics, tracer.absent) == ["parallel.run_indexed.calls"]


def test_uninstall_restores_every_patch():
    from entanglecone import classify, cli

    before = (cli.main, cli.classify_map, classify.classify_map, np.linalg.eigh)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.classify_map is classify.classify_map is not before[1]
    tracer.uninstall()
    assert (cli.main, cli.classify_map, classify.classify_map, np.linalg.eigh) == before


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace, capsys, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    monkeypatch.setattr(run, "TRACE_JOBS", dict.fromkeys(jobs.WORKLOADS, 2))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(expected)
    summary = "\n".join(lines[:-1])
    for name in expected + ([] if trace else ["failed_frac", "miss_frac"]):
        assert name in summary
