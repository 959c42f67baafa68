"""Benchmark of the entanglecone CLI: three workloads, end to end or traced.

    python3 bench/run.py --workload search|classify|states --seed N \
        --seconds S --trace 0|1

Run from the repository root. Each workload is a closed loop: one client
in this process runs a seed-generated job list back to back, each job
one ``entanglecone.cli.main`` call, and checks every output with
``jobs.check``. ENTANGLECONE_THREADS is unset (serial), as by default.

``--trace 0`` times jobs for ``--seconds`` with nothing installed and
prints the end-to-end metrics. ``--trace 1`` wraps the layer boundaries
(``tracing``), runs a fixed prefix of the job list traced and then
untraced, and prints the per-layer metrics with both wall times. The
last stdout line is one JSON object: correct, attempted, failed,
metrics. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402

THREADS_VAR = "ENTANGLECONE_THREADS"

# Percentile reported as job_tail_s, fixed per workload so that commits
# compare like with like. Each is the highest of TAIL_GRID with at least
# ten jobs beyond it at half the job count a 35-second run reaches at the
# commit that defined the benchmark, so ordinary spread never crosses
# it; a run with too few jobs falls back to the rule on its own count.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_PERCENTILE = {"search": 75.0, "classify": 95.0, "states": 95.0}
# Integration points per rank interval in the Harrell-Davis weights.
HD_SUBSTEPS = 32

# Fresh processes timed for setup_s; the median is reported. Half run
# before the timed loop and half after it, so that they sample the same
# stretch of a drifting machine as the jobs do.
SETUP_REPEATS = 4
# Lazy set-up each workload's first job pays: the witness libraries it
# builds (each screens block positivity; dimension 3 also validates
# builtin:choi3). The search only validates builtin:choi3.
SETUP_LIBRARIES = {"search": (), "classify": (3,), "states": (2, 3)}

# Jobs in a traced run: a fixed prefix, so counts repeat exactly.
TRACE_JOBS = {"search": 24, "classify": 160, "states": 240}


# ----------------------------------------------------------------------
# Percentiles.


def beyond(n: int, p: float) -> int:
    """Jobs strictly beyond the nearest-rank p-th percentile of n jobs."""
    return n - math.ceil(p / 100.0 * n - 1e-9)


def tail_rule(n: int) -> float | None:
    """Highest grid percentile with at least ten of n jobs beyond it."""
    ok = [p for p in TAIL_GRID if beyond(n, p) >= 10]
    return max(ok) if ok else None


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile (Harrell & Davis,
    Biometrika 69, 1982): the mean of the order statistics weighted by
    the Beta(p(n+1), (1-p)(n+1)) mass of each rank's interval.

    Every job near the percentile contributes, so a run's value does not
    jump with the few slow jobs that happen to straddle one rank; on
    ``classify`` p95 this halved the seed-to-seed spread of the nearest
    rank. Falls back to the nearest rank where the Beta density is not
    bounded (fewer than about one job beyond p).
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    if a < 1.0 or b < 1.0:
        rank = max(1, math.ceil(q * n - 1e-9))
        return float(ordered[rank - 1])
    # Midpoint rule, HD_SUBSTEPS points per rank interval ((i-1)/n, i/n].
    x = (np.arange(n * HD_SUBSTEPS) + 0.5) / (n * HD_SUBSTEPS)
    log_pdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
    mass = np.exp(log_pdf - log_pdf.max()).reshape(n, HD_SUBSTEPS).sum(axis=1)
    return float(mass @ ordered / mass.sum())


def tail(workload: str, times: list[float]) -> tuple[float, float]:
    """(percentile used, job_tail_s) for one run's job times."""
    p = TAIL_PERCENTILE[workload]
    if beyond(len(times), p) < 10:
        p = tail_rule(len(times)) or 100.0
    return p, percentile(times, p)


# ----------------------------------------------------------------------
# Provenance.


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def provenance(workload: str, seed: int, threads: str | None) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        # As found in the environment; the run itself always unsets it.
        THREADS_VAR: threads,
    }


# ----------------------------------------------------------------------
# Set-up.

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import entanglecone.cli
from entanglecone import classify
classify.builtin_choi_map()
for m in {libraries!r}:
    classify.default_witness_library(m)
print(time.perf_counter() - t0)
"""


def warm_up(workload: str) -> None:
    from entanglecone import classify

    classify.builtin_choi_map()
    for m in SETUP_LIBRARIES[workload]:
        classify.default_witness_library(m)


def measure_setup(workload: str, repeats: int) -> list[float]:
    """Cold import plus lazy set-up, each in a fresh interpreter."""
    code = _SETUP_CHILD.format(src=str(SRC), libraries=SETUP_LIBRARIES[workload])
    env = {k: v for k, v in os.environ.items() if k != THREADS_VAR}
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ----------------------------------------------------------------------
# The closed loop.


class Loop:
    """Runs jobs through cli.main, timing and checking each."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.input = workdir / "input.json"
        self.times: list[float] = []
        self.status = {jobs.OK: 0, jobs.MISS: 0, jobs.FAIL: 0}
        self.ascent_steps = 0
        self.restarts = 0
        self.failures: list[str] = []

    def run_one(self, k: int, on_start=None) -> None:
        from entanglecone import cli

        job = jobs.make_job(self.workload, self.seed, k)
        argv = [str(self.input) if a == jobs.INPUT else a for a in job.argv]
        if job.doc is not None:
            self.input.write_text(job.doc)
        out, err = io.StringIO(), io.StringIO()
        if on_start is not None:
            on_start(f"{self.workload}-{k}")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            code, reason = None, traceback.format_exc(limit=3)
        self.times.append(time.perf_counter() - t0)
        if code is not None:
            status, reason = jobs.check(job, code, out.getvalue())
        else:
            status = jobs.FAIL
        self.status[status] += 1
        if status == jobs.FAIL and len(self.failures) < 5:
            self.failures.append(f"job {k} ({' '.join(job.argv)}): {reason} {err.getvalue()[-300:]}")
        if job.kind == "search" and code is not None:
            with contextlib.suppress(ValueError, KeyError, TypeError):
                self.ascent_steps += int(json.loads(out.getvalue())["iterations"])
            self.restarts += job.meta["restarts"]

    def run_for(self, seconds: float) -> None:
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < seconds:
            self.run_one(k)
            k += 1

    def run_count(self, count: int, on_start=None) -> None:
        for k in range(count):
            self.run_one(k, on_start)


# ----------------------------------------------------------------------
# Metrics.

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(workload: str, loop: Loop, setup: list[float]) -> tuple[dict, dict]:
    n = len(loop.times)
    p, tail_s = tail(workload, loop.times)
    values = {
        "jobs_per_s": n / sum(loop.times),
        "job_p50_s": statistics.median(loop.times),
        "job_tail_s": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "busy_s": sum(loop.times),
        "tail_percentile": p,
        "jobs_beyond_tail": beyond(n, p),
        "setup_samples_s": setup,
    }
    return values, notes


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_per_step")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# Entry point.


def _import_package():
    """Import entanglecone from this checkout's src/ or explain why not."""
    if not (SRC / "entanglecone" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import entanglecone.cli

    if SRC not in Path(entanglecone.cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported entanglecone from {entanglecone.cli.__file__}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = os.environ.pop(THREADS_VAR, None)
    _import_package()
    # Configure logging before cli.main does, so package warnings reach
    # this process's real stderr instead of one job's captured buffer.
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        loop = Loop(args.workload, args.seed, workdir)
        info: dict = {"provenance": provenance(args.workload, args.seed, threads)}
        if args.trace:
            metrics = traced_run(args, loop, TRACE_JOBS[args.workload], info)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            before = SETUP_REPEATS // 2
            setup = measure_setup(args.workload, before)
            warm_up(args.workload)
            loop.run_for(args.seconds)
            setup += measure_setup(args.workload, SETUP_REPEATS - before)
            metrics, notes = end_to_end(args.workload, loop, setup)
            info.update(notes)
            units = E2E_UNITS
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    attempted = sum(loop.status.values())
    failed = loop.status[jobs.FAIL]
    info.update(
        status=loop.status,
        failed_frac=failed / attempted,
        miss_frac=loop.status[jobs.MISS] / attempted,
        metrics=metrics,
    )
    report(args, metrics, units, info, loop.failures)
    (WORK / f"result-{tag}.json").write_text(json.dumps(info, indent=2, sort_keys=True) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(args, loop: Loop, count: int, info: dict) -> dict:
    import tracing
    from entanglecone import states

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.set_job(tracing.SETUP_JOB)
        warm_up(args.workload)
        loop.run_count(count, tracer.set_job)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(
        getattr(states, "_DYKSTRA_ITERATIONS", 500), loop.ascent_steps, loop.restarts
    )
    traced_s = sum(loop.times)
    loop.times.clear()
    loop.run_count(count)
    untraced_s = sum(loop.times)
    metrics["trace.jobs"] = count
    metrics["trace.wall_s"] = traced_s
    metrics["trace.untraced_wall_s"] = untraced_s
    info["absent_boundaries"] = tracer.absent
    info["absent_metrics"] = tracing.absent_metrics(metrics, tracer.absent)
    info["spans"] = len(tracer.start)
    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.npz")
    return metrics


def report(args, metrics: dict, units: dict, info: dict, failures: list[str]) -> None:
    """Human-readable summary on stdout, ahead of the JSON line."""
    status = info["status"]
    n = sum(status.values())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  jobs {n}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    for name, key in (("failed_frac", jobs.FAIL), ("miss_frac", jobs.MISS)):
        print(f"  {name:45s} {info[name]:.6g} ratio ({status[key]}/{n})")
    if "tail_percentile" in info:
        print(f"  job_tail_s is p{info['tail_percentile']:g} of {n} jobs, "
              f"{info['jobs_beyond_tail']} beyond; setup_s is the median of "
              f"{len(info['setup_samples_s'])} fresh processes")
    if "absent_boundaries" in info:
        print(f"  absent boundaries: {info['absent_boundaries'] or 'none'}; "
              f"metrics reported as 0 for them: {info['absent_metrics'] or 'none'}")
    print(f"  provenance {json.dumps(info['provenance'], sort_keys=True)}")
    for line in failures:
        print(f"  FAILED {line}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
