"""Digest the CLI's stdout and exit codes over a prefix of the bench jobs.

Runs the first 100 ``search``, 200 ``classify`` and 400 ``states`` jobs
of bench seed 7 from ``bench/jobs.py`` in-process through
``entanglecone.cli.main``, against the package found in ``--src``, then
the same 400 ``states`` jobs and 200 ``classify`` jobs with
``--tol-psd 1e-10``, then ``search`` jobs 1200 to 1259 of bench seed 42,
then ``search`` jobs 0 to 3 of bench seed 7 at the default budget of
16 restarts x 200 steps, then the 400 ``states`` jobs with
``--tol-psd 1e-16``, and prints one line per run:

    <run> <jobs> <sha256 of every job's exit code and stdout>

where the run is the workload's name, or ``states-tol1e-10``,
``classify-tol1e-10``, ``search-seed42``, ``search-default`` and
``states-tol1e-16`` for the last five. The ``classify`` jobs at the
non-default slack cover the witness battery that classify-map runs on
the state of a completely positive map. At 1e-16, 139 of the ``states``
jobs exit 3: 46 at the battery's density check, which no other run
reaches, and 93 at the support projection of ``decompose``. Job 1226 of seed 42 is a search whose winner's exact
finish stops at the projection's iteration cap. The bench ``search``
jobs take 8 restarts x 1 step; ``search-default`` appends
``--budget-restarts 16 --budget-iters 200`` to four of them, which
argparse reads over the job's own budget, so that a change to longer
searches shows (a few seconds). With ``--per-job`` it prints one line per
job instead:

    <run> <k> <sha256 of job k's exit code and stdout>

with k the job's index in its seed's job list. With ``--work`` it runs
only the three search runs and prints, for each, the totals over its
jobs of the counts in every search's DEBUG summary, and the least
eigenvalues of the reported states h and PT(h) over its jobs, read
from each job's stdout:

    <run> <jobs> ascent <sweeps> finish <sweeps> caps <hits> lmin <h> lmin-pt <PT(h)>

where the sweeps are matrix-sweeps and the hits cap hits.

Unlike wall time, these figures are exact for fixed jobs, so two trees
can be compared on one machine; the counts also across machines.

Two trees print the same lines exactly when they give every job the
same exit code and byte-identical stdout; the per-job lines say which
jobs differ. Run from any directory:

    python tools/stdout_digest.py --src src
    python tools/stdout_digest.py --src /path/to/other/checkout/src --per-job
    python tools/stdout_digest.py --src src --work

The job lists come from this checkout's ``bench/jobs.py`` for both
trees, so the comparison holds the inputs fixed.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (run, workload, bench seed, job indices, arguments appended to every
# job's command line)
RUNS = (
    ("search", "search", 7, range(100), []),
    ("classify", "classify", 7, range(200), []),
    ("states", "states", 7, range(400), []),
    ("states-tol1e-10", "states", 7, range(400), ["--tol-psd", "1e-10"]),
    ("classify-tol1e-10", "classify", 7, range(200), ["--tol-psd", "1e-10"]),
    ("search-seed42", "search", 42, range(1200, 1260), []),
    (
        "search-default", "search", 7, range(4),
        ["--budget-restarts", "16", "--budget-iters", "200"],
    ),
    ("states-tol1e-16", "states", 7, range(400), ["--tol-psd", "1e-16"]),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", required=True, type=Path,
        help="directory holding the entanglecone package to run",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--per-job", action="store_true",
        help="print one digest per job rather than one per run",
    )
    mode.add_argument(
        "--work", action="store_true",
        help="print the sweep and cap-hit totals of each search run instead",
    )
    return parser.parse_args(argv)


def _import_cli(src: Path):
    """entanglecone.cli from src, or exit if another copy would load."""
    src = src.resolve()
    if not (src / "entanglecone" / "__init__.py").is_file():
        raise SystemExit(f"error: no entanglecone package in {src}")
    sys.path.insert(0, str(src))
    from entanglecone import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported entanglecone from {cli.__file__}")
    return cli


class _WorkTotals(logging.Handler):
    """Sums the ascent and finish matrix-sweeps and the cap hits of
    every search's DEBUG summary it receives."""

    PATTERN = re.compile(
        r"(\d+) matrix-sweeps in the ascent, (\d+) in the finish, (\d+) cap hits"
    )

    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.totals = [0, 0, 0]

    def emit(self, record: logging.LogRecord) -> None:
        match = self.PATTERN.search(record.getMessage())
        if match:
            self.totals = [t + int(g) for t, g in zip(self.totals, match.groups())]


def outputs(cli, jobs, workload: str, seed: int, ks, extra: list[str], path: Path):
    """Each job's exit code line and stdout, as bytes, in job order."""
    for k in ks:
        job = jobs.make_job(workload, seed, k)
        if job.doc is not None:
            path.write_text(job.doc)
        argv = [str(path) if a == jobs.INPUT else a for a in job.argv] + extra
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is part of the behaviour compared
                code = f"raised {type(exc).__name__}"
        yield f"{code}\n{out.getvalue()}".encode()


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = _import_cli(args.src)
    sys.path.insert(0, str(ROOT / "bench"))
    import jobs
    import oracles as orc

    if args.work:
        work = _WorkTotals()
        search_log = logging.getLogger("entanglecone.states")
        search_log.setLevel(logging.DEBUG)
        search_log.addHandler(work)
    with tempfile.TemporaryDirectory() as tmp:
        # One fixed file name, so no path differs between two runs.
        path = Path(tmp) / "input.json"
        for run, workload, seed, ks, extra in RUNS:
            outs = outputs(cli, jobs, workload, seed, ks, extra, path)
            if args.work:
                if workload != "search":
                    continue
                work.totals = [0, 0, 0]
                low = low_pt = float("inf")
                for out in outs:
                    state = json.loads(out.split(b"\n", 1)[1])["state"]
                    h = orc.matrix_from_doc(state["density"])
                    pt = orc.partial_transpose(h, tuple(state["dims"]))
                    low = min(low, orc.least_eigenvalue(h))
                    low_pt = min(low_pt, orc.least_eigenvalue(pt))
                a, f, c = work.totals
                print(
                    f"{run} {len(ks)} ascent {a} finish {f} caps {c} "
                    f"lmin {low:.3e} lmin-pt {low_pt:.3e}",
                    flush=True,
                )
            elif args.per_job:
                for k, out in zip(ks, outs):
                    print(f"{run} {k} {hashlib.sha256(out).hexdigest()}", flush=True)
            else:
                h = hashlib.sha256()
                for out in outs:
                    h.update(out)
                print(f"{run} {len(ks)} {h.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
