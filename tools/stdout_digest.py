"""Digest the CLI's stdout and exit codes over a prefix of the bench jobs.

Runs the first 100 ``search``, 200 ``classify`` and 400 ``states`` jobs
of bench seed 7 from ``bench/jobs.py`` in-process through
``entanglecone.cli.main``, against the package found in ``--src``, then
the same 400 ``states`` jobs and 200 ``classify`` jobs with
``--tol-psd 1e-10``, and prints one line per run:

    <run> <jobs> <sha256 of every job's exit code and stdout>

where the run is the workload's name, or ``states-tol1e-10`` and
``classify-tol1e-10`` for the last two. The ``classify`` jobs at the
non-default slack cover the witness battery that classify-map runs on
the state of a completely positive map. With ``--per-job`` it prints one
line per job instead:

    <run> <k> <sha256 of job k's exit code and stdout>

Two trees print the same lines exactly when they give every job the
same exit code and byte-identical stdout; the per-job lines say which
jobs differ. Run from any directory:

    python tools/stdout_digest.py --src src
    python tools/stdout_digest.py --src /path/to/other/checkout/src --per-job

The job lists come from this checkout's ``bench/jobs.py`` for both
trees, so the comparison holds the inputs fixed.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
# (run, workload, jobs, arguments appended to every job's command line)
RUNS = (
    ("search", "search", 100, []),
    ("classify", "classify", 200, []),
    ("states", "states", 400, []),
    ("states-tol1e-10", "states", 400, ["--tol-psd", "1e-10"]),
    ("classify-tol1e-10", "classify", 200, ["--tol-psd", "1e-10"]),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", required=True, type=Path,
        help="directory holding the entanglecone package to run",
    )
    parser.add_argument(
        "--per-job", action="store_true",
        help="print one digest per job rather than one per run",
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


def outputs(cli, jobs, workload: str, count: int, extra: list[str], path: Path):
    """Each job's exit code line and stdout, as bytes, in job order."""
    for k in range(count):
        job = jobs.make_job(workload, SEED, k)
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

    with tempfile.TemporaryDirectory() as tmp:
        # One fixed file name, so no path differs between two runs.
        path = Path(tmp) / "input.json"
        for run, workload, count, extra in RUNS:
            outs = outputs(cli, jobs, workload, count, extra, path)
            if args.per_job:
                for k, out in enumerate(outs):
                    print(f"{run} {k} {hashlib.sha256(out).hexdigest()}", flush=True)
            else:
                h = hashlib.sha256()
                for out in outs:
                    h.update(out)
                print(f"{run} {count} {h.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
