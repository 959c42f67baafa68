"""Command-line interface.

Exit codes: 0 success, 1 usage error or stdout closed by its reader,
2 parse error, 3 numerical or domain error, 4 search finished without
finding a state. Reports go to stdout, byte deterministic for fixed
inputs, seed and budget; diagnostics go to stderr. main configures no
logging, so unless the caller does, warnings reach stderr bare.
"""
from __future__ import annotations

import argparse
import os
import sys

from .blocks import SeparableEnsemble, decompose_separable
from .classify import Budget, builtin_map, classify_map
from .duality import BipartiteState, MatrixMap, pairing_value
from .errors import DomainError, EntangleConeError, ParseError
from .linalg import DEFAULT_TOL, Tolerances
from .serialize import (
    dumps,
    load_json_file,
    map_from_json,
    map_to_json,
    matrix_from_json,
    report_to_json,
    state_document_from_json,
    to_text,
)
from .states import SEARCH_BUDGET, search_ppt_entangled, witness_battery

FOUND_VIOLATION = 1e-3

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_NOT_FOUND = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise _UsageError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--tol-psd",
        type=float,
        default=DEFAULT_TOL.psd_slack,
        help="relative PSD slack (default 1e-9)",
    )
    sub.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    sub.add_argument("--out", help="also write the result JSON to this file")


def _seed(text: str) -> int:
    """A seed in [0, 2^64): the PRNG keeps it in one word, so any other
    integer would alias one of these."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in [0, 2^64), got {text!r}"
        )
    return value


def _add_budget(sub: argparse.ArgumentParser, budget: Budget) -> None:
    """Seed and budget flags, for the two commands that run restarts."""
    sub.add_argument(
        "--seed", type=_seed, default=0, help="PRNG seed in [0, 2^64) (default 0)"
    )
    sub.add_argument(
        "--budget-restarts",
        type=int,
        default=budget.restarts,
        help=f"search restarts (default {budget.restarts})",
    )
    sub.add_argument(
        "--budget-iters",
        type=int,
        default=budget.iterations,
        help=f"iterations per restart (default {budget.iterations})",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="entanglecone",
        description="Positive maps, bipartite states and their entanglement verdicts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    choi = commands.add_parser(
        "choi", help="canonicalize a map to its Choi representation"
    )
    choi.add_argument("map", help="map JSON file or builtin:<name>")
    _add_common(choi)

    classify = commands.add_parser(
        "classify-map", help="positivity and separability classification of a map"
    )
    classify.add_argument("map", help="map JSON file or builtin:<name>")
    _add_common(classify)
    _add_budget(classify, Budget())

    analyze = commands.add_parser(
        "analyze-state", help="PPT test, witness battery and cross-checks for a state"
    )
    analyze.add_argument("state", help="state JSON file (density or ensemble repr)")
    analyze.add_argument(
        "--normalize", action="store_true", help="rescale the state to trace one"
    )
    _add_common(analyze)

    decompose = commands.add_parser(
        "decompose", help="orthogonal block decomposition of a separable ensemble"
    )
    decompose.add_argument("ensemble", help="state JSON file with ensemble repr")
    _add_common(decompose)

    search = commands.add_parser(
        "search-ppt-entangled",
        help="search for a PPT state detected by a named witness map",
    )
    search.add_argument("witness", help="builtin witness name, e.g. choi3")
    _add_common(search)
    _add_budget(search, SEARCH_BUDGET)

    pair = commands.add_parser(
        "pair", help="evaluate the duality pairing Tr(phi(a) b^T)"
    )
    pair.add_argument("map", help="map JSON file or builtin:<name>")
    pair.add_argument("a", help="matrix JSON file for the first factor")
    pair.add_argument("b", help="matrix JSON file for the second factor")
    _add_common(pair)

    return parser


# Parsing leaves the parser unchanged, so one serves every main() call.
_PARSER = build_parser()


def _resolve_map(source: str) -> MatrixMap:
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        try:
            return builtin_map(name)
        except DomainError as exc:
            raise _UsageError(str(exc)) from exc
    return map_from_json(load_json_file(source))


def _budget(args) -> Budget:
    return Budget(restarts=args.budget_restarts, iterations=args.budget_iters)


def _emit(doc: dict, args, saved: dict | None = None) -> None:
    """Print doc in the chosen format; with --out, first write saved, doc
    itself unless given, to that file as JSON. A file that cannot be
    written is a usage error, raised before anything is printed."""
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dumps(doc if saved is None else saved) + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write --out file: {exc}") from exc
    print(to_text(doc) if args.format == "text" else dumps(doc))


def _cmd_choi(args) -> int:
    f = _resolve_map(args.map)
    _emit(map_to_json(f), args)
    return EXIT_OK


def _cmd_classify(args) -> int:
    budget = _budget(args)  # reject an oversized budget before any work
    f = _resolve_map(args.map)
    report = classify_map(f, budget, args.seed, args.tol)
    _emit(report_to_json(report), args)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    parsed = state_document_from_json(load_json_file(args.state), args.tol)
    separable = isinstance(parsed, SeparableEnsemble)
    state: BipartiteState = parsed.to_state(args.tol) if separable else parsed
    if args.normalize:
        state = state.normalized(args.tol)
    report = witness_battery(state, tol=args.tol, separable_certificate=separable)
    _emit(report_to_json(report), args)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    parsed = state_document_from_json(load_json_file(args.ensemble), args.tol)
    if not isinstance(parsed, SeparableEnsemble):
        raise ParseError("decompose requires a state file with ensemble repr")
    result = decompose_separable(parsed, args.tol)
    _emit(report_to_json(result), args)
    return EXIT_OK


def _cmd_search(args) -> int:
    budget = _budget(args)  # reject an oversized budget before any work
    witness = _resolve_map(f"builtin:{args.witness}")  # a builtin name only
    result = search_ppt_entangled(
        witness,
        budget=budget,
        seed=args.seed,
        tol=args.tol,
        witness_name=args.witness,
    )
    doc = report_to_json(result)
    _emit(doc, args, doc["state"])
    if result.violation >= FOUND_VIOLATION and result.converged:
        return EXIT_OK
    return EXIT_NOT_FOUND


def _cmd_pair(args) -> int:
    f = _resolve_map(args.map)
    a = matrix_from_json(load_json_file(args.a))
    b = matrix_from_json(load_json_file(args.b))
    value = pairing_value(f, a, b)
    _emit({"value": [value.real, value.imag]}, args)
    return EXIT_OK


_DISPATCH = {
    "choi": _cmd_choi,
    "classify-map": _cmd_classify,
    "analyze-state": _cmd_analyze,
    "decompose": _cmd_decompose,
    "search-ppt-entangled": _cmd_search,
    "pair": _cmd_pair,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        args.tol = Tolerances(psd_slack=args.tol_psd)  # checked before any work
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()  # a closed reader surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does. What is still
        # buffered goes to the null device, so the flush at exit cannot
        # fail again; 1 is the exit code Python itself gives on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EntangleConeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
