"""Command-line front end.

Verbs: verify, extract, family, search, scheme, fixtures. Reports are
JSON on stdout with a schema_version field. Exit status meanings:

  0  success, or the checked property verified true
  1  the checked property verified false
  2  usage, file, or parse error, including a malformed or mismatched
     search checkpoint
  3  internal counterexample trap: a consequence that should follow
     from verified hypotheses failed, the search emitted a matrix its
     independent re-verification rejects, or a permutation witness
     does not carry one matrix onto the other

extract reports a core classification that is not an association
scheme as data ("scheme": null plus "scheme_witness"), with exit 0.

search --threads only chooses where subtrees run: a search that stays
in this process gives the same report on any thread count.

The argument parser is built on the first main() call and reused by
every later call in the process; importing the module builds nothing.
Only binmat is imported with the module; each verb imports what it
runs when it runs. verify loads biplane and pbibd; extract and family
load extract, which loads those two and scheme; scheme loads scheme;
search loads search and biplane; fixtures loads all of these but
search. Where no bytecode is cached, a fresh process compiles only
those. The five trap classes share the marker base binmat._Trap, so
main maps them to exit 3 without importing the modules that define
them. The process-pool machinery (concurrent.futures, multiprocessing)
is imported only when a search starts a pool.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .binmat import (
    BinaryMatrix,
    DimensionError,
    ShapeError,
    _Trap,
    _format_bytes,
    format_matrix,
    parse_matrix,
)

SCHEMA_VERSION = 2

# searches from this block size on must be requested explicitly: k = 10
# exhausts in a quarter of a second, but k = 11 takes about 1.37M nodes
# and minutes, and k = 12 more
LONG_RUN_K = 11

# verify and extract take matrices of at most this many rows (points):
# the classification's relation is a v x v int64 table, 8 bytes an
# entry, and 5000 points make 200 MB. For a sparse input it is the only
# one; a dense input also has its v x v concurrence table built by the
# classification, and by the biplane check when v = 1 + C(k,2). The
# largest benchmarked input has 1000 points; CI runs 5000. family
# writes 2m points, so it takes m of at most MAX_POINTS // 2
MAX_POINTS = 5000


class CliInputError(Exception):
    """Bad file, bad value, or unreadable input."""


def _emit(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    print(json.dumps(payload, indent=2))


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc


def _read_matrix(path: str) -> BinaryMatrix:
    # parse_matrix decodes (as UTF-8) only a file that is not ASCII
    try:
        m = parse_matrix(_read(path))
    except (ValueError, DimensionError) as exc:
        raise CliInputError(f"{path}: {exc}") from exc
    if m.rows > MAX_POINTS:
        raise CliInputError(
            f"{path}: v = {m.rows} points is above the cap of {MAX_POINTS}"
            " (verify and extract build v x v tables)"
        )
    return m


def _cmd_verify(args: argparse.Namespace) -> int:
    from .biplane import ParameterError, VerificationError, verify_biplane
    from .pbibd import NotPbibdError, StructureError, verify_pbibd

    m = _read_matrix(args.matrix)
    try:
        cert = verify_biplane(m)
    except (VerificationError, ShapeError, ParameterError) as exc:
        biplane_reason = str(exc)
    else:
        _emit({"verb": "verify", "verified": True, "kind": "biplane",
               "design": cert.report()})
        return 0

    try:
        report = verify_pbibd(m)
    except (StructureError, NotPbibdError, ShapeError) as exc:
        _emit({"verb": "verify", "verified": False,
               "reasons": {"biplane": biplane_reason, "pbibd": str(exc)}})
        return 1

    if report["d"] == 0 or all(l == 0 for l in report["lambda"]):
        _emit({"verb": "verify", "verified": False,
               "reasons": {"biplane": biplane_reason,
                           "pbibd": "degenerate: no pair of points ever concurs"}})
        return 1

    _emit({"verb": "verify", "verified": True, "kind": "pbibd",
           "design": report, "not_a_biplane": biplane_reason})
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    from .extract import PreconditionError, extract_design

    m = _read_matrix(args.matrix)
    try:
        result = extract_design(m)
    except PreconditionError as exc:
        _emit({"verb": "extract", "verified": False, "reason": str(exc)})
        return 1
    if args.core_out:
        with open(args.core_out, "wb") as fh:
            fh.write(_format_bytes(result.core))
    _emit({"verb": "extract", "verified": True, **result.report()})
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    if args.m < 3:
        raise CliInputError(f"family needs m >= 3, got {args.m}")
    if args.m > MAX_POINTS // 2:
        raise CliInputError(
            f"family --m {args.m} makes {2 * args.m} points, above the cap of"
            f" {MAX_POINTS} (verify and extract build v x v tables)"
        )
    from .extract import family_generate

    matrix, report = family_generate(args.m)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(_format_bytes(matrix))
    _emit({"verb": "family", **report})
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.k >= LONG_RUN_K and not args.long_run:
        raise CliInputError(
            f"k = {args.k} searches run for minutes or more (k = 10 exhausts in"
            f" a quarter of a second, k = 11 in about 1.37M nodes); pass --long-run"
            f" (ideally with --checkpoint) to proceed"
        )
    from .search import CheckpointError, SearchConfig, search_symmetric_canonical

    try:
        cfg = SearchConfig(
            k=args.k,
            max_solutions=args.max_solutions,
            node_limit=args.node_limit,
            threads=args.threads,
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    try:
        outcome = search_symmetric_canonical(cfg, checkpoint=args.checkpoint)
    except CheckpointError as exc:
        raise CliInputError(str(exc)) from exc
    if args.solutions_out:
        with open(args.solutions_out, "a", encoding="utf-8") as fh:
            for solution in outcome.solutions:
                fh.write(format_matrix(solution))
                fh.write("\n")
    _emit({"verb": "search", **outcome.report()})
    return 0


def _cmd_scheme(args: argparse.Namespace) -> int:
    from .scheme import (
        AxiomError,
        NotASchemeError,
        bose_mesner_check,
        from_relation_matrix,
        parse_relation,
    )

    try:
        relation = parse_relation(_read(args.relation).decode("utf-8"))
    except ValueError as exc:
        raise CliInputError(f"{args.relation}: {exc}") from exc
    try:
        scheme = from_relation_matrix(relation)
    except AxiomError as exc:
        _emit({"verb": "scheme", "valid": False, "axiom": exc.axiom,
               "reason": str(exc)})
        return 1
    except NotASchemeError as exc:
        _emit({"verb": "scheme", "valid": False, "axiom": "intersection-numbers",
               "witness": exc.witness(), "reason": str(exc)})
        return 1
    algebra = bose_mesner_check(scheme)
    _emit({"verb": "scheme", "valid": True, "scheme": scheme.report(),
           "bose_mesner": algebra})
    return 0


def _cmd_fixtures(args: argparse.Namespace) -> int:
    from .fixtures import write_fixtures

    entries = write_fixtures(args.out)
    _emit({"verb": "fixtures", "directory": args.out,
           "files": sorted(entries)})
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biplane-schemes",
        description="verify, extract, generate, and search block designs",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", help="check a matrix as a biplane or PBIBD")
    p.add_argument("matrix", help="matrix file (text format)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extract", help="extract the principal core design")
    p.add_argument("matrix", help="matrix file (text format)")
    p.add_argument("--core-out", help="write the core matrix here")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("family", help="generate the doubled design for a given m")
    p.add_argument("--m", type=int, required=True, help="half the point count, m >= 3")
    p.add_argument("--out", help="write the generated matrix here")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("search", help="search symmetric canonical biplane matrices")
    p.add_argument("--k", type=int, required=True, help="block size, k >= 3")
    p.add_argument("--max-solutions", type=int, help="stop after this many solutions")
    p.add_argument("--node-limit", type=int, help="stop after this many search nodes")
    # 10,000 is search._POOL_AFTER_NODES, pinned by a test: reading it here
    # would import search for every verb
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for the subtrees left once a search without"
                        " --node-limit passes 10,000 nodes (default 1);"
                        " subtrees run in process stop at the limits on any count")
    p.add_argument("--checkpoint",
                   help="progress log for resumable runs (schema 8): one line per finished"
                        " subtree, so a kill loses only unfinished subtrees;"
                        " files of schema 7 and older are refused")
    p.add_argument("--solutions-out", help="append solution matrices to this file")
    p.add_argument("--long-run", action="store_true",
                   help=f"required for k >= {LONG_RUN_K}: k = 10 exhausts in a quarter"
                        " of a second, k = 11 takes about 1.37M nodes and minutes")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("scheme", help="check a relation table for the scheme axioms")
    p.add_argument("relation", help="relation table file")
    p.set_defaults(func=_cmd_scheme)

    p = sub.add_parser("fixtures", help="write the built-in reference tables")
    p.add_argument("--out", default="fixtures", help="target directory")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _Trap as exc:
        print(f"counterexample trap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
