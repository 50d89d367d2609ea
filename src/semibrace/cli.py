"""Command-line front end.

Subcommands: verify, families, enumerate, classify, nilpotency, solution,
iso.  Every run prints a human-readable report (or the machine JSON with
--format json) and can additionally write the JSON artifact into the
directory named by --out.  Exit codes: 0 success, 1 failed semantic check,
2 parameter violation, 3 malformed input, 4 I/O error, 5 out of memory.

The module itself imports only `core` and `tables`; each subcommand imports
the rest of what it runs when it runs.  A process that writes no bytecode
compiles every module it imports, so `verify` and `iso` skip the
construct, classify, nilpotency and ybe modules.

`run` is the process entry of `python -m semibrace.cli` and the `semibrace`
script: `main`, then `gc.freeze()`, so exit leaves the import-time heap to
the OS instead of collecting it; atexit handlers, logging shutdown and the
stdout/stderr flush still run.  `main` changes no process-wide state.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .core import ParameterError, SemiBrace, SemiBraceAxiomError, isomorphic, semibrace_from_json
from .tables import MalformedTableError

if TYPE_CHECKING:
    from .construct import FamilyId

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_PARAMETER = 2
EXIT_MALFORMED_INPUT = 3
EXIT_IO_ERROR = 4
EXIT_OUT_OF_MEMORY = 5


def _load_json(args, path: str):
    """Parse a structure file; its declared order n, if any, is kept in
    args.order for the out-of-memory message."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise MalformedTableError(f"{path}: not UTF-8 text ({err})") from err
    except json.JSONDecodeError as err:
        raise MalformedTableError(f"{path}: not valid JSON ({err})") from err
    except RecursionError as err:
        raise MalformedTableError(f"{path}: JSON nested too deeply ({err})") from err
    if isinstance(obj, dict) and type(obj.get("n")) is int:
        args.order = obj["n"]
    return obj


def _load_semibrace(args, path: str) -> SemiBrace:
    return semibrace_from_json(_load_json(args, path))


def _order(args) -> Optional[int]:
    """The order n the command works at, when known."""
    if getattr(args, "n", None) is not None:
        return args.n
    p, q = getattr(args, "p", None), getattr(args, "q", None)
    if p is not None and (getattr(args, "theorem", None) or "").startswith("2p2"):
        return 2 * p * p
    if p is not None and q is not None:
        return p * q
    return getattr(args, "order", None)


def _emit(args, payload, text_lines, artifact_name: str) -> None:
    """Print the report and, when --out is given, write the JSON artifact."""
    machine = json.dumps(payload, sort_keys=True)
    if args.format == "json":
        print(machine)
    else:
        for line in text_lines:
            print(line)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / artifact_name).write_text(machine + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    obj = _load_json(args, args.file)
    try:
        b = semibrace_from_json(obj)
    except SemiBraceAxiomError as err:
        if err.axiom == "malformed-table":
            raise
        payload = {"valid": False, "diagnostic": err.diagnostic()}
        _emit(args, payload, [f"invalid: {err}"], "verify.json")
        return EXIT_CHECK_FAILED
    payload = {
        "valid": True,
        "n": b.n,
        "e_size": len(b.e_elements),
        "g_size": len(b.g_elements),
    }
    _emit(
        args,
        payload,
        [f"valid semi-brace of order {b.n}: |E| = {len(b.e_elements)}, "
         f"|G| = {len(b.g_elements)}"],
        "verify.json",
    )
    return EXIT_OK


def _resolve_family_ids(args) -> list[FamilyId]:
    from .construct import applicable_items, theorems_for_order_pq

    if args.p is None:
        raise ParameterError("families needs --p")
    theorem = args.theorem
    if theorem is None:
        if args.q is None:
            raise ParameterError("give --theorem, or --q to infer the pq theorem")
        theorem = theorems_for_order_pq(args.p, args.q)
    fids = applicable_items(theorem, args.p, args.q)
    if args.item is not None:
        fids = [f for f in fids if f.item == args.item]
        if not fids:
            raise ParameterError(
                f"item {args.item} of {theorem} is not applicable at these parameters"
            )
    return fids


def cmd_families(args) -> int:
    from .construct import family

    fids = _resolve_family_ids(args)
    payload = []
    lines = []
    for fid in fids:
        b = family(fid)
        payload.append({"family": fid.to_json(), "semibrace": b.to_json()})
        lines.append(
            f"{fid.theorem}[{fid.item}] p={fid.p}"
            + (f" q={fid.q}" if fid.q is not None else "")
            + f": order {b.n}, |E| = {len(b.e_elements)}"
        )
    _emit(args, payload, lines, "families.json")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    from .classify import census_to_json, enumerate_generic

    if args.n is None:
        raise ParameterError("enumerate needs --n")
    census = enumerate_generic(
        args.n,
        emin=args.emin,
        esylow=args.esylow,
        cache_dir=args.cache,
    )
    payload = census_to_json(census)
    lines = [f"census for n = {args.n}: {len(census)} isomorphism classes"]
    for k, entry in enumerate(census):
        lines.append(
            f"  class {k}: |E| = {len(entry.semibrace.e_elements)}, from {entry.provenance}"
        )
    _emit(args, payload, lines, "census.json")
    return EXIT_OK


def cmd_classify(args) -> int:
    from .classify import verify_classification

    if args.theorem is None or args.p is None:
        raise ParameterError("classify needs --theorem and --p")
    report = verify_classification(
        args.theorem, args.p, q=args.q, cache_dir=args.cache
    )
    if report.ok:
        lines = [f"{len(report.family_labels)} classes, census match"]
    else:
        lines = [f"classification check FAILED for {args.theorem}:"]
        lines.extend(f"  {problem}" for problem in report.problems)
    _emit(args, report.to_json(), lines, "classify.json")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _nilpotency_input(args) -> SemiBrace:
    if args.file is not None:
        if args.theorem is not None or args.item is not None:
            raise ParameterError("give either a file or family parameters, not both")
        return _load_semibrace(args, args.file)
    if args.theorem is None or args.item is None or args.p is None:
        raise ParameterError("nilpotency needs a file, or --theorem --item --p [--q]")
    from .construct import FamilyId, family

    return family(FamilyId(args.theorem, args.item, args.p, args.q))


def cmd_nilpotency(args) -> int:
    from .nilpotency import left_series, right_series

    b = _nilpotency_input(args)
    right = right_series(b)
    left = left_series(b)
    payload = {
        "right": right.to_json(),
        "left": left.to_json(),
        "right_nil": right.is_nil,
        "nil_orders": list(right.nil_orders),
    }
    lines = [
        f"right series: {right.verdict} (chain of {len(right.chain)} subsets)",
        f"left series: {left.verdict} (chain of {len(left.chain)} subsets)",
        f"right_nil={'true' if right.is_nil else 'false'}",
        f"right_nilpotent={'true' if right.nilpotent else 'false'}",
        f"left_nilpotent={'true' if left.nilpotent else 'false'}",
    ]
    _emit(args, payload, lines, "nilpotency.json")
    return EXIT_OK


def cmd_solution(args) -> int:
    from .ybe import check_braid, check_properties, solution_from

    b = _load_semibrace(args, args.file)
    s = solution_from(b)
    payload = s.to_json()
    lines = [f"solution map on {s.n} points"]
    status = EXIT_OK
    if args.check_braid:
        ok, witness = check_braid(s)
        payload["braid_holds"] = ok
        payload["braid_witness"] = list(witness) if witness is not None else None
        lines.append("braid relation holds" if ok
                      else f"braid relation FAILS at {witness}")
        if not ok:
            status = EXIT_CHECK_FAILED
    if args.properties:
        props = check_properties(s)
        payload["properties"] = props.to_json()
        flags = ", ".join(
            name for name, value in sorted(props.to_json().items()) if value
        )
        lines.append(f"properties: {flags if flags else 'none'}")
    _emit(args, payload, lines, "solution.json")
    return status


def cmd_iso(args) -> int:
    b1 = _load_semibrace(args, args.file_a)
    b2 = _load_semibrace(args, args.file_b)
    witness = isomorphic(b1, b2)
    payload = {
        "isomorphic": witness is not None,
        "witness": witness.tolist() if witness is not None else None,
    }
    lines = (
        [f"isomorphic, witness {witness.tolist()}"]
        if witness is not None
        else ["not isomorphic"]
    )
    _emit(args, payload, lines, "iso.json")
    return EXIT_OK if witness is not None else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="DIR", help="directory for JSON artifacts")
    common.add_argument("--cache", metavar="DIR", help="census cache directory")
    common.add_argument("--format", choices=("json", "text"), default="text")

    parser = argparse.ArgumentParser(
        prog="semibrace",
        description="finite left cancellative left semi-braces: verification, "
                    "construction, enumeration, and Yang-Baxter solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="check the axioms on a semi-brace JSON file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("families", parents=[common],
                       help="build the classification families at given parameters")
    p.add_argument("--theorem")
    p.add_argument("--item", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("enumerate", parents=[common],
                       help="census of all semi-braces of order n up to isomorphism")
    p.add_argument("--n", type=int)
    p.add_argument("--emin", type=int, default=1,
                   help="keep only census classes with at least this many idempotents")
    p.add_argument("--esylow", action="store_true",
                   help="keep only |E| equal to a Sylow subgroup size")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", parents=[common],
                       help="check a classification statement against the censuses")
    p.add_argument("--theorem", help="pq-noncongruent | pq-congruent | "
                                     "2p2-E2-cyclic | 2p2-E2-noncyclic | 2p2-Ep2 | 2p2")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("nilpotency", parents=[common],
                       help="left and right nilpotency series")
    p.add_argument("file", nargs="?")
    p.add_argument("--theorem")
    p.add_argument("--item", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.set_defaults(func=cmd_nilpotency)

    p = sub.add_parser("solution", parents=[common],
                       help="the Yang-Baxter solution map of a semi-brace")
    p.add_argument("file")
    p.add_argument("--check-braid", action="store_true", dest="check_braid")
    p.add_argument("--properties", action="store_true")
    p.set_defaults(func=cmd_solution)

    p = sub.add_parser("iso", parents=[common],
                       help="isomorphism witness between two semi-brace JSON files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_iso)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return EXIT_BAD_PARAMETER
    except (MalformedTableError, SemiBraceAxiomError) as err:
        print(f"malformed input: {err}", file=sys.stderr)
        return EXIT_MALFORMED_INPUT
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO_ERROR
    except MemoryError as err:
        n = _order(args)
        at = f" at order n = {n}" if n is not None else ""
        detail = f" ({err})" if str(err) else ""
        print(f"out of memory: {args.command}{at}{detail}", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


def run() -> int:
    """`main`, then `gc.freeze()`, also after argparse's usage-error and --help exits."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
