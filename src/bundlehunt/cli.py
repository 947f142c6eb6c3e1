"""Command line front end.

Subcommands: hunt (construct and certify a bundle), table (emit a cohomology
table from a certificate), split (splitting type of a transition matrix),
ext-classify (splitting type and genericity of an extension class), verify
(recheck a certificate).  Exit codes are stable, and every failure prints
one line on stderr:

    0  success
    2  invalid-request     (gamma <= 0, rank < 2, integrality violations,
                            a negative --window)
    3  unsupported-case    (alpha and beta both integral)
    4  genericity-exhausted
    5  verification-failed (a certificate that does not check out)
    6  parse error         (malformed files or flags)
    1  unexpected internal error
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    BundleHuntError,
    GenericityExhaustedError,
    InvalidRequestError,
    NotABundleError,
    UnsupportedCaseError,
    VerificationFailedError,
)
from .exactalg import rat_from_str
from .ext1 import connecting_rank_profile, splitting_of_extension
from .hunter import HuntRequest, hunt, verify_certificate
from .p1 import splitting_from_transition
from .qbundle import CechOracle, HilbertParams, cohomology_table, square_window
from . import serialize
from .serialize import ParseError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID_REQUEST = 2
EXIT_UNSUPPORTED_CASE = 3
EXIT_GENERICITY_EXHAUSTED = 4
EXIT_VERIFICATION_FAILED = 5
EXIT_PARSE_ERROR = 6


def _rational(text: str):
    try:
        return rat_from_str(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are parse errors (exit 6, one line)."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bundlehunt",
        description="Construct and verify natural-cohomology bundles on P1 x P1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hunt = sub.add_parser("hunt", help="construct a bundle with prescribed Hilbert polynomial")
    p_hunt.add_argument("--alpha", type=_rational, required=True)
    p_hunt.add_argument("--beta", type=_rational, required=True)
    p_hunt.add_argument("--gamma", type=_rational, required=True)
    p_hunt.add_argument("--rank", type=int, required=True)
    p_hunt.add_argument("--seed", type=int, default=0)
    p_hunt.add_argument("--window", type=int, default=6, help="verification window half-width")
    p_hunt.add_argument("--bound", type=int, default=10, help="coefficient bound for eta")
    p_hunt.add_argument("--resamples", type=int, default=20)
    p_hunt.add_argument("--out", default="-", help="certificate file (default stdout)")

    p_table = sub.add_parser("table", help="emit the cohomology table of a certificate")
    p_table.add_argument("--cert", required=True)
    p_table.add_argument("--window", type=int, default=6)
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.add_argument("--oracle", action="store_true", help="append oracle agreement")
    p_table.add_argument("--out", default="-")

    p_split = sub.add_parser("split", help="splitting type of a Laurent transition matrix")
    p_split.add_argument("--matrix", required=True)

    p_ext = sub.add_parser("ext-classify", help="classify an extension class")
    p_ext.add_argument("--cocycle", required=True)

    p_verify = sub.add_parser("verify", help="recheck a certificate")
    p_verify.add_argument("--cert", required=True)
    p_verify.add_argument("--window", type=int, default=None)
    p_verify.add_argument("--oracle", action="store_true")
    return parser


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_hunt(args) -> int:
    params = HilbertParams(args.alpha, args.beta, args.gamma, args.rank)
    req = HuntRequest(
        params,
        seed=args.seed,
        coeff_bound=args.bound,
        max_resamples=args.resamples,
        verify_window=args.window,
    )
    cert = hunt(req)
    _write(args.out, serialize.dump_json(serialize.certificate_to_json(cert)))
    if args.out != "-":
        print(
            f"hunted rank {params.rank} bundle: F1={cert.desc.f1.to_list()} "
            f"F2={cert.desc.f2.to_list()} resamples={cert.resamples}; "
            f"natural on [-{args.window},{args.window}]^2 -> {args.out}"
        )
    return EXIT_OK


def _cmd_table(args) -> int:
    cert = serialize.certificate_from_json(serialize.load_json_file(args.cert))
    table = cohomology_table(cert.desc, square_window(args.window))
    oracle_rows = None
    if args.oracle:
        oracle = CechOracle(cert.desc)
        oracle_rows = {(n, m): oracle.h(n, m) for n, m, _ in table.iter_cells()}
    if args.format == "json":
        payload = serialize.table_to_json(table)
        if oracle_rows is not None:
            for cell in payload["cells"]:
                o = oracle_rows[(cell["n"], cell["m"])]
                cell["oracle"] = list(o)
                cell["agree"] = list(o) == [cell["h0"], cell["h1"], cell["h2"]]
        _write(args.out, serialize.dump_json(payload))
    elif args.format == "csv":
        _write(args.out, serialize.table_to_csv(table, oracle_rows))
    else:
        text = serialize.table_to_text(table)
        if oracle_rows is not None:
            disagreements = [
                (n, m)
                for n, m, cell in table.iter_cells()
                if oracle_rows[(n, m)] != cell.triple
            ]
            text += (
                "oracle agrees on every cell\n"
                if not disagreements
                else f"oracle disagrees at {disagreements}\n"
            )
        _write(args.out, text)
    return EXIT_OK


def _cmd_split(args) -> int:
    matrix = serialize.matrix_from_json(serialize.load_json_file(args.matrix))
    s = splitting_from_transition(matrix)
    print(s.to_list())
    return EXIT_OK


def _cmd_ext_classify(args) -> int:
    cocycle = serialize.cocycle_from_json(serialize.load_json_file(args.cocycle))
    s = splitting_of_extension(cocycle)
    profile = connecting_rank_profile(cocycle)
    # HN-top means every connecting map has maximal rank (ext1.is_hn_top)
    hn = all(rank == min(rows, cols) for _, rank, rows, cols in profile)
    print(f"{s.to_list()} (HN-top: {'true' if hn else 'false'})")
    for m, rank, rows, cols in profile:
        print(f"  twist {m}: rank {rank} of {rows}x{cols}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cert = serialize.certificate_from_json(serialize.load_json_file(args.cert))
    report = verify_certificate(cert, window=args.window, use_oracle=args.oracle)
    if report.ok:
        print(
            f"certificate verifies on [-{report.window},{report.window}]^2"
            + (" with oracle agreement" if report.oracle_used else "")
        )
        return EXIT_OK
    for f in report.failures:
        print(f"FAIL {f.stage} at {f.location}: {f.detail}")
    first = report.failures[0]
    stages = sorted({f.stage for f in report.failures})
    print(
        f"verification-failed: {len(report.failures)} check(s) failed ({', '.join(stages)}); "
        f"first: {first.stage} at {first.location}: {first.detail}",
        file=sys.stderr,
    )
    return EXIT_VERIFICATION_FAILED


def main(argv=None) -> int:
    handlers = {
        "hunt": _cmd_hunt,
        "table": _cmd_table,
        "split": _cmd_split,
        "ext-classify": _cmd_ext_classify,
        "verify": _cmd_verify,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except UnsupportedCaseError as exc:
        print(f"unsupported-case: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_CASE
    except InvalidRequestError as exc:
        print(f"invalid-request: {exc}", file=sys.stderr)
        return EXIT_INVALID_REQUEST
    except GenericityExhaustedError as exc:
        print(f"genericity-exhausted: {exc}", file=sys.stderr)
        return EXIT_GENERICITY_EXHAUSTED
    except VerificationFailedError as exc:
        print(f"verification-failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except NotABundleError as exc:
        print(f"invalid-request: {exc}", file=sys.stderr)
        return EXIT_INVALID_REQUEST
    except BundleHuntError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
