"""Command line interface.

Three subcommands:

  verify-paper          re-derive the published worked examples
  find-line             search for a certified line from a config file
  certify               certify one explicitly given line

Exit codes: 0 on success, 1 when a verify-paper check fails, 2 when no
line satisfies the requested conditions, 3 on an invalid configuration,
4 when the configured p-adic precision is exhausted before a verdict is
reached.  A find-line search that exhausts its candidates (2 or 4) ends
stderr with its rejection statistics as one line of canonical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ConfigError,
    DegenerateLineError,
    HmsError,
    NotOnSurfaceError,
    PrecisionError,
    SearchExhausted,
)
from .lines import Line
from .search import (
    build_model,
    certify_line,
    derive_chart_params,
    find_lines,
    load_config,
)
from .serialize import canonical_json, parse_frac
from .verify import verify_paper

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NO_LINE = 2
EXIT_BAD_CONFIG = 3
EXIT_PRECISION = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hmslines",
        description="construct and certify lines on twisted surface models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify-paper",
        help="re-derive the published worked examples and identities",
    )
    p_verify.add_argument("--json", action="store_true", dest="as_json")

    p_find = sub.add_parser(
        "find-line", help="search for a line passing the configured gates"
    )
    p_find.add_argument("--config", required=True, help="path to a JSON config")
    p_find.add_argument(
        "--max-results",
        type=int,
        default=1,
        help="stop after this many certified lines (default 1)",
    )
    p_find.add_argument("--json", action="store_true", dest="as_json")

    p_cert = sub.add_parser(
        "certify", help="certify one line given by two spanning rows"
    )
    p_cert.add_argument(
        "--line",
        required=True,
        help="inline JSON [[...6 rationals...], [...]] or a path to such a file",
    )
    p_cert.add_argument("--config", required=True, help="path to a JSON config")
    p_cert.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _cmd_verify_paper(args) -> int:
    passed, rows = verify_paper()
    if args.as_json:
        payload = {
            "passed": passed,
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in rows
            ],
        }
        print(canonical_json(payload))
    else:
        for name, ok, detail in rows:
            mark = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            print(f"{mark}  {name}{suffix}")
        print(f"verify-paper: {'all checks passed' if passed else 'FAILED'}")
    return EXIT_OK if passed else EXIT_FAILURE


def _print_certificate(cert, as_json: bool):
    if as_json:
        print(cert.to_json())
        return
    rows = cert.data["line"]["primitive_rows"]
    print(f"line: {rows[0]} , {rows[1]}")
    summary = cert.data["summary"]
    for name, ok in summary.get("checks", {}).items():
        print(f"  {name}: {'pass' if ok else 'fail'}")
    for reason in summary["reasons"]:
        print(f"  note: {reason}")
    print(f"  certificate: {cert.to_json()}")


def _cmd_find_line(args) -> int:
    config = load_config(args.config)
    if args.max_results < 1:
        raise ConfigError("--max-results must be at least 1")
    try:
        results = find_lines(config, max_results=args.max_results)
    except SearchExhausted as exc:
        stats = exc.stats
        starved = bool(stats.get("precision_failures"))
        if starved:
            message = (
                "search stopped: some candidates could not be resolved at "
                "the configured precision"
            )
        else:
            message = f"no line found: {exc}"
        print(message, canonical_json(stats), sep="\n", file=sys.stderr)
        return EXIT_PRECISION if starved else EXIT_NO_LINE
    if args.as_json:
        payload = {
            "count": len(results),
            "results": [cert.data for _, cert in results],
        }
        print(canonical_json(payload))
    else:
        for i, (_, cert) in enumerate(results):
            print(f"result {i}:")
            _print_certificate(cert, as_json=False)
    return EXIT_OK


def _parse_line_argument(raw: str) -> Line:
    try:
        data = json.loads(raw)
    except ValueError:
        try:
            with open(raw) as fh:
                data = json.load(fh)
        except OSError as exc:
            # the file name is the argument, which may be a whole line
            raise ConfigError(
                "--line is neither JSON nor a readable file: "
                f"{exc.strerror} (an argument of {len(raw)} characters)"
            )
        except ValueError as exc:
            # not UTF-8, not JSON, or an integer past int's digit limit
            raise ConfigError(f"--line file is not valid JSON: {exc}")
    if (
        not isinstance(data, list)
        or len(data) != 2
        or any(not isinstance(row, list) or len(row) != 6 for row in data)
    ):
        raise ConfigError("--line must be two rows of six rationals")
    rows = [[parse_frac(c) for c in row] for row in data]
    try:
        return Line(rows)
    except HmsError as exc:
        raise ConfigError(f"--line does not span a line: {exc}")


def _cmd_certify(args) -> int:
    config = load_config(args.config)
    line = _parse_line_argument(args.line)
    model = build_model(config)
    kind, params = derive_chart_params(line, config, model)
    try:
        cert = certify_line(
            line, model, config, chart_params=params, chart_kind=kind
        )
    except (NotOnSurfaceError, DegenerateLineError) as exc:
        print(f"line cannot be certified: {exc}", file=sys.stderr)
        return EXIT_NO_LINE
    _print_certificate(cert, as_json=args.as_json)
    return EXIT_OK if cert.passed else EXIT_NO_LINE


_COMMANDS = {
    "verify-paper": _cmd_verify_paper,
    "find-line": _cmd_find_line,
    "certify": _cmd_certify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except PrecisionError as exc:
        needed = f" (needs precision {exc.needed})" if exc.needed else ""
        print(f"precision exhausted: {exc}{needed}", file=sys.stderr)
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
