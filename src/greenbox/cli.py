"""Command-line entry points.

Verbs:
    check-etale <config>          run every check, print a verdict summary
    box <config>                  print the box-product level tables
    decompose <config>            eigenpieces and projectivity certificate
    fuzz [--seed S] [--count N] [--corrupt] <config>
    report <config> [--format text|json]

Each verb computes only the report sections it prints.  Exit codes: 0 =
the verb's verdicts are positive and all assertions held; 1 = some verdict
is negative (or an internal consistency assertion fired, in which case the
witness is dumped); 2 = invalid input, usage errors included; 141 = stdout
was closed before the output was written (``greenbox box cfg | head -1``),
which prints nothing more: no ``error:`` line and no traceback.  ``box`` has
no verdict beyond its descent checks; ``decompose`` has the certificate and
the eigen checks.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .extensions import ConstructionError
from .fields import FieldUsageError
from .mackey import InternalCheckError
from .report import ConfigError, EtaleReport, emit, fuzz, load_config, \
    run_pipeline

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_BROKEN_PIPE = 141    # 128 + SIGPIPE, as a shell reports a closed pipe


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as invalid input, like any other."""
    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="greenbox",
        description="Exact Green-functor étaleness verification over "
                    "cyclic groups")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb in ("check-etale", "box", "decompose"):
        p = sub.add_parser(verb)
        p.add_argument("config")

    p = sub.add_parser("fuzz")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--corrupt", action="store_true",
                   help="inject corruptions and count detections")

    p = sub.add_parser("report")
    p.add_argument("config")
    p.add_argument("--format", dest="fmt", choices=("text", "json"),
                   default=None)
    return parser


def main(argv=None) -> int:
    try:
        code = _run_verb(_build_parser().parse_args(argv))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone, so there is no one to tell
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except (ConfigError, ConstructionError, FieldUsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except InternalCheckError as exc:
        sys.stderr.write(f"internal consistency assertion failed: {exc}\n")
        if exc.witness is not None:
            sys.stderr.write(f"witness: {exc.witness}\n")
        return EXIT_NEGATIVE


def _run_verb(args) -> int:
    cfg = load_config(args.config)
    if args.verb == "fuzz":
        summary = fuzz(cfg, count=args.count, seed=args.seed,
                       corrupt=args.corrupt)
        sys.stdout.write(summary.text())
        return EXIT_OK if summary.ok else EXIT_NEGATIVE
    if args.verb == "box":
        # a box whose maps fail to descend raises InternalCheckError
        _print_box(EtaleReport(cfg))
        return EXIT_OK
    if args.verb == "decompose":
        report = EtaleReport(cfg)
        _print_decomposition(report)
        ok = report.certificate["valid"] and \
            (report.eigen is None or report.eigen["valid"])
        return EXIT_OK if ok else EXIT_NEGATIVE
    if args.verb == "report":
        report = run_pipeline(cfg)
        sys.stdout.buffer.write(emit(report, args.fmt or cfg.fmt))
    else:
        # the verdict reads every check, none of the formatting sections
        report = EtaleReport(cfg)
        _print_verdict(report)
    return EXIT_OK if report.verdict["green_etale"] else EXIT_NEGATIVE


def _discard_stdout() -> None:
    """Point the process's stdout at the null device, so that the flush at
    interpreter exit does not write into the closed pipe again.  A stdout
    without a file descriptor is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _print_verdict(report) -> None:
    v = report.verdict
    c = report.config
    print(f"{c['flavor']} degree {c['n']} over {c['field']}: "
          f"Green étale: {'YES' if v['green_etale'] else 'NO'}")
    for m, ok in sorted(v["levels"].items(), key=lambda kv: int(kv[0])):
        print(f"  level C{c['n']}/C{m}: I = I²: {'yes' if ok else 'NO'}")
    print(f"  classical oracle: {'yes' if v['classical_ok'] else 'NO'}")
    print(f"  certificate ({report.certificate['kind']}): "
          f"{'valid' if v['certificate_valid'] else 'INVALID'}")
    print(f"  oracle agreement: {'yes' if v['oracles_ok'] else 'NO'}")


def _print_box(report) -> None:
    c = report.config
    print(f"box levels for {c['flavor']} degree {c['n']} over {c['field']}:")
    for m, info in sorted(report.box_levels.items()):
        print(f"  level C{c['n']}/C{m}: dim {info['dim']}")
        print(f"    basis: {', '.join(info['basis'])}")
    for pair, entry in sorted(report.structure_values.items()):
        print(f"  covering {pair}:")
        for k, v in entry.items():
            print(f"    {k} = {v}")


def _print_decomposition(report) -> None:
    c = report.config
    cert = report.certificate
    print(f"decomposition for {c['flavor']} degree {c['n']} "
          f"over {c['field']}:")
    if report.eigen is not None:
        for i, dims in sorted(report.eigen["piece_dims"].items(),
                              key=lambda kv: int(kv[0])):
            row = ", ".join(f"level {m}: {v}" for m, v in
                            sorted(dims.items(), key=lambda kv: int(kv[0])))
            print(f"  eigenpiece {i}: {row}")
    print(f"  certificate: {cert['kind']} "
          f"({'valid' if cert['valid'] else 'INVALID'})")
    for w in cert["witnesses"]:
        print(f"    witness: {w}")


if __name__ == "__main__":
    sys.exit(main())
