"""The ``cig`` command: parse, compose, graph and test-library workflows.

Machine-readable results go to standard output (or ``--out``); diagnostics,
warnings and the ``--report`` table go to standard error. Exit codes: 0 on
success, 1 on domain errors (no satisfied services, no interaction, duplicate
test ids, unreachable providing states), 2 on unreadable or malformed input.
An error found inside one input file is malformed input: its message names
the file and it exits 2, even when the same error between two files exits 1
(a library that lists one test id twice, say). ``run`` is the one place that
turns an error into a message and an exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Iterable

from .cig import Cig, Kind, build_cig, cig_to_dot, format_kinds
from .components import compose_many
from .documents import (
    cig_from_json,
    cig_to_json,
    composition_result_from_json,
    composition_result_to_json,
    library_chunks,
    library_from_stream,
)
from .errors import CigError, DuplicateTestId, NoInteraction, NotComposable, UnreachableProvider
from .statechart import ChartSet, extract_interfaces, parse_statechart, serialize_statechart
from .testlib import compose_libraries, generate_new_tests

# Domain errors exit 1; every other CigError is unreadable or malformed input.
_DOMAIN_ERRORS = (NotComposable, NoInteraction, DuplicateTestId, UnreachableProvider)

_BATCH = 1 << 16  # characters per write: each write to unbuffered stdout is a system call


class RunReport:
    """What a command run did: inputs read, warnings raised, exit code."""

    def __init__(self, command: str, inputs: Iterable[str] = (), warnings: Iterable[str] = (), exit_code: int = 0):
        self.command = command
        self.inputs = list(inputs)
        self.warnings = list(warnings)
        self.exit_code = exit_code


def _fail(report: RunReport, exc: CigError):
    print(f"cig: error: {exc}", file=sys.stderr)
    report.exit_code = 1 if isinstance(exc, _DOMAIN_ERRORS) else 2


def _warn(report: RunReport, message: str):
    report.warnings.append(message)
    print(f"cig: warning: {message}", file=sys.stderr)


@contextlib.contextmanager
def _about(path: str):
    """Report an error raised inside the block as malformed input in ``path``."""
    try:
        yield
    except (CigError, UnicodeDecodeError) as exc:
        raise CigError(f"{path}: {exc}") from None


def _read(path: str, read):
    """Open ``path`` as UTF-8 text, as ``Path.read_text`` does, and return ``read(stream)``."""
    try:
        with _about(path), open(path, encoding="utf-8") as stream:
            return read(stream)
    except OSError as exc:
        raise CigError(str(exc)) from None


def _load(path: str, parse):
    """Read ``path`` as UTF-8 text and parse it."""
    return _read(path, lambda stream: parse(stream.read()))


def _chart_set(paths: list[str]) -> ChartSet:
    """The charts in ``paths``; a chart that both accepts and emits a name is malformed input in its file."""
    charts = ChartSet(tuple(_load(path, parse_statechart) for path in paths))
    for path, chart in zip(paths, charts):
        with _about(path):
            extract_interfaces(chart)
    return charts


def _emit(chunks: Iterable[str], out: str | None):
    """Write ``chunks`` as they come to ``out``, or stdout when None, ``_BATCH`` at a time."""
    try:
        target = contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")
        with target as stream:
            batch, size = [], 0
            for chunk in chunks:
                batch.append(chunk)
                if (size := size + len(chunk)) >= _BATCH:
                    stream.write("".join(batch))
                    batch, size = [], 0
            stream.write("".join(batch))
            stream.flush()
    except OSError as exc:
        raise CigError(str(exc) if out is not None else f"standard output: {exc}") from None


def cmd_parse(args, report: RunReport):
    report.inputs = list(args.files)
    for path in args.files:
        try:
            chart = _load(path, parse_statechart)
        except CigError as exc:
            _fail(report, exc)
        else:  # a failed write is no fault of this file: it ends the command
            _emit([serialize_statechart(chart)], None)


def cmd_compose(args, report: RunReport):
    report.inputs = list(args.files)
    if len(args.files) < 2:
        raise CigError("compose needs at least two statechart files")
    components = [extract_interfaces(chart) for chart in _chart_set(args.files)]
    _emit([composition_result_to_json(compose_many(components))], args.out)


def cmd_cig(args, report: RunReport):
    report.inputs = list(args.files)
    if len(args.files) < 2:
        raise CigError("cig needs at least two statechart files")
    charts = _chart_set(args.files)
    cig = build_cig(charts)
    if args.report:
        sys.stderr.write(_classification_table(charts, cig))
    _emit([cig_to_dot(cig) if args.format == "dot" else cig_to_json(cig)], args.out)


def _classification_table(charts: ChartSet, cig: Cig) -> str:
    rows = [("component", "state", "classification")]
    removed = set(cig.removed)
    for chart in charts:
        for state in chart.states:
            ref = (chart.component_name, state)
            label = Kind.REMOVED.value if ref in removed else format_kinds(cig.node(*ref).kinds)
            rows.append((chart.component_name, state, label))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def cmd_tests_gen(args, report: RunReport):
    report.inputs = [args.cig_path, *args.files]
    cig = _load(args.cig_path, cig_from_json)
    charts = _chart_set(args.files)
    library = generate_new_tests(cig, charts, warn=lambda m: _warn(report, m))
    _emit(library_chunks(library), args.out)


def cmd_tests_compose(args, report: RunReport):
    report.inputs = [args.t1, args.t2, args.composition, args.tnew]
    t1 = _read(args.t1, library_from_stream)
    t2 = _read(args.t2, library_from_stream)
    tnew = _read(args.tnew, library_from_stream)
    composition = _load(args.composition, composition_result_from_json)
    result = compose_libraries(t1, t2, composition.all_satisfied(), tnew)
    _emit(library_chunks(result), args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cig",
        description="Component interaction graphs and test-suite composition "
        "for statechart-specified components.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate statecharts and print their canonical form")
    p.add_argument("files", nargs="+", metavar="FILE", help="statechart files")
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("compose", help="compose the components' interfaces")
    p.add_argument("files", nargs="+", metavar="FILE", help="statechart files, fold order")
    p.add_argument("--out", metavar="PATH", help="write the result here instead of stdout")
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("cig", help="build the component interaction graph")
    p.add_argument("files", nargs="+", metavar="FILE", help="statechart files")
    p.add_argument("--format", choices=("dot", "json"), default="json", help="output format")
    p.add_argument("--out", metavar="PATH", help="write the result here instead of stdout")
    p.add_argument(
        "--report", action="store_true", help="print the state classification table to stderr"
    )
    p.set_defaults(handler=cmd_cig)

    tests = sub.add_parser("tests", help="generate or compose test libraries")
    tsub = tests.add_subparsers(dest="tests_command", required=True)

    p = tsub.add_parser("gen", help="generate one test case per interaction edge")
    p.add_argument("--cig", required=True, dest="cig_path", metavar="PATH", help="CIG JSON file")
    p.add_argument("files", nargs="+", metavar="FILE", help="the statechart files the CIG was built from")
    p.add_argument("--out", metavar="PATH", help="write the result here instead of stdout")
    p.set_defaults(handler=cmd_tests_gen)

    p = tsub.add_parser("compose", help="apply the test-library composition law")
    p.add_argument("--t1", required=True, metavar="PATH", help="first component's library JSON")
    p.add_argument("--t2", required=True, metavar="PATH", help="second component's library JSON")
    p.add_argument(
        "--composition", required=True, metavar="PATH", help="composition result JSON (supplies S)"
    )
    p.add_argument("--tnew", required=True, metavar="PATH", help="generated library JSON")
    p.add_argument("--out", metavar="PATH", help="write the result here instead of stdout")
    p.set_defaults(handler=cmd_tests_compose)

    return parser


def run(argv=None) -> RunReport:
    """Parse arguments and execute; returns the report instead of exiting."""
    args = _build_parser().parse_args(argv)
    command = args.command if args.command != "tests" else f"tests {args.tests_command}"
    report = RunReport(command=command)
    try:
        args.handler(args, report)
    except CigError as exc:
        _fail(report, exc)
    return report


def main(argv=None) -> int:
    code = run(argv).exit_code
    try:
        sys.stdout.flush()
    except OSError:  # stdout is closed: send what the exit flush finds nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code
