"""The ``cig`` command: parse, compose, graph and test-library workflows.

Machine-readable results go to standard output (or ``--out``); diagnostics,
warnings and the ``--report`` table go to standard error. Exit codes: 0 on
success, 1 on domain errors (no satisfied services, no interaction, duplicate
test ids, unreachable providing states), 2 on unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .cig import Cig, Kind, build_cig, cig_from_json, cig_to_dot, cig_to_json, format_kinds
from .components import compose_many, composition_result_from_json, composition_result_to_json
from .errors import (
    CigError,
    DisjointnessViolation,
    DuplicateComponent,
    DuplicateTestId,
    NoInteraction,
    NotComposable,
    SchemaError,
    StatechartError,
    UnreachableProvider,
)
from .statechart import ChartSet, Statechart, extract_interfaces, parse_statechart, serialize_statechart
from .testlib import (
    compose_libraries,
    composed_result_to_json,
    generate_new_tests,
    library_from_json,
    library_to_json,
)


@dataclass
class RunReport:
    """What a command run did: inputs read, warnings raised, exit code."""

    command: str
    inputs: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    exit_code: int = 0


class _Fail(Exception):
    """Internal control flow: diagnostics already printed, carry the exit code."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(code)


def _die(code: int, message: str):
    print(f"cig: error: {message}", file=sys.stderr)
    raise _Fail(code)


def _warn(report: RunReport, message: str):
    report.warnings.append(message)
    print(f"cig: warning: {message}", file=sys.stderr)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _die(2, str(exc))


def _parse_chart_file(path: str) -> Statechart:
    text = _read(path)
    try:
        return parse_statechart(text)
    except StatechartError as exc:
        _die(2, f"{path}: {exc}")


def _chart_set(paths: list[str]) -> ChartSet:
    charts = [_parse_chart_file(path) for path in paths]
    try:
        return ChartSet(tuple(charts))
    except DuplicateComponent as exc:
        _die(2, str(exc))


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            _die(2, str(exc))


def cmd_parse(args, report: RunReport):
    report.inputs = list(args.files)
    for path in args.files:
        try:
            chart = _parse_chart_file(path)
        except _Fail:
            report.exit_code = 2
            continue
        sys.stdout.write(serialize_statechart(chart))


def cmd_compose(args, report: RunReport):
    report.inputs = list(args.files)
    if len(args.files) < 2:
        _die(2, "compose needs at least two statechart files")
    charts = _chart_set(args.files)
    components = []
    for path, chart in zip(args.files, charts):
        try:
            components.append(extract_interfaces(chart))
        except DisjointnessViolation as exc:
            _die(2, f"{path}: {exc}")
    try:
        result = compose_many(components)
    except NotComposable as exc:
        _die(1, str(exc))
    _emit(composition_result_to_json(result), args.out)


def cmd_cig(args, report: RunReport):
    report.inputs = list(args.files)
    if len(args.files) < 2:
        _die(2, "cig needs at least two statechart files")
    charts = _chart_set(args.files)
    try:
        cig = build_cig(charts)
    except NoInteraction as exc:
        _die(1, str(exc))
    except DisjointnessViolation as exc:
        _die(2, str(exc))
    if args.report:
        sys.stderr.write(_classification_table(charts, cig))
    text = cig_to_dot(cig) if args.format == "dot" else cig_to_json(cig)
    _emit(text, args.out)


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
    try:
        cig = cig_from_json(_read(args.cig_path))
    except SchemaError as exc:
        _die(2, f"{args.cig_path}: {exc}")
    charts = _chart_set(args.files)
    try:
        library = generate_new_tests(cig, charts, warn=lambda m: _warn(report, m))
    except UnreachableProvider as exc:
        _die(1, str(exc))
    except SchemaError as exc:
        _die(2, str(exc))
    _emit(library_to_json(library), args.out)


def cmd_tests_compose(args, report: RunReport):
    report.inputs = [args.t1, args.t2, args.composition, args.tnew]

    def load_library(path: str):
        try:
            return library_from_json(_read(path))
        except (SchemaError, DuplicateTestId) as exc:
            _die(2, f"{path}: {exc}")

    t1 = load_library(args.t1)
    t2 = load_library(args.t2)
    tnew = load_library(args.tnew)
    try:
        composition = composition_result_from_json(_read(args.composition))
    except SchemaError as exc:
        _die(2, f"{args.composition}: {exc}")
    try:
        result = compose_libraries(t1, t2, composition.all_satisfied(), tnew)
    except DuplicateTestId as exc:
        _die(1, str(exc))
    _emit(composed_result_to_json(result), args.out)


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
    except _Fail as fail:
        report.exit_code = fail.code
    except CigError as exc:
        # safety net: anything a handler did not contextualize
        print(f"cig: error: {exc}", file=sys.stderr)
        report.exit_code = 1 if isinstance(exc, (NotComposable, NoInteraction, DuplicateTestId, UnreachableProvider)) else 2
    return report


def main(argv=None) -> int:
    return run(argv).exit_code
