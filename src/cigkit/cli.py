"""The ``cig`` command: parse, compose, graph and test-library workflows.

Machine-readable results go to standard output (or ``--out``); diagnostics,
warnings and the ``--report`` table go to standard error. Exit codes: 0 on
success, 1 on domain errors (no satisfied services, no interaction, duplicate
test ids, unreachable providing states), 2 on unreadable or malformed input.
An error found inside one input file is malformed input: its message names
the file and it exits 2, even when the same error between two files exits 1
(a library that lists one test id twice, say). ``run`` is the one place that
turns an error into a message and an exit code. It reads a well-formed command
line without argparse, which it imports only for help and usage errors, and
each command imports the layers it runs before it reads any input.
"""

from __future__ import annotations

import contextlib
import os
import sys
from collections.abc import Iterable
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import CigError, DuplicateTestId, NoInteraction, NotComposable, UnreachableProvider

if TYPE_CHECKING:
    from .cig import Cig
    from .statechart import ChartSet

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
    from .statechart import ChartSet, extract_interfaces, parse_statechart

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
    from .statechart import parse_statechart, serialize_statechart

    report.inputs = list(args.files)
    for path in args.files:
        try:
            chart = _load(path, parse_statechart)
        except CigError as exc:
            _fail(report, exc)
        else:  # a failed write is no fault of this file: it ends the command
            _emit([serialize_statechart(chart)], None)


def cmd_compose(args, report: RunReport):
    from .components import compose_many
    from .documents import composition_result_to_json
    from .statechart import extract_interfaces

    report.inputs = list(args.files)
    if len(args.files) < 2:
        raise CigError("compose needs at least two statechart files")
    components = [extract_interfaces(chart) for chart in _chart_set(args.files)]
    _emit([composition_result_to_json(compose_many(components))], args.out)


def cmd_cig(args, report: RunReport):
    if args.format == "dot":
        from .cig import cig_to_dot as render
    else:
        from .documents import cig_to_json as render
    from .cig import build_cig

    report.inputs = list(args.files)
    if len(args.files) < 2:
        raise CigError("cig needs at least two statechart files")
    charts = _chart_set(args.files)
    cig = build_cig(charts)
    if args.report:
        sys.stderr.write(_classification_table(charts, cig))
    _emit([render(cig)], args.out)


def _classification_table(charts: ChartSet, cig: Cig) -> str:
    from .cig import Kind, format_kinds

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
    from .documents import cig_from_json, library_chunks
    from .testlib import generate_new_tests
    # the CIG reader and generation import cig and statechart when called: load them before any input is held
    from . import cig, statechart  # noqa: F401

    report.inputs = [args.cig_path, *args.files]
    graph = _load(args.cig_path, cig_from_json)
    charts = _chart_set(args.files)
    library = generate_new_tests(graph, charts, warn=lambda m: _warn(report, m))
    _emit(library_chunks(library), args.out)


def cmd_tests_compose(args, report: RunReport):
    from .documents import composition_result_from_json, library_chunks, library_from_stream
    from .testlib import compose_libraries

    report.inputs = [args.t1, args.t2, args.composition, args.tnew]
    t1 = _read(args.t1, library_from_stream)
    t2 = _read(args.t2, library_from_stream)
    tnew = _read(args.tnew, library_from_stream)
    composition = _load(args.composition, composition_result_from_json)
    result = compose_libraries(t1, t2, composition.all_satisfied(), tnew)
    _emit(library_chunks(result), args.out)


def _files(help: str) -> dict:
    return {"nargs": "+", "metavar": "FILE", "help": help}


_OUT = {"metavar": "PATH", "help": "write the result here instead of stdout"}

# Each command: its words, handler and help, then its arguments as
# ``add_argument`` keywords by name, in the order argparse names missing ones
# in a usage error. ``_build_parser`` and ``_parse_fast`` both read this table.
_COMMANDS = (
    (("parse",), cmd_parse, "validate statecharts and print their canonical form", {
        "files": _files("statechart files"),
    }),
    (("compose",), cmd_compose, "compose the components' interfaces", {
        "files": _files("statechart files, fold order"),
        "--out": _OUT,
    }),
    (("cig",), cmd_cig, "build the component interaction graph", {
        "files": _files("statechart files"),
        "--format": {"choices": ("dot", "json"), "default": "json", "help": "output format"},
        "--out": _OUT,
        "--report": {
            "action": "store_true", "default": False, "help": "print the state classification table to stderr"
        },
    }),
    (("tests", "gen"), cmd_tests_gen, "generate one test case per interaction edge", {
        "--cig": {"required": True, "dest": "cig_path", "metavar": "PATH", "help": "CIG JSON file"},
        "files": _files("the statechart files the CIG was built from"),
        "--out": _OUT,
    }),
    (("tests", "compose"), cmd_tests_compose, "apply the test-library composition law", {
        "--t1": {"required": True, "metavar": "PATH", "help": "first component's library JSON"},
        "--t2": {"required": True, "metavar": "PATH", "help": "second component's library JSON"},
        "--composition": {"required": True, "metavar": "PATH", "help": "composition result JSON (supplies S)"},
        "--tnew": {"required": True, "metavar": "PATH", "help": "generated library JSON"},
        "--out": _OUT,
    }),
)
_GROUP_HELP = {"tests": "generate or compose test libraries"}


def _build_parser():
    import argparse  # with gettext, some 0.3 MB: only help and usage errors need it

    parser = argparse.ArgumentParser(
        prog="cig",
        description="Component interaction graphs and test-suite composition "
        "for statechart-specified components.",
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for words, handler, help, arguments in _COMMANDS:
        group = words[:-1]
        if group not in subparsers:
            p = subparsers[()].add_parser(group[0], help=_GROUP_HELP[group[0]])
            subparsers[group] = p.add_subparsers(dest=f"{group[0]}_command", required=True)
        p = subparsers[group].add_parser(words[-1], help=help)
        for name, keywords in arguments.items():
            p.add_argument(name, **keywords)
        p.set_defaults(handler=handler)
    return parser


def _parse_fast(argv: list[str]) -> SimpleNamespace | None:
    """What ``_build_parser().parse_args(argv)`` returns, for a command line
    whose result is certain: the command words, then the command's options,
    each spelled in full at most once with a value that does not start with
    ``-``, and its files in one run. None for any other command line (help,
    ``--opt=value``, abbreviations, ``--``, repeats, every usage error), which
    argparse then parses, or prints and exits on."""
    for words, handler, _, arguments in _COMMANDS:
        if argv[: len(words)] == list(words):
            break
    else:
        return None
    files, given, tokens, run_over = [], {}, iter(argv[len(words) :]), False
    for token in tokens:
        if not token.startswith("-"):
            if run_over:  # nargs="+" takes one run of files, and the rest are extra
                return None
            files.append(token)
            continue
        keywords = arguments.get(token)
        if keywords is None or token in given:
            return None
        run_over = bool(files)
        if keywords.get("action") == "store_true":
            given[token] = True
            continue
        value = next(tokens, "-")  # no value at the end declines as one starting with -
        if value.startswith("-") or ("choices" in keywords and value not in keywords["choices"]):
            return None
        given[token] = value
    if files:
        given["files"] = files
    args = {"command": words[0], "handler": handler}
    if len(words) > 1:
        args[f"{words[0]}_command"] = words[1]
    for name, keywords in arguments.items():
        if name not in given and (name == "files" or keywords.get("required")):
            return None
        args[keywords.get("dest", name.lstrip("-"))] = given.pop(name, keywords.get("default"))
    return None if given else SimpleNamespace(**args)  # given keeps files for a command without them


def run(argv=None) -> RunReport:
    """Parse arguments and execute; returns the report instead of exiting."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_fast(argv) or _build_parser().parse_args(argv)
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
