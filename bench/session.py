"""The README session, run as ``cig`` child processes or in-process, and the
span tracer for the in-process traced run.

A session is the six commands a user types in the README, in order; each
writes its standard output to a file and, where the README passes ``--out``,
an output file. Only one command runs at a time (a closed loop, one client).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import Inputs


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    out: Path | None  # the --out file, when the command has one


@dataclass
class Outcome:
    label: str
    seconds: float
    exit_code: int
    maxrss_kb: int
    bytes_written: int
    digest: str


def session_commands(inputs: Inputs, work: Path) -> list[Command]:
    charts = tuple(str(p) for p in inputs.charts)
    comp, cig, gen = work / "comp.json", work / "cig.json", work / "gen.json"
    return [
        Command("parse", ("parse", *charts), None),
        Command("compose", ("compose", *charts, "--out", str(comp)), comp),
        Command("cig", ("cig", *charts, "--out", str(cig)), cig),
        Command("cig_dot", ("cig", *charts, "--format", "dot", "--report"), None),
        Command("gen", ("tests", "gen", "--cig", str(cig), *charts, "--out", str(gen)), gen),
        Command(
            "libcompose",
            ("tests", "compose", "--t1", str(inputs.t1), "--t2", str(inputs.t2),
             "--composition", str(comp), "--tnew", str(gen)),
            None,
        ),
    ]


def stdout_path(work: Path, label: str) -> Path:
    return work / f"{label}.stdout"


def stderr_path(work: Path, label: str) -> Path:
    return work / f"{label}.stderr"


def _written(work: Path, command: Command) -> tuple[int, str]:
    """Bytes the command wrote (stdout plus its --out file) and their digest."""
    digest = hashlib.sha256()
    size = 0
    for path in (stdout_path(work, command.label), command.out):
        if path is None or not path.exists():
            continue
        data = path.read_bytes()
        size += len(data)
        digest.update(data)
    return size, digest.hexdigest()


def _clear(command: Command):
    # a failed command must not leave the previous session's file to be checked
    if command.out is not None and command.out.exists():
        command.out.unlink()


def run_child(argv: list[str], stdout: Path, stderr: Path, env: dict) -> tuple[float, int]:
    """Run one child to completion; returns (wall seconds, exit code)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return time.perf_counter() - start, code


# ``python -m cigkit`` that, on exit, writes its own peak resident set
# (VmHWM, KiB) to the file named by CIGBENCH_RSS. The rusage max-RSS of a
# child cannot serve: Linux carries the spawning process's peak into the
# child across exec, so it would report this benchmark's own size.
_CIG_CHILD = (
    "import atexit, os, runpy\n"
    "def peak():\n"
    "    with open('/proc/self/status') as status, open(os.environ['CIGBENCH_RSS'], 'w') as out:\n"
    "        out.write(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    "atexit.register(peak)\n"
    "runpy.run_module('cigkit', run_name='__main__', alter_sys=True)\n"
)


def child_env(src: Path, work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["CIGBENCH_RSS"] = str(work / "child.rss")
    return env


def run_session_children(commands: list[Command], work: Path, env: dict) -> list[Outcome]:
    outcomes = []
    rss_file = Path(env["CIGBENCH_RSS"])
    for command in commands:
        _clear(command)
        rss_file.unlink(missing_ok=True)
        argv = [sys.executable, "-c", _CIG_CHILD, *command.argv]
        seconds, code = run_child(
            argv, stdout_path(work, command.label), stderr_path(work, command.label), env
        )
        rss = int(rss_file.read_text()) if rss_file.exists() else 0
        size, digest = _written(work, command)
        outcomes.append(Outcome(command.label, seconds, code, rss, size, digest))
    return outcomes


def run_session_inprocess(cli, commands: list[Command], work: Path, tracer=None, session=0) -> list[Outcome]:
    """Run the session through ``cli.run`` in this process. With a tracer,
    each command is a root span named ``cli``."""
    outcomes = []
    for command in commands:
        _clear(command)
        with open(stdout_path(work, command.label), "w", encoding="utf-8") as out, open(
            stderr_path(work, command.label), "w", encoding="utf-8"
        ) as err, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if tracer is not None:
                tracer.begin("cli", session)
            try:
                code = cli.run(list(command.argv)).exit_code
            except SystemExit as exc:  # argparse rejects bad usage this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback: a child process would exit 1
                traceback.print_exc()
                code = 1
            finally:
                if tracer is not None:
                    tracer.end()
            seconds = time.perf_counter() - start
        size, digest = _written(work, command)
        outcomes.append(Outcome(command.label, seconds, code, 0, size, digest))
    return outcomes


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, session id)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = {}
        self._stack: list[int] = []

    def begin(self, name: str, session: int):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, session])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, session: int, name: str, amount: float):
        key = (session, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str, session_of, counter=None):
        def traced(*args, **kwargs):
            session = session_of()
            self.begin(name, session)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
                if counter is not None:
                    self.count(session, *counter(args))

        return traced

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per session, the summed self time of each span name: a span's
        duration minus the durations of its children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for (name, start, end, _, session), children in zip(self.spans, child_time):
            per = out.setdefault(session, {})
            per[name] = per.get(name, 0.0) + (end - start - children)
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "session": sid}
            for n, s, e, p, sid in self.spans
        ]


# Public calls the cli layer makes into the other layers, by the name it
# imports them under, and the span each is recorded as.
CLI_CALLS = {
    "parse_statechart": "statechart.parse",
    "serialize_statechart": "statechart.serialize",
    "extract_interfaces": "statechart.extract",
    "compose_many": "components.compose",
    "composition_result_to_json": "components.json",
    "composition_result_from_json": "components.json",
    "build_cig": "cig.build",
    "classify_states": "cig.classify",
    "cig_to_json": "cig.to_json",
    "cig_to_dot": "cig.to_dot",
    "cig_from_json": "cig.from_json",
    "generate_new_tests": "testlib.gen",
    "library_to_json": "testlib.to_json",
    "library_from_json": "testlib.from_json",
    "compose_libraries": "testlib.compose",
    "composed_result_to_json": "testlib.result_to_json",
}


@contextlib.contextmanager
def traced_cli(cli, tracer: Tracer, session_of):
    """Swap the cli module's imported layer calls for traced wrappers, and
    put the originals back afterwards. Names the module no longer imports
    are skipped, so their spans read zero instead of failing the run."""
    saved = {name: getattr(cli, name) for name in CLI_CALLS if hasattr(cli, name)}
    try:
        for name, fn in saved.items():
            counter = (lambda args: ("statechart.chars", len(args[0]))) if name == "parse_statechart" else None
            setattr(cli, name, tracer.wrap(fn, CLI_CALLS[name], session_of, counter))
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
