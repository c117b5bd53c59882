"""Benchmark of the ``cig`` command line: the README session on generated inputs.

Usage, from the root of a checkout::

    python3 bench/run.py --workload deep_pair --seed 3 --seconds 24 --trace 0
    python3 bench/run.py                      # every workload, both runs, a summary

A session is the six README commands in order: ``parse``, ``compose``,
``cig`` (json), ``cig --format dot --report``, ``tests gen`` and
``tests compose``. Load is a closed loop: one client in one process starts
the next command only when the previous one has exited.

``--trace 0`` runs each command as a ``python -m cigkit`` child process
(wrapped only to report its own peak resident set) and reports the
end-to-end metrics. Set-up writes the inputs and runs one
untimed warm-up session; it is repeated three times and ``setup_s`` is the
median. Sessions then run back to back for ``--seconds``.

``--trace 1`` runs the same session in this process through ``cli.run``,
with a span around each public call the cli layer makes into the
``statechart``, ``components``, ``cig`` and ``testlib`` layers, and around
each command (the ``cli`` span). Traced and untraced sessions alternate; the
ratio of their medians, minus one, is ``trace.overhead_ratio``. Per-layer
times are medians over traced sessions of each span name's self time per
session. ``cig.cross_s`` and ``cig.switching_s`` time a standalone
``cross_services`` and ``find_switching_states`` call on the session's charts,
made beside the session: the analysis passes ``build_cig`` repeats.
``cli.startup_s`` is six bare interpreter starts and ``cli.import_s`` six
times the extra cost of ``import cigkit.cli``, so that on a session the
startup, import, glue (``cli`` self time) and layer times add up to about
``session_p50_s``.

Every session's outputs are checked: exit codes, the checks in ``check.py``
on the first session, and byte digests of every later session against the
first. With the default seed the first session's digests must also equal
``digests.json``, recorded at the seed commit. A failed check counts as a
failed command; it never stops the run. A single-workload run prints, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Set-up errors (no program to run) exit with code 2 and print no result.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from check import check_session
from session import (
    Tracer,
    child_env,
    run_child,
    run_session_children,
    run_session_inprocess,
    session_commands,
    traced_cli,
)

DEFAULT_SEED = 1
DEFAULT_SECONDS = 24
SETUPS = 3  # set-ups per run; setup_s is their median
PROBES = 6  # bare-interpreter and import probes per traced run
BENCH_DIR = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "session_p50_s": "s",
    "session_tail_s": "s",
    "cig_p50_s": "s",
    "gen_p50_s": "s",
    "libcompose_p50_s": "s",
    "cases_per_s": "1/s",
    "peak_rss_mb": "MB",
    "output_bytes": "bytes",
    "success_rate": "ratio",
}

SPAN_METRICS = {
    "statechart.parse_s": "statechart.parse",
    "statechart.serialize_s": "statechart.serialize",
    "statechart.extract_s": "statechart.extract",
    "components.compose_s": "components.compose",
    "components.json_s": "components.json",
    "cig.build_s": "cig.build",
    "cig.cross_s": "cig.cross",
    "cig.switching_s": "cig.switching",
    "cig.classify_s": "cig.classify",
    "cig.to_json_s": "cig.to_json",
    "cig.to_dot_s": "cig.to_dot",
    "cig.from_json_s": "cig.from_json",
    "testlib.gen_s": "testlib.gen",
    "testlib.to_json_s": "testlib.to_json",
    "testlib.from_json_s": "testlib.from_json",
    "testlib.compose_s": "testlib.compose",
    "testlib.result_to_json_s": "testlib.result_to_json",
    "cli.glue_s": "cli",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    "statechart.states": "count",
    "statechart.transitions": "count",
    "statechart.chars_per_s": "char/s",
    "components.fold_steps": "count",
    "components.satisfied": "count",
    "cig.nodes": "count",
    "cig.edges": "count",
    "cig.removed": "count",
    "cig.services": "count",
    "cig.emitters": "count",
    "cig.edges_per_emitter": "ratio",
    "cig.json_bytes": "bytes",
    "testlib.cases": "count",
    "testlib.steps": "count",
    "testlib.steps_per_case": "ratio",
    "testlib.omitted_states": "count",
    "testlib.json_bytes": "bytes",
    "testlib.result_bytes": "bytes",
    "testlib.retained": "count",
    "testlib.removed": "count",
    "cli.startup_s": "s",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Attempted and failed commands. A command fails when it exits nonzero,
    when a check finds a problem in its output, or when its output differs
    from the first session's."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None
        self.bad_reference: set[str] = set()  # labels whose first output failed a check
        self.notes: list[str] = []

    def add(self, outcomes, problems=None):
        for outcome in outcomes:
            self.attempted += 1
            issues = list(problems[outcome.label]) if problems is not None else []
            if problems is None and outcome.exit_code != 0:
                issues.append(f"exit code {outcome.exit_code}")
            if self.reference is not None:
                if outcome.digest != self.reference[outcome.label]:
                    issues.append("output differs from the first session")
                elif outcome.label in self.bad_reference:
                    issues.append("same output as the first session, which failed its check")
            if issues:
                self.failed += 1
                if len(self.notes) < 20:
                    more = f" (+{len(issues) - 3} more)" if len(issues) > 3 else ""
                    self.notes.append(f"{outcome.label}: {'; '.join(issues[:3])}{more}")


class Run:
    """One workload at one seed, with its inputs in a private work directory."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = child_env(root / "src", self.work)
        self.tally = Tally()
        self.inputs = None
        self.commands = None
        self.charts = []  # the inputs parsed, for the checks and the standalone probes
        self.counts: dict = {}  # read from the first session's outputs
        self.bytes_written: dict[str, int] = {}

    def generate(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.inputs = workloads.generate(self.workload, self.seed, self.work, self.root / "fixtures")
        self.commands = session_commands(self.inputs, self.work)

    def check_first(self, outcomes, cigkit, oracles):
        """Full checks on the first session; its digests become the reference."""
        try:
            self.charts = [cigkit.parse_statechart(p.read_text(encoding="utf-8")) for p in self.inputs.charts]
        except Exception as exc:  # the checks below then fail the commands that need charts
            unparsed = f"the inputs do not parse: {type(exc).__name__}: {exc}"
        else:
            unparsed = None
        problems, self.counts = check_session(
            self.inputs, self.work, self.commands, outcomes, self.charts, oracles
        )
        if unparsed:
            problems["parse"].append(unparsed)
        digests = {o.label: o.digest for o in outcomes}
        if self.seed == DEFAULT_SEED:
            recorded = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
            for label, digest in recorded.get(self.workload, {}).items():
                if digests.get(label) != digest:
                    problems[label].append("output differs from the seed commit's")
        self.tally.add(outcomes, problems)
        self.tally.reference = digests
        self.tally.bad_reference = {label for label, found in problems.items() if found}
        self.bytes_written = {o.label: o.bytes_written for o in outcomes}


def _median(values):
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile that still has at least ten samples beyond it,
    as (percentile, value). Below twenty samples that is under the median;
    with ten or fewer none qualifies and the minimum, the sample with the
    most beyond it, is returned as percentile 0."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 0.0, ordered[0]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure_untraced(run: Run, seconds: float, cigkit, oracles) -> tuple[dict, dict]:
    setups = []
    for i in range(SETUPS):
        start = time.perf_counter()
        run.generate()
        outcomes = run_session_children(run.commands, run.work, run.env)
        setups.append(time.perf_counter() - start)
        if i == 0:
            run.check_first(outcomes, cigkit, oracles)
        else:
            run.tally.add(outcomes)
    walls, per_command, rss = [], {}, []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        outcomes = run_session_children(run.commands, run.work, run.env)
        walls.append(time.perf_counter() - start)
        run.tally.add(outcomes)
        for o in outcomes:
            per_command.setdefault(o.label, []).append(o.seconds)
            rss.append(o.maxrss_kb)
    session = _median(walls)
    percentile, tail_value = tail(walls)
    cases = run.counts.get("cases", 0) + run.counts.get("final", 0)
    metrics = {
        "setup_s": _median(setups),
        "session_p50_s": session,
        "session_tail_s": tail_value,
        "cig_p50_s": _median(per_command.get("cig", [])),
        "gen_p50_s": _median(per_command.get("gen", [])),
        "libcompose_p50_s": _median(per_command.get("libcompose", [])),
        "cases_per_s": cases / session if session else 0.0,
        "peak_rss_mb": max(rss, default=0) / 1024,
        "output_bytes": sum(run.bytes_written.values()),
        "success_rate": 1 - run.tally.failed / run.tally.attempted,
    }
    info = {"sessions": len(walls), "tail_percentile": percentile}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def _probe_interpreter(run: Run) -> tuple[float, float]:
    """Median wall time of a bare interpreter and of one importing cigkit.cli."""
    bare, imported = [], []
    devnull = run.work / "probe.out"
    for i in range(PROBES):
        pair = [(bare, "pass"), (imported, "import cigkit.cli")]
        for target, code in pair if i % 2 == 0 else reversed(pair):
            seconds, exit_code = run_child([sys.executable, "-c", code], devnull, devnull, run.env)
            if exit_code != 0:
                raise RuntimeError(f"interpreter probe {code!r} exited {exit_code}")
            target.append(seconds)
    return _median(bare), _median(imported)


def measure_traced(run: Run, seconds: float, cigkit, oracles) -> tuple[dict, dict]:
    import cigkit.cli as cli

    run.generate()
    run.check_first(run_session_inprocess(cli, run.commands, run.work), cigkit, oracles)
    bare, imported = _probe_interpreter(run)
    chart_set = cigkit.ChartSet(tuple(run.charts))
    tracer = Tracer()
    session_ids = itertools.count(1)
    traced_walls, plain_walls = [], []

    def traced_session():
        sid = next(session_ids)
        with traced_cli(cli, tracer, lambda: sid):
            start = time.perf_counter()
            outcomes = run_session_inprocess(cli, run.commands, run.work, tracer, sid)
            traced_walls.append(time.perf_counter() - start)
        run.tally.add(outcomes)
        tracer.begin("probe", sid)
        for fn, name in ((cigkit.cross_services, "cig.cross"), (cigkit.find_switching_states, "cig.switching")):
            tracer.begin(name, sid)
            fn(chart_set)
            tracer.end()
        tracer.end()

    def plain_session():
        start = time.perf_counter()
        outcomes = run_session_inprocess(cli, run.commands, run.work)
        plain_walls.append(time.perf_counter() - start)
        run.tally.add(outcomes)

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced_walls or not plain_walls:
        order = (traced_session, plain_session) if len(traced_walls) % 2 == 0 else (plain_session, traced_session)
        for step in order:
            step()

    selfs = tracer.self_times()
    sessions = sorted(selfs)
    metrics = {name: _median([selfs[s].get(span, 0.0) for s in sessions]) for name, span in SPAN_METRICS.items()}
    chars = [tracer.counts.get((s, "statechart.chars"), 0) / selfs[s]["statechart.parse"]
             for s in sessions if selfs[s].get("statechart.parse")]
    c = run.counts
    commands = len(run.commands)
    props = run.inputs.props
    metrics.update({
        "statechart.states": props["states"],
        "statechart.transitions": props["transitions"],
        "statechart.chars_per_s": _median(chars),
        "components.fold_steps": c.get("fold_steps", 0),
        "components.satisfied": c.get("satisfied", 0),
        "cig.nodes": c.get("nodes", 0),
        "cig.edges": c.get("edges", 0),
        "cig.removed": c.get("removed", 0),
        "cig.services": c.get("services", 0),
        "cig.emitters": c.get("emitters", 0),
        "cig.edges_per_emitter": c.get("edges", 0) / c["emitters"] if c.get("emitters") else 0.0,
        "cig.json_bytes": run.bytes_written["cig"],
        "testlib.cases": c.get("cases", 0),
        "testlib.steps": c.get("steps", 0),
        "testlib.steps_per_case": c.get("steps", 0) / c["cases"] if c.get("cases") else 0.0,
        "testlib.omitted_states": c.get("omitted_states", 0),
        "testlib.json_bytes": run.bytes_written["gen"],
        "testlib.result_bytes": run.bytes_written["libcompose"],
        "testlib.retained": c.get("retained", 0),
        "testlib.removed": c.get("removed_cases", 0),
        "cli.startup_s": commands * bare,
        "cli.import_s": commands * (imported - bare),
        "trace.overhead_ratio": _median(traced_walls) / _median(plain_walls) - 1,
    })
    trace_file = run.work.parent / f"trace-{run.workload}-{run.seed}.json"
    trace_file.write_text(json.dumps(tracer.to_json()) + "\n", encoding="utf-8")
    info = {"sessions": len(traced_walls) + len(plain_walls), "trace_file": str(trace_file)}
    return {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()}, info




def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Measure one workload; returns (result object, details for people)."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    import cigkit

    oracles = _load_oracles(root)
    run = Run(root, workload, seed)
    try:
        measure = measure_traced if trace else measure_untraced
        metrics, info = measure(run, seconds, cigkit, oracles)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    props = dict(run.inputs.props)
    props["edges"] = run.counts.get("edges", props["edges"])
    props["emitters"] = run.counts.get("emitters")
    info.update(props=props, notes=run.tally.notes, digests=run.tally.reference)
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def _print_details(workload: str, seed: int, result: dict, info: dict):
    props = " ".join(f"{k}={v}" for k, v in info["props"].items())
    print(f"workload {workload} seed {seed}: {props}")
    for name, metric in result["metrics"].items():
        extra = ""
        if name == "session_tail_s":
            extra = f"  (p{info['tail_percentile']:.1f} of {info['sessions']} sessions)"
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}{extra}")
    print(f"  commands attempted {result['attempted']}, failed {result['failed']}, "
          f"error_rate {result['failed'] / result['attempted']:.6g}")
    for note in info["notes"]:
        print(f"  failure: {note}")
    if "trace_file" in info:
        print(f"  spans written to {info['trace_file']}")


def _layer_stress(per_layer: dict, e2e: dict) -> dict[str, bool]:
    """Whether the traced run shows each workload loading the layer it was
    built to stress. These describe the program as measured, so a change that
    speeds a layer up may rightly flip one; they do not affect the exit code."""
    v = {w: {name: m["value"] for name, m in metrics.items()} for w, metrics in per_layer.items()}
    out = {}
    if "deep_pair" in v:
        d = v["deep_pair"]
        times = {k: x for k, x in d.items() if k in SPAN_METRICS}
        out["deep_pair: testlib.gen_s is the largest layer self time"] = max(times, key=times.get) == "testlib.gen_s"
    if "wide_ring" in v:
        w = v["wide_ring"]
        out["wide_ring: cig.build_s + cig.classify_s + statechart.parse_s > 10 x testlib.gen_s"] = (
            w["cig.build_s"] + w["cig.classify_s"] + w["statechart.parse_s"] > 10 * w["testlib.gen_s"]
        )
    if "library_fold" in v:
        f = v["library_fold"]
        cig_times = [x for k, x in f.items() if k.startswith("cig.") and k in SPAN_METRICS]
        out["library_fold: testlib.from_json_s + testlib.result_to_json_s > every cig.* time"] = (
            f["testlib.from_json_s"] + f["testlib.result_to_json_s"] > max(cig_times)
        )
    if "cli_fixtures" in v and "cli_fixtures" in e2e:
        c = v["cli_fixtures"]
        out["cli_fixtures: cli.startup_s + cli.import_s > half of session_p50_s"] = (
            c["cli.startup_s"] + c["cli.import_s"] > 0.5 * e2e["cli_fixtures"]["session_p50_s"]["value"]
        )
    return out


def _machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()}


def run_all(root: Path, seed: int, seconds: float, record: Path | None) -> int:
    e2e, per_layer, details = {}, {}, {}
    correct = True
    for workload in workloads.WORKLOADS:
        for trace, store in ((0, e2e), (1, per_layer)):
            result, info = run_workload(root, workload, seed, seconds, trace)
            _print_details(workload, seed, result, info)
            store[workload] = result["metrics"]
            correct = correct and result["correct"]
            details.setdefault(workload, {})[f"trace{trace}"] = {
                k: result[k] for k in ("correct", "attempted", "failed")
            } | {"sessions": info["sessions"], "props": info["props"], "digests": info["digests"]}
            if trace == 0:
                details[workload]["tail_percentile"] = info["tail_percentile"]
    stress = _layer_stress(per_layer, e2e)
    print("layer stress checks:")
    for label, ok in stress.items():
        print(f"  {'PASS' if ok else 'FAIL'}: {label}")
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src" / "cigkit").glob("*.py"))
    print(f"src/cigkit lines: {lines}")
    if record is not None:
        document = {
            "seed": seed,
            "seconds": seconds,
            "src_cigkit_lines": lines,
            "machine": _machine(),
            "end_to_end": e2e,
            "per_layer": per_layer,
            "runs": details,
            "layer_stress": stress,
        }
        record.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="with --workload all, also write the results here as JSON")
    args = parser.parse_args(argv)
    if args.record is not None and args.workload != "all":
        parser.error("--record needs --workload all")

    root = BENCH_DIR.parent
    needed = [root / "src" / "cigkit" / "cli.py", root / "tests" / "oracles.py", root / "fixtures"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"run.py: the program is not here, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(root, args.seed, args.seconds, args.record)
    result, info = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
    _print_details(args.workload, args.seed, result, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
