"""Correctness checks on one session's outputs.

A problem found here marks the command that wrote the output as failed; it
never stops the run. The checks are independent of the package's own
algorithms where that is possible: satisfied services come from a plain-set
fold over interfaces scanned from the chart text, the library law is
evaluated on the raw JSON, and generated cases are replayed with the test
suite's ``replay_witness`` oracle.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from types import SimpleNamespace

from session import Command, Outcome, stderr_path, stdout_path
from workloads import Inputs

_GUARD = re.compile(r"\[[^\]]*\]")


def scan_interface(text: str) -> tuple[set[str], set[str]]:
    """(accepted events, emitted actions) of a chart, read from its text."""
    provided, required = set(), set()
    for line in text.splitlines():
        words = _GUARD.sub(" ", line).split("#", 1)[0].split()
        if not words or words[0] != "transition":
            continue
        for keyword, value in zip(words, words[1:]):
            if keyword == "on":
                provided.add(value)
            elif keyword == "do":
                required.add(value.split("(", 1)[0])
    return provided, required


def oracle_satisfied(inputs: Inputs, oracles) -> set[str] | None:
    """Services consumed by the left fold, by the tests' plain-set oracle."""
    interfaces = [scan_interface(p.read_text(encoding="utf-8")) for p in inputs.charts]
    provided, required = interfaces[0]
    satisfied: set[str] = set()
    for p, r in interfaces[1:]:
        step = oracles.oracle_compose(provided, required, p, r)
        if step is None:
            return None
        provided, required, consumed = step
        satisfied |= consumed
    return satisfied


def check_session(inputs: Inputs, work: Path, commands: list[Command],
                  outcomes: list[Outcome], charts, oracles) -> tuple[dict[str, list[str]], dict]:
    """Check every output of a session. Returns (problems by command label,
    counts read from the outputs)."""
    problems: dict[str, list[str]] = {c.label: [] for c in commands}
    counts: dict = {}
    for outcome in outcomes:
        if outcome.exit_code != 0:
            problems[outcome.label].append(f"exit code {outcome.exit_code}")
    by_label = {c.label: c for c in commands}
    for label, check in (
        ("compose", _check_compose),
        ("cig", _check_cig),
        ("cig_dot", _check_dot),
        ("gen", _check_gen),
        ("libcompose", _check_law),
    ):
        try:
            check(inputs, work, by_label, charts, oracles, counts, problems[label])
        except Exception as exc:  # a malformed output must fail its command, not the run
            problems[label].append(f"check failed: {type(exc).__name__}: {exc}")
    return problems, counts


def _load(command: Command, work: Path):
    path = command.out if command.out is not None else stdout_path(work, command.label)
    return json.loads(path.read_text(encoding="utf-8"))


def _check_compose(inputs, work, commands, charts, oracles, counts, problems):
    comp = _load(commands["compose"], work)
    steps = comp["steps"]
    satisfied = set().union(*(set(s["satisfied"]) for s in steps)) if steps else set()
    counts["fold_steps"] = len(steps)
    counts["satisfied"] = len(satisfied)
    if len(steps) != len(inputs.charts) - 1:
        problems.append(f"{len(steps)} fold steps for {len(inputs.charts)} charts")
    expected = oracle_satisfied(inputs, oracles)
    if expected != satisfied:
        problems.append("satisfied services differ from the plain-set fold")


def _check_cig(inputs, work, commands, charts, oracles, counts, problems):
    cig = _load(commands["cig"], work)
    edges = cig["edges"]
    counts["nodes"] = len(cig["nodes"])
    counts["edges"] = len(edges)
    counts["removed"] = len(cig["removed"])
    counts["services"] = len({e["service"] for e in edges})
    counts["emitters"] = len({(e["from"]["component"], e["from"]["state"]) for e in edges})
    if cig["components"] != [c.component_name for c in charts]:
        problems.append("graph components differ from the chart files")
    if inputs.expected_edges is not None and len(edges) != inputs.expected_edges:
        problems.append(f"{len(edges)} edges, the generator wired {inputs.expected_edges}")


def _check_dot(inputs, work, commands, charts, oracles, counts, problems):
    dot = stdout_path(work, "cig_dot").read_text(encoding="utf-8")
    arrows = sum(1 for line in dot.splitlines() if " -> " in line)
    edges = len(_load(commands["cig"], work)["edges"])
    if arrows != edges:
        problems.append(f"dot has {arrows} edges, json has {edges}")
    table = stderr_path(work, "cig_dot").read_text(encoding="utf-8").splitlines()
    states = sum(len(c.states) for c in charts)
    if len(table) != states + 1:
        problems.append(f"--report table has {len(table)} lines for {states} states")


def _edge_id(edge: dict) -> str:
    f, t = edge["from"], edge["to"]
    return "_".join(("tnew", f["component"], f["state"], edge["service"], t["component"], t["state"]))


def _check_gen(inputs, work, commands, charts, oracles, counts, problems):
    edges = _load(commands["cig"], work)["edges"]
    cases = _load(commands["gen"], work)["cases"]
    counts["cases"] = len(cases)
    counts["steps"] = sum(len(c["steps"]) for c in cases)
    counts["omitted_states"] = sum(1 for c in cases if "expected_state" not in c["steps"][-1])
    by_id = {c["id"]: c for c in cases}
    if len(cases) != len(edges) or set(by_id) != {_edge_id(e) for e in edges}:
        problems.append(f"{len(cases)} generated cases for {len(edges)} edges")
        return
    by_name = {c.component_name: c for c in charts}
    for edge in edges:
        steps = [
            SimpleNamespace(
                event=s["event"],
                expected_state=(s["expected_state"]["component"], s["expected_state"]["state"])
                if "expected_state" in s
                else None,
            )
            for s in by_id[_edge_id(edge)]["steps"]
        ]
        chart = by_name[edge["from"]["component"]]
        if not oracles.replay_witness(chart, steps, edge["from"]["state"], edge["service"]):
            problems.append(f"{_edge_id(edge)} does not replay on its chart")


def _check_law(inputs, work, commands, charts, oracles, counts, problems):
    result = _load(commands["libcompose"], work)
    satisfied = set().union(*(set(s["satisfied"]) for s in _load(commands["compose"], work)["steps"]))
    retained = [c for c in inputs.library_cases if not set(c["services"]) & satisfied]
    removed = [c for c in inputs.library_cases if set(c["services"]) & satisfied]
    generated = _load(commands["gen"], work)["cases"]
    expected = {"retained": retained, "removed": removed, "generated": generated,
                "final": retained + generated}
    counts["retained"] = len(retained)
    counts["removed_cases"] = len(removed)
    counts["final"] = len(retained) + len(generated)
    for key, cases in expected.items():
        if result[key]["cases"] != cases:
            problems.append(f"composed library {key!r} differs from the plain-set law")
