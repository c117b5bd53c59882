"""Seeded input generators for the benchmark workloads.

Each workload writes statechart files and two authored test libraries into a
work directory and returns an ``Inputs`` record. The seed decides the wiring:
which states a step leads to, which states emit or accept each service, the
declaration order of states and transitions, and which library cases touch a
satisfied service. The sizes are fixed per workload (states, transitions,
edges, cases, the share of cases hitting the satisfied set), so every seed
costs the program about the same and run-to-run spread stays small.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

FIXTURE_CHARTS = ("vending_machine.sc", "dispenser.sc")
HIT_SHARE = 0.25  # share of authored cases naming a satisfied service


@dataclass
class Inputs:
    charts: list[Path]
    t1: Path
    t2: Path
    library_cases: list[dict]  # t1's cases followed by t2's, as written
    expected_edges: int | None  # None when the generator does not construct them
    props: dict = field(default_factory=dict)


@dataclass
class _Chart:
    name: str
    states: list[str]
    initial: str
    transitions: list[str] = field(default_factory=list)

    def text(self, rng: random.Random) -> str:
        states = self.states[:]
        rng.shuffle(states)
        transitions = self.transitions[:]
        rng.shuffle(transitions)
        lines = [f"# generated chart {self.name}", f"component {self.name}"]
        lines += [f"state {s}" for s in states]
        lines.append(f"initial {self.initial}")
        lines += [f"transition {t}" for t in transitions]
        lines.append("end")
        return "\n".join(lines) + "\n"


def _layered(rng: random.Random, name: str, layers: int, width: int) -> tuple[_Chart, list[list[str]]]:
    """A chart whose states sit in layers; layer 0 holds the initial state only.

    Every state below the last layer has two triggered steps into the next
    layer, and each state of the next layer has exactly one ``*_a`` parent, so
    a state in layer ``l`` is exactly ``l`` events from the initial state
    whatever the seed.
    """
    grid = [[f"{name}_I"]] + [
        [f"L{layer:02d}S{j:02d}" for j in range(width)] for layer in range(1, layers)
    ]
    chart = _Chart(name, [s for row in grid for s in row], grid[0][0])
    ev = name.lower()
    for upper, lower in zip(grid, grid[1:]):
        parents = [upper[i % len(upper)] for i in range(len(lower))]
        rng.shuffle(parents)
        children: dict[str, int] = {}
        for parent, child in zip(parents, lower):
            # number a parent's second and later children so its events stay distinct
            n = children.get(parent, 0)
            children[parent] = n + 1
            chart.transitions.append(f"{parent} -> {child} on {ev}_a{n or ''}")
        for parent in upper:
            chart.transitions.append(f"{parent} -> {rng.choice(lower)} on {ev}_b guard [n > 0]")
    return chart, grid


def _wire(
    rng: random.Random,
    emitter: tuple[_Chart, list[list[str]]],
    acceptor: tuple[_Chart, list[list[str]]],
    services: list[str],
    emit_layers: range,
    accept_layers: range,
    per_service: tuple[int, int],
) -> int:
    """Make ``per_service`` (emitters, acceptors) states emit and accept each
    service; the first acceptor of every service gets two accepting
    transitions, so its expected landing state is ambiguous. Returns the edge
    count this wiring produces."""
    (echart, egrid), (achart, agrid) = emitter, acceptor
    n_emit, n_accept = per_service
    epool = [s for layer in emit_layers for s in egrid[layer]]
    apool = [s for layer in accept_layers for s in agrid[layer]]
    emitting = rng.sample(epool, n_emit * len(services))
    fire = f"{echart.name.lower()}_fire"
    for k, service in enumerate(services):
        for state in emitting[k * n_emit : (k + 1) * n_emit]:
            echart.transitions.append(f"{state} -> {echart.initial} on {fire} do {service}(1,2..max)")
        for j, state in enumerate(rng.sample(apool, n_accept)):
            achart.transitions.append(f"{state} -> {achart.initial} on {service}")
            if j == 0:
                achart.transitions.append(f"{state} -> {rng.choice(agrid[1])} on {service}")
    return len(services) * n_emit * n_accept


def _library(
    rng: random.Random,
    prefix: str,
    owner: str,
    count: int,
    satisfied: list[str],
    others: list[str],
    states: list[str],
) -> list[dict]:
    """Authored cases with two services and three steps each. Exactly
    ``round(count * HIT_SHARE)`` cases name one satisfied service."""
    hits = set(rng.sample(range(count), round(count * HIT_SHARE)))
    cases = []
    for i in range(count):
        if i in hits:
            services = [rng.choice(satisfied), rng.choice(others)]
        else:
            services = rng.sample(others, 2)
        steps = [
            {
                "event": rng.choice(others),
                "expected_state": {"component": owner, "state": rng.choice(states)},
                "expected_actions": [rng.choice(others)],
            }
            for _ in range(3)
        ]
        cases.append(
            {
                "id": f"{prefix}_{i:05d}",
                "owner": owner,
                "origin": "library",
                "services": sorted(set(services)),
                "steps": steps,
            }
        )
    return cases


def _write_libraries(rng, workdir: Path, charts: list[_Chart], count: int, satisfied: list[str], others: list[str]):
    first, second = charts[0], charts[-1]
    t1 = _library(rng, "t1", first.name, count, satisfied, others, first.states)
    t2 = _library(rng, "t2", second.name, count, satisfied, others, second.states)
    paths = workdir / "t1.json", workdir / "t2.json"
    for path, cases in zip(paths, (t1, t2)):
        path.write_text(json.dumps({"cases": cases}, indent=2) + "\n", encoding="utf-8")
    return paths, t1 + t2


def _pair(seed: int, workdir: Path, layers: int, width: int, services: int,
          per_service: tuple[int, int], library_cases: int) -> Inputs:
    rng = random.Random(seed)
    alpha = _layered(rng, "Alpha", layers, width)
    beta = _layered(rng, "Beta", layers, width)
    a_out = [f"as{k:02d}" for k in range(services)]
    b_out = [f"bs{k:02d}" for k in range(services)]
    deep = range(max(1, layers - 3), layers)
    edges = _wire(rng, alpha, beta, a_out, deep, range(1, layers), per_service)
    edges += _wire(rng, beta, alpha, b_out, deep, range(1, layers), per_service)
    charts = [alpha[0], beta[0]]
    others = ["alpha_a", "alpha_b", "beta_a", "beta_b", "alpha_fire", "beta_fire"]
    return _finish(rng, workdir, charts, edges, library_cases, a_out + b_out, others)


def _ring(seed: int, workdir: Path, components: int, layers: int, width: int,
          per_service: tuple[int, int], library_cases: int) -> Inputs:
    rng = random.Random(seed)
    ring = [_layered(rng, f"C{i:02d}", layers, width) for i in range(components)]
    edges = 0
    emitted = []
    for i, emitter in enumerate(ring):
        services = [f"r{i:02d}s{k}" for k in range(2)]
        emitted += services
        acceptor = ring[(i + 1) % components]
        edges += _wire(rng, emitter, acceptor, services, range(1, 2), range(1, 2), per_service)
        # a switching state: only an automatic step that hands work to the peer
        chart = emitter[0]
        chart.states.append("Handoff")
        chart.transitions.append(f"Handoff -> {chart.initial} do {services[0]}")
    charts = [c for c, _ in ring]
    others = [f"c{i:02d}_a" for i in range(components)] + [f"c{i:02d}_b" for i in range(components)]
    return _finish(rng, workdir, charts, edges, library_cases, emitted, others)


def _finish(rng, workdir: Path, charts: list[_Chart], edges: int | None, library_cases: int,
            satisfied: list[str], others: list[str]) -> Inputs:
    paths = []
    for chart in charts:
        path = workdir / f"{chart.name}.sc"
        path.write_text(chart.text(rng), encoding="utf-8")
        paths.append(path)
    (t1, t2), cases = _write_libraries(rng, workdir, charts, library_cases, satisfied, others)
    return Inputs(paths, t1, t2, cases, edges, _props(charts, cases, edges))


def _props(charts: list[_Chart], cases: list[dict], edges: int | None) -> dict:
    return {
        "charts": len(charts),
        "states": sum(len(c.states) for c in charts),
        "transitions": sum(len(c.transitions) for c in charts),
        "edges": edges,
        "cases": len(cases),
        "hit_share": HIT_SHARE,
    }


def _fixtures(seed: int, workdir: Path, fixtures_dir: Path, library_cases: int) -> Inputs:
    rng = random.Random(seed)
    charts = []
    paths = []
    for filename in FIXTURE_CHARTS:
        text = (fixtures_dir / filename).read_text(encoding="utf-8")
        path = workdir / filename
        path.write_text(text, encoding="utf-8")
        paths.append(path)
        lines = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
        charts.append(
            _Chart(
                name=next(words[1] for words in lines if words[0] == "component"),
                states=[words[1] for words in lines if words[0] == "state"],
                initial=next(words[1] for words in lines if words[0] == "initial"),
                transitions=[" ".join(words[1:]) for words in lines if words[0] == "transition"],
            )
        )
    satisfied = ["dispense", "nok", "ok", "setCredit"]
    others = ["cancel", "insert", "returnCoins", "vend"]
    (t1, t2), cases = _write_libraries(rng, workdir, charts, library_cases, satisfied, others)
    return Inputs(paths, t1, t2, cases, None, _props(charts, cases, None))


def generate(workload: str, seed: int, workdir: Path, fixtures_dir: Path) -> Inputs:
    """Write the workload's inputs for ``seed`` into ``workdir``."""
    if workload == "deep_pair":
        return _pair(seed, workdir, layers=9, width=10, services=8, per_service=(3, 3), library_cases=40)
    if workload == "wide_ring":
        return _ring(seed, workdir, components=16, layers=4, width=10, per_service=(1, 2), library_cases=40)
    if workload == "library_fold":
        return _pair(seed, workdir, layers=3, width=2, services=2, per_service=(1, 1), library_cases=800)
    if workload == "cli_fixtures":
        return _fixtures(seed, workdir, fixtures_dir, library_cases=8)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("deep_pair", "wide_ring", "library_fold", "cli_fixtures")
