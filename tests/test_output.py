"""How commands write their results: in batches, the same bytes to stdout and
to ``--out``, nothing when they fail first, one error line when stdout is
closed, and never the whole composed library held in memory several times;
and how little memory loading an authored library, parsing charts, building
a CIG or generating tests takes, with one object for each distinct value."""

import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cigkit
import cigkit.cli as cli
import cigkit.documents
from cigkit import (
    ChartSet,
    Origin,
    TestCase,
    TestLibrary,
    TestStep,
    build_cig,
    cig_from_json,
    classify_states,
    compose_libraries,
    composed_result_to_json,
    composition_result_from_json,
    generate_new_tests,
    library_from_json,
    library_to_json,
    parse_statechart,
    serialize_statechart,
)
from cigkit.cli import run
from cigkit.documents import library_chunks, library_from_stream
from conftest import DISPENSER, VENDING
from oracles import oracle_composed_json, oracle_library_from_json, oracle_library_json, random_chart_set

FIXTURE_ARGS = [str(VENDING), str(DISPENSER)]
SRC = Path(cigkit.__file__).resolve().parent.parent


def _library(rng, prefix, owner, states, count):
    """Authored cases like the benchmark's: two services and three steps
    each, drawn from few values, so steps repeat across cases."""
    services = ("setCredit", "ok", "insert", "vend", "cancel", "returnCoins")
    return TestLibrary(
        tuple(
            TestCase(
                id=f"{prefix}_{i:05d}",
                owner=owner,
                services=frozenset(rng.sample(services, 2)),
                steps=tuple(
                    TestStep(rng.choice(services), (owner, rng.choice(states)), (rng.choice(services),))
                    for _ in range(3)
                ),
                origin=Origin.LIBRARY,
            )
            for i in range(count)
        )
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, vending_chart, dispenser_chart):
    """The fixtures' composition, CIG and generated library as the CLI writes
    them, and two authored libraries of 800 cases each."""
    work = tmp_path_factory.mktemp("output")
    paths = {name: work / f"{name}.json" for name in ("cig", "comp", "gen", "t1", "t2")}
    assert run(["cig", *FIXTURE_ARGS, "--out", str(paths["cig"])]).exit_code == 0
    assert run(["compose", *FIXTURE_ARGS, "--out", str(paths["comp"])]).exit_code == 0
    assert run(["tests", "gen", "--cig", str(paths["cig"]), *FIXTURE_ARGS, "--out", str(paths["gen"])]).exit_code == 0
    rng = random.Random(20101018)
    for name, chart in (("t1", vending_chart), ("t2", dispenser_chart)):
        library = _library(rng, name, chart.component_name, chart.states, 800)
        paths[name].write_text(library_to_json(library), encoding="utf-8")
    return paths


def _argv(inputs, command):
    if command == "gen":
        return ["tests", "gen", "--cig", str(inputs["cig"]), *FIXTURE_ARGS]
    return ["tests", "compose", "--t1", str(inputs["t1"]), "--t2", str(inputs["t2"]),
            "--composition", str(inputs["comp"]), "--tnew", str(inputs["gen"])]


def _expected(inputs, command):
    """The document the command writes, from the package's own calls, and as
    the ``json.dumps`` oracle writes it."""
    if command == "gen":
        library = library_from_json(inputs["gen"].read_text(encoding="utf-8"))
        return library, library_to_json(library), oracle_library_json(library)
    t1, t2, tnew = (library_from_json(inputs[n].read_text(encoding="utf-8")) for n in ("t1", "t2", "gen"))
    composition = composition_result_from_json(inputs["comp"].read_text(encoding="utf-8"))
    result = compose_libraries(t1, t2, composition.all_satisfied(), tnew)
    return result, composed_result_to_json(result), oracle_composed_json(result)


class _Writes(io.StringIO):
    """A stdout that keeps the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


# The fixtures' generated library is small, so ``tests gen`` also runs with
# a batch far below one library; the composed library spans ~40 real batches.
@pytest.mark.parametrize("command, batch", [("gen", 300), ("compose", 300), ("compose", cli._BATCH)])
def test_stdout_and_out_file_get_the_same_bytes_in_bounded_writes(monkeypatch, tmp_path, inputs, command, batch):
    monkeypatch.setattr(cli, "_BATCH", batch)
    document, text, oracle_text = _expected(inputs, command)
    assert text == oracle_text and len(text) > 2 * batch
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(_argv(inputs, command)).exit_code == 0
    out = tmp_path / "out.json"
    assert run([*_argv(inputs, command), "--out", str(out)]).exit_code == 0
    monkeypatch.undo()
    assert stdout.getvalue() == out.read_text(encoding="utf-8") == text
    largest_chunk = max(len(chunk) for chunk in library_chunks(document))
    assert max(stdout.sizes) < batch + largest_chunk
    assert len(stdout.sizes) <= -(-len(text) // batch)  # every write but the last fills a batch


@pytest.mark.parametrize(
    "command, broken, message",
    [
        ("gen", "cig", "invalid JSON"),
        ("compose", "t1", "invalid JSON"),
        ("compose", "comp", "composition result must be a JSON object"),
    ],
)
def test_a_command_that_fails_before_writing_writes_nothing(capsys, tmp_path, inputs, command, broken, message):
    bad = tmp_path / "bad.json"
    bad.write_text("[" if message == "invalid JSON" else "[]", encoding="utf-8")
    argv = [str(bad) if arg == str(inputs[broken]) else arg for arg in _argv(inputs, command)]
    out = tmp_path / "out.json"
    assert run(argv).exit_code == 2
    assert run([*argv, "--out", str(out)]).exit_code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(message) == 2
    assert not out.exists()


def test_an_out_path_that_is_a_directory_exits_2(capsys, tmp_path, inputs):
    assert run([*_argv(inputs, "compose"), "--out", str(tmp_path)]).exit_code == 2
    captured = capsys.readouterr()
    assert captured.err == f"cig: error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("command", ["parse", "cig", "compose"])
def test_a_closed_stdout_is_one_error_line_and_exit_2(inputs, command, unbuffered):
    argv = {
        "parse": ["parse", *FIXTURE_ARGS],
        "cig": ["cig", *FIXTURE_ARGS, "--format", "dot"],
        "compose": _argv(inputs, "compose"),
    }[command]
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so its first write fails
    try:
        child = subprocess.run(
            [sys.executable, "-m", "cigkit", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60
        )
    finally:
        os.close(write_end)
    assert child.stderr.decode() == "cig: error: standard output: [Errno 32] Broken pipe\n"
    assert child.returncode == 2


def test_tests_compose_holds_less_than_its_output_in_memory(tmp_path, inputs):
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        report = run([*_argv(inputs, "compose"), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exit_code == 0
    size = out.stat().st_size
    assert size > 2_000_000
    assert peak < 2.5 * size, f"peak {peak / size:.2f} x the {size} output bytes"


def test_loading_a_library_holds_less_than_twice_its_text(inputs):
    # the library is read a case at a time, and equal steps load as one
    # TestStep, so the load follows the library's few distinct steps instead
    # of its 2,400 written ones; the loaded cases share their owner, service
    # names, service sets and state names, so once the text is freed the
    # library holds less than it
    text = inputs["t1"].read_text(encoding="utf-8")
    size = len(text)
    tracemalloc.start()
    try:
        library = library_from_json(text)
        del text
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(library) == 800
    assert peak < 2 * size, f"peak {peak / size:.2f} x the {size} text characters"
    assert current < 0.75 * size, f"{current / size:.2f} x the {size} text characters held"


def _held_beyond_the_model(path: Path) -> tuple[TestLibrary, int]:
    """The library in ``path``, and the bytes its load held at the peak beyond
    what the library keeps and what building a TestLibrary of its cases takes."""
    tracemalloc.start()
    try:
        with path.open(encoding="utf-8") as stream:
            library = library_from_stream(stream)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        TestLibrary(list(library.cases))  # a list of the cases, their tuple and the duplicate-id check
        model = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    return library, peak - kept - model


def test_loading_a_library_file_holds_a_few_chunks_beyond_the_library(tmp_path, inputs, vending_chart):
    # the file is read a chunk and a case at a time: neither its text nor its
    # decoded tree is held whole, so a four times longer file holds no more
    longer = tmp_path / "t1_x4.json"
    authored = _library(random.Random(4), "t1", vending_chart.component_name, vending_chart.states, 3200)
    longer.write_text(library_to_json(authored), encoding="utf-8")
    (library, extra), (long_library, long_extra) = map(_held_beyond_the_model, (inputs["t1"], longer))
    assert (len(library), len(long_library)) == (800, 3200)
    chunk = cigkit.documents._CHUNK
    assert extra < 6 * chunk, f"{extra / chunk:.1f} chunks held beyond the library"
    assert long_extra < extra + chunk, f"{long_extra / chunk:.1f} chunks held for a file 4x longer"


def test_the_chunked_reader_serves_every_well_formed_library(monkeypatch, tmp_path, inputs):
    # only the whole-file read, the fallback for what the chunked reader refuses,
    # calls _loads; the reader is strict on keys, never on whitespace
    t1 = inputs["t1"].read_text(encoding="utf-8")
    paths = [inputs["t1"], inputs["t2"], inputs["gen"]]
    for name, text in [
        ("empty.json", '{"cases": []}'),
        ("spaced.json", '{ "cases" : [ ] }'),
        ("compact.json", json.dumps(json.loads(t1))),
        ("crlf.json", t1.replace("\n", "\r\n")),
    ]:
        paths.append(tmp_path / name)
        paths[-1].write_bytes(text.encode())
    texts = [path.read_bytes().decode() for path in paths]
    expected = [oracle_library_from_json(text) for text in texts]

    def whole_file_read(text):
        raise AssertionError("the library was read again whole")

    monkeypatch.setattr(cigkit.documents, "_loads", whole_file_read)
    for path, text, library in zip(paths, texts, expected):
        for newline in (None, ""):  # as the CLI opens a file, and with its line ends kept
            with path.open(encoding="utf-8", newline=newline) as stream:
                assert library_from_stream(stream) == library
        assert library_from_json(text) == library


def _first_of_each(values) -> bool:
    """Whether each value is the first one equal to it: one object per distinct value."""
    first = {}
    return all(first.setdefault(value, value) is value for value in values)


def test_a_load_holds_one_object_per_distinct_value(inputs):
    library = library_from_json(inputs["t1"].read_text(encoding="utf-8"))
    sets = [case.services for case in library]
    assert len(set(sets)) < len(sets) and _first_of_each(sets)
    assert _first_of_each(case.owner for case in library)
    assert _first_of_each(name for services in sets for name in services)
    states = [step.expected_state for case in library for step in case.steps]
    names = [name for state in states if state is not None for name in state]
    assert len(set(names)) < len(names) and _first_of_each(names)
    text = inputs["cig"].read_text(encoding="utf-8")
    cig = cig_from_json(text)
    endpoints = [ref for edge in cig.edges for ref in (edge.source, edge.target)]
    assert len(set(endpoints)) < len(endpoints) and _first_of_each(endpoints)
    services = [edge.service for edge in cig.edges]
    assert len(set(services)) < len(services) and _first_of_each(services)
    # a repeated endpoint spelled with its keys in the other order, and with an extra key
    data = json.loads(text)
    ends = [edge["to"] for edge in data["edges"]]
    target = max(ends, key=ends.count)
    repeats = [edge for edge in data["edges"] if edge["to"] == target]
    repeats[1]["to"] = dict(reversed(target.items()))
    repeats[2]["to"] = {**target, "note": "x"}
    respelled = [edge.target for edge in cig_from_json(json.dumps(data)).edges]
    assert len(repeats) == 3 and respelled.count(tuple(target.values())) == 3 and _first_of_each(respelled)


def _parsed_values(chart):
    """What a parsed chart holds, each kind of value apart: state names
    (declared, initial, every transition endpoint), events, actions, action
    emissions and guards."""
    transitions = chart.transitions
    return (
        [*chart.states, chart.initial, *(s for t in transitions for s in (t.source, t.target))],
        [t.event for t in transitions if t.event is not None],
        [a.action for t in transitions for a in t.actions],
        [a for t in transitions for a in t.actions],
        [t.guard for t in transitions if t.guard is not None],
    )


def test_a_parse_and_a_build_hold_one_object_per_distinct_value(inputs, vending_chart, dispenser_chart):
    drawn = random_chart_set(random.Random(1018), 4)
    texts = [serialize_statechart(chart) for chart in (vending_chart, dispenser_chart, *drawn)]
    for text in texts:
        for values in _parsed_values(parse_statechart(text)):
            assert _first_of_each(values), (values, text)
    names = _parsed_values(parse_statechart(texts[0]))[0]
    assert len(set(names)) < len(names)  # endpoints repeat the declared names
    fixtures = ChartSet(tuple(map(parse_statechart, texts[:2])))
    kinds = list(classify_states(fixtures).values())
    assert len(set(kinds)) < len(kinds) and _first_of_each(kinds)
    assert _first_of_each(node.kinds for node in build_cig(fixtures).nodes)
    cig = cig_from_json(inputs["cig"].read_text(encoding="utf-8"))
    strings = [s for node in cig.nodes for s in (node.component, node.state)]
    assert len(set(strings)) < len(strings) and _first_of_each(strings)


def _ring_text(index: int, count: int, states: int) -> str:
    """A chart of a ring like the benchmark's wide one: each state steps on
    two events, one guarded, and a few emit names its successor accepts."""
    own, previous = f"c{index:02d}", f"c{(index - 1) % count:02d}"
    names = [f"L{i // 10:02d}S{i % 10:02d}" for i in range(states)]
    lines = [f"component C{index:02d}", *(f"state {s}" for s in names), f"initial {names[0]}"]
    for i, state in enumerate(names):
        lines.append(f"transition {state} -> {names[(i + 1) % states]} on {own}_a")
        lines.append(f"transition {state} -> {names[(i * 7 + 3) % states]} on {own}_b guard [n > 0]")
        if i % 10 == 1:
            lines.append(f"transition {state} -> {names[0]} on {own}_fire do {own}s{i % 2}(1,2..max)")
        if i % 10 == 2:
            lines.append(f"transition {state} -> {names[0]} on {previous}s{i % 2}")
    return "\n".join([*lines, "end"]) + "\n"


def test_a_parsed_chart_set_holds_a_few_times_its_text():
    # a parse keeps one string per distinct name and guard, one ServiceName per
    # service and one ActionEmission per emission, not one per occurrence
    texts = [_ring_text(i, 16, 30) for i in range(16)]
    size = sum(map(len, texts))
    tracemalloc.start()
    try:
        charts = ChartSet(tuple(map(parse_statechart, texts)))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(len(chart.transitions) for chart in charts) >= 16 * 60
    assert held < 6 * size, f"{held / size:.2f} x the {size} text characters held"


def test_a_generation_holds_one_object_per_distinct_final_step():
    # 10 emitters x 10 acceptors of one service; the cases end in one of three
    # landing states or, for the ambiguous acceptor, none, with each edge's warning
    emitter = ["component E", *(f"state E{i}" for i in range(10)), "initial E0"]
    emitter += [f"transition E{i} -> E{(i + 1) % 10} on next" for i in range(10)]
    emitter += [f"transition E{i} -> E0 on go do s" for i in range(10)]
    acceptor = ["component A", *(f"state A{i}" for i in range(10)), "initial A0"]
    acceptor += [f"transition A{i} -> A{i % 3} on s" for i in range(10)] + ["transition A9 -> A1 on s"]
    charts = ChartSet(tuple(parse_statechart("\n".join([*lines, "end"])) for lines in (emitter, acceptor)))
    warnings = []
    library = generate_new_tests(build_cig(charts), charts, warn=warnings.append)
    finals = [case.steps[-1] for case in library]
    assert len(finals) == 100 and len(set(finals)) == 4 and _first_of_each(finals)
    # one services set for the 100 cases, and one setup for each source's 10 cases
    assert len({case.services for case in library}) == 1 and _first_of_each(case.services for case in library)
    setups = {}
    for case in library:
        setup = setups.setdefault(case.id.split("_s_")[0], case.steps[:-1])
        assert all(a is b for a, b in zip(setup, case.steps[:-1], strict=True))
    assert len(setups) == 10 and sum(map(len, setups.values())) == 45
    assert warnings == [
        f"tnew_E_E{i}_s_A_A9: expected state omitted, 2 transitions accept 's' in state 'A9'" for i in range(10)
    ]


@pytest.mark.parametrize("composed", [False, True], ids=["library", "composed"])
def test_writing_a_library_keeps_no_case_text(inputs, composed):
    # a case is rendered each time a part holds it, so no case text outlives
    # its chunk, though ``final`` repeats ``retained``; only step texts are kept
    document = library_from_json(inputs["t1"].read_text(encoding="utf-8"))
    if composed:
        t2, tnew = (library_from_json(inputs[n].read_text(encoding="utf-8")) for n in ("t2", "gen"))
        composition = composition_result_from_json(inputs["comp"].read_text(encoding="utf-8"))
        document = compose_libraries(document, t2, composition.all_satisfied(), tnew)
    tracemalloc.start()
    try:
        size = sum(len(chunk) for chunk in library_chunks(document))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 4, f"peak {peak / size:.2f} x the {size} characters written"
