import json
import random
import re

import pytest

import cigkit.testlib as testlib
from cigkit import (
    ChartSet,
    Cig,
    CigError,
    CigNode,
    DuplicateTestId,
    InvalidIdentifier,
    Kind,
    Origin,
    SchemaError,
    TestCase,
    TestLibrary,
    TestStep,
    UnreachableProvider,
    build_cig,
    compose_libraries,
    composed_result_from_json,
    composed_result_to_json,
    generate_new_tests,
    library_from_json,
    library_to_json,
    parse_statechart,
    satisfied_tests,
)
from conftest import FIXTURES
from oracles import (
    oracle_event_path,
    random_chart,
    random_chart_set,
    random_interacting_pair,
    replay_witness,
)

VM = "VendingMachine"
DISP = "Dispenser"

S_FIXTURE = frozenset({"setCredit", "dispense", "nok", "ok"})


def _case(case_id, services, owner="Owner"):
    return TestCase(
        id=case_id,
        owner=owner,
        services=frozenset(services),
        steps=(TestStep(event="poke"),),
    )


def test_satisfied_tests_golden():
    t1 = TestLibrary((_case("a", {"setCredit"}),))
    t2 = TestLibrary((_case("b", {"insert"}),))
    retained, removed = satisfied_tests(t1, t2, S_FIXTURE)
    assert [c.id for c in removed] == ["a"]
    assert [c.id for c in retained] == ["b"]


def test_satisfied_tests_empty_s_keeps_everything():
    t1 = TestLibrary((_case("a", {"setCredit"}), _case("c", set())))
    t2 = TestLibrary((_case("b", {"insert"}),))
    retained, removed = satisfied_tests(t1, t2, frozenset())
    assert len(removed) == 0
    assert [c.id for c in retained] == ["a", "c", "b"]


def test_satisfied_tests_empty_libraries():
    retained, removed = satisfied_tests(TestLibrary(), TestLibrary(), S_FIXTURE)
    assert len(retained) == 0 and len(removed) == 0


def test_satisfied_tests_rejects_shared_ids():
    t1 = TestLibrary((_case("same", {"x"}),))
    t2 = TestLibrary((_case("same", {"y"}),))
    with pytest.raises(DuplicateTestId, match="same"):
        satisfied_tests(t1, t2, frozenset())


def test_library_rejects_duplicate_ids():
    with pytest.raises(DuplicateTestId):
        TestLibrary((_case("a", {"x"}), _case("a", {"y"})))


def test_reserved_prefix_for_authored_cases():
    with pytest.raises(DuplicateTestId, match="reserved"):
        _case("tnew_z", {"x"})
    generated = TestCase(
        id="tnew_z",
        owner="Owner",
        services=frozenset({"x"}),
        steps=(),
        origin=Origin.GENERATED,
    )
    assert generated.origin is Origin.GENERATED


def test_generated_cases_must_name_services():
    with pytest.raises(ValueError):
        TestCase(id="tnew_q", owner="Owner", services=frozenset(), steps=(), origin=Origin.GENERATED)


def test_compose_libraries_golden():
    t1 = TestLibrary((_case("a", {"setCredit"}),))
    t2 = TestLibrary((_case("b", {"insert"}),))
    tnew = TestLibrary(
        tuple(
            TestCase(
                id=f"tnew_g{i}",
                owner="Owner",
                services=frozenset({"setCredit"}),
                steps=(),
                origin=Origin.GENERATED,
            )
            for i in range(5)
        )
    )
    result = compose_libraries(t1, t2, S_FIXTURE, tnew)
    assert [c.id for c in result.removed] == ["a"]
    assert [c.id for c in result.final] == ["b"] + [f"tnew_g{i}" for i in range(5)]
    assert len(result.final) == len(t1) + len(t2) - len(result.removed) + len(tnew)


def test_compose_libraries_identity_when_nothing_satisfied():
    t1 = TestLibrary((_case("a", {"x"}),))
    t2 = TestLibrary((_case("b", {"y"}),))
    result = compose_libraries(t1, t2, frozenset(), TestLibrary())
    assert [c.id for c in result.final] == ["a", "b"]
    assert len(result.removed) == 0


def test_compose_libraries_degenerates_to_tnew():
    tnew = TestLibrary(
        (
            TestCase(
                id="tnew_only",
                owner="Owner",
                services=frozenset({"x"}),
                steps=(),
                origin=Origin.GENERATED,
            ),
        )
    )
    result = compose_libraries(TestLibrary(), TestLibrary(), frozenset({"x"}), tnew)
    assert [c.id for c in result.final] == ["tnew_only"]


def test_compose_libraries_rejects_id_reuse_by_tnew():
    t1 = TestLibrary((_case("a", {"x"}),))
    tnew = TestLibrary(
        (TestCase(id="a", owner="Owner", services=frozenset({"x"}), steps=(), origin=Origin.GENERATED),)
    )
    with pytest.raises(DuplicateTestId):
        compose_libraries(t1, TestLibrary(), frozenset(), tnew)


GOLDEN_CASES = [
    (
        "tnew_Dispenser_Empty_nok_VendingMachine_Dispensing",
        DISP,
        {"nok"},
        [("dispense", (VM, "NoCoins"), ("nok",))],
    ),
    (
        "tnew_Dispenser_Enabled_ok_VendingMachine_Dispensing",
        DISP,
        {"ok"},
        [("setCredit", (DISP, "Enabled"), ()), ("dispense", (VM, "NoCoins"), ("ok",))],
    ),
    (
        "tnew_Dispenser_Insufficient_nok_VendingMachine_Dispensing",
        DISP,
        {"nok"},
        [("setCredit", (DISP, "Insufficient"), ()), ("dispense", (VM, "NoCoins"), ("nok",))],
    ),
    (
        "tnew_VendingMachine_MultipleCoins_setCredit_Dispenser_Empty",
        VM,
        {"setCredit"},
        [
            ("insert", (VM, "SingleCoin"), ()),
            ("insert", (VM, "MultipleCoins"), ()),
            ("vend", None, ("setCredit",)),
        ],
    ),
    (
        "tnew_VendingMachine_SingleCoin_setCredit_Dispenser_Empty",
        VM,
        {"setCredit"},
        [("insert", (VM, "SingleCoin"), ()), ("vend", None, ("setCredit",))],
    ),
]


def test_generate_new_tests_fixture_golden(fixture_charts):
    cig = build_cig(fixture_charts)
    library = generate_new_tests(cig, fixture_charts)
    assert len(library) == len(cig.edges) == 5
    seen = []
    for case in library:
        steps = [(str(s.event), s.expected_state, s.expected_actions) for s in case.steps]
        seen.append((case.id, case.owner, set(map(str, case.services)), steps))
        assert case.origin is Origin.GENERATED
    assert seen == GOLDEN_CASES


def test_generate_warns_on_ambiguous_landing_state(fixture_charts):
    warnings = []
    generate_new_tests(build_cig(fixture_charts), fixture_charts, warn=warnings.append)
    assert len(warnings) == 2
    assert all("setCredit" in w and "Empty" in w for w in warnings)


def test_generate_output_is_deterministic(fixture_charts):
    cig = build_cig(fixture_charts)
    once = library_to_json(generate_new_tests(cig, fixture_charts))
    again = library_to_json(generate_new_tests(cig, fixture_charts))
    assert once == again


def test_generation_prefers_fewer_events_over_fewer_transitions():
    charts = ChartSet(
        (
            parse_statechart(
                "component A\nstate S0\nstate A1\nstate G\ninitial S0\n"
                "transition S0 -> G on direct\n"
                "transition S0 -> A1\n"
                "transition A1 -> G\n"
                "transition G -> S0 on fire do ping\n"
                "end\n"
            ),
            parse_statechart("component B\nstate Y\ninitial Y\ntransition Y -> Y on ping\nend\n"),
        )
    )
    library = generate_new_tests(build_cig(charts), charts)
    (case,) = library
    # the two automatic hops cost nothing, so no setup event is needed
    assert [(str(s.event), s.expected_state) for s in case.steps] == [("fire", ("B", "Y"))]


def test_generation_breaks_ties_lexicographically():
    charts = ChartSet(
        (
            parse_statechart(
                "component A\nstate S0\nstate G\ninitial S0\n"
                "transition S0 -> G on zulu\n"
                "transition S0 -> G on alpha\n"
                "transition G -> S0 on fire do ping\n"
                "end\n"
            ),
            parse_statechart("component B\nstate Y\ninitial Y\ntransition Y -> Y on ping\nend\n"),
        )
    )
    library = generate_new_tests(build_cig(charts), charts)
    (case,) = library
    assert [str(s.event) for s in case.steps] == ["alpha", "fire"]


def test_setup_steps_rest_after_automatic_hops():
    charts = ChartSet(
        (
            parse_statechart(
                "component A\nstate S0\nstate M\nstate G\ninitial S0\n"
                "transition S0 -> M on go\n"
                "transition M -> G do tick\n"
                "transition G -> S0 on fire do ping\n"
                "end\n"
            ),
            parse_statechart("component B\nstate Y\ninitial Y\ntransition Y -> Y on ping\nend\n"),
        )
    )
    library = generate_new_tests(build_cig(charts), charts)
    (case,) = library
    first = case.steps[0]
    # the machine rides the automatic hop, so the go step rests in G and
    # carries the hop's emission
    assert (str(first.event), first.expected_state, first.expected_actions) == (
        "go",
        ("A", "G"),
        ("tick",),
    )


def test_generate_rejects_unreachable_provider():
    charts = ChartSet(
        (
            parse_statechart(
                "component A\nstate W\nstate X\ninitial W\n"
                "transition X -> X on fire do alarm\n"
                "end\n"
            ),
            parse_statechart("component B\nstate Y\ninitial Y\ntransition Y -> Y on alarm\nend\n"),
        )
    )
    with pytest.raises(UnreachableProvider, match="no event path"):
        generate_new_tests(build_cig(charts), charts)


def test_generate_rejects_untriggerable_emission():
    # the providing state only emits through an automatic transition, so no
    # event can be offered as the final step
    charts = ChartSet(
        (
            parse_statechart(
                "component A\nstate W\nstate X\nstate Y\ninitial W\n"
                "transition W -> X on go\n"
                "transition X -> Y do alarm\n"
                "transition X -> X on keep\n"
                "end\n"
            ),
            parse_statechart("component B\nstate Z\ninitial Z\ntransition Z -> Z on alarm\nend\n"),
        )
    )
    with pytest.raises(UnreachableProvider, match="no triggered transition"):
        generate_new_tests(build_cig(charts), charts)



def test_generate_rejects_an_edge_nothing_accepts(fixture_charts, vending_chart):
    # a CIG built before the dispenser renamed its setCredit trigger
    text = (FIXTURES / "dispenser.sc").read_text(encoding="utf-8")
    stale = parse_statechart(text.replace("on setCredit", "on putCredit"))
    with pytest.raises(
        SchemaError,
        match=r"^CIG does not match its statecharts: they build another CIG, "
        r"missing node VendingMachine\.SingleCoin \(G\)$",
    ):
        generate_new_tests(build_cig(fixture_charts), ChartSet((vending_chart, stale)))


def test_generate_rejects_an_edge_nothing_emits_any_more(fixture_charts, vending_chart):
    # a CIG built before the dispenser stopped answering dispense with ok
    text = (FIXTURES / "dispenser.sc").read_text(encoding="utf-8")
    stale = parse_statechart(text.replace("on dispense do ok", "on dispense"))
    with pytest.raises(
        SchemaError,
        match=r"^CIG does not match its statecharts: they build another CIG, "
        r"missing node Dispenser\.Enabled \(G\)$",
    ):
        generate_new_tests(build_cig(fixture_charts), ChartSet((vending_chart, stale)))


def test_generate_rejects_a_cig_the_charts_no_longer_build():
    def charts(emission):
        return ChartSet(
            (
                parse_statechart(
                    f"component A\nstate W\nstate X\ninitial W\ntransition X -> X on fire{emission}\nend\n"
                ),
                parse_statechart("component B\nstate Y\ninitial Y\ntransition Y -> Y on alarm\nend\n"),
            )
        )

    cig = build_cig(charts(" do alarm"))
    with pytest.raises(UnreachableProvider, match="no event path"):
        generate_new_tests(cig, charts(" do alarm"))
    with pytest.raises(
        SchemaError, match="^CIG does not match its statecharts: the charts share no services"
    ):
        generate_new_tests(cig, charts(""))


def test_generate_compares_the_cig_without_order_and_warns_only_if_it_matches(fixture_charts):
    cig = build_cig(fixture_charts)
    expected = generate_new_tests(cig, fixture_charts)
    reordered = Cig(*(tuple(reversed(getattr(cig, key))) for key in ("components", "removed", "nodes", "edges")))
    warnings = []
    assert generate_new_tests(reordered, fixture_charts, warn=warnings.append) == expected
    assert len(warnings) == 2
    pruned = Cig(cig.components, cig.removed, cig.nodes, cig.edges[1:])
    warnings.clear()
    message = "CIG does not match its statecharts: they build another CIG, missing edge "
    with pytest.raises(SchemaError, match=f"^{message}VendingMachine.SingleCoin -> Dispenser.Empty on setCredit$"):
        generate_new_tests(pruned, fixture_charts, warn=warnings.append)
    assert warnings == []


def test_generate_names_the_first_element_the_cig_lacks_or_adds(fixture_charts):
    # removed states, then nodes, then edges; missing ones before extra ones,
    # and missing ones in the order the charts build them, whatever the CIG's order
    cig = build_cig(fixture_charts)
    components, removed, nodes, edges = cig.components, cig.removed, cig.nodes, cig.edges
    nowhere = (("Dispenser", "Nowhere"),)
    lone = CigNode("Dispenser", "Nowhere", frozenset({Kind.REQUIRED}))
    empty = "Dispenser.Empty on setCredit"
    for mutated, difference in [
        (Cig(components, removed + nowhere, nodes, edges[1:]), "extra removed state Dispenser.Nowhere"),
        (Cig(components, nowhere, nodes, edges), "missing removed state VendingMachine.ReadyToDispense"),
        (Cig(components, removed, nodes + (lone,), edges[1:]), "extra node Dispenser.Nowhere (R)"),
        (Cig(components, removed, nodes[1:], edges), f"missing node VendingMachine.{nodes[0].state} (G)"),
        (Cig(components, removed, nodes, edges[:1:-1]), f"missing edge VendingMachine.SingleCoin -> {empty}"),
    ]:
        message = f"CIG does not match its statecharts: they build another CIG, {difference}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            generate_new_tests(mutated, fixture_charts)


def test_event_paths_match_per_goal_search():
    # one exhaustive search per chart must give every state the path the
    # per-goal search finds, and leave out exactly the states it cannot reach
    rng = random.Random(20100611)
    for _ in range(1200):
        chart = random_chart(
            rng, "C", events=("a", "b", "c"), actions=("x", "y"), max_states=12, max_transitions=30
        )
        paths = testlib._event_paths(chart)
        for state in chart.states:
            try:
                expected = oracle_event_path(chart, state)
            except UnreachableProvider:
                assert state not in paths, (chart, state)
            else:
                assert paths.get(state) == expected, (chart, state)


def test_generated_cases_replay_on_random_charts():
    # beyond the fixtures: each case generated for a random chart set drives
    # its emitting chart to the providing state and fires the edge's service
    rng = random.Random(20101019)
    checked, cases, skipped = [0, 0], 0, 0  # checked: chart sets, interacting pairs
    for i in range(3000):
        pair = i % 2
        charts = ChartSet(tuple(random_interacting_pair(rng) if pair else random_chart_set(rng, 2 + i % 3)))
        try:
            cig = build_cig(charts)
            library = generate_new_tests(cig, charts)
        except CigError:
            skipped += 1
            continue
        by_id = {case.id: case for case in library}
        assert len(by_id) == len(cig.edges)
        for edge in cig.edges:
            case = by_id["_".join(("tnew", *edge.source, str(edge.service), *edge.target))]
            emitter = charts.get(edge.source[0])
            assert replay_witness(emitter, case.steps, edge.source[1], edge.service), (charts, case)
        checked[pair] += 1
        cases += len(library)
    assert min(checked) >= 100 and cases >= 1500, (checked, cases, skipped)


def test_generate_searches_once_per_emitting_chart(fixture_charts, monkeypatch):
    calls = []
    search = testlib._event_paths

    def counting(chart):
        calls.append(chart.component_name)
        return search(chart)

    monkeypatch.setattr(testlib, "_event_paths", counting)
    cig = build_cig(fixture_charts)
    library = generate_new_tests(cig, fixture_charts)
    emitters = {edge.source[0] for edge in cig.edges}
    assert len(library) == len(cig.edges) == 5
    assert sorted(calls) == sorted(emitters) == [DISP, VM]


def test_generate_rejects_mismatched_charts(fixture_charts, dispenser_chart):
    cig = build_cig(fixture_charts)
    with pytest.raises(SchemaError, match="no statechart"):
        generate_new_tests(cig, ChartSet((dispenser_chart,)))


def test_library_json_round_trip(fixture_charts):
    library = generate_new_tests(build_cig(fixture_charts), fixture_charts)
    text = library_to_json(library)
    assert text.endswith("\n")
    assert library_from_json(text) == library
    authored = TestLibrary((_case("a", {"x", "y"}),))
    assert library_from_json(library_to_json(authored)) == authored


def test_library_json_omits_absent_expected_state(fixture_charts):
    library = generate_new_tests(build_cig(fixture_charts), fixture_charts)
    text = library_to_json(library)
    vend_block = text.split('"event": "vend"')[1].split("}")[0]
    assert "expected_state" not in vend_block


def test_library_json_schema_errors():
    with pytest.raises(SchemaError):
        library_from_json("[]")
    with pytest.raises(SchemaError):
        library_from_json('{"cases": [{"owner": "A"}]}')
    with pytest.raises(SchemaError):
        library_from_json(
            '{"cases": [{"id": "a", "owner": "A", "origin": "weird", "services": [], "steps": []}]}'
        )
    with pytest.raises(SchemaError):
        library_from_json(
            '{"cases": [{"id": "a", "owner": "A", "services": [], '
            '"steps": [{"event": "e", "expected_state": "X"}]}]}'
        )


@pytest.mark.parametrize(
    "ref, message",
    [
        ({"component": 5, "state": "S"}, "invalid component name: 5"),
        ({"component": "not an id", "state": "S"}, "invalid component name: 'not an id'"),
        ({"component": "C", "state": None}, "invalid state name: None"),
        ({"component": "C", "state": "1st"}, "invalid state name: '1st'"),
    ],
)
def test_expected_state_names_identifiers(ref, message):
    with pytest.raises(InvalidIdentifier, match=message):
        TestStep(event="e", expected_state=(ref["component"], ref["state"]))
    step = {"event": "e", "expected_state": ref, "expected_actions": []}
    document = {"cases": [{"id": "a", "owner": "A", "services": [], "steps": [step]}]}
    with pytest.raises(SchemaError, match=f"^invalid test step: {message}$"):
        library_from_json(json.dumps(document))


def test_composed_result_json_round_trip(fixture_charts):
    t1 = TestLibrary((_case("a", {"setCredit"}),))
    t2 = TestLibrary((_case("b", {"insert"}),))
    tnew = generate_new_tests(build_cig(fixture_charts), fixture_charts)
    result = compose_libraries(t1, t2, S_FIXTURE, tnew)
    text = composed_result_to_json(result)
    assert composed_result_from_json(text) == result
    with pytest.raises(SchemaError):
        composed_result_from_json('{"retained": {"cases": []}}')
