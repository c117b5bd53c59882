import json
import random

import pytest

import cigkit.cli as cli
from cigkit import (
    ChartSet,
    Cig,
    CigEdge,
    CigNode,
    InvalidIdentifier,
    DisjointnessViolation,
    Kind,
    NoInteraction,
    SchemaError,
    build_cig,
    cig_from_json,
    cig_to_dot,
    cig_to_json,
    classify_states,
    cross_services,
    extract_interfaces,
    find_switching_states,
    format_kinds,
    parse_statechart,
)
from oracles import oracle_classify, random_chart_set, random_interacting_pair

VM = "VendingMachine"
DISP = "Dispenser"

GOLDEN_DOT = """\
digraph CIG {
  node [shape=ellipse];
  subgraph cluster_0 {
    label="VendingMachine";
    style=dashed;
    "VendingMachine.NoCoins" [label="NoCoins\\n[G]"];
    "VendingMachine.SingleCoin" [label="SingleCoin\\n[P]"];
    "VendingMachine.MultipleCoins" [label="MultipleCoins\\n[P]"];
    "VendingMachine.Dispensing" [label="Dispensing\\n[R]"];
  }
  subgraph cluster_1 {
    label="Dispenser";
    style=dashed;
    "Dispenser.Empty" [label="Empty\\n[P,R]"];
    "Dispenser.Insufficient" [label="Insufficient\\n[P]"];
    "Dispenser.Enabled" [label="Enabled\\n[P]"];
  }
  "VendingMachine.SingleCoin" -> "Dispenser.Empty" [label="setCredit"];
  "VendingMachine.MultipleCoins" -> "Dispenser.Empty" [label="setCredit"];
  "Dispenser.Empty" -> "VendingMachine.Dispensing" [label="nok"];
  "Dispenser.Insufficient" -> "VendingMachine.Dispensing" [label="nok"];
  "Dispenser.Enabled" -> "VendingMachine.Dispensing" [label="ok"];
}
"""


def _pair(a_text, b_text):
    return ChartSet((parse_statechart(a_text), parse_statechart(b_text)))


def test_cross_services_fixture_map(fixture_charts):
    cross = cross_services(fixture_charts)
    assert set(cross) == {"setCredit", "dispense", "nok", "ok"}
    assert cross["setCredit"].emitters == ((VM, "SingleCoin"), (VM, "MultipleCoins"))
    assert cross["setCredit"].acceptors == ((DISP, "Empty"),)
    assert cross["dispense"].emitters == ((VM, "ReadyToDispense"),)
    assert cross["dispense"].acceptors == (
        (DISP, "Empty"),
        (DISP, "Insufficient"),
        (DISP, "Enabled"),
    )
    assert cross["nok"].emitters == ((DISP, "Empty"), (DISP, "Insufficient"))
    assert cross["nok"].acceptors == ((VM, "Dispensing"),)
    assert cross["ok"].emitters == ((DISP, "Enabled"),)
    assert cross["ok"].acceptors == ((VM, "Dispensing"),)


def test_cross_services_single_chart_empty(vending_chart):
    assert cross_services(ChartSet((vending_chart,))) == {}


def test_cross_services_disjoint_charts_empty():
    charts = _pair(
        "component A\nstate X\ninitial X\ntransition X -> X on go\nend\n",
        "component B\nstate Y\ninitial Y\ntransition Y -> Y on run\nend\n",
    )
    assert cross_services(charts) == {}


def test_find_switching_states_fixture(fixture_charts):
    assert find_switching_states(fixture_charts) == {(VM, "ReadyToDispense")}


def test_find_switching_states_none_without_automatics():
    charts = _pair(
        "component A\nstate X\ninitial X\ntransition X -> X on go do ping\nend\n",
        "component B\nstate Y\ninitial Y\ntransition Y -> Y on ping do pong\nend\n",
    )
    assert find_switching_states(charts) == frozenset()


def test_mixed_outgoing_state_is_not_switching():
    charts = _pair(
        "component A\nstate X\nstate Y\ninitial X\n"
        "transition X -> Y do ping\n"
        "transition X -> X on keep\n"
        "end\n",
        "component B\nstate Z\ninitial Z\ntransition Z -> Z on ping\nend\n",
    )
    assert find_switching_states(charts) == frozenset()


def test_classify_states_fixture(fixture_charts):
    classification = classify_states(fixture_charts)
    assert classification == {
        (VM, "NoCoins"): {Kind.INTERMEDIATE},
        (VM, "SingleCoin"): {Kind.PROVIDED},
        (VM, "MultipleCoins"): {Kind.PROVIDED},
        (VM, "ReadyToDispense"): {Kind.REMOVED},
        (VM, "Dispensing"): {Kind.REQUIRED},
        (DISP, "Empty"): {Kind.PROVIDED, Kind.REQUIRED},
        (DISP, "Insufficient"): {Kind.PROVIDED},
        (DISP, "Enabled"): {Kind.PROVIDED},
    }


def test_classify_disjoint_charts_all_intermediate():
    charts = _pair(
        "component A\nstate X\ninitial X\ntransition X -> X on go\nend\n",
        "component B\nstate Y\ninitial Y\ntransition Y -> Y on run\nend\n",
    )
    assert set(classify_states(charts).values()) == {frozenset({Kind.INTERMEDIATE})}


def test_format_kinds():
    assert format_kinds(frozenset({Kind.PROVIDED})) == "P"
    assert format_kinds(frozenset({Kind.REQUIRED, Kind.PROVIDED})) == "P,R"
    assert format_kinds(frozenset({Kind.INTERMEDIATE})) == "G"
    assert format_kinds(frozenset({Kind.REMOVED})) == "Removed"


def test_build_cig_fixture_golden(fixture_charts):
    cig = build_cig(fixture_charts)
    assert cig.components == (VM, DISP)
    assert cig.removed == ((VM, "ReadyToDispense"),)
    assert [(n.component, n.state, format_kinds(n.kinds)) for n in cig.nodes] == [
        (VM, "NoCoins", "G"),
        (VM, "SingleCoin", "P"),
        (VM, "MultipleCoins", "P"),
        (VM, "Dispensing", "R"),
        (DISP, "Empty", "P,R"),
        (DISP, "Insufficient", "P"),
        (DISP, "Enabled", "P"),
    ]
    assert [(e.source, e.target, str(e.service)) for e in cig.edges] == [
        ((VM, "SingleCoin"), (DISP, "Empty"), "setCredit"),
        ((VM, "MultipleCoins"), (DISP, "Empty"), "setCredit"),
        ((DISP, "Empty"), (VM, "Dispensing"), "nok"),
        ((DISP, "Insufficient"), (VM, "Dispensing"), "nok"),
        ((DISP, "Enabled"), (VM, "Dispensing"), "ok"),
    ]


def test_build_cig_minimal_interaction():
    charts = _pair(
        "component A\nstate W\nstate X\ninitial W\n"
        "transition W -> X on go\n"
        "transition X -> W on fire do alarm\n"
        "end\n",
        "component B\nstate Y\nstate Z\ninitial Y\ntransition Y -> Z on alarm\nend\n",
    )
    cig = build_cig(charts)
    assert [(e.source, e.target, str(e.service)) for e in cig.edges] == [
        (("A", "X"), ("B", "Y"), "alarm")
    ]


def test_build_cig_rejects_disjoint_charts():
    charts = _pair(
        "component A\nstate X\ninitial X\ntransition X -> X on go\nend\n",
        "component B\nstate Y\ninitial Y\ntransition Y -> Y on run\nend\n",
    )
    with pytest.raises(NoInteraction, match="share no services"):
        build_cig(charts)


def test_build_cig_rejects_interaction_lost_to_removal():
    # the only emitter is a switching state, so nothing is left afterwards
    charts = _pair(
        "component A\nstate X\nstate Y\ninitial X\ntransition X -> Y do ping\nend\n",
        "component B\nstate P\nstate Q\ninitial P\ntransition P -> Q on ping\nend\n",
    )
    with pytest.raises(NoInteraction, match="switching-state removal"):
        build_cig(charts)


def test_analysis_rejects_a_chart_on_both_sides_of_a_service():
    a = "component A\nstate X\ninitial X\ntransition X -> X on go do ping\nend\n"
    b = "component B\nstate Y\ninitial Y\ntransition Y -> Y on ping do ping\nend\n"
    c = "component C\nstate Z\ninitial Z\ntransition Z -> Z on pong do pong\nend\n"
    with pytest.raises(DisjointnessViolation, match="'B' both accepts and emits: ping") as expected:
        extract_interfaces(parse_statechart(b))
    analyses = (cross_services, find_switching_states, classify_states, build_cig)
    for analysis in analyses:
        with pytest.raises(DisjointnessViolation) as raised:
            analysis(_pair(a, b))
        assert str(raised.value) == str(expected.value)
    for analysis in analyses:  # two bad charts: the first in chart order is named
        with pytest.raises(DisjointnessViolation, match="'C'"):
            analysis(ChartSet(tuple(parse_statechart(t) for t in (a, c, b))))
    # a bad set that shares no services is malformed before it is inert
    with pytest.raises(DisjointnessViolation, match="'C'"):
        build_cig(_pair(c, "component D\nstate W\ninitial W\ntransition W -> W on go\nend\n"))
    with pytest.raises(ValueError, match="two statecharts"):
        build_cig(ChartSet((parse_statechart(b),)))


def test_build_cig_requires_two_charts(vending_chart):
    with pytest.raises(ValueError):
        build_cig(ChartSet((vending_chart,)))


def test_cig_to_dot_golden(fixture_charts):
    assert cig_to_dot(build_cig(fixture_charts)) == GOLDEN_DOT


def test_cig_outputs_deterministic(fixture_charts):
    once = build_cig(fixture_charts)
    again = build_cig(fixture_charts)
    assert cig_to_dot(once) == cig_to_dot(again)
    assert cig_to_json(once) == cig_to_json(again)


def test_cig_json_round_trip(fixture_charts):
    cig = build_cig(fixture_charts)
    text = cig_to_json(cig)
    assert text.endswith("\n")
    back = cig_from_json(text)
    assert back == cig
    assert back.node(DISP, "Empty").kinds == {Kind.PROVIDED, Kind.REQUIRED}
    for ref in cig.removed:
        with pytest.raises(KeyError):
            back.node(*ref)


def test_cig_json_schema_errors():
    with pytest.raises(SchemaError):
        cig_from_json("[]")
    with pytest.raises(SchemaError):
        cig_from_json('{"components": [], "removed": [], "nodes": []}')
    with pytest.raises(SchemaError):
        cig_from_json(
            '{"components": ["A"], "removed": [], '
            '"nodes": [{"component": "A", "state": "X", "kinds": ["Q"]}], "edges": []}'
        )
    x, y = {"component": "A", "state": "X"}, {"component": "A", "state": "Y"}
    provided, required = {**x, "kinds": ["P"]}, {**y, "kinds": ["R"]}
    for removed, nodes, edges, message in [
        ([], [{**x, "kinds": ["G", "P"]}], [], "an intermediate state carries no other kind"),
        ([], [provided, required], [{"from": x, "to": y, "service": "s"}], r"edge within one component: \('A', 'X'\) -> "),
        ([x], [provided], [], r"removed state \('A', 'X'\) still appears as a node$"),
    ]:
        document = {"components": ["A"], "removed": removed, "nodes": nodes, "edges": edges}
        with pytest.raises(SchemaError, match=f"^invalid CIG document: {message}"):
            cig_from_json(json.dumps(document))


def test_a_node_is_never_removed_and_an_intermediate_node_has_no_other_kind():
    with pytest.raises(ValueError, match="^removed states may not appear as graph nodes$"):
        CigNode("A", "X", {Kind.REMOVED})
    with pytest.raises(ValueError, match="^an intermediate state carries no other kind$"):
        CigNode("A", "X", {Kind.INTERMEDIATE, Kind.PROVIDED})


def test_random_pairs_respect_graph_laws():
    rng = random.Random(97)
    built = 0
    for _ in range(120):
        alpha, beta = random_interacting_pair(rng)
        charts = ChartSet((alpha, beta))
        try:
            cig = build_cig(charts)
        except NoInteraction:
            continue
        built += 1
        by_ref = {(n.component, n.state): n for n in cig.nodes}
        removed = set(cig.removed)
        chart_of = {c.component_name: c for c in charts}
        for node in cig.nodes:
            assert (node.component, node.state) not in removed
        for edge in cig.edges:
            assert edge.source[0] != edge.target[0]
            assert Kind.PROVIDED in by_ref[edge.source].kinds
            assert Kind.REQUIRED in by_ref[edge.target].kinds
            src_chart = chart_of[edge.source[0]]
            dst_chart = chart_of[edge.target[0]]
            assert any(
                a.action == edge.service
                for t in src_chart.outgoing(edge.source[1])
                for a in t.actions
            )
            assert any(
                t.event == edge.service for t in dst_chart.outgoing(edge.target[1])
            )
    assert built >= 30  # the generator must actually exercise the builder


def test_analysis_matches_three_pass_oracle():
    rng = random.Random(2024)
    built = removals = violations = 0
    for i in range(600):
        count = 2 + i % 3
        charts = ChartSet(
            tuple(random_interacting_pair(rng)) if count == 2 and i % 2 else tuple(random_chart_set(rng, count))
        )
        try:
            for chart in charts:
                extract_interfaces(chart)
        except DisjointnessViolation as exc:
            violations += 1
            for analysis in (cross_services, find_switching_states, classify_states, build_cig):
                with pytest.raises(DisjointnessViolation) as raised:
                    analysis(charts)
                assert str(raised.value) == str(exc)
            continue
        shared, removed, kinds, edges = oracle_classify(charts)
        classification = classify_states(charts)
        assert {ref: {k.value for k in ks} for ref, ks in classification.items()} == kinds
        assert list(classification) == list(kinds)  # chart then state order
        assert find_switching_states(charts) == removed
        try:
            cig = build_cig(charts)
        except NoInteraction as exc:
            assert not edges
            assert ("share no services" in str(exc)) == (not shared)
            continue
        built += 1
        removals += bool(removed)
        assert [n.ref for n in cig.nodes] == [ref for ref in kinds if ref not in removed]
        assert all({k.value for k in n.kinds} == kinds[n.ref] for n in cig.nodes)
        assert list(cig.removed) == [ref for ref in kinds if ref in removed]
        assert {(e.source, e.target, str(e.service)) for e in cig.edges} == edges
        # the --report table read from the graph equals one read from the classification
        table = cli._classification_table(charts, cig).splitlines()
        assert [tuple(line.split()) for line in table[1:]] == [
            (*ref, format_kinds(ks)) for ref, ks in classification.items()
        ]
    assert built >= 300 and removals >= 50  # the sets must reach removal and edges
    assert violations  # and some must fail the disjointness check


def test_cig_rejects_duplicate_edge(fixture_charts):
    data = json.loads(cig_to_json(build_cig(fixture_charts)))
    data["edges"].append(data["edges"][0])
    with pytest.raises(SchemaError, match="duplicate edge"):
        cig_from_json(json.dumps(data))


def test_cig_rejects_a_component_listed_twice(fixture_charts):
    data = json.loads(cig_to_json(build_cig(fixture_charts)))
    data["components"].append(DISP)
    with pytest.raises(SchemaError, match="^invalid CIG document: duplicate component 'Dispenser'$"):
        cig_from_json(json.dumps(data))


def test_edge_refs_have_exactly_two_items():
    edge = CigEdge(source=[VM, "SingleCoin"], target=[DISP, "Empty"], service="setCredit")
    assert edge.source == (VM, "SingleCoin") and type(edge.source) is tuple
    for ref in ((VM, "SingleCoin", "junk"), (VM,)):
        with pytest.raises(TypeError, match="an edge's source must be a"):
            CigEdge(source=ref, target=(DISP, "Empty"), service="setCredit")
        with pytest.raises(TypeError, match="an edge's target must be a"):
            CigEdge(source=(DISP, "Empty"), target=ref, service="setCredit")


def test_cig_components_and_removed_refs_must_be_identifiers(fixture_charts):
    cig = build_cig(fixture_charts)
    with pytest.raises(InvalidIdentifier, match="invalid component name: 5"):
        Cig(components=(*cig.components, 5), removed=cig.removed, nodes=cig.nodes, edges=cig.edges)
    with pytest.raises(InvalidIdentifier, match="invalid state name: None"):
        Cig(components=cig.components, removed=((VM, None),), nodes=cig.nodes, edges=cig.edges)
    data = json.loads(cig_to_json(cig))
    data["removed"] = [{"component": 5, "state": None}]
    with pytest.raises(SchemaError, match="invalid CIG document: invalid component name: 5"):
        cig_from_json(json.dumps(data))
