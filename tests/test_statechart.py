import random
import re
import sys

import pytest

from cigkit import (
    ActionEmission,
    ChartSet,
    DisjointnessViolation,
    DuplicateComponent,
    DuplicateState,
    MissingInitial,
    ParseError,
    Statechart,
    Transition,
    UnknownState,
    extract_interfaces,
    parse_statechart,
    serialize_statechart,
)
from cigkit.statechart import _LINE_BREAKS

_ALL_CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))


def test_parse_vending_fixture(vending_chart):
    assert vending_chart.component_name == "VendingMachine"
    assert vending_chart.states == (
        "NoCoins",
        "SingleCoin",
        "MultipleCoins",
        "ReadyToDispense",
        "Dispensing",
    )
    assert vending_chart.initial == "NoCoins"
    assert len(vending_chart.transitions) == 9
    auto = [t for t in vending_chart.transitions if t.event is None]
    assert [(t.source, t.target) for t in auto] == [("ReadyToDispense", "Dispensing")]
    assert auto[0].actions == (ActionEmission(action="dispense"),)
    vend_multi = vending_chart.transitions[5]
    assert vend_multi.source == "MultipleCoins"
    assert vend_multi.actions[0].params == ("2..max",)


def test_parse_dispenser_fixture(dispenser_chart):
    assert dispenser_chart.component_name == "Dispenser"
    assert dispenser_chart.states == ("Empty", "Insufficient", "Enabled")
    assert dispenser_chart.initial == "Empty"
    assert len(dispenser_chart.transitions) == 6
    assert dispenser_chart.transitions[1].guard == "credit<price"
    assert all(t.event is not None for t in dispenser_chart.transitions)


def test_parse_reports_line_and_column():
    text = "component A\nstate X\ninitial X\ntransition X -> X on 9bad\nend\n"
    with pytest.raises(ParseError) as err:
        parse_statechart(text)
    assert err.value.line == 4
    assert "9bad" in str(err.value)


def test_parse_requires_component_header_first():
    with pytest.raises(ParseError, match="component"):
        parse_statechart("state X\ncomponent A\ninitial X\nend\n")
    with pytest.raises(ParseError, match="^line 1: missing 'component' header$"):
        parse_statechart("")


def test_parse_rejects_duplicate_header():
    text = "component A\ncomponent B\nstate X\ninitial X\nend\n"
    with pytest.raises(DuplicateComponent):
        parse_statechart(text)


def test_parse_rejects_duplicate_state():
    text = "component A\nstate X\nstate X\ninitial X\nend\n"
    with pytest.raises(DuplicateState) as err:
        parse_statechart(text)
    assert err.value.line == 3


def test_parse_requires_initial():
    with pytest.raises(MissingInitial):
        parse_statechart("component A\nstate X\nend\n")


def test_parse_rejects_a_second_initial():
    with pytest.raises(ParseError, match="^line 4, column 1: duplicate 'initial' declaration$"):
        parse_statechart("component A\nstate X\ninitial X\ninitial X\nend\n")


def test_parse_rejects_undeclared_states():
    with pytest.raises(UnknownState):
        parse_statechart("component A\ninitial X\nend\n")
    with pytest.raises(UnknownState):
        parse_statechart("component A\ninitial X\n")  # wins over the missing 'end'
    text = "component A\nstate X\ninitial X\ntransition X -> Y on go\nend\n"
    with pytest.raises(UnknownState) as err:
        parse_statechart(text)
    assert err.value.line == 4


def test_parse_requires_end_and_rejects_trailing_content():
    with pytest.raises(ParseError, match="missing 'end'"):
        parse_statechart("component A\nstate X\ninitial X\n")
    with pytest.raises(ParseError, match="after 'end'"):
        parse_statechart("component A\nstate X\ninitial X\nend\nstate Y\n")


def test_parse_rejects_malformed_transitions():
    base = "component A\nstate X\ninitial X\n%s\nend\n"
    for line in (
        "transition X X on go",
        "transition X -> X go",
        "transition X -> X on",
        "transition X -> X guard credit>0",
        "transition X -> X guard [credit>0",
        "transition X -> X do f(1",
        "transition X -> X on a on b",
        "transition X -> X do f(1) on a",
        "transition X -> X guard [x] guard [y]",
    ):
        with pytest.raises(ParseError):
            parse_statechart(base % line)



def test_guard_text_containing_a_bracket_is_a_parse_error():
    text = "component A\nstate X\ninitial X\ntransition X -> X on go guard [a[b]\nend\n"
    with pytest.raises(ParseError) as err:
        parse_statechart(text)
    assert (err.value.line, err.value.column) == (4, 31)  # the guard's '['
    assert "may not contain '['" in str(err.value)

def test_comments_and_blank_lines_ignored():
    text = (
        "# header comment\n"
        "component A  # trailing\n"
        "\n"
        "state X\n"
        "initial X   # the only state\n"
        "transition X -> X on go guard [n#m>0] do f(1)  # guarded loop\n"
        "end\n"
    )
    chart = parse_statechart(text)
    t = chart.transitions[0]
    assert t.guard == "n#m>0"  # '#' inside brackets is not a comment
    assert t.actions == (ActionEmission(action="f", params=("1",)),)


def test_guard_and_params_round_trip_verbatim():
    text = (
        "component A\nstate X\nstate Y\ninitial X\n"
        "transition X -> Y on go guard [ credit >= price ] do pay(2..max,1)\n"
        "transition Y -> X do reset\n"
        "end\n"
    )
    chart = parse_statechart(text)
    assert chart.transitions[0].guard == " credit >= price "
    assert chart.transitions[0].actions[0].params == ("2..max", "1")
    assert chart.transitions[1].event is None
    assert serialize_statechart(chart) == text


def test_regex_whitespace_is_str_isspace():
    # the parser skips what re's \s matches; the format's whitespace is str.isspace
    assert re.findall(r"\s", _ALL_CODE_POINTS) == list(filter(str.isspace, _ALL_CODE_POINTS))


def test_line_breaks_are_what_splitlines_breaks_on():
    # code points ascend, so no "\r\n" pair occurs and each line ends in its break
    breaks = [line[-1] for line in _ALL_CODE_POINTS.splitlines(keepends=True)[:-1]]
    assert breaks == list(_LINE_BREAKS)


def test_api_built_charts_reject_what_the_text_cannot_carry():
    rng = random.Random(20101018)
    awkward = [c for c in map(chr, range(0x3001)) if c.isspace()] + list("[]()#,")
    outcomes = set()
    for _ in range(2000):
        text = rng.choice(("x>0", " padded ", "", "2..max", "1"))
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(awkward) + text[i:]
        guard, params = (text, ("1",)) if rng.random() < 0.5 else (None, (text, "2..max"))
        try:
            action = ActionEmission(action="ping", params=params)
            transition = Transition(source="X", target="Y", event="go", guard=guard, actions=(action,))
        except ValueError:
            outcomes.add("rejected")
            continue
        chart = Statechart(component_name="A", states=("X", "Y"), initial="X", transitions=(transition,))
        assert parse_statechart(serialize_statechart(chart)) == chart, repr(text)
        outcomes.add("round trip")
    assert outcomes == {"rejected", "round trip"}


def test_serialize_fixture_is_canonical(vending_chart):
    text = serialize_statechart(vending_chart)
    assert text.endswith("end\n")
    assert "transition ReadyToDispense -> Dispensing do dispense" in text
    assert "transition MultipleCoins -> ReadyToDispense on vend do setCredit(2..max)" in text
    assert parse_statechart(text) == vending_chart


def test_statechart_constructor_validates():
    with pytest.raises(UnknownState):
        Statechart(component_name="A", states=("X",), initial="Y")
    with pytest.raises(DuplicateState):
        Statechart(component_name="A", states=("X", "X"), initial="X")
    with pytest.raises(UnknownState):
        Statechart(
            component_name="A",
            states=("X",),
            initial="X",
            transitions=(Transition(source="X", target="Z"),),
        )


def test_outgoing_index_keeps_declaration_order_and_equality(vending_chart):
    text = serialize_statechart(vending_chart)
    fresh = parse_statechart(text)
    for state in vending_chart.states:
        pairs = vending_chart.outgoing_index[state]
        assert [t for _, t in pairs] == [t for t in vending_chart.transitions if t.source == state]
        assert all(vending_chart.transitions[i] is t for i, t in pairs)
        assert vending_chart.outgoing(state) == tuple(t for _, t in pairs)
    assert vending_chart.outgoing("Nowhere") == ()
    # every chart builds the index in its checks, and it is not a field: it
    # takes no part in equality, the hash or the repr
    assert vending_chart == fresh and hash(vending_chart) == hash(fresh)
    assert repr(vending_chart) == repr(fresh)


def test_chart_set_get(fixture_charts, dispenser_chart):
    assert fixture_charts.get("Dispenser") is dispenser_chart
    with pytest.raises(KeyError):
        fixture_charts.get("Nobody")


def test_chart_set_rejects_duplicate_components(vending_chart):
    with pytest.raises(DuplicateComponent):
        ChartSet((vending_chart, vending_chart))


def test_extract_interfaces_vending(vending_chart):
    c = extract_interfaces(vending_chart)
    assert c.name == "VendingMachine"
    assert c.provided == {"insert", "cancel", "vend", "nok", "ok"}
    assert c.required == {"setCredit", "dispense", "returnCoins"}


def test_extract_interfaces_dispenser(dispenser_chart):
    c = extract_interfaces(dispenser_chart)
    assert c.provided == {"setCredit", "dispense"}
    assert c.required == {"nok", "ok"}


def test_extract_interfaces_no_required():
    chart = parse_statechart("component A\nstate X\ninitial X\ntransition X -> X on go\nend\n")
    c = extract_interfaces(chart)
    assert c.provided == {"go"}
    assert c.required == set()


def test_extract_interfaces_rejects_trigger_action_overlap():
    text = (
        "component A\nstate X\nstate Y\ninitial X\n"
        "transition X -> Y on ping\n"
        "transition Y -> X on pong do ping\n"
        "end\n"
    )
    with pytest.raises(DisjointnessViolation, match="ping"):
        extract_interfaces(parse_statechart(text))


def test_extract_interfaces_order_independent(vending_chart):
    reordered = Statechart(
        component_name=vending_chart.component_name,
        states=vending_chart.states,
        initial=vending_chart.initial,
        transitions=tuple(reversed(vending_chart.transitions)),
    )
    a = extract_interfaces(vending_chart)
    b = extract_interfaces(reordered)
    assert a.provided == b.provided
    assert a.required == b.required
