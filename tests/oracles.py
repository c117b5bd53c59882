"""Reference implementations and random generators used by the tests.

Everything here is written directly against the definitions, separately from
the package code, so the two can check each other. The composition oracle
works on plain sets; the replay walker explores every nondeterministic
execution of a statechart instead of trusting the generator's path choice;
the reference parser walks each line character by character; the reference
library reader validates and builds every raw step anew.
"""

import heapq
import json
import random
import re

from cigkit import (
    ActionEmission,
    DuplicateComponent,
    DuplicateState,
    MissingInitial,
    Origin,
    ParseError,
    SchemaError,
    Statechart,
    TestCase,
    TestLibrary,
    TestStep,
    Transition,
    UnknownState,
    UnreachableProvider,
)


def oracle_compose(p1, r1, p2, r2):
    """Plain-set evaluation of the interface formulas.

    Returns (provided, required, satisfied) or None when nothing is satisfied.
    """
    p1, r1, p2, r2 = set(p1), set(r1), set(p2), set(r2)
    satisfied = (p1 & r2) | (p2 & r1)
    if not satisfied:
        return None
    return (p1 | p2) - satisfied, (r1 | r2) - satisfied, satisfied


def all_interfaces(universe):
    """Every (provided, required) split of the universe: each service is
    provided, required, or unused."""
    out = [(frozenset(), frozenset())]
    for service in universe:
        nxt = []
        for p, r in out:
            nxt.append((p, r))
            nxt.append((p | {service}, r))
            nxt.append((p, r | {service}))
        out = nxt
    return out


def random_interface(rng, universe, max_side=6):
    names = list(universe)
    rng.shuffle(names)
    p_size = rng.randint(0, min(max_side, len(names)))
    r_size = rng.randint(0, min(max_side, len(names) - p_size))
    return frozenset(names[:p_size]), frozenset(names[p_size : p_size + r_size])


_GUARDS = (None, "x>0", "credit < price", "n != 0", "a#b", " padded ")
_PARAM_SETS = ((), ("1",), ("2..max",), ("1", "x_y"), ("0", "1", "2..max"))


def random_chart(rng, name, events, actions, max_states=6, max_transitions=10):
    """A random valid statechart. ``events`` and ``actions`` must be disjoint
    name pools so the chart keeps its provided and required sides apart."""
    states = [f"S{i}" for i in range(rng.randint(1, max_states))]
    transitions = []
    for _ in range(rng.randint(0, max_transitions)):
        event = rng.choice([None] + list(events)) if events else None
        emitted = tuple(
            ActionEmission(action=a, params=rng.choice(_PARAM_SETS))
            for a in rng.sample(list(actions), rng.randint(0, min(2, len(actions))))
        )
        if event is None and not emitted:
            continue  # a bare automatic self-loop adds nothing worth testing
        transitions.append(
            Transition(
                source=rng.choice(states),
                target=rng.choice(states),
                event=event,
                guard=rng.choice(_GUARDS),
                actions=emitted,
            )
        )
    return Statechart(
        component_name=name,
        states=tuple(states),
        initial=rng.choice(states),
        transitions=tuple(transitions),
    )


def random_interacting_pair(rng):
    """Two charts wired so that services can flow both ways: whatever Alpha
    emits Beta may accept and vice versa, plus some environment-only events."""
    alpha_emits = [f"a{i}" for i in range(3)]
    beta_emits = [f"b{i}" for i in range(3)]
    env = [f"e{i}" for i in range(3)]
    alpha = random_chart(rng, "Alpha", events=beta_emits + env, actions=alpha_emits)
    beta = random_chart(rng, "Beta", events=alpha_emits + env, actions=beta_emits)
    return alpha, beta


def replay_witness(chart, steps, provided_state, service):
    """Does some execution of ``chart`` realize the steps?

    The walker consumes the step events in order, may take automatic
    transitions between events, and accepts a run only if each step's
    expected state (when it names this chart) is where the machine rests when
    the next event arrives, the last event fires from ``provided_state``, and
    that firing emits ``service``.
    """
    events = [step.event for step in steps]
    expects = [step.expected_state for step in steps]
    last = len(events) - 1

    def go(state, idx, auto_seen):
        if idx > last:
            return True
        for t in chart.transitions:
            if t.source != state:
                continue
            if t.event is None:
                if t.target not in auto_seen and go(t.target, idx, auto_seen | {t.target}):
                    return True
            elif str(t.event) == str(events[idx]):
                if idx > 0:
                    exp = expects[idx - 1]
                    if (
                        exp is not None
                        and exp[0] == chart.component_name
                        and exp[1] != state
                    ):
                        continue
                if idx == last:
                    if state != provided_state:
                        continue
                    if not any(str(a.action) == str(service) for a in t.actions):
                        continue
                if go(t.target, idx + 1, {t.target}):
                    return True
        return False

    return go(chart.initial, 0, {chart.initial})


def oracle_event_path(chart, goal):
    """The per-goal path search generated cases are set up with.

    Returns the cheapest transition sequence from the initial state to
    ``goal``: cost is the number of triggered transitions, automatic ones are
    free, and ties break on the event-name sequence, then on transition
    declaration order. Candidates are explored cheapest first over every
    transition of the chart, and the search stops as soon as ``goal`` comes
    out of the queue. Raises UnreachableProvider when it never does.
    """
    queue = [(0, (), (), chart.initial)]
    done = set()
    while queue:
        cost, names, taken, state = heapq.heappop(queue)
        if state in done:
            continue
        done.add(state)
        if state == goal:
            return tuple(chart.transitions[i] for i in taken)
        for i, t in enumerate(chart.transitions):
            if t.source != state or t.target in done:
                continue
            if t.event is None:
                heapq.heappush(queue, (cost, names, taken + (i,), t.target))
            else:
                heapq.heappush(queue, (cost + 1, names + (str(t.event),), taken + (i,), t.target))
    raise UnreachableProvider(f"no event path reaches state {goal!r}")


def oracle_classify(charts):
    """The state classification as three passes over every transition.

    Pass one finds the cross services: names some state emits and some state
    of another component accepts. Pass two finds the switching states: every
    outgoing transition is automatic and emits a cross service. Pass three
    finds the cross services again with those states left out. Returns
    ``(shared, removed, kinds, edges)``: whether pass one found any service,
    the removed states, each state's kind codes ('P', 'R', 'G' or 'Removed')
    and the (source, target, service) edges after removal.
    """

    def cross(excluded):
        emit, accept = {}, {}
        for chart in charts:
            for t in chart.transitions:
                ref = (chart.component_name, t.source)
                if ref in excluded:
                    continue
                for a in t.actions:
                    emit.setdefault(str(a.action), set()).add(ref)
                if t.event is not None:
                    accept.setdefault(str(t.event), set()).add(ref)
        out = {}
        for service in set(emit) & set(accept):
            emitters = {e for e in emit[service] if any(a[0] != e[0] for a in accept[service])}
            acceptors = {a for a in accept[service] if any(e[0] != a[0] for e in emit[service])}
            if emitters and acceptors:
                out[service] = (emitters, acceptors)
        return out

    before = cross(set())
    removed = set()
    for chart in charts:
        for state in chart.states:
            outgoing = [t for t in chart.transitions if t.source == state]
            if outgoing and all(
                t.event is None and any(str(a.action) in before for a in t.actions) for t in outgoing
            ):
                removed.add((chart.component_name, state))
    after = cross(removed)
    provided = {e for emitters, _ in after.values() for e in emitters}
    required = {a for _, acceptors in after.values() for a in acceptors}
    kinds = {}
    for chart in charts:
        for state in chart.states:
            ref = (chart.component_name, state)
            if ref in removed:
                kinds[ref] = {"Removed"}
            else:
                codes = {"P"} if ref in provided else set()
                codes |= {"R"} if ref in required else set()
                kinds[ref] = codes or {"G"}
    edges = {
        (e, a, service)
        for service, (emitters, acceptors) in after.items()
        for e in emitters
        for a in acceptors
        if e[0] != a[0]
    }
    return bool(before), removed, kinds, edges


def random_chart_set(rng, count):
    """``count`` random charts where each may accept what the others emit,
    plus environment events; now and then a chart also accepts one of its own
    actions, which makes it fail the disjointness check."""
    names = [f"C{i}" for i in range(count)]
    emits = {name: [f"{name.lower()}_s{j}" for j in range(3)] for name in names}
    charts = []
    for name in names:
        events = [s for other in names if other != name for s in emits[other]] + ["env0", "env1"]
        if rng.random() < 0.05:
            events.append(emits[name][0])
        charts.append(random_chart(rng, name, events, emits[name], max_states=8, max_transitions=14))
    return charts


def random_library(rng, prefix, universe, max_cases=8):
    """Raw case dicts for a random authored library (unique prefixed ids)."""
    cases = []
    for i in range(rng.randint(0, max_cases)):
        services = rng.sample(list(universe), rng.randint(0, min(3, len(universe))))
        cases.append(
            TestCase(
                id=f"{prefix}_{i}",
                owner="Owner",
                services=frozenset(services),
                steps=(TestStep(event="poke"),),
                origin=Origin.LIBRARY,
            )
        )
    return cases


def _oracle_step_dict(step):
    data = {"event": str(step.event)}
    if step.expected_state is not None:
        data["expected_state"] = {
            "component": step.expected_state[0],
            "state": step.expected_state[1],
        }
    data["expected_actions"] = [str(a) for a in step.expected_actions]
    return data


def _oracle_library_dict(library):
    return {
        "cases": [
            {
                "id": case.id,
                "owner": case.owner,
                "origin": case.origin.value,
                "services": sorted(str(s) for s in case.services),
                "steps": [_oracle_step_dict(s) for s in case.steps],
            }
            for case in library.cases
        ]
    }


def oracle_library_json(library):
    """A test library as a dict tree written by ``json.dumps(indent=2)``."""
    return json.dumps(_oracle_library_dict(library), indent=2) + "\n"


def oracle_composed_json(result):
    """A composed library result written the same way, each part in full."""
    parts = {
        key: _oracle_library_dict(getattr(result, key))
        for key in ("retained", "removed", "generated", "final")
    }
    return json.dumps(parts, indent=2) + "\n"


def _oracle_step_from_dict(data):
    if not isinstance(data, dict) or "event" not in data:
        raise SchemaError("test step must be an object with an 'event'")
    expected_state = None
    if "expected_state" in data:
        ref = data["expected_state"]
        if not isinstance(ref, dict) or not {"component", "state"} <= ref.keys():
            raise SchemaError("'expected_state' must have 'component' and 'state'")
        expected_state = (ref["component"], ref["state"])
    actions = data.get("expected_actions", [])
    if not isinstance(actions, list):
        raise SchemaError("'expected_actions' must be an array")
    try:
        return TestStep(
            event=data["event"],
            expected_state=expected_state,
            expected_actions=tuple(actions),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid test step: {exc}") from None


def _oracle_case_from_dict(data):
    if not isinstance(data, dict):
        raise SchemaError("test case must be a JSON object")
    for key in ("id", "owner", "services", "steps"):
        if key not in data:
            raise SchemaError(f"test case is missing key {key!r}")
    origin_code = data.get("origin", Origin.LIBRARY.value)
    try:
        origin = Origin(origin_code)
    except ValueError:
        raise SchemaError(f"unknown origin {origin_code!r}") from None
    if not isinstance(data["services"], list) or not isinstance(data["steps"], list):
        raise SchemaError("test case 'services' and 'steps' must be arrays")
    try:
        return TestCase(
            id=data["id"],
            owner=data["owner"],
            services=dict.fromkeys(data["services"]),  # checked in document order
            steps=tuple(_oracle_step_from_dict(s) for s in data["steps"]),
            origin=origin,
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid test case: {exc}") from None


def oracle_library_from_json(text):
    """The library reader without a step memo: each raw step is checked and
    built on its own, so equal steps are equal but separate objects."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "cases" not in data:
        raise SchemaError("test library must be an object with a 'cases' array")
    if not isinstance(data["cases"], list):
        raise SchemaError("'cases' must be an array")
    return TestLibrary(tuple(_oracle_case_from_dict(c) for c in data["cases"]))


def _oracle_ref_dict(ref):
    return {"component": ref[0], "state": ref[1]}


def oracle_cig_json(cig):
    """A CIG as a dict tree written by ``json.dumps(indent=2)``; node kinds in
    P, R, G order."""
    document = {
        "components": list(cig.components),
        "removed": [_oracle_ref_dict(ref) for ref in cig.removed],
        "nodes": [
            {
                "component": node.component,
                "state": node.state,
                "kinds": [code for code in ("P", "R", "G") if code in {k.value for k in node.kinds}],
            }
            for node in cig.nodes
        ],
        "edges": [
            {
                "from": _oracle_ref_dict(edge.source),
                "to": _oracle_ref_dict(edge.target),
                "service": str(edge.service),
            }
            for edge in cig.edges
        ],
    }
    return json.dumps(document, indent=2) + "\n"


def _oracle_component_dict(component):
    data = {
        "name": component.name,
        "provided": sorted(str(s) for s in component.provided),
        "required": sorted(str(s) for s in component.required),
    }
    if component.internal_map:
        data["internal_map"] = {str(k): str(v) for k, v in component.internal_map}
    return data


def oracle_component_json(component):
    """A component written the same way; ``internal_map`` only when nonempty."""
    return json.dumps(_oracle_component_dict(component), indent=2) + "\n"


def oracle_composition_json(result):
    """A composition result written the same way, its last step on top."""
    document = {
        "left": result.steps[-1].left,
        "right": result.steps[-1].right,
        "satisfied": sorted(str(s) for s in result.steps[-1].satisfied),
        "composed": _oracle_component_dict(result.composed),
        "steps": [
            {"left": step.left, "right": step.right, "satisfied": sorted(str(s) for s in step.satisfied)}
            for step in result.steps
        ],
    }
    return json.dumps(document, indent=2) + "\n"


# The statechart parser as a cursor walking characters: the reference the
# compiled-pattern parser in cigkit.statechart is checked against. It keeps
# its own identifier and parameter-token rules.
_ORACLE_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_ORACLE_PARAM_FORBIDDEN = set(",()[]#") | set(" \t\r\n\f\v")


def _oracle_param_token(token):
    if not token or any(ch in _ORACLE_PARAM_FORBIDDEN for ch in token):
        raise ValueError(f"invalid parameter token: {token!r}")
    return token


def _oracle_strip_comment(line: str) -> str:
    # '#' starts a comment except inside guard brackets
    depth = 0
    for i, ch in enumerate(line):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth = max(0, depth - 1)
        elif ch == "#" and depth == 0:
            return line[:i]
    return line


class _OracleScanner:
    """Cursor over one declaration line, reporting 1-based columns."""

    def __init__(self, line: str, lineno: int):
        self.line = line
        self.lineno = lineno
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.line) and self.line[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self._skip_ws()
        return self.pos >= len(self.line)

    def take_word(self, what: str) -> tuple[str, int]:
        self._skip_ws()
        start = self.pos
        while (
            self.pos < len(self.line)
            and not self.line[self.pos].isspace()
            and self.line[self.pos] not in "(["
        ):
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", self.lineno, start + 1)
        return self.line[start : self.pos], start + 1

    def take_identifier(self, what: str) -> str:
        word, column = self.take_word(what)
        if not _ORACLE_IDENTIFIER.match(word):
            raise ParseError(f"invalid {what}: {word!r}", self.lineno, column)
        return word

    def expect(self, literal: str):
        word, column = self.take_word(f"'{literal}'")
        if word != literal:
            raise ParseError(f"expected {literal!r}, found {word!r}", self.lineno, column)

    def take_guard_text(self) -> str:
        self._skip_ws()
        column = self.pos + 1
        if self.pos >= len(self.line) or self.line[self.pos] != "[":
            raise ParseError("expected '[' after 'guard'", self.lineno, column)
        end = self.line.find("]", self.pos + 1)
        if end < 0:
            raise ParseError("unterminated guard, missing ']'", self.lineno, column)
        text = self.line[self.pos + 1 : end]
        if "[" in text:
            raise ParseError("guard text may not contain '['", self.lineno, column)
        self.pos = end + 1
        return text

    def take_action(self) -> ActionEmission:
        name = self.take_identifier("action name")
        params: tuple[str, ...] = ()
        if self.pos < len(self.line) and self.line[self.pos] == "(":
            column = self.pos + 1
            end = self.line.find(")", self.pos + 1)
            if end < 0:
                raise ParseError("unterminated parameter list, missing ')'", self.lineno, column)
            inner = self.line[self.pos + 1 : end]
            self.pos = end + 1
            if inner.strip():
                tokens = []
                for raw in inner.split(","):
                    token = raw.strip()
                    try:
                        tokens.append(_oracle_param_token(token))
                    except ValueError:
                        raise ParseError(f"invalid parameter token {token!r}", self.lineno, column) from None
                params = tuple(tokens)
        return ActionEmission(action=name, params=params)

    def finish(self):
        if not self.at_end():
            raise ParseError("unexpected trailing text", self.lineno, self.pos + 1)


def _oracle_transition_clauses(sc: _OracleScanner):
    source = sc.take_identifier("source state")
    source_col = sc.pos - len(source) + 1
    sc.expect("->")
    target = sc.take_identifier("target state")
    target_col = sc.pos - len(target) + 1
    event = None
    guard = None
    actions: list[ActionEmission] = []
    stage = 0  # 0: nothing yet, 1: after 'on', 2: after 'guard', 3: in 'do' list
    while not sc.at_end():
        word, column = sc.take_word("'on', 'guard' or 'do'")
        if word == "on":
            if stage >= 1:
                raise ParseError("'on' must appear once, before 'guard' and 'do'", sc.lineno, column)
            event = sc.take_identifier("event name")
            stage = 1
        elif word == "guard":
            if stage >= 2:
                raise ParseError("'guard' must appear once, before any 'do'", sc.lineno, column)
            guard = sc.take_guard_text()
            stage = 2
        elif word == "do":
            actions.append(sc.take_action())
            stage = 3
        else:
            raise ParseError(f"expected 'on', 'guard' or 'do', found {word!r}", sc.lineno, column)
    t = Transition(source=source, target=target, event=event, guard=guard, actions=tuple(actions))
    return t, source_col, target_col


def oracle_parse_statechart(text):
    """Parse one statechart document, validating structure as it goes.

    Raises ParseError on malformed lines, DuplicateComponent on a second
    header, DuplicateState, MissingInitial, and UnknownState when the initial
    state or a transition endpoint was never declared, all with the offending
    line number.
    """
    component_name: str | None = None
    states: list[str] = []
    state_set: set[str] = set()
    initial: str | None = None
    initial_line = 0
    transitions: list[tuple[Transition, int, int, int]] = []
    ended = False
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        content = _oracle_strip_comment(raw)
        if not content.strip():
            continue
        sc = _OracleScanner(content, lineno)
        keyword, column = sc.take_word("a declaration")
        if ended:
            raise ParseError("content after 'end'", lineno, column)
        if keyword == "component":
            name = sc.take_identifier("component name")
            if component_name is not None:
                raise DuplicateComponent(
                    f"second 'component' header (already named {component_name!r})", lineno, column
                )
            component_name = name
        elif component_name is None:
            raise ParseError("expected 'component' header first", lineno, column)
        elif keyword == "state":
            name = sc.take_identifier("state name")
            if name in state_set:
                raise DuplicateState(f"duplicate state {name!r}", lineno, column)
            states.append(name)
            state_set.add(name)
        elif keyword == "initial":
            if initial is not None:
                raise ParseError("duplicate 'initial' declaration", lineno, column)
            initial = sc.take_identifier("initial state name")
            initial_line = lineno
        elif keyword == "transition":
            t, source_col, target_col = _oracle_transition_clauses(sc)
            transitions.append((t, lineno, source_col, target_col))
        elif keyword == "end":
            ended = True
        else:
            raise ParseError(f"unknown declaration {keyword!r}", lineno, column)
        sc.finish()
    if component_name is None:
        raise ParseError("missing 'component' header", len(lines) or 1)
    if initial is None:
        raise MissingInitial(f"component {component_name!r} declares no initial state")
    if initial not in state_set:
        raise UnknownState(f"initial state {initial!r} is not declared", initial_line)
    for t, lineno, source_col, target_col in transitions:
        if t.source not in state_set:
            raise UnknownState(f"unknown state {t.source!r}", lineno, source_col)
        if t.target not in state_set:
            raise UnknownState(f"unknown state {t.target!r}", lineno, target_col)
    if not ended:
        raise ParseError("missing 'end'", len(lines) or 1)
    return Statechart(
        component_name=component_name,
        states=tuple(states),
        initial=initial,
        transitions=tuple(t for t, _, _, _ in transitions),
    )
