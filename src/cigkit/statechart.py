"""Statechart model, its textual format, and interface extraction.

Machines are flat: named states, one initial state, and transitions carrying
an optional trigger event, an optional opaque guard, and a list of emitted
actions. The event names a machine accepts form its provided interface; the
action names it emits form its required interface.

Text format, one declaration per line, with lines split as ``str.splitlines``
splits them. Blank lines are ignored and ``#`` outside guard brackets starts a
comment. Whitespace is Unicode whitespace, and a word ends at whitespace, ``(``
or ``[``:

    component Vending
    state Idle
    state Busy
    initial Idle
    transition Idle -> Busy on start guard [credit>0] do ping(1,2) do pong
    transition Busy -> Idle do reset
    end

A guard is ``[`` up to the first ``]``. A parameter list is ``(`` up to the
first ``)`` and follows its action name with no space between; its tokens are
comma-separated, with no ASCII whitespace and none of ``,()[]#``. A transition
without an ``on`` clause is automatic: it is taken spontaneously on entering
its source state. Guards and action parameters are opaque text; they
round-trip through the serializer but are never interpreted. The parameter
token ``2..max`` style denotes a value range and is kept verbatim.
"""

from __future__ import annotations

import re
from functools import cached_property

from .components import _IDENTIFIER_RE, Component, ServiceName, _Frozen, check_identifier
from .errors import (
    DisjointnessViolation,
    DuplicateComponent,
    DuplicateState,
    MissingInitial,
    ParseError,
    UnknownState,
)

# The lexical rules of the format, each written once. An unterminated guard or
# parameter list runs to the end of the line, where the parser reports it.
_GUARD = r"\[[^\]]*\]?"
_PARAMS = r"\([^)]*\)?"
_WORD = r"[^\s(\[]+"
_UNCOMMENTED = re.compile(rf"(?:[^#\[]+|{_GUARD})*")
_TOKEN = re.compile(rf"{_GUARD}|{_PARAMS}|{_WORD}|\Z")  # \Z: an empty token ends each line
# the characters str.splitlines breaks on, which no parsed line contains
_LINE_BREAKS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"
_PARAM_FORBIDDEN = frozenset(",()[]# \t" + _LINE_BREAKS)
_GUARD_FORBIDDEN = frozenset("[]" + _LINE_BREAKS)


def _check_param_token(token: str) -> str:
    if not token or not _PARAM_FORBIDDEN.isdisjoint(token) or token != token.strip():
        raise ValueError(f"invalid parameter token: {token!r}")
    return token


class ActionEmission(_Frozen):
    """An emitted action with verbatim, uninterpreted parameter tokens."""

    __slots__ = ("action", "params")
    _defaults = {"params": ()}

    action: ServiceName
    params: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "action", ServiceName(self.action))
        object.__setattr__(self, "params", tuple(_check_param_token(p) for p in self.params))


class Transition(_Frozen):
    """A directed transition. ``event`` is None for automatic transitions."""

    __slots__ = ("source", "target", "event", "guard", "actions")
    _defaults = {"event": None, "guard": None, "actions": ()}

    source: str
    target: str
    event: ServiceName | None
    guard: str | None
    actions: tuple[ActionEmission, ...]

    def __post_init__(self):
        check_identifier(self.source, "state name")
        check_identifier(self.target, "state name")
        if self.event is not None:
            object.__setattr__(self, "event", ServiceName(self.event))
        if self.guard is not None and not _GUARD_FORBIDDEN.isdisjoint(self.guard):
            raise ValueError(f"guard text may not contain brackets or line breaks: {self.guard!r}")
        object.__setattr__(self, "actions", tuple(self.actions))
        for action in self.actions:  # a plain loop, as in TestCase: parsing builds many transitions
            if not isinstance(action, ActionEmission):
                raise TypeError("a transition's actions must be ActionEmissions")


class Statechart(_Frozen):
    """A flat state machine owned by one component."""

    __slots__ = ("component_name", "states", "initial", "transitions", "__dict__")  # __dict__ holds outgoing_index
    _defaults = {"transitions": ()}

    component_name: str
    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        check_identifier(self.component_name, "component name")
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        seen = set()
        for state in states:
            check_identifier(state, "state name")
            if state in seen:
                raise DuplicateState(f"duplicate state {state!r} in {self.component_name!r}")
            seen.add(state)
        if self.initial not in seen:
            raise UnknownState(
                f"initial state {self.initial!r} is not declared in {self.component_name!r}"
            )
        object.__setattr__(self, "transitions", tuple(self.transitions))
        for t in self.transitions:
            for endpoint in (t.source, t.target):
                if endpoint not in seen:
                    raise UnknownState(
                        f"transition endpoint {endpoint!r} is not declared in {self.component_name!r}"
                    )

    @cached_property
    def outgoing_index(self) -> dict[str, tuple[tuple[int, Transition], ...]]:
        """Each state's outgoing transitions with their declaration indices,
        in declaration order. Built on first use and kept with the chart."""
        index: dict[str, list[tuple[int, Transition]]] = {state: [] for state in self.states}
        for i, t in enumerate(self.transitions):
            index[t.source].append((i, t))
        return {state: tuple(pairs) for state, pairs in index.items()}

    def outgoing(self, state: str) -> tuple[Transition, ...]:
        return tuple(t for _, t in self.outgoing_index.get(state, ()))


class ChartSet(_Frozen):
    """An ordered collection of statecharts with unique component names."""

    __slots__ = ("charts", "__dict__")  # __dict__ holds _by_name

    charts: tuple[Statechart, ...]

    def __post_init__(self):
        object.__setattr__(self, "charts", tuple(self.charts))
        seen = set()
        for chart in self.charts:
            if chart.component_name in seen:
                raise DuplicateComponent(f"duplicate component {chart.component_name!r}")
            seen.add(chart.component_name)

    def __iter__(self):
        return iter(self.charts)

    def __len__(self) -> int:
        return len(self.charts)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.component_name for c in self.charts)

    @cached_property
    def _by_name(self) -> dict[str, Statechart]:
        return {chart.component_name: chart for chart in self.charts}

    def get(self, name: str) -> Statechart:
        return self._by_name[name]


class _Line:
    """The tokens of one declaration line with their 1-based columns, read in
    order up to the empty token one column past the line's end."""

    def __init__(self, content: str, lineno: int, shared: dict):
        self.tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(content)]
        self.lineno = lineno
        self.i = 0
        self.shared = shared

    def at_end(self) -> bool:
        return not self.tokens[self.i][0]

    def take_word(self, what: str) -> tuple[str, int]:
        word, column = self.tokens[self.i]
        if not word or word[0] in "([":
            raise ParseError(f"expected {what}", self.lineno, column)
        self.i += 1
        return word, column

    def take_identifier(self, what: str) -> tuple[str, int]:
        word, column = self.take_word(what)
        if word not in self.shared:  # its plain-string keys are all names that passed this check
            if not _IDENTIFIER_RE.match(word):
                raise ParseError(f"invalid {what}: {word!r}", self.lineno, column)
            self.shared[word] = word
        return self.shared[word], column

    def one(self, kind: type, *fields):
        """The parse's one ``kind(*fields)`` for each distinct ``fields``; the
        key holds ``kind``, so a ServiceName stays apart from its equal string."""
        key = (kind, *fields)
        if key not in self.shared:
            self.shared[key] = kind(*fields)
        return self.shared[key]

    def expect(self, literal: str):
        word, column = self.take_word(f"'{literal}'")
        if word != literal:
            raise ParseError(f"expected {literal!r}, found {word!r}", self.lineno, column)

    def take_guard_text(self) -> str:
        token, column = self.tokens[self.i]
        if token[:1] != "[":
            raise ParseError("expected '[' after 'guard'", self.lineno, column)
        if token[-1] != "]":
            raise ParseError("unterminated guard, missing ']'", self.lineno, column)
        text = token[1:-1]
        if "[" in text:
            raise ParseError("guard text may not contain '['", self.lineno, column)
        self.i += 1
        return self.one(str, text)

    def take_action(self) -> ActionEmission:
        name, name_column = self.take_identifier("action name")
        token, column = self.tokens[self.i]
        params = ()
        if token[:1] == "(" and column == name_column + len(name):
            if token[-1] != ")":
                raise ParseError("unterminated parameter list, missing ')'", self.lineno, column)
            self.i += 1
            inner = token[1:-1]
            params = tuple(raw.strip() for raw in inner.split(",")) if inner.strip() else ()
            for param in params:
                try:
                    _check_param_token(param)
                except ValueError:
                    raise ParseError(f"invalid parameter token {param!r}", self.lineno, column) from None
        return self.one(ActionEmission, self.one(ServiceName, name), params)

    def finish(self):
        token, column = self.tokens[self.i]
        if token:
            raise ParseError("unexpected trailing text", self.lineno, column)


def _parse_transition_clauses(line: _Line) -> tuple[Transition, int, int]:
    source, source_col = line.take_identifier("source state")
    line.expect("->")
    target, target_col = line.take_identifier("target state")
    event = None
    guard = None
    actions: list[ActionEmission] = []
    stage = 0  # 0: nothing yet, 1: after 'on', 2: after 'guard', 3: in 'do' list
    while not line.at_end():
        word, column = line.take_word("'on', 'guard' or 'do'")
        if word == "on":
            if stage >= 1:
                raise ParseError("'on' must appear once, before 'guard' and 'do'", line.lineno, column)
            event = line.one(ServiceName, line.take_identifier("event name")[0])
            stage = 1
        elif word == "guard":
            if stage >= 2:
                raise ParseError("'guard' must appear once, before any 'do'", line.lineno, column)
            guard = line.take_guard_text()
            stage = 2
        elif word == "do":
            actions.append(line.take_action())
            stage = 3
        else:
            raise ParseError(f"expected 'on', 'guard' or 'do', found {word!r}", line.lineno, column)
    t = Transition(source=source, target=target, event=event, guard=guard, actions=tuple(actions))
    return t, source_col, target_col


def parse_statechart(text: str) -> Statechart:
    """Parse one statechart document, validating structure as it goes.

    Raises ParseError on malformed lines, DuplicateComponent on a second
    header, DuplicateState, MissingInitial, and UnknownState when the initial
    state or a transition endpoint was never declared, all with the offending
    line number.
    """
    shared: dict = {}  # this parse's one object per distinct name, service, action emission and guard
    component_name: str | None = None
    states: list[str] = []
    state_set: set[str] = set()
    initial: str | None = None
    initial_line = 0
    transitions: list[tuple[Transition, int, int, int]] = []
    ended = False
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = _Line(_UNCOMMENTED.match(raw).group(), lineno, shared)
        if line.at_end():
            continue
        keyword, column = line.take_word("a declaration")
        if ended:
            raise ParseError("content after 'end'", lineno, column)
        if keyword == "component":
            name, _ = line.take_identifier("component name")
            if component_name is not None:
                raise DuplicateComponent(
                    f"second 'component' header (already named {component_name!r})", lineno, column
                )
            component_name = name
        elif component_name is None:
            raise ParseError("expected 'component' header first", lineno, column)
        elif keyword == "state":
            name, _ = line.take_identifier("state name")
            if name in state_set:
                raise DuplicateState(f"duplicate state {name!r}", lineno, column)
            states.append(name)
            state_set.add(name)
        elif keyword == "initial":
            if initial is not None:
                raise ParseError("duplicate 'initial' declaration", lineno, column)
            initial, _ = line.take_identifier("initial state name")
            initial_line = lineno
        elif keyword == "transition":
            t, source_col, target_col = _parse_transition_clauses(line)
            transitions.append((t, lineno, source_col, target_col))
        elif keyword == "end":
            ended = True
        else:
            raise ParseError(f"unknown declaration {keyword!r}", lineno, column)
        line.finish()
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


def serialize_statechart(chart: Statechart) -> str:
    """Canonical text form. parse(serialize(chart)) is structurally equal to chart."""
    lines = [f"component {chart.component_name}"]
    lines.extend(f"state {s}" for s in chart.states)
    lines.append(f"initial {chart.initial}")
    for t in chart.transitions:
        parts = [f"transition {t.source} -> {t.target}"]
        if t.event is not None:
            parts.append(f"on {t.event}")
        if t.guard is not None:
            parts.append(f"guard [{t.guard}]")
        for a in t.actions:
            if a.params:
                parts.append(f"do {a.action}({','.join(a.params)})")
            else:
                parts.append(f"do {a.action}")
        lines.append(" ".join(parts))
    lines.append("end")
    return "\n".join(lines) + "\n"


def extract_interfaces(chart: Statechart) -> Component:
    """Derive the component's interface sets from its statechart.

    Provided services are the trigger event names the machine accepts,
    required services the action names it emits. A name on both sides makes
    the component ill-formed and raises DisjointnessViolation.
    """
    triggers = {t.event for t in chart.transitions if t.event is not None}
    actions = {a.action for t in chart.transitions for a in t.actions}
    overlap = triggers & actions
    if overlap:
        raise DisjointnessViolation(
            f"component {chart.component_name!r} both accepts and emits: "
            + ", ".join(sorted(overlap))
        )
    return Component(
        name=chart.component_name,
        provided=frozenset(triggers),
        required=frozenset(actions),
    )
