"""Test libraries, their composition law, and edge-covering test generation.

When two components are composed, test cases that exercise satisfied services
become obsolete and interaction tests for the newly matched service pairs are
missing. The final library is ((t1 union t2) minus the obsolete cases) union
the generated cases, one generated case per interaction-graph edge.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .components import ServiceName, _Frozen, _service_set, _state_ref, check_identifier
from .errors import CigError, DuplicateTestId, SchemaError, UnreachableProvider

if TYPE_CHECKING:  # generation imports cig and statechart where it runs, so that a library alone needs neither
    from .cig import Cig, StateRef
    from .statechart import ChartSet, Statechart, Transition


class Origin(Enum):
    LIBRARY = "library"
    GENERATED = "generated"


class TestStep(_Frozen):
    """One stimulus: send an event, optionally check the landing state, check
    the emitted actions in order."""

    __test__ = False  # not a pytest case
    __slots__ = ("event", "expected_state", "expected_actions")
    _defaults = {"expected_state": None, "expected_actions": ()}

    event: ServiceName
    expected_state: StateRef | None
    expected_actions: tuple[ServiceName, ...]

    def __post_init__(self):
        if isinstance(self.expected_actions, str):
            raise TypeError("a test step's expected_actions are a tuple, not a string")
        object.__setattr__(self, "event", ServiceName(self.event))
        if self.expected_state is not None:
            ref = _state_ref(self.expected_state, "a test step's expected_state")
            check_identifier(ref[0], "component name")
            check_identifier(ref[1], "state name")
            object.__setattr__(self, "expected_state", ref)
        object.__setattr__(
            self, "expected_actions", tuple(ServiceName(a) for a in self.expected_actions)
        )


_GENERATED_PREFIX = "tnew_"


class TestCase(_Frozen):
    __test__ = False
    __slots__ = ("id", "owner", "services", "steps", "origin")
    _defaults = {"origin": Origin.LIBRARY}

    id: str
    owner: str
    services: frozenset[ServiceName]
    steps: tuple[TestStep, ...]
    origin: Origin

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise ValueError("test case id must be a nonempty string")
        check_identifier(self.owner, "owner component name")
        object.__setattr__(self, "services", _service_set(self.services))
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:  # a plain loop: all() over a generator measurably slows generating many cases
            if not isinstance(step, TestStep):
                raise TypeError(f"test case {self.id!r} steps must be TestSteps")
        if self.origin is Origin.GENERATED and not self.services:
            raise ValueError(f"generated case {self.id!r} must name its services")
        if self.origin is Origin.LIBRARY and self.id.startswith(_GENERATED_PREFIX):
            raise DuplicateTestId(
                f"id {self.id!r} uses the reserved {_GENERATED_PREFIX!r} prefix"
            )


class TestLibrary(_Frozen):
    __test__ = False
    __slots__ = ("cases",)
    _defaults = {"cases": ()}

    cases: tuple[TestCase, ...]

    def __post_init__(self):
        object.__setattr__(self, "cases", tuple(self.cases))
        seen = set()
        for case in self.cases:
            if case.id in seen:
                raise DuplicateTestId(f"duplicate test id {case.id!r}")
            seen.add(case.id)

    def __iter__(self):
        return iter(self.cases)

    def __len__(self) -> int:
        return len(self.cases)

    @property
    def ids(self) -> frozenset[str]:
        return frozenset(case.id for case in self.cases)


class ComposedLibraryResult(_Frozen):
    """Outcome of composing two libraries: what was kept, dropped, added."""

    __slots__ = ("retained", "removed", "generated", "final")

    retained: TestLibrary
    removed: TestLibrary
    generated: TestLibrary
    final: TestLibrary

    def __post_init__(self):
        want = [c.id for c in self.retained] + [c.id for c in self.generated]
        got = [c.id for c in self.final]
        if want != got:
            raise ValueError("final library must be retained cases then generated cases")
        if self.retained.ids & self.removed.ids:
            raise ValueError("a case cannot be both retained and removed")


def satisfied_tests(
    t1: TestLibrary, t2: TestLibrary, s: frozenset[ServiceName]
) -> tuple[TestLibrary, TestLibrary]:
    """Split t1's cases followed by t2's into (retained, removed).

    A case is removed when its services set intersects ``s``. Raises
    DuplicateTestId when the two libraries share an id, since they were then
    not independently authored.
    """
    shared = t1.ids & t2.ids
    if shared:
        raise DuplicateTestId(f"libraries share test id {sorted(shared)[0]!r}")
    s = _service_set(s)
    retained = []
    removed = []
    for case in list(t1) + list(t2):
        if case.services & s:
            removed.append(case)
        else:
            retained.append(case)
    return TestLibrary(tuple(retained)), TestLibrary(tuple(removed))


def compose_libraries(
    t1: TestLibrary,
    t2: TestLibrary,
    s: frozenset[ServiceName],
    tnew: TestLibrary,
) -> ComposedLibraryResult:
    """Apply the composition law: drop cases touching ``s``, append ``tnew``."""
    retained, removed = satisfied_tests(t1, t2, s)
    clash = (t1.ids | t2.ids) & tnew.ids
    if clash:
        raise DuplicateTestId(f"generated library reuses test id {sorted(clash)[0]!r}")
    final = TestLibrary(retained.cases + tnew.cases)
    return ComposedLibraryResult(
        retained=retained, removed=removed, generated=tnew, final=final
    )


def _event_paths(chart: Statechart) -> dict[str, tuple[Transition, ...]]:
    """Cheapest transition sequence from the initial state to every reachable
    state; unreachable states are absent.

    Cost is the number of triggered transitions; automatic ones are free.
    Ties break on the event-name sequence, then on transition declaration
    order, so each result is unique. A state's path is the one it is first
    popped with, and the pop order does not depend on which state is wanted,
    so one exhaustive search answers for every state.
    """
    heap: list[tuple[int, tuple[str, ...], tuple[int, ...], str]] = [
        (0, (), (), chart.initial)
    ]
    paths: dict[str, tuple[Transition, ...]] = {}
    index = chart.outgoing_index
    while heap:
        count, events, indices, state = heapq.heappop(heap)
        if state in paths:
            continue
        paths[state] = tuple(chart.transitions[i] for i in indices)
        for i, t in index[state]:
            if t.target in paths:
                continue
            if t.event is None:
                heapq.heappush(heap, (count, events, indices + (i,), t.target))
            else:
                heapq.heappush(
                    heap, (count + 1, events + (str(t.event),), indices + (i,), t.target)
                )
    return paths


def _setup_steps(component: str, path: tuple[Transition, ...]) -> tuple[TestStep, ...]:
    """Turn a transition path into steps, one per triggered transition.

    Actions of automatic transitions taken right after a trigger are credited
    to that step, and the step's expected state is where the machine rests
    before the next trigger. Automatic transitions before the first trigger
    produce no step.
    """
    starts = [i for i, t in enumerate(path) if t.event is not None]
    return tuple(
        TestStep(path[i].event, (component, path[j - 1].target), tuple(a.action for t in path[i:j] for a in t.actions))
        for i, j in zip(starts, starts[1:] + [len(path)])
    )


def _trigger(chart: Statechart, state: str, service: ServiceName) -> tuple[ServiceName, tuple[ServiceName, ...]]:
    """The event and emitted actions of the first triggered transition of ``state`` that emits ``service``."""
    for _, t in chart.outgoing_index.get(state, ()):
        if t.event is not None and any(a.action == service for a in t.actions):
            return t.event, tuple(a.action for a in t.actions)
    raise UnreachableProvider(
        f"state {state!r} of {chart.component_name!r} has no triggered transition emitting {service!r}"
    )


def _landing(chart: Statechart, state: str, service: ServiceName) -> tuple[int, StateRef | None]:
    """How many transitions of ``state`` accept ``service``, and where the one that does lands, if only one does."""
    accepting = [t for _, t in chart.outgoing_index.get(state, ()) if t.event == service]
    return len(accepting), (chart.component_name, accepting[0].target) if len(accepting) == 1 else None


def _difference(built: Cig, cig: Cig) -> str | None:
    """What sets ``cig`` apart from ``built``, if anything: the first element
    it lacks or has beyond it among removed states, then nodes, then edges,
    each missing ones first in ``built``'s order, then extra ones in ``cig``'s."""
    from .cig import format_kinds

    elements = (
        ("removed", "removed state", lambda ref: "%s.%s" % ref),
        ("nodes", "node", lambda node: f"{node.component}.{node.state} ({format_kinds(node.kinds)})"),
        ("edges", "edge", lambda edge: "%s.%s -> %s.%s on %s" % (*edge.source, *edge.target, edge.service)),
    )
    for field, what, text in elements:
        want, have = getattr(built, field), getattr(cig, field)
        wanted, had = set(want), set(have)
        if wanted == had:
            continue
        for label, elements, others in (("missing", want, had), ("extra", have, wanted)):
            for element in elements:
                if element not in others:
                    return f"they build another CIG, {label} {what} {text(element)}"
    return None


def generate_new_tests(
    cig: Cig, charts: ChartSet, warn: Callable[[str], None] | None = None
) -> TestLibrary:
    """Generate one test case per interaction edge.

    The CIG must be the one its charts build (edges, nodes and removed states
    compared as sets); any other is a SchemaError naming the first element
    that differs, raised before any case is built. Each case drives the
    emitting component from its initial state to the providing state along
    the cheapest event path, then fires the trigger of that state's emitting
    transition and expects the edge's service among the emitted actions; a
    providing state no event path reaches or fires is an UnreachableProvider.
    The expected landing state on the accepting side is recorded only when
    it is unambiguous; ``warn`` hears about omissions.
    """
    from .cig import build_cig
    from .statechart import ChartSet

    for component in cig.components:
        if component not in charts.names:
            raise SchemaError(f"CIG references component {component!r} with no statechart")
    named = ChartSet(tuple(c for c in charts if c.component_name in cig.components))
    try:  # fewer than two charts is a ValueError
        difference = _difference(build_cig(named), cig)
    except (CigError, ValueError) as error:
        difference = str(error)
    if difference is not None:
        raise SchemaError(f"CIG does not match its statecharts: {difference}")
    # each found once per key within this call, so that equal values are one object
    triggers, landings, finals, paths, setups, services = {}, {}, {}, {}, {}, {}
    cases = []
    for edge in cig.edges:
        (emitter, state), service, target = edge.source, edge.service, edge.target
        case_id = _GENERATED_PREFIX + "_".join((emitter, state, str(service), *target))
        if (edge.source, service) not in triggers:
            triggers[edge.source, service] = _trigger(charts.get(emitter), state, service)
        if (target, service) not in landings:
            landings[target, service] = _landing(charts.get(target[0]), target[1], service)
        count, expected_state = landings[target, service]
        if expected_state is None and warn is not None:
            warn(f"{case_id}: expected state omitted, {count} transitions accept {service!r} in state {target[1]!r}")
        event, actions = triggers[edge.source, service]
        key = (event, expected_state, actions)
        if key not in finals:
            finals[key] = TestStep(*key)
        if edge.source not in setups:
            if emitter not in paths:
                paths[emitter] = _event_paths(charts.get(emitter))
            if state not in paths[emitter]:
                raise UnreachableProvider(
                    f"no event path reaches state {state!r} from {charts.get(emitter).initial!r} "
                    f"in component {emitter!r}"
                )
            setups[edge.source] = _setup_steps(emitter, paths[emitter][state])
        if service not in services:
            services[service] = frozenset({service})
        steps = setups[edge.source] + (finals[key],)
        cases.append(TestCase(case_id, emitter, services[service], steps, Origin.GENERATED))
    return TestLibrary(tuple(sorted(cases, key=lambda c: c.id)))
