"""Test libraries, their composition law, and edge-covering test generation.

When two components are composed, test cases that exercise satisfied services
become obsolete and interaction tests for the newly matched service pairs are
missing. The final library is ((t1 union t2) minus the obsolete cases) union
the generated cases, one generated case per interaction-graph edge.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import Callable

from .cig import Cig, CigEdge, StateRef, build_cig, format_kinds
from .components import ServiceName, _Frozen, _service_set, check_identifier
from .errors import CigError, DuplicateTestId, SchemaError, UnreachableProvider
from .statechart import ChartSet, Statechart, Transition


class Origin(Enum):
    LIBRARY = "library"
    GENERATED = "generated"


class TestStep(_Frozen):
    """One stimulus: send an event, optionally check the landing state, check
    the emitted actions in order."""

    __test__ = False  # not a pytest case

    event: ServiceName
    expected_state: StateRef | None = None
    expected_actions: tuple[ServiceName, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "event", ServiceName(self.event))
        if self.expected_state is not None:
            component, state = self.expected_state
            check_identifier(component, "component name")
            check_identifier(state, "state name")
            object.__setattr__(self, "expected_state", (component, state))
        object.__setattr__(
            self, "expected_actions", tuple(ServiceName(a) for a in self.expected_actions)
        )


_GENERATED_PREFIX = "tnew_"


class TestCase(_Frozen):
    __test__ = False

    id: str
    owner: str
    services: frozenset[ServiceName]
    steps: tuple[TestStep, ...]
    origin: Origin = Origin.LIBRARY

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise ValueError("test case id must be a nonempty string")
        check_identifier(self.owner, "owner component name")
        object.__setattr__(self, "services", _service_set(self.services))
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.origin is Origin.GENERATED and not self.services:
            raise ValueError(f"generated case {self.id!r} must name its services")
        if self.origin is Origin.LIBRARY and self.id.startswith(_GENERATED_PREFIX):
            raise DuplicateTestId(
                f"id {self.id!r} uses the reserved {_GENERATED_PREFIX!r} prefix"
            )


class TestLibrary(_Frozen):
    __test__ = False

    cases: tuple[TestCase, ...] = ()

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
    s = frozenset(ServiceName(x) for x in s)
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


def _setup_steps(component: str, path: tuple[Transition, ...]) -> list[TestStep]:
    """Turn a transition path into steps, one per triggered transition.

    Actions of automatic transitions taken right after a trigger are credited
    to that step, and the step's expected state is where the machine rests
    before the next trigger. Automatic transitions before the first trigger
    produce no step.
    """
    steps: list[TestStep] = []
    current: dict | None = None
    for t in path:
        if t.event is not None:
            if current is not None:
                steps.append(_close_step(component, current))
            current = {"event": t.event, "actions": [], "state": t.target}
        if current is not None:
            current["actions"].extend(a.action for a in t.actions)
            current["state"] = t.target
    if current is not None:
        steps.append(_close_step(component, current))
    return steps


def _close_step(component: str, draft: dict) -> TestStep:
    return TestStep(
        event=draft["event"],
        expected_state=(component, draft["state"]),
        expected_actions=tuple(draft["actions"]),
    )


_ELEMENTS = (
    ("removed", "removed state", lambda ref: "%s.%s" % ref),
    ("nodes", "node", lambda node: f"{node.component}.{node.state} ({format_kinds(node.kinds)})"),
    ("edges", "edge", lambda edge: "%s.%s -> %s.%s on %s" % (*edge.source, *edge.target, edge.service)),
)


def _difference(built: Cig, cig: Cig) -> str | None:
    """What sets ``cig`` apart from ``built``, if anything: the first element
    it lacks or has beyond it among removed states, then nodes, then edges,
    each missing ones first in ``built``'s order, then extra ones in ``cig``'s."""
    for field, what, text in _ELEMENTS:
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
    paths_by_component: dict[str, dict[str, tuple[Transition, ...]]] = {}
    setup_by_source: dict[StateRef, tuple[TestStep, ...]] = {}
    finals = _FinalSteps(charts)
    cases = []
    for edge in cig.edges:
        emitter_chart = charts.get(edge.source[0])
        case_id = _GENERATED_PREFIX + "_".join((*edge.source, str(edge.service), *edge.target))
        final = finals.step(case_id, edge, warn)
        setup = setup_by_source.get(edge.source)
        if setup is None:
            component, state = edge.source
            if component not in paths_by_component:
                paths_by_component[component] = _event_paths(emitter_chart)
            path = paths_by_component[component].get(state)
            if path is None:
                raise UnreachableProvider(
                    f"no event path reaches state {state!r} from {emitter_chart.initial!r} "
                    f"in component {component!r}"
                )
            setup = setup_by_source[edge.source] = tuple(_setup_steps(component, path))
        cases.append(
            TestCase(
                id=case_id,
                owner=edge.source[0],
                services=frozenset({edge.service}),
                steps=setup + (final,),
                origin=Origin.GENERATED,
            )
        )
    cases.sort(key=lambda c: c.id)
    return TestLibrary(tuple(cases))


class _FinalSteps:
    """The last step of each edge's case, within one generation: each
    providing state's trigger and each requiring state's landing are found
    once per service, and equal final steps are one object."""

    def __init__(self, charts: ChartSet):
        self.charts = charts
        self.triggers: dict[tuple[StateRef, ServiceName], tuple[ServiceName, tuple[ServiceName, ...]]] = {}
        self.landings: dict[tuple[StateRef, ServiceName], tuple[int, StateRef | None]] = {}
        self.steps: dict[tuple, TestStep] = {}

    def step(self, case_id: str, edge: CigEdge, warn: Callable[[str], None] | None) -> TestStep:
        source, target = (edge.source, edge.service), (edge.target, edge.service)
        if source not in self.triggers:
            self.triggers[source] = self._trigger(*source)
        if target not in self.landings:
            self.landings[target] = self._landing(*target)
        count, expected_state = self.landings[target]
        if expected_state is None and warn is not None:
            warn(
                f"{case_id}: expected state omitted, {count} transitions "
                f"accept {edge.service!r} in state {edge.target[1]!r}"
            )
        key = (*self.triggers[source], expected_state)
        if key not in self.steps:
            self.steps[key] = TestStep(key[0], expected_state, key[1])
        return self.steps[key]

    def _trigger(self, state: StateRef, service: ServiceName) -> tuple[ServiceName, tuple[ServiceName, ...]]:
        """The event and the emitted actions of the first triggered transition
        of ``state`` that emits ``service``."""
        chart = self.charts.get(state[0])
        for _, t in chart.outgoing_index.get(state[1], ()):
            if t.event is not None and any(a.action == service for a in t.actions):
                return t.event, tuple(a.action for a in t.actions)
        raise UnreachableProvider(
            f"state {state[1]!r} of {chart.component_name!r} has no "
            f"triggered transition emitting {service!r}"
        )

    def _landing(self, state: StateRef, service: ServiceName) -> tuple[int, StateRef | None]:
        """How many transitions of ``state`` accept ``service``, and where
        the one that does lands, if exactly one does."""
        chart = self.charts.get(state[0])
        accepting = [t for _, t in chart.outgoing_index.get(state[1], ()) if t.event == service]
        return len(accepting), (chart.component_name, accepting[0].target) if len(accepting) == 1 else None
