"""Component interaction graph construction and rendering.

Given two or more statecharts, the builder finds the services one chart emits
and another accepts, removes switching states (states that exist only to hand
control to a peer), classifies the remaining states as provided, required or
intermediate interfaces, and connects providing states to requiring states
with service-labeled edges.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .components import ServiceName, _Frozen, _state_ref, check_identifier
from .errors import NoInteraction
from .statechart import ChartSet, Transition, extract_interfaces

StateRef = tuple[str, str]  # (component name, state name)


class Kind(Enum):
    """How a state participates in cross-component interaction."""

    PROVIDED = "P"
    REQUIRED = "R"
    INTERMEDIATE = "G"
    REMOVED = "Removed"


_KIND_ORDER = (Kind.PROVIDED, Kind.REQUIRED, Kind.INTERMEDIATE)


def format_kinds(kinds: frozenset[Kind]) -> str:
    """Stable text for a kind set: 'P', 'R', 'P,R', 'G' or 'Removed'."""
    if Kind.REMOVED in kinds:
        return Kind.REMOVED.value
    return ",".join(k.value for k in _KIND_ORDER if k in kinds)


class ServiceSides(_Frozen):
    """States emitting a service and states accepting it, in chart order."""

    __slots__ = ("emitters", "acceptors")

    emitters: tuple[StateRef, ...]
    acceptors: tuple[StateRef, ...]


class CigNode(_Frozen):
    __slots__ = ("component", "state", "kinds")

    component: str
    state: str
    kinds: frozenset[Kind]

    def __post_init__(self):
        check_identifier(self.component, "component name")
        check_identifier(self.state, "state name")
        kinds = frozenset(self.kinds)
        object.__setattr__(self, "kinds", kinds)
        if not kinds:
            raise ValueError(f"node {self.component}.{self.state} has no kinds")
        if Kind.REMOVED in kinds:
            raise ValueError("removed states may not appear as graph nodes")
        if Kind.INTERMEDIATE in kinds and len(kinds) > 1:
            raise ValueError("an intermediate state carries no other kind")

    @property
    def ref(self) -> StateRef:
        return (self.component, self.state)


class CigEdge(_Frozen):
    """A providing state feeding a requiring state of another component."""

    __slots__ = ("source", "target", "service")

    source: StateRef
    target: StateRef
    service: ServiceName

    def __post_init__(self):
        object.__setattr__(self, "source", _state_ref(self.source, "an edge's source"))
        object.__setattr__(self, "target", _state_ref(self.target, "an edge's target"))
        object.__setattr__(self, "service", ServiceName(self.service))
        if self.source[0] == self.target[0]:
            raise ValueError(f"edge within one component: {self.source} -> {self.target}")


class Cig(_Frozen):
    """The interaction graph: classified interface states plus labeled edges.
    ``_by_ref``, which its node check builds, maps each node's ref to the node."""

    __slots__ = ("components", "removed", "nodes", "edges", "_by_ref")

    components: tuple[str, ...]
    removed: tuple[StateRef, ...]
    nodes: tuple[CigNode, ...]
    edges: tuple[CigEdge, ...]

    def __post_init__(self):
        components = tuple(check_identifier(c, "component name") for c in self.components)
        object.__setattr__(self, "components", components)
        for i, component in enumerate(components):
            if component in components[:i]:
                raise ValueError(f"duplicate component {component!r}")
        object.__setattr__(self, "removed", tuple(_state_ref(ref, "a removed state") for ref in self.removed))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        by_ref: dict[StateRef, CigNode] = {}
        for node in self.nodes:
            if node.component not in self.components:
                raise ValueError(f"node component {node.component!r} not in component list")
            if node.ref in by_ref:
                raise ValueError(f"duplicate node {node.ref}")
            by_ref[node.ref] = node
        object.__setattr__(self, "_by_ref", by_ref)
        seen_edges = set()
        for edge in self.edges:
            if edge in seen_edges:
                raise ValueError(f"duplicate edge {edge.source} -> {edge.target} on {edge.service}")
            seen_edges.add(edge)
            for ref in (edge.source, edge.target):
                if ref not in by_ref:
                    raise ValueError(f"edge endpoint {ref} is not a node")
            if Kind.PROVIDED not in by_ref[edge.source].kinds:
                raise ValueError(f"edge source {edge.source} is not a provided interface")
            if Kind.REQUIRED not in by_ref[edge.target].kinds:
                raise ValueError(f"edge target {edge.target} is not a required interface")
        for ref in self.removed:
            check_identifier(ref[0], "component name")
            check_identifier(ref[1], "state name")
            if ref in by_ref:
                raise ValueError(f"removed state {ref} still appears as a node")

    def node(self, component: str, state: str) -> CigNode:
        return self._by_ref[(component, state)]


def _scan(charts: ChartSet):
    """Each service's emitting and accepting states, and each state's outgoing
    transitions with their indices, all in chart then state order."""
    emitters: dict[ServiceName, list[StateRef]] = {}
    acceptors: dict[ServiceName, list[StateRef]] = {}
    outgoing: dict[StateRef, tuple[tuple[int, Transition], ...]] = {}
    for chart in charts:
        for state, pairs in chart.outgoing_index.items():
            ref = (chart.component_name, state)
            outgoing[ref] = pairs
            for service in {a.action for _, t in pairs for a in t.actions}:
                emitters.setdefault(service, []).append(ref)
            for service in {t.event for _, t in pairs if t.event is not None}:
                acceptors.setdefault(service, []).append(ref)
    return emitters, acceptors, outgoing


def _cross(emitters, acceptors, excluded: frozenset[StateRef]) -> dict[ServiceName, ServiceSides]:
    out: dict[ServiceName, ServiceSides] = {}
    for service in sorted(set(emitters) & set(acceptors)):
        emitting = [ref for ref in emitters[service] if ref not in excluded]
        accepting = [ref for ref in acceptors[service] if ref not in excluded]
        emit = [e for e in emitting if any(a[0] != e[0] for a in accepting)]
        accept = [a for a in accepting if any(e[0] != a[0] for e in emitting)]
        if emit and accept:
            out[service] = ServiceSides(emitters=tuple(emit), acceptors=tuple(accept))
    return out


def cross_services(charts: ChartSet) -> dict[ServiceName, ServiceSides]:
    """Map each service to the states that emit it and the states that accept it.

    Only services with at least one emitter and one acceptor in different
    components are kept; one-sided names are environment services. Keys are
    sorted; sides follow chart and state declaration order.
    """
    emitters, acceptors, _ = _scan(charts)
    return _cross(emitters, acceptors, frozenset())


class _Analysis(NamedTuple):
    interacts: bool  # some service crossed components before removal
    removed: frozenset[StateRef]
    cross: dict[ServiceName, ServiceSides]  # what remains after removal
    kinds: dict[StateRef, frozenset[Kind]]  # chart then state order


# the five kind sets a state can have, one object each, keyed by (provides, requires)
_REMOVED = frozenset({Kind.REMOVED})
_KIND_SETS = {
    (False, False): frozenset({Kind.INTERMEDIATE}),
    (True, False): frozenset({Kind.PROVIDED}),
    (False, True): frozenset({Kind.REQUIRED}),
    (True, True): frozenset({Kind.PROVIDED, Kind.REQUIRED}),
}


def _analyze(charts: ChartSet) -> _Analysis:
    """Cross services, switching states and the classification, all derived
    from one scan of the charts' transitions."""
    if len(charts) < 2:
        raise ValueError("need at least two statecharts")
    emitters, acceptors, outgoing = _scan(charts)
    before = _cross(emitters, acceptors, frozenset())
    removed = frozenset(
        ref
        for ref, pairs in outgoing.items()
        if pairs
        and all(t.event is None and any(a.action in before for a in t.actions) for _, t in pairs)
    )
    cross = _cross(emitters, acceptors, removed)
    provided = {ref for sides in cross.values() for ref in sides.emitters}
    required = {ref for sides in cross.values() for ref in sides.acceptors}
    kinds = {
        ref: _REMOVED if ref in removed else _KIND_SETS[ref in provided, ref in required]
        for ref in outgoing
    }
    return _Analysis(bool(before), removed, cross, kinds)


def find_switching_states(charts: ChartSet) -> frozenset[StateRef]:
    """States whose outgoing transitions are all automatic and all cross-emitting.

    Such a state consumes no event and only pushes work to a peer component,
    so it is not an interface in its own right and is dropped from the graph.
    """
    return _analyze(charts).removed


def classify_states(charts: ChartSet) -> dict[StateRef, frozenset[Kind]]:
    """Assign every state a kind set: Removed, Provided/Required, or Intermediate.

    Cross-service status is recomputed after switching-state removal, so a
    service whose only emitters were removed no longer marks its acceptors as
    required.
    """
    return _analyze(charts).kinds


def build_cig(charts: ChartSet) -> Cig:
    """Build the interaction graph for two or more statecharts.

    Edges connect every providing emitter of a service to every requiring
    acceptor of it in another component, ordered by emitter position (chart
    order, then state order), then service name, then acceptor position.
    Raises NoInteraction when the charts share no services, or when none
    remain once switching states are removed.
    """
    analysis = _analyze(charts)
    for chart in charts:
        extract_interfaces(chart)  # surfaces DisjointnessViolation before NoInteraction
    if not analysis.interacts:
        raise NoInteraction("the charts share no services; nothing interacts")
    if not analysis.cross:
        raise NoInteraction("no cross-component services remain after switching-state removal")
    order = {ref: i for i, ref in enumerate(analysis.kinds)}
    edges = [
        CigEdge(source=emitter, target=acceptor, service=service)
        for service, sides in analysis.cross.items()
        for emitter in sides.emitters
        for acceptor in sides.acceptors
        if emitter[0] != acceptor[0]
    ]
    edges.sort(key=lambda e: (order[e.source], str(e.service), order[e.target]))
    return Cig(
        components=charts.names,
        removed=tuple(ref for ref, kinds in analysis.kinds.items() if Kind.REMOVED in kinds),
        nodes=tuple(
            CigNode(component=ref[0], state=ref[1], kinds=kinds)
            for ref, kinds in analysis.kinds.items()
            if Kind.REMOVED not in kinds
        ),
        edges=tuple(edges),
    )


def cig_to_dot(cig: Cig) -> str:
    """Render the graph as DOT: one dashed cluster per component, ellipse nodes.

    Output is byte-identical for equal graphs.
    """
    lines = ["digraph CIG {", "  node [shape=ellipse];"]
    for index, component in enumerate(cig.components):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f'    label="{component}";')
        lines.append("    style=dashed;")
        for node in cig.nodes:
            if node.component == component:
                label = f"{node.state}\\n[{format_kinds(node.kinds)}]"
                lines.append(f'    "{component}.{node.state}" [label="{label}"];')
        lines.append("  }")
    for edge in cig.edges:
        src = f"{edge.source[0]}.{edge.source[1]}"
        dst = f"{edge.target[0]}.{edge.target[1]}"
        lines.append(f'  "{src}" -> "{dst}" [label="{edge.service}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
