"""Component interaction graphs and test-suite composition for
statechart-specified components.

A component is a pair of service-name sets: what it provides and what it
requires. Composition matches one side's provided services against the
other's required services and consumes the matches. From the components'
statecharts, the toolkit builds a component interaction graph (CIG) whose
edges connect providing states to requiring states, and uses the graph to
keep test libraries in step with composition: obsolete cases are dropped and
one interaction test is generated per edge.
"""

from .cig import (
    Cig,
    CigEdge,
    CigNode,
    Kind,
    ServiceSides,
    build_cig,
    cig_to_dot,
    classify_states,
    cross_services,
    find_switching_states,
    format_kinds,
)
from .components import (
    Component,
    CompositionResult,
    CompositionStep,
    ServiceName,
    compose,
    compose_many,
    is_composable,
    make_component,
    satisfied_services,
)
from .documents import (
    cig_from_json,
    cig_to_json,
    component_from_json,
    component_to_json,
    composed_result_from_json,
    composed_result_to_json,
    composition_result_from_json,
    composition_result_to_json,
    library_from_json,
    library_to_json,
)
from .errors import (
    CigError,
    DisjointnessViolation,
    DuplicateComponent,
    DuplicateState,
    DuplicateTestId,
    InvalidIdentifier,
    MissingInitial,
    NoInteraction,
    NotComposable,
    ParseError,
    SchemaError,
    StatechartError,
    UnknownState,
    UnreachableProvider,
)
from .statechart import (
    ActionEmission,
    ChartSet,
    Statechart,
    Transition,
    extract_interfaces,
    parse_statechart,
    serialize_statechart,
)
from .testlib import (
    ComposedLibraryResult,
    Origin,
    TestCase,
    TestLibrary,
    TestStep,
    compose_libraries,
    generate_new_tests,
    satisfied_tests,
)

__version__ = "0.1.0"

__all__ = [
    "ActionEmission",
    "ChartSet",
    "Cig",
    "CigEdge",
    "CigError",
    "CigNode",
    "ComposedLibraryResult",
    "Component",
    "CompositionResult",
    "CompositionStep",
    "DisjointnessViolation",
    "DuplicateComponent",
    "DuplicateState",
    "DuplicateTestId",
    "InvalidIdentifier",
    "Kind",
    "MissingInitial",
    "NoInteraction",
    "NotComposable",
    "Origin",
    "ParseError",
    "SchemaError",
    "ServiceName",
    "ServiceSides",
    "Statechart",
    "StatechartError",
    "TestCase",
    "TestLibrary",
    "TestStep",
    "Transition",
    "UnknownState",
    "UnreachableProvider",
    "build_cig",
    "cig_from_json",
    "cig_to_dot",
    "cig_to_json",
    "classify_states",
    "component_from_json",
    "component_to_json",
    "compose",
    "compose_libraries",
    "compose_many",
    "composed_result_from_json",
    "composed_result_to_json",
    "composition_result_from_json",
    "composition_result_to_json",
    "cross_services",
    "extract_interfaces",
    "find_switching_states",
    "format_kinds",
    "generate_new_tests",
    "is_composable",
    "library_from_json",
    "library_to_json",
    "make_component",
    "parse_statechart",
    "satisfied_services",
    "satisfied_tests",
    "serialize_statechart",
]
