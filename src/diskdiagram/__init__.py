"""Deciding and realizing disk diagrams.

Given a finite connected multigraph whose vertices carry a strict
partial order, this package decides whether the graph is the
combinatorial diagram of a continuous height function on the closed
disk whose level sets have finitely many tree-like critical components,
and, in the affirmative case, constructs such a function explicitly:
a crossing-free drawing with the distinguished cycle on the unit
circle, a height value for every vertex, and a continuous extension
over every face, exportable as an SVG picture with level curves.
"""

from importlib import import_module as _import_module

from .errors import (
    ArcStructureViolation,
    DegenerateDrawing,
    DegreeBelowTwo,
    DisconnectedGraph,
    DiskDiagramError,
    EqualLevels,
    InvariantViolation,
    MalformedFile,
    NotAForest,
    NotDeltaGraph,
    NotInCarrier,
    NotInTree,
    NotPlanar,
    OrderCycle,
    OutsideDisk,
    SelfLoop,
    TerminalNotInVstar,
    UnknownId,
)
from .graph import (
    Cycle,
    Decomposition,
    Edge,
    PoGraph,
    TreeComponent,
    adjacency,
    build_graph,
    decompose,
    make_edges,
)
from .orders import (
    A4Result,
    HeightAssignment,
    StrictPartialOrder,
    assign_heights,
    check_A4,
    induced_order,
)
from .conditions import (
    ConditionReport,
    DeltaVerdict,
    check_A1,
    check_A2,
    check_A3,
    check_S2,
    check_S3,
    find_cr_cycles,
    is_delta_graph,
)
from .planarity import (
    DiskEmbedding,
    Face,
    brute_force_tree_embedding,
    build_embedding,
    face_arcs,
    separation_ok,
    trace_faces,
    tree_is_disk_planar,
)
from .formats import GraphFile, load_graph_file, parse, serialize, to_dot

__version__ = "0.1.0"

# The witness layers need numpy, so they load on first read of one of
# their names (PEP 562): deciding a graph starts without them.
_LAZY = {
    "realization": (
        "CensusResult",
        "DiskFunction",
        "FaceMap",
        "assign_coords",
        "extend_to_faces",
        "level_set",
        "level_sets",
        "place",
        "realize",
        "sign_census",
    ),
    "svg": ("render_svg",),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = name if name in _LAZY else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "A4Result",
    "ArcStructureViolation",
    "CensusResult",
    "ConditionReport",
    "Cycle",
    "Decomposition",
    "DegenerateDrawing",
    "DegreeBelowTwo",
    "DeltaVerdict",
    "DisconnectedGraph",
    "DiskDiagramError",
    "DiskEmbedding",
    "DiskFunction",
    "Edge",
    "EqualLevels",
    "Face",
    "FaceMap",
    "GraphFile",
    "HeightAssignment",
    "InvariantViolation",
    "MalformedFile",
    "NotAForest",
    "NotDeltaGraph",
    "NotInCarrier",
    "NotInTree",
    "NotPlanar",
    "OrderCycle",
    "OutsideDisk",
    "PoGraph",
    "SelfLoop",
    "StrictPartialOrder",
    "TerminalNotInVstar",
    "TreeComponent",
    "UnknownId",
    "adjacency",
    "assign_coords",
    "assign_heights",
    "brute_force_tree_embedding",
    "build_embedding",
    "build_graph",
    "check_A1",
    "check_A2",
    "check_A3",
    "check_A4",
    "check_S2",
    "check_S3",
    "conditions",
    "decompose",
    "errors",
    "extend_to_faces",
    "face_arcs",
    "find_cr_cycles",
    "formats",
    "graph",
    "induced_order",
    "is_delta_graph",
    "level_set",
    "level_sets",
    "load_graph_file",
    "make_edges",
    "orders",
    "parse",
    "place",
    "planarity",
    "realization",
    "realize",
    "render_svg",
    "separation_ok",
    "serialize",
    "sign_census",
    "svg",
    "to_dot",
    "trace_faces",
    "tree_is_disk_planar",
]
