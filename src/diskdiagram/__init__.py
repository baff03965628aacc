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

from .errors import (
    ArcStructureViolation,
    BudgetExceeded,
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
    DEFAULT_BUDGET,
    Cycle,
    Decomposition,
    Edge,
    PoGraph,
    TreeComponent,
    adjacency,
    build_graph,
    decompose,
    make_edges,
    simple_cycles,
)
from .orders import (
    A4Result,
    StrictPartialOrder,
    check_A4,
)
from .conditions import (
    BoundaryPair,
    ConditionReport,
    DeltaVerdict,
    boundary_pairs,
    check_A1,
    check_A2,
    check_A3,
    check_S3,
    find_cr_cycles,
    is_delta_graph,
)
from .planarity import (
    DiskEmbedding,
    Face,
    brute_force_tree_embedding,
    build_embedding,
    check_S2,
    face_arcs,
    separation_ok,
    trace_faces,
    tree_is_disk_planar,
)
from .realization import (
    CensusResult,
    DiskFunction,
    FaceMap,
    HeightAssignment,
    assign_coords,
    assign_heights,
    extend_to_faces,
    induced_order,
    level_set,
    level_sets,
    place,
    realize,
    sign_census,
)
from .formats import GraphFile, load_graph_file, parse, serialize, to_dot
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
