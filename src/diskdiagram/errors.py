"""Exception types shared across the package."""


class DiskDiagramError(Exception):
    """Base class for all package errors."""


class SelfLoop(DiskDiagramError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"self-loop at vertex {vertex!r}")


class DisconnectedGraph(DiskDiagramError):
    def __init__(self, component, outside):
        self.component = frozenset(component)
        super().__init__(
            f"graph is not connected; a component of {len(self.component)} vertices"
            f" leaves out {outside!r}"
        )


class DegreeBelowTwo(DiskDiagramError):
    def __init__(self, vertex, degree):
        self.vertex = vertex
        self.degree = degree
        super().__init__(f"vertex {vertex!r} has degree {degree} < 2")


class OrderCycle(DiskDiagramError):
    def __init__(self, witness):
        self.witness = tuple(witness)
        super().__init__(f"order relation contains a cycle through {list(witness)}")


class NotInCarrier(DiskDiagramError):
    def __init__(self, item):
        self.item = item
        super().__init__(f"{item!r} is not in the carrier set")


class NotAForest(DiskDiagramError):
    def __init__(self, component_index, witness=()):
        self.component_index = component_index
        self.witness = tuple(witness)
        super().__init__(
            f"component {component_index} of the complement of the boundary cycle contains a cycle"
        )


class NotInTree(DiskDiagramError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} does not belong to the tree")


class TerminalNotInVstar(DiskDiagramError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"terminal vertex {vertex!r} is not among the boundary attachments")


class NotPlanar(DiskDiagramError):
    def __init__(self, reason):
        self.reason = reason
        super().__init__(f"no disk embedding: {reason}")


class NotDeltaGraph(DiskDiagramError):
    def __init__(self, condition, witnesses=()):
        self.condition = condition
        self.witnesses = tuple(witnesses)
        super().__init__(f"input fails condition {condition}")


class ArcStructureViolation(DiskDiagramError):
    def __init__(self, face_index, detail):
        self.face_index = face_index
        self.detail = detail
        super().__init__(f"face {face_index} has unusable boundary structure: {detail}")


class EqualLevels(DiskDiagramError):
    def __init__(self, face_index, level):
        self.face_index = face_index
        self.level = level
        super().__init__(
            f"face {face_index} joins two components at the same height {level}"
        )


class DegenerateDrawing(DiskDiagramError):
    def __init__(self, detail):
        self.detail = detail
        super().__init__(f"could not produce a crossing-free drawing: {detail}")


class OutsideDisk(DiskDiagramError):
    def __init__(self, point):
        self.point = tuple(point)
        super().__init__(f"point {point} lies outside the closed unit disk")


class MalformedFile(DiskDiagramError):
    def __init__(self, detail):
        self.detail = detail
        super().__init__(f"malformed input file: {detail}")


class UnknownId(DiskDiagramError):
    def __init__(self, ident, where):
        self.ident = ident
        self.where = where
        super().__init__(f"unknown vertex id {ident!r} in {where}")


class InvariantViolation(DiskDiagramError):
    """An internal consistency check failed; indicates a bug, not bad input."""

    def __init__(self, detail):
        self.detail = detail
        super().__init__(f"internal invariant violated: {detail}")
