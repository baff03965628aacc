"""Drawing an explicit height function for an accepted graph.

This is the witness layer, the only one that needs numpy; the level
heights come from `orders.assign_heights`.  The pipeline: place the
boundary cycle on the unit circle and solve for interior tree
positions; then extend the heights continuously over every face.  One
read-only table of rim samples per boundary size (`_rim_points`) gives
both the boundary vertices and the sampled arcs.  An inner face is
either a one-arc face (one boundary extremum between two visits of a
single tree) or a two-arc face (a band between two levels); one
function checks both shapes.  `extend_to_faces` builds every face's
polygon in one pass — circle arcs sampled with heights interpolated
between their end vertices, tree paths at their tree's level — and,
since the placement makes every face strictly convex, cuts each polygon
into the fan of triangles from its first rim sample; the function is
linear on each triangle, so it agrees with the vertex heights, is
constant on every tree, stays between the face's two defining levels,
and is flat on no triangle.  One stack holds every face's points,
values and triangles, and an id per point names the vertex drawn there;
one pass over the stack (`_fan_faults`) gives the fan rows, in rows of
the stack, and the convexity test.  The same triangles give every level
set exactly, with no sampling grid: in each face whose values lie on
both sides of a level, `_level_polylines` reads the level's curve
segment by segment from the fan rows it crosses, in fan order, all
levels in one pass.  Its polylines stay arrays for `svg.render_svg`;
`level_sets` gives them as lists of points.  `sign_census` audits the
drawn values: around every tree vertex, the faces' values off the
tree's level must lie on alternating sides of it.  The passes call
ndarray methods and slices, not numpy's wrappers: at a few hundred rows
``np.take(a, rows, axis=0)`` takes 1.8 µs, ``a[rows]`` 5 µs and
``a.take(rows, axis=0)`` 0.8 µs, and `np.roll` 7 µs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .conditions import is_delta_graph
from .errors import (
    ArcStructureViolation,
    DegenerateDrawing,
    EqualLevels,
    InvariantViolation,
    NotDeltaGraph,
    OutsideDisk,
)
from .orders import HeightAssignment, assign_heights, boundary_extrema
from .planarity import DiskEmbedding, build_embedding

SNAP = 1e-9
SAMPLES_PER_BOUNDARY_EDGE = 16


# ---------------------------------------------------------------------------
# coordinates


def _rim_angle(pos, n):
    """The angle of position ``pos`` on a rim of ``n`` boundary vertices.

    The i-th boundary vertex sits at position i; positions run
    counterclockwise from the top of the circle.  ``pos`` may be an array.
    """
    return math.pi / 2 + 2 * math.pi * pos / n


def _cross_rows(u, v):
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _as_points(pts):
    """``pts`` as an (N, 2) float array; no points give shape (0, 2).

    ValueError names any other shape."""
    pts = np.asarray(pts, dtype=float)
    if not pts.size:
        return pts.reshape(0, 2)
    out = np.atleast_2d(pts)
    if out.ndim != 2 or out.shape[1] != 2:
        raise ValueError(f"points need shape (N, 2), got shape {pts.shape}")
    return out


def _certify_drawing(emb, coords):
    """True when the drawing is a crossing-free embedding with no degeneracy.

    The checks read the vertex polygon of every inner face (its walk's
    vertices in order, so boundary arcs count as their chords) in
    O(sum of face sizes):

    - every polygon is strictly convex and counterclockwise and winds
      once (`_fan_faults`);
    - at every corner the two face edges do not leave the vertex in one
      direction (``|cross| <= 1e-12`` with a positive dot product);
    - every point lies more than ``SNAP`` from the line through its two
      neighbours;
    - every interior tree vertex lies at radius below ``1 - band``, where
      ``band = min(1e-7, s / 2)`` and ``s = 1 - cos(pi / n)`` is the
      sagitta of one rim chord of the n boundary vertices.

    Why this certifies the whole drawing.  `build_embedding` has already
    checked the Euler relation V - E + F = 2 with the boundary cycle
    bounding the outer face, so the faces form a planar map of the disk.
    A face of two darts is the region between a boundary arc and a
    chord (or both arcs of a two-vertex boundary); it needs no check and
    is left out, which puts its chord on the boundary of the rest.  The
    boundary vertices lie on the circle in cycle order, so the chords
    bound a convex polygon traversed once.  Cutting every convex face
    into a fan gives a triangulated disk whose triangles are all
    positively oriented and whose boundary goes once around a convex
    polygon; such a piecewise linear map is one-to-one (Floater, "One-to-
    one piecewise linear mappings over triangulations", Math. Comp. 72,
    2003).  So no two edges cross, and no vertex lies on an edge it does
    not end.  In a convex polygon every other point lies beyond the line
    through a point's two neighbours, and in a crossing-free drawing the
    nearest foreign edge of a vertex lies on a face at that vertex; so
    the neighbour-line distance bounds the distance from every vertex to
    every segment it does not end, and to every other vertex, from
    below.  Two edges that leave a vertex in one direction make a zero
    angle at a corner between them.

    The radius band.  Every interior vertex lies strictly inside the
    chord polygon, which holds the disk of radius ``cos(pi / n) = 1 - s``,
    so a band wider than s would reject sound drawings (at n = 39 368,
    s = 3.2e-9 and a tree vertex lies at 1 - 6.4e-8).  A polygon point at
    radius ``1 - s / 2`` or more lies within s / 2 of the chord on its
    ray: the band keeps interior vertices that far off the boundary
    chords, or 1e-7 off for n below 4 967.
    """
    dec = emb.decomposition
    band = min(1e-7, (1 - math.cos(math.pi / len(dec.gamma.vertices))) / 2)
    inner = [coords[v] for t in dec.trees for v in t.vertices - t.attach]
    r = np.array(inner).reshape(-1, 2)
    if (np.hypot(r[:, 0], r[:, 1]) >= 1.0 - band).any():
        return False
    walks = [f.darts for f in emb.faces if not f.is_outer and len(f.darts) > 2]
    if not walks:
        return True
    sizes = [len(w) for w in walks]
    p = np.array([coords[u] for w in walks for u, _ in w])
    _, bad, (prv, nxt) = _fan_faults(p, sizes)
    u1, u2 = p.take(prv, axis=0) - p, p.take(nxt, axis=0) - p
    cross = np.abs(_cross_rows(u1, u2))
    spike = (cross <= 1e-12) & (u1[:, 0] * u2[:, 0] + u1[:, 1] * u2[:, 1] > 0)
    d = u2 - u1
    near = cross <= SNAP * np.hypot(d[:, 0], d[:, 1])
    return not (bad.any() or spike.any() or near.any())


def assign_coords(emb):
    """Unit-circle boundary placement plus interior averaging per tree.

    The systems of all trees with k interior vertices go to one stacked
    `np.linalg.solve`, which runs the same LAPACK routine on each.  The
    drawing is solved once; DegenerateDrawing is raised when
    `_certify_drawing` rejects it.
    """
    dec = emb.decomposition
    gamma = dec.gamma.vertices
    coords = dict(zip(gamma, _rim_points(len(gamma))[::SAMPLES_PER_BOUNDARY_EDGE]))
    by_size = {}
    for t in dec.trees:
        interior = sorted(t.vertices - t.attach)
        if interior:
            by_size.setdefault(len(interior), []).append((t.adj, interior))
    for k, group in by_size.items():
        a, b = np.zeros((len(group), k, k)), np.zeros((len(group), k, 2))
        for j, (adj, interior) in enumerate(group):
            idx = {v: i for i, v in enumerate(interior)}
            for v, i in idx.items():
                nbrs = [y if x == v else x for x, y, _ in adj[v]]
                a[j, i, i] = len(nbrs)
                for w in nbrs:
                    if w in idx:
                        a[j, i, idx[w]] -= 1.0
                    else:
                        b[j, i] += coords[w]
        for (_, interior), sol in zip(group, np.linalg.solve(a, b)):
            coords.update(zip(interior, sol))
    if not _certify_drawing(emb, coords):
        raise DegenerateDrawing("tree placement produced a degenerate drawing")
    return DiskEmbedding(dec, emb.rotation, emb.faces, emb.outer_index, emb.dart_face, coords)


# ---------------------------------------------------------------------------
# faces


@dataclass(frozen=True)
class FaceMap:
    face_index: int
    points: np.ndarray  # (N, 2) polygon, counterclockwise
    values: np.ndarray  # (N,)
    triangles: np.ndarray  # (N - 2, 3) indices into points


def _path_level(darts, heights, face_index):
    vs = [u for u, _ in darts] + [darts[-1][1].other(darts[-1][0])]
    levels = {heights.value[v] for v in vs}
    if len(levels) != 1:
        raise InvariantViolation(
            f"face {face_index}: tree path visits several levels {sorted(levels)}"
        )


def _check_face(face, g, heights):
    """Check one inner face's level structure.

    ``face.runs`` start with a boundary arc.  A one-arc face is a
    two-edge arc around one degree-2 extremum, closed by one tree path
    at a different level.  A two-arc face is a band between two levels:
    each arc starts at one of them, at the end of a tree path or, where
    the face has none, of the other arc.  Every tree path must lie at
    one level.
    """
    runs = face.runs
    arcs = [darts for kind, darts in runs if kind == "arc"]
    if len(arcs) == 1:
        if len(runs) != 2:
            raise ArcStructureViolation(face.index, "expected one arc and one path")
        arc = arcs[0]
        inner = [e.other(u) for u, e in arc[:-1]]
        extrema = [v for v in inner if g.degree(v) == 2]
        if len(arc) != 2 or len(extrema) != 1:
            raise ArcStructureViolation(
                face.index,
                f"one-arc face needs exactly one interior degree-2 vertex on a "
                f"two-edge arc, found {len(extrema)} on {len(arc)} edges",
            )
    elif len(arcs) != 2:
        raise ArcStructureViolation(face.index, f"face has {len(arcs)} boundary arcs")
    for kind, darts in runs:
        if kind == "path":
            _path_level(darts, heights, face.index)
    levels = [heights.value[arc[0][0]] for arc in arcs]
    if len(arcs) == 1 and heights.value[extrema[0]] == levels[0]:
        raise InvariantViolation(f"face {face.index}: extremum level equals tree level")
    if len(arcs) == 2 and levels[0] == levels[1]:
        raise EqualLevels(face.index, levels[0])


@lru_cache(maxsize=32)
def _rim_points(n):
    """The rim samples of a boundary of ``n`` vertices, read-only.

    With ``k = SAMPLES_PER_BOUNDARY_EDGE``, row ``k * i + s`` is sample s
    of the edge from the i-th boundary vertex to the next, at the
    fraction ``s / k`` of the edge's arc: sample 0 is the vertex itself,
    at the angle `_rim_angle` gives it plus 0.0, and the end vertex is
    sample 0 of the next edge.  So the rows ``[::k]`` place the boundary
    vertices.  One table is kept per boundary size of the last few
    drawn, since the same sizes recur within a process.
    """
    k = SAMPLES_PER_BOUNDARY_EDGE
    th = _rim_angle(np.arange(n), n)[:, None] + np.arange(k) / k * (2 * math.pi / n)
    th = th.ravel().tolist()
    table = np.empty((len(th), 2))
    # math's cos and sin, which the drawing has always used; numpy's
    # vectorized ones may round differently
    table[:, 0] = np.fromiter(map(math.cos, th), float, len(th))
    table[:, 1] = np.fromiter(map(math.sin, th), float, len(th))
    table.flags.writeable = False
    return table


def _flat(u, nxt):
    """Rows r where ``u[nxt[r]]`` does not turn left of ``u[r]`` by an angle
    whose sine exceeds 1e-12: ``cross(u, v) <= 1e-12 |u| |v|``."""
    x, y = u[:, 0], u[:, 1]
    size = np.hypot(x, y)
    return x * y.take(nxt) - y * x.take(nxt) <= 1e-12 * size * size.take(nxt)


def _fan_faults(points, sizes):
    """Fan triangles of polygons stacked in ``points``, which are not convex,
    and the rings of the stack.

    Polygon j holds the next ``sizes[j]`` points, at least three; the
    rings ``(prv, nxt)`` give each point's previous and next row around
    its polygon.
    It is strictly convex and counterclockwise when no corner and no fan
    triangle's corner at point 1 is `_flat`, and its edge directions
    cross the direction of +x once (left turns alone allow a polygon
    that winds twice); ``bad[j]`` is True otherwise.

    The bound.  `_certify_drawing`'s Floater argument needs only the sign
    of each corner and fan triangle.  A cross product is
    ``|u| |v| sin(angle)``, so a fixed floor ties the test to the
    drawing's scale: rim samples ``d = 2 pi / (16 n)`` apart turn by about
    ``d**3``, 1e-15 at n = 39 368.  Scaled by the two edge lengths, the
    test bounds the sine instead.  Rounding of about 2.2e-16 in the
    coordinates turns an edge of length L by about 2.2e-16 / L, which
    stays below a rim turn's sine d while d**2 > 4.4e-16 (n up to 1.9e7).

    Polygon j gets the fan from its point 1: every point r from its
    third on gives the row ``(first + 1, r, next(r))`` of the stack,
    where ``first`` is the polygon's first row and ``next(r)`` the point
    after r around the polygon.  A face polygon of `extend_to_faces`
    starts with a boundary edge, so point 1 is that edge's first rim
    sample after its start vertex: never a graph vertex, and valued
    strictly between the edge's two end heights.  So no fan triangle is
    flat, and every diagonal leaves a rim sample; none joins two
    vertices of a tree.
    Both tests run once per point r: the corner at ``next(r)`` and the
    fan row of r, as seen from point 1; only their OR per polygon is read.
    """
    sizes = np.asarray(sizes)
    ends = sizes.cumsum()
    firsts = ends - sizes
    prv, nxt = np.arange(-1, len(points) - 1), np.arange(1, len(points) + 1)
    prv[firsts] = ends - 1
    nxt[ends - 1] = firsts
    tri_owner = np.arange(len(sizes)).repeat(sizes - 2)
    rows = np.empty((len(tri_owner), 3), dtype=int)
    rows[:, 0] = firsts.take(tri_owner) + 1
    # polygon j's row for point r is the one 2 j + 2 rows before r
    rows[:, 1] = np.arange(len(tri_owner)) + 2 * tri_owner + 2
    rows[:, 2] = nxt.take(rows[:, 1])
    edge = points.take(nxt, axis=0) - points  # the edge leaving each point
    upward = (edge[:, 1] < 0) & (edge[:, 1] >= 0).take(nxt)
    bad = np.add.reduceat(upward, firsts, dtype=int) != 1
    flat = _flat(edge, nxt)
    del edge  # freed before the fan's temporaries, a million rows at ladder d = 8
    fan = _flat(points - points.take((firsts + 1).repeat(sizes), axis=0), nxt)
    fan[firsts] = fan[firsts + 1] = False  # points 0 and 1 have no fan row
    bad |= np.logical_or.reduceat(flat | fan, firsts)
    return rows, bad, (prv, nxt)


def _convex_fans(points, sizes, names):
    """`_fan_faults`' fan rows; DegenerateDrawing names the first polygon
    that is not strictly convex by ``names[j]``."""
    rows, bad, _ = _fan_faults(points, sizes)
    if bad.any():
        raise DegenerateDrawing(f"face {names[bad.argmax()]} is not strictly convex")
    return rows


def extend_to_faces(emb, heights):
    """Build every inner face's map in one pass into a DiskFunction.

    Each face is first checked by `_check_face`.  Its polygon is its
    boundary walk, run after run: each boundary edge gives its rim
    samples (`_rim_points`, start included, end excluded) and each tree
    path its vertices, up to the final endpoint; a point's id names the
    graph vertex drawn there (a path vertex, or an edge's first sample),
    if any.  All polygons are gathered from one table of rim samples
    and vertex positions, and triangulated by `_convex_fans`.

    Why every face is convex.  `assign_coords` certified every face's
    vertex polygon strictly convex (`_certify_drawing`), and the polygon
    here differs from it only along boundary arcs, whose chords it
    replaces by rim samples.  A rim sample between two others lies on
    the unit circle with them, counterclockwise, so the turn there is
    left, and a corner between two tree edges is the vertex polygon's.
    Where an arc meets a path at an attachment, the tree neighbour lies
    in the convex hull of its tree's attachments, so it lies strictly
    inside the chord line through the attachment and the next (or
    previous) rim sample: that line meets the circle only at those two
    points and no attachment lies between them.  `_convex_fans` still
    checks convexity, as a guard: a drawing that breaks this argument
    raises DegenerateDrawing instead of giving folded triangles.

    The DiskFunction is the stacked arrays as they are; a point's id
    names the graph vertex drawn there, for the audits that read it.
    """
    dec = emb.decomposition
    g, gamma, position = dec.graph, dec.gamma, dec.position
    n = len(gamma.vertices)
    k = SAMPLES_PER_BOUNDARY_EDGE
    names, index = g.order.elements, g.order.index
    # arrays of their own: a witness keeps no rim samples alive through them
    vertex_xy = np.array([emb.coords[v] for v in names])
    vertex_values = np.array([heights.value[v] for v in names])
    table_pts = np.concatenate([_rim_points(n), vertex_xy])
    # rim values, linear along each boundary edge, then the vertex heights
    t = np.arange(k) / k
    h = np.array([heights.value[v] for v in gamma.vertices + gamma.vertices[:1]])[:, None]
    table_vals = np.concatenate([((1 - t) * h[:-1] + t * h[1:]).ravel(), vertex_values])
    faces = [f for f in emb.faces if not f.is_outer]
    starts, counts, drawn, sizes = [], [], [], []
    for face in faces:
        _check_face(face, g, heights)
        sizes.append(0)
        for kind, darts in face.runs:
            for u, e in darts:
                if kind == "path":
                    starts.append(k * n + index[u])
                elif (position[e.other(u)] - position[u]) % n != 1:
                    raise InvariantViolation("inner face traverses the boundary backwards")
                else:
                    starts.append(k * position[u])
                counts.append(1 if kind == "path" else k)
                drawn.append(u)
                sizes[-1] += counts[-1]
    counts = np.array(counts)
    firsts = counts.cumsum() - counts  # each dart's first point
    take = (np.array(starts) - firsts).repeat(counts) + np.arange(firsts[-1] + counts[-1])
    points, values = table_pts.take(take, axis=0), table_vals.take(take)
    del take, table_pts, table_vals  # freed before the fan test, which sets the peak
    triangles = _convex_fans(points, sizes, [f.index for f in faces])
    ids = np.arange(len(names), len(names) + len(points))
    ids[firsts] = [index[u] for u in drawn]
    ends = [(index[e.a], index[e.b]) for t in dec.trees for e in sorted(t.edges)]
    return DiskFunction(
        emb, heights, points, values, triangles, ids, tuple(f.index for f in faces),
        tuple(sizes), names, vertex_xy, vertex_values,
        np.array(ends, dtype=int).reshape(-1, 2),
    )


# ---------------------------------------------------------------------------
# the assembled function


@dataclass(frozen=True, eq=False)
class DiskFunction:
    """The witness, one record of what `extend_to_faces` draws.

    Face ``face_indices[j]`` holds the next ``face_sizes[j]`` rows of
    ``points``/``values`` and m - 2 fan rows of ``triangles`` for its m
    points; `face_maps` are views of those rows, so every audit, level
    set and drawing reads one triangulation."""

    embedding: object
    heights: HeightAssignment
    points: np.ndarray  # (P, 2) every inner face's polygon in turn
    values: np.ndarray  # (P,) the witness at each point
    triangles: np.ndarray  # (T, 3) rows of points, face after face
    point_ids: np.ndarray  # (P,) the drawn vertex's row, else V + the point's row
    face_indices: tuple
    face_sizes: tuple
    vertex_names: tuple  # the V vertices, sorted
    vertex_xy: np.ndarray  # (V, 2) drawn positions
    vertex_values: np.ndarray  # (V,) heights
    tree_ends: np.ndarray  # (S, 2) vertex rows of every tree edge, tree by tree, sorted

    @property
    def decomposition(self):
        return self.embedding.decomposition

    @property
    def gamma(self):
        return self.embedding.decomposition.gamma

    @property
    def face_maps(self):
        """Each inner face's rows of the arrays, its triangles renumbered within it."""
        maps, lo = [], 0
        for j, (index, size) in enumerate(zip(self.face_indices, self.face_sizes)):
            rows = slice(lo, lo + size)
            tris = self.triangles[lo - 2 * j : lo - 2 * j + size - 2] - lo
            maps.append(FaceMap(index, self.points[rows], self.values[rows], tris))
            lo += size
        return tuple(maps)

    # -- evaluation --------------------------------------------------------

    def _sliver_values(self, pts):
        """Values between a rim chord and the circle.

        The chord is the polygon edge between the two rim samples
        around the point's angle, both rows of `_rim_points`.  The point
        takes the chord's linear value at its radial projection ``q``
        onto the chord, blended linearly in radius from ``|q|`` to 1
        towards the rim value at its angle, so the witness is continuous
        across the chord and equals the rim interpolation on the circle.
        """
        gamma = self.gamma.vertices
        n, k = len(gamma), SAMPLES_PER_BOUNDARY_EDGE
        th = np.arctan2(pts[:, 1], pts[:, 0])
        # the rim position at each angle, inverting `_rim_angle`: the
        # point lies over boundary edge i, at the fraction t of its arc
        pos = np.mod((th - _rim_angle(0, n)) / (2 * math.pi / n), n)
        i = np.floor(pos).astype(int) % n
        t = pos - np.floor(pos)
        h = np.array([self.heights.value[v] for v in gamma])
        h0, h1 = h[i], h[(i + 1) % n]
        sample = np.minimum(np.floor(t * k), k - 1).astype(int)
        rim_xy = _rim_points(n)
        a = rim_xy[k * i + sample]
        e = rim_xy[(k * i + sample + 1) % (k * n)] - a
        r = np.hypot(pts[:, 0], pts[:, 1])
        u = pts / r[:, None]
        # |q|, where the ray through the point meets the chord a + s e
        radius = _cross_rows(a, e) / _cross_rows(u, e)
        qa = radius[:, None] * u - a
        s = (qa * e).sum(axis=1) / (e * e).sum(axis=1)
        tq = sample / k + s / k
        chord = (1 - tq) * h0 + tq * h1
        w = np.divide(r - radius, 1 - radius, out=np.ones_like(r), where=radius < 1)
        rim = (1 - t) * h0 + t * h1
        return chord + np.clip(w, 0.0, 1.0) * (rim - chord)

    def _in_triangles(self, pts, rows):
        """Linear interpolation on the triangles ``triangles[rows]``.

        A point takes its value from the first of these triangles that
        holds it, with barycentric weights within 1e-9 of [0, 1]; it is
        NaN where none does.
        """
        eps = 1e-9
        out = np.full(len(pts), np.nan)
        p, v = self.points, self.values
        for i0, i1, i2 in self.triangles[rows]:
            rem = np.isnan(out)
            if not rem.any():
                break
            a, b, c = p[i0], p[i1], p[i2]
            det = (b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0]
            if abs(det) < 1e-300:
                continue
            qa = pts[rem] - a
            w1 = (qa[:, 0] * (c - a)[1] - qa[:, 1] * (c - a)[0]) / det
            w2 = (qa[:, 1] * (b - a)[0] - qa[:, 0] * (b - a)[1]) / det
            ok = (w1 >= -eps) & (w2 >= -eps) & (w1 + w2 <= 1 + eps)
            vals = v[i0] + w1 * (v[i1] - v[i0]) + w2 * (v[i2] - v[i0])
            tmp = out[rem]
            tmp[ok] = vals[ok]
            out[rem] = tmp
        return out

    def evaluate_in_face(self, face_index, pts):
        """Values of points on one face's triangles; NaN outside the face.

        The triangles cover the face's polygon, whose rim arcs are
        sampled chords, so a point between a chord and the circle is NaN
        here too.  ValueError names an index that is no inner face.
        """
        try:
            j = self.face_indices.index(face_index)
        except ValueError:
            raise ValueError(f"face {face_index} is not an inner face of this witness") from None
        row = sum(self.face_sizes[:j]) - 2 * j  # m - 2 rows per face of m points
        return self._in_triangles(_as_points(pts), slice(row, row + self.face_sizes[j] - 2))

    def evaluate_many(self, pts):
        """Vectorized evaluation of points in the closed disk.

        Exact at graph vertices and linear on every triangle.  The faces
        share their tree paths exactly and cover the inscribed polygon,
        so the only points no triangle holds lie between a rim chord and
        the circle; `_sliver_values` carries the chord's values out to the
        rim interpolation on the circle.  No points give an empty array.
        OutsideDisk names the first point outside the closed disk or with
        a NaN coordinate.
        """
        pts = _as_points(pts)
        # a NaN coordinate compares False both ways, so it is rejected too
        outside = ~(np.linalg.norm(pts, axis=1) <= 1 + SNAP)
        if outside.any():
            bad = pts[outside][0]
            raise OutsideDisk((float(bad[0]), float(bad[1])))
        out = np.full(len(pts), np.nan)
        d = np.linalg.norm(pts[:, None, :] - self.vertex_xy[None, :, :], axis=2)
        j = np.argmin(d, axis=1)
        at_vertex = d[np.arange(len(pts)), j] <= SNAP
        out[at_vertex] = self.vertex_values[j[at_vertex]]
        rest = ~at_vertex
        out[rest] = self._in_triangles(pts[rest], slice(None))
        left = np.isnan(out)
        if left.any():
            out[left] = self._sliver_values(pts[left])
        return out

    def evaluate(self, p):
        """The value at one point ``(x, y)``; see `evaluate_many`."""
        p = np.asarray(p, dtype=float)
        if p.shape != (2,):
            raise ValueError(
                f"evaluate takes one point (x, y), got shape {p.shape}; "
                "use evaluate_many for several points"
            )
        return float(self.evaluate_many(p.reshape(1, 2))[0])

    # -- structure reports --------------------------------------------------

    def boundary_extrema(self):
        """Boundary vertices that are local extrema along the circle."""
        return boundary_extrema(self.gamma, self.heights)


def place(verdict, mode="default", seed=None):
    """Placed embedding and heights for an accepted verdict.

    Returns ``(embedding, heights)``: the rotation system with
    coordinates assigned, and the level heights in the given mode.
    Raises NotDeltaGraph, carrying the failing report, when the verdict
    rejects the graph.
    """
    bad = verdict.failed_report()
    if bad is not None:
        raise NotDeltaGraph(bad.condition, bad.witnesses)
    dec = verdict.decomposition
    heights = assign_heights(dec.graph, dec, mode=mode, seed=seed)
    return assign_coords(build_embedding(dec)), heights


def realize(g, mode="default", seed=None):
    """Full pipeline: decide, place, lift; raises NotDeltaGraph."""
    return extend_to_faces(*place(is_delta_graph(g), mode, seed))


# ---------------------------------------------------------------------------
# level sets


def _stitch(edges, xy):
    """Join tree edges into maximal walks, sorted by first point.

    Each edge is a pair of vertex rows, two edges join where they share
    a vertex, and a walk lists the rows of its vertices; walks are
    sorted by the position ``xy[v]`` of their first vertex v.
    """
    at = {}
    for i, (a, b) in enumerate(edges):
        at.setdefault(a, []).append(i)
        at.setdefault(b, []).append(i)
    used = [False] * len(edges)
    walks = []
    for start, (a, b) in enumerate(edges):
        if used[start]:
            continue
        used[start] = True
        forward, backward = [b], [a]
        for tail in (forward, backward):
            while True:
                i = next((i for i in at[tail[-1]] if not used[i]), None)
                if i is None:
                    break
                used[i] = True
                qa, qb = edges[i]
                tail.append(qb if qa == tail[-1] else qa)
        walks.append(backward[::-1] + forward)
    walks.sort(key=lambda walk: xy[walk[0]])
    return walks


def _crossings(f, c, a, b):
    """Points where levels `c` cross the triangle edges (a, b).

    Entry i is level ``c[i]`` on the edge between point rows ``a[i]``
    and ``b[i]``, whose values lie on opposite sides of it; the three
    broadcast together, and the points gain a last axis of x and y.  The
    point is interpolated from the lower row, so the two triangles
    sharing an edge get bit-identical points; an end whose value equals
    the level is taken exactly, the higher row where both do.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    p_lo, p_hi = f.points.take(lo, axis=0), f.points.take(hi, axis=0)
    v_lo, v_hi = f.values.take(lo), f.values.take(hi)
    pts = p_lo + ((c - v_lo) / (v_hi - v_lo))[..., None] * (p_hi - p_lo)
    pts = np.where((v_lo == c)[..., None], p_lo, pts)
    return np.where((v_hi == c)[..., None], p_hi, pts)


# row k: the corners of a triangle from its corner k on, in turn
_FROM_CORNER = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def _level_polylines(f, values):
    """Polylines of every level {f = c} for c in `values`, exactly, as arrays.

    Level i gets a list of (m, 2) arrays: every tree at level `c` first,
    walked along its edges (`_stitch`), then the curves through the
    faces, sorted by first point.  The witness is linear on each
    triangle, so {f = c} is one segment per triangle whose vertices lie
    on both sides of `c` (a vertex at exactly `c` counts as below),
    between the crossings of the two edges at the vertex alone on its
    side.  One broadcast over (level, triangle) finds them, in the faces
    whose values lie strictly on both sides of `c` only: a face's tree
    paths hold its lowest or highest value, so the face's curve meets no
    tree path and runs from rim to rim.  One `_crossings` call cuts both
    edges of every such triangle.

    A face's curve is read in fan order.  The rows ``(1, k, k + 1)`` it
    crosses follow each other, and each shares its crossing of the
    diagonal ``(1, k + 1)`` with the next.  A row's entry is its crossing
    on the edge that comes first in the order ``(1, k)``, ``(k, k + 1)``,
    ``(1, k + 1)``; rows whose two crossings coincide are dropped.  The
    curve is the first row's entry, then every row's exit, reversed
    unless that row's lone vertex is the apex 1.
    """
    cs = np.asarray(values, dtype=float)[:, None]
    tris = f.triangles
    sizes = np.asarray(f.face_sizes)
    face = np.arange(len(sizes)).repeat(sizes - 2)
    vt = f.values.take(tris)
    v0, v1, v2 = vt[:, 0], vt[:, 1], vt[:, 2]
    # below c and above it, with the face's lowest value strictly below;
    # a triangle's highest value is at most its face's
    low_face = np.minimum.reduceat(f.values, sizes.cumsum() - sizes).take(face)
    low, high = np.minimum(np.minimum(v0, v1), v2), np.maximum(np.maximum(v0, v1), v2)
    level, hit = ((low_face < cs) & (low <= cs) & (cs < high)).nonzero()
    c = cs.take(level, axis=0)
    above = vt.take(hit, axis=0) > c
    s0, s1, s2 = above[:, 0], above[:, 1], above[:, 2]
    # the vertex alone on its side of c; the level crosses its two edges
    k = np.where(s1 == s2, 0, np.where(s0 == s2, 1, 2))
    corners = tris.take(3 * hit[:, None] + _FROM_CORNER.take(k, axis=0))
    ends = _crossings(f, c, corners[:, :1], corners[:, 1:])  # each row's pa, pb
    pa, pb = ends[:, 0], ends[:, 1]
    kept = ((pa[:, 0] != pb[:, 0]) | (pa[:, 1] != pb[:, 1])).nonzero()[0]
    level, apex = level[kept], k[kept] == 0
    key = level * len(sizes) + face[hit[kept]]
    new = np.ones(len(key) + 1, dtype=bool)  # curves' first kept rows, then the end
    new[1:-1] = key[1:] != key[:-1]
    bounds = new.nonzero()[0]
    # curve r, rows lo[r]:hi[r] of `points`, is its first row's entry
    # (pa at the apex, else pb) and then every row's exit (the other)
    cuts = bounds + np.arange(len(bounds))
    starts, lo, hi = bounds[:-1], cuts[:-1], cuts[1:]
    src = np.empty(len(key) + len(starts), dtype=int)
    src[np.arange(len(key)) + new[:-1].cumsum()] = 2 * kept + apex
    src[lo] = 2 * kept[starts] + 1 - apex[starts]
    points = ends.reshape(-1, 2).take(src, axis=0)
    forward = apex[starts]
    first = points.take(np.where(forward, lo, hi - 1), axis=0)
    order = np.lexsort((first[:, 1], first[:, 0], level[starts]))
    out = [[] for _ in cs]
    trees = f.decomposition.trees
    rows = list(accumulate((len(t.edges) for t in trees), initial=0))
    # a tree's level, read at one of its vertices: `_check_face` holds
    # every tree path at one level
    tree_levels = f.vertex_values[f.tree_ends[rows[:-1], 0]]
    xy = None
    for i, j in zip(*(np.abs(tree_levels - cs) <= SNAP).nonzero()):
        xy = xy or f.vertex_xy.tolist()
        edges = f.tree_ends[rows[j] : rows[j + 1]].tolist()
        out[i] += [f.vertex_xy.take(walk, axis=0) for walk in _stitch(edges, xy)]
    curves = list(zip(level[starts].tolist(), lo.tolist(), hi.tolist(), forward.tolist()))
    for r in order.tolist():
        i, a, b, fwd = curves[r]
        out[i].append(points[a:b] if fwd else points[a:b][::-1])
    return out


def level_sets(f, values):
    """Polylines of every level {f = c} for c in `values`, exactly.

    A polyline is a list of ``(x, y)`` tuples; each level lists its
    trees' polylines, then the curves through the faces sorted by first
    point (see `_level_polylines`).
    """
    cs = np.asarray(values, dtype=float)
    if cs.ndim != 1:
        raise TypeError("level_sets takes a sequence of levels; level_set takes one")
    return [
        [list(map(tuple, line.tolist())) for line in lines] for lines in _level_polylines(f, cs)
    ]


def level_set(f, c):
    """Polylines of the level {f = c}, exactly; see `level_sets`."""
    return level_sets(f, (c,))[0]


# ---------------------------------------------------------------------------
# sign census


@dataclass(frozen=True)
class CensusResult:
    passed: bool
    witnesses: tuple
    corner_signs: dict  # vertex -> tuple of face signs in rotation order

    def __bool__(self):
        return self.passed


def sign_census(f):
    """Alternation of face signs around every tree vertex, read from the drawing.

    A face's sign at a tree is read from the range of the face's drawn
    values: +1 when its lowest value lies at or above
    the tree's level and its highest above it, -1 when its highest lies
    at or below the level and its lowest below, and no sign otherwise,
    which is a witness.  Around an interior tree vertex the incident
    faces must alternate in rotation order (an even cycle), and at a
    boundary attachment the chain of inner corners must alternate with
    end signs dictated by the two boundary neighbors — opposite ends for
    odd degree, equal ends for even degree.
    """
    emb = f.embedding
    dec = emb.decomposition
    g = dec.graph
    heights = f.heights
    firsts = list(accumulate(f.face_sizes[:-1], initial=0))
    lows, highs = (u.reduceat(f.values, firsts).tolist() for u in (np.minimum, np.maximum))
    ranges = dict(zip(f.face_indices, zip(lows, highs)))
    witnesses = []
    corner_signs = {}
    for t in dec.trees:
        c_k = heights.level(t)
        for v in sorted(t.vertices):
            rot = emb.rotation[v]
            faces = [emb.dart_face[(v, e)] for e in (rot[:-1] if v in t.attach else rot)]
            # the outer face draws no values, so it carries no sign
            signs = [
                1 if lo >= c_k < hi else -1 if hi <= c_k > lo else None
                for lo, hi in (ranges.get(fi, (c_k, c_k)) for fi in faces)
            ]
            if None in signs:
                fi = faces[signs.index(None)]
                witnesses.append(f"face {fi} at vertex {v} carries no sign for tree {t.index}")
                continue
            corner_signs[v] = tuple(signs)
            # Consecutive corners always form one sequence: a chain of
            # deg - 1 >= 2 corners between the two boundary edges at an
            # attachment, a closed cycle around an interior vertex (even
            # degree >= 4).  So alternation is checked on `signs` directly.
            m = len(signs)
            for i in range(m - 1 if v in t.attach else m):
                if signs[i] == signs[(i + 1) % m]:
                    witnesses.append(
                        f"signs around {v} fail to alternate at position {i}"
                    )
                    break
            if v in t.attach:
                d = g.degree(v)
                if d % 2 == 1 and signs[0] == signs[-1]:
                    witnesses.append(
                        f"odd-degree vertex {v}: chain ends carry equal signs"
                    )
                if d % 2 == 0 and signs[0] != signs[-1]:
                    witnesses.append(
                        f"even-degree vertex {v}: chain ends carry opposite signs"
                    )
                i_gamma = dec.position[v]
                nxt = dec.gamma.vertices[(i_gamma + 1) % len(dec.gamma.vertices)]
                prv = dec.gamma.vertices[i_gamma - 1]
                want_first = 1 if heights.value[nxt] > c_k else -1
                want_last = 1 if heights.value[prv] > c_k else -1
                if signs[0] != want_first:
                    witnesses.append(
                        f"first corner at {v} has sign {signs[0]}, expected "
                        f"{want_first} from neighbor {nxt}"
                    )
                if signs[-1] != want_last:
                    witnesses.append(
                        f"last corner at {v} has sign {signs[-1]}, expected "
                        f"{want_last} from neighbor {prv}"
                    )
            elif m % 2 == 1:
                witnesses.append(f"odd face count around interior vertex {v}")
    return CensusResult(not witnesses, tuple(witnesses), corner_signs)
