"""Sweep the generated corpus: realize every instance and check invariants.

For each family spec the graph is built in both order modes (minimal and
saturated), run through the full decision + realization pipeline, and
checked against the structural invariants: inner faces carry one or two
boundary arcs, face counts satisfy the Euler relation, boundary extrema
alternate with even count at exactly the even-degree boundary vertices,
the corner-sign census passes, the order induced by the heights
extends the input order, and every face's triangles have positive area,
tile its polygon, are flat nowhere and join no two vertices of a tree
level that no tree edge joins.  Without --limit the size-ladder shapes
d = 1..5 (up to 1 703 vertices) follow the corpus specs, and then
d = 6 (5 105 vertices) in minimal order only.  With --strict
the strict height mode runs as well and the equality-vs-congruence
tallies are reported.
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diskdiagram.conditions import is_delta_graph
from diskdiagram.families import build_instance, corpus_specs, ladder_spec
from diskdiagram.orders import check_A4, induced_order
from diskdiagram.planarity import face_arcs
from diskdiagram.realization import extend_to_faces, place, sign_census


def signed_area(p):
    """Shoelace area of the polygon (or stack of polygons) on the last axes."""
    x, y = p[..., 0], p[..., 1]
    return 0.5 * (x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y).sum(axis=-1)


def check_instance(g, f):
    """Return a list of invariant-violation strings (empty when clean)."""
    problems = []
    arcs = face_arcs(f.embedding)
    if any(a not in (1, 2) for a in arcs):
        problems.append(f"bad face arc counts {arcs}")
    if len(g.vertices) - len(g.edges) + len(f.embedding.faces) != 2:
        problems.append("face count breaks the Euler relation")
    dec = f.decomposition
    ext = f.boundary_extrema()
    if len(ext) % 2:
        problems.append(f"odd number of boundary extrema ({len(ext)})")
    even = {v for v in dec.gamma.vertices if g.degree(v) % 2 == 0}
    if {v for v, _ in ext} != even:
        problems.append("extrema not at the even-degree boundary vertices")
    census = sign_census(f)
    if not census.passed:
        problems.append(f"sign census failed: {census.witnesses[:2]}")
    if not induced_order(f.heights).extends(g.order):
        problems.append("induced order does not extend the input order")
    return problems + triangle_problems(f)


def triangle_problems(f):
    """Faults of the witness's triangles, face by face.

    Every triangle has positive area and a face's triangles tile its
    polygon.  No triangle has three equal values, since the function
    would be flat on it.  At every tree level c, no triangle edge with
    both ends at c joins two graph vertices that no tree edge joins, so
    the level set there holds no chord beside the tree.
    """
    problems = []
    for fm in f.face_maps:
        areas = signed_area(fm.points[fm.triangles])
        if areas.min() <= 0:
            problems.append(f"face {fm.face_index} has a triangle without positive area")
        elif abs(areas.sum() - signed_area(fm.points)) > 1e-12:
            problems.append(f"face {fm.face_index}: triangle areas do not sum to its polygon's")
    face = np.repeat(f.face_indices, np.array(f.face_sizes) - 2)
    vals = f.values[f.triangles]
    for i in np.unique(face[vals.min(axis=1) == vals.max(axis=1)]).tolist():
        problems.append(f"face {i} has a triangle with three equal values")
    nv = len(f.vertex_names)
    edges = np.stack([f.triangles.ravel(), f.triangles[:, [1, 2, 0]].ravel()])
    ids, at = f.point_ids[edges], f.values[edges]
    tree_levels = [f.heights.level(t) for t in f.decomposition.trees]
    joined = np.sort(f.tree_ends, axis=1) @ (nv, 1)
    chord = (ids < nv).all(axis=0) & (at[0] == at[1]) & np.isin(at[0], tree_levels)
    chord &= ~np.isin(ids.min(axis=0) * nv + ids.max(axis=0), joined)
    for i in np.unique(np.repeat(face, 3)[chord]).tolist():
        problems.append(f"face {i}: a triangle edge at a tree level joins two vertices "
                        "that no tree edge joins")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=None,
                    help="only the first N family specs")
    ap.add_argument("--strict", action="store_true",
                    help="also run strict height mode and tally congruence")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print one line per instance")
    args = ap.parse_args(argv)

    specs = corpus_specs()
    if args.limit is not None:
        specs = specs[: args.limit]
    else:
        specs += [ladder_spec(d) for d in (1, 2, 3, 4, 5, 6)]
    cases = [(spec, mode) for spec in specs for mode in ("minimal", "saturated")]
    if args.limit is None:
        cases.remove((specs[-1], "saturated"))  # d = 6 in minimal order only
    t0 = time.perf_counter()
    bad = 0
    total = 0
    congruent = 0
    equal_strict = 0
    mismatched = 0
    for spec, mode in cases:
        g = build_instance(spec, mode)
        verdict = is_delta_graph(g)
        if not verdict.delta:
            bad += 1
            print(f"REJECTED {spec.name} [{mode}]: "
                  f"{verdict.failed_condition()}")
            continue
        f = extend_to_faces(*place(verdict))
        problems = check_instance(g, f)
        total += 1
        if problems:
            bad += 1
            for p in problems:
                print(f"BAD {spec.name} [{mode}]: {p}")
        elif args.verbose:
            print(f"ok {spec.name} [{mode}] "
                  f"n={len(g.vertices)} faces={len(f.embedding.faces)}")
        if args.strict:
            a4 = check_A4(g.order).passed
            congruent += a4
            _, strict_heights = place(verdict, mode="strict")
            eq = induced_order(strict_heights) == g.order
            equal_strict += eq
            if eq != a4:
                mismatched += 1
                print(f"MISMATCH {spec.name} [{mode}]: "
                      f"strict equality {eq} but congruence {a4}")
    dt = time.perf_counter() - t0
    print(f"{total} instances realized from {len(specs)} specs "
          f"in {dt:.1f} s; {bad} problem(s)")
    if args.strict:
        print(f"strict mode: {congruent} congruent orders, "
              f"{equal_strict} exact recoveries, {mismatched} mismatch(es)")
    return 1 if bad or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
