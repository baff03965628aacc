"""Exhaustive cross-check of the fast run-counting planarity criterion.

Enumerates every tree up to --trees vertices, one per isomorphism class,
every admissible boundary-vertex set, and every cyclic order of that
set, then compares the criterion, read from the runs of ring vertices
beyond each tree edge, against a brute force search over all rotation
systems.  A second sweep feeds every small connected multigraph up to
--graphs vertices through the full decision pipeline and prints the
verdict tallies.  Exits 0 when the criterion and the oracle agree
everywhere, 1 on a disagreement, and 2 on a size out of range.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diskdiagram.census import (
    format_graphs_census,
    format_trees_census,
    graphs_census,
    trees_census,
)
from diskdiagram.errors import DiskDiagramError


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trees", type=int, default=7,
                    help="max tree size for the criterion-vs-oracle sweep")
    ap.add_argument("--graphs", type=int, default=4,
                    help="max graph size for the pipeline tally sweep")
    ap.add_argument("--budget", type=int, default=None,
                    help="search budget override for both sweeps")
    args = ap.parse_args(argv)

    kw = {} if args.budget is None else {"budget": args.budget}
    try:
        return _sweep(args, kw)
    except DiskDiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _sweep(args, kw):
    t0 = time.perf_counter()
    rows = trees_census(args.trees, **kw)
    t1 = time.perf_counter()
    print(format_trees_census(rows))
    print(f"tree sweep: {t1 - t0:.1f} s")
    disagreements = sum(len(r.disagreements) for r in rows)

    t2 = time.perf_counter()
    res = graphs_census(args.graphs, **kw)
    t3 = time.perf_counter()
    print(format_graphs_census(res))
    print(f"graph sweep: {t3 - t2:.1f} s")

    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
