"""Command-line interface.

Exit codes: 0 = accepted / success, 1 = input graph rejected (or, in
`enumerate --mode trees`, the criterion disagrees with the oracle),
2 = usage, file, or validation error.  A known command is parsed by its
own parser alone; help and usage errors go through the full parser.

The witness layers (`realization`, `svg`, and numpy under them) are
imported inside the code that draws, and `census` inside `enumerate`,
so deciding a graph, and `check --json` with its heights, starts
without them.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .conditions import is_delta_graph
from .errors import DiskDiagramError, NotDeltaGraph
from .formats import embedding_json, parse, to_dot
from .orders import assign_heights, boundary_extrema
from .planarity import build_embedding, face_arcs


def _load(path):
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise DiskDiagramError(f"cannot read {path}: {exc.strerror}")
    return parse(text)


def _refuse(what, exc):
    print(f"{what}: fails {exc.condition}", file=sys.stderr)
    for w in exc.witnesses[:5]:
        print(f"  - {w}", file=sys.stderr)
    return 1


def _verdict_doc(verdict):
    doc = {
        "delta": verdict.delta,
        "reports": [
            {
                "condition": r.condition,
                "passed": r.passed,
                "witnesses": list(r.witnesses),
            }
            for r in verdict.reports
        ],
    }
    if verdict.delta:
        # faces and heights only: the coordinates `place` adds are not printed
        dec = verdict.decomposition
        emb, heights = build_embedding(dec), assign_heights(dec.graph, dec)
        doc["embedding"] = {
            "faces": len(emb.faces),
            "inner_face_arcs": face_arcs(emb),
        }
        doc["realization"] = {
            "heights": {v: heights.value[v] for v in sorted(heights.value)},
            "boundary_extrema": len(boundary_extrema(verdict.gamma, heights)),
        }
    return doc


def cmd_check(args):
    g = _load(args.file)
    verdict = is_delta_graph(g)
    if args.json:
        doc = _verdict_doc(verdict)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"Δ-graph: {'yes' if verdict.delta else 'no'}")
        for r in verdict.reports:
            mark = "ok" if r.passed else "FAIL"
            print(f"  {r.condition}: {mark}")
            if not r.passed:
                for w in r.witnesses[:5]:
                    print(f"    - {w}")
    return 0 if verdict.delta else 1


def cmd_realize(args):
    from .realization import realize
    from .svg import render_svg

    g = _load(args.file)
    mode = "strict" if args.strict_order else "default"
    try:
        f = realize(g, mode=mode)
    except NotDeltaGraph as exc:
        return _refuse("not realizable", exc)
    text = render_svg(f, levels=args.levels)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DiskDiagramError(f"cannot write {args.out}: {exc.strerror}")
    print(f"wrote {args.out}")
    return 0


def cmd_embed(args):
    from .realization import place

    g = _load(args.file)
    try:
        emb, heights = place(is_delta_graph(g))
    except NotDeltaGraph as exc:
        return _refuse("cannot embed", exc)
    if args.format == "dot":
        sys.stdout.write(to_dot(g, heights))
    else:
        sys.stdout.write(embedding_json(emb, heights))
    return 0


def cmd_enumerate(args):
    from .census import format_graphs_census, format_trees_census, graphs_census, trees_census

    if args.mode == "trees":
        rows = trees_census(args.max)
        print(format_trees_census(rows))
        return 1 if any(r.disagreements for r in rows) else 0
    res = graphs_census(args.max)
    print(format_graphs_census(res))
    return 0


def _levels(text):
    if (n := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


_levels.__name__ = "int"  # a non-number still reads "invalid int value: 'x'"


@functools.cache
def make_parser():
    """The argument parser, built once per process.  `main` parses a known
    command with its own parser in `.commands` alone, help and errors with
    the full parser; parsing modifies neither, so every call shares them.
    """
    p = argparse.ArgumentParser(
        prog="diskdiagram",
        description=(
            "Decide whether a partially ordered multigraph is realizable "
            "as the level diagram of a height function on the disk, and "
            "draw a witness when it is."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run the condition battery on a file")
    c.add_argument("file")
    c.add_argument("--json", action="store_true", help="machine-readable verdict")
    c.set_defaults(func=cmd_check)

    r = sub.add_parser("realize", help="render a witness height function as SVG")
    r.add_argument("file")
    r.add_argument("--out", required=True, help="output SVG path")
    r.add_argument("--levels", type=_levels, default=5, help="level curves to draw")
    r.add_argument(
        "--strict-order",
        action="store_true",
        help="equal heights for order-incomparable vertices when consistent",
    )
    r.set_defaults(func=cmd_realize)

    e = sub.add_parser("embed", help="print the disk embedding")
    e.add_argument("file")
    e.add_argument("--format", choices=("dot", "json"), default="json")
    e.set_defaults(func=cmd_embed)

    n = sub.add_parser("enumerate", help="exhaustive small-instance census")
    n.add_argument("--max", type=int, required=True, help="largest vertex count")
    n.add_argument("--mode", choices=("trees", "graphs"), default="trees")
    n.set_defaults(func=cmd_enumerate)
    p.commands = sub.choices
    return p


def main(argv=None):
    parser = make_parser()
    argv = sys.argv[1:] if argv is None else argv
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if sub is None or extra:  # help, errors and unknown commands
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DiskDiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
