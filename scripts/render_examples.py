"""Render witness drawings for the built-in fixtures and corpus samples.

Every realizable fixture (and, with --corpus N, the first N corpus
instances) is run through the pipeline and written to the output
directory as an SVG witness drawing plus the Graphviz and JSON exports
of the annotated embedding.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diskdiagram.families import build_instance, corpus_specs
from diskdiagram.fixtures import EXPECTED, build
from diskdiagram.formats import embedding_json, to_dot
from diskdiagram.realization import realize
from diskdiagram.svg import render_svg


def write_all(out, name, g, f, levels):
    svg = render_svg(f, levels=levels)
    (out / f"{name}.svg").write_text(svg, encoding="utf-8")
    (out / f"{name}.dot").write_text(
        to_dot(g, f.heights), encoding="utf-8"
    )
    (out / f"{name}.json").write_text(
        embedding_json(f.embedding, f.heights), encoding="utf-8"
    )
    print(f"wrote {out / name}.{{svg,dot,json}}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("rendered"),
                    help="output directory (created if missing)")
    ap.add_argument("--corpus", type=int, default=0,
                    help="also render the first N corpus instances")
    ap.add_argument("--mode", default="default",
                    choices=("default", "strict", "random"),
                    help="height assignment mode")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for random height mode")
    ap.add_argument("--levels", type=int, default=5,
                    help="number of intermediate level curves")
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    for name, (is_delta, _) in sorted(EXPECTED.items()):
        if not is_delta:
            continue
        g = build(name)
        f = realize(g, mode=args.mode, seed=args.seed)
        write_all(args.out, name, g, f, args.levels)
    for spec in corpus_specs()[: args.corpus]:
        g = build_instance(spec, "minimal")
        f = realize(g, mode=args.mode, seed=args.seed)
        safe = spec.name.replace("[", "_").replace("]", "").replace(",", "-")
        write_all(args.out, f"corpus_{safe}", g, f, args.levels)
    return 0


if __name__ == "__main__":
    sys.exit(main())
