"""Time every stage of the size ladder, one shape per process.

Ladder d = 4..8 in minimal order and d = 4..6 in saturated order
(`families.ladder_spec`) each run in a fresh process, at most two at a
time, through five stages: build (`build_instance`), decide
(`is_delta_graph`), place, extend (`extend_to_faces`) and svg
(`render_svg`).  Each shape prints one JSON line: its V and E, the
seconds of each stage and the process's peak RSS in MiB.  A stage that
raises gives the name of its exception instead of seconds, and the
stages after it give null; its traceback goes to stderr.  It takes no
options:

    python scripts/ladder_record.py > BENCH_ladder.json
"""
import json
import multiprocessing
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diskdiagram.conditions import is_delta_graph
from diskdiagram.families import build_instance, ladder_spec
from diskdiagram.realization import extend_to_faces, place
from diskdiagram.svg import render_svg

SHAPES = [(d, "minimal") for d in range(4, 9)] + [(d, "saturated") for d in range(4, 7)]


def shape(d, mode):
    """The record of ladder shape ``d`` in order ``mode``, as a dict."""
    stages = {
        "build": lambda _: build_instance(ladder_spec(d), mode),
        "decide": is_delta_graph,
        "place": place,
        "extend": lambda placed: extend_to_faces(*placed),
        "svg": render_svg,
    }
    row = {"shape": f"ladder{d}/{mode}", "V": None, "E": None}
    row.update((f"{name}_s", None) for name in stages)
    x = None
    for name, stage in stages.items():
        t0 = time.perf_counter()
        try:
            x = stage(x)
        except Exception as e:
            traceback.print_exc()
            row[f"{name}_s"] = type(e).__name__
            break
        row[f"{name}_s"] = round(time.perf_counter() - t0, 3)
        if name == "build":
            row["V"], row["E"] = len(x.vertices), len(x.edges)
    # ru_maxrss is in KiB on Linux
    row["peak_rss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return row


def main():
    with multiprocessing.get_context("spawn").Pool(2, maxtasksperchild=1) as pool:
        for row in pool.starmap(shape, SHAPES, chunksize=1):
            print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
