"""Quick fixture run of the condition battery and the placed embeddings."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diskdiagram.conditions import is_delta_graph
from diskdiagram.fixtures import EXPECTED, build
from diskdiagram.planarity import face_arcs
from diskdiagram.realization import place


def main():
    failures = 0
    for name, (want_delta, want_fail) in EXPECTED.items():
        g = build(name)
        v = is_delta_graph(g)
        ok = v.delta == want_delta and v.failed_condition() == want_fail
        status = "ok" if ok else "MISMATCH"
        print(
            f"{name:14s} delta={v.delta!s:5s} "
            f"first_fail={v.failed_condition()} [{status}]"
        )
        if not ok:
            failures += 1
            for r in v.reports:
                print("   ", r.condition, r.passed, r.witnesses[:3])
        if v.delta:
            emb, _ = place(v)
            arcs = face_arcs(emb)
            print(f"{'':14s} faces={len(emb.faces)} arcs={arcs}")
            if any(a not in (1, 2) for a in arcs):
                print("    BAD ARC COUNT")
                failures += 1
    return failures


if __name__ == "__main__":
    sys.exit(1 if main() else 0)
