"""Print one sha256 per CLI input and output on fixed workloads.

Every fixture, every corpus shape and ladder shapes d = 1..4 (both in
minimal and saturated order) is written to a graph file, and `cli.main`
runs on it in process: `check`, `check --json`, `embed` in json and dot,
and `realize` at `--levels` 5, 0 and 9, each with and without
`--strict-order`.  Each line is ``<sha256>  <input>  <command>``; the
hash of a command covers its exit code, stdout, stderr and, for
`realize`, the SVG it writes.  Two more lines, labelled ``census4``,
each hash one command, `check` or `check --json`, over all 93 944
instances of `census.census_inputs(4)` in order, so that the witness
text of every census reject is covered.  The ``usage`` lines, one per
argv of `USAGE` on the fixture G1, cover argument parsing: help, usage
errors and a valid call of each command; a run that exits through
`SystemExit` is hashed with the exit's code, and help is wrapped at 80
columns whatever the terminal.  A refactor that must keep every output
byte runs this in a checkout of each commit and diffs the two listings
(about two minutes each on a 2-core host):

    python scripts/output_hashes.py > after.txt
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal's width

from diskdiagram.census import census_inputs
from diskdiagram.cli import main as cli_main
from diskdiagram.families import build_instance, corpus_instances, ladder_spec
from diskdiagram.fixtures import FIXTURES, build
from diskdiagram.formats import GraphFile, serialize

COMMANDS = [["check"], ["check", "--json"], ["embed", "--format", "json"],
            ["embed", "--format", "dot"]]
COMMANDS += [["realize", "--levels", str(n)] + strict
             for n in (5, 0, 9) for strict in ([], ["--strict-order"])]
CENSUS_COMMANDS = [["check"], ["check", "--json"]]
# GRAPH stands for the graph file, OUT for realize's SVG path
USAGE = [
    [], ["-h"], ["--help"], ["bogus"], ["chec", "GRAPH"], ["-x", "check", "GRAPH"],
    ["check"], ["check", "-h"], ["check", "GRAPH", "extra"], ["check", "GRAPH", "a", "b"],
    ["check", "--js", "GRAPH"], ["check", "--", "GRAPH"], ["check", "GRAPH", "--bogus"],
    ["realize", "GRAPH"], ["realize", "-h"], ["realize", "GRAPH", "--out=OUT"],
    ["realize", "GRAPH", "--out", "OUT", "--levels", "nine"],
    ["realize", "GRAPH", "--out", "OUT", "--lev", "3", "--str"],
    ["realize", "GRAPH", "GRAPH", "--out", "OUT"],
    ["embed", "GRAPH", "--format", "xml"], ["embed", "-h"],
    ["enumerate"], ["enumerate", "--max", "x"], ["enumerate", "-h"],
    ["check", "GRAPH"], ["check", "GRAPH", "--json"], ["realize", "GRAPH", "--out", "OUT"],
    ["realize", "GRAPH", "--out", "OUT", "--levels", "0"], ["embed", "GRAPH", "--format", "dot"],
    ["enumerate", "--max", "3"], ["enumerate", "--max", "3", "--mode", "graphs"],
]


def inputs():
    """(label, graph) for the fixtures, the corpus and ladder d <= 4."""
    for name in FIXTURES:
        yield name, build(name)
    for spec, mode, g in corpus_instances():
        yield f"{spec.name}/{mode}", g
    for d in (1, 2, 3, 4):
        for mode in ("minimal", "saturated"):
            yield f"ladder{d}/{mode}", build_instance(ladder_spec(d), mode)


def run(argv, out):
    """The sha256 of one in-process CLI run; `out` is realize's SVG path,
    and the paths in its output are cut to names relative to its folder."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    h = hashlib.sha256(f"{code}\n".encode())
    folder = str(out.parent) + os.sep
    h.update(stdout.getvalue().replace(folder, "").encode())
    h.update(stderr.getvalue().replace(folder, "").encode())
    if out.exists():
        h.update(out.read_bytes())
        out.unlink()
    return h.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "graph.json", Path(tmp) / "witness.svg"
        path.write_text(serialize(build("G1")), encoding="utf-8")
        for template in USAGE:
            argv = [a.replace("GRAPH", str(path)).replace("OUT", str(out)) for a in template]
            print(f"{run(argv, out)}  usage  {' '.join(template) or '(none)'}")
        for label, g in inputs():
            text = serialize(g)
            path.write_text(text, encoding="utf-8")
            print(f"{hashlib.sha256(text.encode()).hexdigest()}  {label}  input")
            for command in COMMANDS:
                argv = [command[0], str(path)] + command[1:]
                if command[0] == "realize":
                    argv += ["--out", str(out)]
                print(f"{run(argv, out)}  {label}  {' '.join(command)}")
        hashes = [hashlib.sha256() for _ in CENSUS_COMMANDS]
        for names, edges, rel in census_inputs(4):
            path.write_text(serialize(GraphFile(tuple(names), edges, rel)), encoding="utf-8")
            for h, command in zip(hashes, CENSUS_COMMANDS):
                h.update(run([command[0], str(path)] + command[1:], out).encode())
        for h, command in zip(hashes, CENSUS_COMMANDS):
            print(f"{h.hexdigest()}  census4  {' '.join(command)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
