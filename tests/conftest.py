import importlib.util
from pathlib import Path

import pytest

from diskdiagram.census import census_inputs
from diskdiagram.conditions import is_delta_graph
from diskdiagram.families import (
    build_instance,
    corpus_instances,
    corpus_specs,
    ladder_spec,
)
from diskdiagram.fixtures import EXPECTED, FIXTURES, build
from diskdiagram.graph import build_graph
from diskdiagram.realization import realize


@pytest.fixture(scope="session")
def graphs():
    return {name: build(name) for name in FIXTURES}


@pytest.fixture(scope="session")
def verdicts(graphs):
    return {name: is_delta_graph(g) for name, g in graphs.items()}


@pytest.fixture(scope="session")
def delta_names():
    return [name for name, (ok, _) in EXPECTED.items() if ok]


@pytest.fixture(scope="session")
def realized(graphs, delta_names):
    return {name: realize(graphs[name]) for name in delta_names}


@pytest.fixture(scope="session")
def corpus():
    """All (spec, order_mode, graph) corpus instances."""
    return list(corpus_instances(corpus_specs()))


@pytest.fixture(scope="session")
def realized_corpus(corpus):
    """Corpus realized in default mode: (spec, mode, graph, function)."""
    return [
        (spec, mode, g, realize(g)) for spec, mode, g in corpus
    ]


@pytest.fixture(scope="session")
def ladder():
    """Size-ladder graphs d = 1..3 in both order modes: (d, mode) -> graph."""
    return {
        (d, mode): build_instance(ladder_spec(d), mode)
        for d in (1, 2, 3)
        for mode in ("minimal", "saturated")
    }


# positions in `census_inputs(4)` of the 14 graphs the census accepts
CENSUS_ACCEPTED = (1, 2, 3810, 3922, 21742, 21888, 29180, 29331, 31667, 31701,
                   32522, 32569, 32951, 32973)


@pytest.fixture(scope="session")
def census_accepted():
    """The census's accepted graphs as (label, graph), each checked accepted."""
    out = []
    for i, raw in enumerate(census_inputs(4)):
        if i in CENSUS_ACCEPTED:
            g = build_graph(*raw)
            assert is_delta_graph(g).delta, i
            out.append((f"census {i}", g))
    return out


def _load_script(name):
    """The module of scripts/<name>.py, imported from its file."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def load_script():
    return _load_script


@pytest.fixture(scope="session")
def check_instance():
    """The invariant audit of scripts/run_corpus.py."""
    return _load_script("run_corpus").check_instance


@pytest.fixture(scope="session")
def triangle_problems():
    """The triangle audit of scripts/run_corpus.py."""
    return _load_script("run_corpus").triangle_problems
