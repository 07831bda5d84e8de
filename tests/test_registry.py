"""The registry is the one list of names: the README tables, the import
layering and the parameter types all follow it."""

import ast
import pathlib
import re

import numpy as np
import pytest

from bellkit.errors import UnknownNameError, ValidationError
from bellkit.registry import FAMILIES, FUNCTIONALS, build_state, lookup

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bellkit"


def _table_names(heading: str) -> list:
    """First-column names of the markdown table under `heading`."""
    text = (ROOT / "README.md").read_text()
    section = text.split(heading, 1)[1]
    names = []
    for line in section.splitlines()[1:]:
        if line.startswith("#"):
            break
        match = re.match(r"\|\s*`([^`]+)`\s*\|", line)
        if match:
            names.append(match.group(1))
    return names


def test_readme_tables_list_the_registry():
    assert _table_names("### State families") == list(FAMILIES)
    assert _table_names("### Functionals") == list(FUNCTIONALS)


def test_no_import_cycle_and_search_below_cli():
    graph = {}
    for path in SRC.glob("*.py"):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps |= {node.module} if node.module else {a.name for a in node.names}
        graph[path.stem] = deps - {"__init__"}
    assert "cli" not in graph["search"] and "search" not in graph["registry"]

    def reach(start, seen):
        for dep in graph.get(start, ()):
            if dep not in seen:
                seen.add(dep)
                reach(dep, seen)
        return seen

    for module in graph:
        if module != "__init__":
            assert module not in reach(module, set()), module


def test_family_names_are_constructor_names():
    from bellkit import states
    for name, family in FAMILIES.items():
        assert callable(getattr(states, name)), name


@pytest.mark.parametrize("params", [{"n": 2.5}, {"n": True}, {"n": "3"}, {"n": 2, "m": 1},
                                    {}, {"n": None}])
def test_build_state_rejects_malformed_params(params):
    with pytest.raises(ValidationError):
        build_state("maximally_entangled", params)


def test_build_state_takes_integral_floats_and_numpy_integers():
    assert build_state("maximally_entangled", {"n": 2.0}).dims == (3, 3)
    assert build_state("dicke", {"n": np.int64(4), "k": np.float64(2.0)}).n_atoms == 4


def test_lookup_by_subcommand():
    assert lookup("chsh", "lhv-bound") is FUNCTIONALS["chsh"]
    for name, command in (("cfrd", "optimize"), ("mermin", "lhv-bound"), ("reid", "scan"),
                          ("nope", "evaluate")):
        with pytest.raises(UnknownNameError):
            lookup(name, command)
