"""The registry is the one list of names: the README tables, the import
layering and the parameter types all follow it."""

import ast
import json
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


_ME = {"family": "maximally_entangled", "params": {"n": 2}}
_SEARCH = {"seed": 3, "restarts": 1, "max_evals_per_restart": 30}
REPORT_SPECS = {
    "evaluate": {
        "chsh": {"state": _ME, "settings": {"u1": [0, 0, 1], "u2": [1, 0, 0],
                                             "v1": [0.6, 0, 0.8], "v2": [-0.6, 0, 0.8]}},
        "mermin": {"state": {"family": "singlet", "params": {"two_s": 2}},
                   "settings": {"theta": 0.3}},
        "reid": {"state": _ME, "settings": {"theta": 0.1, "theta_star": 0.9, "phi": 0.4,
                                             "phi_star": 1.3}},
        "tura": {"state": {"family": "dicke", "params": {"n": 4, "k": 2}},
                 "settings": {"n0": [0, 0, 1], "n1": [1, 0, 0]}},
        "cfrd": {"state": {"family": "relative_phase", "params": {"n": 2, "theta": 0.4}}},
        "cfrd_quadrature": {"state": {"family": "werner", "params": {"n": 1, "phi": -0.5}}},
        "drummond": {"params": {"J": 5, "theta": 0.1}},
        "mabk": {"params": {"n": 4}},
        "cglmp_I": {"params": {"d": 2, "tables": [[[0.25, 0.25], [0.25, 0.25]]] * 4}},
    },
    "optimize": {
        "chsh": {"state": _ME},
        "mermin": {"state": _ME},
        "reid": {"state": _ME},
        "tura": {"state": {"family": "dicke", "params": {"n": 4, "k": 2}}},
        "cfrd_weights": {"params": {"two_s": 1}},
    },
    "lhv-bound": {
        "chsh": {},
        "generalized_chsh": {"params": {"two_s_a": 2, "two_s_b": 1}},
        "cglmp": {"params": {"d": 3}},
        "tura_symmetric": {"params": {"n": 5}},
    },
    "scan": {
        "chsh": {"state": {"family": "werner", "params": {"n": 1}}, "settings": "optimize",
                 "search": _SEARCH, "scan": {"parameter": "phi", "grid": [-1.0, 0.5]}},
        "mermin": {"state": {"family": "singlet", "params": {"two_s": 2}},
                   "scan": {"parameter": "sin_theta_geometry", "grid": [0.2, 0.8]}},
    },
}


@pytest.mark.parametrize("command", list(REPORT_SPECS))
def test_every_report_is_plain_json(command):
    # json.dumps refuses numpy bools, so every report carries plain
    # Python values and needs no conversion before it is written
    from bellkit.cli import _check

    specs = REPORT_SPECS[command]
    assert set(specs) == {name for name, entry in FUNCTIONALS.items()
                          if getattr(entry, command.replace("-", "_")) is not None}
    for name, spec in specs.items():
        spec = dict(spec, functional={"name": name, "params": spec.get("params", {})})
        if command == "optimize":
            spec["search"] = _SEARCH
        report = _check(command, {k: v for k, v in spec.items() if k != "params"})()
        assert json.loads(json.dumps(report)) == report, name
