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
    # every search problem is built beside its evaluator, not in the registry or the search
    builders = {name: entry.optimize for name, entry in FUNCTIONALS.items() if entry.optimize}
    assert {name: f.__module__ for name, f in builders.items()} == \
        dict.fromkeys(builders, "bellkit.functionals")


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


def _report(command: str, name: str):
    """The report (or scan table) of REPORT_SPECS[command][name], as the CLI computes it."""
    from bellkit.cli import _check

    spec = REPORT_SPECS[command][name]
    spec = dict(spec, functional={"name": name, "params": spec.get("params", {})})
    if command == "optimize":
        spec["search"] = _SEARCH
    return _check(command, {k: v for k, v in spec.items() if k != "params"})()


@pytest.mark.parametrize("command", list(REPORT_SPECS))
def test_every_report_is_plain_json(command):
    # json.dumps refuses numpy bools, so every report carries plain
    # Python values and needs no conversion before it is written
    specs = REPORT_SPECS[command]
    assert set(specs) == {name for name, entry in FUNCTIONALS.items()
                          if getattr(entry, command.replace("-", "_")) is not None}
    for name in specs:
        report = _report(command, name)
        assert json.loads(json.dumps(report)) == report, name


def test_every_report_states_its_state_record():
    # one record rule: a report's state is its state's meta, which states._record writes for
    # every catalog state, and a key has one type whichever path built the state
    from bellkit import states
    from bellkit.functionals import tura_value
    from bellkit.spin import UnitVector
    from test_cli_fuzz import STATES

    assert {s["family"] for s in STATES} == set(FAMILIES)
    built = [build_state(s["family"], s["params"]) for s in STATES]
    direct = [states.singlet(2), states.angular_momentum_eigenstate(2, 2, 1, 0),
              states.werner(1, -1), states.relative_phase(1, 0), states.dicke(4, 2),
              states.ghz(3)]
    pair = {"family": "cfrd_pair", "two_s": 1, "N_A": 1, "N_B": 1}
    limit = {"family": "drummond_limit", "J": 5, "theta": 0.1}
    records = [st.meta for st in built + direct] + [pair]
    for command in ("evaluate", "optimize"):
        for name, spec in REPORT_SPECS[command].items():
            if name == "cglmp_I":  # no state: given tables
                continue
            state = spec.get("state") or {"family": "ghz", "params": spec["params"]}
            want = {"cfrd_weights": pair, "drummond": limit}.get(name) or build_state(**state).meta
            assert _report(command, name)["state"] == want, (command, name)
            records.append(want)
    assert _report("evaluate", "tura")["state"] == {"family": "dicke", "n": 4, "k": 2}
    hand_made = states.SymmetricState(1, np.array([1.0, 0.0]))
    assert tura_value(hand_made, UnitVector(0, 0, 1), UnitVector(1, 0, 0)).state_meta == {}
    types = {}
    for record in records:
        for key, value in record.items():
            for where in ((record["family"], key), key):
                types.setdefault(where, set()).add(type(value))
    # k names dicke's excitation count (int) and a coupled pair's magnetic number K (float)
    assert {where: t for where, t in types.items() if len(t) > 1} == {"k": {int, float}}
