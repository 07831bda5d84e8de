"""Front-door fuzzing: malformed run-specs map to documented exit codes.

Valid base specs, one per subcommand and functional, are mutated at
random (seeded) and run through `cli.run` in process.  Every run must
return 0, 2, 3, 4 or 5 and nothing may raise out of `run()`.  Sizes are
kept at most 8 or at least 1e12, and search budgets small, so that
every spec either finishes quickly or is refused before allocation.
"""

import copy
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bellkit.cli import (
    EXIT_BAD_SPEC,
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_UNKNOWN_NAME,
    EXIT_UNWRITABLE,
    run,
)

R2 = 1 / math.sqrt(2)
CHSH_SETTINGS = {"u1": [0, 0, 1], "u2": [1, 0, 0], "v1": [R2, 0, R2], "v2": [-R2, 0, R2]}
SEARCH = {"seed": 3, "restarts": 1, "max_evals_per_restart": 30}

STATES = [
    {"family": "maximally_entangled", "params": {"n": 1}},
    {"family": "relative_phase", "params": {"n": 2, "theta": 0.4}},
    {"family": "werner", "params": {"n": 1, "phi": -0.5}},
    {"family": "angular_momentum_eigenstate", "params": {"n_a": 2, "n_b": 2, "j": 1, "k": 0}},
    {"family": "singlet", "params": {"two_s": 2}},
    {"family": "rm_weighted", "params": {"two_s": 1, "r": [1, 0.5]}},
    {"family": "ghz", "params": {"n": 3}},
    {"family": "dicke", "params": {"n": 4, "k": 2}},
    {"family": "separable_mixture", "params": {"components": [
        {"weight": 0.5, "rho_a": [[1, 0], [0, 0]], "rho_b": [[0.5, 0.5], [0.5, 0.5]]},
        {"weight": 0.5, "rho_a": [[0.5, 0], [0, 0.5]], "rho_b": [[0, 0], [0, 1]]}]}},
]
ME, SINGLET, DICKE = STATES[0], STATES[4], STATES[7]

BASE = [
    ("evaluate", {"state": ME, "functional": {"name": "chsh"}, "settings": CHSH_SETTINGS}),
    ("evaluate", {"state": SINGLET, "functional": {"name": "mermin"}, "settings": {"theta": 0.3}}),
    ("evaluate", {"state": SINGLET, "functional": {"name": "mermin"},
                  "settings": {"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1],
                               "reading": "literal"}}),
    ("evaluate", {"state": ME, "functional": {"name": "reid"},
                  "settings": {"theta": 0.1, "theta_star": 0.9, "phi": 0.4, "phi_star": 1.3}}),
    ("evaluate", {"state": DICKE, "functional": {"name": "tura"},
                  "settings": {"n0": [0, 0, 1], "n1": [1, 0, 0]}}),
    ("evaluate", {"state": STATES[1], "functional": {"name": "cfrd"}}),
    ("evaluate", {"state": STATES[2], "functional": {"name": "cfrd_quadrature"}}),
    ("evaluate", {"functional": {"name": "drummond", "params": {"J": 5, "theta": 0.1}}}),
    ("evaluate", {"functional": {"name": "mabk", "params": {"n": 4}}}),
    ("evaluate", {"functional": {"name": "cglmp_I", "params": {
        "d": 2, "tables": [[[0.25, 0.25], [0.25, 0.25]]] * 4}}}),
    ("optimize", {"state": ME, "functional": {"name": "chsh"}, "search": SEARCH}),
    ("optimize", {"state": SINGLET, "functional": {"name": "mermin"}, "search": SEARCH}),
    ("optimize", {"state": ME, "functional": {"name": "reid"}, "search": SEARCH}),
    ("optimize", {"state": DICKE, "functional": {"name": "tura"},
                  "search": dict(SEARCH, coplanar=True)}),
    ("optimize", {"functional": {"name": "cfrd_weights", "params": {"two_s": 1}},
                  "search": SEARCH}),
    ("lhv-bound", {"functional": {"name": "chsh"}}),
    ("lhv-bound", {"functional": {"name": "generalized_chsh",
                                  "params": {"two_s_a": 2, "two_s_b": 1}}}),
    ("lhv-bound", {"functional": {"name": "cglmp", "params": {"d": 3}}}),
    ("lhv-bound", {"functional": {"name": "tura_symmetric", "params": {"n": 5}}}),
    ("scan", {"state": SINGLET, "functional": {"name": "mermin"},
              "scan": {"parameter": "sin_theta_geometry", "grid": [0.2, 0.5, 0.8]}}),
    ("scan", {"state": {"family": "werner", "params": {"n": 1}}, "functional": {"name": "chsh"},
              "settings": "optimize", "search": SEARCH,
              "scan": {"parameter": "phi", "grid": {"start": -1, "stop": 1, "count": 3}}}),
    ("scan", {"state": {"family": "relative_phase", "params": {"n": 1}},
              "functional": {"name": "chsh"}, "settings": CHSH_SETTINGS,
              "scan": {"parameter": "theta", "grid": [0.0, 0.5]}}),
]

NAMES = ["chsh", "mermin", "reid", "tura", "cfrd", "cfrd_quadrature", "drummond", "mabk",
         "cglmp_I", "cfrd_weights", "generalized_chsh", "cglmp", "tura_symmetric", "nope"]
# sizes at most 8 or at least 1e12; no search budget that runs above 2 restarts x 50
# evaluations (10**12 is refused by the budget cap)
BAD = ["x", "", True, False, None, [], [1], [1, "a"], {}, {"a": 1}, 2.5, -1, 0, 1, 3, 8,
       -10 ** 12, 10 ** 12, 10 ** 15, 10 ** 400, 1e12, 1e308, -1e308, float("nan"),
       float("inf"), "NaN"]
TOP = ["functional", "state", "settings", "search", "scan"]
BUDGET = {"restarts": [-1, 0, 1, 2, "2", 2.0, True, None, 10 ** 12],
          "max_evals_per_restart": [-5, 0, 1, 50, "50", 7.5, [], None, 10 ** 12]}


def _paths(node, path=()):
    """Every (path, value) in the spec tree, the root excluded."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


def _set(spec, path, value):
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _delete(spec, path):
    node = spec
    for key in path[:-1]:
        node = node[key]
    if isinstance(node, dict):
        del node[path[-1]]


def mutate(spec, rng):
    spec = copy.deepcopy(spec)
    paths = [p for p, _ in _paths(spec)]
    if not paths:
        return [spec]
    path = paths[int(rng.integers(len(paths)))]
    kind = int(rng.integers(7))
    if kind == 0 and rng.random() < 0.25:  # a top-level block the spec lacked
        path = (TOP[int(rng.integers(len(TOP)))],)
    ints = [p for p, v in _paths(spec) if type(v) is int and p[-1] not in BUDGET]
    if kind == 6 and ints:  # a size far beyond every cap, or below every range
        path = ints[int(rng.integers(len(ints)))]
    if path[-1] in BUDGET:  # search budgets stay small whatever the mutation
        _set(spec, path, BUDGET[path[-1]][int(rng.integers(len(BUDGET[path[-1]])))])
    elif kind == 6:
        _set(spec, path, [10 ** 12, 10 ** 15, 10 ** 400, -1, 0][int(rng.integers(5))])
    elif kind == 0:  # a wrong JSON type or an out-of-range value
        _set(spec, path, BAD[int(rng.integers(len(BAD)))])
    elif kind == 1:  # a missing key
        _delete(spec, path)
    elif kind == 2:  # an unknown key next to a known one
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict):
            parent["bogus"] = 1
        else:
            parent.append(0.5)
    elif kind == 3:  # a family swapped onto the functional
        spec["state"] = copy.deepcopy(STATES[int(rng.integers(len(STATES)))])
    elif kind == 4:  # another functional name
        if isinstance(spec.get("functional"), dict):
            spec["functional"]["name"] = NAMES[int(rng.integers(len(NAMES)))]
    else:  # a list where an object goes, or the top level itself
        target = path[:-1] or None
        if target is None:
            spec = [spec]
        else:
            _set(spec, target, [1])
    return spec


def _run(tmp_path, i, command, spec):
    path = tmp_path / f"spec{i}.json"
    path.write_text(json.dumps(spec))
    return run([command, "--spec", str(path), "--out", str(tmp_path / "out.json")])


def test_fuzzed_specs_exit_with_documented_codes(tmp_path, capsys):
    rng = np.random.default_rng(20261018)
    documented = {EXIT_OK, EXIT_BAD_SPEC, EXIT_UNKNOWN_NAME, EXIT_CAPACITY, EXIT_UNWRITABLE}
    seen = {}
    t0 = time.perf_counter()
    for i in range(600):
        command, base = BASE[i % len(BASE)]
        spec = mutate(base, rng)
        if rng.random() < 0.3:
            spec = mutate(spec, rng) if isinstance(spec, dict) else spec
        code = _run(tmp_path, i, command, spec)
        assert code in documented, (command, spec, code)
        seen[code] = seen.get(code, 0) + 1
    capsys.readouterr()
    assert time.perf_counter() - t0 < 20.0
    # the mutations reach every error class, and some specs stay valid
    assert {EXIT_OK, EXIT_BAD_SPEC, EXIT_UNKNOWN_NAME, EXIT_CAPACITY} <= set(seen), seen


def test_base_specs_are_valid(tmp_path, capsys):
    for i, (command, spec) in enumerate(BASE):
        assert _run(tmp_path, i, command, spec) == EXIT_OK, (command, spec)


def _state(family, **params):
    return {"family": family, "params": params}


SCAN_PROBE = (EXIT_BAD_SPEC, "scan", {"state": SINGLET, "functional": {"name": "mermin"},
                                     "scan": {"parameter": "bogus", "grid": [0.1, 0.2]}})
PROBES = [
    # names come first: exit 3 even with no state
    (EXIT_UNKNOWN_NAME, "evaluate", {"functional": {"name": "no_such_functional"}}),
    (EXIT_UNKNOWN_NAME, "lhv-bound", {"functional": {"name": "mermin"}}),
    (EXIT_UNKNOWN_NAME, "evaluate", {"state": _state("nope"), "functional": "chsh"}),
    # sizes are refused before allocation
    (EXIT_CAPACITY, "evaluate", {"state": _state("maximally_entangled", n=10 ** 9),
                                 "functional": {"name": "chsh"}, "settings": CHSH_SETTINGS}),
    (EXIT_CAPACITY, "evaluate", {"state": _state("dicke", n=10 ** 12, k=1),
                                 "functional": {"name": "tura"},
                                 "settings": {"n0": [0, 0, 1], "n1": [1, 0, 0]}}),
    (EXIT_CAPACITY, "lhv-bound", {"functional": {"name": "cglmp", "params": {"d": 10 ** 12}}}),
    (EXIT_CAPACITY, "optimize", {"functional": {"name": "cfrd_weights",
                                                "params": {"two_s": 10 ** 12}}, "search": SEARCH}),
    # types, formerly tracebacks
    (EXIT_BAD_SPEC, "evaluate", {"state": _state("maximally_entangled", n="abc"),
                                 "functional": {"name": "chsh"}, "settings": CHSH_SETTINGS}),
    (EXIT_BAD_SPEC, "evaluate", {"state": _state("rm_weighted", two_s=1, r="ab"),
                                 "functional": {"name": "chsh"}, "settings": CHSH_SETTINGS}),
    (EXIT_BAD_SPEC, "evaluate", {
        "state": _state("separable_mixture", components=[
            {"weight": 1, "rho_a": "x", "rho_b": [[1, 0], [0, 0]]}]),
        "functional": {"name": "chsh"}, "settings": CHSH_SETTINGS}),
    (EXIT_BAD_SPEC, "evaluate", {"functional": {"name": "drummond",
                                                "params": {"J": "a", "theta": 0.1}}}),
    (EXIT_BAD_SPEC, "lhv-bound", {"functional": {"name": "cglmp", "params": {"d": "x"}}}),
    # integers beyond a float's range, which float arithmetic would overflow on
    (EXIT_BAD_SPEC, "evaluate", {"state": _state("singlet", two_s=10 ** 400),
                                 "functional": {"name": "chsh"}, "settings": CHSH_SETTINGS}),
    (EXIT_BAD_SPEC, "evaluate", {"functional": {"name": "drummond",
                                                "params": {"J": 10 ** 400, "theta": 0.1}}}),
    (EXIT_BAD_SPEC, "optimize", {"functional": {"name": "cfrd_weights",
                                                "params": {"two_s": "x"}}, "search": SEARCH}),
    (EXIT_BAD_SPEC, "evaluate", {"state": SINGLET, "functional": {"name": "mermin"},
                                 "settings": {"theta": "x"}}),
    (EXIT_BAD_SPEC, "evaluate", {"state": ME, "functional": "chsh",
                                 "settings": CHSH_SETTINGS}),
    (EXIT_BAD_SPEC, "evaluate", {"state": [1], "functional": {"name": "chsh"},
                                 "settings": CHSH_SETTINGS}),
    (EXIT_BAD_SPEC, "optimize", {"state": ME, "functional": {"name": "chsh"},
                                 "search": dict(SEARCH, seed="x")}),
    (EXIT_BAD_SPEC, "optimize", {"state": ME, "functional": {"name": "chsh"},
                                 "search": dict(SEARCH, seed=-1)}),
    (EXIT_BAD_SPEC, "evaluate", {"state": DICKE, "functional": {"name": "chsh"},
                                 "settings": CHSH_SETTINGS}),
    (EXIT_BAD_SPEC, "evaluate", {"state": DICKE, "functional": {"name": "cfrd"}}),
    (EXIT_BAD_SPEC, "evaluate", {"state": ME, "functional": {"name": "tura"},
                                 "settings": {"n0": [0, 0, 1], "n1": [1, 0, 0]}}),
    (EXIT_BAD_SPEC, "optimize", {"state": ME, "functional": {"name": "tura"},
                                 "search": SEARCH}),
    (EXIT_BAD_SPEC, "scan", {"state": SINGLET, "functional": {"name": "mermin"},
                             "scan": {"parameter": "sin_theta_geometry",
                                      "grid": {"start": 0.5, "stop": 1.2, "count": 4}}}),
    (EXIT_BAD_SPEC, "scan", {"state": SINGLET, "functional": {"name": "mermin"},
                             "scan": {"parameter": "sin_theta_geometry", "grid": "abc"}}),
    (EXIT_BAD_SPEC, "scan", {"state": SINGLET, "functional": {"name": "mermin"},
                             "scan": {"parameter": "sin_theta_geometry",
                                      "grid": {"start": 0.1, "stop": 0.5, "count": -3}}}),
    (EXIT_BAD_SPEC, "scan", {"state": _state("singlet", two_s=1), "functional": {"name": "chsh"},
                             "settings": CHSH_SETTINGS,
                             "scan": {"parameter": "theta_geometry", "grid": [0.1, 0.2]}}),
    # formerly exit 0 with a silently wrong reading
    (EXIT_BAD_SPEC, "evaluate", {"state": _state("maximally_entangled", n=2.5),
                                 "functional": {"name": "chsh"}, "settings": CHSH_SETTINGS}),
    (EXIT_BAD_SPEC, "evaluate", {"state": _state("maximally_entangled", n=True),
                                 "functional": {"name": "chsh"}, "settings": CHSH_SETTINGS}),
    (EXIT_BAD_SPEC, "evaluate", {"state": _state("maximally_entangled", n=1, m=2),
                                 "functional": {"name": "chsh"}, "settings": CHSH_SETTINGS}),
    SCAN_PROBE,
    (EXIT_BAD_SPEC, "optimize", {"state": ME, "functional": {"name": "chsh"},
                                 "search": dict(SEARCH, seed=1.7)}),
    (EXIT_BAD_SPEC, "optimize", {"state": ME, "functional": {"name": "chsh"},
                                 "search": dict(SEARCH, coplanar="false")}),
    # settings are read by evaluate only
    (EXIT_OK, "optimize", {"state": SINGLET, "functional": {"name": "mermin"}, "settings": {},
                           "search": SEARCH}),
    (EXIT_OK, "optimize", {"functional": {"name": "cfrd_weights", "params": {"two_s": 1}},
                           "settings": {"x": 1}, "search": SEARCH}),
    # integral floats are integers
    (EXIT_OK, "evaluate", {"state": _state("maximally_entangled", n=2.0),
                           "functional": {"name": "chsh"}, "settings": CHSH_SETTINGS}),
    # amplitudes that overflow to NaN; a search budget beyond its cap
    (EXIT_BAD_SPEC, "evaluate", {"state": _state("relative_phase", n=4, theta=1e308),
                                 "functional": {"name": "cfrd_quadrature"}}),
    (EXIT_CAPACITY, "optimize", {"state": ME, "functional": {"name": "chsh"},
                                 "search": dict(SEARCH, restarts=10 ** 12)}),
    # below a functional's range: formerly exit 0 (cglmp_I) or exit 4 (mabk); d is checked
    # against the tables before any outcome pair is built
    (EXIT_BAD_SPEC, "evaluate", {"functional": {"name": "cglmp_I", "params": {
        "d": 1, "tables": [[[1.0]]] * 4}}}),
    (EXIT_BAD_SPEC, "evaluate", {"functional": {"name": "cglmp_I", "params": {
        "d": 10 ** 12, "tables": [[[1.0]]] * 4}}}),
    (EXIT_BAD_SPEC, "evaluate", {"functional": {"name": "mabk", "params": {"n": 1}}}),
    (EXIT_CAPACITY, "evaluate", {"functional": {"name": "mabk", "params": {"n": 16}}}),
]


@pytest.mark.parametrize("code, command, spec", PROBES)
def test_probe(tmp_path, capsys, code, command, spec):
    assert _run(tmp_path, 0, command, spec) == code


def test_probe_as_module(tmp_path):
    """Under `python -m bellkit.cli` the CLI module is __main__; a scan
    error must still map to its exit code, not escape as a traceback."""
    code, command, spec = SCAN_PROBE
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "bellkit.cli", command, "--spec", str(path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
