"""The benchmark's four workloads: their inputs, their tasks and each
task's output check.

Every input is drawn from the workload seed.  A task is one search or
one CLI invocation; its check returns None when the output matches the
independent oracle in oracles.py and a short reason otherwise.

This module imports only numpy, bellkit and oracles, so the set-up
probe (a fresh interpreter that builds a workload's inputs) pays for
nothing the program itself does not need.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bellkit
import oracles
from bellkit import SearchConfig

DOCUMENTED_EXITS = (0, 2, 3, 4, 5)


@dataclass
class Task:
    """One search run in process: `call` returns the program's report."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    known_failure: str | None = None


@dataclass
class CliTask:
    """One `bellkit` invocation.  `check` gets (exit code, output text or
    None) and `out` is the output file the invocation writes, if any."""

    label: str
    argv: list
    check: Callable[[int, str | None], str | None]
    out: Path | None = None
    known_failure: str | None = None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _search_seeds(rng, count: int) -> list:
    return [int(s) for s in rng.integers(0, 2 ** 31, size=count)]


def _rho(state) -> np.ndarray:
    return oracles.density(psi=state.psi, rho=state.rho)


def _mismatch(what: str, got, want) -> str:
    return f"{what}: got {got!r}, oracle {want!r}"


def _bipartite_label(state) -> str:
    return f"{state.meta['family']} n={state.meta['N_A']}"


def _search_tasks(functional: str, states: list, seed: int, config: dict,
                  check, label) -> list:
    """One `optimize_settings` search per state, search seeds drawn from
    the workload seed.  `check` gets (state, search seed, report)."""
    seeds = _search_seeds(_rng(seed, 2), len(states))
    return [Task(label=f"{functional} {label(state)}",
                 call=lambda st=state, c=SearchConfig(seed=s, **config):
                     bellkit.optimize_settings(st, functional, c),
                 check=lambda rep, st=state, s=s: check(st, s, rep))
            for state, s in zip(states, seeds)]


def _start_point(search_seed: int, ranges: list) -> list:
    """The angles a one-restart search starts from: the search draws
    them from the substream (search seed, restart 0), one uniform per
    angle range."""
    rng = np.random.default_rng([search_seed, 0])
    return [float(rng.uniform(lo, hi)) for lo, hi in ranges]


def _coplanar(alpha: float) -> np.ndarray:
    return np.array([math.sin(alpha), 0.0, math.cos(alpha)])


def _not_improved(what: str, got: float, start: float) -> str | None:
    """None when `got` beats the start point's `start` by more than the
    oracles' tolerance: a search that never accepts a step fails."""
    if got > start and not oracles.close(got, start):
        return None
    return f"{what} {got!r} no better than {start!r} at the start point"


# ---------------------------------------------------------------------------
# reid_binned: sign-binned ratio search (criterion 8) on pure and mixed states

REID_CONFIG = dict(restarts=1, max_evals_per_restart=40)
REID_RANGES = [(0.0, math.pi)] * 4


def reid_binned_inputs(seed: int) -> list:
    rng = _rng(seed, 1)
    # three tiers by cost: Werner (35% of tasks), N=2 (30%), N=20 (35%).
    # The median then falls inside the N=2 tier and the tail quantile,
    # 1 - 10/60, inside the N=20 tier, not in a gap between tiers where
    # a small shift in speed would move them from one tier to the next.
    states = [bellkit.maximally_entangled(20)] * 7 + [bellkit.maximally_entangled(2)] * 6
    for i in range(7):
        states.append(bellkit.werner(1 + i % 3, float(rng.uniform(-1.0, 1.0))))
    return states


def _check_reid_ratio(rho, two_s: int, search_seed: int, value, settings) -> str | None:
    """The ratio at the returned angles, and its gain over the start."""
    want = oracles.reid_ratio(rho, two_s, two_s, *settings)
    if not oracles.close(value, want):
        return _mismatch("ratio", value, want)
    start = oracles.reid_ratio(rho, two_s, two_s, *_start_point(search_seed, REID_RANGES))
    return _not_improved("ratio", value, start)


def _check_reid(state, search_seed: int, rep) -> str | None:
    return _check_reid_ratio(_rho(state), state.s_a.two_s, search_seed,
                             rep.value, rep.settings)


def reid_binned_tasks(states: list, seed: int, workdir: Path) -> list:
    return _search_tasks("reid", states, seed, REID_CONFIG, _check_reid, _bipartite_label)


# ---------------------------------------------------------------------------
# chsh_families: CHSH settings search over criterion 11's four families
# and criterion 2's singlet

# Most restarts converge within 800..1200 evaluations; the cap trims the
# few that keep accepting float-level improvements up to the default
# 2000, whose count per pass follows the seed rather than the code.
CHSH_CONFIG = dict(restarts=4, max_evals_per_restart=1200)


def chsh_families_inputs(seed: int) -> list:
    rng = _rng(seed, 1)
    states = [bellkit.singlet(1)]
    for n in range(1, 9):
        states += [bellkit.maximally_entangled(n),
                   bellkit.relative_phase(n, float(rng.uniform(0.0, 2 * math.pi))),
                   bellkit.werner(n, -1.0),
                   bellkit.angular_momentum_eigenstate(n, n, 0.0, 0.0)]
    return states


def _check_chsh(state, search_seed: int, rep) -> str | None:
    rho = _rho(state)
    two_a, two_b = state.s_a.two_s, state.s_b.two_s
    at = oracles.chsh_at(rho, two_a, two_b, *rep.settings)
    if not oracles.close(rep.value, at):
        return _mismatch("S at the returned settings", rep.value, at)
    best = oracles.chsh_max(rho, two_a, two_b)
    if not oracles.close(abs(rep.value), best):
        return _mismatch("max |S|", abs(rep.value), best)
    return None


def chsh_families_tasks(states: list, seed: int, workdir: Path) -> list:
    return _search_tasks("chsh", states, seed, CHSH_CONFIG, _check_chsh, _bipartite_label)


# ---------------------------------------------------------------------------
# tura_dicke: coplanar Tura witness search on large Dicke states
# (criterion 10's N = 50..100 part)

TURA_TASKS = 30
TURA_CONFIG = dict(restarts=1, coplanar=True, max_evals_per_restart=100)
TURA_RANGES = [(0.0, 2 * math.pi)] * 2


def tura_dicke_inputs(seed: int) -> list:
    rng = _rng(seed, 1)
    states = []
    for i in range(TURA_TASKS):
        # one N per equal-width stratum of 50..100, so the N^3 cost of a
        # pass does not swing with the seed
        n = 50 + int((i + rng.uniform()) * 51 / TURA_TASKS)
        states.append(bellkit.dicke(n, n // 2 + int(rng.integers(-2, 3))))
    return states


def _check_tura_w(n_atoms: int, k: int, search_seed: int, value, settings) -> str | None:
    """W at the returned settings, W >= 0 on a Dicke state, and its drop
    below the start point's W."""
    want = oracles.tura_dicke(n_atoms, k, *(np.asarray(v, dtype=float) for v in settings))
    if not oracles.close(value, want):
        return _mismatch("W", value, want)
    if value < -1e-9:
        return f"W = {value} < 0 on a Dicke state"
    start = oracles.tura_dicke(n_atoms, k, *map(_coplanar, _start_point(search_seed, TURA_RANGES)))
    return _not_improved("-W", -value, -start)


def _check_tura(state, search_seed: int, rep) -> str | None:
    n = state.n_atoms
    k = n - int(np.flatnonzero(np.abs(state.amplitudes) > 0.5)[0])
    return _check_tura_w(n, k, search_seed, rep.value, rep.settings)


def tura_dicke_tasks(states: list, seed: int, workdir: Path) -> list:
    return _search_tasks("tura", states, seed, TURA_CONFIG, _check_tura,
                         lambda state: f"dicke N={state.n_atoms}")


# ---------------------------------------------------------------------------
# cli_batch: one closed-loop client running `bellkit` invocations


def cli_batch_inputs(seed: int) -> None:
    """The CLI builds its own states, so set-up is the import alone."""
    return None


def _unit(rng) -> list:
    v = rng.normal(size=3)
    return [float(x) for x in v / np.linalg.norm(v)]


def _expect_ok(check_report: Callable[[dict], str | None]):
    def check(code: int, text: str | None) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        if text is None:
            return "no output written"
        return check_report(json.loads(text)["report"])
    return check


def _expect_exit(allowed: tuple):
    def check(code: int, text: str | None) -> str | None:
        if code not in allowed:
            kind = "documented" if code in DOCUMENTED_EXITS else "undocumented"
            return f"{kind} exit {code}, expected one of {list(allowed)}"
        return None
    return check


def _value_is(want: float, key: str = "value"):
    def check(report: dict) -> str | None:
        return None if oracles.close(report[key], want) else _mismatch(key, report[key], want)
    return check


def _settings_vectors(report: dict) -> list:
    return [np.asarray(v, dtype=float) for v in report["settings"]]


def cli_batch_tasks(inputs, seed: int, workdir: Path) -> list:
    rng = _rng(seed, 2)
    specs = []  # (label, command, spec, check, extra argv, output suffix, known failure)

    def add(label, command, spec, check, extra=(), suffix=".json", known=None):
        specs.append((label, command, spec, check, list(extra), suffix, known))

    # evaluate, one invocation per functional, against in-process oracles
    n = int(rng.integers(1, 5))
    u = [_unit(rng) for _ in range(4)]
    rho = _rho(bellkit.maximally_entangled(n))
    add("evaluate chsh", "evaluate",
        {"state": {"family": "maximally_entangled", "params": {"n": n}},
         "functional": {"name": "chsh"},
         "settings": dict(zip(("u1", "u2", "v1", "v2"), u))},
        _expect_ok(_value_is(oracles.chsh_at(rho, n, n, *u))))

    two_s = int(rng.integers(1, 5))
    theta = float(rng.uniform(0.0, math.pi / 2))
    add("evaluate mermin", "evaluate",
        {"state": {"family": "singlet", "params": {"two_s": two_s}},
         "functional": {"name": "mermin"}, "settings": {"theta": theta}},
        _expect_ok(_value_is(oracles.mermin_margin(
            _rho(bellkit.singlet(two_s)), two_s, *oracles.mermin_coplanar(theta)), "margin")))

    n = int(rng.integers(1, 5))
    angles = [float(a) for a in rng.uniform(0.0, math.pi, size=4)]
    add("evaluate reid", "evaluate",
        {"state": {"family": "maximally_entangled", "params": {"n": n}},
         "functional": {"name": "reid"},
         "settings": dict(zip(("theta", "theta_star", "phi", "phi_star"), angles))},
        _expect_ok(_value_is(oracles.reid_ratio(
            _rho(bellkit.maximally_entangled(n)), n, n, *angles))))

    n_atoms = int(rng.integers(10, 41))
    k = int(rng.integers(0, n_atoms + 1))
    n0, n1 = _unit(rng), _unit(rng)
    add("evaluate tura", "evaluate",
        {"state": {"family": "dicke", "params": {"n": n_atoms, "k": k}},
         "functional": {"name": "tura"}, "settings": {"n0": n0, "n1": n1}},
        _expect_ok(_value_is(oracles.tura_dicke(n_atoms, k, np.array(n0), np.array(n1)))))

    n = int(rng.integers(1, 4))
    theta = float(rng.uniform(0.0, 2 * math.pi))
    add("evaluate cfrd", "evaluate",
        {"state": {"family": "relative_phase", "params": {"n": n, "theta": theta}},
         "functional": {"name": "cfrd"}},
        _expect_ok(_value_is(oracles.cfrd_margin(
            _rho(bellkit.relative_phase(n, theta)), n, n), "margin")))

    n = int(rng.integers(1, 4))
    phi = float(rng.uniform(-1.0, 1.0))
    add("evaluate cfrd_quadrature", "evaluate",
        {"state": {"family": "werner", "params": {"n": n, "phi": phi}},
         "functional": {"name": "cfrd_quadrature"}},
        _expect_ok(_value_is(oracles.cfrd_quadrature(_rho(bellkit.werner(n, phi)), n, n))))

    j_bosons = int(rng.integers(50, 501))
    theta = float(rng.uniform(0.0, 0.2))
    add("evaluate drummond", "evaluate",
        {"functional": {"name": "drummond", "params": {"J": j_bosons, "theta": theta}}},
        _expect_ok(_value_is(oracles.drummond(j_bosons, theta))))

    n = 2 * int(rng.integers(1, 7))
    add("evaluate mabk", "evaluate",
        {"functional": {"name": "mabk", "params": {"n": n}}},
        _expect_ok(_value_is(oracles.mabk_ghz(n))))

    d = int(rng.integers(2, 6))
    tables = []
    for _ in range(4):
        t = rng.uniform(size=(d, d))
        tables.append((t / t.sum()).tolist())
    add("evaluate cglmp_I", "evaluate",
        {"functional": {"name": "cglmp_I", "params": {"d": d, "tables": tables}}},
        _expect_ok(_value_is(oracles.cglmp_i(tables, d))))

    # optimize, few restarts
    n = int(rng.integers(1, 5))
    rho = _rho(bellkit.maximally_entangled(n))

    def check_opt_chsh(report, rho=rho, n=n):
        at = oracles.chsh_at(rho, n, n, *_settings_vectors(report))
        if not oracles.close(report["value"], at):
            return _mismatch("S at the returned settings", report["value"], at)
        return _value_is(oracles.chsh_max(rho, n, n))({"value": abs(report["value"])})

    add("optimize chsh", "optimize",
        {"state": {"family": "maximally_entangled", "params": {"n": n}},
         "functional": {"name": "chsh"},
         "search": {"seed": int(rng.integers(0, 2 ** 31)), "restarts": 2}},
        _expect_ok(check_opt_chsh))

    n_atoms = int(rng.integers(10, 31))
    k = n_atoms // 2 + int(rng.integers(-2, 3))
    search_seed = int(rng.integers(0, 2 ** 31))
    add("optimize tura", "optimize",
        {"state": {"family": "dicke", "params": {"n": n_atoms, "k": k}},
         "functional": {"name": "tura"},
         "search": dict(seed=search_seed, **TURA_CONFIG)},
        _expect_ok(lambda report, n_atoms=n_atoms, k=k, s=search_seed: _check_tura_w(
            n_atoms, k, s, report["value"], report["settings"])))

    rho = _rho(bellkit.maximally_entangled(2))
    search_seed = int(rng.integers(0, 2 ** 31))
    add("optimize reid", "optimize",
        {"state": {"family": "maximally_entangled", "params": {"n": 2}},
         "functional": {"name": "reid"},
         "search": dict(seed=search_seed, **REID_CONFIG)},
        _expect_ok(lambda report, rho=rho, s=search_seed: _check_reid_ratio(
            rho, 2, s, report["value"], report["settings"])))

    # lhv-bound: enumerated bounds against the stated ones
    two_a, two_b = (int(x) for x in rng.integers(1, 4, size=2))
    add("lhv-bound chsh", "lhv-bound",
        {"functional": {"name": "generalized_chsh",
                        "params": {"two_s_a": two_a, "two_s_b": two_b}}},
        _expect_ok(_value_is(0.5 * two_a * two_b, "enumerated_bound")))

    d = int(rng.integers(2, 9))
    add("lhv-bound cglmp", "lhv-bound",
        {"functional": {"name": "cglmp", "params": {"d": d}}},
        _expect_ok(_value_is(3.0, "enumerated_bound")))

    n_atoms = int(rng.integers(180, 221))

    def check_lhv_tura(report, n_atoms=n_atoms):
        want = oracles.symmetric_lhv_min(n_atoms)
        if not oracles.close(report["enumerated_min"], want):
            return _mismatch("enumerated_min", report["enumerated_min"], want)
        if want < report["stated_bound"]:
            return f"classical minimum {want} below the stated bound"
        return None

    add("lhv-bound tura_symmetric", "lhv-bound",
        {"functional": {"name": "tura_symmetric", "params": {"n": n_atoms}}},
        _expect_ok(check_lhv_tura))

    # scan to CSV
    two_s = int(rng.integers(1, 4))
    grid = sorted(float(x) for x in rng.uniform(0.05, 0.95, size=int(rng.integers(5, 9))))
    rho = _rho(bellkit.singlet(two_s))

    def check_scan(code, text, grid=grid, rho=rho, two_s=two_s):
        if code != 0:
            return f"exit {code}, expected 0"
        rows = list(csv.DictReader((text or "").splitlines()))
        if len(rows) != len(grid):
            return f"{len(rows)} rows for {len(grid)} grid points"
        for row, x in zip(rows, grid):
            want = oracles.mermin_margin(rho, two_s, *oracles.mermin_coplanar(math.asin(x)))
            if not oracles.close(float(row["parameter"]), x) or not oracles.close(
                    float(row["margin"]), want):
                return _mismatch(f"margin at sin(theta) = {x}", row["margin"], want)
        return None

    add("scan mermin csv", "scan",
        {"state": {"family": "singlet", "params": {"two_s": two_s}},
         "functional": {"name": "mermin"},
         "scan": {"parameter": "sin_theta_geometry", "grid": grid}},
        check_scan, extra=("--format", "csv"), suffix=".csv")

    # documented error paths
    add("error unknown family", "evaluate",
        {"state": {"family": "no_such_family", "params": {}}, "functional": {"name": "chsh"}},
        _expect_exit((3,)))
    add("error capacity", "evaluate",
        {"functional": {"name": "mabk", "params": {"n": 16 + 2 * int(rng.integers(0, 3))}}},
        _expect_exit((4,)))
    add("error missing seed", "optimize",
        {"state": {"family": "maximally_entangled", "params": {"n": 1}},
         "functional": {"name": "chsh"}, "search": {"restarts": 2}},
        _expect_exit((2,)))

    # front-door probes: malformed specs that must map to a documented
    # exit code.  They crash at the commit this benchmark was written
    # for, and stay in the workload so that the defect stays visible.
    bad_input = (2, 3, 4, 5)
    add("probe n not an integer", "evaluate",
        {"state": {"family": "maximally_entangled", "params": {"n": "abc"}},
         "functional": {"name": "chsh"}, "settings": dict(zip(("u1", "u2", "v1", "v2"), u))},
        _expect_exit(bad_input), known="ValueError traceback, exit 1")
    n_atoms = int(rng.integers(2, 9))
    add("probe chsh on dicke", "evaluate",
        {"state": {"family": "dicke", "params": {"n": n_atoms, "k": n_atoms // 2}},
         "functional": {"name": "chsh"}, "settings": dict(zip(("u1", "u2", "v1", "v2"), u))},
        _expect_exit(bad_input), known="AttributeError traceback, exit 1")
    add("probe chsh on ghz", "evaluate",
        {"state": {"family": "ghz", "params": {"n": int(rng.integers(2, 9))}},
         "functional": {"name": "chsh"}, "settings": dict(zip(("u1", "u2", "v1", "v2"), u))},
        _expect_exit(bad_input), known="AttributeError traceback, exit 1")
    add("probe scan grid above 1", "scan",
        {"state": {"family": "singlet", "params": {"two_s": 2}},
         "functional": {"name": "mermin"},
         "scan": {"parameter": "sin_theta_geometry",
                  "grid": {"start": 0.5, "stop": float(rng.uniform(1.05, 1.5)), "count": 4}}},
        _expect_exit(bad_input), known="math domain error traceback, exit 1")
    add("probe unknown functional without state", "evaluate",
        {"functional": {"name": "no_such_functional"}},
        _expect_exit((3,)), known="exit 2")

    tasks = []
    for i, (label, command, spec, check, extra, suffix, known) in enumerate(specs):
        spec_path = workdir / f"spec-{i:02d}.json"
        spec_path.write_text(json.dumps(spec))
        out = workdir / f"out-{i:02d}{suffix}"
        tasks.append(CliTask(label=label,
                             argv=[command, "--spec", str(spec_path), "--out", str(out), *extra],
                             check=check, out=out, known_failure=known))
    tasks.append(CliTask(label="selftest", argv=["selftest"], check=_expect_exit((0,))))
    return tasks


WORKLOADS = {
    "reid_binned": (reid_binned_inputs, reid_binned_tasks),
    "chsh_families": (chsh_families_inputs, chsh_families_tasks),
    "tura_dicke": (tura_dicke_inputs, tura_dicke_tasks),
    "cli_batch": (cli_batch_inputs, cli_batch_tasks),
}
