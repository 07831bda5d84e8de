"""Derivative-free violation search and parameter scans.

Multi-start coordinate pattern search over measurement angles (and,
for the moment-inequality case, over diagonal state weights).  The
objective is always oriented so that positive values mean violation;
binned-probability objectives are only piecewise smooth, which is why
no gradients are used.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ValidationError
from .functionals import ViolationReport, cfrd_margin
from .functionals import mermin_coplanar_vectors  # noqa: F401  (public here)
from .registry import OBJECT, build_state, family, lookup, require_state, state_args
from .spin import SpinQuantum, build_spin_rep
from .states import BipartiteState


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start pattern-search parameters.  The seed is mandatory:
    every reported number must be reproducible."""

    seed: int
    restarts: int = 32
    max_evals_per_restart: int = 2000
    tolerance: float = 1e-8
    initial_step: float = 0.5
    coplanar: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be positive")


def pattern_search_max(objective, x0: np.ndarray, step: float,
                       tolerance: float, max_evals: int):
    """Coordinate-wise pattern search (step halving) maximizing
    `objective`; returns (best x, best value, evaluation count)."""
    x = np.array(x0, dtype=float)
    fx = objective(x)
    evals = 1
    while step > tolerance and evals < max_evals:
        improved = False
        for i in range(len(x)):
            for sgn in (1.0, -1.0):
                trial = x.copy()
                trial[i] += sgn * step
                ft = objective(trial)
                evals += 1
                if ft > fx:
                    x, fx = trial, ft
                    improved = True
                if evals >= max_evals:
                    break
            if evals >= max_evals:
                break
        if not improved:
            step /= 2.0
    return x, fx, evals


def multi_start_max(objective, ranges, config: SearchConfig):
    """Best-of pattern search over seed-derived random starts.  The
    per-restart substream is keyed (seed, restart index), so the result
    does not depend on evaluation scheduling."""
    best_x, best_f = None, -math.inf
    for k in range(config.restarts):
        rng = np.random.default_rng([config.seed, k])
        x0 = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
        x, f, _ = pattern_search_max(objective, x0, config.initial_step,
                                     config.tolerance, config.max_evals_per_restart)
        if f > best_f:
            best_x, best_f = x, f
    return best_x, best_f


def maximize(problem, config: SearchConfig) -> ViolationReport:
    """Run a registry search problem (ranges, objective, report at the
    optimum) and stamp its report with the seed and the wall time."""
    t0 = time.perf_counter()
    ranges, objective, report_at = problem
    x, _ = multi_start_max(objective, ranges, config)
    report = report_at(x)
    report.seed = config.seed
    report.wall_time_s = time.perf_counter() - t0
    return report


def optimize_settings(state, functional: str, config: SearchConfig) -> ViolationReport:
    """Search measurement settings maximizing the violation of the named
    functional on the given state; the registry says which functionals
    have a settings search.  Non-violation (non-positive best margin) is
    a valid result."""
    entry = lookup(functional, "optimize")
    require_state(functional, entry, type(state))
    return maximize(entry.optimize(state, config.coplanar), config)


def optimize_weights_cfrd(s: SpinQuantum, config: SearchConfig) -> ViolationReport:
    """Search unit-norm weights r_m for the pair state
    sum_m r_m |s,m>|s,-m> minimizing the moment-inequality margin with
    the spin observables (S_x, S_y) on each side.

    The two sites carry opposite magnetic quantum numbers; with an
    equal-m pairing the cross moment <S+ S-> is identically zero and
    the weights drop out of the margin altogether.
    """
    if s.two_s > 20:
        raise CapacityError("weight search supports s <= 10")
    rep = build_spin_rep(s)
    d = s.dim

    def margin_of(r):
        psi = np.zeros((d, d), dtype=complex)
        psi[np.arange(d), np.arange(d - 1, -1, -1)] = r
        state = BipartiteState("pure", s, s, psi=psi / np.linalg.norm(psi))
        return cfrd_margin(state, rep.sx, rep.sy, rep.sx, rep.sy)

    def report(x):
        r = x / np.linalg.norm(x)
        best = margin_of(r)
        best.settings = [float(v) for v in r]
        return best

    return maximize(([(-1.0, 1.0)] * d, lambda x: (
        -math.inf if np.linalg.norm(x) < 1e-9 else -margin_of(x).margin), report), config)


@dataclass(frozen=True)
class ScanSpec:
    """One-parameter scan: sweep a state parameter (or the Mermin
    geometry angle) over a grid, evaluating or re-optimizing the
    functional at each point."""

    parameter: str
    grid: tuple
    functional: str
    state_family: str
    state_params: dict = field(default_factory=dict)
    settings: dict | str | None = None  # explicit settings or "optimize"
    search: SearchConfig | None = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if len(g) == 0:
            raise ValidationError("grid must be nonempty")
        if len(g) > 1 and not (np.all(np.diff(g) > 0) or np.all(np.diff(g) < 0)):
            raise ValidationError("grid must be strictly monotone")


def _scan_point(spec: ScanSpec, entry, x):
    """Checked (state parameters, settings) at grid point x."""
    params = dict(spec.state_params)
    settings = {} if spec.settings is None else spec.settings
    geometry = entry.scan.get(spec.parameter)
    if geometry is not None:
        if settings == "optimize":
            raise ValidationError(f"a {spec.parameter} scan takes no settings search")
        settings = {**OBJECT(settings, "spec.settings"), **geometry(x)}
    elif spec.parameter in family(spec.state_family).params:
        params[spec.parameter] = x
    else:
        raise ValidationError(f"cannot scan {spec.parameter!r} of {spec.state_family!r} "
                              f"with {spec.functional!r}")
    state_args(spec.state_family, params)
    if settings != "optimize":
        settings = entry.settings(settings, "spec.settings")
    elif spec.search is None:
        raise ValidationError("per-point optimization needs a SearchConfig")
    return params, settings


def scan_parameter(spec: ScanSpec):
    """Run the scan; returns one row dict per grid point.  Every point
    is checked before the first one is computed."""
    entry = lookup(spec.functional, "scan")
    require_state(spec.functional, entry, family(spec.state_family).kind)
    points = [_scan_point(spec, entry, x) for x in spec.grid]
    rows = []
    for x, (params, settings) in zip(spec.grid, points):
        state = build_state(spec.state_family, params)
        if settings == "optimize":
            rep = optimize_settings(state, spec.functional, spec.search).to_dict()
        else:
            rep = entry.evaluate(state, settings, {})
        rows.append({"parameter": float(x),
                     **{k: rep[k] for k in ("value", "bound", "margin", "violation", "settings")}})
    return rows
