"""Derivative-free violation search and parameter scans.

Multi-start coordinate pattern search, and the scan over one state or
geometry parameter.  The search problems themselves, over measurement
angles and, for the moment inequality, over pair-state weights, are
`functionals.SearchProblem` records beside the evaluators they read.  Every
objective is oriented so that positive values mean violation;
binned-probability objectives are only piecewise smooth, which is why
no gradients are used.

Every objective maps a (k, n) array of points to k values.  A sweep is
scored in one call with the trials and counts of one point per call:
about one call per 5.1 evaluations on the CHSH benchmark workload (1 152 calls
for 5 903 evaluations in one pass at seed 1).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ValidationError
from .functionals import ViolationReport, cfrd_weight_problem
from .functionals import mermin_coplanar_vectors  # noqa: F401  (public here)
from .registry import OBJECT, build_state, family, lookup, require_state, state_args
# build_spin_rep is unused here, but bench/tests/test_spans.py::
# test_wrappers_installed_in_every_binding_namespace requires this module to bind it
from .spin import SpinQuantum, build_spin_rep  # noqa: F401


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
        if self.max_evals_per_restart < 1:
            raise ValidationError("max_evals_per_restart must be >= 1")
        if self.restarts * self.max_evals_per_restart > 10 ** 6:
            raise CapacityError("restarts x max_evals_per_restart exceeds the 1e6 cap")
        if not 0 < self.tolerance < math.inf:  # refuses NaN too
            raise ValidationError("tolerance must be finite and positive")
        if not 0 < self.initial_step < math.inf:
            raise ValidationError("initial_step must be finite and positive")


def pattern_search_max(objective, x0: np.ndarray, step: float,
                       tolerance: float, max_evals: int, stop: float = math.inf):
    """Coordinate-wise pattern search (step halving) maximizing
    `objective`; returns (best x, best value, evaluation count).  The
    walk ends at once where x0 reaches `stop`, and else at the first
    accepted trial that does; a NaN value never ends it.

    A sweep tries x + step e_i and then x - step e_i for i = 0, 1, ...,
    moves to each trial that beats the current value as soon as it is
    tried, and halves the step after a sweep without a move.
    `objective` maps a (k, n) array of points to their k values.  Every
    trial still left in a sweep is scored in one call, at most as many
    as evaluations are left; the search walks the values in order,
    accepts the first that beats the current value and scores the rest
    of the sweep from the new point.  So the trials, the moves and the
    count, which counts the trials walked and not the rows scored, are
    those of trying the points one at a time."""
    x = np.array(x0, dtype=float)
    fx = objective(x[None])[0]
    evals = 1
    n_moves = 2 * len(x)
    # rows +e_0, -e_0, +e_1, ...; -0.0 elsewhere, since x + -0.0 is x to the bit
    unit = np.full((n_moves, len(x)), -0.0)
    unit[np.arange(n_moves), np.repeat(np.arange(len(x)), 2)] = np.tile([1.0, -1.0], len(x))
    while step > tolerance and evals < max_evals and not fx >= stop:
        moves = unit * step
        improved = False
        j = 0
        while j < n_moves and evals < max_evals and not fx >= stop:
            k = min(n_moves - j, max_evals - evals)
            values = objective(x + moves[j:j + k])
            better = values > fx
            first = int(better.argmax())
            if better[first]:  # the walk stops at the first better trial
                k = first + 1
                x, fx, improved = x + moves[j + first], values[first], True
            evals += k
            j += k
        if not improved:
            step /= 2.0
    return x, fx, evals


def multi_start_max(problem, config: SearchConfig):
    """(best x, best value) of pattern searches of `problem.objective` from random starts in
    `problem.ranges` (restart 0 at `problem.start` if set) until the best reaches `problem.stop`;
    each search ends at the first trial that reaches it.  A start that already reaches a finite
    stop is returned with no search.
    Restart k draws from the substream keyed (seed, k), so no schedule changes the result."""
    ranges, objective, _, start, stop = problem
    if start is not None and stop < math.inf:
        f = objective(start[None])[0]
        if f >= stop:
            return start, f
    best_x, best_f = None, -math.inf
    for k in range(config.restarts):
        rng = np.random.default_rng([config.seed, k])
        x0 = np.array([rng.uniform(lo, hi) for lo, hi in ranges]) if k or start is None else start
        x, f, _ = pattern_search_max(objective, x0, config.initial_step, config.tolerance,
                                     config.max_evals_per_restart, stop)
        if f > best_f:
            best_x, best_f = x, f
        if best_f >= stop:
            break
    return best_x, best_f


def maximize(build, config: SearchConfig) -> ViolationReport:
    """Build a search problem of `functionals` (build() returns it), run it and stamp its
    report at the optimum with the seed and the wall time, the build included."""
    t0 = time.perf_counter()
    problem = build()
    report = problem.report(multi_start_max(problem, config)[0])
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
    return maximize(lambda: entry.optimize(state, config.coplanar), config)


def optimize_weights_cfrd(s: SpinQuantum, config: SearchConfig) -> ViolationReport:
    """Search unit-norm weights r_m for the pair state
    sum_m r_m |s,m>|s,-m> minimizing the moment-inequality margin with
    the spin observables (S_x, S_y) on each side.

    The two sites carry opposite magnetic quantum numbers; with an
    equal-m pairing the cross moment <S+ S-> is identically zero and
    the weights drop out of the margin altogether.
    """
    return maximize(lambda: cfrd_weight_problem(s), config)


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
