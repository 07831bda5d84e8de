"""Local-hidden-variable machinery.

Stochastic model evaluation (joint / marginal / conditional
probabilities and mean values), exact classical bounds by enumeration
over deterministic strategies, and the symmetry-reduced enumerator for
the permutation-invariant many-atom inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateConditionError, ValidationError
from .functionals import (
    BellFunctional, CorrelatorTerm, PairEventTerm, functional_value, term_value, term_weights,
)
from .spin import outcome_indices
from .states import outcome_probabilities

ENUM_CAP = 10 ** 8
_CHUNK = 4096


@dataclass(frozen=True)
class Scenario:
    """Measurement scenario: admissible outcome values per setting."""

    outcomes_a: tuple  # tuple of tuples, one per A setting
    outcomes_b: tuple

    def __post_init__(self):
        for side in (self.outcomes_a, self.outcomes_b):
            if len(side) < 1 or any(len(o) < 1 for o in side):
                raise ValidationError("every setting needs a nonempty outcome list")

    @property
    def settings_a(self) -> int:
        return len(self.outcomes_a)

    @property
    def settings_b(self) -> int:
        return len(self.outcomes_b)


def check_enum_cap(strategies: int):
    """Refuse an enumeration over more than ENUM_CAP strategy pairs."""
    if strategies > ENUM_CAP:
        raise CapacityError(f"{strategies} strategies exceed the {ENUM_CAP} cap")


def two_setting_spin_scenario(two_s_a: int, two_s_b: int) -> Scenario:
    """Two spin-component settings per side, outcomes -s..+s."""
    for two_s in (two_s_a, two_s_b):  # a side too large to enumerate, before its tuples
        check_enum_cap(max(two_s + 1, 0) ** 2)
    out_a, out_b = (tuple(two / 2.0 - k for k in range(two + 1)) for two in (two_s_a, two_s_b))
    return Scenario(outcomes_a=(out_a, out_a), outcomes_b=(out_b, out_b))


def cglmp_scenario(d: int) -> Scenario:
    check_enum_cap(max(d, 0) ** 2)  # a side too large to enumerate, before its tuples
    out = tuple(range(d))
    return Scenario(outcomes_a=(out, out), outcomes_b=(out, out))


@dataclass(frozen=True)
class DeterministicStrategy:
    """One fixed outcome per setting per side (a local polytope vertex)."""

    outcomes_a: tuple
    outcomes_b: tuple


@dataclass(frozen=True)
class LhvModel:
    """Stochastic LHV model: weights P(lambda) and per-lambda response
    tables aligned with the scenario's outcome lists."""

    scenario: Scenario
    weights: np.ndarray              # shape (n_lambda,)
    response_a: np.ndarray | list    # [lambda][setting][outcome index]
    response_b: np.ndarray | list

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -1e-12):
            raise ValidationError("weights must be non-negative")
        if not abs(w.sum() - 1.0) <= 1e-10:  # "not <=" refuses NaN too
            raise ValidationError(f"weights sum to {w.sum()}, expected 1")
        for resp, outs in ((self.response_a, self.scenario.outcomes_a),
                           (self.response_b, self.scenario.outcomes_b)):
            for lam_tables in resp:
                if len(lam_tables) != len(outs):
                    raise ValidationError("response tables do not match setting count")
                for table, outcomes in zip(lam_tables, outs):
                    t = np.asarray(table, dtype=float)
                    if t.shape != (len(outcomes),):
                        raise ValidationError("response table length mismatch")
                    if np.any(t < -1e-12) or not abs(t.sum() - 1.0) <= 1e-10:
                        raise ValidationError("response table is not a distribution")

    @property
    def n_lambda(self) -> int:
        return len(self.weights)

    def response_rows(self, side: str, i: int) -> np.ndarray:
        """rows[lambda, k] = P(k-th outcome | setting i, lambda) on side "A", else on side B."""
        return np.array([tables[i] for tables in (self.response_a if side == "A" else self.response_b)],
                        dtype=float)

    def joint_table(self, i: int, j: int) -> np.ndarray:
        """P(alpha, beta | settings i, j) over the scenario's outcome lists:
        sum_lambda P(lambda) response_a[lambda][i] (x) response_b[lambda][j]."""
        return np.einsum("l,la,lb->ab", np.asarray(self.weights, dtype=float),
                         self.response_rows("A", i), self.response_rows("B", j))


def lhv_model_eval(model: LhvModel, query: str, **kw) -> float:
    """Evaluate a stochastic LHV model.

    query = "joint":       P(alpha, beta | settings i, j)
    query = "marginal":    P(alpha | side, setting)
    query = "conditional": P(beta | j given alpha | i)
    query = "mean":        sum_lambda P(lambda) <A_i>_lambda <B_j>_lambda
    """
    sc = model.scenario
    if query in ("joint", "mean"):
        i, j = kw["setting_a"], kw["setting_b"]
        term = (CorrelatorTerm(1.0, i, j) if query == "mean"
                else PairEventTerm(1.0, i, j, ((kw["alpha"], kw["beta"]),)))
        return term_value(term, sc.outcomes_a[i], sc.outcomes_b[j], model.joint_table(i, j))
    if query == "marginal":
        side, i = kw["side"], kw["setting"]
        outs = sc.outcomes_a[i] if side == "A" else sc.outcomes_b[i]
        p = model.response_rows(side, i)[:, outcome_indices(outs, [kw["outcome"]])[0]]
        return float(np.sum(np.asarray(model.weights, dtype=float) * p))
    if query == "conditional":
        joint = lhv_model_eval(model, "joint", **kw)
        marg = lhv_model_eval(model, "marginal", side="A",
                              setting=kw["setting_a"], outcome=kw["alpha"])
        if marg <= 1e-14:
            raise DegenerateConditionError("conditioning on a zero-probability outcome")
        return joint / marg
    raise ValidationError(f"unknown query {query!r}")


def functional_model_value(model: LhvModel, functional: BellFunctional) -> float:
    """Value of a Bell functional under a stochastic LHV model."""
    sc = model.scenario
    tables = [[model.joint_table(i, j) for j in range(sc.settings_b)]
              for i in range(sc.settings_a)]
    return functional_value(functional, sc.outcomes_a, sc.outcomes_b, tables)


def _strategies(outcome_lists) -> np.ndarray:
    """All deterministic assignments as outcome indices, one row per
    strategy, in itertools.product order (the last setting varies fastest)."""
    return np.indices([len(o) for o in outcome_lists]).reshape(len(outcome_lists), -1).T


def enumerate_lhv_bound(scenario: Scenario, functional: BellFunctional,
                        sense: str = "max"):
    """Exact extremum of a Bell functional over all deterministic
    strategies, with one attaining strategy as witness.  By convexity of
    the stochastic model set this equals the extremum over all LHV
    models (tested, not assumed)."""
    if sense not in ("max", "min"):
        raise ValidationError("sense must be 'max' or 'min'")
    if (functional.settings_a != scenario.settings_a
            or functional.settings_b != scenario.settings_b):
        raise ValidationError("functional and scenario setting counts differ")
    n_a = int(np.prod([len(o) for o in scenario.outcomes_a]))
    n_b = int(np.prod([len(o) for o in scenario.outcomes_b]))
    check_enum_cap(n_a * n_b)
    weights = [(t.setting_a, t.setting_b, term_weights(t, scenario.outcomes_a[t.setting_a],
                                                       scenario.outcomes_b[t.setting_b]))
               for t in functional.terms]
    arg, pick = (np.argmax, max) if sense == "max" else (np.argmin, min)
    strat_a = _strategies(scenario.outcomes_a)
    strat_b = _strategies(scenario.outcomes_b)
    best = []
    # chunk the A side so the value matrix stays bounded in memory
    for start in range(0, n_a, _CHUNK):
        block_a = strat_a[start:start + _CHUNK]
        values = np.zeros((len(block_a), n_b))
        for i, j, w in weights:  # w[a_i, b_j] for every pair: a row take, then a column take
            values += w.take(block_a[:, i], axis=0).take(strat_b[:, j], axis=1)
        flat = int(arg(values))
        best.append((float(values.flat[flat]), start + flat // n_b, flat % n_b))
    value, k_a, k_b = pick(best, key=lambda b: b[0])  # the first of equal extrema, as `arg`
    witness = DeterministicStrategy(
        outcomes_a=tuple(float(o[k]) for o, k in zip(scenario.outcomes_a, strat_a[k_a])),
        outcomes_b=tuple(float(o[k]) for o, k in zip(scenario.outcomes_b, strat_b[k_b])))
    return value, witness


def symmetric_lhv_min(n_atoms: int):
    """Minimum of W = 2P + PQ - R + N + (P^2 + Q^2)/2 over deterministic
    strategies where each atom picks (a0, a1) in {+-1}^2; P = sum a0,
    Q = sum a1, R = sum a0*a1.  Returns (min W, witness counts
    (n++, n+-, n-+, n--)), the witness being the lexicographically
    smallest composition of N that attains the minimum.

    The search runs over (P, Q) in O(N^2), not over the O(N^3)
    compositions.  Proof: the type counts are n++ = (N+P+Q+R)/4,
    n+- = (N+P-Q-R)/4, n-+ = (N-P+Q-R)/4 and n-- = (N-P-Q+R)/4, so
    n+- >= 0 and n-+ >= 0 give R <= N - |P - Q|.  That R is reached by
    n++ = (N + min(P, Q))/2, n+- = max(P - Q, 0)/2, n-+ = max(Q - P, 0)/2
    and n-- = (N - max(P, Q))/2, non-negative integers whenever
    P = Q = N (mod 2) and |P|, |Q| <= N.  W falls as R grows, so its
    minimum is the minimum over those (P, Q) of
    W(P, Q) = 2P + PQ + |P - Q| + (P^2 + Q^2)/2, and every minimizing
    composition is the one above for its (P, Q).
    """
    if n_atoms < 1:
        raise ValidationError("N must be >= 1")
    if n_atoms > 10 ** 4:
        raise CapacityError("N exceeds the 1e4 cap")
    n = n_atoms
    q = np.arange(-n, n + 1, 2)
    best, ties = None, []
    for p in range(-n, n + 1, 2):
        w = 2 * p + p * q + np.abs(p - q) + (p * p + q * q) // 2
        low = int(w.min())
        if best is None or low < best:
            best, ties = low, []
        if low == best:
            ties += [(p, int(x)) for x in q[w == low]]
    witness = min(((n + min(p, x)) // 2, max(p - x, 0) // 2, max(x - p, 0) // 2,
                   (n - max(p, x)) // 2) for p, x in ties)
    return float(best), witness


def model_from_separable(components, obs_a_list, obs_b_list) -> LhvModel:
    """LHV model induced by a separable mixture: the component label R
    is the hidden variable, response tables are the per-factor quantum
    outcome probabilities for the given observables.  `components` is
    the same (weight, rho_a, rho_b) list accepted by
    states.separable_mixture."""
    comps = [(w, np.asarray(ra, dtype=complex), np.asarray(rb, dtype=complex))
             for w, ra, rb in components]
    weights = np.array([w for w, _, _ in comps])
    outcomes_a = tuple(tuple(o.outcome_spectrum) for o in obs_a_list)
    outcomes_b = tuple(tuple(o.outcome_spectrum) for o in obs_b_list)
    scenario = Scenario(outcomes_a=outcomes_a, outcomes_b=outcomes_b)
    resp_a, resp_b = [], []
    for _, rho_a, rho_b in comps:
        tables_a = [np.maximum(outcome_probabilities(rho_a, obs), 0.0) for obs in obs_a_list]
        tables_b = [np.maximum(outcome_probabilities(rho_b, obs), 0.0) for obs in obs_b_list]
        resp_a.append([t / t.sum() for t in tables_a])
        resp_b.append([t / t.sum() for t in tables_b])
    return LhvModel(scenario=scenario, weights=weights,
                    response_a=resp_a, response_b=resp_b)
