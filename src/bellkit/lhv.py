"""Local-hidden-variable machinery.

Stochastic model evaluation (joint / marginal / conditional
probabilities and mean values), exact classical bounds by enumeration
over deterministic strategies, and the symmetry-reduced enumerator for
the permutation-invariant many-atom inequality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateConditionError, ValidationError
from .functionals import BellFunctional, CorrelatorTerm, PairEventTerm

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
    out_a = tuple((two_s_a / 2.0) - k for k in range(two_s_a + 1))
    out_b = tuple((two_s_b / 2.0) - k for k in range(two_s_b + 1))
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


def _outcome_index(outcomes, value) -> int:
    for i, v in enumerate(outcomes):
        if abs(v - value) <= 1e-9:
            return i
    raise ValidationError(f"outcome {value} not admissible in {outcomes}")


def lhv_model_eval(model: LhvModel, query: str, **kw) -> float:
    """Evaluate a stochastic LHV model.

    query = "joint":       P(alpha, beta | settings i, j)
    query = "marginal":    P(alpha | side, setting)
    query = "conditional": P(beta | j given alpha | i)
    query = "mean":        sum_lambda P(lambda) <A_i>_lambda <B_j>_lambda
    """
    sc = model.scenario
    w = np.asarray(model.weights, dtype=float)
    if query == "joint":
        i, j = kw["setting_a"], kw["setting_b"]
        ia = _outcome_index(sc.outcomes_a[i], kw["alpha"])
        ib = _outcome_index(sc.outcomes_b[j], kw["beta"])
        pa = np.array([model.response_a[l][i][ia] for l in range(model.n_lambda)])
        pb = np.array([model.response_b[l][j][ib] for l in range(model.n_lambda)])
        return float(np.sum(w * pa * pb))
    if query == "marginal":
        side, i = kw["side"], kw["setting"]
        resp = model.response_a if side == "A" else model.response_b
        outs = sc.outcomes_a[i] if side == "A" else sc.outcomes_b[i]
        io = _outcome_index(outs, kw["outcome"])
        p = np.array([resp[l][i][io] for l in range(model.n_lambda)])
        return float(np.sum(w * p))
    if query == "conditional":
        joint = lhv_model_eval(model, "joint", **kw)
        marg = lhv_model_eval(model, "marginal", side="A",
                              setting=kw["setting_a"], outcome=kw["alpha"])
        if marg <= 1e-14:
            raise DegenerateConditionError("conditioning on a zero-probability outcome")
        return joint / marg
    if query == "mean":
        i, j = kw["setting_a"], kw["setting_b"]
        va = np.asarray(sc.outcomes_a[i], dtype=float)
        vb = np.asarray(sc.outcomes_b[j], dtype=float)
        ma = np.array([np.dot(model.response_a[l][i], va) for l in range(model.n_lambda)])
        mb = np.array([np.dot(model.response_b[l][j], vb) for l in range(model.n_lambda)])
        return float(np.sum(w * ma * mb))
    raise ValidationError(f"unknown query {query!r}")


def functional_model_value(model: LhvModel, functional: BellFunctional) -> float:
    """Value of a Bell functional under a stochastic LHV model."""
    total = 0.0
    for term in functional.terms:
        if isinstance(term, CorrelatorTerm):
            total += term.coef * lhv_model_eval(model, "mean",
                                                setting_a=term.setting_a,
                                                setting_b=term.setting_b)
        elif isinstance(term, PairEventTerm):
            acc = 0.0
            for alpha, beta in term.pairs:
                acc += lhv_model_eval(model, "joint", setting_a=term.setting_a,
                                      setting_b=term.setting_b, alpha=alpha, beta=beta)
            total += term.coef * acc
    return total


def _strategies(outcome_lists) -> np.ndarray:
    """All deterministic assignments, one row per strategy, in
    itertools.product order (the last setting varies fastest)."""
    grids = np.meshgrid(*outcome_lists, indexing="ij", copy=False)
    return np.stack(grids, axis=-1, dtype=float).reshape(-1, len(outcome_lists))


def _term_matrix(term, strat_a: np.ndarray, strat_b: np.ndarray) -> np.ndarray:
    if isinstance(term, CorrelatorTerm):
        return term.coef * np.outer(strat_a[:, term.setting_a], strat_b[:, term.setting_b])
    if isinstance(term, PairEventTerm):
        mask = np.zeros((len(strat_a), len(strat_b)), dtype=bool)
        for alpha, beta in term.pairs:
            mask |= ((np.abs(strat_a[:, term.setting_a] - alpha) < 1e-9)[:, None]
                     & (np.abs(strat_b[:, term.setting_b] - beta) < 1e-9)[None, :])
        return term.coef * mask.astype(float)
    raise ValidationError(f"unknown term type {term!r}")


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
    strat_a = _strategies(scenario.outcomes_a)
    strat_b = _strategies(scenario.outcomes_b)
    best_val = None
    best_idx = None
    # chunk the A side so the value matrix stays bounded in memory
    for start in range(0, n_a, _CHUNK):
        block_a = strat_a[start:start + _CHUNK]
        values = np.zeros((len(block_a), n_b))
        for term in functional.terms:
            values += _term_matrix(term, block_a, strat_b)
        flat = np.argmax(values) if sense == "max" else np.argmin(values)
        val = float(values.flat[flat])
        if (best_val is None or (sense == "max" and val > best_val)
                or (sense == "min" and val < best_val)):
            best_val = val
            best_idx = (start + flat // n_b, flat % n_b)
    witness = DeterministicStrategy(
        outcomes_a=tuple(strat_a[best_idx[0]]),
        outcomes_b=tuple(strat_b[best_idx[1]]))
    return best_val, witness


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


def symmetric_lhv_min_bruteforce(n_atoms: int):
    """4^N brute force over independent per-atom strategies (tests only)."""
    best = None
    for combo in itertools.product(((1, 1), (1, -1), (-1, 1), (-1, -1)), repeat=n_atoms):
        p = sum(a0 for a0, _ in combo)
        q = sum(a1 for _, a1 in combo)
        r = sum(a0 * a1 for a0, a1 in combo)
        w = 2 * p + p * q - r + n_atoms + (p ** 2 + q ** 2) / 2.0
        if best is None or w < best:
            best = w
    return best


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
        tables_a = [np.array([max(float(np.real(np.trace(rho_a @ proj))), 0.0)
                              for _, proj in obs.eigenprojectors])
                    for obs in obs_a_list]
        tables_b = [np.array([max(float(np.real(np.trace(rho_b @ proj))), 0.0)
                              for _, proj in obs.eigenprojectors])
                    for obs in obs_b_list]
        resp_a.append([t / t.sum() for t in tables_a])
        resp_b.append([t / t.sum() for t in tables_b])
    return LhvModel(scenario=scenario, weights=weights,
                    response_a=resp_a, response_b=resp_b)
