import itertools
import math

import numpy as np
import pytest

from bellkit.errors import CapacityError, ValidationError
from bellkit.spin import SpinQuantum, UnitVector, build_spin_rep, spin_component
from bellkit.states import separable_mixture
from bellkit.functionals import (
    BellFunctional,
    CorrelatorTerm,
    PairEventTerm,
    cglmp_functional,
    chsh_value,
    functional_value,
    generalized_chsh_functional,
)
from bellkit.lhv import (
    LhvModel,
    _strategies,
    Scenario,
    cglmp_scenario,
    enumerate_lhv_bound,
    functional_model_value,
    lhv_model_eval,
    model_from_separable,
    symmetric_lhv_min,
    two_setting_spin_scenario,
)
from bellkit.states import expect_product
from reference import degenerate_observable, eigh_projectors, symmetric_lhv_min_bruteforce


def random_model(scenario, rng, n_lambda=4):
    """Random stochastic LHV model for the scenario."""
    w = rng.dirichlet(np.ones(n_lambda))
    resp_a = [[rng.dirichlet(np.ones(len(o))) for o in scenario.outcomes_a]
              for _ in range(n_lambda)]
    resp_b = [[rng.dirichlet(np.ones(len(o))) for o in scenario.outcomes_b]
              for _ in range(n_lambda)]
    return LhvModel(scenario=scenario, weights=w, response_a=resp_a, response_b=resp_b)


def test_scenario_validation():
    with pytest.raises(ValidationError):
        Scenario(outcomes_a=((),), outcomes_b=((0.5, -0.5),))
    sc = two_setting_spin_scenario(2, 1)
    assert sc.settings_a == 2 and sc.settings_b == 2
    assert sc.outcomes_a[0] == (1.0, 0.0, -1.0)
    assert sc.outcomes_b[1] == (0.5, -0.5)


def test_chsh_enumerated_bound():
    sc = two_setting_spin_scenario(1, 1)
    bound, witness = enumerate_lhv_bound(sc, generalized_chsh_functional(1, 1), "max")
    assert bound == 0.5
    # the witness strategy must attain the bound
    a, b = witness.outcomes_a, witness.outcomes_b
    s = a[0] * b[0] + a[0] * b[1] + a[1] * b[0] - a[1] * b[1]
    assert abs(s - bound) < 1e-12


def test_generalized_chsh_enumerated_bound():
    for two_a in (1, 2, 3, 4):
        for two_b in (1, 2, 4):
            sc = two_setting_spin_scenario(two_a, two_b)
            f = generalized_chsh_functional(two_a, two_b)
            bound, _ = enumerate_lhv_bound(sc, f, "max")
            assert abs(bound - 0.5 * two_a * two_b) < 1e-12


def test_enumeration_min_sense():
    sc = two_setting_spin_scenario(1, 1)
    low, _ = enumerate_lhv_bound(sc, generalized_chsh_functional(1, 1), "min")
    assert low == -0.5
    with pytest.raises(ValidationError):
        enumerate_lhv_bound(sc, generalized_chsh_functional(1, 1), "extremum")


def test_enumeration_capacity_cap():
    sc = two_setting_spin_scenario(200, 200)
    with pytest.raises(CapacityError):
        enumerate_lhv_bound(sc, generalized_chsh_functional(200, 200), "max")


def test_cglmp_enumerated_value():
    for d in (2, 3, 4, 5):
        bound, witness = enumerate_lhv_bound(cglmp_scenario(d), cglmp_functional(d), "max")
        assert abs(bound - 3.0) < 1e-12, d
        assert len(witness.outcomes_a) == 2


def _one_hot_tables(sc, row_a, row_b):
    """Joint tables of the deterministic strategy pair that picks outcome index row_a[i] for
    A setting i and row_b[j] for B setting j."""
    return [[np.outer(np.eye(len(oa))[ka], np.eye(len(ob))[kb])
             for ob, kb in zip(sc.outcomes_b, row_b)] for oa, ka in zip(sc.outcomes_a, row_a)]


def _witness_model(sc, witness):
    """The deterministic LhvModel of an enumeration witness."""
    def responses(outcome_lists, values):
        return [[np.eye(len(o))[list(o).index(v)] for o, v in zip(outcome_lists, values)]]
    return LhvModel(sc, np.ones(1), responses(sc.outcomes_a, witness.outcomes_a),
                    responses(sc.outcomes_b, witness.outcomes_b))


# a pair listed twice counts once: the term is P((alpha, beta) in pairs)
REPEATED_PAIR = BellFunctional("repeated_pair", 2, 2, (
    PairEventTerm(1.0, 0, 0, ((0, 0), (0, 0))), CorrelatorTerm(-0.5, 1, 1),
    PairEventTerm(0.75, 1, 0, ((1, 0), (0, 1), (1, 0)))), bound=1.75)


def test_enumeration_agrees_with_one_hot_tables():
    # the enumerated extrema against a brute force over itertools.product that scores each
    # strategy pair's one-hot tables with functional_value; the witness's model attains them
    cases = [(two_setting_spin_scenario(1, 1), generalized_chsh_functional(1, 1)),
             (two_setting_spin_scenario(2, 3), generalized_chsh_functional(2, 3)),
             (cglmp_scenario(2), REPEATED_PAIR)]
    cases += [(cglmp_scenario(d), cglmp_functional(d)) for d in (2, 3, 4)]
    for sc, f in cases:
        rows_a = list(itertools.product(*(range(len(o)) for o in sc.outcomes_a)))
        rows_b = list(itertools.product(*(range(len(o)) for o in sc.outcomes_b)))
        values = [functional_value(f, sc.outcomes_a, sc.outcomes_b, _one_hot_tables(sc, ra, rb))
                  for ra in rows_a for rb in rows_b]
        for sense, pick in (("max", max), ("min", min)):
            bound, witness = enumerate_lhv_bound(sc, f, sense)
            assert abs(bound - pick(values)) <= 1e-12, (f.name, sense)
            assert all(type(x) is float for x in witness.outcomes_a + witness.outcomes_b)
            assert abs(functional_model_value(_witness_model(sc, witness), f) - bound) <= 1e-12
    assert enumerate_lhv_bound(cglmp_scenario(2), REPEATED_PAIR, "max")[0] == REPEATED_PAIR.bound


def test_inadmissible_pair_refused_on_every_path():
    sc = cglmp_scenario(2)
    outside = BellFunctional("outside", 2, 2, (PairEventTerm(1.0, 0, 0, ((0, 0), (5, 5))),),
                             bound=1.0)
    with pytest.raises(ValidationError):
        enumerate_lhv_bound(sc, outside, "max")
    with pytest.raises(ValidationError):
        functional_value(outside, sc.outcomes_a, sc.outcomes_b, _one_hot_tables(sc, (0, 0), (0, 0)))
    with pytest.raises(ValidationError):
        functional_model_value(random_model(sc, np.random.default_rng(3)), outside)


def test_stochastic_models_never_beat_vertices():
    rng = np.random.default_rng(31)
    sc = two_setting_spin_scenario(2, 2)
    f = generalized_chsh_functional(2, 2)
    bound, _ = enumerate_lhv_bound(sc, f, "max")
    low, _ = enumerate_lhv_bound(sc, f, "min")
    for _ in range(100):
        m = random_model(sc, rng)
        v = functional_model_value(m, f)
        assert low - 1e-10 <= v <= bound + 1e-10


def test_functional_model_value_matches_summed_queries():
    # each term summed by hand from lhv_model_eval's mean and joint queries
    rng = np.random.default_rng(41)
    cases = [(two_setting_spin_scenario(1, 1), generalized_chsh_functional(1, 1)),
             (two_setting_spin_scenario(3, 2), generalized_chsh_functional(3, 2)),
             (cglmp_scenario(3), cglmp_functional(3)), (cglmp_scenario(5), cglmp_functional(5))]
    for sc, f in cases:
        for _ in range(10):
            m = random_model(sc, rng, n_lambda=int(rng.integers(1, 6)))
            want = 0.0
            for t in f.terms:
                ij = {"setting_a": t.setting_a, "setting_b": t.setting_b}
                if isinstance(t, PairEventTerm):
                    want += t.coef * sum(lhv_model_eval(m, "joint", alpha=a, beta=b, **ij)
                                         for a, b in t.pairs)
                else:
                    want += t.coef * lhv_model_eval(m, "mean", **ij)
            assert abs(functional_model_value(m, f) - want) <= 1e-12, f.name


def test_lhv_model_eval_queries():
    rng = np.random.default_rng(8)
    sc = two_setting_spin_scenario(1, 1)
    m = random_model(sc, rng)
    # joint sums to 1 over outcomes
    total = sum(lhv_model_eval(m, "joint", setting_a=0, setting_b=1, alpha=al, beta=be)
                for al in sc.outcomes_a[0] for be in sc.outcomes_b[1])
    assert abs(total - 1.0) < 1e-10
    # marginal consistency
    marg = sum(lhv_model_eval(m, "joint", setting_a=0, setting_b=1, alpha=0.5, beta=be)
               for be in sc.outcomes_b[1])
    assert abs(marg - lhv_model_eval(m, "marginal", side="A", setting=0, outcome=0.5)) < 1e-10
    # conditional times marginal gives the joint back
    joint = lhv_model_eval(m, "joint", setting_a=0, setting_b=0, alpha=0.5, beta=-0.5)
    cond = lhv_model_eval(m, "conditional", setting_a=0, setting_b=0, alpha=0.5, beta=-0.5)
    pa = lhv_model_eval(m, "marginal", side="A", setting=0, outcome=0.5)
    assert abs(joint - cond * pa) < 1e-10
    with pytest.raises(ValidationError):
        lhv_model_eval(m, "wishes", setting_a=0)


def test_lhv_marginal_reads_one_side():
    # P(alpha | side, i) = sum_lambda P(lambda) response[lambda][i][alpha], to the last bit,
    # whatever the other side's tables are
    rng = np.random.default_rng(12)
    sc = cglmp_scenario(4)
    m = random_model(sc, rng, n_lambda=5)
    other = LhvModel(sc, m.weights, m.response_a, random_model(sc, rng, n_lambda=5).response_b)
    for side, resp in (("A", m.response_a), ("B", m.response_b)):
        for i in range(2):
            for k, outcome in enumerate(sc.outcomes_a[i]):
                want = float(np.sum(m.weights * np.array([tables[i][k] for tables in resp])))
                got = lhv_model_eval(m, "marginal", side=side, setting=i, outcome=outcome)
                assert got == want
                if side == "A":
                    assert lhv_model_eval(other, "marginal", side="A", setting=i,
                                          outcome=outcome) == got


def test_lhv_model_validation():
    sc = two_setting_spin_scenario(1, 1)
    ok = [[np.array([0.5, 0.5])] * 2]
    with pytest.raises(ValidationError):
        LhvModel(scenario=sc, weights=np.array([0.7, 0.7]), response_a=ok * 2,
                 response_b=ok * 2)
    with pytest.raises(ValidationError):
        LhvModel(scenario=sc, weights=np.array([1.0]),
                 response_a=[[np.array([0.9, 0.3])] * 2], response_b=ok)


def test_symmetric_min_matches_bruteforce():
    for n in range(1, 7):
        fast, counts = symmetric_lhv_min(n)
        slow = symmetric_lhv_min_bruteforce(n)
        assert abs(fast - slow) < 1e-12, n
        assert sum(counts) == n
        # the witness counts reproduce the reported minimum
        n1, n2, n3, n4 = counts
        p = n1 + n2 - n3 - n4
        q = n1 - n2 + n3 - n4
        r = n1 - n2 - n3 + n4
        w = 2 * p + p * q - r + n + (p ** 2 + q ** 2) / 2
        assert abs(w - fast) < 1e-12


def test_symmetric_min_nonnegative():
    for n in (1, 5, 17, 50, 120, 333):
        wmin, _ = symmetric_lhv_min(n)
        assert wmin >= 0.0
    with pytest.raises(CapacityError):
        symmetric_lhv_min(10 ** 4 + 1)
    with pytest.raises(ValidationError):
        symmetric_lhv_min(0)


def _random_density(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_separable_model_reproduces_quantum_statistics():
    # the LHV model induced by a separable mixture must reproduce the
    # quantum binned statistics and correlators term by term
    rng = np.random.default_rng(77)
    comps = [(0.3, _random_density(2, rng), _random_density(2, rng)),
             (0.7, _random_density(2, rng), _random_density(2, rng))]
    state = separable_mixture(comps)
    rep = build_spin_rep(SpinQuantum(1))
    dirs = [UnitVector.from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            for _ in range(4)]
    obs_a = [spin_component(rep, dirs[0]), spin_component(rep, dirs[1])]
    obs_b = [spin_component(rep, dirs[2]), spin_component(rep, dirs[3])]
    model = model_from_separable(comps, obs_a, obs_b)
    for i in (0, 1):
        for j in (0, 1):
            for alpha, pa in eigh_projectors(obs_a[i].matrix):
                for beta, pb in eigh_projectors(obs_b[j].matrix):
                    pm = lhv_model_eval(model, "joint", setting_a=i, setting_b=j,
                                        alpha=alpha, beta=beta)
                    pq = expect_product(state, pa, pb)
                    assert abs(pm - pq) < 1e-10
    # CHSH value through the model equals the quantum value
    s_model = (lhv_model_eval(model, "mean", setting_a=0, setting_b=0)
               + lhv_model_eval(model, "mean", setting_a=0, setting_b=1)
               + lhv_model_eval(model, "mean", setting_a=1, setting_b=0)
               - lhv_model_eval(model, "mean", setting_a=1, setting_b=1))
    s_quantum = chsh_value(state, dirs[0], dirs[1], dirs[2], dirs[3]).value
    assert abs(s_model - s_quantum) < 1e-10


def test_separable_model_tables_against_eigh_projectors():
    # unequal spins and degenerate from_matrix observables: each response
    # table is Tr(rho_R P) over the eigh projectors, and the model's
    # joints are the mixture's np.kron traces
    rng = np.random.default_rng(78)
    comps = [(w, _random_density(3, rng), _random_density(4, rng)) for w in (0.2, 0.5, 0.3)]
    rep_a, rep_b = build_spin_rep(SpinQuantum(2)), build_spin_rep(SpinQuantum(3))
    obs_a = [spin_component(rep_a, UnitVector.from_angles(0.4, 1.9)), degenerate_observable(3, rng)]
    obs_b = [degenerate_observable(4, rng), spin_component(rep_b, UnitVector.from_angles(2.6, 0.3))]
    model = model_from_separable(comps, obs_a, obs_b)
    for lam, (_, rho_a, rho_b) in enumerate(comps):
        for resp, rho, obs_list in ((model.response_a, rho_a, obs_a),
                                    (model.response_b, rho_b, obs_b)):
            for i, obs in enumerate(obs_list):
                want = [np.trace(rho @ p).real for _, p in eigh_projectors(obs.matrix)]
                assert np.max(np.abs(resp[lam][i] - want)) < 1e-12
    rho = separable_mixture(comps).density()
    for i in (0, 1):
        for j in (0, 1):
            for alpha, pa in eigh_projectors(obs_a[i].matrix):
                for beta, pb in eigh_projectors(obs_b[j].matrix):
                    pm = lhv_model_eval(model, "joint", setting_a=i, setting_b=j,
                                        alpha=alpha, beta=beta)
                    assert abs(pm - np.trace(rho @ np.kron(pa, pb)).real) < 1e-12


def _symmetric_lhv_min_compositions(n):
    """The former O(N^3) enumeration over compositions (n++, n+-, n-+,
    n--) of N, kept as the oracle for value and witness."""
    best, witness = None, None
    for n1 in range(n + 1):
        for n2 in range(n - n1 + 1):
            n3 = np.arange(n - n1 - n2 + 1)
            n4 = n - n1 - n2 - n3
            p = n1 + n2 - n3 - n4
            q = n1 - n2 + n3 - n4
            r = n1 - n2 - n3 + n4
            w = 2.0 * p + p * q - r + n + 0.5 * (p ** 2 + q ** 2)
            k = int(np.argmin(w))
            if best is None or w[k] < best:
                best, witness = float(w[k]), (n1, n2, int(n3[k]), int(n4[k]))
    return best, witness


def test_symmetric_min_matches_composition_enumeration():
    for n in range(1, 61):
        assert symmetric_lhv_min(n) == _symmetric_lhv_min_compositions(n), n


def test_strategies_in_product_order():
    # witnesses are read off by row index, so the rows keep
    # itertools.product's order
    for lists in (((0.5, -0.5), (1, 0, -1)), ((2, 1, 0), (7,), (0.5, -0.5)),
                  ((1.5, 0.5, -0.5, -1.5), (0, 1))):
        rows = _strategies(lists)
        assert rows.shape == (math.prod(len(o) for o in lists), len(lists))
        assert [tuple(o[k] for o, k in zip(lists, row)) for row in rows] == list(
            itertools.product(*lists))
