import itertools
import math

import numpy as np
import pytest

from bellkit.errors import CapacityError, ValidationError
from bellkit.spin import SpinQuantum, UnitVector, build_spin_rep, spin_component
from bellkit.states import binned_joint_probability, MeasurementSetting, separable_mixture
from bellkit.functionals import (
    cglmp_functional,
    chsh_functional,
    chsh_value,
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
    symmetric_lhv_min_bruteforce,
    two_setting_spin_scenario,
)


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
    bound, witness = enumerate_lhv_bound(sc, chsh_functional(), "max")
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
    low, _ = enumerate_lhv_bound(sc, chsh_functional(), "min")
    assert low == -0.5
    with pytest.raises(ValidationError):
        enumerate_lhv_bound(sc, chsh_functional(), "extremum")


def test_enumeration_capacity_cap():
    sc = two_setting_spin_scenario(200, 200)
    with pytest.raises(CapacityError):
        enumerate_lhv_bound(sc, generalized_chsh_functional(200, 200), "max")


def test_cglmp_enumerated_value():
    for d in (2, 3, 4, 5):
        bound, witness = enumerate_lhv_bound(cglmp_scenario(d), cglmp_functional(d), "max")
        assert abs(bound - 3.0) < 1e-12, d
        assert len(witness.outcomes_a) == 2


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
            for ia, alpha in enumerate(obs_a[i].outcome_spectrum):
                for ib, beta in enumerate(obs_b[j].outcome_spectrum):
                    pm = lhv_model_eval(model, "joint", setting_a=i, setting_b=j,
                                        alpha=alpha, beta=beta)
                    pa = obs_a[i].projector_for(alpha)
                    pb = obs_b[j].projector_for(beta)
                    from bellkit.states import expect_product
                    pq = expect_product(state, pa, pb)
                    assert abs(pm - pq) < 1e-10
    # CHSH value through the model equals the quantum value
    s_model = (lhv_model_eval(model, "mean", setting_a=0, setting_b=0)
               + lhv_model_eval(model, "mean", setting_a=0, setting_b=1)
               + lhv_model_eval(model, "mean", setting_a=1, setting_b=0)
               - lhv_model_eval(model, "mean", setting_a=1, setting_b=1))
    s_quantum = chsh_value(state, dirs[0], dirs[1], dirs[2], dirs[3]).value
    assert abs(s_model - s_quantum) < 1e-10


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
        want = np.array(list(itertools.product(*lists)), dtype=float)
        assert np.array_equal(_strategies(lists), want)
