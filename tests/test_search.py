import math

import numpy as np
import pytest

from bellkit.errors import CapacityError, ValidationError
from bellkit.registry import FUNCTIONALS
from bellkit.spin import SpinQuantum, build_spin_rep
from bellkit.states import (
    SymmetricState, angular_momentum_eigenstate, dicke, maximally_entangled, random_pure_state,
    relative_phase, separable_mixture, singlet, werner,
)
from bellkit.search import (
    ScanSpec,
    SearchConfig,
    mermin_coplanar_vectors,
    multi_start_max,
    optimize_settings,
    optimize_weights_cfrd,
    pattern_search_max,
    scan_parameter,
)


def test_search_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(seed=1, restarts=0)
    with pytest.raises(ValidationError):
        SearchConfig(seed=1, tolerance=0.0)
    # the budget cap: restarts x evaluations per restart at most 1e6
    SearchConfig(seed=1, restarts=500, max_evals_per_restart=2000)
    for restarts, evals in ((501, 2000), (10 ** 12, 5), (1, 10 ** 12)):
        with pytest.raises(CapacityError):
            SearchConfig(seed=1, restarts=restarts, max_evals_per_restart=evals)


def test_pattern_search_quadratic():
    f = lambda x: -float((x[0] - 1.3) ** 2 + (x[1] + 0.4) ** 2)
    x, fx, evals = pattern_search_max(f, np.zeros(2), 0.5, 1e-10, 5000)
    assert abs(x[0] - 1.3) < 1e-8 and abs(x[1] + 0.4) < 1e-8
    assert fx > -1e-15
    assert evals <= 5000


def test_multi_start_deterministic():
    f = lambda x: -float(np.sum((x - 2.0) ** 2)) + math.sin(5 * x[0])
    cfg = SearchConfig(seed=42, restarts=6)
    r1 = multi_start_max(f, [(-3, 3), (-3, 3)], cfg)
    r2 = multi_start_max(f, [(-3, 3), (-3, 3)], cfg)
    assert np.allclose(r1[0], r2[0]) and r1[1] == r2[1]


def test_chsh_singlet_to_tsirelson():
    rep = optimize_settings(singlet(1), "chsh", SearchConfig(seed=3, restarts=8))
    assert abs(abs(rep.value) - math.sqrt(2) / 2) < 1e-6
    assert rep.violation
    assert rep.seed == 3


def test_chsh_monotone_in_restarts():
    # restart substreams are nested, so more restarts can only improve
    st = maximally_entangled(2)
    vals = []
    for r in (1, 4, 12):
        rep = optimize_settings(st, "chsh", SearchConfig(seed=9, restarts=r))
        vals.append(abs(rep.value))
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


def test_optimize_determinism_across_calls():
    st = maximally_entangled(2)
    a = optimize_settings(st, "chsh", SearchConfig(seed=123, restarts=4))
    b = optimize_settings(st, "chsh", SearchConfig(seed=123, restarts=4))
    assert a.value == b.value
    assert a.settings == b.settings


def test_optimize_unknown_functional():
    with pytest.raises(ValidationError):
        optimize_settings(singlet(1), "nope", SearchConfig(seed=1))


def _random_symmetric(n, rng):
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return SymmetricState(n, amp / np.linalg.norm(amp))


def _mermin_objective(rep, st):
    """-margin where the premise holds; elsewhere below every -margin
    (|margin| <= 4s^3 + 2s^2) and falling with the premise gap."""
    s, gap = st.s_a.s, rep.extra["premise_gap"]
    return -rep.margin if gap <= 1e-9 * max(1.0, s * s) else -(4 * s ** 3 + 2 * s ** 2 + 1) - gap


# the compiled objective of each settings search, and the same number
# read from the evaluator's report at the same angles
_FROM_REPORT = {
    "chsh": lambda rep, st: abs(rep.value) - rep.bound,
    "tura": lambda rep, st: -rep.value,
    "mermin": _mermin_objective,
}


def test_compiled_objective_equals_evaluator():
    rng = np.random.default_rng(77)
    bipartite = [werner(1, -0.8), werner(2, -0.5), werner(3, 0.4), maximally_entangled(2),
                 relative_phase(3, 0.7), random_pure_state(SpinQuantum(2), SpinQuantum(2), rng)]
    cases = {
        "chsh": bipartite + [angular_momentum_eigenstate(1, 2, 0.5, 0.5),
                             random_pure_state(SpinQuantum(1), SpinQuantum(3), rng)],
        "mermin": bipartite + [singlet(3)],
        "tura": [dicke(8, 3), dicke(20, 10), dicke(5, 0), _random_symmetric(6, rng),
                 _random_symmetric(15, rng)],
    }
    for name, states in cases.items():
        for st in states:
            for coplanar in (False, True):
                ranges, objective, report = FUNCTIONALS[name].optimize(st, coplanar)
                for _ in range(50):
                    # angles beyond the start ranges too, where the search may walk
                    x = np.array([rng.uniform(lo - 1.0, hi + 1.0) for lo, hi in ranges])
                    got, want = objective(x), _FROM_REPORT[name](report(x), st)
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, st, x)


def _dense_correlation_matrix(st):
    """T[i, j] = Tr(rho S^A_i (x) S^B_j) from dense Kronecker products."""
    rep_a, rep_b = build_spin_rep(st.s_a), build_spin_rep(st.s_b)
    rho = st.density()
    return np.array([[np.trace(rho @ np.kron(a, b)).real for b in (rep_b.sx, rep_b.sy, rep_b.sz)]
                     for a in (rep_a.sx, rep_a.sy, rep_a.sz)])


def test_chsh_search_reaches_horodecki_maximum():
    # max |S| = 2 sqrt(s1^2 + s2^2) over the two largest singular values
    # of T (Horodecki); coplanar settings read T's x-z block
    rng = np.random.default_rng(12)
    states = [singlet(1), maximally_entangled(1), maximally_entangled(2),
              maximally_entangled(3), werner(2, -0.5),
              random_pure_state(SpinQuantum(1), SpinQuantum(2), rng),
              random_pure_state(SpinQuantum(2), SpinQuantum(2), rng)]
    for st in states:
        t = _dense_correlation_matrix(st)
        for coplanar, block in ((False, t), (True, t[np.ix_([0, 2], [0, 2])])):
            sigma = np.linalg.svd(block, compute_uv=False)
            want = 2.0 * math.hypot(sigma[0], sigma[1])
            rep = optimize_settings(st, "chsh", SearchConfig(seed=21, restarts=8,
                                                             coplanar=coplanar))
            assert abs(abs(rep.value) - want) < 1e-9, (st.meta, coplanar, rep.value, want)


def test_mermin_search_refuses_unequal_spins():
    with pytest.raises(ValidationError, match="equal subsystem spins"):
        optimize_settings(angular_momentum_eigenstate(1, 2, 0.5, 0.5), "mermin",
                          SearchConfig(seed=1, restarts=1))


def test_mermin_coplanar_vectors():
    theta = 0.3
    a, b, c = mermin_coplanar_vectors(theta)
    assert abs(a.dot(c) - math.cos(math.pi / 2 + theta)) < 1e-12
    assert abs(b.dot(c) - math.cos(math.pi / 2 + theta)) < 1e-12
    assert abs(a.dot(b) - math.cos(math.pi - 2 * theta)) < 1e-12


def test_mermin_optimizer_finds_window():
    rep = optimize_settings(singlet(2), "mermin", SearchConfig(seed=2, restarts=8))
    assert rep.violation  # s = 1 singlet violates inside 0 < sin(theta) < 1/2


def test_mermin_optimizer_on_product_state_reports_no_violation():
    # |up>|up> is not anticorrelated along any b: <(b.S^A + b.S^B)^2> =
    # (1 + b_z^2)/2, so the search can only bring the premise gap down
    # to its minimum 1/2 and reports no violation
    up = np.diag([1.0, 0.0])
    rep = optimize_settings(separable_mixture([(1.0, up, up)]), "mermin",
                            SearchConfig(seed=2, restarts=4))
    assert not rep.violation
    assert abs(rep.extra["premise_gap"] - 0.5) <= 1e-6


def test_mermin_optimizer_finds_the_premise():
    # relative_phase is perfectly anticorrelated along z only, so the
    # search has to end at b = +-z, where the premise gap vanishes
    rep = optimize_settings(relative_phase(3, 0.4), "mermin", SearchConfig(seed=3, restarts=3))
    assert rep.extra["premise_gap"] <= 1e-9 * max(1.0, 1.5 ** 2)
    assert abs(abs(rep.settings[1][2]) - 1.0) <= 1e-6


def test_reid_optimizer_small_n():
    rep = optimize_settings(maximally_entangled(2), "reid",
                            SearchConfig(seed=5, restarts=6))
    assert rep.value > 1.0 + 1e-6


def test_cfrd_weight_search():
    # saturation (margin -> 0) at s = 1/2; clearly positive for s >= 1
    r_half = optimize_weights_cfrd(SpinQuantum(1), SearchConfig(seed=7, restarts=8))
    assert -1e-9 <= r_half.margin <= 1e-6
    r_one = optimize_weights_cfrd(SpinQuantum(2), SearchConfig(seed=7, restarts=8))
    assert r_one.margin > 0.2
    r_threehalf = optimize_weights_cfrd(SpinQuantum(3), SearchConfig(seed=7, restarts=8))
    assert r_threehalf.margin > 0.9


def test_scan_mermin_rows():
    grid = tuple(np.linspace(0.3, 0.7, 9))
    spec = ScanSpec(parameter="sin_theta_geometry", grid=grid, functional="mermin",
                    state_family="singlet", state_params={"two_s": 2})
    rows = scan_parameter(spec)
    assert len(rows) == 9
    assert [r["parameter"] for r in rows] == list(grid)
    # boundary at sin(theta) = 1/2 for s = 1
    for r in rows:
        assert r["violation"] == (r["parameter"] < 0.5)


def test_scan_werner_with_optimization():
    grid = (-1.0, -0.9, 0.0, 1.0)
    spec = ScanSpec(parameter="phi", grid=grid, functional="chsh",
                    state_family="werner", state_params={"n": 1},
                    settings="optimize",
                    search=SearchConfig(seed=4, restarts=6))
    rows = scan_parameter(spec)
    assert rows[0]["violation"]      # phi = -1 is the singlet
    assert not rows[-1]["violation"]  # phi = +1 is separable-side
    assert len(rows) == 4


def test_scan_grid_validation():
    with pytest.raises(ValidationError):
        ScanSpec(parameter="phi", grid=(), functional="chsh", state_family="werner")
    with pytest.raises(ValidationError):
        ScanSpec(parameter="phi", grid=(0.0, 1.0, 0.5), functional="chsh",
                 state_family="werner")


def test_reid_search_propagates_real_errors(monkeypatch):
    # only a vanishing denominator counts as a failed evaluation
    import bellkit.registry

    def broken(*args, **kwargs):
        raise RuntimeError("evaluator bug")

    monkeypatch.setattr(bellkit.registry, "reid_ratio", broken)
    with pytest.raises(RuntimeError, match="evaluator bug"):
        optimize_settings(maximally_entangled(1), "reid", SearchConfig(seed=1, restarts=1))


def test_optimize_settings_refuses_a_state_of_the_wrong_class():
    from bellkit.states import dicke
    with pytest.raises(ValidationError):
        optimize_settings(dicke(4, 2), "chsh", SearchConfig(seed=1, restarts=1))
    with pytest.raises(ValidationError):
        optimize_settings(singlet(1), "tura", SearchConfig(seed=1, restarts=1))


def _random_factor(d, pure, rng):
    """A random density matrix of dimension d: a projector when pure."""
    shape = (d, 1 if pure else d)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_separable_mixtures_never_flagged_as_violating():
    # the property oracle: a separable mixture is an LHV model, so no settings search may
    # report a violation on one; d = 2, 3, one or two components, pure and mixed factors
    rng = np.random.default_rng(2024)
    for k in range(12):
        d, n_comp = int(rng.integers(2, 4)), 1 + k % 2
        weights = rng.dirichlet(np.ones(n_comp))
        comps = [(float(w), _random_factor(d, rng.random() < 0.5, rng),
                  _random_factor(d, rng.random() < 0.5, rng)) for w in weights]
        state = separable_mixture(comps)
        for name in ("chsh", "mermin", "reid"):
            config = SearchConfig(seed=k, restarts=2, max_evals_per_restart=200)
            rep = optimize_settings(state, name, config)
            assert not rep.violation, (k, d, n_comp, name, rep.margin)
