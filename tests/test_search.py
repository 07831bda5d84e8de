import dataclasses
import math

import numpy as np
import pytest

from bellkit import cli, search
from bellkit.errors import CapacityError, DegenerateConditionError, ValidationError
from bellkit.functionals import (
    SearchProblem, _form_values, _modal_dual, _over_vectors, _tura_forms, cfrd_margin,
    cfrd_weight_problem, chsh_problem, chsh_value, generalized_chsh_functional, mermin_problem,
    reid_ratio, tura_problem, tura_value,
)
from bellkit.registry import FAMILIES, FUNCTIONALS, build_state
from bellkit.spin import SpinQuantum, UnitVector, build_spin_rep, spin_component
from bellkit.states import (
    BipartiteState, SymmetricState, angular_momentum_eigenstate, conditioned_state, dicke,
    maximally_entangled, random_pure_state, relative_phase, rm_weighted, separable_mixture,
    singlet, spin_moments, werner,
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
from reference import (
    dense_reid_ratio_maximally_entangled, mermin_abc_objective, multi_start_max_searching_every_start,
    pattern_search_max_one_at_a_time,
)


def test_search_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(seed=1, restarts=0)
    for bad in ({"tolerance": 0.0}, {"tolerance": math.nan}, {"tolerance": math.inf},
                {"initial_step": 0.0}, {"initial_step": -1.0}, {"initial_step": math.nan},
                {"initial_step": math.inf}, {"max_evals_per_restart": 0},
                {"max_evals_per_restart": -5}, {"restarts": 1, "max_evals_per_restart": -10 ** 7}):
        with pytest.raises(ValidationError):
            SearchConfig(seed=1, **bad)
    # the budget cap: restarts x evaluations per restart at most 1e6
    SearchConfig(seed=1, restarts=500, max_evals_per_restart=2000)
    for restarts, evals in ((501, 2000), (10 ** 12, 5), (1, 10 ** 12)):
        with pytest.raises(CapacityError):
            SearchConfig(seed=1, restarts=restarts, max_evals_per_restart=evals)


def test_pattern_search_quadratic():
    f = lambda x: -((x[:, 0] - 1.3) ** 2 + (x[:, 1] + 0.4) ** 2)
    x, fx, evals = pattern_search_max(f, np.zeros(2), 0.5, 1e-10, 5000)
    assert abs(x[0] - 1.3) < 1e-8 and abs(x[1] + 0.4) < 1e-8
    assert fx > -1e-15
    assert evals <= 5000


def test_multi_start_deterministic():
    f = lambda x: -np.sum((x - 2.0) ** 2, axis=1) + np.sin(5 * x[:, 0])
    cfg = SearchConfig(seed=42, restarts=6)
    r1 = multi_start_max(SearchProblem([(-3, 3), (-3, 3)], f, None), cfg)
    r2 = multi_start_max(SearchProblem([(-3, 3), (-3, 3)], f, None), cfg)
    assert np.allclose(r1[0], r2[0]) and r1[1] == r2[1]


# point objectives: a quadratic, a trigonometric sum, and one that is -inf on half the space
_POINT_OBJECTIVES = [
    lambda x: -float(np.sum((x - np.linspace(-1.0, 1.3, len(x))) ** 2)),
    lambda x: float(np.sum(np.sin(3.0 * x) * np.cos(x[::-1] + 0.4))),
    lambda x: -math.inf if x[0] > 0.2 else math.cos(float(np.sum(x))),
]


def test_batched_search_equals_one_at_a_time_reference():
    # on a row-wise objective the batched sweep walks the trials of the
    # one-at-a-time search: same x, value and count, bit for bit, with no stop and with a
    # stop reached at x0, reached mid-walk or never reached
    rng = np.random.default_rng(31)
    stopped_early = 0
    for f in _POINT_OBJECTIVES:
        for n in (1, 8):
            for max_evals in (1, 2, 17, 40, 5000):
                x0 = rng.uniform(-2.0, 2.0, n)
                x0[-1] = -0.0  # a signed zero that only a move may change
                f0 = f(x0)
                full = pattern_search_max_one_at_a_time(f, x0, 0.5, 1e-8, max_evals)
                for stop in (math.inf, f0, 0.5 * (f0 + full[1]), full[1] + 1.0):
                    batches = []

                    def batched(points):
                        batches.append(len(points))
                        return np.array([f(p) for p in points])

                    want = pattern_search_max_one_at_a_time(f, x0, 0.5, 1e-8, max_evals, stop)
                    got = pattern_search_max(batched, x0, 0.5, 1e-8, max_evals, stop)
                    assert got[0].tobytes() == want[0].tobytes(), (n, max_evals, stop, got[0],
                                                                   want[0])
                    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
                    assert got[2] == want[2] <= max_evals
                    assert batches[0] == 1 and max(batches) <= min(2 * n, max(max_evals - 1, 1))
                    if stop <= f0:
                        assert got[2] == 1 and got[0].tobytes() == x0.tobytes()
                    elif stop > full[1]:
                        assert got[2] == full[2] and got[1] == full[1]
                    else:
                        assert got[1] >= stop and got[2] <= full[2]
                        stopped_early += got[2] < full[2]
    assert stopped_early >= 10
    # a start scored -inf, and an objective that is -inf everywhere
    for f in (_POINT_OBJECTIVES[2], lambda x: -math.inf):
        x0 = np.full(3, 0.5)
        want = pattern_search_max_one_at_a_time(f, x0, 0.5, 1e-8, 300)
        got = pattern_search_max(lambda p: np.array([f(r) for r in p]), x0, 0.5, 1e-8, 300)
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1] and got[2] == want[2]
    # NaN never reaches a stop: a start scored NaN, which no trial beats, walks as with no stop
    # whatever the stop, and so do NaN trials beside finite ones below a stop never reached
    for f, stops in ((lambda x: math.nan if x[0] > 0.2 else 1.0, (2.0, -math.inf, math.nan)),
                     (lambda x: math.nan if x[0] > 0.7 else math.cos(float(np.sum(x))),
                      (2.0, math.nan))):
        x0 = np.full(3, 0.5)
        full = pattern_search_max(lambda p: np.array([f(r) for r in p]), x0, 0.5, 1e-8, 300)
        assert full[2] > 100
        for stop in stops:
            want = pattern_search_max_one_at_a_time(f, x0, 0.5, 1e-8, 300, stop)
            got = pattern_search_max(lambda p: np.array([f(r) for r in p]), x0, 0.5, 1e-8, 300,
                                     stop)
            for run in (want, got):
                assert run[0].tobytes() == full[0].tobytes() and run[2] == full[2], stop
                assert np.float64(run[1]).tobytes() == np.float64(full[1]).tobytes()


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
                ranges, objective, report, *_ = FUNCTIONALS[name].optimize(st, coplanar)
                # angles beyond the start ranges too, where the search may walk;
                # 50 single rows, then the same 50 as one batch
                xs = np.array([[rng.uniform(lo - 1.0, hi + 1.0) for lo, hi in ranges]
                               for _ in range(50)])
                batch = objective(xs)
                assert batch.shape == (50,)
                for x, got_in_batch in zip(xs, batch):
                    want = _FROM_REPORT[name](report(x), st)
                    for got in (objective(x[None])[0], got_in_batch):
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


def _chsh_ceiling(problem, st):
    """(ceiling, bound) of a CHSH problem: the largest objective value, max |S| - bound, which
    its restarts stop 1e-12 max(1, max |S|) below."""
    bound = generalized_chsh_functional(st.s_a.two_s, st.s_b.two_s).bound
    return problem.stop + 1e-12 * max(1.0, problem.stop + bound), bound


def _horodecki_cases():
    """(state, coplanar, 2 sqrt(s1^2 + s2^2) of the dense T, or of its x-z block when
    coplanar); max |S| runs from 0.42 to 3.5, on both sides of 1."""
    rng = np.random.default_rng(12)
    states = [singlet(1), maximally_entangled(1), maximally_entangled(2),
              maximally_entangled(3), werner(2, -0.5),
              random_pure_state(SpinQuantum(1), SpinQuantum(2), rng),
              random_pure_state(SpinQuantum(2), SpinQuantum(2), rng)]
    for st in states:
        t = _dense_correlation_matrix(st)
        for coplanar, block in ((False, t), (True, t[np.ix_([0, 2], [0, 2])])):
            sigma = np.linalg.svd(block, compute_uv=False)
            yield st, coplanar, 2.0 * math.hypot(sigma[0], sigma[1])


def test_chsh_ceiling_is_the_horodecki_maximum():
    # the problem's ceiling + bound is 2 sqrt(s1^2 + s2^2) of the dense T (its x-z block
    # when coplanar)
    for st, coplanar, want in _horodecki_cases():
        ceiling, bound = _chsh_ceiling(chsh_problem(st, coplanar), st)
        assert abs(ceiling + bound - want) <= 1e-12, (st.meta, coplanar)


def test_chsh_objective_never_exceeds_its_ceiling():
    rng = np.random.default_rng(44)
    states = [random_pure_state(SpinQuantum(a), SpinQuantum(b), rng)
              for a in (1, 2, 3, 4) for b in (1, 2, 3, 4)]
    for st in [*states, werner(2, -0.8), werner(3, 0.6)]:
        for coplanar in (False, True):
            problem = chsh_problem(st, coplanar)
            x = np.column_stack([rng.uniform(lo, hi, size=500) for lo, hi in problem.ranges])
            ceiling = _chsh_ceiling(problem, st)[0]
            assert problem.objective(x).max() <= ceiling + 1e-12, (st.meta, coplanar)


def _count_pattern_searches(monkeypatch):
    evals = []

    def counting(*args):
        result = pattern_search_max(*args)
        evals.append(result[2])
        return result

    monkeypatch.setattr(search, "pattern_search_max", counting)
    return evals


def test_chsh_restarts_stop_at_the_ceiling(monkeypatch):
    evals = _count_pattern_searches(monkeypatch)
    rep = optimize_settings(maximally_entangled(2), "chsh", SearchConfig(seed=5, restarts=8))
    assert len(evals) == 1
    sigma = np.linalg.svd(_dense_correlation_matrix(maximally_entangled(2)), compute_uv=False)
    assert abs(abs(rep.value) - 2.0 * math.hypot(sigma[0], sigma[1])) <= 1e-9
    # the restart itself ends at its first trial that reaches the stop, within the slack of
    # the ceiling, in fewer evaluations than the same walk with no stop
    problem = chsh_problem(maximally_entangled(2), False)
    _, f = multi_start_max(problem, SearchConfig(seed=5, restarts=8))
    multi_start_max(problem._replace(stop=math.inf), SearchConfig(seed=5, restarts=1))
    assert evals[1] < evals[2], evals
    assert problem.stop <= f <= _chsh_ceiling(problem, maximally_entangled(2))[0] + 1e-12
    # a restart stopped by its evaluation cap falls short of the ceiling, so the next one runs
    evals.clear()
    optimize_settings(maximally_entangled(1), "chsh",
                      SearchConfig(seed=3, restarts=2, max_evals_per_restart=40))
    assert evals == [40, 40]
    # searches without a ceiling run every restart
    evals.clear()
    optimize_settings(maximally_entangled(1), "reid", SearchConfig(seed=3, restarts=3,
                                                                   max_evals_per_restart=200))
    assert len(evals) == 3


def test_multi_start_stops_within_the_slack_of_its_ceiling(monkeypatch):
    # the restarts stop once the best reaches problem.stop, here a ceiling less the CHSH slack
    # 1e-12 max(1, ceiling + bound), and not before
    evals = _count_pattern_searches(monkeypatch)
    for ceiling, bound, runs in ((5e-13, 0.0, 1), (2e-12, 0.0, 4), (3e-12, 9.0, 1),
                                 (1e-11, 9.0, 4)):
        objective = lambda x: -np.sum((x - 1.0) ** 2, axis=1)  # largest value 0 at x = 1
        stop = ceiling - 1e-12 * max(1.0, ceiling + bound)
        evals.clear()
        multi_start_max(SearchProblem([(0.0, 2.0)], objective, None, stop=stop),
                        SearchConfig(seed=2, restarts=4))
        assert len(evals) == runs, (ceiling, bound)


def test_chsh_stop_is_the_horodecki_maximum_less_its_slack():
    # stop = max |S| - bound - 1e-12 max(1, max |S|), max |S| from the dense T; the 1e-12
    # slack is 100 times the tolerance of the comparison
    for st, coplanar, want in _horodecki_cases():
        bound = generalized_chsh_functional(st.s_a.two_s, st.s_b.two_s).bound
        stop = chsh_problem(st, coplanar).stop
        assert abs(stop - (want - bound - 1e-12 * max(1.0, want))) <= 1e-14, (st.meta, coplanar)


def test_chsh_objective_is_alices_closed_form_maximum():
    # at fixed Bob settings the objective is the largest |S| - bound over Alice's settings
    # (in the x-z plane when coplanar): at least |S| at 200 random u pairs, and |S| at the
    # u's the report builds
    rng = np.random.default_rng(31)
    states = [random_pure_state(SpinQuantum(1), SpinQuantum(1), rng),
              random_pure_state(SpinQuantum(2), SpinQuantum(1), rng),
              random_pure_state(SpinQuantum(1), SpinQuantum(3), rng), werner(2, -0.7)]
    for st in states:
        for coplanar in (False, True):
            ranges, objective, report, *_ = chsh_problem(st, coplanar)
            for _ in range(2):
                x = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
                got, rep = objective(x[None])[0], report(x)
                assert abs(got - (abs(rep.value) - rep.bound)) <= 1e-12, (st.meta, coplanar)
                u1, u2, v1, v2 = (UnitVector(*s) for s in rep.settings)
                assert not coplanar or u1.uy == u2.uy == 0.0
                for _ in range(200):
                    u = rng.normal(size=(2, 3))
                    u[:, 1] *= not coplanar
                    u /= np.linalg.norm(u, axis=1, keepdims=True)
                    s = chsh_value(st, UnitVector(*u[0]), UnitVector(*u[1]), v1, v2).value
                    assert abs(s) - rep.bound <= got + 1e-12, (st.meta, coplanar)


def test_chsh_search_where_alices_vector_vanishes():
    # T = 0 on werner(2, 1/3) and T = diag(0, 0, 1/4) on |+1/2, +1/2>: where w_i = 0 the
    # report takes u_i = z, and every search ends on unit settings at the Horodecki maximum
    product = rm_weighted(SpinQuantum(1), [1, 0])
    for st, want in ((werner(2, 1 / 3), 0.0), (product, 0.5)):
        for coplanar in (False, True):
            rep = optimize_settings(st, "chsh", SearchConfig(seed=4, restarts=2,
                                                             coplanar=coplanar))
            settings = [UnitVector(*s) for s in rep.settings]  # each checked for unit length
            assert abs(rep.value - chsh_value(st, *settings).value) <= 1e-12
            assert abs(rep.value - want) <= 1e-9, (st.meta, coplanar, rep.value)
    # v_1 = v_2 makes w_2 = T (v_1 - v_2) exactly 0
    for st in (werner(2, 1 / 3), product):
        rep = chsh_problem(st, True)[2](np.array([0.4, 0.4]))
        assert rep.settings[1] == [0.0, 0.0, 1.0]


def test_reid_search_reaches_clauser_horne_optimum():
    # spin 1/2: the Reid ratio is the Clauser-Horne ratio, whose optimum is (1 + sqrt 2)/2
    for seed in (1, 2, 3):
        rep = optimize_settings(maximally_entangled(1), "reid", SearchConfig(seed=seed))
        assert abs(rep.value - (1 + math.sqrt(2)) / 2) <= 1e-9, (seed, rep.value)


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


def _mermin_states():
    """The Mermin states of test_compiled_objective_equals_evaluator."""
    rng = np.random.default_rng(77)
    return [werner(1, -0.8), werner(2, -0.5), werner(3, 0.4), maximally_entangled(2),
            relative_phase(3, 0.7), random_pure_state(SpinQuantum(2), SpinQuantum(2), rng),
            singlet(3)]


def test_mermin_objective_is_the_three_direction_objective_maximized_over_c():
    # at fixed (a, b) the objective is the largest value over c of the objective over (a, b, c)
    # (c in the x-z plane when coplanar): at least it at 100 random unit c, and it at the c
    # that the report returns
    rng = np.random.default_rng(23)
    for st in _mermin_states():
        oracle = mermin_abc_objective(st)
        for coplanar in (False, True):
            ranges, objective, report, *_ = mermin_problem(st, coplanar)
            xs = np.array([[rng.uniform(lo, hi) for lo, hi in ranges] for _ in range(50)])
            for x, got in zip(xs, objective(xs)):
                a, b, c = report(x).settings
                assert not coplanar or a[1] == b[1] == c[1] == 0.0
                want = oracle(np.array([[a, b, c]]))[0]
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (st.meta, coplanar, x)
                cs = rng.normal(size=(100, 3))
                cs[:, 1] *= not coplanar
                cs /= np.linalg.norm(cs, axis=1, keepdims=True)
                others = oracle(np.stack([np.broadcast_to(a, (100, 3)),
                                          np.broadcast_to(b, (100, 3)), cs], axis=1))
                assert others.max() <= got + 1e-12 * max(1.0, abs(got)), (st.meta, coplanar, x)


def test_mermin_search_never_loses_to_the_three_direction_search():
    # relative_phase holds the premise along z only; the (a, b) search ends no lower than the
    # search over (a, b, c), run through the same multi_start_max at the same seed and budget
    for n in (2, 3):
        st = relative_phase(n, 0.4)
        for coplanar in (False, True):
            old = _over_vectors(3, coplanar, mermin_abc_objective(st), None)
            for seed in (1, 2):
                config = SearchConfig(seed=seed, restarts=4, coplanar=coplanar)
                got = multi_start_max(mermin_problem(st, coplanar), config)[1]
                want = multi_start_max(old, config)[1]
                assert got >= want, (n, coplanar, seed, got, want)


def test_mermin_search_finds_a_violation_on_relative_phase():
    # the search over (a, b, c) ended without one at both of these seeds
    st = relative_phase(3, 0.4)
    for seed, coplanar in ((1, True), (2, False)):
        rep = optimize_settings(st, "mermin", SearchConfig(seed=seed, restarts=4,
                                                           coplanar=coplanar))
        assert rep.violation, (seed, coplanar, rep.margin, rep.extra["premise_gap"])


def test_wall_time_includes_the_problem_build(monkeypatch, tmp_path):
    # a problem that takes 50 ms to build shows in the report's wall_time_s, through
    # optimize_settings and through the CLI's stateless optimize
    import json
    import time

    def slow(build):
        return lambda *args: time.sleep(0.05) or build(*args)

    for name in ("chsh", "cfrd_weights"):
        monkeypatch.setitem(FUNCTIONALS, name, dataclasses.replace(
            FUNCTIONALS[name], optimize=slow(FUNCTIONALS[name].optimize)))
    config = SearchConfig(seed=1, restarts=1, max_evals_per_restart=10)
    assert optimize_settings(singlet(1), "chsh", config).wall_time_s >= 0.05
    spec, out = tmp_path / "spec.json", tmp_path / "out.json"
    spec.write_text(json.dumps({"functional": {"name": "cfrd_weights", "params": {"two_s": 1}},
                                "search": {"seed": 1, "restarts": 1}}))
    assert cli.run(["optimize", "--spec", str(spec), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["wall_time_s"] >= 0.05


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


def test_cfrd_batched_objective_equals_cfrd_margin():
    # -margin of cfrd_margin on the pair state sum_m r_m |s,m>|s,-m>, built point by point,
    # and the objective of the dense forms the search had before the moment forms
    rng = np.random.default_rng(9)
    for two_s in range(1, 21):
        s = SpinQuantum(two_s)
        rep, d = build_spin_rep(s), s.dim
        ranges, objective, *_ = cfrd_weight_problem(s)
        assert ranges == [(-1.0, 1.0)] * d
        xs = rng.uniform(-1.0, 1.0, (50, d))
        sx, sy = rep.sx, rep.sy
        xy2 = sx @ sx + sy @ sy
        dense = np.array([(xy2 * xy2[::-1, ::-1]).real,
                          (sx * sx[::-1, ::-1]).real + (sy * sy[::-1, ::-1]).real])
        lhs, re_part = np.sum(xs @ dense * xs, axis=-1) / np.sum(xs * xs, axis=1)
        assert np.allclose(objective(xs), re_part ** 2 - lhs, rtol=1e-12, atol=1e-12), two_s
        for x, got in zip(xs, objective(xs)):
            psi = np.zeros((d, d), dtype=complex)
            psi[np.arange(d), np.arange(d - 1, -1, -1)] = x / np.linalg.norm(x)
            want = -cfrd_margin(BipartiteState("pure", s, s, psi=psi),
                                rep.sx, rep.sy, rep.sx, rep.sy).margin
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (two_s, x, got, want)
        assert objective(np.zeros((1, d)))[0] == -math.inf
    with pytest.raises(ValidationError):  # spin 0 is refused by the builder, before any search
        cfrd_weight_problem(SpinQuantum(0))


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
    # only a vanishing denominator counts as a failed evaluation: an error in
    # the report at the optimum, or in the compiled scorer at a step, reaches the caller
    import bellkit.functionals

    def broken(name):
        def raise_error(*args, **kwargs):
            raise RuntimeError(f"{name} bug")
        return raise_error

    for name in ("_reid_report", "reid_fraction"):
        monkeypatch.setattr(bellkit.functionals, name, broken(name))
        with pytest.raises(RuntimeError, match=f"{name} bug"):
            optimize_settings(maximally_entangled(1), "reid", SearchConfig(seed=1, restarts=1))


# one or more states per bipartite family: unequal spins, mixed states and mixtures
_REID_FAMILY_PARAMS = {
    "maximally_entangled": [{"n": 1}, {"n": 4}, {"n": 21}],
    "relative_phase": [{"n": 3, "theta": 0.7}],
    "werner": [{"n": 1, "phi": -0.6}, {"n": 2, "phi": 1.0}, {"n": 6, "phi": 0.3},
               {"n": 6, "phi": -0.5}],
    "angular_momentum_eigenstate": [{"n_a": 2, "n_b": 3, "j": 1.5, "k": 0.5},
                                    {"n_a": 4, "n_b": 1, "j": 1.5, "k": -0.5}],
    "singlet": [{"two_s": 1}, {"two_s": 3}],
    "rm_weighted": [{"two_s": 2, "r": [1.0, -2.0, 3.0]}, {"two_s": 1, "r": [0.0, 1.0]}],
    "separable_mixture": [
        {"components": [{"weight": 0.4, "rho_a": [[0.7, 0.2], [0.2, 0.3]],
                         "rho_b": [[0.5, 0.1, 0.0], [0.1, 0.3, 0.1], [0.0, 0.1, 0.2]]},
                        {"weight": 0.6, "rho_a": [[0.1, 0.0], [0.0, 0.9]],
                         "rho_b": [[0.2, 0.0, 0.1], [0.0, 0.6, 0.0], [0.1, 0.0, 0.2]]}]}],
}


def test_reid_compiled_objective_equals_reid_ratio():
    assert set(_REID_FAMILY_PARAMS) == {n for n, f in FAMILIES.items() if f.kind is BipartiteState}
    rng = np.random.default_rng(88)
    for name, cases in _REID_FAMILY_PARAMS.items():
        for params in cases:
            st = build_state(name, params)
            ranges, objective, *_ = FUNCTIONALS["reid"].optimize(st, False)
            xs = np.array([[rng.uniform(lo - 1.0, hi + 1.0) for lo, hi in ranges]
                           for _ in range(50)])
            batch = objective(xs)
            assert batch.shape == (50,)
            for x, got_in_batch in zip(xs, batch):
                try:
                    want = reid_ratio(st, *x).margin
                except DegenerateConditionError:
                    want = -math.inf
                for got in (objective(x[None])[0], got_in_batch):
                    assert got == want or abs(got - want) <= 1e-12, (name, params, x, got, want)
    # |down, down>: both + bins are empty at all-zero angles
    down_down = rm_weighted(SpinQuantum(1), [0.0, 1.0])
    with pytest.raises(DegenerateConditionError):
        reid_ratio(down_down, 0.0, 0.0, 0.0, 0.0)
    objective = FUNCTIONALS["reid"].optimize(down_down, False)[1]
    assert objective(np.zeros((1, 4)))[0] == -math.inf
    # a degenerate row scores -inf without touching the rows beside it
    mixed_batch = objective(np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 1.1, 0.7, 2.0]]))
    assert mixed_batch[0] == -math.inf
    assert abs(mixed_batch[1] - reid_ratio(down_down, 0.3, 1.1, 0.7, 2.0).margin) <= 1e-12


def test_reid_search_reports_from_its_compiled_series(monkeypatch):
    # the report at the optimum reads the compiled series and never calls reid_ratio, yet
    # equals reid_ratio at its settings on every family, both paths, mixed states and unequal
    # spins included; its margin is the best objective value the search found, to the bit
    import bellkit.functionals

    calls, found, search_max = [], [], search.multi_start_max
    compiles = _spy_on_the_generic_compile(monkeypatch)
    monkeypatch.setattr(bellkit.functionals, "reid_ratio", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(search, "multi_start_max",
                        lambda *args: found.append(search_max(*args)) or found[-1])
    states = [build_state(name, params)
              for name, cases in _REID_FAMILY_PARAMS.items() for params in cases]
    for st in states:
        rep = optimize_settings(st, "reid", SearchConfig(seed=4, restarts=3,
                                                         max_evals_per_restart=100))
        assert calls == []
        want = reid_ratio(st, *rep.settings)
        for got, dense in ((rep.value, want.value), (rep.margin, want.margin),
                           (rep.extra["numerator"], want.extra["numerator"]),
                           (rep.extra["denominator"], want.extra["denominator"])):
            assert abs(got - dense) <= 1e-12 * abs(dense), (st.meta, got, dense)
        assert (rep.violation, rep.settings, rep.state_meta, rep.extra["zero_policy"]) == (
            want.violation, want.settings, want.state_meta, want.extra["zero_policy"])
        assert rep.margin == found[-1][1], (st.meta, rep.margin, found[-1][1])
    assert 0 < len(compiles) < len(states)  # both paths ran


def test_reid_report_on_a_vanishing_denominator(monkeypatch):
    # |down, down> at all-zero angles: the report raises reid_ratio's error on both paths,
    # the difference series carrying its values there (P(+,+) = 0, both marginals 0)
    import bellkit.functionals

    down_down = rm_weighted(SpinQuantum(1), [0.0, 1.0])
    with pytest.raises(DegenerateConditionError) as dense:
        reid_ratio(down_down, 0.0, 0.0, 0.0, 0.0)
    for reduced in (None, (np.zeros(2), 0.0, 0.0)):
        monkeypatch.setattr(bellkit.functionals, "_reid_difference_series", lambda st: reduced)
        report = FUNCTIONALS["reid"].optimize(down_down, False)[2]
        with pytest.raises(DegenerateConditionError) as got:
            report(np.zeros(4))
        assert str(got.value) == str(dense.value)


def test_reid_search_macroscopic_spin():
    # N = 200: restart 0 starts at the optimum of the symmetric cut, 1.657e-3 above 1, and
    # the ratio at the reported angles matches the dense eigh oracle
    rep = optimize_settings(maximally_entangled(200), "reid",
                            SearchConfig(seed=11, restarts=2, max_evals_per_restart=500))
    assert rep.value >= 1.0 + 1.657e-3
    assert abs(rep.value - dense_reid_ratio_maximally_entangled(200, rep.settings)) <= 1e-12


# ratio - 1 of maximally_entangled(N) at the optimum of the symmetric cut, one restart
# of 40 evaluations; N = 1 is the Clauser-Horne optimum (sqrt 2 - 1)/2
_REID_CUT_TABLE = {1: 0.2071068, 2: 9.0575825e-2, 3: 8.736178e-2, 20: 1.523786e-2,
                   200: 1.6571278e-3, 446: 7.471774e-4}


def test_reid_search_macroscopic_table():
    for n, want in _REID_CUT_TABLE.items():
        rep = optimize_settings(maximally_entangled(n), "reid",
                                SearchConfig(seed=1, restarts=1, max_evals_per_restart=40))
        assert abs(rep.margin - want) <= 1e-7 * want, (n, rep.margin)
        assert abs(rep.value - dense_reid_ratio_maximally_entangled(n, rep.settings)) <= 1e-12
        if n == 1:
            assert abs(rep.margin - (math.sqrt(2) - 1) / 2) <= 1e-12


def _spy_on_the_generic_compile(monkeypatch):
    import bellkit.functionals

    calls, compile_series = [], bellkit.functionals.sign_bin_series
    monkeypatch.setattr(bellkit.functionals, "sign_bin_series",
                        lambda state: calls.append(state) or compile_series(state))
    return calls


def test_reid_search_singlet_table(monkeypatch):
    # singlet(N) shares maximally_entangled(N)'s turn symmetry and is locally equivalent to it,
    # so its search reaches the same cut optimum, without the general compile
    calls = _spy_on_the_generic_compile(monkeypatch)
    for n, want in _REID_CUT_TABLE.items():
        rep = optimize_settings(singlet(n), "reid",
                                SearchConfig(seed=1, restarts=1, max_evals_per_restart=40))
        assert abs(rep.margin - want) <= 1e-7 * want, (n, rep.margin)
    assert calls == []


def test_reid_difference_series_only_on_the_states_themselves(monkeypatch):
    # the path follows the state, never its record: a conditioned state keeps its family's
    # record and takes the general path, and a state under another state's record gives
    # exactly the value of its record-less copy
    calls = _spy_on_the_generic_compile(monkeypatch)
    config = SearchConfig(seed=3, restarts=2, max_evals_per_restart=200)
    up = spin_component(build_spin_rep(SpinQuantum(2)), UnitVector(0.0, 0.0, 1.0))
    conditioned = conditioned_state(maximally_entangled(2), up, 1.0)
    assert conditioned.meta["family"] == "maximally_entangled"
    value = optimize_settings(conditioned, "reid", config).value
    assert len(calls) == 1
    assert value == optimize_settings(dataclasses.replace(conditioned, meta={}), "reid",
                                      config).value
    calls.clear()
    copied = BipartiteState("mixed", SpinQuantum(2), SpinQuantum(2), rho=werner(2, 0.3).rho,
                            meta=werner(2, -0.5).meta)
    value = optimize_settings(copied, "reid", config).value
    assert value == optimize_settings(dataclasses.replace(copied, meta={}), "reid", config).value
    for st in (maximally_entangled(2), werner(2, -0.5), werner(2, 0.3)):
        optimize_settings(st, "reid", config)
    assert calls == []


def test_reid_difference_series_search_reaches_the_generic_search(monkeypatch):
    # the reduced search, restart 0 at the cut, ends no lower than the general search on the
    # same state, at the same seed and budget
    import bellkit.functionals

    calls = _spy_on_the_generic_compile(monkeypatch)
    config = SearchConfig(seed=5, restarts=2, max_evals_per_restart=400)
    states = [werner(n, phi) for n in range(1, 7) for phi in (-1.0, -0.5, 0.0, 0.1, 0.6, 1.0)]
    states += [maximally_entangled(n) for n in (1, 2, 3, 6, 10, 20)]
    states += [singlet(n) for n in (1, 2, 3)]
    states += [angular_momentum_eigenstate(n, n, 0, 0) for n in (6, 10, 20)]
    for st in states:
        reduced = optimize_settings(st, "reid", config).value
        assert calls == []
        with monkeypatch.context() as patch:
            patch.setattr(bellkit.functionals, "_reid_difference_series", lambda state: None)
            generic = optimize_settings(st, "reid", config).value
        assert len(calls) == 1, st.meta
        calls.clear()
        assert reduced >= generic - 1e-9, (st.meta, reduced, generic)


def test_reid_difference_series_on_hand_built_invariant_states(monkeypatch):
    # two eigenvectors of J = S_y^A + S_y^B, which the joint turns about y leave as they are:
    # |y+1>|y0>, with marginals P(+|theta*) = 3/4 and P(+|phi) = 1/2, takes the difference
    # series; |y+1>|y0> + 0.3i |y0>|y+1> has a sine part in phi - theta, which the cosine
    # objective cannot read, and takes the general path; each scores as reid_ratio does
    calls = _spy_on_the_generic_compile(monkeypatch)
    rep = build_spin_rep(SpinQuantum(2))
    v = rep.rotation_basis[1]  # the S_y eigenvectors of eigenvalues -1, 0, 1
    xs = np.random.default_rng(6).uniform(0.0, math.pi, (50, 4))
    for weight, compiles in ((0.0, 0), (0.3j, 1)):
        psi = np.outer(v[:, 2], v[:, 1]) + weight * np.outer(v[:, 1], v[:, 2])
        st = BipartiteState("pure", SpinQuantum(2), SpinQuantum(2), psi=psi / np.linalg.norm(psi))
        assert np.abs(rep.sy @ st.psi + st.psi @ rep.sy.T - st.psi).max() <= 1e-15
        calls.clear()
        objective = FUNCTIONALS["reid"].optimize(st, False)[1]
        assert len(calls) == compiles
        for x, got in zip(xs, objective(xs)):
            assert abs(got - reid_ratio(st, *x).margin) <= 1e-12, (weight, x, got)


def test_reid_search_refused_above_the_compile_cap(monkeypatch):
    # refused before sign_bin_series runs, for a pure state above
    # maximally_entangled(446) and for a mixed state whose rotations would cost as much
    import bellkit.functionals

    def no_compile(state):
        raise AssertionError("compiled a state above the cap")

    monkeypatch.setattr(bellkit.functionals, "sign_bin_series", no_compile)
    with pytest.raises(CapacityError, match="compile cap"):
        optimize_settings(maximally_entangled(447), "reid", SearchConfig(seed=1, restarts=1))
    # werner(3) is mixed with d_A d_B = 16 and d_A + d_B = 8: cost 10 * 16^2 * 8, where a
    # pure state of the same dimensions would cost 16^2
    monkeypatch.setattr(bellkit.functionals, "REID_COMPILE_CAP", 10 * 16 ** 2 * 8 - 1)
    with pytest.raises(CapacityError, match="compile cap"):
        optimize_settings(werner(3, 0.2), "reid", SearchConfig(seed=1, restarts=1))


def test_optimize_settings_refuses_a_state_of_the_wrong_class():
    from bellkit.states import dicke
    with pytest.raises(ValidationError):
        optimize_settings(dicke(4, 2), "chsh", SearchConfig(seed=1, restarts=1))
    with pytest.raises(ValidationError):
        optimize_settings(singlet(1), "tura", SearchConfig(seed=1, restarts=1))


def _tura_dual(st, coplanar):
    """(forms, _modal_dual) of a symmetric state."""
    mean, second = spin_moments(st)
    return _tura_forms(st.n_atoms, mean, second), _modal_dual(st.n_atoms, mean, second, coplanar)


def test_tura_dual_never_exceeds_w():
    # weak duality: the bound g is below W at every setting of the mode, here 2000 random
    # ones per state, and W at the dual's unit blocks is g to the certificate's tolerance
    rng = np.random.default_rng(31)
    certified = 0
    for n in (2, 3, 4, 5, 7, 10, 16, 25, 39):
        st = _random_symmetric(n, rng)
        for coplanar in (False, True):
            forms, dual = _tura_dual(st, coplanar)
            if dual is None:
                continue
            certified += 1
            g, y = dual
            settings = rng.normal(size=(2000, 2, 3)) * ([1.0, 0.0, 1.0] if coplanar else 1.0)
            w = _form_values(forms, settings / np.linalg.norm(settings, axis=-1, keepdims=True))[0]
            assert g <= w.min(), (n, coplanar, g, w.min())
            if coplanar:
                y = np.insert(y.reshape(2, 2), 1, 0.0, axis=1)
            assert np.allclose(np.linalg.norm(y.reshape(2, 3), axis=1), 1.0, rtol=0, atol=1e-12)
            w_at_y = _form_values(forms, y.reshape(1, 2, 3))[0, 0]
            assert g <= w_at_y <= g + 1e-9 * max(1.0, abs(g)), (n, coplanar, g, w_at_y)
    assert certified >= 16


def test_tura_dual_report_never_above_the_search():
    # 40 random symmetric states, N = 2..39, both modes: where the dual certifies its
    # point, the search ends there; its report is tura_value at its settings and is g to
    # 1e-9, and is never above today's search (the same problem without start and stop)
    rng = np.random.default_rng(40)
    certified = 0
    for i in range(40):
        st = _random_symmetric(2 + i % 38, rng)
        for coplanar in (False, True):
            config = SearchConfig(seed=3, restarts=3, coplanar=coplanar)
            problem = tura_problem(st, coplanar)
            x, _ = multi_start_max(problem._replace(start=None, stop=math.inf), config)
            searched = problem.report(x).value
            rep = optimize_settings(st, "tura", config)
            _, dual = _tura_dual(st, coplanar)
            if dual is None:
                assert problem.start is None and problem.stop == math.inf
                assert rep.value == searched
                continue
            certified += 1
            g, tol = dual[0], 1e-9 * max(1.0, abs(dual[0]))
            assert rep.value == tura_value(st, *(UnitVector(*v) for v in rep.settings)).value
            assert abs(rep.value - g) <= tol, (i, coplanar, rep.value, g)
            assert rep.value <= searched + tol, (i, coplanar, rep.value, searched)
            assert g <= searched, (i, coplanar, g, searched)
    assert certified >= 76


def test_tura_w_form_is_modal():
    # the layout _modal_dual reads: direction block [[2 second, 2 second - N/2], [2 second - N/2,
    # 2 second]], linear part (2 <J>, 0) and corner N, on random states
    rng = np.random.default_rng(28)
    for n in (2, 5, 12, 33):
        st = _random_symmetric(n, rng)
        mean, second = spin_moments(st)
        w = _tura_forms(n, mean, second)[0]
        cross = 2.0 * second - 0.5 * n * np.eye(3)
        assert np.allclose(w[:6, :6], np.block([[2.0 * second, cross], [cross, 2.0 * second]]),
                           rtol=0, atol=1e-12 * n * n)
        assert np.allclose(w[:6, 6], np.r_[2.0 * mean, np.zeros(3)], rtol=0, atol=1e-12 * n)
        assert np.array_equal(w[6, :6], w[:6, 6]) and w[6, 6] == n


def test_tura_dicke_half_filling_in_closed_form(monkeypatch):
    # Dicke k = N/2 has <J> = 0, where W = 2N + p^T (2 second - N/2) p with p = n0 + n1: its
    # minimum 0 at n0 = n1 = z, in closed form with no pattern search
    evals = _count_pattern_searches(monkeypatch)
    for n in (4, 10, 50, 64):
        for coplanar in (False, True):
            problem = tura_problem(dicke(n, n // 2), coplanar)
            assert problem.start is not None and problem.stop < math.inf, (n, coplanar)
            rep = optimize_settings(dicke(n, n // 2), "tura",
                                    SearchConfig(seed=3, restarts=2, coplanar=coplanar))
            assert rep.value == 0.0, (n, coplanar, rep.value)
            assert rep.settings[0] == rep.settings[1] and rep.settings[0] in ([0.0, 0.0, 1.0],
                                                                             [0.0, 0.0, -1.0])
    assert evals == []


def _symmetric_from(n, amplitudes):
    amp = np.zeros(n + 1, dtype=complex)
    for k, a in amplitudes.items():
        amp[k] = a
    return SymmetricState(n, amp / np.linalg.norm(amp))


def test_tura_zero_mean_states_in_closed_form():
    # <J> = 0 on non-Dicke states, one per branch: (|2> + |4>)/sqrt2 at N = 6, whose lowest mode
    # has b = 2 sigma - N/2 = -1 < 0, so min W = 2N - 4 = 8 at n0 = n1; (|2> - |7>)/sqrt2 at N = 9,
    # b_min = 8 > 0, so min W = 2N at n0 = -n1; (|3> - |6>)/sqrt2 at N = 9 sits at b_min = 0,
    # W = 2N.  Against 20000 random settings, a 16-restart search and, coplanar, a 721^2 grid
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, 2.0 * math.pi, 721)
    grid = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    cases = ((_symmetric_from(6, {2: 1.0, 4: 1.0}), 8.0, 1.0),
             (_symmetric_from(9, {2: 1.0, 7: -1.0}), 18.0, -1.0),
             (_symmetric_from(9, {3: 1.0, 6: -1.0}), 18.0, None))
    for st, want, sign in cases:
        mean, second = spin_moments(st)
        assert not mean.any()
        forms = _tura_forms(st.n_atoms, mean, second)
        for coplanar in (False, True):
            config = SearchConfig(seed=3, restarts=2, coplanar=coplanar)
            problem = tura_problem(st, coplanar)
            assert problem.start is not None
            rep = optimize_settings(st, "tura", config)
            tol = 1e-12 * want
            assert abs(rep.value - want) <= tol, (st.n_atoms, coplanar, rep.value)
            if sign is not None:
                assert np.allclose(rep.settings[1], sign * np.array(rep.settings[0]), rtol=0,
                                   atol=1e-15)
            _, f = multi_start_max(problem._replace(start=None, stop=math.inf),
                                   dataclasses.replace(config, restarts=16))
            assert rep.value <= -f + tol, (st.n_atoms, coplanar, rep.value, -f)
            settings = rng.normal(size=(20000, 2, 3)) * ([1.0, 0.0, 1.0] if coplanar else 1.0)
            settings /= np.linalg.norm(settings, axis=-1, keepdims=True)
            assert rep.value <= _form_values(forms, settings)[0].min() + tol
            if coplanar:
                assert rep.value <= -problem.objective(grid).max() + tol


def test_tura_closed_form_where_the_mean_is_tiny(monkeypatch):
    # <J> of 1e-20 to 1e-300 is not 0, but W moves from its <J> = 0 form by at most 4|<J>| at
    # unit n0, inside the certificate: the closed form's point and its bound less that, with no
    # pattern search, and never above the search's W (1.98e-7 in 3-D, at seed 1)
    evals = _count_pattern_searches(monkeypatch)
    for eps in (1e-20, 1e-100, 1e-300):
        st = _symmetric_from(4, {2: 1.0, 1: eps})
        mean, second = spin_moments(st)
        assert mean.any()
        for coplanar in (False, True):
            problem = tura_problem(st, coplanar)
            assert problem.start is not None and problem.stop < math.inf, (eps, coplanar)
            config = SearchConfig(seed=1, restarts=2, coplanar=coplanar)
            rep = optimize_settings(st, "tura", config)
            assert rep.value == 0.0 and rep.settings[0] == rep.settings[1], (eps, coplanar)
            assert evals == []
            _, f = multi_start_max(problem._replace(start=None, stop=math.inf), config)
            assert rep.value <= -f, (eps, coplanar, rep.value, -f)
            evals.clear()
            g = _modal_dual(4, mean, second, coplanar)[0]
            assert g <= rep.value <= g + 1e-9 * max(1.0, abs(g))


def test_certified_tura_search_runs_no_pattern_search(monkeypatch):
    evals = _count_pattern_searches(monkeypatch)
    rng = np.random.default_rng(12)
    for st, coplanar in ((dicke(57, 28), True), (dicke(60, 32), True),
                         (_random_symmetric(9, rng), False), (_random_symmetric(9, rng), True)):
        problem = tura_problem(st, coplanar)
        assert problem.start is not None, (st.n_atoms, coplanar)
        rep = optimize_settings(st, "tura", SearchConfig(seed=1, restarts=4, coplanar=coplanar))
        assert rep.value == -problem.objective(problem.start[None])[0]
    assert evals == []


def test_searches_without_a_certified_start_are_unchanged():
    # chsh sets no start and reid no finite stop, so their reports are those of the restart
    # loop that searches every start, each walk ended at the stop as in multi_start_max
    rng = np.random.default_rng(77)
    states = [werner(1, -0.8), werner(2, -0.5), maximally_entangled(2), relative_phase(3, 0.7),
              random_pure_state(SpinQuantum(2), SpinQuantum(2), rng)]
    for name in ("chsh", "reid"):
        for st in states:
            for coplanar in (False, True):
                config = SearchConfig(seed=3, restarts=2, max_evals_per_restart=200,
                                      coplanar=coplanar)
                problem = FUNCTIONALS[name].optimize(st, coplanar)
                want = problem.report(multi_start_max_searching_every_start(problem, config)[0])
                got = optimize_settings(st, name, config)
                assert got.value == want.value and got.settings == want.settings, (name, st.meta)
                assert got.extra == want.extra


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
