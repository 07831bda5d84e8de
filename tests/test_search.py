import math

import numpy as np
import pytest

from bellkit.errors import CapacityError, ValidationError
from bellkit.spin import SpinQuantum
from bellkit.states import maximally_entangled, singlet
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


def test_mermin_coplanar_vectors():
    theta = 0.3
    a, b, c = mermin_coplanar_vectors(theta)
    assert abs(a.dot(c) - math.cos(math.pi / 2 + theta)) < 1e-12
    assert abs(b.dot(c) - math.cos(math.pi / 2 + theta)) < 1e-12
    assert abs(a.dot(b) - math.cos(math.pi - 2 * theta)) < 1e-12


def test_mermin_optimizer_finds_window():
    rep = optimize_settings(singlet(2), "mermin", SearchConfig(seed=2, restarts=8))
    assert rep.violation  # s = 1 singlet violates inside 0 < sin(theta) < 1/2


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
