"""Trace completeness for the benchmark's span wrappers: every traced
function is replaced in every bellkit namespace that binds it, span and
counter figures are exact on hand-counted cases, and tracing leaves
every output bit-identical.

    python3 -m pytest bench/tests -q
"""

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import bellkit  # noqa: E402
from bellkit import (  # noqa: E402
    SearchConfig,
    SpinQuantum,
    UnitVector,
    chsh_value,
    dicke,
    maximally_entangled,
    optimize_settings,
    reid_ratio,
    rm_weighted,
    singlet,
    werner,
)
from bellkit.errors import DegenerateConditionError  # noqa: E402
from spans import COUNTERS, SPANS, TRACED, Tracer  # noqa: E402

import bellkit.cli  # noqa: E402,F401  (every module that binds a traced name)

EZ = UnitVector(0.0, 0.0, 1.0)
EX = UnitVector(1.0, 0.0, 0.0)
DIAG_P = UnitVector(1 / math.sqrt(2), 0.0, 1 / math.sqrt(2))
DIAG_M = UnitVector(-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2))


def _bellkit_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "bellkit" or name.startswith("bellkit."))]


def _nonzero(snapshot):
    return {k: v for k, v in snapshot.items() if v and not k.endswith(".self_s")
            and k != "search.evals_per_s"}


def test_wrappers_installed_in_every_binding_namespace():
    originals = [getattr(sys.modules[f"bellkit.{mod}"], attr) for mod, attr, _ in TRACED]
    tracer = Tracer()
    with tracer.installed():
        for original in originals:
            for module in _bellkit_modules():
                leftovers = [n for n, v in vars(module).items() if v is original]
                assert not leftovers, (module.__name__, leftovers)
        wrapped = bellkit.spin.build_spin_rep
        assert wrapped.__wrapped__ is originals[0]
        for name in ("bellkit", "bellkit.spin", "bellkit.states",
                     "bellkit.functionals", "bellkit.search"):
            assert sys.modules[name].build_spin_rep is wrapped, name
    for (mod, attr, _), original in zip(TRACED, originals):
        assert getattr(sys.modules[f"bellkit.{mod}"], attr) is original


def test_benchmark_calls_bellkit_through_patched_namespaces():
    # a name bound by `from bellkit import f` in the benchmark's own
    # modules would bypass the wrappers
    import workloads

    originals = {id(getattr(sys.modules[f"bellkit.{mod}"], attr)) for mod, attr, _ in TRACED}
    assert not [n for n, v in vars(workloads).items() if id(v) in originals]
    tracer = Tracer()
    with tracer.installed():
        tracer.reset()
        workloads.reid_binned_inputs(1)
        snap = tracer.snapshot()
    assert snap["states.construct.calls"] == 2 + 7  # two pure states, reused; seven Werner


def test_exact_calls_chsh_value():
    tracer = Tracer()
    with tracer.installed():
        tracer.reset()
        state = bellkit.singlet(1)  # singlet() calls angular_momentum_eigenstate()
        bellkit.chsh_value(state, EZ, EX, DIAG_P, DIAG_M)
        snap = tracer.snapshot()
    assert _nonzero(snap) == {
        "states.construct.calls": 2,
        "functionals.chsh_value.calls": 1,
        "spin.build_spin_rep.calls": 2,
        "states.expect_product.pure.calls": 4,
    }


def test_exact_calls_reid_ratio_pure_and_mixed():
    # four binned tables, each two spin reps, two components, two sign
    # projector pairs and four expectations; then the two marginals
    expected = {
        "functionals.reid_ratio.calls": 1,
        "states.binned_joint_probability.calls": 4,
        "spin.build_spin_rep.calls": 10,
        "spin.spin_component.calls": 10,
        "spin.sign_projectors.calls": 10,
    }
    for state, kind in ((maximally_entangled(1), "pure"), (werner(1, 0.3), "mixed")):
        tracer = Tracer()
        with tracer.installed():
            tracer.reset()
            bellkit.reid_ratio(state, 0.1, 0.9, 0.4, 1.3)
            snap = tracer.snapshot()
        assert _nonzero(snap) == {**expected, f"states.expect_product.{kind}.calls": 16}


def test_degenerate_reid_counted():
    down_down = rm_weighted(SpinQuantum(1), [0.0, 1.0])
    tracer = Tracer()
    with tracer.installed():
        tracer.reset()
        try:
            bellkit.reid_ratio(down_down, 0.0, 0.0, 0.0, 0.0)
        except DegenerateConditionError:
            pass
        else:
            raise AssertionError("the Reid denominator should vanish on |down, down>")
        snap = tracer.snapshot()
    assert snap["functionals.reid_ratio.degenerate"] == 1
    assert snap["functionals.reid_ratio.calls"] == 1


def test_search_counters_exact():
    # eight angles, tolerance 1e-8: no restart can converge within 40
    # evaluations, so each stops at the cap after exactly 40
    tracer = Tracer()
    with tracer.installed():
        tracer.reset()
        bellkit.optimize_settings(maximally_entangled(1), "chsh",
                                  SearchConfig(seed=3, restarts=2, max_evals_per_restart=40))
        snap = tracer.snapshot()
    assert snap["search.optimize_settings.calls"] == 1
    assert snap["search.pattern_search_max.calls"] == 2
    assert snap["search.evals"] == 80
    assert snap["search.cap_stops"] == 2
    assert snap["states.spin_correlation_matrix.calls"] == 1
    assert snap["functionals.chsh_value.calls"] == 1
    assert snap["search.evals_per_s"] > 0


def test_cli_counters_exact(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"functional": {"name": "chsh", "params": {}}}))
    out = tmp_path / "out.json"
    tracer = Tracer()
    with tracer.installed():
        tracer.reset()
        assert bellkit.cli.run(["lhv-bound", "--spec", str(spec), "--out", str(out)]) == 0
        snap = tracer.snapshot()
    assert snap["cli.run.calls"] == 1
    assert snap["cli.emit_report.calls"] == 1
    assert snap["cli.bytes_out"] == out.stat().st_size > 0
    assert snap["lhv.enumerate_lhv_bound.calls"] == 1
    assert snap["lhv.strategies"] == 4 * 4  # two binary settings per side


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.installed():
        tracer.reset()
        bellkit.reid_ratio(maximally_entangled(2), 0.1, 0.9, 0.4, 1.3)
    total = tracer.total_s["functionals.reid_ratio"]
    children = sum(tracer.total_s[n] for n in ("states.binned_joint_probability",))
    assert 0.0 <= tracer.self_s["functionals.reid_ratio"] <= total - children + 1e-9
    assert sum(tracer.self_s.values()) <= total + 1e-9


def _searches():
    return [
        (maximally_entangled(2), "reid",
         SearchConfig(seed=5, restarts=1, max_evals_per_restart=60)),
        (werner(2, -0.4), "reid", SearchConfig(seed=6, restarts=1, max_evals_per_restart=60)),
        (werner(2, -1.0), "chsh", SearchConfig(seed=7, restarts=2)),
        (dicke(12, 5), "tura", SearchConfig(seed=8, restarts=1, coplanar=True,
                                            max_evals_per_restart=80)),
    ]


def _result(report):
    d = report.to_dict()
    d.pop("wall_time_s")
    return d


def test_traced_outputs_bit_identical():
    plain = [_result(optimize_settings(*args)) for args in _searches()]
    tracer = Tracer()
    with tracer.installed():
        traced = [_result(bellkit.optimize_settings(*args)) for args in _searches()]
    assert traced == plain
    assert chsh_value is bellkit.chsh_value and reid_ratio is bellkit.reid_ratio
    assert singlet is bellkit.singlet


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    snapshot_keys = set(Tracer().snapshot())
    assert snapshot_keys == {f"{s}.{k}" for s in SPANS for k in ("calls", "self_s")} \
        | set(COUNTERS) | {"search.evals_per_s"}
    assert names == snapshot_keys | {"cli.startup_s", "trace.overhead_frac"}
