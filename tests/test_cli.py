import json
import math

import pytest

from bellkit.cli import (
    EXIT_BAD_SPEC,
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_UNKNOWN_NAME,
    EXIT_UNWRITABLE,
    build_state,
    run,
    selftest,
)


def write_spec(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


CHSH_EVAL_SPEC = {
    "state": {"family": "maximally_entangled", "params": {"n": 1}},
    "functional": {"name": "chsh"},
    "settings": {
        "u1": [0, 0, 1], "u2": [1, 0, 0],
        "v1": [1 / math.sqrt(2), 0, 1 / math.sqrt(2)],
        "v2": [-1 / math.sqrt(2), 0, 1 / math.sqrt(2)],
    },
}


def test_build_state_registry():
    st = build_state("maximally_entangled", {"n": 2})
    assert st.dims == (3, 3)
    st = build_state("dicke", {"n": 5, "k": 2})
    assert len(st.amplitudes) == 6
    from bellkit.cli import UnknownNameError
    with pytest.raises(UnknownNameError):
        build_state("bogus_family", {})


def test_malformed_spec_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ this is not json")
    out = tmp_path / "o.json"
    assert run(["evaluate", "--spec", str(p), "--out", str(out)]) == EXIT_BAD_SPEC
    assert not out.exists()


def test_missing_spec_exits_2():
    assert run(["evaluate"]) == EXIT_BAD_SPEC


def test_missing_seed_exits_2(tmp_path):
    spec = {"state": {"family": "maximally_entangled", "params": {"n": 1}},
            "functional": {"name": "chsh"}, "search": {"restarts": 2}}
    path = write_spec(tmp_path, "s.json", spec)
    assert run(["optimize", "--spec", path]) == EXIT_BAD_SPEC


def test_unknown_family_exits_3(tmp_path):
    spec = dict(CHSH_EVAL_SPEC, state={"family": "nonsense", "params": {}})
    path = write_spec(tmp_path, "s.json", spec)
    assert run(["evaluate", "--spec", path]) == EXIT_UNKNOWN_NAME


def test_unknown_functional_exits_3(tmp_path):
    spec = {"state": {"family": "maximally_entangled", "params": {"n": 1}},
            "functional": {"name": "frobnicate"}, "settings": {}}
    path = write_spec(tmp_path, "s.json", spec)
    assert run(["evaluate", "--spec", path]) == EXIT_UNKNOWN_NAME


def test_capacity_exits_4(tmp_path):
    spec = {"functional": {"name": "mabk", "params": {"n": 20}}}
    path = write_spec(tmp_path, "s.json", spec)
    assert run(["evaluate", "--spec", path]) == EXIT_CAPACITY


def test_unwritable_output_exits_5(tmp_path):
    path = write_spec(tmp_path, "s.json", CHSH_EVAL_SPEC)
    assert run(["evaluate", "--spec", path,
                "--out", "/nonexistent-dir/report.json"]) == EXIT_UNWRITABLE


def test_evaluate_chsh_report(tmp_path):
    path = write_spec(tmp_path, "s.json", CHSH_EVAL_SPEC)
    out = tmp_path / "report.json"
    assert run(["evaluate", "--spec", path, "--out", str(out)]) == EXIT_OK
    env = json.loads(out.read_text())
    assert env["tool"] == "bellkit"
    assert "version" in env
    rep = env["report"]
    assert abs(abs(rep["value"]) - 0.707106781187) < 1e-9
    assert rep["bound"] == 0.5
    assert rep["violation"] is True
    # stable serialization: keys sorted
    assert out.read_text() == json.dumps(json.loads(out.read_text()),
                                         sort_keys=True, indent=2) + "\n"


def test_optimize_reproducibility_loop(tmp_path):
    spec = {"state": {"family": "maximally_entangled", "params": {"n": 1}},
            "functional": {"name": "chsh"},
            "search": {"seed": 17, "restarts": 4}}
    path = write_spec(tmp_path, "s.json", spec)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["optimize", "--spec", path, "--out", str(out1)]) == EXIT_OK
    env = json.loads(out1.read_text())
    # re-run from the echoed spec
    path2 = write_spec(tmp_path, "echo.json", env["spec"])
    assert run(["optimize", "--spec", path2, "--out", str(out2)]) == EXIT_OK
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert a["report"]["value"] == b["report"]["value"]
    assert a["report"]["settings"] == b["report"]["settings"]
    assert a["seed"] == 17


def test_seed_flag_overrides(tmp_path):
    spec = {"state": {"family": "maximally_entangled", "params": {"n": 1}},
            "functional": {"name": "chsh"},
            "search": {"restarts": 2}}
    path = write_spec(tmp_path, "s.json", spec)
    out = tmp_path / "r.json"
    assert run(["optimize", "--spec", path, "--out", str(out), "--seed", "99"]) == EXIT_OK
    assert json.loads(out.read_text())["seed"] == 99


def test_scan_csv(tmp_path):
    spec = {"state": {"family": "singlet", "params": {"two_s": 2}},
            "functional": {"name": "mermin"},
            "scan": {"parameter": "sin_theta_geometry",
                     "grid": {"start": 0.3, "stop": 0.7, "count": 5}}}
    path = write_spec(tmp_path, "s.json", spec)
    out = tmp_path / "scan.csv"
    assert run(["scan", "--spec", path, "--out", str(out), "--format", "csv"]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 6  # header + 5 grid points
    assert lines[0].split(",")[0] == "parameter"


def _lhv_bound_report(tmp_path, functional):
    path = write_spec(tmp_path, "s.json", {"functional": functional})
    out = tmp_path / "r.json"
    assert run(["lhv-bound", "--spec", path, "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())["report"]
    # witness entries are written as JSON floats (0.0, not 0) whatever the outcome lists hold
    assert all(type(x) is float for x in rep["witness"]["a"] + rep["witness"]["b"])
    return rep


def test_lhv_bound_cglmp_adjudication(tmp_path):
    rep = _lhv_bound_report(tmp_path, {"name": "cglmp", "params": {"d": 3}})
    assert rep == {"functional": "cglmp_d3", "enumerated_bound": 3.0,
                   "claimed_lhvt_bound": 3.0, "hvt_bound": 4.0,
                   "agrees_with_claimed_lhvt_bound": True, "satisfies_hvt_bound": True,
                   "witness": {"a": [0.0, 0.0], "b": [0.0, 0.0]}}


def test_lhv_bound_generalized_chsh(tmp_path):
    rep = _lhv_bound_report(tmp_path, {"name": "generalized_chsh",
                                       "params": {"two_s_a": 2, "two_s_b": 3}})
    assert rep == {"functional": "generalized_chsh", "enumerated_bound": 3.0,
                   "stated_bound": 3.0, "witness": {"a": [1.0, 1.0], "b": [1.5, 1.5]}}


def test_threads_flag_does_not_change_results(tmp_path):
    spec = {"state": {"family": "maximally_entangled", "params": {"n": 1}},
            "functional": {"name": "chsh"},
            "search": {"seed": 7, "restarts": 3}}
    path = write_spec(tmp_path, "s.json", spec)
    outs = []
    for i, threads in enumerate(("1", "4")):
        out = tmp_path / f"r{i}.json"
        assert run(["optimize", "--spec", path, "--out", str(out),
                    "--threads", threads]) == EXIT_OK
        rep = json.loads(out.read_text())["report"]
        rep.pop("wall_time_s", None)  # timing is the one legitimately noisy field
        outs.append(rep)
    assert outs[0] == outs[1]


def test_selftest():
    assert selftest() is True
    assert run(["selftest"]) == EXIT_OK


_SCAN_OPTIMIZE = {"state": {"family": "werner", "params": {"n": 1, "phi": 0.0}},
                  "functional": {"name": "chsh"}, "settings": "optimize",
                  "scan": {"parameter": "phi", "grid": [-0.5, 0.5]}}
_MERMIN_GEOMETRY = {"state": {"family": "singlet", "params": {"two_s": 2}},
                    "functional": {"name": "mermin"}, "settings": "optimize", "search": {"seed": 1},
                    "scan": {"parameter": "theta_geometry", "grid": [0.1, 0.2]}}
_CGLMP_TABLES = [[[0.5, 0.0], [0.0, 0.5]]] * 3 + [[[0.6, -0.1], [0.0, 0.5]]]


@pytest.mark.parametrize("command, spec, argv, code, message", [
    ("scan", CHSH_EVAL_SPEC, [], EXIT_BAD_SPEC, "scan specs need a scan block"),
    ("evaluate", CHSH_EVAL_SPEC, ["--format", "csv"], EXIT_BAD_SPEC, "csv output needs a scan table"),
    ("scan", dict(_SCAN_OPTIMIZE, search={"seed": 1},
                  scan={"parameter": "phi", "grid": {"start": -1.0, "stop": 1.0, "count": 100001}}),
     [], EXIT_CAPACITY, "100001 grid points exceed the 100000 cap"),
    ("scan", _MERMIN_GEOMETRY, [], EXIT_BAD_SPEC, "a theta_geometry scan takes no settings search"),
    ("scan", _SCAN_OPTIMIZE, [], EXIT_BAD_SPEC, "per-point optimization needs a SearchConfig"),
    ("evaluate", {"state": {"family": "maximally_entangled", "params": {"n": 1}},
                  "functional": {"name": "reid"},
                  "settings": {"theta": 1e308, "theta_star": 0.0, "phi": 0.0, "phi_star": 0.0}},
     [], EXIT_BAD_SPEC, "angle 1e+308 is out of range"),
    ("evaluate", {"functional": {"name": "cglmp_I", "params": {"tables": _CGLMP_TABLES, "d": 2}}},
     [], EXIT_BAD_SPEC, "negative probabilities in table"),
])
def test_front_door_refusals(tmp_path, capsys, command, spec, argv, code, message):
    # each exit code comes from the check named in its message, and nothing is written
    path, out = write_spec(tmp_path, "s.json", spec), tmp_path / "out"
    assert run([command, "--spec", path, "--out", str(out), *argv]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_without_out_writes_the_envelope_to_stdout(tmp_path, capsys):
    path = write_spec(tmp_path, "s.json", CHSH_EVAL_SPEC)
    assert run(["evaluate", "--spec", path]) == EXIT_OK
    captured = capsys.readouterr()
    env = json.loads(captured.out)
    assert (env["tool"], env["command"], env["spec"]["state"]) == (
        "bellkit", "evaluate", CHSH_EVAL_SPEC["state"])
    assert abs(abs(env["report"]["value"]) - 0.707106781187) < 1e-9
    assert captured.out == json.dumps(env, sort_keys=True, indent=2) + "\n"
    assert captured.err.startswith("chsh: value=")
