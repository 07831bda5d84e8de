"""The golden output corpus: a fixed list of CLI runs and what each gave.

A case is a command and a run-spec: the fuzz test's base specs and
probes, and `evaluate` of chsh, reid and cfrd and `optimize` of reid on
each of its bipartite states.  `run_case` runs one through `cli.run` in
process and keeps what "same behaviour" compares: the exit code, the
first stderr line, and the envelope as the CLI hands it to
`emit_report`, before the 12-digit rounding and key sorting of the
written file, without `wall_time_s`.  `tests/test_golden.py` reruns
every stored case and compares it by `check`.

With no arguments this script rewrites nothing.  It prints the name of
every case that `check` rejects when rerun now, and of every case that
the fuzz lists name but the corpus does not store:

    PYTHONPATH=src python tests/golden_corpus.py

Regenerate only for a change that means to alter behaviour.  Name the
cases to rewrite; every other stored case is kept byte for byte, so the
diff of `tests/golden/` shows only the named cases.  List them in
CHANGES.md:

    PYTHONPATH=src python tests/golden_corpus.py NAME [NAME ...]
"""

import contextlib
import io
import json
import math
import pathlib
import re
import sys
import tempfile

from bellkit import cli
from bellkit.registry import FAMILIES
from bellkit.states import BipartiteState
from test_cli_fuzz import BASE, CHSH_SETTINGS, PROBES, SEARCH, STATES

GOLDEN = pathlib.Path(__file__).with_name("golden")
REID_SETTINGS = {"theta": 0.1, "theta_star": 0.9, "phi": 0.4, "phi_star": 1.3}
FLOAT = re.compile(r"([-+]?\d+\.\d*(?:e[-+]?\d+)?|[-+]?\d+e[-+]?\d+|\bnan\b|\binf\b)")


def _name(spec: dict) -> str:
    func, state = spec.get("functional"), spec.get("state")
    name = func.get("name") if isinstance(func, dict) else func
    family = state.get("family") if isinstance(state, dict) else None
    return "-".join(str(x) for x in (name, family) if x is not None)


def cases() -> dict:
    """Group name -> list of (case name, command, spec)."""
    groups = {
        "base": BASE,
        "probes": [(command, spec) for _, command, spec in PROBES],
        "states": [(command, {"state": state, "functional": {"name": functional}, **extra})
                   for state in STATES if FAMILIES[state["family"]].kind is BipartiteState
                   for command, functional, extra in (
                       ("evaluate", "chsh", {"settings": CHSH_SETTINGS}),
                       ("evaluate", "reid", {"settings": REID_SETTINGS}),
                       ("evaluate", "cfrd", {}),
                       ("optimize", "reid", {"search": SEARCH}))],
    }
    return {group: [(f"{group}-{i:02d}-{command}-{_name(spec)}", command, spec)
                    for i, (command, spec) in enumerate(runs)]
            for group, runs in groups.items()}


def run_case(command: str, spec, workdir) -> dict:
    """{"exit", "stderr", "envelope"} of one CLI run; envelope is None
    when the run wrote none."""
    workdir = pathlib.Path(workdir)
    (workdir / "spec.json").write_text(json.dumps(spec))
    written = []
    emit = cli.emit_report

    def capture(envelope, path, fmt="json"):
        written.append(json.loads(json.dumps(envelope)))  # plain JSON, keys in order
        emit(envelope, path, fmt)

    cli.emit_report, err = capture, io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.run([command, "--spec", str(workdir / "spec.json"),
                            "--out", str(workdir / "out.json")])
    finally:
        cli.emit_report = emit
    envelope = written[0] if written else None
    if envelope is not None:
        envelope.pop("wall_time_s")
        if isinstance(envelope.get("report"), dict):
            envelope["report"].pop("wall_time_s", None)
    return {"exit": code, "stderr": (err.getvalue().splitlines() or [""])[0],
            "envelope": envelope}


def load() -> dict:
    """Group name -> the stored cases, each {"name", "command", "spec",
    "exit", "stderr", "envelope"}."""
    return {group: json.loads((GOLDEN / f"{group}.json").read_text()) for group in cases()}


def _close(old: float, new: float, searched: bool) -> bool:
    if math.isnan(old) or math.isnan(new):
        return math.isnan(old) and math.isnan(new)
    return abs(new - old) <= (1e-9 if searched else 1e-12 * max(1.0, abs(old)))


def assert_same(old, new, searched: bool, where: str = "envelope", compare: bool = True):
    """Same keys in the same order, same types, numbers within tolerance;
    `compare` False checks shape and type only."""
    assert type(new) is type(old), (where, old, new)
    if isinstance(old, dict):
        assert list(new) == list(old), where
        for key in old:
            assert_same(old[key], new[key], searched, f"{where}.{key}",
                        compare and not (searched and key == "settings"))
    elif isinstance(old, list):
        assert len(new) == len(old), where
        for i, (a, b) in enumerate(zip(old, new)):
            assert_same(a, b, searched, f"{where}[{i}]", compare)
    elif isinstance(old, float):
        assert not compare or _close(old, new, searched), (where, old, new)
    else:
        assert new == old, (where, old, new)


def check(case: dict, got: dict):
    """Raise AssertionError unless `got`, a rerun of the stored `case`,
    behaves the same.

    Exit codes, keys, their order and value types must match exactly.  An
    evaluated number must agree within 1e-12 max(1, |x|).  In a searched
    report (an `optimize` run, or a scan that searches at each point)
    every number must agree within 1e-9, and settings are compared by shape
    and type only, since mirror optima are equal.  The first stderr line
    must match, its decimal numbers compared as the report's numbers are."""
    spec = case["spec"]
    searched = case["command"] == "optimize" or (
        case["command"] == "scan" and spec.get("settings") == "optimize")
    assert got["exit"] == case["exit"]
    old_line, new_line = FLOAT.split(case["stderr"]), FLOAT.split(got["stderr"])
    assert old_line[::2] == new_line[::2], got["stderr"]
    for a, b in zip(old_line[1::2], new_line[1::2]):
        assert _close(float(a), float(b), searched), (case["stderr"], got["stderr"])
    if case["envelope"] is None:
        assert got["envelope"] is None
    else:
        assert_same(case["envelope"], got["envelope"], searched)


def rejected() -> list:
    """Names of the cases that `check` rejects when rerun now, and of the
    cases that the fuzz lists name but the corpus does not store."""
    stored = {c["name"]: c for group in load().values() for c in group}
    out = []
    with tempfile.TemporaryDirectory() as workdir:
        for runs in cases().values():
            for name, command, spec in runs:
                try:
                    check(stored[name], run_case(command, spec, workdir))
                except (KeyError, AssertionError):
                    out.append(name)
    return out


def write(names):
    """Rerun and store the cases in `names`; keep every other stored case as it is."""
    known = {name for runs in cases().values() for name, _, _ in runs}
    if set(names) - known:
        raise SystemExit(f"unknown case(s): {sorted(set(names) - known)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for group, runs in cases().items():
            path = GOLDEN / f"{group}.json"
            stored = {c["name"]: c for c in json.loads(path.read_text())} if path.exists() else {}
            out = [{"name": name, "command": command, "spec": spec,
                    **run_case(command, spec, workdir)} if name in names else stored[name]
                   for name, command, spec in runs if name in names or name in stored]
            if any(name in names for name, _, _ in runs):
                path.write_text(json.dumps(out, indent=1) + "\n")
                print(f"{group}: {sum(name in names for name, _, _ in runs)} of {len(out)} "
                      f"cases rewritten", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:]:
        write(sys.argv[1:])
    else:
        for name in rejected():
            print(name)
