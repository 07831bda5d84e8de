"""The golden output corpus: a fixed list of CLI runs and what each gave.

A case is a command and a run-spec: the fuzz test's base specs and
probes, and `evaluate` of chsh, reid and cfrd and `optimize` of reid on
each of its bipartite states.  `run_case` runs one through `cli.run` in
process and keeps what "same behaviour" compares: the exit code, the
first stderr line, and the envelope as the CLI hands it to
`emit_report`, before the 12-digit rounding and key sorting of the
written file, without `wall_time_s`.  `tests/test_golden.py` reruns
every stored case and compares.

Regenerate only for a change that means to alter behaviour, and list
what the diff of `tests/golden/` shows in CHANGES.md:

    PYTHONPATH=src python tests/golden_corpus.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

from bellkit import cli
from bellkit.registry import FAMILIES
from bellkit.states import BipartiteState
from test_cli_fuzz import BASE, CHSH_SETTINGS, PROBES, SEARCH, STATES

GOLDEN = pathlib.Path(__file__).with_name("golden")
REID_SETTINGS = {"theta": 0.1, "theta_star": 0.9, "phi": 0.4, "phi_star": 1.3}


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


def write():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for group, runs in cases().items():
            stored = [{"name": name, "command": command, "spec": spec,
                       **run_case(command, spec, workdir)} for name, command, spec in runs]
            (GOLDEN / f"{group}.json").write_text(json.dumps(stored, indent=1) + "\n")
            print(f"{group}: {len(stored)} cases", file=sys.stderr)


if __name__ == "__main__":
    write()
