"""Batch front door: JSON run-specs in, JSON/CSV reports out.

Subcommands: evaluate, optimize, lhv-bound, scan, selftest.
Exit codes: 0 success, 2 malformed spec, 3 unknown family/functional,
4 capacity exceeded, 5 unwritable output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import CapacityError, DegenerateConditionError, UnknownNameError, ValidationError
from .functionals import generalized_chsh_functional
from .lhv import enumerate_lhv_bound, symmetric_lhv_min, two_setting_spin_scenario
from .registry import (
    ANY, BOOL, FLOAT, GRID, INT, OBJECT, STR, Opt, build_state, family, lookup, record,
    require_state, state_args,
)
from .search import ScanSpec, SearchConfig, maximize, optimize_settings, scan_parameter
from .spin import UnitVector

EXIT_OK = 0
EXIT_BAD_SPEC = 2
EXIT_UNKNOWN_NAME = 3
EXIT_CAPACITY = 4
EXIT_UNWRITABLE = 5

_SPEC = record({
    "functional": record({"name": STR, "params": Opt(OBJECT)}),
    "state": Opt(record({"family": STR, "params": Opt(OBJECT)})),
    "settings": Opt(ANY),
    "search": Opt(record({f.name: Opt({"int": INT, "float": FLOAT, "bool": BOOL}[f.type])
                          for f in dataclasses.fields(SearchConfig)})),  # f.type is a string
    "scan": Opt(record({"parameter": STR, "grid": GRID})),
})


def _load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    # json reports bad syntax, bad UTF-8 and over-long integers as
    # ValueError, and nesting deeper than the stack as RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read the spec: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError("spec must be a JSON object")
    return spec


def _check(command: str, spec: dict, seed: int | None = None):
    """Check the whole spec against the registry before anything is
    built, names first (exit 3), then shapes and types, then the
    functional against the state's class (exit 2); return the
    computation.  `seed` overrides the search seed, in the echoed spec
    too."""
    func, state = spec.get("functional"), spec.get("state")
    name = func.get("name") if isinstance(func, dict) else None
    entry = lookup(name, command) if isinstance(name, str) else None
    if isinstance(state, dict) and isinstance(state.get("family"), str):
        family(state["family"])
    top = _SPEC(spec, "spec")  # a string name was looked up above
    params = entry.params(func.get("params", {}), "spec.functional.params")
    if seed is not None:
        spec.setdefault("search", {})["seed"] = seed
        top.setdefault("search", {})["seed"] = seed
    search, settings, state = top.get("search", {}), top.get("settings"), top.get("state")
    config = SearchConfig(**search) if "seed" in search else None
    if command == "evaluate":
        settings = entry.settings({} if settings is None else settings, "spec.settings")
    if command != "scan" and state is not None:
        state_args(state["family"], state.get("params", {}))
    if command == "lhv-bound":
        return lambda: entry.lhv_bound(params)
    if entry.state is not None:
        if state is None:
            raise ValidationError(f"{command} of {name!r} needs a state")
        require_state(name, entry, family(state["family"]).kind)

    def build():
        return build_state(state["family"], state.get("params", {}))

    if command == "evaluate":
        return lambda: entry.evaluate(build() if entry.state else None, settings, params)
    if command == "scan":
        if "scan" not in top:
            raise ValidationError("scan specs need a scan block")
        return lambda: scan_parameter(ScanSpec(
            parameter=top["scan"]["parameter"], grid=top["scan"]["grid"], functional=name,
            state_family=state["family"], state_params=state.get("params", {}),
            settings=settings, search=config))
    if config is None:
        raise ValidationError("optimize specs must carry an explicit seed")
    if entry.state is None:
        return lambda: maximize(lambda: entry.optimize(*params.values()), config).to_dict()
    return lambda: optimize_settings(build(), name, config).to_dict()


def selftest() -> bool:
    """Compact invariant suite: spin algebra, state constructors,
    probability identities, and the CHSH enumeration bound."""
    from .spin import SpinQuantum as SQ, build_spin_rep, clebsch_gordan, spin_component
    from .states import correlator, joint_distribution, maximally_entangled as me

    ok = True

    def check(label, cond):
        nonlocal ok
        print(f"  [{'ok' if cond else 'FAIL'}] {label}", file=sys.stderr)
        ok = ok and cond

    for two_s in (1, 2, 7, 16):
        rep = build_spin_rep(SQ(two_s))
        comm = rep.sx @ rep.sy - rep.sy @ rep.sx - 1j * rep.sz
        check(f"commutator 2s={two_s}", float(np.max(np.abs(comm))) < 1e-12)
        casimir = rep.sx @ rep.sx + rep.sy @ rep.sy + rep.sz @ rep.sz
        target = rep.s.s * (rep.s.s + 1) * np.eye(rep.dim)
        check(f"casimir 2s={two_s}", float(np.max(np.abs(casimir - target))) < 1e-12)
    check("clebsch selection rule", clebsch_gordan(1, 0, 1, 0, 2, 1) == 0.0)
    check("clebsch singlet", abs(clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) - 1 / math.sqrt(2)) < 1e-12)
    state = me(1)
    rep = build_spin_rep(SQ(1))
    check("bell SzSz = 1/4", abs(correlator(state, rep.sz, rep.sz) - 0.25) < 1e-12)
    obs = spin_component(rep, UnitVector(0.0, 0.0, 1.0))
    _, _, table = joint_distribution(state, obs, obs)
    check("joint distribution sums to 1", abs(table.sum() - 1.0) < 1e-9)
    chsh = generalized_chsh_functional(1, 1)
    bound, _ = enumerate_lhv_bound(two_setting_spin_scenario(1, 1), chsh, "max")
    check("enumerated CHSH bound = 1/2", abs(bound - chsh.bound) < 1e-12)
    wmin, _ = symmetric_lhv_min(4)
    check("symmetric LHV min >= 0", wmin >= 0.0)
    return ok


# ---------------------------------------------------------------------------
# serialization


def _round_sig(x: float, sig: int = 12) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.{sig}g}")


def _round_tree(obj):
    if isinstance(obj, (float, np.floating)):
        return _round_sig(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_round_tree(v) for v in obj]
    return obj


def emit_report(envelope: dict, path: str | None, fmt: str = "json"):
    """Write the envelope as JSON (stable field order) or, for scan
    tables, CSV with one row per grid point; 12 significant digits."""
    if fmt == "json":
        text = json.dumps(_round_tree(envelope), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        rows = envelope.get("table")
        if rows is None:
            raise ValidationError("csv output needs a scan table")
        cols = [k for k in rows[0] if k != "settings"]
        lines = [",".join(cols)]
        cell = lambda v: f"{v:.12g}" if isinstance(v, float) else str(v)
        lines += [",".join(cell(row[c]) for c in cols) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        raise ValidationError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PermissionError(str(exc)) from exc


def _summarize(payload, command: str) -> str:
    if command == "scan":
        return f"scan: {len(payload)} rows"
    if isinstance(payload, dict):
        if "margin" in payload:
            flag = "VIOLATION" if payload.get("violation") else "no violation"
            return (f"{payload.get('functional', command)}: value={payload.get('value')} "
                    f"bound={payload.get('bound')} margin={payload.get('margin')} ({flag})")
        if "enumerated_bound" in payload:
            return f"{payload.get('functional')}: LHV bound {payload['enumerated_bound']}"
        if "enumerated_min" in payload:
            return f"{payload.get('functional')}: LHV min {payload['enumerated_min']}"
    return f"{command}: done"


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bellkit",
                                     description="Bell functional evaluation toolkit")
    parser.add_argument("command",
                        choices=["evaluate", "optimize", "lhv-bound", "scan", "selftest"])
    parser.add_argument("--spec", help="JSON run-spec file")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for interface compatibility; evaluation is "
                             "deterministic regardless")
    parser.add_argument("--seed", type=int, help="override the spec seed")
    args = parser.parse_args(argv)

    if args.command == "selftest":
        return EXIT_OK if selftest() else 1

    if not args.spec:
        print("error: --spec is required", file=sys.stderr)
        return EXIT_BAD_SPEC
    try:
        if args.format == "csv" and args.command != "scan":
            raise ValidationError("csv output needs a scan table")
        spec = _load(args.spec)
        compute = _check(args.command, spec, args.seed)
        t0 = time.perf_counter()
        payload = compute()
        wall = time.perf_counter() - t0
    except UnknownNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    except CapacityError as exc:
        print(f"error: capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValidationError, DegenerateConditionError) as exc:
        print(f"error: malformed spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC

    envelope = {
        "tool": "bellkit",
        "version": __version__,
        "command": args.command,
        "spec": spec,
        "wall_time_s": wall,
    }
    if "seed" in spec.get("search", {}):
        envelope["seed"] = spec["search"]["seed"]
    if args.command == "scan":
        envelope["table"] = payload
    else:
        envelope["report"] = payload
    try:
        emit_report(envelope, args.out, args.format)
    except PermissionError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    print(_summarize(payload, args.command), file=sys.stderr)
    return EXIT_OK


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
