"""The one registry of state families and functionals.

FAMILIES maps each state family to the state class it builds and to the
ordered, typed parameters of its constructor in `states`, whose name is
the family name.  FUNCTIONALS maps each functional to the state class
it reads and to its evaluate, optimize, lhv-bound and scan entries; the
numerical work lives elsewhere, and every optimize entry is a search
problem builder of `functionals`.  Entries reach constructors and
evaluators through module globals at call time, so a function wrapped
in its module is wrapped here too.

A converter checks one JSON value and raises ValidationError naming
where it sits, so a whole spec is checked before anything is built.
Range checks stay with the constructors and evaluators.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import states
from .errors import CapacityError, UnknownNameError, ValidationError
from .functionals import (
    cfrd_margin, cfrd_quadrature_margin, cfrd_weight_problem, cglmp_I, cglmp_functional,
    chsh_problem, chsh_value, drummond_margin, generalized_chsh_functional, mabk_value,
    mermin_check, mermin_coplanar_vectors, mermin_problem, reid_problem, reid_ratio,
    tura_problem, tura_value, VIOLATION_TOL,
)
from .lhv import cglmp_scenario, enumerate_lhv_bound, symmetric_lhv_min, two_setting_spin_scenario
from .spin import SpinQuantum, UnitVector, build_spin_rep
from .states import BipartiteState, MultiQubitState, SymmetricState

GRID_CAP = 10 ** 5
CGLMP_HVT_BOUND = 4.0  # reported next to the claimed LHVT bound, cglmp_functional(d).bound

# ---------------------------------------------------------------------------
# converters: (value, where) -> checked value


def _converter(test, what, cast=lambda v: v):
    def convert(v, where):
        if test(v):
            return cast(v)
        raise ValidationError(f"{where} must be {what}, got {v!r}")
    return convert


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


FLOAT = _converter(_real, "a finite number", float)
# integers must fit in a float too: parameters meet float arithmetic
INT = _converter(lambda v: _real(v) and float(v).is_integer(), "an integer", int)
BOOL = _converter(lambda v: isinstance(v, bool), "true or false")
STR = _converter(lambda v: isinstance(v, str), "a string")
OBJECT = _converter(lambda v: isinstance(v, dict), "a JSON object")
LIST = _converter(lambda v: isinstance(v, (list, tuple, np.ndarray)), "a list")
ANY = _converter(lambda v: True, "anything")


def list_of(conv):
    return lambda v, where: [conv(x, f"{where}[{i}]") for i, x in enumerate(LIST(v, where))]


VECTOR = list_of(FLOAT)


def VEC3(v, where):
    """Three real components, normalized to a unit direction."""
    xyz = VECTOR(v, where)
    if len(xyz) != 3:
        raise ValidationError(f"{where} must have three components, got {len(xyz)}")
    return UnitVector.from_xyz(*xyz)


def MATRIX(v, where):
    rows = list_of(VECTOR)(v, where)
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValidationError(f"{where} must be a nonempty list of equal-length rows")
    return np.array(rows)


@dataclass(frozen=True)
class Opt:
    """Converter of a key that may be left out."""

    parse: Callable


def record(schema: dict):
    """Converter of a JSON object with no keys outside `schema` (key ->
    converter, or Opt(converter)); the result follows the schema order."""
    def convert(v, where):
        unknown = [k for k in OBJECT(v, where) if k not in schema]
        if unknown:
            raise ValidationError(f"{where} has unknown key(s) {unknown}")
        out = {}
        for key, conv in schema.items():
            if key in v:
                out[key] = getattr(conv, "parse", conv)(v[key], f"{where}.{key}")
            elif not isinstance(conv, Opt):
                raise ValidationError(f"{where} is missing {key!r}")
        return out
    return convert


_LINSPACE = record({"start": FLOAT, "stop": FLOAT, "count": INT})


def GRID(v, where):
    """Scan grid: a list of numbers or {start, stop, count}."""
    g = _LINSPACE(v, where) if isinstance(v, dict) else None
    count = g["count"] if g else len(LIST(v, where))
    if count < 1:
        raise ValidationError(f"{where} must have at least one point")
    if count > GRID_CAP:
        raise CapacityError(f"{count} grid points exceed the {GRID_CAP} cap")
    return tuple(np.linspace(g["start"], g["stop"], count)) if g else tuple(VECTOR(v, where))


# ---------------------------------------------------------------------------
# state families


@dataclass(frozen=True)
class Family:
    kind: type    # the state class its constructor returns
    params: dict  # parameter name -> converter, in the constructor's order


_COMPONENT = record({"weight": FLOAT, "rho_a": MATRIX, "rho_b": MATRIX})

FAMILIES = {
    "maximally_entangled": Family(BipartiteState, {"n": INT}),
    "relative_phase": Family(BipartiteState, {"n": INT, "theta": FLOAT}),
    "werner": Family(BipartiteState, {"n": INT, "phi": FLOAT}),
    "angular_momentum_eigenstate": Family(
        BipartiteState, {"n_a": INT, "n_b": INT, "j": FLOAT, "k": FLOAT}),
    "singlet": Family(BipartiteState, {"two_s": INT}),
    "rm_weighted": Family(
        BipartiteState, {"two_s": lambda v, where: SpinQuantum(INT(v, where)), "r": VECTOR}),
    "ghz": Family(MultiQubitState, {"n": INT}),
    "dicke": Family(SymmetricState, {"n": INT, "k": INT}),
    "separable_mixture": Family(BipartiteState, {"components": list_of(
        lambda v, where: tuple(_COMPONENT(v, where).values()))}),
}


def family(name: str) -> Family:
    if name not in FAMILIES:
        raise UnknownNameError(f"unknown state family {name!r}")
    return FAMILIES[name]


def state_args(name: str, params, where: str = "spec.state.params") -> tuple:
    """Checked positional arguments of the family's constructor."""
    return tuple(record(family(name).params)(params, where).values())


def build_state(family: str, params: dict):
    """Construct a catalog state from its family name and parameters."""
    args = state_args(family, params)
    return getattr(states, family)(*args)


# ---------------------------------------------------------------------------
# evaluate entries (state, settings, params) and lhv-bound entries (params)


def _mermin_settings(v, where):
    s = record({"theta": Opt(FLOAT), "a": Opt(VEC3), "b": Opt(VEC3), "c": Opt(VEC3),
                "reading": Opt(STR)})(v, where)
    if "theta" not in s and not {"a", "b", "c"} <= s.keys():
        raise ValidationError(f"{where} needs theta, or a, b and c")
    return s


def _mermin(state, s, params):
    a, b, c = mermin_coplanar_vectors(s["theta"]) if "theta" in s else (s["a"], s["b"], s["c"])
    kw = {"reading": s["reading"]} if "reading" in s else {}
    return mermin_check(state, a, b, c, **kw).to_dict()


def _cfrd(state, settings, params):
    rep_a, rep_b = build_spin_rep(state.s_a), build_spin_rep(state.s_b)
    return cfrd_margin(state, rep_a.sx, rep_a.sy, rep_b.sx, rep_b.sy).to_dict()


def _cfrd_quadrature(state, settings, params):
    value = cfrd_quadrature_margin(state)
    return {"functional": "cfrd_quadrature", "value": value, "bound": 0.0,
            "margin": value, "violation": value < -VIOLATION_TOL, "state": dict(state.meta)}


def _drummond(state, settings, p):
    margin = drummond_margin(p["J"], p["theta"])
    return {"functional": "drummond", "value": margin, "bound": 0.0,
            "margin": margin, "violation": margin > VIOLATION_TOL,
            "state": states._record("drummond_limit", J=p["J"], theta=p["theta"])}


def _witness(w) -> dict:
    return {"a": list(w.outcomes_a), "b": list(w.outcomes_b)}


def _lhv_chsh(p):
    two_a, two_b = p.get("two_s_a", 1), p.get("two_s_b", 1)
    scenario = two_setting_spin_scenario(two_a, two_b)
    functional = generalized_chsh_functional(two_a, two_b)
    bound, witness = enumerate_lhv_bound(scenario, functional, "max")
    return {"functional": functional.name, "enumerated_bound": bound,
            "stated_bound": functional.bound, "witness": _witness(witness)}


def _lhv_cglmp(p):
    scenario = cglmp_scenario(p["d"])  # its capacity check, before cglmp_functional's d pairs
    functional = cglmp_functional(p["d"])
    bound, witness = enumerate_lhv_bound(scenario, functional, "max")
    return {"functional": functional.name, "enumerated_bound": bound,
            "claimed_lhvt_bound": functional.bound, "hvt_bound": CGLMP_HVT_BOUND,
            "agrees_with_claimed_lhvt_bound": abs(bound - functional.bound) <= 1e-9,
            "satisfies_hvt_bound": bound <= CGLMP_HVT_BOUND + 1e-9, "witness": _witness(witness)}


def _lhv_tura(p):
    wmin, counts = symmetric_lhv_min(p["n"])
    return {"functional": "tura", "n_atoms": p["n"], "enumerated_min": wmin,
            "stated_bound": 0.0, "witness_counts": list(counts)}


def _asin(x):
    if not -1.0 <= x <= 1.0:
        raise ValidationError(f"sin_theta_geometry grid point {x} lies outside [-1, 1]")
    return math.asin(x)


# ---------------------------------------------------------------------------
# functionals


@dataclass(frozen=True)
class Functional:
    """One functional's entries; None means the subcommand lacks it.
    `optimize` maps (state, coplanar), or a stateless functional's
    checked params in order, to a search problem of `functionals`:
    (ranges, objective to maximize, report at the optimum)."""

    state: type | None = None            # state class it reads; None: no state
    params: Callable = record({})        # converter of functional.params
    settings: Callable = record({})      # converter of the evaluate settings
    evaluate: Callable | None = None     # (state, settings, params) -> report dict
    optimize: Callable | None = None     # see above
    lhv_bound: Callable | None = None    # params -> report dict
    scan: dict | None = None             # geometry parameter -> settings it sets


_CHSH_PARAMS = record({"two_s_a": Opt(INT), "two_s_b": Opt(INT)})

FUNCTIONALS = {
    "chsh": Functional(
        BipartiteState, _CHSH_PARAMS, record(dict.fromkeys(("u1", "u2", "v1", "v2"), VEC3)),
        evaluate=lambda st, s, p: chsh_value(st, *s.values()).to_dict(),
        optimize=chsh_problem, lhv_bound=_lhv_chsh, scan={}),
    "mermin": Functional(
        BipartiteState, settings=_mermin_settings, evaluate=_mermin, optimize=mermin_problem,
        scan={"theta_geometry": lambda x: {"theta": x},
              "sin_theta_geometry": lambda x: {"theta": _asin(x)}}),
    "reid": Functional(
        BipartiteState,
        settings=record(dict.fromkeys(("theta", "theta_star", "phi", "phi_star"), FLOAT)),
        evaluate=lambda st, s, p: reid_ratio(st, *s.values()).to_dict(), optimize=reid_problem),
    "tura": Functional(
        SymmetricState, settings=record(dict.fromkeys(("n0", "n1"), VEC3)),
        evaluate=lambda st, s, p: tura_value(st, *s.values()).to_dict(), optimize=tura_problem),
    "cfrd": Functional(BipartiteState, evaluate=_cfrd),
    "cfrd_quadrature": Functional(BipartiteState, evaluate=_cfrd_quadrature),
    "drummond": Functional(params=record({"J": INT, "theta": FLOAT}), evaluate=_drummond),
    "mabk": Functional(params=record({"n": INT}),
                       evaluate=lambda st, s, p: mabk_value(p["n"]).to_dict()),
    "cglmp_I": Functional(
        params=record({"tables": list_of(MATRIX), "d": INT}),
        evaluate=lambda st, s, p: {"functional": "cglmp_I", "value": cglmp_I(p["tables"], p["d"]),
                                   "claimed_lhvt_bound": cglmp_functional(p["d"]).bound,
                                   "hvt_bound": CGLMP_HVT_BOUND}),
    "cfrd_weights": Functional(
        params=record({"two_s": lambda v, where: SpinQuantum(INT(v, where))}),
        optimize=cfrd_weight_problem),
    "generalized_chsh": Functional(params=_CHSH_PARAMS, lhv_bound=_lhv_chsh),
    "cglmp": Functional(params=record({"d": INT}), lhv_bound=_lhv_cglmp),
    "tura_symmetric": Functional(params=record({"n": INT}), lhv_bound=_lhv_tura),
}


def lookup(name: str, command: str) -> Functional:
    """The entry of `name`; UnknownNameError unless it offers `command`."""
    entry = FUNCTIONALS.get(name)
    if entry is None or getattr(entry, command.replace("-", "_")) is None:
        raise UnknownNameError(f"no {command} entry for functional {name!r}")
    return entry


def require_state(name: str, entry: Functional, kind: type):
    """Refuse a state of class `kind` for the functional `name`."""
    if entry.state is None or not issubclass(kind, entry.state):
        raise ValidationError(f"functional {name!r} does not take a {kind.__name__}")
