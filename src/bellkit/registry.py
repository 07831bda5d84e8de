"""The one registry of state families and functionals.

FAMILIES maps each state family to the state class it builds and to the
ordered, typed parameters of its constructor in `states`, whose name is
the family name.  FUNCTIONALS maps each functional to the state class
it reads and to its evaluate, optimize, lhv-bound and scan entries.
Entries reach constructors and evaluators through module globals at
call time, so a function wrapped in its module is wrapped here too.

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
from .errors import CapacityError, DegenerateConditionError, UnknownNameError, ValidationError
from .functionals import (
    cfrd_margin, cfrd_quadrature_margin, cglmp_I, cglmp_functional, chsh_value, drummond_margin,
    generalized_chsh_functional, mabk_value, mermin_check, mermin_coplanar_vectors, mermin_gap,
    mermin_sides, reid_ratio, tura_value, tura_witness, VIOLATION_TOL,
)
from .lhv import cglmp_scenario, enumerate_lhv_bound, symmetric_lhv_min, two_setting_spin_scenario
from .spin import SpinQuantum, UnitVector, build_spin_rep
from .states import BipartiteState, MultiQubitState, SymmetricState, spin_correlation_matrix

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
# searches: (ranges, objective to maximize, report at the optimum)


def _over_vectors(count: int, coplanar: bool, objective, report):
    """Search over `count` unit vectors: one angle each in the x-z plane
    when coplanar, else a polar and an azimuthal angle each.  The
    objective gets them as the rows of one (count, 3) array, rewritten
    in place at each evaluation; `report` gets the same rows as UnitVectors."""
    rows = np.zeros((count, 3))

    def directions(x):
        polar, azimuth = (x, 0.0) if coplanar else (x[0::2], x[1::2])
        sin_polar = np.sin(polar)
        np.multiply(sin_polar, np.cos(azimuth), out=rows[:, 0])
        np.multiply(sin_polar, np.sin(azimuth), out=rows[:, 1])
        np.cos(polar, out=rows[:, 2])
        return rows

    ranges = [(0.0, 2 * math.pi)] if coplanar else [(0.0, math.pi), (0.0, 2 * math.pi)]
    # + 0.0 turns the y = -0.0 of a coplanar direction with sin(polar) < 0 into 0.0
    return (ranges * count, lambda x: objective(directions(x)),
            lambda x: report(*(UnitVector(*row) for row in (directions(x) + 0.0).tolist())))


def _chsh_search(state: BipartiteState, coplanar: bool):
    # S is bilinear in the directions: sum_ij coef[i, j] u_i^T T v_j = sum_i (u_i^T T).(coef V)_i
    functional = generalized_chsh_functional(state.s_a.two_s, state.s_b.two_s)
    coef = np.zeros((2, 2))
    for term in functional.terms:
        coef[term.setting_a, term.setting_b] += term.coef
    t, bound = spin_correlation_matrix(state), functional.bound
    return _over_vectors(4, coplanar, lambda d: abs(np.vdot(d[:2] @ t, coef @ d[2:])) - bound,
                         lambda *vs: chsh_value(state, *vs))


def _mermin_search(state: BipartiteState, coplanar: bool):
    # -margin of the squared_difference reading (violation when LHS < RHS) where the premise
    # holds; elsewhere below every -margin (|margin| <= 4s^3 + 2s^2), falling as the gap grows
    if state.s_a != state.s_b:
        raise ValidationError("mermin_check needs equal subsystem spins")
    sval, second = state.s_a.s, states.spin_moments(state)[1]
    floor, tol = 4 * sval ** 3 + 2 * sval ** 2 + 1, VIOLATION_TOL * max(1.0, sval ** 2)

    def objective(d):
        gap = mermin_gap(second, d[1])
        if gap > tol:
            return -floor - gap
        lhs, rhs = mermin_sides(sval, second, *d)
        return rhs - lhs

    return _over_vectors(3, coplanar, objective, lambda *vs: mermin_check(state, *vs))


def _tura_search(state: SymmetricState, coplanar: bool):
    n, (mean, second) = state.n_atoms, states.spin_moments(state)
    return _over_vectors(2, coplanar, lambda d: -tura_witness(n, mean, second, d)[0],
                         lambda *vs: tura_value(state, *vs))


def _reid_search(state: BipartiteState, coplanar: bool):
    def objective(x):
        try:
            return reid_ratio(state, *x).margin
        except DegenerateConditionError:
            return -math.inf

    return [(0.0, math.pi)] * 4, objective, lambda x: reid_ratio(state, *x)


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
            "margin": value, "violation": False, "state": dict(state.meta)}


def _drummond(state, settings, p):
    margin = drummond_margin(p["J"], p["theta"])
    return {"functional": "drummond", "value": margin, "bound": 0.0,
            "margin": margin, "violation": margin > 1e-9,
            "state": {"family": "drummond_limit", "J": p["J"], "theta": p["theta"]}}


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
    `optimize` maps (state, coplanar) to a settings search problem, or,
    for a stateless functional, params to the spin of the pair-state
    weight search `search.optimize_weights_cfrd`."""

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
        optimize=_chsh_search, lhv_bound=_lhv_chsh, scan={}),
    "mermin": Functional(
        BipartiteState, settings=_mermin_settings, evaluate=_mermin, optimize=_mermin_search,
        scan={"theta_geometry": lambda x: {"theta": x},
              "sin_theta_geometry": lambda x: {"theta": _asin(x)}}),
    "reid": Functional(
        BipartiteState,
        settings=record(dict.fromkeys(("theta", "theta_star", "phi", "phi_star"), FLOAT)),
        evaluate=lambda st, s, p: reid_ratio(st, *s.values()).to_dict(), optimize=_reid_search),
    "tura": Functional(
        SymmetricState, settings=record(dict.fromkeys(("n0", "n1"), VEC3)),
        evaluate=lambda st, s, p: tura_value(st, *s.values()).to_dict(), optimize=_tura_search),
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
    "cfrd_weights": Functional(params=record({"two_s": INT}),
                               optimize=lambda p: SpinQuantum(p["two_s"])),
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
