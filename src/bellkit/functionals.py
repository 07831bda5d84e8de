"""Bell functionals: quantum-side evaluation, settings searches and
declarative descriptions.

Each evaluator returns a ViolationReport whose `violation` flag is
oriented consistently (True means the classical inequality is broken);
the signed `margin` follows each functional's own convention, noted in
the docstrings.  Beside each searched evaluator sits its SearchProblem:
the state compiled once into the numbers the evaluator reads, an
objective that scores a (k, n) batch of points as k values, the
evaluator's report at a point (reid's builds it from its own scores),
and where known restart 0's start and a value to stop the restarts at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import CapacityError, DegenerateConditionError, ValidationError
from .spin import (
    SpinQuantum, UnitVector, _ladder_coefficients, build_spin_rep, outcome_indices,
    sign_projectors, spin_component,
)
from .states import (
    BipartiteState,
    MeasurementSetting,
    SymmetricState,
    _catalog_state,
    _diagonal_sums,
    _plus_bin_frame,
    as_matrix,
    binned_joint_probability,
    correlator,
    expect_product,
    expect_side,
    joint_distribution,
    sign_bin_phases,
    sign_bin_series,
    spin_correlation_matrix,
    spin_moments,
)

VIOLATION_TOL = 1e-9
# cap on the cost of the sign_bin_series compile that a reid search starts with:
# (d_A d_B)^2 for a pure state (its products make half as many multiply-adds), and
# 10 (d_A d_B)^2 (d_A + d_B) for a mixed one (two rotations of rho, 2 (d_A d_B)^2 (d_A + d_B)
# multiply-adds, at about a fifth of the pure rate).  maximally_entangled(446) costs 3.99e10
# and compiled in 4.0 s on one thread
REID_COMPILE_CAP = 4e10


# ---------------------------------------------------------------------------
# declarative functionals (shared with the LHV enumerator)


@dataclass(frozen=True)
class CorrelatorTerm:
    """coef * <outcome(A setting i) * outcome(B setting j)>."""
    coef: float
    setting_a: int
    setting_b: int


@dataclass(frozen=True)
class PairEventTerm:
    """coef * P((alpha, beta) in pairs) for settings (i, j)."""
    coef: float
    setting_a: int
    setting_b: int
    pairs: tuple  # ((alpha, beta), ...)


@dataclass(frozen=True)
class BellFunctional:
    """Linear combination of correlators and event probabilities, and
    the classical bound stated for it."""

    name: str
    settings_a: int
    settings_b: int
    terms: tuple
    bound: float

    def __post_init__(self):
        for t in self.terms:
            if not isinstance(t, (CorrelatorTerm, PairEventTerm)):
                raise ValidationError(f"unknown term type {t!r}")
            if not (0 <= t.setting_a < self.settings_a and 0 <= t.setting_b < self.settings_b):
                raise ValidationError(f"term {t} references an unknown setting")


def generalized_chsh_functional(two_s_a: int, two_s_b: int) -> BellFunctional:
    """S = <11> + <12> + <21> - <22> for spin-component outcomes
    -s..+s on each side; bound 1/2 <N_A><N_B> = 2 s_A s_B (1/2, plain
    CHSH named "chsh", at s_A = s_B = 1/2)."""
    terms = (
        CorrelatorTerm(1.0, 0, 0),
        CorrelatorTerm(1.0, 0, 1),
        CorrelatorTerm(1.0, 1, 0),
        CorrelatorTerm(-1.0, 1, 1),
    )
    return BellFunctional(
        name="generalized_chsh" if (two_s_a, two_s_b) != (1, 1) else "chsh",
        settings_a=2, settings_b=2, terms=terms, bound=0.5 * two_s_a * two_s_b)


def cglmp_functional(d: int) -> BellFunctional:
    """I = P(A1=B1) + P(B1=A2+1) + P(A2=B1) + P(B2=A1), outcomes mod d;
    claimed LHV bound 3."""
    if d < 2:
        raise ValidationError("d must be >= 2")
    eq = tuple((j, j) for j in range(d))
    shifted = tuple((k, (k + 1) % d) for k in range(d))
    terms = (
        PairEventTerm(1.0, 0, 0, eq),        # P(A1 = B1)
        PairEventTerm(1.0, 1, 0, shifted),   # P(B1 = A2 + 1)
        PairEventTerm(1.0, 1, 0, eq),        # P(A2 = B1)
        PairEventTerm(1.0, 0, 1, eq),        # P(B2 = A1)
    )
    return BellFunctional(name=f"cglmp_d{d}", settings_a=2, settings_b=2, terms=terms, bound=3.0)


def functional_value(functional: BellFunctional, outcomes_a, outcomes_b, tables) -> float:
    """Value of `functional` on joint outcome tables (arrays)
    tables[i][j][k, l] = P(outcomes_a[i][k], outcomes_b[j][l] | settings i, j)."""
    return sum(term_value(t, outcomes_a[t.setting_a], outcomes_b[t.setting_b],
                          tables[t.setting_a][t.setting_b]) for t in functional.terms)


def term_value(term, out_a, out_b, table: np.ndarray) -> float:
    """A term's value on the joint table[k, l] = P(out_a[k], out_b[l]) of its two settings."""
    return float(np.sum(term_weights(term, out_a, out_b) * table))


def term_weights(term, out_a, out_b) -> np.ndarray:
    """w[k, l]: the term's coef times its correlator or event at outcomes (out_a[k], out_b[l]).
    A repeated pair counts once; an outcome outside the lists raises ValidationError."""
    if isinstance(term, CorrelatorTerm):
        return term.coef * np.outer(np.asarray(out_a, dtype=float), np.asarray(out_b, dtype=float))
    alphas, betas = np.asarray(term.pairs, dtype=float).reshape(-1, 2).T
    weights = np.zeros((len(out_a), len(out_b)))
    weights[outcome_indices(out_a, alphas), outcome_indices(out_b, betas)] = term.coef
    return weights


# ---------------------------------------------------------------------------
# reports


@dataclass
class ViolationReport:
    """Evaluated functional value, applicable classical bound, and
    provenance needed to reproduce the number."""

    functional: str
    value: float
    bound: float
    margin: float
    violation: bool
    settings: list = field(default_factory=list)
    state_meta: dict = field(default_factory=dict)
    seed: int | None = None
    wall_time_s: float | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.margin):
            raise ValidationError("margin must be finite")

    def to_dict(self) -> dict:
        d = {
            "functional": self.functional,
            "value": self.value,
            "bound": self.bound,
            "margin": self.margin,
            "violation": self.violation,
            "settings": self.settings,
            "state": self.state_meta,
        }
        if self.seed is not None:
            d["seed"] = self.seed
        if self.wall_time_s is not None:
            d["wall_time_s"] = self.wall_time_s
        if self.extra:
            d["extra"] = self.extra
        return d


class SearchProblem(NamedTuple):
    """The ranges of random starts, objective, report, restart 0's start and stopping value;
    `search.multi_start_max` takes a start that already reaches a finite stop with no search."""
    ranges: list
    objective: Callable
    report: Callable
    start: np.ndarray | None = None
    stop: float = math.inf


def _vec(u: UnitVector) -> list:
    return [u.ux, u.uy, u.uz]


def _along(w: list) -> UnitVector:  # w / |w|, or z where w = 0
    n = math.hypot(*w)
    return UnitVector(*(x / n for x in w)) if n > 1e-300 else UnitVector(0.0, 0.0, 1.0)


def _form_values(forms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """v^T F v for each form F at v = (rows flattened, 1): one value per form, or one per
    form and block of a (k, ...) stack of direction rows."""
    lead = rows.shape[:-2]
    v = np.empty(lead + (forms.shape[-1],))
    v[..., :-1] = rows.reshape(lead + (-1,))
    v[..., -1] = 1.0
    return np.einsum("...i,...i->...", v @ forms, v)


def _over_vectors(count: int, coplanar: bool, objective, report, stop: float = math.inf):
    """Search over `count` unit vectors: one angle each in the x-z plane
    when coplanar, else a polar and an azimuthal angle each, stopped at `stop`.  A batch of
    k angle rows reaches the objective as one (k, count, 3) array of
    directions, and the objective returns k values; `report` gets one
    row's directions as UnitVectors."""
    def directions(x):
        rows = np.empty((len(x), count, 3))
        if coplanar:
            np.sin(x, out=rows[..., 0])
            rows[..., 1] = 0.0
            np.cos(x, out=rows[..., 2])
            return rows
        polar, azimuth = x[:, 0::2], x[:, 1::2]
        sin_polar = np.sin(polar)
        np.multiply(sin_polar, np.cos(azimuth), out=rows[..., 0])
        np.multiply(sin_polar, np.sin(azimuth), out=rows[..., 1])
        np.cos(polar, out=rows[..., 2])
        return rows

    ranges = [(0.0, 2 * math.pi)] if coplanar else [(0.0, math.pi), (0.0, 2 * math.pi)]
    # + 0.0 turns a y = -0.0 (sin(polar) < 0 at an azimuth of 0) into 0.0
    return SearchProblem(ranges * count, lambda x: objective(directions(x)), lambda x: report(
        *(UnitVector(*row) for row in (directions(x[None])[0] + 0.0).tolist())), stop=stop)


# ---------------------------------------------------------------------------
# evaluators


def chsh_value(state: BipartiteState, u1: UnitVector, u2: UnitVector,
               v1: UnitVector, v2: UnitVector) -> ViolationReport:
    """Generalized CHSH: S from four spin-component correlators,
    classical bound 1/2 <N_A><N_B>.  margin = |S| - bound, > 0 means
    violation.  At N_A = N_B = 1 the bound is 1/2 (plain CHSH)."""
    functional = generalized_chsh_functional(state.s_a.two_s, state.s_b.two_s)
    rep_a = build_spin_rep(state.s_a)
    rep_b = build_spin_rep(state.s_b)
    obs_a = rep_a.component(u1), rep_a.component(u2)
    obs_b = rep_b.component(v1), rep_b.component(v2)
    s = sum(t.coef * correlator(state, obs_a[t.setting_a], obs_b[t.setting_b])
            for t in functional.terms)
    margin = abs(s) - functional.bound
    return ViolationReport(
        functional=functional.name, value=s, bound=functional.bound, margin=margin,
        violation=margin > VIOLATION_TOL,
        settings=[_vec(u1), _vec(u2), _vec(v1), _vec(v2)],
        state_meta=dict(state.meta))


def chsh_problem(state: BipartiteState, coplanar: bool):
    """Search problem of chsh_value over Bob's (v1, v2), Alice's settings maximized in closed
    form.  S = sum_i u_i^T w_i with w_i = T sum_j coef[i, j] v_j, so at fixed v the largest S is
    sum_i |w_i|, at u_i = w_i / |w_i|, or z where w_i = 0 and its term is 0 for every u_i.
    Coplanar settings read T's x-z block, so each u_i stays in the x-z plane.  The restarts stop
    within 1e-12 max(1, max |S|) of max |S| - bound, max |S| = 2 sqrt(s1^2 + s2^2) from the two
    largest singular values of that T (Horodecki, Phys. Lett. A 200, 340 (1995))."""
    functional = generalized_chsh_functional(state.s_a.two_s, state.s_b.two_s)
    coef = np.zeros((2, 2))
    for term in functional.terms:
        coef[term.setting_a, term.setting_b] += term.coef
    xz = np.array([1.0, 0.0, 1.0])
    t = spin_correlation_matrix(state) * (np.outer(xz, xz) if coplanar else 1.0)
    form, bound = np.kron(coef.T, t.T), functional.bound

    def alice(v):  # (k, 2, 3) directions (v_1, v_2) -> (k, 2, 3) rows (w_1, w_2)
        return (v.reshape(len(v), 6) @ form).reshape(len(v), 2, 3)

    def report(v1, v2):
        # + 0.0 turns a coplanar w_y = -0.0 into 0.0
        w = (alice(np.array([[_vec(v1), _vec(v2)]]))[0] + 0.0).tolist()
        return chsh_value(state, *map(_along, w), v1, v2)

    top = 2.0 * math.hypot(*np.linalg.svd(t, compute_uv=False)[:2])  # max |S|
    objective = lambda v: np.linalg.norm(alice(v), axis=2).sum(axis=1) - bound
    return _over_vectors(2, coplanar, objective, report, top - bound - 1e-12 * max(1.0, top))


def mermin_check(state: BipartiteState, a: UnitVector, b: UnitVector, c: UnitVector,
                 reading: str = "squared_difference") -> ViolationReport:
    """Two-spin-s inequality  LHS >= <S_Aa S_Bc> + <S_Ab S_Bc>.

    Readings for the left side (Delta = outcome(S_Aa) - outcome(S_Bb),
    an integer for any pair of equal spins):

    - "squared_difference" (default): LHS = s <Delta^2>.  Because
      |Delta| <= Delta^2 on integers this is a valid (weaker) Bell
      inequality, and on the two-spin-s singlet its violation boundary
      sits exactly at sin(theta) = 1/(2s) for the standard coplanar
      geometry.
    - "absolute_of_difference": LHS = s <|Delta|> from the joint outcome
      distribution (the sharp inequality; its singlet violation window
      is strictly larger than the 1/(2s) one).
    - "literal": LHS = s |<S_Aa> - <S_Bb>|, which vanishes identically
      on the singlet.

    The inequality is a Bell inequality only for states perfectly
    anticorrelated along b, B(b) = -A(b); extra["premise_gap"] =
    <(b.S^A + b.S^B)^2> measures how far the state is from that, and
    a violation counts only where the gap is at most
    VIOLATION_TOL max(1, s^2).

    margin = LHS - RHS; margin < 0 means violation.
    """
    sval, tol, mean, t, forms = _mermin_forms(state)
    va, vb = a.as_array(), b.as_array()
    lhs, premise_gap = map(float, _form_values(forms, np.array([va, vb])))
    rhs = float((va + vb) @ t @ c.as_array())
    if reading == "absolute_of_difference":
        rep = build_spin_rep(state.s_a)
        alphas, betas, table = joint_distribution(
            state, spin_component(rep, a), spin_component(rep, b))
        diff = np.abs(alphas[:, None] - betas[None, :])
        lhs = sval * float(np.sum(diff * table))
    elif reading == "literal":
        lhs = sval * abs(float(np.concatenate([va, -vb]) @ mean))
    elif reading != "squared_difference":
        raise ValidationError(f"unknown reading {reading!r}")
    margin = lhs - rhs
    return ViolationReport(
        functional="mermin", value=lhs, bound=rhs, margin=margin,
        violation=margin < -VIOLATION_TOL and premise_gap <= tol,
        settings=[_vec(a), _vec(b), _vec(c)],
        state_meta=dict(state.meta),
        extra={"reading": reading, "lhs": lhs, "rhs": rhs, "premise_gap": premise_gap})


def _mermin_forms(state: BipartiteState) -> tuple:
    """(s, premise tolerance VIOLATION_TOL max(1, s^2), spin means, T, F) of equal spins:
    T_ij = <S^A_i S^B_j>, so rhs = <S_Aa S_Bc> + <S_Ab S_Bc> = (a + b)^T T c, and 7 x 7 forms
    F[0..1] with (lhs, premise gap) = v^T F v at v = (a, b, 1): the squared_difference reading's
    lhs = s <Delta^2> with Delta = a.S^A - b.S^B, and <(b.S^A + b.S^B)^2>."""
    if state.s_a != state.s_b:
        raise ValidationError("mermin_check needs equal subsystem spins")
    sval = state.s_a.s
    mean, second = spin_moments(state)
    aa, ab, bb = second[:3, :3], second[:3, 3:], second[3:, 3:]
    f = np.zeros((2, 7, 7))
    f[0, :3, :3], f[0, 3:6, 3:6] = sval * aa, sval * bb
    f[0, :3, 3:6], f[0, 3:6, :3] = -sval * ab, -sval * ab.T
    f[1, 3:6, 3:6] = aa + ab + ab.T + bb
    return sval, VIOLATION_TOL * max(1.0, sval ** 2), mean, ab, f


def mermin_problem(state: BipartiteState, coplanar: bool):
    """Search problem of mermin_check over (a, b); c = w / |w| maximizes rhs = w.c at |w|, a form
    squared, w = T^T (a + b) (x-z part when coplanar).  -margin of the squared_difference reading
    where the premise holds, else below every -margin (<= 4s^3 + 2s^2), falling with the gap."""
    sval, tol, _, t, forms = _mermin_forms(state)
    t = t * np.array([1.0, 0.0, 1.0]) if coplanar else t
    forms = np.concatenate([forms, np.pad(np.tile(t @ t.T, (2, 2)), (0, 1))[None]])
    floor = 4 * sval ** 3 + 2 * sval ** 2 + 1

    def objective(d):
        lhs, gap, w2 = _form_values(forms, d)
        return np.where(gap > tol, -floor - gap, np.sqrt(np.maximum(w2, 0.0)) - lhs)

    return _over_vectors(2, coplanar, objective, lambda a, b: mermin_check(  # + 0.0: no w_y = -0.0
        state, a, b, _along(((a.as_array() + b.as_array()) @ t + 0.0).tolist())))


def mermin_coplanar_vectors(theta: float):
    """a, b at angle pi/2 + theta from c = z (and pi - 2 theta from
    each other), all in the x-z plane."""
    polar = math.pi / 2 + theta
    a = UnitVector(math.sin(polar), 0.0, math.cos(polar))
    b = UnitVector(-math.sin(polar), 0.0, math.cos(polar))
    c = UnitVector(0.0, 0.0, 1.0)
    return a, b, c


def drummond_margin(j_bosons: int, theta: float) -> float:
    """Large-J two-mode condition 3 g(theta) - g(3 theta) - 2 with
    g(theta) = exp(-J theta^2 / 2); positive means violation."""
    if j_bosons < 1:
        raise ValidationError("J must be >= 1")
    g = lambda t: math.exp(-j_bosons * t * t / 2.0)
    return 3.0 * g(theta) - g(3.0 * theta) - 2.0


def mabk_value(n: int) -> ViolationReport:
    """MABK combination on the n-party GHZ state.

    F is the expectation of the Hermitian operator
    (tensor(sigma_x + i sigma_y) - tensor(sigma_x - i sigma_y)) / 2i,
    with +-1 outcomes per site; classical bound 2^(n/2) for even n.
    """
    from .states import ghz
    state = ghz(n)  # refuses n outside 2..14 before allocating
    if n % 2:
        raise ValidationError("the printed bound 2^(n/2) applies to even n")
    # tensor(sigma_x + i sigma_y) = 2^n |up...up><down...down|
    t = 2 ** n * np.conj(state.amplitudes[0]) * state.amplitudes[-1]
    value = float(t.imag)  # (t - conj(t)) / 2i
    bound = 2.0 ** (n / 2)
    margin = value - bound
    return ViolationReport(functional="mabk", value=value, bound=bound, margin=margin,
                           violation=margin > VIOLATION_TOL, state_meta=dict(state.meta))


def _reid_direction(angle: float) -> UnitVector:
    """S_z cos(2 angle) + S_x sin(2 angle) as a unit direction."""
    if not math.isfinite(2 * angle):
        raise ValidationError(f"angle {angle} is out of range")
    return UnitVector(math.sin(2 * angle), 0.0, math.cos(2 * angle))


def reid_ratio(state: BipartiteState, theta: float, theta_star: float,
               phi: float, phi_star: float, zero_policy: str = "plus") -> ViolationReport:
    """Sign-binned ratio inequality

      {P(+,+|t,p) - P(+,+|t,p*) + P(+,+|t*,p) + P(+,+|t*,p*)}
          / {P(+|t*) + P(+|p)}  <=  1.

    ratio > 1 means violation; margin = ratio - 1.
    """
    def table(th, ph):
        sa = MeasurementSetting("A", _reid_direction(th), zero_policy)
        sb = MeasurementSetting("B", _reid_direction(ph), zero_policy)
        return binned_joint_probability(state, sa, sb)

    joint = [[table(a, b)[0, 0] for b in (phi, phi_star)] for a in (theta, theta_star)]
    rep_a = build_spin_rep(state.s_a)
    rep_b = build_spin_rep(state.s_b)
    pa_plus, _ = sign_projectors(spin_component(rep_a, _reid_direction(theta_star)), zero_policy)
    pb_plus, _ = sign_projectors(spin_component(rep_b, _reid_direction(phi)), zero_policy)
    return _reid_report(state, (theta, theta_star, phi, phi_star), *map(float, reid_fraction(
        joint, expect_side(state, pa_plus, "A"), expect_side(state, pb_plus, "B"))), zero_policy)


def _reid_report(state: BipartiteState, angles, ratio, num, den, zero_policy) -> ViolationReport:
    """reid_ratio's report at `angles` from reid_fraction's (ratio, numerator, denominator)."""
    if ratio == -math.inf:
        raise DegenerateConditionError("denominator of the Reid ratio vanishes")
    return ViolationReport(
        functional="reid", value=ratio, bound=1.0, margin=ratio - 1.0,
        violation=ratio - 1.0 > VIOLATION_TOL,
        settings=[float(x) for x in angles], state_meta=dict(state.meta),
        extra={"numerator": num, "denominator": den, "zero_policy": zero_policy})


def reid_fraction(joint, plus_theta_star, plus_phi) -> tuple:
    """(ratio, numerator, denominator) of reid_ratio from
    joint[..., i, j] = P(+,+ | (theta, theta*)[i], (phi, phi*)[j]) and the
    marginals P(+|theta*), P(+|phi): one table and two numbers, or a
    stack of tables and two arrays.  The ratio is -inf where the
    denominator is at most 1e-12: reid_ratio raises
    DegenerateConditionError there, and a search scores it below
    every ratio."""
    joint = np.asarray(joint)
    num = joint[..., 0, 0] - joint[..., 0, 1] + joint[..., 1, 0] + joint[..., 1, 1]
    den = np.add(plus_theta_star, plus_phi)
    degenerate = den <= 1e-12
    return np.where(degenerate, -math.inf, num / np.where(degenerate, 1.0, den)), num, den


def _reid_difference_series(state: BipartiteState):
    """(p, P(+ | theta*), P(+ | phi)) with P(+,+ | theta, phi) = sum_k p_k cos(2k (phi - theta)), on
    a state that the joint turns exp(-ia J) about y, J = S_y^A + S_y^B, leave as it is; else None.
    Turned by -2 theta, P(+,+) = Tr(sigma P+(phi - theta)), sigma = Tr_A[(D (x) 1) rho] and D the
    m >= 0 projector; None too where the series has a sine part, which the objective cannot read."""
    sy_a, sy_b = (build_spin_rep(s).sy for s in (state.s_a, state.s_b))
    (d_a, d_b), half = state.dims, state.s_a.two_s // 2 + 1  # the m >= 0 levels of A
    if state.kind == "pure":  # J psi = <J> psi
        psi, turn = state.psi, sy_a @ state.psi + state.psi @ sy_b.T
        residual = np.abs(turn - np.vdot(psi, turn) * psi).max()
        sigma = psi[:half].T @ psi[:half].conj()
    else:  # [J, rho] = J rho - (J rho)^dagger = 0
        turn = (sy_a @ state.rho.reshape(d_a, -1)).reshape(state.rho.shape)
        turn += (sy_b @ state.rho.reshape(d_a, d_b, -1)).reshape(state.rho.shape)
        residual = max(np.abs(turn.real - turn.real.T).max(), np.abs(turn.imag + turn.imag.T).max())
        sigma = np.einsum("ijil->jl", state.rho.reshape(d_a, d_b, d_a, d_b)[:half, :, :half])
    v, h = _plus_bin_frame(state.s_b)  # the turn is a phase on (V^dagger sigma V)^T o H
    series = _diagonal_sums((v.conj().T @ sigma @ v).T * h)[d_b - 1:] * (2 - (np.arange(d_b) == 0))
    if max(residual, np.abs(series.imag).max()) > 1e-12 * (state.s_a.s + state.s_b.s):  # |J|
        return None  # offsets k > 0 above count -k too: the imaginary parts are the sine part
    return (series.real.copy(), sigma.trace().real,  # P(+|theta*) = Tr sigma, P(+|phi) = Tr D rho_B
            state.reduced("B").diagonal()[:(d_b + 1) // 2].sum().real)


def reid_problem(state: BipartiteState, coplanar: bool):
    """Search problem of reid_ratio over (theta, theta*, phi, phi*); `coplanar` is moot, as
    every direction lies in the x-z plane.  Every P(+,+) and P(+|.) that reid_ratio reads is
    a trigonometric series in the angles: one compile, then per trial two phase rows per side,
    the 2x2 table and two dot products score reid_fraction for the objective and the report at
    the optimum.  Where joint turns about y leave the state as it is, P(+,+) is one series in
    phi - theta, and restart 0 starts on the cut (0, 2a, a, 3a) where 3 P(a) - P(3a) peaks."""
    d_a, d_b = state.dims
    cost = (d_a * d_b) ** 2 * (1 if state.kind == "pure" else 10 * (d_a + d_b))
    if cost > REID_COMPILE_CAP:
        raise CapacityError(f"a reid search on dimensions {d_a} x {d_b} ({state.kind}) "
                            f"exceeds the compile cap")
    if (reduced := _reid_difference_series(state)) is not None:
        series, plus_a, plus_b = reduced
        k = np.arange(len(series))

        def score(x):  # table[:, i, j] at (theta, theta*)[i], (phi, phi*)[j]
            table = np.cos((x[:, None, 2:] - x[:, :2, None])[..., None] * (2.0 * k)) @ series
            return reid_fraction(np.clip(table, 0.0, 1.0), plus_a, plus_b)

        # 3 P(alpha) - P(3 alpha) = sum_m g_m cos(m t), t = 2 alpha, sampled 16x over 0 <= t <= pi
        g = np.bincount(np.r_[k, 3 * k], np.r_[3.0 * series, -series])
        m, n = np.arange(len(g)), 16 * len(g)
        t = 2 * math.pi / n * np.argmax(np.fft.irfft(g, n)[:n // 2 + 1])
        for _ in range(4):  # Newton steps, none where the curvature is not negative
            slope, curve = -(m * g) @ np.sin(m * t), -(m * m * g) @ np.cos(m * t)
            t -= slope / curve if curve < 0 else 0.0
        start = np.array([0.0, t, t / 2, 1.5 * t])
    else:
        joint, plus_a, plus_b = sign_bin_series(state)
        two_a, two_b, start = state.s_a.two_s, state.s_b.two_s, None

        def score(x):
            e_a, e_b = sign_bin_phases(two_a, x[:, :2]), sign_bin_phases(two_b, x[:, 2:])
            table = (e_a.reshape(-1, len(joint)) @ joint).reshape(len(x), 2, -1)
            table = table @ e_b.swapaxes(1, 2)
            return reid_fraction(np.clip(table.real, 0.0, 1.0), (e_a[:, 1] @ plus_a).real,
                                 (e_b[:, 0] @ plus_b).real)

    return SearchProblem([(0.0, math.pi)] * 4, lambda x: score(x)[0] - 1.0, lambda x: _reid_report(
        state, x, *(float(np.ravel(v)[0]) for v in score(x[None])), "plus"), start)  # den may be 0-d


def cfrd_margin(state: BipartiteState, obs_a1, obs_a2, obs_b1, obs_b2) -> ViolationReport:
    """Moment inequality

      <(A1^2 + A2^2)(B1^2 + B2^2)>
          >= |<A1 B1 + A2 B2> + i <A2 B1 - A1 B2>|^2.

    value = LHS - RHS; margin = value, < 0 means violation.
    """
    a1, a2, b1, b2 = (as_matrix(o) for o in (obs_a1, obs_a2, obs_b1, obs_b2))
    lhs = expect_product(state, a1 @ a1 + a2 @ a2, b1 @ b1 + b2 @ b2)
    re_part = expect_product(state, a1, b1) + expect_product(state, a2, b2)
    im_part = expect_product(state, a2, b1) - expect_product(state, a1, b2)
    return _cfrd_report(state, lhs, re_part ** 2 + im_part ** 2)


def cfrd_spin_margin(state: BipartiteState) -> ViolationReport:
    """cfrd_margin at (S_x, S_y) on each side: its left side reads the populations, as S_x^2 + S_y^2
    = s(s+1) - S_z^2, and its right side is (T_xx + T_yy)^2 + (T_yx - T_xy)^2 (spin_moments' T)."""
    t = spin_correlation_matrix(state)
    pops = np.abs(state.psi) ** 2 if state.psi is not None else state.rho.diagonal().real
    q_a, q_b = (s.s * (s.s + 1) - (s.s - np.arange(s.dim)) ** 2 for s in (state.s_a, state.s_b))
    return _cfrd_report(state, float(q_a @ pops.reshape(state.dims) @ q_b),
                        float((t[0, 0] + t[1, 1]) ** 2 + (t[1, 0] - t[0, 1]) ** 2))


def _cfrd_report(state: BipartiteState, lhs: float, rhs: float) -> ViolationReport:
    margin = lhs - rhs
    return ViolationReport(functional="cfrd", value=margin, bound=0.0, margin=margin,
                           violation=margin < -VIOLATION_TOL, state_meta=dict(state.meta),
                           extra={"lhs": lhs, "rhs": rhs})


def cfrd_weight_problem(s: SpinQuantum):
    """Search problem of cfrd_spin_margin over the real weights r of the pair state sum_m r_m
    |s,m>|s,-m>, maximizing -margin.  Each moment <A (x) B> is r^T Re(A o B') r / r^T r, B' being B
    at m -> -m and o the entrywise product: (s(s+1) - m^2)^2 on the diagonal for the left side,
    c^2/2 beside it (c: ladder coefficients) for <S_x S_x + S_y S_y>; <S_y S_x - S_x S_y> is 0."""
    if s.two_s > 20:
        raise CapacityError("weight search supports s <= 10")
    if s.two_s < 1:
        raise ValidationError("weight search requires two_s >= 1")
    d, coupling = s.dim, _ladder_coefficients(s.two_s) ** 2 / 2.0
    forms = np.array([np.diag((s.s * (s.s + 1) - (s.s - np.arange(d)) ** 2) ** 2),
                      np.diag(coupling, 1) + np.diag(coupling, -1)])

    def objective(x):
        norm2 = np.sum(x * x, axis=1)
        small = norm2 < 1e-18  # |r| < 1e-9: no state
        lhs, re_part = np.sum(x @ forms * x, axis=-1) / np.where(small, 1.0, norm2)
        return np.where(small, -math.inf, re_part ** 2 - lhs)

    def report(x):
        r = x / np.linalg.norm(x)
        psi = np.zeros((d, d), dtype=complex)
        psi[np.arange(d), np.arange(d - 1, -1, -1)] = r
        pair = _catalog_state("pure", s, s, psi / np.linalg.norm(psi), "cfrd_pair", two_s=s.two_s)
        best = cfrd_spin_margin(pair)
        best.settings = [float(v) for v in r]
        return best

    return SearchProblem([(-1.0, 1.0)] * d, objective, report)


def cfrd_quadrature_margin(state: BipartiteState) -> float:
    """<Delta S_x^2> + <Delta S_y^2> + 1/4 for the total spin
    S = S^A + S^B; a violation of the quadrature-variable inequality
    would need this to be negative, which no quantum state achieves."""
    mean, second = spin_moments(state)
    xy = np.tile(np.eye(3)[:2], 2)  # S_x and S_y of the total spin S^A + S^B
    return float(0.25 + np.trace(xy @ second @ xy.T) - np.sum((xy @ mean) ** 2))


def _tura_forms(n: int, mean: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Symmetric 7 x 7 forms F[0..4] with (W, S_0, S_00, S_11, S_01) = v^T F v at
    v = (n0, n1, 1), from the collective spin moments <J> = mean and <J_i J_j> = second:
    S_0 = 2 n0.<J>, S_kk = 4 <(J.n_k)^2> - N, S_01 = 4 n0^T second n1 - N n0.n1 and
    W = 2 S_0 + S_01 + 2N + (S_00 + S_11)/2."""
    f = np.zeros((5, 7, 7))
    f[1, 6, :3] = f[1, :3, 6] = mean
    f[2, :3, :3] = f[3, 3:6, 3:6] = 4.0 * second
    f[2, 6, 6] = f[3, 6, 6] = -n
    # sum_{i != j} <m_i0 m_j1> = 2 <{J.n0, J.n1}> - N (n0.n1); the
    # antisymmetric part [J.n0, J.n1] = i J.(n0 x n1) cancels exactly
    # against the single-site contraction; tura_value reports its size
    f[4, :3, 3:6] = f[4, 3:6, :3] = 2.0 * second - 0.5 * n * np.eye(3)
    f[0] = 2.0 * f[1] + f[4] + 0.5 * (f[2] + f[3])
    f[0, 6, 6] += 2.0 * n
    return f


def tura_value(state: SymmetricState, n0: UnitVector, n1: UnitVector) -> ViolationReport:
    """Permutation-symmetric two-setting inequality

      W = 2 S_0 + S_01 + 2N + (S_00 + S_11)/2  >=  0

    evaluated from the collective spin moments <J> and <J_i J_j> of the
    (N+1)-dimensional symmetric basis; W < 0 means violation.
    """
    mean, second = spin_moments(state)
    return _tura_report(state, mean, _tura_forms(state.n_atoms, mean, second), n0, n1)


def _tura_report(state: SymmetricState, mean, forms, n0: UnitVector, n1: UnitVector):
    u0, u1 = n0.as_array(), n1.as_array()  # tura_value at (n0, n1) from <J> and _tura_forms
    w, s0, s00, s11, s01 = map(float, _form_values(forms, np.array([u0, u1])))
    return ViolationReport(
        functional="tura", value=w, bound=0.0, margin=w, violation=w < -VIOLATION_TOL,
        settings=[_vec(n0), _vec(n1)], state_meta=dict(state.meta),
        extra={"S0": s0, "S00": s00, "S11": s11, "S01": s01,  # |<[J.n0, J.n1]>| = |<J>.(n0 x n1)|
               "commutator_norm": abs(float(np.cross(u0, u1) @ mean))})


def _modal_dual(n: int, mean: np.ndarray, second: np.ndarray, coplanar: bool):
    """(g less 1e-14 max(1, |g|), rows n0, n1): the Lagrangian dual bound g <= W at unit n0, n1
    (x, z when coplanar) and a point attaining it to 1e-9 max(1, |g|), a global minimum (Shor 1987);
    None where a block of y vanishes or Newton stalls.  In the eigenbasis Q of 2 second, A = W's
    blocks [[a, b], [b, a]] per mode (b = a - N/2) less diag(mu) > 0, f = 2 Q^T <J> on n0, y =
    -A^-1 f and g(mu) = sum mu + N - sum f^2 (a - mu_1) / det, by safeguarded Newton on mu from a
    Gershgorin start.  In closed form where f = 0, and where f is so small that the f = 0 point
    is certified: the linear term 2 f.(Q^T n0) moves W by at most 2|f| at unit n0, so g0 - 2|f|
    bounds W and the f = 0 point is within 4|f| of it."""
    axes = [0, 2] if coplanar else [0, 1, 2]
    s2 = 2.0 * second[np.ix_(axes, axes)]
    sigma, q = np.linalg.eigh(s2)
    f = 2.0 * (q.T @ mean[axes])
    # at f = 0, W = 2N + p^T (s2 - N/2) p over |n0 + n1| <= 2: its minimum g0 is at n0 = n1 = low
    # where low's b < 0, else at n0 = -n1 = low; low's largest entry is positive
    f_norm = math.hypot(*f.tolist())
    g0 = 2.0 * n + 4.0 * min(0.0, float(sigma[0]) - 0.5 * n)
    g = g0 - 2.0 * f_norm
    if 4.0 * f_norm <= (1e-9 - 1e-14) * max(1.0, abs(g)):  # the gap and the shave below
        low = q[:, 0] * np.sign(q[np.argmax(np.abs(q[:, 0])), 0])
        return g - 1e-14 * max(1.0, abs(g)), np.array([low, low if g0 < 2.0 * n else -low])
    modes = [(a, a - 0.5 * n, fk) for a, fk in zip(sigma.tolist(), f.tolist())]

    def dual(mu0, mu1):  # (g, y per mode, H / 2) at mu; g = -inf where A is not positive definite
        g, y, h00, h01, h11 = mu0 + mu1 + n, [], 0.0, 0.0, 0.0
        for a, b, fk in modes:
            if (p := a - mu0) <= 0.0 or (det := p * (r := a - mu1) - b * b) <= 0.0:
                return -math.inf, None, None
            y.append((y0 := -fk * r / det, y1 := fk * b / det))
            g, h00, h01 = g + fk * y0, h00 + y0 * y0 * r / det, h01 - y0 * y1 * b / det
            h11 += y1 * y1 * p / det
        return g, y, (h00, h01, h11)

    # mu below the Gershgorin bound on A's lambda_min (n0 and n1 rows alike) by |f|: |y_i| < 1
    rows = np.abs(s2).sum(axis=1) + np.abs(s2 - 0.5 * n * np.eye(len(axes))).sum(axis=1)
    mu0 = mu1 = float(np.min(2.0 * np.diag(s2) - rows) - np.linalg.norm(f) - 1.0)
    g, y, h = dual(mu0, mu1)
    for _ in range(50):
        if not ((r0 := math.hypot(*(v[0] for v in y))) and (r1 := math.hypot(*(v[1] for v in y)))):
            return None
        w = n + sum(a * ((y0 / r0) ** 2 + (y1 / r1) ** 2) + 2.0 * y0 / r0 * (b * y1 / r1 + fk)
                    for (a, b, fk), (y0, y1) in zip(modes, y))
        if w - g <= 1e-9 * max(1.0, abs(g)):
            return g - 1e-14 * max(1.0, abs(g)), np.array(y).T / [[r0], [r1]] @ q.T
        # Newton on the gradient 1 - |y_i|^2, and where |y_i| < 1 on 1/|y_i| - 1 (Hebden)
        d0, d1 = ((1.0 - r * r) * min(1.0, 2.0 * r * r / (1.0 + r)) for r in (r0, r1))
        if (det := 2.0 * (h[0] * h[2] - h[1] * h[1])) <= 0.0:
            return None  # H is singular in floats: y_i ~ 1e-100 squares to below 1e-200
        s0, s1, t = (h[2] * d0 - h[1] * d1) / det, (h[0] * d1 - h[1] * d0) / det, 1.0
        while (trial := dual(mu0 + t * s0, mu1 + t * s1))[0] < g:  # keep A > 0 and g rising
            t /= 2.0
            if t < 1e-4:
                return None
        mu0, mu1, (g, y, h) = mu0 + t * s0, mu1 + t * s1, trial
    return None


def tura_problem(state: SymmetricState, coplanar: bool):
    """Search problem of tura_value over (n0, n1): -W.  Where `_modal_dual` gives a certified point
    or, at <J> = 0 or nearly, the closed form, restart 0 starts there and `stop` is -g less the
    certificate's tolerance, so `multi_start_max` runs no search; elsewhere no start and no stop."""
    mean, second = spin_moments(state)
    forms = _tura_forms(state.n_atoms, mean, second)
    problem = _over_vectors(2, coplanar, lambda d: -_form_values(forms, d)[0],
                            lambda *vs: _tura_report(state, mean, forms, *vs))
    if (dual := _modal_dual(state.n_atoms, mean, second, coplanar)) is None:
        return problem
    g, u = dual[0], dual[1].T  # rows x, (y,) z of (n0, n1)
    start = (np.arctan2(u[0], u[1]) if coplanar else np.column_stack(
        [np.arctan2(np.hypot(u[0], u[1]), u[2]), np.arctan2(u[1], u[0])]).ravel())
    return problem._replace(start=start, stop=-g - 1e-9 * max(1.0, abs(g)))


def cglmp_I(tables, d: int) -> float:
    """I = P(A1=B1) + P(B1=A2+1) + P(A2=B1) + P(B2=A1), cglmp_functional(d)
    read from four d x d joint probability tables keyed (A setting,
    B setting): tables = (P11, P12, P21, P22), each P[j, l] = P(A=j, B=l)."""
    if len(tables) != 4:
        raise ValidationError("need four joint probability tables")
    mats = []
    for t in tables:
        t = np.asarray(t, dtype=float)
        if t.shape != (d, d):  # before cglmp_functional(d) builds its d pairs
            raise ValidationError(f"table shape {t.shape} != ({d}, {d})")
        if np.any(t < -1e-12):
            raise ValidationError("negative probabilities in table")
        if not abs(t.sum() - 1.0) <= 1e-9:
            raise ValidationError(f"table sums to {t.sum()}, expected 1")
        mats.append(t)
    outcomes = (tuple(range(d)),) * 2
    return functional_value(cglmp_functional(d), outcomes, outcomes, (mats[:2], mats[2:]))
