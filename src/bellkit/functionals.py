"""Bell functionals: quantum-side evaluation and declarative descriptions.

Each evaluator returns a ViolationReport whose `violation` flag is
oriented consistently (True means the classical inequality is broken);
the signed `margin` follows each functional's own convention, noted in
the docstrings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConditionError, ValidationError
from .spin import UnitVector, build_spin_rep, outcome_indices, sign_projectors, spin_component
from .states import (
    BipartiteState,
    MeasurementSetting,
    SymmetricState,
    as_matrix,
    binned_joint_probability,
    correlator,
    expect_product,
    expect_side,
    joint_distribution,
    spin_moments,
)

VIOLATION_TOL = 1e-9


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


def _vec(u: UnitVector) -> list:
    return [u.ux, u.uy, u.uz]


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
    if state.s_a != state.s_b:
        raise ValidationError("mermin_check needs equal subsystem spins")
    sval = state.s_a.s
    mean, second = spin_moments(state)
    va, vb = a.as_array(), b.as_array()
    lhs, rhs = mermin_sides(sval, second, va, vb, c.as_array())
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
    margin, premise_gap = lhs - rhs, mermin_gap(second, vb)
    return ViolationReport(
        functional="mermin", value=lhs, bound=rhs, margin=margin,
        violation=margin < -VIOLATION_TOL and premise_gap <= VIOLATION_TOL * max(1.0, sval ** 2),
        settings=[_vec(a), _vec(b), _vec(c)],
        state_meta=dict(state.meta),
        extra={"reading": reading, "lhs": lhs, "rhs": rhs, "premise_gap": premise_gap})


def mermin_gap(second: np.ndarray, vb) -> float:
    """The premise gap <(b.S^A + b.S^B)^2> at direction vb."""
    both_b = np.concatenate([vb, vb])
    return float(both_b @ second @ both_b)


def mermin_sides(sval: float, second: np.ndarray, va, vb, vc) -> tuple:
    """squared_difference's (lhs, rhs) = (s <Delta^2>, <S_Aa S_Bc> + <S_Ab S_Bc>) at va, vb, vc."""
    delta = np.concatenate([va, -vb])  # Delta = a.S^A - b.S^B
    return sval * float(delta @ second @ delta), float((va + vb) @ second[:3, 3:] @ vc)


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
    amp = ghz(n).amplitudes  # refuses n outside 2..14 before allocating
    if n % 2:
        raise ValidationError("the printed bound 2^(n/2) applies to even n")
    # tensor(sigma_x + i sigma_y) = 2^n |up...up><down...down|
    t = 2 ** n * np.conj(amp[0]) * amp[-1]
    value = float(t.imag)  # (t - conj(t)) / 2i
    bound = 2.0 ** (n / 2)
    margin = value - bound
    return ViolationReport(functional="mabk", value=value, bound=bound, margin=margin,
                           violation=margin > VIOLATION_TOL,
                           state_meta={"family": "ghz", "n": n})


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

    num = float(table(theta, phi)[0, 0] - table(theta, phi_star)[0, 0]
                + table(theta_star, phi)[0, 0] + table(theta_star, phi_star)[0, 0])
    rep_a = build_spin_rep(state.s_a)
    rep_b = build_spin_rep(state.s_b)
    pa_plus, _ = sign_projectors(spin_component(rep_a, _reid_direction(theta_star)), zero_policy)
    pb_plus, _ = sign_projectors(spin_component(rep_b, _reid_direction(phi)), zero_policy)
    den = expect_side(state, pa_plus, "A") + expect_side(state, pb_plus, "B")
    if den <= 1e-12:
        raise DegenerateConditionError("denominator of the Reid ratio vanishes")
    ratio = num / den
    return ViolationReport(
        functional="reid", value=ratio, bound=1.0, margin=ratio - 1.0,
        violation=ratio - 1.0 > VIOLATION_TOL,
        settings=[float(x) for x in (theta, theta_star, phi, phi_star)],
        state_meta=dict(state.meta),
        extra={"numerator": num, "denominator": den, "zero_policy": zero_policy})


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
    rhs = re_part ** 2 + im_part ** 2
    margin = lhs - rhs
    return ViolationReport(functional="cfrd", value=margin, bound=0.0, margin=margin,
                           violation=margin < -VIOLATION_TOL,
                           state_meta=dict(state.meta),
                           extra={"lhs": lhs, "rhs": rhs})


def cfrd_quadrature_margin(state: BipartiteState) -> float:
    """<Delta S_x^2> + <Delta S_y^2> + 1/4 for the total spin
    S = S^A + S^B; a violation of the quadrature-variable inequality
    would need this to be negative, which no quantum state achieves."""
    mean, second = spin_moments(state)
    xy = np.tile(np.eye(3)[:2], 2)  # S_x and S_y of the total spin S^A + S^B
    return float(0.25 + np.trace(xy @ second @ xy.T) - np.sum((xy @ mean) ** 2))


def tura_witness(n: int, mean: np.ndarray, second: np.ndarray, rows: np.ndarray) -> tuple:
    """W = 2 S_0 + S_01 + 2N + (S_00 + S_11)/2 and (S_0, S_00, S_11, S_01) at the directions
    rows = (n0, n1), from the collective spin moments <J> = mean and <J_i J_j> = second."""
    (q00, q01), (_, q11) = (rows @ second @ rows.T).tolist()
    s0 = 2.0 * float(rows[0] @ mean)
    s00, s11 = 4.0 * q00 - n, 4.0 * q11 - n
    # sum_{i != j} <m_i0 m_j1> = 2 <{J.n0, J.n1}> - N (n0.n1); the
    # antisymmetric part [J.n0, J.n1] = i J.(n0 x n1) cancels exactly
    # against the single-site contraction; tura_value reports its size
    s01 = 4.0 * q01 - n * float(rows[0] @ rows[1])
    return 2.0 * s0 + s01 + 2.0 * n + 0.5 * (s00 + s11), (s0, s00, s11, s01)


def tura_value(state: SymmetricState, n0: UnitVector, n1: UnitVector) -> ViolationReport:
    """Permutation-symmetric two-setting inequality

      W = 2 S_0 + S_01 + 2N + (S_00 + S_11)/2  >=  0

    evaluated from the collective spin moments <J> and <J_i J_j> of the
    (N+1)-dimensional symmetric basis; W < 0 means violation.
    """
    n = state.n_atoms
    mean, second = spin_moments(state)
    u0, u1 = n0.as_array(), n1.as_array()
    w, (s0, s00, s11, s01) = tura_witness(n, mean, second, np.array([u0, u1]))
    commutator = float(np.cross(u0, u1) @ mean)  # <[J.n0, J.n1]> / i
    return ViolationReport(
        functional="tura", value=w, bound=0.0, margin=w,
        violation=w < -VIOLATION_TOL,
        settings=[_vec(n0), _vec(n1)],
        state_meta={"family": "symmetric", "n_atoms": n},
        extra={"S0": s0, "S00": s00, "S11": s11, "S01": s01,
               "commutator_norm": abs(commutator)})


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
