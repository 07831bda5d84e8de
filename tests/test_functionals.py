import itertools
import math

import numpy as np
import pytest

from bellkit.errors import CapacityError, DegenerateConditionError, ValidationError
from bellkit.spin import SpinQuantum, UnitVector, build_spin_rep
from bellkit.states import (
    BipartiteState,
    SymmetricState,
    dicke,
    ghz,
    maximally_entangled,
    random_pure_state,
    rm_weighted,
    separable_mixture,
    singlet,
    werner,
)
from bellkit.functionals import (
    cfrd_margin,
    cfrd_quadrature_margin,
    cglmp_I,
    chsh_value,
    drummond_margin,
    mabk_value,
    mermin_check,
    reid_ratio,
    tura_value,
)
from reference import cglmp_I_hand_sum, eigh_projectors

EZ = UnitVector(0.0, 0.0, 1.0)
EX = UnitVector(1.0, 0.0, 0.0)
DIAG_P = UnitVector(1 / math.sqrt(2), 0.0, 1 / math.sqrt(2))
DIAG_M = UnitVector(-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2))

# optimizer-found Reid angles for maximally_entangled(2); ratio frozen
REID_ANGLES = (1.9167836878409945, 2.4555615784206224,
               2.186172637167368, 2.7249505060075)
REID_RATIO_N2 = 1.0905758253087268


def random_density(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_chsh_singlet_optimal():
    rep = chsh_value(singlet(1), EZ, EX, DIAG_P, DIAG_M)
    assert abs(abs(rep.value) - math.sqrt(2) / 2) < 1e-12
    assert rep.bound == 0.5
    assert rep.violation
    assert abs(rep.margin - (math.sqrt(2) / 2 - 0.5)) < 1e-12


def test_chsh_degenerate_settings():
    # u1 = u2, v1 = v2 collapses S to twice one correlator: never violates
    rep = chsh_value(singlet(1), EZ, EZ, EX, EX)
    assert not rep.violation
    assert abs(rep.value) <= rep.bound + 1e-12


def test_chsh_generalized_bound():
    st = maximally_entangled(4)
    rep = chsh_value(st, EZ, EX, DIAG_P, DIAG_M)
    assert rep.bound == 8.0  # (1/2) * 4 * 4
    assert abs(rep.value) <= rep.bound + 1e-9


def test_chsh_exchange_symmetry():
    st = singlet(2)
    r1 = chsh_value(st, EZ, EX, DIAG_P, DIAG_M)
    r2 = chsh_value(st, DIAG_P, DIAG_M, EZ, EX)
    assert abs(r1.value - r2.value) < 1e-10


def test_chsh_separable_respects_bound():
    rng = np.random.default_rng(11)
    for _ in range(25):
        comps = [(0.5, random_density(2, rng), random_density(2, rng)),
                 (0.5, random_density(2, rng), random_density(2, rng))]
        st = separable_mixture(comps)
        us = [UnitVector.from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
              for _ in range(4)]
        rep = chsh_value(st, *us)
        assert abs(rep.value) <= rep.bound + 1e-9


def mermin_vectors(theta):
    polar = math.pi / 2 + theta
    a = UnitVector(math.sin(polar), 0.0, math.cos(polar))
    b = UnitVector(-math.sin(polar), 0.0, math.cos(polar))
    return a, b, EZ


def test_mermin_window_boundary():
    # default reading flips violation exactly at sin(theta) = 1/(2s)
    for two_s in (2, 3, 4):
        s = two_s / 2.0
        st = singlet(two_s)
        inside = mermin_check(st, *mermin_vectors(math.asin(1 / (2 * s) - 0.02)))
        outside = mermin_check(st, *mermin_vectors(math.asin(1 / (2 * s) + 0.02)))
        assert inside.violation
        assert not outside.violation


def test_mermin_rhs_formula():
    # on the singlet RHS = (2 s (s+1) / 3) sin(theta)
    st = singlet(3)
    theta = 0.23
    rep = mermin_check(st, *mermin_vectors(theta))
    s = 1.5
    assert abs(rep.bound - (2 * s * (s + 1) / 3) * math.sin(theta)) < 1e-10


def test_mermin_literal_reading_vanishes():
    st = singlet(2)
    rep = mermin_check(st, *mermin_vectors(0.4), reading="literal")
    assert abs(rep.value) < 1e-12
    # LHS = 0 while RHS > 0, so the literal reading claims violation at any
    # angle with positive RHS; that is exactly why it cannot be the default
    assert rep.margin < 0 and rep.violation


def test_mermin_absolute_reading_is_sharper():
    # the |Delta| reading still violates past the squared-difference boundary
    st = singlet(2)
    theta = math.asin(0.55)
    sq = mermin_check(st, *mermin_vectors(theta))
    ab = mermin_check(st, *mermin_vectors(theta), reading="absolute_of_difference")
    assert not sq.violation
    assert ab.violation
    with pytest.raises(ValidationError):
        mermin_check(st, *mermin_vectors(theta), reading="bogus")


def test_mermin_premise_gap():
    # a product state with a = b = c = z: LHS 0 < RHS 2, but B(z) = A(z)
    # instead of -A(z), so it is not a violation; the gap is (1 + 1)^2
    up_up = rm_weighted(SpinQuantum(2), [1.0, 0.0, 0.0])
    for reading in ("squared_difference", "absolute_of_difference", "literal"):
        rep = mermin_check(up_up, EZ, EZ, EZ, reading)
        assert rep.margin < -1.0 and not rep.violation
        assert abs(rep.extra["premise_gap"] - 4.0) < 1e-12
    # the singlet is anticorrelated along every b
    rng = np.random.default_rng(5)
    for two_s in (1, 2, 7, 40, 100):
        b = _random_direction(rng)
        rep = mermin_check(singlet(two_s), _random_direction(rng), b, _random_direction(rng))
        assert abs(rep.extra["premise_gap"]) <= 1e-9


def test_mermin_absolute_reading_against_dense_projectors():
    # s = 20: s sum |alpha - beta| P(alpha, beta) with P from eigh
    # projectors, <psi| P_a (x) P_b |psi> = Tr(psi^dagger P_a psi P_b^T)
    rep = build_spin_rep(SpinQuantum(40))
    a, b = UnitVector.from_angles(0.3, 0.2), UnitVector.from_angles(1.3, 2.2)
    for st in (maximally_entangled(40), singlet(40)):
        want = 20.0 * sum(
            abs(alpha - beta) * np.trace(st.psi.conj().T @ pa @ st.psi @ pb.T).real
            for alpha, pa in eigh_projectors(rep.component(a))
            for beta, pb in eigh_projectors(rep.component(b)))
        got = mermin_check(st, a, b, EZ, "absolute_of_difference").value
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_drummond_margin():
    assert drummond_margin(100, 0.05) > 0
    assert abs(drummond_margin(100, 0.0)) < 1e-15
    assert drummond_margin(100, 1.0) < 0
    with pytest.raises(ValidationError):
        drummond_margin(0, 0.1)


def test_mabk_values():
    r2 = mabk_value(2)
    assert abs(r2.value - 2.0) < 1e-12 and abs(r2.bound - 2.0) < 1e-12
    assert not r2.violation
    r4 = mabk_value(4)
    assert abs(r4.value - 8.0) < 1e-12 and abs(r4.bound - 4.0) < 1e-12
    assert r4.violation
    r6 = mabk_value(6)
    assert abs(r6.value - 32.0) < 1e-12 and abs(r6.bound - 8.0) < 1e-12
    with pytest.raises(ValidationError):
        mabk_value(3)
    with pytest.raises(CapacityError):
        mabk_value(16)
    # below two parties is malformed input, not a size beyond the cap
    for n in (1, 0, -4):
        with pytest.raises(ValidationError):
            mabk_value(n)
        with pytest.raises(ValidationError):
            ghz(n)
    with pytest.raises(CapacityError):
        ghz(15)


def test_mabk_against_dense_operator():
    # F = (tensor(sx + i sy) - tensor(sx - i sy)) / 2i as an explicit matrix
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    for n in (2, 4, 6, 8):
        plus = minus = np.eye(1, dtype=complex)
        for _ in range(n):
            plus = np.kron(plus, sx + 1j * sy)
            minus = np.kron(minus, sx - 1j * sy)
        f = (plus - minus) / 2j
        amp = ghz(n).amplitudes
        want = float(np.real(np.vdot(amp, f @ amp)))
        assert abs(mabk_value(n).value - want) < 1e-10


def test_reid_ratio_violation():
    rep = reid_ratio(maximally_entangled(2), *REID_ANGLES)
    assert abs(rep.value - REID_RATIO_N2) < 1e-9
    assert rep.violation


def _dense_plus_bin(two_s, angle, zero_policy):
    """Pi_+ of S_z cos(2 angle) + S_x sin(2 angle) from its eigh, with the
    zero eigenvalue found by tolerance."""
    rep = build_spin_rep(SpinQuantum(two_s))
    evals, evecs = np.linalg.eigh(np.cos(2 * angle) * rep.sz + np.sin(2 * angle) * rep.sx)
    keep = (evals > 1e-9) | ((np.abs(evals) <= 1e-9) & (zero_policy == "plus"))
    return evecs[:, keep] @ evecs[:, keep].conj().T


# reid_ratio(maximally_entangled(200), *REID_ANGLES_N200) per zero policy,
# as the eigendecomposition-based evaluator gave it
REID_ANGLES_N200 = (0.3, 1.1, 0.5, 2.0)
REID_RATIO_N200 = {"plus": 0.9181200003979829, "minus": 0.917301200401963,
                   "exclude": 0.917301200401963}


def test_reid_ratio_large_spin_against_dense_oracle():
    # psi = 1/sqrt(d): P(+,+) = Tr(Pa Pb^T) / d and both marginals are Tr(P) / d
    n = 200
    theta, theta_star, phi, phi_star = REID_ANGLES_N200
    state = maximally_entangled(n)
    for policy, golden in REID_RATIO_N200.items():
        plus = {a: _dense_plus_bin(n, a, policy) for a in REID_ANGLES_N200}

        def p_pp(a, b):
            return np.trace(plus[a] @ plus[b].T).real / (n + 1)

        num = p_pp(theta, phi) - p_pp(theta, phi_star) + p_pp(theta_star, phi) \
            + p_pp(theta_star, phi_star)
        den = (np.trace(plus[theta_star]).real + np.trace(plus[phi]).real) / (n + 1)
        rep = reid_ratio(state, *REID_ANGLES_N200, zero_policy=policy)
        assert abs(rep.value - num / den) < 1e-12
        assert abs(rep.value - golden) < 1e-12


def test_reid_separable_no_violation():
    rng = np.random.default_rng(4)
    comps = [(1.0, random_density(3, rng), random_density(3, rng))]
    st = separable_mixture(comps)
    for _ in range(10):
        angles = rng.uniform(0, math.pi, size=4)
        try:
            rep = reid_ratio(st, *angles)
        except DegenerateConditionError:
            continue
        assert rep.value <= 1 + 1e-9


def test_reid_degenerate_denominator():
    # all weight on m = -s on both sides puts zero probability in the + bins
    psi = np.zeros((2, 2), dtype=complex)
    psi[1, 1] = 1.0
    st = BipartiteState("pure", SpinQuantum(1), SpinQuantum(1), psi=psi)
    with pytest.raises(DegenerateConditionError):
        reid_ratio(st, 0.0, 0.0, 0.0, 0.0)


def test_cfrd_degenerate_is_variance_bound():
    # A2 = B2 = 0 reduces the inequality to <A^2 B^2> >= <A B>^2
    rng = np.random.default_rng(9)
    for _ in range(10):
        st = random_pure_state(SpinQuantum(2), SpinQuantum(2), rng)
        rep = build_spin_rep(SpinQuantum(2))
        z = np.zeros((3, 3))
        r = cfrd_margin(st, rep.sz, z, rep.sz, z)
        assert r.margin > -1e-10


def test_cfrd_saturation_at_spin_half():
    # pairing m with -m and equal weights saturates the inequality at s=1/2
    psi = np.array([[0, 1], [1, 0]], dtype=complex) / math.sqrt(2)
    st = BipartiteState("pure", SpinQuantum(1), SpinQuantum(1), psi=psi)
    rep = build_spin_rep(SpinQuantum(1))
    r = cfrd_margin(st, rep.sx, rep.sy, rep.sx, rep.sy)
    assert abs(r.margin) < 1e-12
    assert not r.violation


def test_cfrd_equal_weight_diagonal_family():
    # with the equal-m pairing the cross moment vanishes and the margin
    # is the bare product moment, s^2 at concentrated weights
    for two_s in (1, 2, 3):
        s = two_s / 2.0
        rep = build_spin_rep(SpinQuantum(two_s))
        r_edge = np.zeros(two_s + 1)
        r_edge[0] = 1.0
        st = rm_weighted(SpinQuantum(two_s), r_edge)
        r = cfrd_margin(st, rep.sx, rep.sy, rep.sx, rep.sy)
        assert abs(r.margin - s * s) < 1e-10


def test_cfrd_quadrature_positive():
    rng = np.random.default_rng(21)
    for _ in range(50):
        two = int(rng.integers(1, 5))
        st = random_pure_state(SpinQuantum(two), SpinQuantum(two), rng)
        assert cfrd_quadrature_margin(st) > 0


def test_cfrd_quadrature_product_state():
    # |s,s>|s,s>: each subsystem contributes s/2 to the total S_x and
    # S_y variance, so the margin is 2 (s/2) + 2 (s/2) ... /2 = 2s + 1/4
    two_s = 3
    psi = np.zeros((4, 4), dtype=complex)
    psi[0, 0] = 1.0
    st = BipartiteState("pure", SpinQuantum(two_s), SpinQuantum(two_s), psi=psi)
    s = two_s / 2.0
    assert abs(cfrd_quadrature_margin(st) - (2 * s + 0.25)) < 1e-10


def tura_bruteforce(n, k, t0, t1):
    """2^n product-space evaluation of the same W (tests only)."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    jx = np.zeros((2 ** n, 2 ** n), dtype=complex)
    jz = np.zeros_like(jx)
    for i in range(n):
        jx += np.kron(np.kron(np.eye(2 ** i), sx), np.eye(2 ** (n - i - 1))) / 2
        jz += np.kron(np.kron(np.eye(2 ** i), sz), np.eye(2 ** (n - i - 1))) / 2
    psi = np.zeros(2 ** n)
    # a set bit selects the second basis vector (sigma_z eigenvalue -1),
    # so k excitations means n - k set bits
    for bits in itertools.combinations(range(n), n - k):
        psi[sum(1 << (n - 1 - b) for b in bits)] = 1.0
    psi /= np.linalg.norm(psi)
    eye = np.eye(2 ** n)
    jn0 = math.sin(t0) * jx + math.cos(t0) * jz
    jn1 = math.sin(t1) * jx + math.cos(t1) * jz
    dot = math.sin(t0) * math.sin(t1) + math.cos(t0) * math.cos(t1)
    w = (4 * jn0 + 2 * (jn0 @ jn1 + jn1 @ jn0) - n * dot * eye + 2 * n * eye
         + 2 * (jn0 @ jn0) + 2 * (jn1 @ jn1) - n * eye)
    return float(np.real(np.vdot(psi, w @ psi)))


def test_tura_all_up():
    for n in (3, 6):
        rep = tura_value(dicke(n, n), EZ, EZ)
        assert abs(rep.value - (2 * n * n + 2 * n)) < 1e-10
        assert not rep.violation


def test_tura_collective_vs_tensor():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5, 6):
        for _ in range(3):
            k = int(rng.integers(0, n + 1))
            t0, t1 = rng.uniform(0, 2 * math.pi, size=2)
            n0 = UnitVector.from_xyz(math.sin(t0), 0, math.cos(t0))
            n1 = UnitVector.from_xyz(math.sin(t1), 0, math.cos(t1))
            got = tura_value(dicke(n, k), n0, n1).value
            want = tura_bruteforce(n, k, t0, t1)
            assert abs(got - want) < 1e-9


def test_tura_dicke_never_negative():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(0, n + 1))
        t0, t1 = rng.uniform(0, 2 * math.pi, size=2)
        n0 = UnitVector.from_xyz(math.sin(t0), 0, math.cos(t0))
        n1 = UnitVector.from_xyz(math.sin(t1), 0, math.cos(t1))
        assert tura_value(dicke(n, k), n0, n1).value > -1e-9


def test_cglmp_I_deterministic_tables():
    # B1 = A1 = A2 = B2 = 0 always: terms 1, 3 and 4 score, term 2 does not
    d = 3
    t = np.zeros((d, d))
    t[0, 0] = 1.0
    tables = [t, t, t, t]
    assert abs(cglmp_I(tables, d) - 3.0) < 1e-12


def test_cglmp_I_validation():
    d = 3
    bad = [np.full((d, d), 1.0 / (d * d))] * 3
    with pytest.raises(ValidationError):
        cglmp_I(bad, d)
    unnorm = [np.ones((d, d))] * 4
    with pytest.raises(ValidationError):
        cglmp_I(unnorm, d)
    # CGLMP needs d >= 2, as cglmp_functional and `lhv-bound cglmp` say
    with pytest.raises(ValidationError):
        cglmp_I([np.ones((1, 1))] * 4, 1)
    # tables that do not match d are refused before the d outcome pairs are built
    with pytest.raises(ValidationError):
        cglmp_I([np.ones((1, 1))] * 4, 10 ** 12)


def test_cglmp_I_matches_hand_sum():
    rng = np.random.default_rng(2026)
    for d in range(2, 7):
        for _ in range(20):
            tables = [t / t.sum() for t in rng.uniform(size=(4, d, d))]
            assert abs(cglmp_I(tables, d) - cglmp_I_hand_sum(tables, d)) <= 1e-15, d


def _random_direction(rng):
    return UnitVector.from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))


def test_tura_moments_match_collective_operators():
    # general complex symmetric states and directions off the x-z plane,
    # against the collective operators' products on the symmetric basis
    rng = np.random.default_rng(31)
    for n in (1, 3, 8):
        rep = build_spin_rep(SpinQuantum(n))
        amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        st = SymmetricState(n, amp / np.linalg.norm(amp))
        n0, n1 = _random_direction(rng), _random_direction(rng)
        j0, j1 = rep.component(n0), rep.component(n1)
        ex = lambda m: complex(np.vdot(st.amplitudes, m @ st.amplitudes))
        want = {"S0": 2 * ex(j0).real, "S00": 4 * ex(j0 @ j0).real - n,
                "S11": 4 * ex(j1 @ j1).real - n,
                "S01": 2 * ex(j0 @ j1 + j1 @ j0).real - n * n0.dot(n1),
                "commutator_norm": abs(ex(j0 @ j1 - j1 @ j0))}
        got = tura_value(st, n0, n1)
        assert max(abs(got.extra[k] - v) for k, v in want.items()) < 1e-10
        w = 2 * want["S0"] + want["S01"] + 2 * n + (want["S00"] + want["S11"]) / 2
        assert abs(got.value - w) < 1e-10


def test_mermin_and_quadrature_match_dense_operators():
    rng = np.random.default_rng(32)
    rep, eye = build_spin_rep(SpinQuantum(2)), np.eye(3)
    side_a = lambda u: np.kron(rep.component(u), eye)
    side_b = lambda u: np.kron(eye, rep.component(u))
    for st in (random_pure_state(SpinQuantum(2), SpinQuantum(2), rng), werner(2, -0.3)):
        ex = lambda m: float(np.trace(st.density() @ m).real)
        a, b, c = (_random_direction(rng) for _ in range(3))
        delta = side_a(a) - side_b(b)
        rep_sq = mermin_check(st, a, b, c)
        assert abs(rep_sq.bound - ex((side_a(a) + side_a(b)) @ side_b(c))) < 1e-10
        assert abs(rep_sq.value - ex(delta @ delta)) < 1e-10  # s = 1
        assert abs(mermin_check(st, a, b, c, "literal").value - abs(ex(delta))) < 1e-10
        both = side_a(b) + side_b(b)
        assert abs(rep_sq.extra["premise_gap"] - ex(both @ both)) < 1e-10
        ey = UnitVector(0.0, 1.0, 0.0)
        sx, sy = side_a(EX) + side_b(EX), side_a(ey) + side_b(ey)
        want = 0.25 + ex(sx @ sx) - ex(sx) ** 2 + ex(sy @ sy) - ex(sy) ** 2
        assert abs(cfrd_quadrature_margin(st) - want) < 1e-10
