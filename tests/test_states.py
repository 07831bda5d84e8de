import itertools
import math

import numpy as np
import pytest

from bellkit.errors import DegenerateConditionError, ValidationError
from bellkit.spin import SpinQuantum, UnitVector, build_spin_rep, spin_component
from bellkit.states import (
    BipartiteState,
    MeasurementSetting,
    MultiQubitState,
    SymmetricState,
    angular_momentum_eigenstate,
    binned_joint_probability,
    conditioned_state,
    correlator,
    dicke,
    expect_product,
    flip_operator,
    ghz,
    joint_distribution,
    joint_probability,
    marginal_probability,
    maximally_entangled,
    random_pure_state,
    relative_phase,
    rm_weighted,
    separable_mixture,
    singlet,
    spin_correlation_matrix,
    spin_moments,
    uncertainty_margin,
    werner,
)

RNG = np.random.default_rng(2024)


def random_density(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_maximally_entangled():
    for n in (1, 2, 5):
        st = maximally_entangled(n)
        assert st.kind == "pure"
        assert abs(np.sum(np.abs(st.psi) ** 2) - 1.0) < 1e-12
        red = st.reduced("A")
        assert np.max(np.abs(red - np.eye(n + 1) / (n + 1))) < 1e-12


def test_relative_phase():
    st = relative_phase(1, 0.0)
    # (|1/2,1/2>|1/2,-1/2> + |1/2,-1/2>|1/2,1/2>) / sqrt(2)
    want = np.array([[0, 1], [1, 0]]) / math.sqrt(2)
    assert np.max(np.abs(st.psi - want)) < 1e-12
    for n, theta in ((2, 0.4), (5, 2.2)):
        st = relative_phase(n, theta)
        rep = build_spin_rep(SpinQuantum(n))
        val = (expect_product(st, rep.sz, np.eye(n + 1))
               + expect_product(st, np.eye(n + 1), rep.sz))
        assert abs(val) < 1e-12


def test_flip_operator():
    v = flip_operator(3)
    ev = np.linalg.eigvalsh(v)
    assert np.allclose(np.sort(np.abs(ev)), 1.0)
    assert set(np.round(ev).astype(int)) == {-1, 1}


def test_werner_invariants():
    for n in (1, 2, 4):
        for phi in np.linspace(-1, 1, 9):
            st = werner(n, phi)
            assert st.kind == "mixed"
            assert abs(np.trace(st.rho).real - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(st.rho)) > -1e-10
    with pytest.raises(ValidationError):
        werner(2, 1.5)


def test_werner_phi_minus_one_is_singlet():
    st = werner(1, -1.0)
    sg = singlet(1)
    assert np.max(np.abs(st.rho - sg.density())) < 1e-12


def test_angular_momentum_eigenstate():
    st = angular_momentum_eigenstate(1, 1, 0, 0)
    want = np.array([[0, 1], [-1, 0]]) / math.sqrt(2)
    assert min(np.max(np.abs(st.psi - want)), np.max(np.abs(st.psi + want))) < 1e-12
    # eigenstate of the total angular momentum squared
    for (na, nb, j, k) in ((2, 2, 1, 0), (3, 1, 2, 1), (4, 2, 3, -2)):
        st = angular_momentum_eigenstate(na, nb, j, k)
        ra, rb = build_spin_rep(SpinQuantum(na)), build_spin_rep(SpinQuantum(nb))
        da, db = na + 1, nb + 1
        tot = [np.kron(a, np.eye(db)) + np.kron(np.eye(da), b)
               for a, b in ((ra.sx, rb.sx), (ra.sy, rb.sy), (ra.sz, rb.sz))]
        j2 = sum(t @ t for t in tot)
        vec = st.psi.reshape(-1)
        assert np.max(np.abs(j2 @ vec - j * (j + 1) * vec)) < 1e-9
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        angular_momentum_eigenstate(1, 1, 3, 0)


def test_singlet_isotropy():
    # <S_u (x) S_v> = -(u.v) s(s+1)/3 on the two-spin-s singlet
    rng = np.random.default_rng(5)
    for two_s in (1, 2, 3):
        st = singlet(two_s)
        s = two_s / 2.0
        rep = build_spin_rep(SpinQuantum(two_s))
        for _ in range(5):
            u = UnitVector.from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            v = UnitVector.from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            got = expect_product(st, rep.component(u), rep.component(v))
            assert abs(got + u.dot(v) * s * (s + 1) / 3.0) < 1e-10


def test_rm_weighted():
    st = rm_weighted(SpinQuantum(2), [3.0, 0.0, 4.0])
    assert abs(st.psi[0, 0] - 0.6) < 1e-12
    assert abs(st.psi[2, 2] - 0.8) < 1e-12
    assert np.count_nonzero(st.psi) == 2
    with pytest.raises(ValidationError):
        rm_weighted(SpinQuantum(2), [0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        rm_weighted(SpinQuantum(2), [1.0, 2.0])


def test_ghz():
    st = ghz(2)
    want = np.zeros(4, dtype=complex)
    want[0] = 1 / math.sqrt(2)
    want[3] = 1j / math.sqrt(2)
    assert np.max(np.abs(st.amplitudes - want)) < 1e-12
    assert len(ghz(4).amplitudes) == 16
    assert abs(np.linalg.norm(ghz(7).amplitudes) - 1.0) < 1e-12


def test_dicke():
    st = dicke(4, 1)
    assert len(st.amplitudes) == 5
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        dicke(4, 5)


def test_global_phase_convention():
    # every catalog constructor pins the first nonzero amplitude real positive
    for st in (relative_phase(3, 2.0), angular_momentum_eigenstate(2, 2, 1, 0),
               rm_weighted(SpinQuantum(2), [-1.0, 2.0, 0.5]),
               random_pure_state(SpinQuantum(2), SpinQuantum(2), RNG)):
        flat = st.psi.ravel()
        first = flat[np.flatnonzero(np.abs(flat) > 1e-12)[0]]
        assert first.real > 0 and abs(first.imag) < 1e-12


def test_pure_vs_density_path():
    # Tr(Psi^dag A Psi B^T) must agree with the density-matrix einsum
    for _ in range(10):
        sa, sb = SpinQuantum(int(RNG.integers(1, 5))), SpinQuantum(int(RNG.integers(1, 5)))
        st = random_pure_state(sa, sb, RNG)
        mixed = BipartiteState("mixed", sa, sb, rho=st.density(), meta=dict(st.meta))
        a = random_density(sa.dim, RNG) * sa.dim  # just any hermitian matrix
        b = random_density(sb.dim, RNG) * sb.dim
        assert abs(expect_product(st, a, b) - expect_product(mixed, a, b)) < 1e-10


def test_reduced_consistency():
    st = random_pure_state(SpinQuantum(2), SpinQuantum(3), RNG)
    ra, rb = st.reduced("A"), st.reduced("B")
    assert abs(np.trace(ra).real - 1.0) < 1e-12
    assert abs(np.trace(rb).real - 1.0) < 1e-12
    assert np.max(np.abs(ra - st.psi @ st.psi.conj().T)) < 1e-12


def test_joint_distribution_normalization():
    st = random_pure_state(SpinQuantum(2), SpinQuantum(2), RNG)
    rep = build_spin_rep(SpinQuantum(2))
    oa = spin_component(rep, UnitVector.from_angles(0.7, 0.2))
    ob = spin_component(rep, UnitVector.from_angles(1.9, 4.0))
    alphas, betas, table = joint_distribution(st, oa, ob)
    assert abs(table.sum() - 1.0) < 1e-10
    assert table.min() >= 0.0
    # single entries match joint_probability
    assert abs(table[0, 1] - joint_probability(st, oa, ob, alphas[0], betas[1])) < 1e-12


def test_bayes_identity():
    # P(alpha, beta) = P(alpha) P(beta | alpha), conditioning via state collapse
    st = random_pure_state(SpinQuantum(1), SpinQuantum(2), RNG)
    rep_a = build_spin_rep(SpinQuantum(1))
    rep_b = build_spin_rep(SpinQuantum(2))
    oa = spin_component(rep_a, UnitVector.from_angles(0.5, 1.0))
    ob = spin_component(rep_b, UnitVector.from_angles(2.0, 0.3))
    for alpha in oa.outcome_spectrum:
        pa = marginal_probability(st, oa, alpha, "A")
        if pa < 1e-8:
            continue
        cond = conditioned_state(st, oa, alpha)
        for beta in ob.outcome_spectrum:
            joint = joint_probability(st, oa, ob, alpha, beta)
            pb_given = marginal_probability(cond, ob, beta, "B")
            assert abs(joint - pa * pb_given) < 1e-10


def test_conditioning_mixed_state():
    st = werner(2, 0.5)
    rep = build_spin_rep(SpinQuantum(2))
    oa = spin_component(rep, UnitVector(0.0, 0.0, 1.0))
    cond = conditioned_state(st, oa, 1.0)
    assert cond.kind == "mixed"
    assert abs(np.trace(cond.rho).real - 1.0) < 1e-10
    assert marginal_probability(cond, oa, 1.0, "A") > 1 - 1e-10


def test_conditioning_zero_probability_outcome():
    st = BipartiteState("pure", SpinQuantum(1), SpinQuantum(1),
                        psi=np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))
    rep = build_spin_rep(SpinQuantum(1))
    oa = spin_component(rep, UnitVector(0.0, 0.0, 1.0))
    with pytest.raises(DegenerateConditionError):
        conditioned_state(st, oa, 0.5)


def test_binned_joint_probability():
    st = maximally_entangled(2)
    sa = MeasurementSetting("A", UnitVector.from_angles(0.4, 0.0))
    sb = MeasurementSetting("B", UnitVector.from_angles(1.3, 0.0))
    table = binned_joint_probability(st, sa, sb)
    assert table.shape == (2, 2)
    assert abs(table.sum() - 1.0) < 1e-10
    with pytest.raises(ValidationError):
        binned_joint_probability(st, sa, MeasurementSetting("A", sb.direction))


def test_binned_product_state_factorizes():
    rho_a = random_density(3, RNG)
    rho_b = random_density(3, RNG)
    st = separable_mixture([(1.0, rho_a, rho_b)])
    sa = MeasurementSetting("A", UnitVector.from_angles(0.9, 0.1))
    sb = MeasurementSetting("B", UnitVector.from_angles(2.1, 3.0))
    table = binned_joint_probability(st, sa, sb)
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    assert np.max(np.abs(table - np.outer(row, col))) < 1e-10


def test_separable_mixture_validation():
    rho = random_density(2, RNG)
    with pytest.raises(ValidationError):
        separable_mixture([(0.7, rho, rho)])  # weights must sum to 1
    st = separable_mixture([(0.5, rho, rho), (0.5, rho, rho)])
    assert abs(np.trace(st.rho).real - 1.0) < 1e-12


def test_uncertainty_margin_nonnegative():
    for _ in range(20):
        two = int(RNG.integers(1, 5))
        st = random_pure_state(SpinQuantum(two), SpinQuantum(two), RNG)
        rep = build_spin_rep(SpinQuantum(two))
        side = "A" if RNG.random() < 0.5 else "B"
        assert uncertainty_margin(st, rep.sx, rep.sy, side) > -1e-10


def test_spin_correlation_matrix():
    st = random_pure_state(SpinQuantum(2), SpinQuantum(3), RNG)
    t = spin_correlation_matrix(st)
    ra, rb = build_spin_rep(SpinQuantum(2)), build_spin_rep(SpinQuantum(3))
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = UnitVector.from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        v = UnitVector.from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        direct = correlator(st, ra.component(u), rb.component(v))
        assert abs(direct - u.as_array() @ t @ v.as_array()) < 1e-10


def test_state_invariant_validation():
    with pytest.raises(ValidationError):
        BipartiteState("pure", SpinQuantum(1), SpinQuantum(1),
                       psi=np.array([[2.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        BipartiteState("mixed", SpinQuantum(1), SpinQuantum(1),
                       rho=np.diag([0.9, 0.3, -0.1, -0.1]))


def test_non_finite_states_refused():
    # k theta overflows to inf at k = 2, so exp(i k theta) is NaN
    with pytest.raises(ValidationError), np.errstate(invalid="ignore"):
        relative_phase(4, 1e308)
    nan = float("nan")
    with pytest.raises(ValidationError):
        BipartiteState("mixed", SpinQuantum(1), SpinQuantum(1), rho=np.diag([nan, 1.0, 0, 0]))
    with pytest.raises(ValidationError):
        SymmetricState(2, np.array([nan, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        MultiQubitState(1, np.array([nan, 1.0]))
    with pytest.raises(ValidationError):
        separable_mixture([(nan, np.eye(2) / 2, np.eye(2) / 2)])
    with pytest.raises(ValidationError):
        UnitVector(nan, 0.0, 0.0)


def _dense_moments(rho, ops):
    """<O_k> and Re <O_k O_l> as traces against the full density matrix."""
    mean = np.array([np.trace(rho @ o).real for o in ops])
    second = np.array([[np.trace(rho @ o @ p).real for p in ops] for o in ops])
    return mean, second


def test_spin_moments_bipartite_against_kron():
    sa, sb = SpinQuantum(2), SpinQuantum(3)  # s_A = 1, s_B = 3/2
    ra, rb = build_spin_rep(sa), build_spin_rep(sb)
    mix = separable_mixture([(0.3, random_density(3, RNG), random_density(4, RNG)),
                             (0.7, random_density(3, RNG), random_density(4, RNG))])
    for st in (random_pure_state(sa, sb, RNG), mix):
        ops = ([np.kron(o, np.eye(4)) for o in (ra.sx, ra.sy, ra.sz)]
               + [np.kron(np.eye(3), o) for o in (rb.sx, rb.sy, rb.sz)])
        mean, second = spin_moments(st)
        want_mean, want_second = _dense_moments(st.density(), ops)
        assert np.max(np.abs(mean - want_mean)) < 1e-12
        assert np.max(np.abs(second - want_second)) < 1e-12
    rep = build_spin_rep(SpinQuantum(2))
    for phi in (-1.0, -0.3, 0.6):
        st = werner(2, phi)
        ops = ([np.kron(o, np.eye(3)) for o in (rep.sx, rep.sy, rep.sz)]
               + [np.kron(np.eye(3), o) for o in (rep.sx, rep.sy, rep.sz)])
        mean, second = spin_moments(st)
        want_mean, want_second = _dense_moments(st.rho, ops)
        assert np.max(np.abs(mean - want_mean)) < 1e-12
        assert np.max(np.abs(second - want_second)) < 1e-12


def test_spin_moments_symmetric_against_pauli_tensor():
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]]))
    rng = np.random.default_rng(8)
    for n in (1, 2, 5, 8):
        # J_i = sum of sigma_i / 2 over the n sites, on the full 2^n space
        ops = [sum(np.kron(np.kron(np.eye(2 ** i), p), np.eye(2 ** (n - i - 1))) / 2
                   for i in range(n)) for p in paulis]
        # |N/2, M> with M = N/2 - i is the uniform superposition of the
        # basis states with i set bits (each set bit a spin down)
        basis = np.zeros((n + 1, 2 ** n))
        for i in range(n + 1):
            for bits in itertools.combinations(range(n), i):
                basis[i, sum(1 << b for b in bits)] = 1.0
            basis[i] /= np.linalg.norm(basis[i])
        amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        st = SymmetricState(n, amp / np.linalg.norm(amp))
        vec = st.amplitudes @ basis
        mean, second = spin_moments(st)
        want_mean, want_second = _dense_moments(np.outer(vec, vec.conj()), ops)
        assert np.max(np.abs(mean - want_mean)) < 1e-12
        assert np.max(np.abs(second - want_second)) < 1e-12
