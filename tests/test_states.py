import itertools
import math
import warnings

import numpy as np
import pytest

from bellkit.errors import CapacityError, DegenerateConditionError, ValidationError
from bellkit.registry import build_state
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
    outcome_probabilities,
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
from reference import degenerate_observable, eigh_projectors

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
    for d in range(1, 7):  # against the entry-by-entry construction
        want = np.zeros((d * d, d * d))
        for k in range(d):
            for l in range(d):
                want[l * d + k, k * d + l] = 1.0
        assert np.array_equal(flip_operator(d), want)


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


def test_outcome_readers_against_kron_projectors():
    # every outcome reader against eigh projectors of the observable's
    # matrix and traces with np.kron: pure and mixed states, unequal
    # spins, degenerate from_matrix observables
    rng = np.random.default_rng(606)
    comps = [(0.35, random_density(3, rng), random_density(4, rng)),
             (0.65, random_density(3, rng), random_density(4, rng))]
    for st in (random_pure_state(SpinQuantum(2), SpinQuantum(3), rng), separable_mixture(comps),
               werner(2, -0.3), maximally_entangled(3)):
        (d_a, d_b), rho = st.dims, st.density()
        rep_a, rep_b = build_spin_rep(st.s_a), build_spin_rep(st.s_b)
        u, v = UnitVector.from_angles(0.7, 2.3), UnitVector.from_angles(2.2, -0.9)
        for oa, ob in ((spin_component(rep_a, u), spin_component(rep_b, v)),
                       (degenerate_observable(d_a, rng), degenerate_observable(d_b, rng)),
                       (spin_component(rep_a, v), degenerate_observable(d_b, rng))):
            ref_a, ref_b = eigh_projectors(oa.matrix), eigh_projectors(ob.matrix)
            alphas, betas, table = joint_distribution(st, oa, ob)
            assert np.max(np.abs(alphas - [lam for lam, _ in ref_a])) < 1e-12
            assert np.max(np.abs(betas - [lam for lam, _ in ref_b])) < 1e-12
            for beta, pb in ref_b:
                want = np.trace(rho @ np.kron(np.eye(d_a), pb)).real
                assert abs(marginal_probability(st, ob, beta, "B") - want) < 1e-12
            for i, (alpha, pa) in enumerate(ref_a):
                big = np.kron(pa, np.eye(d_b))
                p_alpha = np.trace(rho @ big).real
                assert abs(marginal_probability(st, oa, alpha, "A") - p_alpha) < 1e-12
                for j, (beta, pb) in enumerate(ref_b):
                    want = np.trace(rho @ np.kron(pa, pb)).real
                    assert abs(table[i, j] - want) < 1e-12
                    assert abs(joint_probability(st, oa, ob, alpha, beta) - want) < 1e-12
                if p_alpha > 1e-8:
                    cond = conditioned_state(st, oa, alpha)
                    assert cond.kind == st.kind
                    assert np.max(np.abs(cond.density() - big @ rho @ big / p_alpha)) < 1e-12
                else:
                    with pytest.raises(DegenerateConditionError):
                        conditioned_state(st, oa, alpha)
        with pytest.raises(ValidationError):
            joint_probability(st, oa, ob, 0.25, betas[0])  # not an outcome
        with pytest.raises(ValidationError):
            joint_distribution(st, degenerate_observable(d_a + 1, rng), ob)
        with pytest.raises(ValidationError):
            marginal_probability(st, degenerate_observable(d_b + 1, rng), 2.0, "B")


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


def test_conditioning_mixed_state_against_kron():
    # the contraction over rho's (a, b) row index equals the dense
    # (P (x) 1) rho (P (x) 1) / p on seeded mixed states, d <= 4
    rng = np.random.default_rng(31)
    for two_a, two_b in ((1, 1), (1, 3), (2, 1), (3, 2), (3, 3)):
        d_a, d_b = two_a + 1, two_b + 1
        st = separable_mixture([(w, random_density(d_a, rng), random_density(d_b, rng))
                                for w in (0.2, 0.5, 0.3)])
        rep = build_spin_rep(SpinQuantum(two_a))
        oa = spin_component(rep, UnitVector.from_angles(rng.uniform(0, math.pi),
                                                        rng.uniform(0, 2 * math.pi)))
        for alpha in oa.outcome_spectrum:
            vecs = oa.eigenvectors[:, oa.outcome_masks[oa.outcome_index(alpha)]]
            big = np.kron(vecs @ vecs.conj().T, np.eye(d_b))
            want = big @ st.rho @ big
            want /= np.trace(want).real
            assert np.max(np.abs(conditioned_state(st, oa, alpha).rho - want)) < 1e-12
    st = werner(3, -0.3)
    oa = spin_component(build_spin_rep(SpinQuantum(3)), UnitVector.from_angles(0.4, 2.0))
    big = np.kron(oa.eigenvectors[:, :1] @ oa.eigenvectors[:, :1].conj().T, np.eye(4))
    want = big @ st.rho @ big
    got = conditioned_state(st, oa, oa.levels[0]).rho
    assert np.max(np.abs(got - want / np.trace(want).real)) < 1e-12


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
    assert np.array_equal(binned_joint_probability(st, sb, sa), table)  # either order


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


S1 = SpinQuantum(1)
HALF = np.eye(2) / 2
UP = np.diag([1.0, 0.0])


def _smallest_eigenvalue_at(low, d, rng):
    """A Hermitian, trace-1 d x d matrix in a random basis whose smallest eigenvalue is low."""
    levels = np.r_[low, rng.uniform(0.5, 1.0, d - 1)]
    levels[1:] *= (1.0 - low) / levels[1:].sum()
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    m = (q * levels) @ q.conj().T
    return (m + m.conj().T) / 2


def test_positive_semidefinite_boundary():
    # lambda_min > -1e-10 is the rule, for a mixed state and for a factor of a mixture alike
    rng = np.random.default_rng(19)
    for low, refused in ((-2e-10, True), (-5e-11, False)):
        rho, factor = _smallest_eigenvalue_at(low, 4, rng), _smallest_eigenvalue_at(low, 2, rng)
        for m in (rho, factor):
            assert abs(np.linalg.eigvalsh(m)[0] - low) <= 1e-15 and abs(np.trace(m) - 1) <= 1e-15
        for make, name in ((lambda: BipartiteState("mixed", S1, S1, rho=rho), "density matrix"),
                           (lambda: separable_mixture([(1.0, HALF, factor)]), "factor B")):
            if refused:
                with pytest.raises(ValidationError, match=f"{name} not positive semidefinite"):
                    make()
            else:
                make()


def _conditioned_on_impossible_outcome():
    st = separable_mixture([(1.0, UP, HALF)])  # A is spin up
    oa = spin_component(build_spin_rep(S1), UnitVector(0.0, 0.0, 1.0))
    return conditioned_state(st, oa, -0.5)


REFUSALS = {  # (error, message, construction)
    "pure shape": (ValidationError, "coefficient matrix",
                   lambda: BipartiteState("pure", S1, S1, psi=np.ones((2, 3)))),
    "pure missing": (ValidationError, "coefficient matrix",
                     lambda: BipartiteState("pure", S1, S1, rho=np.eye(4) / 4)),
    "mixed shape": (ValidationError, r"needs a \(d_A d_B\)\^2",
                    lambda: BipartiteState("mixed", S1, S1, rho=np.eye(3) / 3)),
    "mixed trace": (ValidationError, "trace 2.0 != 1",
                    lambda: BipartiteState("mixed", S1, S1, rho=np.eye(4) / 2)),
    "mixed Hermitian": (ValidationError, "not Hermitian", lambda: BipartiteState(
        "mixed", S1, S1, rho=np.eye(4) / 4 + np.triu(np.ones((4, 4)), 1) * 0.01)),
    "unknown kind": (ValidationError, "unknown state kind",
                     lambda: BipartiteState("bogus", S1, S1, psi=np.eye(2))),
    "mixed cap": (CapacityError, "mixed-state", lambda: werner(64, 0.0)),  # 65^2 > 4096
    "no components": (ValidationError, "at least one", lambda: separable_mixture([])),
    "negative weight": (ValidationError, "non-negative",
                        lambda: separable_mixture([(-0.5, UP, UP), (1.5, UP, UP)])),
    "factor not square": (ValidationError, "factor A is not square",
                          lambda: separable_mixture([(1.0, np.ones((2, 3)) / 2, UP)])),
    "factor not Hermitian": (ValidationError, "factor B not Hermitian", lambda: separable_mixture(
        [(1.0, UP, np.array([[0.5, 0.3], [0.0, 0.5]]))])),
    "factor trace": (ValidationError, "factor B trace",
                     lambda: separable_mixture([(1.0, UP, np.eye(2))])),
    "factor not PSD": (ValidationError, "factor A not positive",
                       lambda: separable_mixture([(1.0, np.diag([1.5, -0.5]), UP)])),
    "factor size": (ValidationError, "inconsistent factor dimensions",
                    lambda: separable_mixture([(0.5, UP, UP), (0.5, UP, np.eye(3) / 3)])),
    "qubit cap": (CapacityError, "n > 14", lambda: MultiQubitState(15, np.ones(1))),
    "qubit length": (ValidationError, "wrong length",
                     lambda: MultiQubitState(2, np.ones(3) / math.sqrt(3))),
    "symmetric length": (ValidationError, "wrong length",
                         lambda: SymmetricState(2, np.ones(2) / math.sqrt(2))),
    "mixed condition": (DegenerateConditionError, "probability",
                        _conditioned_on_impossible_outcome),
    "werner n": (ValidationError, "n must be", lambda: werner(0, 0.0)),
    "random pure cap": (CapacityError, "pure-state", lambda: random_pure_state(
        SpinQuantum(4097), SpinQuantum(1), None)),  # refused before any draw
    "K above J": (ValidationError, "exceeds J", lambda: angular_momentum_eigenstate(2, 2, 1, 2)),
    "observable size": (ValidationError, "dimensions do not match",
                        lambda: expect_product(maximally_entangled(1), np.eye(3), np.eye(2))),
    "setting side": (ValidationError, "side must be",
                     lambda: MeasurementSetting("C", UnitVector(0.0, 0.0, 1.0))),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    error, message, make = REFUSALS[case]
    with pytest.raises(error, match=message):
        make()


CATALOG_META = [  # the fuzz test's bipartite states, built as the CLI builds them
    ("maximally_entangled", {"n": 1}, {"family": "maximally_entangled", "n": 1,
                                       "N_A": 1, "N_B": 1}),
    ("relative_phase", {"n": 2, "theta": 0.4}, {"family": "relative_phase", "n": 2,
                                                "theta": 0.4, "N_A": 2, "N_B": 2}),
    ("werner", {"n": 1, "phi": -0.5}, {"family": "werner", "n": 1, "phi": -0.5,
                                       "N_A": 1, "N_B": 1}),
    ("angular_momentum_eigenstate", {"n_a": 2, "n_b": 2, "j": 1, "k": 0},
     {"family": "angular_momentum_eigenstate", "n_a": 2, "n_b": 2, "j": 1.0, "k": 0.0,
      "N_A": 2, "N_B": 2}),
    ("singlet", {"two_s": 2}, {"family": "angular_momentum_eigenstate", "n_a": 2, "n_b": 2,
                               "j": 0.0, "k": 0.0, "N_A": 2, "N_B": 2}),
    ("rm_weighted", {"two_s": 1, "r": [1, 0.5]}, {"family": "rm_weighted", "two_s": 1,
                                                  "N_A": 1, "N_B": 1}),
    ("separable_mixture", {"components": [
        {"weight": 0.5, "rho_a": [[1, 0], [0, 0]], "rho_b": [[0.5, 0.5], [0.5, 0.5]]},
        {"weight": 0.5, "rho_a": [[0.5, 0], [0, 0.5]], "rho_b": [[0, 0], [0, 1]]}]},
     {"family": "separable_mixture", "components": 2, "N_A": 1, "N_B": 1}),
]


@pytest.mark.parametrize("family, params, meta", CATALOG_META)
def test_catalog_meta(family, params, meta):
    # keys, their order, values and value types; conditioning appends one key
    st = build_state(family, params)
    assert [(k, v, type(v)) for k, v in st.meta.items()] == [
        (k, v, type(v)) for k, v in meta.items()]
    oa = spin_component(build_spin_rep(st.s_a), UnitVector(0.0, 0.0, 1.0))
    alpha = oa.outcome_spectrum[int(np.argmax(outcome_probabilities(st.reduced("A"), oa)))]
    assert conditioned_state(st, oa, alpha).meta == dict(meta, conditioned_on=alpha)


def test_random_pure_meta():
    st = random_pure_state(SpinQuantum(2), SpinQuantum(3), RNG)
    assert list(st.meta.items()) == [("family", "random_pure"), ("N_A", 2), ("N_B", 3)]


def test_non_finite_states_refused():
    # n theta overflows: refused before any exp(i k theta) is formed, so
    # without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (1e308, float("inf"), float("nan")):
            with pytest.raises(ValidationError):
                relative_phase(4, theta)
        relative_phase(1, 1e308)  # k theta = +-5e307 is finite
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


def test_spin_moments_symmetric_against_collective_rep():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 50, 400):
        rep = build_spin_rep(SpinQuantum(n))
        amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        st = SymmetricState(n, amp / np.linalg.norm(amp))
        mean, second = spin_moments(st)
        want_mean, want_second = _dense_moments(np.outer(st.amplitudes, st.amplitudes.conj()),
                                                (rep.sx, rep.sy, rep.sz))
        assert np.max(np.abs(mean - want_mean)) < 1e-13 * n
        assert np.max(np.abs(second - want_second)) < 1e-13 * n * n
    with pytest.raises(ValidationError):
        spin_moments(SymmetricState(0, np.ones(1)))


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
