import math

import numpy as np
import pytest

from bellkit import spin
from bellkit.errors import CapacityError, ValidationError
from bellkit.functionals import reid_ratio
from bellkit.spin import (
    DIM_CAP,
    ZERO_POLICIES,
    HermitianObservable,
    SpinQuantum,
    UnitVector,
    build_spin_rep,
    clebsch_gordan,
    sign_projectors,
    spin_component,
)
from bellkit.states import maximally_entangled, werner
from reference import eigh_projectors


def cg_oracle_table(j1, j2, J):
    """Independent Clebsch-Gordan oracle: diagonalize nothing, instead
    build |J,J> in the product basis from the J+ kernel and walk down
    with the total lowering operator.  Returns dict (m1, m2, M) -> value.
    """
    d1, d2 = int(2 * j1 + 1), int(2 * j2 + 1)

    def ladder(j, sign):
        d = int(2 * j + 1)
        m = j - np.arange(d)
        op = np.zeros((d, d))
        for k in range(d):
            mk = m[k]
            if sign > 0 and k > 0:
                op[k - 1, k] = math.sqrt(j * (j + 1) - mk * (mk + 1))
            if sign < 0 and k < d - 1:
                op[k + 1, k] = math.sqrt(j * (j + 1) - mk * (mk - 1))
        return op

    jp = np.kron(ladder(j1, +1), np.eye(d2)) + np.kron(np.eye(d1), ladder(j2, +1))
    jm = np.kron(ladder(j1, -1), np.eye(d2)) + np.kron(np.eye(d1), ladder(j2, -1))
    jz = np.kron(np.diag(j1 - np.arange(d1)), np.eye(d2)) \
        + np.kron(np.eye(d1), np.diag(j2 - np.arange(d2)))

    # highest-weight vector: J+ v = 0 within the M = J eigenspace
    mask = np.abs(np.diag(jz) - J) < 1e-9
    sub = np.flatnonzero(mask)
    a = jp[:, sub]
    _, _, vh = np.linalg.svd(a)
    v = np.zeros(d1 * d2)
    v[sub] = vh[-1]
    # Condon-Shortley: <j1, j1; j2, J - j1 | J J> > 0
    i1 = 0  # m1 = j1 row
    i2 = int(round(j2 - (J - j1)))
    if 0 <= i2 < d2 and v[i1 * d2 + i2] < 0:
        v = -v
    table = {}
    M = J
    while True:
        for i in range(d1 * d2):
            if abs(v[i]) > 1e-13:
                m1 = j1 - (i // d2)
                m2 = j2 - (i % d2)
                table[(m1, m2, M)] = v[i]
        if M <= -J + 1e-9:
            break
        v = jm @ v / math.sqrt(J * (J + 1) - M * (M - 1))
        M -= 1
    return table


def test_spin_quantum_dim():
    assert SpinQuantum(1).dim == 2
    assert SpinQuantum(1).s == 0.5
    assert SpinQuantum(4).dim == 5
    with pytest.raises(ValidationError):
        SpinQuantum(-1)


def test_defining_representation():
    rep = build_spin_rep(SpinQuantum(1))
    assert np.allclose(rep.sz, np.diag([0.5, -0.5]))
    assert np.allclose(rep.sx, np.array([[0, 0.5], [0.5, 0]]))


def test_algebra_invariants():
    for two_s in (1, 2, 3, 7, 16, 33, 64):
        rep = build_spin_rep(SpinQuantum(two_s))
        s = two_s / 2.0
        for a, b, c in ((rep.sx, rep.sy, rep.sz), (rep.sy, rep.sz, rep.sx),
                        (rep.sz, rep.sx, rep.sy)):
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12
        casimir = rep.sx @ rep.sx + rep.sy @ rep.sy + rep.sz @ rep.sz
        assert np.max(np.abs(casimir - s * (s + 1) * np.eye(rep.dim))) < 1e-12
        assert np.allclose(np.diag(rep.sz), s - np.arange(two_s + 1))
        for m in (rep.sx, rep.sy, rep.sz):
            assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_spin_rep_bit_identical_to_ladder_loop():
    for two_s in range(1, 65):
        s = two_s / 2.0
        d = two_s + 1
        m = s - np.arange(d)
        sp = np.zeros((d, d), dtype=complex)
        for i in range(1, d):
            sp[i - 1, i] = math.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
        sm = sp.conj().T
        rep = build_spin_rep(SpinQuantum(two_s))
        for got, want in ((rep.sx, (sp + sm) / 2.0), (rep.sy, (sp - sm) / 2j),
                          (rep.sz, np.diag(m).astype(complex))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_dimension_cap():
    with pytest.raises(CapacityError):
        build_spin_rep(SpinQuantum(2 * 4097))


def test_unit_vector():
    u = UnitVector.from_xyz(1.0, 2.0, 2.0)
    assert abs(np.linalg.norm(u.as_array()) - 1.0) < 1e-12
    v = UnitVector.from_angles(0.3, 1.1)
    assert abs(np.linalg.norm(v.as_array()) - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        UnitVector(1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        UnitVector.from_xyz(0.0, 0.0, 0.0)


def test_spin_component_axis_and_spectrum():
    rep = build_spin_rep(SpinQuantum(3))
    obs = spin_component(rep, UnitVector(0.0, 0.0, 1.0))
    assert np.allclose(obs.matrix, rep.sz)
    assert np.allclose(obs.outcome_spectrum, [-1.5, -0.5, 0.5, 1.5])
    tilted = spin_component(rep, UnitVector.from_angles(1.0, 2.0))
    assert np.allclose(tilted.outcome_spectrum, [-1.5, -0.5, 0.5, 1.5], atol=1e-10)


def column_projectors(obs):
    """[(level, projector), ...] from the observable's own columns and
    outcome grouping."""
    vecs = obs.eigenvectors
    return [(lam, vecs[:, cols] @ vecs[:, cols].conj().T)
            for lam, cols in zip(obs.outcome_spectrum, obs.outcome_masks)]


def test_observable_projectors():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (a + a.conj().T) / 2
        obs = HermitianObservable.from_matrix(h)
        total = sum(p for _, p in column_projectors(obs))
        assert np.max(np.abs(total - np.eye(6))) < 1e-10
        recon = sum(lam * p for lam, p in column_projectors(obs))
        assert np.max(np.abs(recon - h)) < 1e-10
        for lam, p in column_projectors(obs):
            assert np.max(np.abs(p @ p - p)) < 1e-10


def test_degenerate_eigenvalues_grouped():
    obs = HermitianObservable.from_matrix(np.diag([1.0, 1.0, -1.0]))
    assert len(column_projectors(obs)) == 2
    ranks = sorted(int(round(np.trace(p).real)) for _, p in column_projectors(obs))
    assert ranks == [1, 2]
    # the outcome lookup tolerates 1e-8 and refuses anything else
    assert obs.outcome_index(1.0 + 1e-9) == 1 and obs.outcome_index(-1.0) == 0
    with pytest.raises(ValidationError):
        obs.outcome_index(0.5)
    # the vectorised lookup: the first outcome within 1e-8 of each value
    got = spin.outcome_indices((0.0, 1.0, 1.0 + 5e-9, 2.0), [2.0, 1.0 + 9e-9, 0.0, 1.0])
    assert got.tolist() == [3, 1, 0, 1]
    with pytest.raises(ValidationError, match="outcome 3.0"):
        spin.outcome_indices((0.0, 1.0), [1.0, 3.0])


def test_sign_projectors_policies():
    rep = build_spin_rep(SpinQuantum(2))  # s = 1, has a zero outcome
    obs = spin_component(rep, UnitVector(0.0, 0.0, 1.0))
    plus, minus = sign_projectors(obs, "plus")
    assert int(round(np.trace(plus).real)) == 2
    assert int(round(np.trace(minus).real)) == 1
    assert np.max(np.abs(plus + minus - np.eye(3))) < 1e-10
    plus, minus = sign_projectors(obs, "minus")
    assert int(round(np.trace(plus).real)) == 1
    plus, minus = sign_projectors(obs, "exclude")
    assert int(round(np.trace(plus + minus).real)) == 2
    with pytest.raises(ValidationError):
        sign_projectors(obs, "bogus")


def _tolerance_sign_projectors(ref, zero_policy):
    """Reference bins from eigh_projectors: an eigenvalue within 1e-9 of
    the spectral norm of zero is the zero outcome."""
    ztol = 1e-9 * max(max(abs(lam) for lam, _ in ref), 1e-3)
    plus = sum(p for lam, p in ref
               if lam > ztol or (abs(lam) <= ztol and zero_policy == "plus"))
    minus = sum(p for lam, p in ref
                if lam < -ztol or (abs(lam) <= ztol and zero_policy == "minus"))
    return plus, minus


ROTATION_DIRECTIONS = [
    UnitVector(0.0, 0.0, 1.0), UnitVector(0.0, 0.0, -1.0),  # the poles
    UnitVector(1.0, 0.0, 0.0), UnitVector(-1.0, 0.0, 0.0),
    UnitVector.from_angles(0.7, 0.0), UnitVector.from_angles(2.5, math.pi),  # x-z plane
    UnitVector(0.0, 1.0, 0.0), UnitVector(0.0, -1.0, 0.0),
    UnitVector.from_angles(1.1, 0.4), UnitVector.from_angles(2.9, -2.2),  # u_y != 0
    UnitVector(-0.6, -0.0, 0.8),  # azimuth -pi
]


@pytest.mark.parametrize("two_s", [*range(1, 9), 20, 101])
def test_rotated_spin_component_against_eigh(two_s):
    # checks the shared observable and projectors, as a second call returns them
    rep = build_spin_rep(SpinQuantum(two_s))
    m = np.arange(two_s + 1) - two_s / 2.0
    for u in ROTATION_DIRECTIONS:
        obs = spin_component(rep, u)
        assert spin_component(rep, u) is obs
        ref = eigh_projectors(rep.component(u))
        assert np.array_equal(obs.levels, m)
        assert np.array_equal(obs.outcome_spectrum, m)
        ref_levels = np.array([lam for lam, _ in ref])
        assert np.max(np.abs(obs.outcome_spectrum - ref_levels)) < 1e-12 * two_s
        vecs = obs.eigenvectors
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(two_s + 1))) < 1e-12
        assert np.max(np.abs(rep.component(u) @ vecs - vecs * m)) < 1e-12 * two_s
        for (lam, p), (ref_lam, ref_p) in zip(column_projectors(obs), ref):
            assert abs(lam - ref_lam) < 1e-12 * two_s
            assert np.max(np.abs(p - ref_p)) < 1e-12
        for policy in ZERO_POLICIES:
            bins = sign_projectors(obs, policy)
            assert sign_projectors(obs, policy) is bins
            plus, minus = bins
            ref_plus, ref_minus = _tolerance_sign_projectors(ref, policy)
            assert np.max(np.abs(plus - ref_plus)) < 1e-12
            assert np.max(np.abs(minus - ref_minus)) < 1e-12
            if policy != "exclude":
                assert np.max(np.abs(plus + minus - np.eye(two_s + 1))) < 1e-12
            else:
                # the bins miss exactly the m = 0 eigenvector of an integer spin
                rest = np.eye(two_s + 1) - plus - minus
                zero = next(p for lam, p in ref if abs(lam) < 0.5) if two_s % 2 == 0 else 0.0
                assert np.max(np.abs(rest - zero)) < 1e-12
                assert int(round(np.trace(rest).real)) == (two_s % 2 == 0)


def _clear_spin_caches():
    spin._spin_rep.cache_clear()
    spin._component.cache_clear()


def test_spin_caches_share_read_only_arrays():
    rep = build_spin_rep(SpinQuantum(4))
    assert build_spin_rep(SpinQuantum(np.int64(4))) is rep
    u = UnitVector(-0.6, 0.0, 0.8)
    obs = spin_component(rep, u)
    assert spin_component(rep, UnitVector(-0.6, 0.0, 0.8)) is obs
    # -0.0 and 0.0 are keyed apart: atan2 gives them azimuths -pi and pi
    twin = spin_component(rep, UnitVector(-0.6, -0.0, 0.8))
    assert twin is not obs and not np.array_equal(twin.eigenvectors, obs.eigenvectors)
    plus, minus = sign_projectors(obs, "exclude")
    assert sign_projectors(obs, "exclude")[0] is plus
    for array in (rep.sx, rep.sy, rep.sz, *rep.rotation_basis, obs.matrix, obs.eigenvectors,
                  obs.levels, plus, minus):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
    # the checks still run on every call
    with pytest.raises(CapacityError):
        build_spin_rep(SpinQuantum(DIM_CAP))  # dimension DIM_CAP + 1, refused before allocating
    with pytest.raises(ValidationError):
        build_spin_rep(SpinQuantum(0))


REID_CASES = [(maximally_entangled(3), (0.3, 2.0, 1.1, 2.4), "plus"),
              (werner(3, -0.4), (2.2, 0.9, 1.3, 2.5), "minus"),
              (werner(2, -0.7), (0.2, 2.1, 2.6, 1.0), "exclude")]


def _reid_reports():
    return repr([reid_ratio(st, *angles, zero_policy=policy).to_dict()
                 for st, angles, policy in REID_CASES])


def test_reid_ratio_bit_identical_cold_and_warm():
    _clear_spin_caches()
    cold = _reid_reports()
    _clear_spin_caches()
    # warm with other spins and directions, and with the -0.0 twin of
    # every Reid direction (u_x < 0 for most of these angles, so the
    # twin's azimuth is -pi instead of pi); compare after each spin
    twins = [UnitVector(math.sin(2 * a), -0.0, math.cos(2 * a))
             for _, angles, _ in REID_CASES for a in angles]
    for two_s in range(1, 7):
        rep = build_spin_rep(SpinQuantum(two_s))
        for u in ROTATION_DIRECTIONS[:4] + twins:
            for policy in ZERO_POLICIES:
                sign_projectors(spin_component(rep, u), policy)
        assert _reid_reports() == cold


def test_spin_caches_are_bounded():
    _clear_spin_caches()
    held = []
    for two_s in range(1, 21):
        rep = build_spin_rep(SpinQuantum(two_s))
        for u in ROTATION_DIRECTIONS[:3]:
            obs = spin_component(rep, u)
            for policy in ZERO_POLICIES:
                sign_projectors(obs, policy)
            held.append(obs)
    for cache in (spin._spin_rep, spin._component):
        assert cache.cache_info().currsize == spin._EIGENBASIS_CACHE
    assert max(len(obs.sign_bins) for obs in held) == len(ZERO_POLICIES)


def test_clebsch_selection_rules():
    assert clebsch_gordan(1, 0, 1, 0, 2, 1) == 0.0
    assert clebsch_gordan(1, 1, 1, 0, 2, 0) == 0.0
    with pytest.raises(ValidationError):
        clebsch_gordan(1, 2, 1, 0, 2, 2)  # |m| > j
    assert clebsch_gordan(1, 0, 1, 0, 5, 0) == 0.0  # triangle rule
    with pytest.raises(ValidationError):
        clebsch_gordan(0.3, 0.3, 1, 0, 1, 0.3)  # not half-integer


def test_clebsch_known_values():
    assert abs(clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) - 1 / math.sqrt(2)) < 1e-14
    assert abs(clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) + 1 / math.sqrt(2)) < 1e-14
    assert abs(clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 1) - 1.0) < 1e-14
    assert abs(clebsch_gordan(1, 0, 1, 0, 2, 0) - math.sqrt(2.0 / 3.0)) < 1e-14


def test_clebsch_against_ladder_oracle():
    js = (0.5, 1, 1.5, 2)
    for j1 in js:
        for j2 in js:
            J = abs(j1 - j2)
            while J <= j1 + j2 + 1e-9:
                table = cg_oracle_table(j1, j2, J)
                for (m1, m2, M), want in table.items():
                    got = clebsch_gordan(j1, m1, j2, m2, J, M)
                    assert abs(got - want) < 1e-10, (j1, m1, j2, m2, J, M)
                J += 1


def test_clebsch_orthonormality():
    # sum over (m1, m2) of C^2 at fixed (J, M) is 1
    j1, j2 = 1.5, 2
    for J in (0.5, 1.5, 2.5, 3.5):
        for M in np.arange(-J, J + 1):
            total = 0.0
            for m1 in np.arange(-j1, j1 + 1):
                m2 = M - m1
                if abs(m2) <= j2 + 1e-9:
                    total += clebsch_gordan(j1, m1, j2, m2, J, M) ** 2
            assert abs(total - 1.0) < 1e-12
