"""Quantum state catalog and measurement statistics.

Bipartite states live on the |s_A,m_A> x |s_B,m_B> product basis.  Pure
states are stored as d_A x d_B coefficient matrices (so correlators cost
O(d^3)); density matrices are only materialized for genuinely mixed
states (Werner, separable mixtures).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapacityError, DegenerateConditionError, ValidationError
from .spin import (
    DIM_CAP,
    HermitianObservable,
    SpinQuantum,
    UnitVector,
    _spin_images,
    build_spin_rep,
    clebsch_gordan,
    sign_projectors,
    spin_component,
)

MIXED_DIM_CAP = 4096


def _check_dims(kind: str, d_a: int, d_b: int):
    """Refuse a bipartite state over its dimension cap, before anything
    of its size is allocated."""
    if kind == "pure" and max(d_a, d_b) > DIM_CAP:
        raise CapacityError("pure-state dimension cap exceeded")
    if kind == "mixed" and d_a * d_b > MIXED_DIM_CAP:
        raise CapacityError("mixed-state dimension cap exceeded")


@dataclass(frozen=True)
class MeasurementSetting:
    """One subsystem measurement: side, spin direction, zero-bin policy."""

    side: str  # "A" or "B"
    direction: UnitVector
    zero_policy: str = "plus"

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise ValidationError(f"side must be 'A' or 'B', got {self.side!r}")


def _check_density(m: np.ndarray, name: str):
    """Refuse a matrix that is not a density matrix: Hermitian and trace 1 to 1e-10 ("not <="
    refuses NaN too), lambda_min > -1e-10 up to D eps |m|: m + 1e-10 1 has a Cholesky factor."""
    if not np.max(np.abs(m - m.conj().T)) <= 1e-10:
        raise ValidationError(f"{name} not Hermitian")
    tr = float(np.real(np.trace(m)))
    if not abs(tr - 1.0) <= 1e-10:
        raise ValidationError(f"{name} trace {tr} != 1")
    shifted = m.astype(complex)  # a copy
    shifted.flat[::len(m) + 1] += 1e-10
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise ValidationError(f"{name} not positive semidefinite") from None


def _fix_global_phase(array: np.ndarray) -> np.ndarray:
    """Make the first nonzero amplitude (row-major) real and positive."""
    flat = array.ravel()
    idx = np.flatnonzero(np.abs(flat) > 1e-14)
    if len(idx) == 0:
        return array
    ph = flat[idx[0]] / abs(flat[idx[0]])
    return array / ph


@dataclass(frozen=True)
class BipartiteState:
    """Pure (coefficient matrix) or mixed (density matrix) bipartite state."""

    kind: str  # "pure" | "mixed"
    s_a: SpinQuantum
    s_b: SpinQuantum
    psi: np.ndarray | None = None
    rho: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        d_a, d_b = self.s_a.dim, self.s_b.dim
        _check_dims(self.kind, d_a, d_b)
        if self.kind == "pure":
            if self.psi is None or self.psi.shape != (d_a, d_b):
                raise ValidationError("pure state needs a d_A x d_B coefficient matrix")
            norm2 = float(np.sum(np.abs(self.psi) ** 2))
            if not abs(norm2 - 1.0) <= 1e-10:  # "not <=" refuses NaN too
                raise ValidationError(f"pure state not normalized: |psi|^2 = {norm2}")
        elif self.kind == "mixed":
            if self.rho is None or self.rho.shape != (d_a * d_b, d_a * d_b):
                raise ValidationError("mixed state needs a (d_A d_B)^2 density matrix")
            _check_density(self.rho, "density matrix")
        else:
            raise ValidationError(f"unknown state kind {self.kind!r}")

    @property
    def dims(self):
        return self.s_a.dim, self.s_b.dim

    def density(self) -> np.ndarray:
        """Full density matrix (materializes |psi><psi| for pure states)."""
        if self.kind == "mixed":
            return self.rho
        vec = self.psi.ravel()
        return np.outer(vec, vec.conj())

    def reduced(self, side: str) -> np.ndarray:
        """Reduced density matrix of one subsystem."""
        d_a, d_b = self.dims
        if self.kind == "pure":
            if side == "A":
                return self.psi @ self.psi.conj().T
            return self.psi.T @ self.psi.conj()
        return np.einsum("ajbj->ab" if side == "A" else "iaib->ab",
                         self.rho.reshape(d_a, d_b, d_a, d_b))


def expect_product(state: BipartiteState, mat_a: np.ndarray, mat_b: np.ndarray) -> float:
    """<A (x) B> for Hermitian A, B (real part; imaginary part is noise)."""
    d_a, d_b = state.dims
    if mat_a.shape != (d_a, d_a) or mat_b.shape != (d_b, d_b):
        raise ValidationError("observable dimensions do not match the state")
    if state.kind == "pure":
        val = np.vdot(state.psi, mat_a @ state.psi @ mat_b.T)
    else:
        r = state.rho.reshape(d_a, d_b, d_a, d_b)
        val = np.einsum("ac,bd,cdab->", mat_a, mat_b, r)
    return float(np.real(val))


def expect_side(state: BipartiteState, mat: np.ndarray, side: str) -> float:
    """Expectation of a single-subsystem observable."""
    red = state.reduced(side)
    if mat.shape != red.shape:
        raise ValidationError("observable dimension does not match the subsystem")
    return float(np.real(np.trace(red @ mat)))


def as_matrix(obs) -> np.ndarray:
    return obs.matrix if isinstance(obs, HermitianObservable) else np.asarray(obs)


# ---------------------------------------------------------------------------
# constructors


def _record(family: str, **params) -> dict:
    """The report record, `meta`, of every catalog state: {family, params in call order}."""
    return {"family": family, **params}


def _catalog_state(kind: str, s_a: SpinQuantum, s_b: SpinQuantum, array: np.ndarray,
                   family: str, **params) -> BipartiteState:
    """A catalog BipartiteState: array as psi or rho by kind, record ending N_A = 2s_A, N_B = 2s_B."""
    return BipartiteState(kind, s_a, s_b, **{"psi" if kind == "pure" else "rho": array},
                          meta=_record(family, **params, N_A=s_a.two_s, N_B=s_b.two_s))


def maximally_entangled(n: int) -> BipartiteState:
    """sum_m |s,m>_A |s,m>_B / sqrt(n+1) with s = n/2."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    d = n + 1
    _check_dims("pure", d, d)
    sq = SpinQuantum(n)
    return _catalog_state("pure", sq, sq, np.eye(d, dtype=complex) / np.sqrt(d),
                          "maximally_entangled", n=n)


def relative_phase(n: int, theta: float) -> BipartiteState:
    """sum_k exp(i k theta) |n/2,k>_A |n/2,-k>_B / sqrt(n+1)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    d = n + 1
    _check_dims("pure", d, d)
    if not np.isfinite(n * float(theta)):  # bounds every k theta below
        raise ValidationError(f"n * theta is not finite for n = {n}, theta = {theta}")
    k = n / 2.0 - np.arange(d)  # m_A in the basis order m = s ... -s, and m_B = -k
    psi = _fix_global_phase(np.diag(np.exp(1j * k * theta))[:, ::-1] / np.sqrt(d))
    sq = SpinQuantum(n)
    return _catalog_state("pure", sq, sq, psi, "relative_phase", n=n, theta=float(theta))


def flip_operator(d: int) -> np.ndarray:
    """V |k>|l> = |l>|k> on the d x d product space."""
    return np.eye(d * d)[np.arange(d * d).reshape(d, d).T.ravel()]


def werner(n: int, phi: float) -> BipartiteState:
    """Werner state (d^3-d)^{-1} ((d-phi) 1 + (d phi - 1) V), d = n+1."""
    if not -1.0 <= phi <= 1.0:
        raise ValidationError("phi must lie in [-1, 1]")
    if n < 1:
        raise ValidationError("n must be >= 1")
    d = n + 1
    _check_dims("mixed", d, d)
    rho = (((d - phi) * np.eye(d * d) + (d * phi - 1) * flip_operator(d))
           / (d ** 3 - d)).astype(complex)  # one expression: no float temporary outlives it
    sq = SpinQuantum(n)
    return _catalog_state("mixed", sq, sq, rho, "werner", n=n, phi=float(phi))


def angular_momentum_eigenstate(n_a: int, n_b: int, j_total, k_total) -> BipartiteState:
    """Two spins n_A/2, n_B/2 coupled to total (J, K) via Clebsch-Gordan
    coefficients; global phase fixed to first-nonzero-positive."""
    ja, jb = n_a / 2.0, n_b / 2.0
    if not (abs(ja - jb) - 1e-9 <= j_total <= ja + jb + 1e-9):
        raise ValidationError("triangle rule violated")
    if abs(k_total) > j_total + 1e-9:
        raise ValidationError("|K| exceeds J")
    d_a, d_b = n_a + 1, n_b + 1
    _check_dims("pure", d_a, d_b)
    psi = np.zeros((d_a, d_b), dtype=complex)
    for i in range(d_a):
        ma = ja - i
        mb = k_total - ma
        if abs(mb) > jb + 1e-9:
            continue
        j_idx = round(jb - mb)
        psi[i, j_idx] = clebsch_gordan(ja, ma, jb, mb, j_total, k_total)
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        raise ValidationError("state vanishes for these quantum numbers")
    return _catalog_state("pure", SpinQuantum(n_a), SpinQuantum(n_b),
                          _fix_global_phase(psi / norm), "angular_momentum_eigenstate",
                          n_a=n_a, n_b=n_b, j=float(j_total), k=float(k_total))


def singlet(two_s: int) -> BipartiteState:
    """Total-spin-zero state of two spin-s subsystems."""
    return angular_momentum_eigenstate(two_s, two_s, 0, 0)


def rm_weighted(s: SpinQuantum, r) -> BipartiteState:
    """sum_m r_m |s,m>_A |s,m>_B, renormalized."""
    _check_dims("pure", s.dim, s.dim)
    r = np.asarray(r, dtype=complex)
    if r.shape != (s.dim,):
        raise ValidationError(f"weight vector must have length {s.dim}")
    norm = np.linalg.norm(r)
    if norm < 1e-12:
        raise ValidationError("weight vector must not be zero")
    return _catalog_state("pure", s, s, _fix_global_phase(np.diag(r / norm)),
                          "rm_weighted", two_s=s.two_s)


def separable_mixture(components) -> BipartiteState:
    """sum_R P_R rho_R^A (x) rho_R^B from (weight, rho_a, rho_b) triples."""
    if not components:
        raise ValidationError("need at least one component")
    weights = np.array([w for w, _, _ in components], dtype=float)
    if np.any(weights < 0):
        raise ValidationError("weights must be non-negative")
    if not abs(weights.sum() - 1.0) <= 1e-10:
        raise ValidationError(f"weights sum to {weights.sum()}, expected 1")
    d_a = np.asarray(components[0][1]).shape[0]
    d_b = np.asarray(components[0][2]).shape[0]
    _check_dims("mixed", d_a, d_b)
    rho = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for w, ra, rb in components:
        ra, rb = np.asarray(ra, dtype=complex), np.asarray(rb, dtype=complex)
        for name, m in (("A", ra), ("B", rb)):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValidationError(f"factor {name} is not square")
            _check_density(m, f"factor {name}")
        if ra.shape[0] != d_a or rb.shape[0] != d_b:
            raise ValidationError("inconsistent factor dimensions across components")
        rho += w * np.kron(ra, rb)
    return _catalog_state("mixed", SpinQuantum(d_a - 1), SpinQuantum(d_b - 1), rho,
                          "separable_mixture", components=len(components))


@dataclass(frozen=True)
class MultiQubitState:
    """n-party qubit state; amplitude index bits read qubit 0 first,
    bit 0 = spin up."""

    n: int
    amplitudes: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n > 14:
            raise CapacityError("n > 14 qubits not supported")
        if self.amplitudes.shape != (2 ** self.n,):
            raise ValidationError("amplitude vector has wrong length")
        if not abs(np.linalg.norm(self.amplitudes) - 1.0) <= 1e-10:
            raise ValidationError("state not normalized")


def ghz(n: int) -> MultiQubitState:
    """(|up...up> + i |down...down>) / sqrt(2)."""
    if n < 2:
        raise ValidationError("ghz requires n >= 2")
    if n > 14:
        raise CapacityError("ghz requires n <= 14")
    amp = np.zeros(2 ** n, dtype=complex)
    amp[0] = 1 / np.sqrt(2)
    amp[-1] = 1j / np.sqrt(2)
    return MultiQubitState(n, amp, _record("ghz", n=n))


@dataclass(frozen=True)
class SymmetricState:
    """Permutation-symmetric N-atom state in the collective |N/2, M>
    basis, ordered M = N/2 ... -N/2 (length N+1)."""

    n_atoms: int
    amplitudes: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.amplitudes.shape != (self.n_atoms + 1,):
            raise ValidationError("amplitude vector has wrong length")
        if not abs(np.linalg.norm(self.amplitudes) - 1.0) <= 1e-10:
            raise ValidationError("state not normalized")


def dicke(n_atoms: int, k: int) -> SymmetricState:
    """Dicke state with k excitations: |J=N/2, M=k-N/2>."""
    if not 0 <= k <= n_atoms:
        raise ValidationError(f"k must be in 0..{n_atoms}")
    if n_atoms + 1 > DIM_CAP:
        raise CapacityError(f"collective dimension {n_atoms + 1} exceeds cap {DIM_CAP}")
    amp = np.zeros(n_atoms + 1, dtype=complex)
    amp[n_atoms - k] = 1.0  # index of M = k - N/2 in the M = N/2..-N/2 order
    return SymmetricState(n_atoms, amp, _record("dicke", n=n_atoms, k=k))


def random_pure_state(s_a: SpinQuantum, s_b: SpinQuantum, rng) -> BipartiteState:
    """Haar-ish random pure state (Gaussian amplitudes, normalized)."""
    _check_dims("pure", s_a.dim, s_b.dim)
    psi = rng.normal(size=(s_a.dim, s_b.dim)) + 1j * rng.normal(size=(s_a.dim, s_b.dim))
    return _catalog_state("pure", s_a, s_b, _fix_global_phase(psi / np.linalg.norm(psi)),
                          "random_pure")


# ---------------------------------------------------------------------------
# measurement statistics


def correlator(state: BipartiteState, obs_a, obs_b) -> float:
    """<Omega_A (x) Omega_B> = Tr((A (x) B) rho)."""
    return expect_product(state, as_matrix(obs_a), as_matrix(obs_b))


def _column_probabilities(state: BipartiteState, obs_a: HermitianObservable,
                          obs_b: HermitianObservable) -> np.ndarray:
    """P(column k of obs_a, column l of obs_b) = <v_k w_l| rho |v_k w_l>,
    which is |V_a^dagger psi V_b^*|^2 for a pure state."""
    va, vb = obs_a.eigenvectors, obs_b.eigenvectors
    d_a, d_b = state.dims
    if va.shape != (d_a, d_a) or vb.shape != (d_b, d_b):
        raise ValidationError("observable dimensions do not match the state")
    if state.kind == "pure":
        return np.abs(va.conj().T @ state.psi @ vb.conj()) ** 2
    r = state.rho.reshape(d_a, d_b, d_a, d_b)
    return np.einsum("ik,jl,ijmn,mk,nl->kl", va.conj(), vb.conj(), r, va, vb,
                     optimize=True).real


def joint_distribution(state: BipartiteState, obs_a: HermitianObservable,
                       obs_b: HermitianObservable):
    """(alphas, betas, table) with table[i, j] = P(alphas[i], betas[j])."""
    table = obs_a.outcome_masks @ _column_probabilities(state, obs_a, obs_b) @ obs_b.outcome_masks.T
    return obs_a.outcome_spectrum, obs_b.outcome_spectrum, np.clip(table, 0.0, 1.0)


def joint_probability(state: BipartiteState, obs_a: HermitianObservable,
                      obs_b: HermitianObservable, alpha: float, beta: float) -> float:
    """P(alpha, beta) = Tr((Pi_alpha (x) Pi_beta) rho)."""
    table = joint_distribution(state, obs_a, obs_b)[2]
    return float(table[obs_a.outcome_index(alpha), obs_b.outcome_index(beta)])


def outcome_probabilities(rho: np.ndarray, obs: HermitianObservable) -> np.ndarray:
    """P(outcome) in outcome_spectrum order for a one-subsystem density
    matrix: the diagonal of V^dagger rho V summed over each outcome's columns."""
    vecs = obs.eigenvectors
    if vecs.shape != rho.shape:
        raise ValidationError("observable dimension does not match the subsystem")
    return obs.outcome_masks @ np.sum(vecs.conj() * (rho @ vecs), axis=0).real


def marginal_probability(state: BipartiteState, obs: HermitianObservable,
                         outcome: float, side: str) -> float:
    p = outcome_probabilities(state.reduced(side), obs)[obs.outcome_index(outcome)]
    return float(min(max(p, 0.0), 1.0))


def conditioned_state(state: BipartiteState, obs_a: HermitianObservable,
                      alpha: float) -> BipartiteState:
    """State after measuring obs_a on subsystem A with outcome alpha."""
    vecs = obs_a.eigenvectors[:, obs_a.outcome_masks[obs_a.outcome_index(alpha)]]
    proj = vecs @ vecs.conj().T
    pure = state.kind == "pure"
    if pure:
        out = proj @ state.psi
        p = float(np.sum(np.abs(out) ** 2))
    else:  # (P (x) 1) rho (P (x) 1), made exactly Hermitian
        out = np.einsum("ik,kblc,lj->ibjc", proj, state.rho.reshape(*state.dims, *state.dims),
                        proj, optimize=True).reshape(state.rho.shape)
        out = (out + out.conj().T) / 2
        p = float(np.real(np.trace(out)))
    if p <= 1e-14:
        raise DegenerateConditionError(f"outcome {alpha} has probability {p}")
    return replace(state, meta=dict(state.meta, conditioned_on=alpha),
                   **{"psi" if pure else "rho": out / (np.sqrt(p) if pure else p)})


def binned_joint_probability(state: BipartiteState, setting_a: MeasurementSetting,
                             setting_b: MeasurementSetting) -> np.ndarray:
    """2x2 table [[P(+,+), P(+,-)], [P(-,+), P(-,-)]] for sign-binned
    spin measurements along the two settings' directions."""
    if setting_a.side == setting_b.side:
        raise ValidationError("settings must address different subsystems")
    if setting_a.side == "B":
        setting_a, setting_b = setting_b, setting_a
    obs_a = spin_component(build_spin_rep(state.s_a), setting_a.direction)
    obs_b = spin_component(build_spin_rep(state.s_b), setting_b.direction)
    pa_p, pa_m = sign_projectors(obs_a, setting_a.zero_policy)
    pb_p, pb_m = sign_projectors(obs_b, setting_b.zero_policy)
    table = np.array([
        [expect_product(state, pa_p, pb_p), expect_product(state, pa_p, pb_m)],
        [expect_product(state, pa_m, pb_p), expect_product(state, pa_m, pb_m)],
    ])
    return np.clip(table, 0.0, 1.0)


def sign_bin_series(state: BipartiteState) -> tuple:
    """(joint, plus_a, plus_b): the + bins (zero policy "plus") of
    sign-binned spin measurements along the x-z directions
    (sin 2a, 0, cos 2a) as trigonometric series in the angles,

      P(+,+ | a, b) = Re sum_pq joint[p, q] e^{2iap} e^{2ibq},
      P(+ | a) = Re sum_p plus_a[p] e^{2iap}, P(+ | b) from plus_b alike,

    offsets p = -2s_A ... 2s_A and q = -2s_B ... 2s_B, whose phases
    sign_bin_phases gives.

    The + bin at angle a is exp(-2ia S_y) D exp(2ia S_y), D the m >= 0
    projector, and exp(-2ia S_y) = V E(2a) V^dagger with (m, V, .) the
    rotation_basis and E(b) = diag(e^{ibm}).  In the frame
    x = V_A^dagger psi V_B^* (rho alike) the bin is E(2a) H E(2a)^* with
    H = V^dagger D V, whose entry (i, i + p) carries the phase e^{2iap}.
    So joint[p, :] sums the diagonals of M_p * H_B, with
    M_p[j, l] = sum_i x[i, j]^* H_A[i, i + p] x[i + p, l]: one d^3
    product per offset p >= 0, as P is real, and no temporary larger
    than psi or rho."""
    (v_a, h_a), (v_b, h_b) = (_plus_bin_frame(s) for s in (state.s_a, state.s_b))
    plus_a, plus_b = (_diagonal_sums((v.conj().T @ state.reduced(side) @ v).T * h)
                      for side, v, h in (("A", v_a, h_a), ("B", v_b, h_b)))
    d_a, d_b = state.dims
    swap = state.kind == "pure" and d_a < d_b  # then M_p runs over B's offsets, within psi
    if state.kind == "pure":
        x = v_a.conj().T @ state.psi @ v_b.conj()
        if swap:  # joint's formula is symmetric under (x, H_A, H_B) -> (x^T, H_B, H_A)
            x, h_a, h_b = x.T, h_b, h_a
    else:
        def rotate(mat):  # (V_A (x) V_B)^dagger mat, one side at a time
            t = (v_a.conj().T @ mat.reshape(d_a, -1)).reshape(d_a, d_b, -1)
            return (v_b.conj().T @ t).reshape(mat.shape)

        r = rotate(rotate(state.rho).conj().T).conj().T.reshape(d_a, d_b, d_a, d_b)
    d = len(h_a)
    joint = np.empty((2 * d - 1, 2 * len(h_b) - 1), dtype=complex)
    for p in range(d):  # H_A[i, i + p] for i < d - p
        h_p = np.diagonal(h_a, p)
        if state.kind == "pure":
            m_p = (x[:d - p].conj().T * h_p) @ x[p:]
        else:  # r[i + p, l, i, j] stands for x[i + p, l] x[i, j]^*
            m_p = np.tensordot(h_p, r[np.arange(p, d), :, np.arange(d - p), :], 1).T
        joint[d - 1 + p] = _diagonal_sums(m_p * h_b)
    joint[:d - 1] = joint[:d - 1:-1, ::-1].conj()  # P is real: joint[-p, -q] = joint[p, q]^*
    return (joint.T if swap else joint), plus_a, plus_b


def sign_bin_phases(two_s: int, angles) -> np.ndarray:
    """Rows e^{2iap}, p = -2s ... 2s, one per angle a of an array of
    any shape: the phases of sign_bin_series' coefficients."""
    return np.exp(2j * np.multiply.outer(angles, np.arange(-two_s, two_s + 1)))


def _plus_bin_frame(s: SpinQuantum) -> tuple:
    """(V, H = V^dagger D V) of sign_bin_series for one spin."""
    m, v, v_dagger = build_spin_rep(s).rotation_basis
    return v, v_dagger @ ((m >= 0)[:, None] * v)


def _diagonal_sums(mat: np.ndarray) -> np.ndarray:
    """out[q + d - 1] = sum_j mat[j, j + q] for q = 1 - d ... d - 1."""
    d = len(mat)
    offsets = (np.arange(d) - np.arange(d)[:, None]).ravel() + d - 1
    flat = mat.ravel()
    return (np.bincount(offsets, flat.real, 2 * d - 1)
            + 1j * np.bincount(offsets, flat.imag, 2 * d - 1))


def uncertainty_margin(state: BipartiteState, obs_1, obs_2, side: str = "A") -> float:
    """Delta(O1) Delta(O2) - |<M>|/2 with M = -i [O1, O2], both
    observables on the same subsystem.  Non-negative for every quantum
    state; an LHV model violating this breaks the uncertainty principle."""
    m1, m2 = as_matrix(obs_1), as_matrix(obs_2)
    red = state.reduced(side)
    e1, e2, sq1, sq2, em = (float(np.real(np.trace(red @ m)))
                            for m in (m1, m2, m1 @ m1, m2 @ m2, -1j * (m1 @ m2 - m2 @ m1)))
    v1, v2 = sq1 - e1 ** 2, sq2 - e2 ** 2
    return float(np.sqrt(max(v1, 0.0)) * np.sqrt(max(v2, 0.0)) - abs(em) / 2.0)


def spin_moments(state) -> tuple[np.ndarray, np.ndarray]:
    """(mean, second) with mean[k] = <O_k> and second[k, l] = Re <O_k O_l>
    for O = (S^A_x, S^A_y, S^A_z, S^B_x, S^B_y, S^B_z) of a BipartiteState
    (S^A standing for S^A (x) 1) and O = (J_x, J_y, J_z) of a
    SymmetricState, so Re <(u.O)(v.O)> = u^T second v for real u, v.

    A pure state is read through its images O_k psi (spin._spin_images; S^B along psi's
    columns) by blocks of rows: mean = Re <psi, O_k psi>, second = Re <O_k psi, O_l psi>.  A
    mixed one is contracted with each side's dense operators, small as d_A d_B <= 4096."""
    if isinstance(state, SymmetricState):
        psi, images = state.amplitudes, _spin_images(state.amplitudes, state.n_atoms)
    elif state.kind == "pure":
        psi, two_b = state.psi, state.s_b.two_s
        images = (*_spin_images(psi, state.s_a.two_s), *(y.T for y in _spin_images(psi.T, two_b)))
    else:
        ops_a, ops_b = (np.array(_spin_images(np.eye(d), d - 1)) for d in state.dims)
        cross = np.einsum("iac,jbd,cdab->ij", ops_a, ops_b,
                          state.rho.reshape(*state.dims, *state.dims)).real
        (mean_a, aa), (mean_b, bb) = [
            (np.einsum("iab,ba->i", ops, red).real, np.einsum("iab,jba->ij", ops, ops @ red).real)
            for ops, red in ((ops_a, state.reduced("A")), (ops_b, state.reduced("B")))]
        return np.concatenate([mean_a, mean_b]), np.block([[aa, cross], [cross.T, bb]])
    step, parts = max(1, 2 ** 17 // psi[0].size), []  # rows per block: 2 MB of each image
    for rows in (slice(lo, lo + step) for lo in range(0, len(psi), step)):  # no full-size copy
        block = np.reshape([image[rows] for image in images], (len(images), -1))
        parts.append(((block @ psi[rows].ravel().conj()).real, (block.conj() @ block.T).real))
    return tuple(sum(part[1:], part[0]) for part in zip(*parts))  # one block: returned as is


def spin_correlation_matrix(state: BipartiteState) -> np.ndarray:
    """3x3 matrix T[i, j] = <S_i^A (x) S_j^B>; any spin-component
    correlator is then u^T T v."""
    return spin_moments(state)[1][:3, 3:]
