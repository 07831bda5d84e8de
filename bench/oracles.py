"""Independent oracles for the benchmark's output checks.

Everything here is plain numpy on dense operators: spin matrices are
rebuilt from the ladder formula, bipartite expectations are traces
against np.kron products, and the Tura witness on Dicke states uses its
closed form.  Nothing is imported from bellkit, so a defect in the
program cannot also hide in its oracle.
"""

from __future__ import annotations

import math

import numpy as np

def close(got: float, want: float) -> bool:
    """|got - want| <= 1e-9 max(1, |want|)."""
    return abs(float(got) - float(want)) <= 1e-9 * max(1.0, abs(float(want)))


def spin_ops(two_s: int):
    """(S_x, S_y, S_z) in the basis m = s, s-1, ..., -s."""
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)
    raising = np.diag(np.sqrt((s - m[1:]) * (s + m[1:] + 1.0)), k=1).astype(complex)
    lowering = raising.conj().T
    return (raising + lowering) / 2.0, (raising - lowering) / 2j, np.diag(m).astype(complex)


def along(ops, u) -> np.ndarray:
    return u[0] * ops[0] + u[1] * ops[1] + u[2] * ops[2]


def density(psi=None, rho=None) -> np.ndarray:
    """Density matrix on the kron(A, B) index order (a * d_B + b)."""
    if rho is not None:
        return np.asarray(rho, dtype=complex)
    vec = np.asarray(psi, dtype=complex).ravel()
    return np.outer(vec, vec.conj())


def expect(rho: np.ndarray, op: np.ndarray) -> float:
    """Re Tr(rho op) without forming the product."""
    return float(np.real(np.sum(rho * op.T)))


def correlation_matrix(rho: np.ndarray, two_s_a: int, two_s_b: int) -> np.ndarray:
    ops_a, ops_b = spin_ops(two_s_a), spin_ops(two_s_b)
    return np.array([[expect(rho, np.kron(a, b)) for b in ops_b] for a in ops_a])


def chsh_max(rho: np.ndarray, two_s_a: int, two_s_b: int) -> float:
    """Horodecki criterion: max over unit directions of |S| is
    2 sqrt(sigma_1^2 + sigma_2^2), sigma the top singular values of T."""
    sig = np.linalg.svd(correlation_matrix(rho, two_s_a, two_s_b), compute_uv=False)
    return 2.0 * math.sqrt(sig[0] ** 2 + sig[1] ** 2)


def chsh_at(rho: np.ndarray, two_s_a: int, two_s_b: int, u1, u2, v1, v2) -> float:
    ops_a, ops_b = spin_ops(two_s_a), spin_ops(two_s_b)

    def corr(u, v):
        return expect(rho, np.kron(along(ops_a, u), along(ops_b, v)))

    return corr(u1, v1) + corr(u1, v2) + corr(u2, v1) - corr(u2, v2)


def _reid_plus(two_s: int, angle: float) -> np.ndarray:
    """Projector on the outcomes m >= 0 of S_z cos 2a + S_x sin 2a.  The
    spectrum is s, s-1, ..., -s, so the cut at -1/4 sends m = 0 to the
    + bin (the "plus" zero policy) with a gap of 1/4 either side."""
    op = along(spin_ops(two_s), (math.sin(2 * angle), 0.0, math.cos(2 * angle)))
    vals, vecs = np.linalg.eigh(op)
    keep = vecs[:, vals > -0.25]
    return keep @ keep.conj().T


def reid_ratio(rho: np.ndarray, two_s_a: int, two_s_b: int,
               theta: float, theta_star: float, phi: float, phi_star: float) -> float:
    eye_a, eye_b = np.eye(two_s_a + 1), np.eye(two_s_b + 1)

    def p_pp(th, ph):
        return expect(rho, np.kron(_reid_plus(two_s_a, th), _reid_plus(two_s_b, ph)))

    num = (p_pp(theta, phi) - p_pp(theta, phi_star)
           + p_pp(theta_star, phi) + p_pp(theta_star, phi_star))
    den = (expect(rho, np.kron(_reid_plus(two_s_a, theta_star), eye_b))
           + expect(rho, np.kron(eye_a, _reid_plus(two_s_b, phi))))
    return num / den


def tura_dicke(n_atoms: int, k: int, n0, n1) -> float:
    """W = 2 S_0 + S_01 + 2N + (S_00 + S_11)/2 on the Dicke state
    |J = N/2, M = k - N/2>, from <J_z> = M, <J_x> = <J_y> = 0,
    <J_x^2> = <J_y^2> = (J(J+1) - M^2)/2, <J_z^2> = M^2 and vanishing
    symmetrized cross moments."""
    j = n_atoms / 2.0
    m = k - j
    transverse = (j * (j + 1) - m * m) / 2.0

    def second(a, b):  # <(J.a)(J.b) + (J.b)(J.a)> / 2
        return (a[0] * b[0] + a[1] * b[1]) * transverse + a[2] * b[2] * m * m

    s0 = 2.0 * n0[2] * m
    s00 = 4.0 * second(n0, n0) - n_atoms
    s11 = 4.0 * second(n1, n1) - n_atoms
    s01 = 4.0 * second(n0, n1) - n_atoms * float(np.dot(n0, n1))
    return 2.0 * s0 + s01 + 2.0 * n_atoms + 0.5 * (s00 + s11)


def mermin_margin(rho: np.ndarray, two_s: int, a, b, c) -> float:
    """Squared-difference reading: s <(S_Aa - S_Bb)^2> minus
    <S_Aa S_Bc> + <S_Ab S_Bc>, as bellkit defines it."""
    ops = spin_ops(two_s)
    eye = np.eye(two_s + 1)
    ma, mb, mc = along(ops, a), along(ops, b), along(ops, c)
    diff = np.kron(ma, eye) - np.kron(eye, mb)
    lhs = (two_s / 2.0) * expect(rho, diff @ diff)
    rhs = expect(rho, np.kron(ma, mc)) + expect(rho, np.kron(mb, mc))
    return lhs - rhs


def mermin_coplanar(theta: float):
    polar = math.pi / 2 + theta
    return ((math.sin(polar), 0.0, math.cos(polar)),
            (-math.sin(polar), 0.0, math.cos(polar)),
            (0.0, 0.0, 1.0))


def cfrd_margin(rho: np.ndarray, two_s_a: int, two_s_b: int) -> float:
    """Moment inequality with A1, A2 = S_x, S_y and B1, B2 = S_x, S_y."""
    a1, a2, _ = spin_ops(two_s_a)
    b1, b2, _ = spin_ops(two_s_b)
    lhs = expect(rho, np.kron(a1 @ a1 + a2 @ a2, b1 @ b1 + b2 @ b2))
    re_part = expect(rho, np.kron(a1, b1)) + expect(rho, np.kron(a2, b2))
    im_part = expect(rho, np.kron(a2, b1)) - expect(rho, np.kron(a1, b2))
    return lhs - (re_part ** 2 + im_part ** 2)


def cfrd_quadrature(rho: np.ndarray, two_s_a: int, two_s_b: int) -> float:
    """1/4 + Var(S_x) + Var(S_y) of the total spin S = S^A + S^B."""
    ops_a, ops_b = spin_ops(two_s_a), spin_ops(two_s_b)
    eye_a, eye_b = np.eye(two_s_a + 1), np.eye(two_s_b + 1)
    total = 0.25
    for i in (0, 1):
        op = np.kron(ops_a[i], eye_b) + np.kron(eye_a, ops_b[i])
        total += expect(rho, op @ op) - expect(rho, op) ** 2
    return total


def drummond(j_bosons: int, theta: float) -> float:
    g = math.exp(-j_bosons * theta * theta / 2.0)
    g3 = math.exp(-j_bosons * 9.0 * theta * theta / 2.0)
    return 3.0 * g - g3 - 2.0


def mabk_ghz(n: int) -> float:
    """On (|up..up> + i|down..down>)/sqrt 2 the raising product maps the
    second term onto i 2^n |up..up>, so F = 2^(n-1)."""
    return 2.0 ** (n - 1)


def cglmp_i(tables, d: int) -> float:
    """P(A1=B1) + P(B1=A2+1) + P(A2=B1) + P(B2=A1), tables keyed
    (A setting, B setting) in the order P11, P12, P21, P22."""
    p11, p12, p21, _ = (np.asarray(t, dtype=float) for t in tables)
    shift = sum(p21[a, (a + 1) % d] for a in range(d))
    return float(np.trace(p11) + shift + np.trace(p21) + np.trace(p12))


def symmetric_lhv_min(n_atoms: int) -> float:
    """min over per-atom strategies (a0, a1) in {+-1}^2 of
    W = 2P + PQ - R + N + (P^2 + Q^2)/2, enumerated by the count of
    (-,-) atoms and a grid over the (+,+) and (+,-) counts."""
    n = n_atoms
    n_pp, n_pm = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    best = math.inf
    for n_mm in range(n + 1):
        n_mp = n - n_mm - n_pp - n_pm
        ok = n_mp >= 0
        p = n_pp + n_pm - n_mp - n_mm
        q = n_pp - n_pm + n_mp - n_mm
        r = n_pp - n_pm - n_mp + n_mm
        w = 2.0 * p + p * q - r + n + 0.5 * (p ** 2 + q ** 2)
        best = min(best, float(np.min(w[ok])))
    return best
