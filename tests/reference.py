"""Reference implementations that tests compare bellkit against, and
the observables they are compared on."""

import itertools
import math

import numpy as np

from bellkit.search import pattern_search_max
from bellkit.spin import HermitianObservable, SpinQuantum, build_spin_rep
from bellkit.states import spin_moments


def symmetric_lhv_min_bruteforce(n_atoms: int):
    """4^N brute force over independent per-atom strategies."""
    best = None
    for combo in itertools.product(((1, 1), (1, -1), (-1, 1), (-1, -1)), repeat=n_atoms):
        p = sum(a0 for a0, _ in combo)
        q = sum(a1 for _, a1 in combo)
        r = sum(a0 * a1 for a0, a1 in combo)
        w = 2 * p + p * q - r + n_atoms + (p ** 2 + q ** 2) / 2.0
        if best is None or w < best:
            best = w
    return best


def cglmp_I_hand_sum(tables, d):
    """P(A1=B1) + P(B1=A2+1) + P(A2=B1) + P(B2=A1) summed by hand from
    tables = (P11, P12, P21, P22), each P[j, l] = P(A=j, B=l)."""
    p11, p12, p21, _p22 = (np.asarray(t, dtype=float) for t in tables)
    same = float(np.trace(p11))                                # P(A1 = B1)
    shift = float(sum(p21[k, (k + 1) % d] for k in range(d)))  # P(B1 = A2+1)
    same21 = float(np.trace(p21))                              # P(A2 = B1)
    same12 = float(np.trace(p12))                              # P(B2 = A1)
    return same + shift + same21 + same12


def eigh_projectors(matrix):
    """[(level, projector), ...] ascending, from a dense eigh of `matrix`;
    eigenvalues within 1e-9 of the spectral norm form one level, their
    mean, as in HermitianObservable.from_matrix."""
    evals, evecs = np.linalg.eigh(matrix)
    tol = 1e-9 * max(float(np.max(np.abs(evals))), 1e-3)
    groups = [[0]]
    for k in range(1, len(evals)):
        if evals[k] - evals[groups[-1][0]] <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return [(float(np.mean(evals[g])), evecs[:, g] @ evecs[:, g].conj().T) for g in groups]


def degenerate_observable(d, rng):
    """`from_matrix` observable in a random basis with levels 2, -1, 2,
    0.5, -1, 2, ..., so level 2 is degenerate from d = 3 on."""
    basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    levels = np.resize([2.0, -1.0, 2.0, 0.5, -1.0], d)
    return HermitianObservable.from_matrix(basis @ np.diag(levels) @ basis.conj().T)


def dense_plus_bin(two_s, angle, zero_policy="plus"):
    """Pi_+ of S_z cos(2 angle) + S_x sin(2 angle) from its eigh, with the
    zero eigenvalue found by tolerance."""
    rep = build_spin_rep(SpinQuantum(two_s))
    evals, evecs = np.linalg.eigh(np.cos(2 * angle) * rep.sz + np.sin(2 * angle) * rep.sx)
    keep = (evals > 1e-9) | ((np.abs(evals) <= 1e-9) & (zero_policy == "plus"))
    return evecs[:, keep] @ evecs[:, keep].conj().T


def dense_reid_ratio_maximally_entangled(n, angles, zero_policy="plus"):
    """The Reid ratio of maximally_entangled(n) at angles (theta, theta*,
    phi, phi*) from dense_plus_bin: psi = 1/sqrt(d), so
    P(+,+) = Tr(Pa Pb^T) / d and both marginals are Tr(P) / d."""
    theta, theta_star, phi, phi_star = angles
    plus = {a: dense_plus_bin(n, a, zero_policy) for a in angles}

    def p_pp(a, b):
        return np.trace(plus[a] @ plus[b].T).real / (n + 1)

    num = p_pp(theta, phi) - p_pp(theta, phi_star) + p_pp(theta_star, phi) \
        + p_pp(theta_star, phi_star)
    return num / ((np.trace(plus[theta_star]).real + np.trace(plus[phi]).real) / (n + 1))


def pattern_search_max_one_at_a_time(f, x0, step, tolerance, max_evals):
    """bellkit.search.pattern_search_max as it was before sweeps were
    scored in batches: one call of the point objective f per trial."""
    x = np.array(x0, dtype=float)
    fx = f(x)
    evals = 1
    while step > tolerance and evals < max_evals:
        improved = False
        for i in range(len(x)):
            for sgn in (1.0, -1.0):
                trial = x.copy()
                trial[i] += sgn * step
                ft = f(trial)
                evals += 1
                if ft > fx:
                    x, fx = trial, ft
                    improved = True
                if evals >= max_evals:
                    break
            if evals >= max_evals:
                break
        if not improved:
            step /= 2.0
    return x, fx, evals


def multi_start_max_searching_every_start(problem, config):
    """bellkit.search.multi_start_max with restart 0 always searched, also where its start
    already reaches the stop: the pattern search from each start, best kept, stopped at
    `problem.stop`."""
    best_x, best_f = None, -math.inf
    for k in range(config.restarts):
        rng = np.random.default_rng([config.seed, k])
        x0 = (problem.start if k == 0 and problem.start is not None
              else np.array([rng.uniform(lo, hi) for lo, hi in problem.ranges]))
        x, f, _ = pattern_search_max(problem.objective, x0, config.initial_step,
                                     config.tolerance, config.max_evals_per_restart)
        if f > best_f:
            best_x, best_f = x, f
        if best_f >= problem.stop:
            break
    return best_x, best_f


def mermin_abc_objective(state):
    """The Mermin search objective over all three directions, as it was before c was taken
    in closed form: -margin of the squared_difference reading where the premise gap is at
    most 1e-9 max(1, s^2), else -(4s^3 + 2s^2 + 1) - gap.  Maps a (k, 3, 3) stack of rows
    (a, b, c) to k values through symmetric 10 x 10 forms F[0..2] with
    (lhs, rhs, premise gap) = v^T F v at v = (a, b, c, 1)."""
    s = state.s_a.s
    second = spin_moments(state)[1]
    aa, ab, bb = second[:3, :3], second[:3, 3:], second[3:, 3:]
    f = np.zeros((3, 10, 10))
    f[0, :3, :3], f[0, 3:6, 3:6] = s * aa, s * bb
    f[0, :3, 3:6], f[0, 3:6, :3] = -s * ab, -s * ab.T
    f[1, :3, 6:9] = f[1, 3:6, 6:9] = 0.5 * ab
    f[1, 6:9, :3] = f[1, 6:9, 3:6] = 0.5 * ab.T
    f[2, 3:6, 3:6] = aa + ab + ab.T + bb
    tol, floor = 1e-9 * max(1.0, s * s), 4 * s ** 3 + 2 * s ** 2 + 1

    def objective(d):
        v = np.concatenate([d.reshape(len(d), 9), np.ones((len(d), 1))], axis=1)
        lhs, rhs, gap = np.einsum("...i,...i->...", v @ f, v)
        return np.where(gap > tol, -floor - gap, rhs - lhs)

    return objective
