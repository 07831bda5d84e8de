"""Reference implementations that tests compare bellkit against, and
the observables they are compared on."""

import itertools

import numpy as np

from bellkit.spin import HermitianObservable


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
