"""Exact spin-s operator algebra.

Spin matrices in the |s,m> basis (m = s, s-1, ..., -s), components along
arbitrary unit directions, sign-bin projectors, and Clebsch-Gordan
coefficients in the Condon-Shortley convention.  hbar = 1 throughout, so
measurement outcomes are the m-values themselves.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CapacityError, ValidationError

DIM_CAP = 4097
_EIGENBASIS_CACHE = 8  # entries of each cache below: spin reps, and components per (spin, u)

ZERO_POLICIES = ("plus", "minus", "exclude")


@dataclass(frozen=True)
class SpinQuantum:
    """Spin quantum number, stored as 2s so half-integers stay exact."""

    two_s: int

    def __post_init__(self):
        if not isinstance(self.two_s, (int, np.integer)) or self.two_s < 0:
            raise ValidationError(f"two_s must be a non-negative integer, got {self.two_s!r}")

    @property
    def s(self) -> float:
        return self.two_s / 2.0

    @property
    def dim(self) -> int:
        return self.two_s + 1


@dataclass(frozen=True)
class UnitVector:
    """Real 3-vector of unit length (tolerance 1e-12 on the norm)."""

    ux: float
    uy: float
    uz: float

    def __post_init__(self):
        n2 = self.ux ** 2 + self.uy ** 2 + self.uz ** 2
        if not abs(n2 - 1.0) <= 1e-12:  # "not <=" refuses NaN too
            raise ValidationError(f"not a unit vector: |u|^2 = {n2!r}")

    @classmethod
    def from_xyz(cls, x, y, z) -> "UnitVector":
        """Normalize (x, y, z) and return the unit vector."""
        n = math.sqrt(x * x + y * y + z * z)
        if n < 1e-300:
            raise ValidationError("cannot normalize the zero vector")
        return cls(x / n, y / n, z / n)

    @classmethod
    def from_angles(cls, theta, phi) -> "UnitVector":
        """Unit vector with polar angle theta and azimuth phi."""
        st = math.sin(theta)
        return cls.from_xyz(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.ux, self.uy, self.uz])

    def dot(self, other: "UnitVector") -> float:
        return self.ux * other.ux + self.uy * other.uy + self.uz * other.uz


@dataclass(frozen=True)
class SpinRep:
    """Dense Hermitian S_x, S_y, S_z for one spin, dimension 2s+1."""

    s: SpinQuantum
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    @property
    def dim(self) -> int:
        return self.s.dim

    def component(self, u: UnitVector) -> np.ndarray:
        """Matrix of u . S (no eigendecomposition)."""
        return u.ux * self.sx + u.uy * self.sy + u.uz * self.sz

    @functools.cached_property
    def rotation_basis(self) -> tuple:
        """(m, V, V^dagger): m = s ... -s in basis order, and the
        eigenvectors V of S_y, columns in ascending eigenvalue order, so
        column k has eigenvalue k - s = -m[k] exactly."""
        c = _ladder_coefficients(self.s.two_s) / 2.0
        v = np.linalg.eigh(np.diag(-1j * c, 1) + np.diag(1j * c, -1))[1]
        return tuple(map(_frozen, (self.s.s - np.arange(self.dim), v, v.conj().T)))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _ladder_coefficients(two_s: int) -> np.ndarray:
    """<m+1|S_+|m> = sqrt(s(s+1) - m(m+1)) for m = s-1 ... -s, the
    superdiagonal of S_+ in the basis order m = s ... -s."""
    sval = two_s / 2.0
    m = sval - np.arange(1, two_s + 1)
    return np.sqrt(sval * (sval + 1) - m * (m + 1))


def build_spin_rep(s: SpinQuantum) -> SpinRep:
    """Construct S_x, S_y, S_z from the ladder matrix elements
    <m+-1|S_+-|m> = sqrt(s(s+1) - m(m+-1)); checked on every call, shared per spin."""
    if s.two_s < 1:
        raise ValidationError("build_spin_rep requires two_s >= 1")
    if s.dim > DIM_CAP:
        raise CapacityError(f"dimension {s.dim} exceeds cap {DIM_CAP}")
    return _spin_rep(int(s.two_s))


@functools.lru_cache(maxsize=_EIGENBASIS_CACHE)
def _spin_rep(two_s: int) -> SpinRep:
    sz = np.diag(two_s / 2.0 - np.arange(two_s + 1)).astype(complex)  # m = s ... -s
    sp = np.diag(_ladder_coefficients(two_s), 1).astype(complex)
    sm = sp.conj().T
    return SpinRep(SpinQuantum(two_s), *map(_frozen, ((sp + sm) / 2.0, (sp - sm) / 2j, sz)))


@dataclass(frozen=True)
class HermitianObservable:
    """Hermitian matrix with its orthonormal eigenvectors.

    Column k of `eigenvectors` has eigenvalue `levels[k]`, ascending;
    degenerate columns share one level, so each distinct level is one
    outcome, and its probability is a sum over its columns.
    """

    eigenvectors: np.ndarray
    levels: np.ndarray
    build_matrix: Callable[[], np.ndarray] = field(repr=False, compare=False)
    sign_bins: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def matrix(self) -> np.ndarray:  # built on first read
        return self.build_matrix()

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "HermitianObservable":
        """Diagonalize an arbitrary Hermitian matrix; eigenvalues within
        1e-9 of the spectral norm are grouped into one outcome, their mean."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError("observable matrix must be square")
        if not np.max(np.abs(matrix - matrix.conj().T)) <= 1e-10:
            raise ValidationError("observable matrix is not Hermitian")
        evals, evecs = np.linalg.eigh(matrix)
        norm = max(np.max(np.abs(evals)), 1.0e-3)
        tol = 1e-9 * norm
        levels = np.empty(len(evals))
        i = 0
        n = len(evals)
        while i < n:
            j = i
            while j + 1 < n and evals[j + 1] - evals[i] <= tol:
                j += 1
            levels[i:j + 1] = float(np.mean(evals[i:j + 1]))
            i = j + 1
        return cls(eigenvectors=evecs, levels=levels, build_matrix=lambda: matrix)

    @property
    def outcome_spectrum(self) -> np.ndarray:
        """Distinct eigenvalues, ascending."""
        return np.unique(self.levels)

    @property
    def outcome_masks(self) -> np.ndarray:
        """masks[i, k] is True when column k has outcome outcome_spectrum[i]."""
        return self.levels == self.outcome_spectrum[:, None]

    def outcome_index(self, outcome: float) -> int:
        """Index in outcome_spectrum of the first outcome within 1e-8 of `outcome`."""
        return int(outcome_indices(self.outcome_spectrum, [outcome])[0])


def outcome_indices(outcomes, values) -> np.ndarray:
    """For each of `values`, the index of the first of `outcomes` within 1e-8 of it."""
    values = np.asarray(values, dtype=float)
    hits = np.abs(values[:, None] - np.asarray(outcomes, dtype=float)) <= 1e-8
    found = hits.any(axis=1)
    if not found.all():
        raise ValidationError(f"outcome {values[~found][0]} not admissible in {tuple(outcomes)}")
    return hits.argmax(axis=1)


def spin_component(rep: SpinRep, u: UnitVector) -> HermitianObservable:
    """Observable u . S, with eigenvectors the columns of the rotation
    R(u) = exp(-i phi S_z) exp(-i theta S_y) that takes z to u: u . S
    R|m> = m R|m>, so the outcomes are the m-values exactly.  Shared and
    read-only per (spin, u), u keyed by its exact bits: -0.0 is not 0.0."""
    return _component(rep.s.two_s, struct.pack("3d", u.ux, u.uy, u.uz))


@functools.lru_cache(maxsize=_EIGENBASIS_CACHE)
def _component(two_s: int, bits: bytes) -> HermitianObservable:
    rep, (ux, uy, uz) = _spin_rep(two_s), struct.unpack("3d", bits)
    m, v, v_dagger = rep.rotation_basis  # column k of v has eigenvalue -m[k], so
    # exp(-i theta S_y) = V exp(i theta m) V^dagger; it is real (Wigner's small d)
    small_d = ((v * np.exp(1j * math.atan2(math.hypot(ux, uy), uz) * m)) @ v_dagger).real
    rotation = np.exp(-1j * math.atan2(uy, ux) * m)[:, None] * small_d
    return HermitianObservable(eigenvectors=_frozen(rotation[:, ::-1]), levels=m[::-1],
                               build_matrix=lambda: _frozen(rep.component(UnitVector(ux, uy, uz))))


def sign_projectors(obs: HermitianObservable, zero_policy: str = "plus"):
    """(Pi_plus, Pi_minus) for the positive / negative outcome bins.

    An outcome exactly zero (m = 0 of an integer spin) goes to the + bin
    ("plus"), the - bin ("minus"), or neither ("exclude"); in the last
    case the two projectors do not sum to the identity and callers must
    renormalize.  Kept read-only per policy in `obs.sign_bins`.
    """
    if zero_policy not in ZERO_POLICIES:
        raise ValidationError(f"unknown zero_policy {zero_policy!r}")
    if zero_policy not in obs.sign_bins:
        plus = obs.levels >= 0 if zero_policy == "plus" else obs.levels > 0
        minus = obs.levels <= 0 if zero_policy == "minus" else obs.levels < 0
        v_plus, v_minus = obs.eigenvectors[:, plus], obs.eigenvectors[:, minus]
        obs.sign_bins[zero_policy] = tuple(_frozen(v @ v.conj().T) for v in (v_plus, v_minus))
    return obs.sign_bins[zero_policy]


def _check_half_integer(name, value):
    two = round(2 * value)
    if abs(2 * value - two) > 1e-9:
        raise ValidationError(f"{name} = {value} is not integer or half-integer")
    return int(two)


def _lnfact(n: int) -> float:
    return math.lgamma(n + 1)


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>.

    Condon-Shortley convention, evaluated by the Racah single-sum
    formula with log-factorials, so it stays accurate past j ~ 20.
    """
    tj1, tm1, tj2, tm2, tJ, tM = (_check_half_integer(name, value) for name, value in zip(
        ("j1", "m1", "j2", "m2", "J", "M"), (j1, m1, j2, m2, J, M)))
    if tj1 < 0 or tj2 < 0 or tJ < 0:
        raise ValidationError("angular momenta must be non-negative")
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        raise ValidationError("|m| exceeds j")
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tJ + tM) % 2:
        raise ValidationError("m must differ from j by an integer")
    if not (abs(tj1 - tj2) <= tJ <= tj1 + tj2) or (tj1 + tj2 + tJ) % 2:
        return 0.0
    if tm1 + tm2 != tM:
        return 0.0

    # doubled integers -> plain integers for the factorial arguments
    def h(x):
        assert x % 2 == 0
        return x // 2

    a = h(tj1 + tj2 - tJ)
    b = h(tj1 - tj2 + tJ)
    c = h(-tj1 + tj2 + tJ)
    ln_delta = _lnfact(a) + _lnfact(b) + _lnfact(c) - _lnfact(h(tj1 + tj2 + tJ) + 1)
    ln_pref = 0.5 * (
        math.log(tJ + 1)
        + ln_delta
        + _lnfact(h(tJ + tM)) + _lnfact(h(tJ - tM))
        + _lnfact(h(tj1 + tm1)) + _lnfact(h(tj1 - tm1))
        + _lnfact(h(tj2 + tm2)) + _lnfact(h(tj2 - tm2))
    )
    k_min = max(0, -h(tJ - tj2 + tm1), -h(tJ - tj1 - tm2))
    k_max = min(a, h(tj1 - tm1), h(tj2 + tm2))
    total = 0.0
    for k in range(k_min, k_max + 1):
        ln_term = ln_pref - (
            _lnfact(k)
            + _lnfact(a - k)
            + _lnfact(h(tj1 - tm1) - k)
            + _lnfact(h(tj2 + tm2) - k)
            + _lnfact(h(tJ - tj2 + tm1) + k)
            + _lnfact(h(tJ - tj1 - tm2) + k)
        )
        total += (-1.0) ** k * math.exp(ln_term)
    return total
