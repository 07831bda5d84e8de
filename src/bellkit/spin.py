"""Exact spin-s operator algebra.

Spin matrices in the |s,m> basis (m = s, s-1, ..., -s), components along
arbitrary unit directions, sign-bin projectors, and Clebsch-Gordan
coefficients in the Condon-Shortley convention.  hbar = 1 throughout, so
measurement outcomes are the m-values themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError

DIM_CAP = 4097

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


def build_spin_rep(s: SpinQuantum, dim_cap: int = DIM_CAP) -> SpinRep:
    """Construct S_x, S_y, S_z from the ladder matrix elements
    <m+-1|S_+-|m> = sqrt(s(s+1) - m(m+-1))."""
    if s.two_s < 1:
        raise ValidationError("build_spin_rep requires two_s >= 1")
    d = s.dim
    if d > dim_cap:
        raise CapacityError(f"dimension {d} exceeds cap {dim_cap}")
    sval = s.s
    m = sval - np.arange(d)  # basis order m = s ... -s
    sz = np.diag(m).astype(complex)
    sp = np.zeros((d, d), dtype=complex)
    for i in range(1, d):
        # raising operator: |m+1><m| entry, row i-1 (m+1), column i (m)
        mm = m[i]
        sp[i - 1, i] = math.sqrt(sval * (sval + 1) - mm * (mm + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2j
    return SpinRep(s=s, sx=sx, sy=sy, sz=sz)


@dataclass(frozen=True)
class HermitianObservable:
    """Hermitian matrix with its spectrum and eigenprojectors.

    Eigenvalues within 1e-9 of the spectral norm are grouped into a
    single degenerate projector.
    """

    matrix: np.ndarray
    outcome_spectrum: np.ndarray  # distinct eigenvalues, ascending
    eigenprojectors: tuple  # ((eigenvalue, projector), ...) same order

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "HermitianObservable":
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError("observable matrix must be square")
        if not np.max(np.abs(matrix - matrix.conj().T)) <= 1e-10:
            raise ValidationError("observable matrix is not Hermitian")
        evals, evecs = np.linalg.eigh(matrix)
        norm = max(np.max(np.abs(evals)), 1.0e-3)
        tol = 1e-9 * norm
        groups = []  # (mean eigenvalue, projector)
        i = 0
        n = len(evals)
        while i < n:
            j = i
            while j + 1 < n and evals[j + 1] - evals[i] <= tol:
                j += 1
            vecs = evecs[:, i:j + 1]
            proj = vecs @ vecs.conj().T
            groups.append((float(np.mean(evals[i:j + 1])), proj))
            i = j + 1
        spectrum = np.array([g[0] for g in groups])
        return cls(matrix=matrix, outcome_spectrum=spectrum, eigenprojectors=tuple(groups))

    def projector_for(self, outcome: float, tol: float = 1e-8) -> np.ndarray:
        for lam, proj in self.eigenprojectors:
            if abs(lam - outcome) <= tol:
                return proj
        raise ValidationError(f"outcome {outcome} not in spectrum {self.outcome_spectrum}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def spin_component(rep: SpinRep, u: UnitVector) -> HermitianObservable:
    """Observable u . S with its full eigenstructure."""
    return HermitianObservable.from_matrix(rep.component(u))


def sign_projectors(obs: HermitianObservable, zero_policy: str = "plus"):
    """(Pi_plus, Pi_minus) for the positive / negative outcome bins.

    A (near-)zero eigenvalue goes to the + bin ("plus"), the - bin
    ("minus"), or neither ("exclude"); in the last case the two
    projectors do not sum to the identity and callers must renormalize.
    """
    if zero_policy not in ZERO_POLICIES:
        raise ValidationError(f"unknown zero_policy {zero_policy!r}")
    d = obs.dim
    norm = max(float(np.max(np.abs(obs.outcome_spectrum))), 1e-3)
    ztol = 1e-9 * norm
    plus = np.zeros((d, d), dtype=complex)
    minus = np.zeros((d, d), dtype=complex)
    for lam, proj in obs.eigenprojectors:
        if lam > ztol:
            plus += proj
        elif lam < -ztol:
            minus += proj
        elif zero_policy == "plus":
            plus += proj
        elif zero_policy == "minus":
            minus += proj
    return plus, minus


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
    tj1 = _check_half_integer("j1", j1)
    tm1 = _check_half_integer("m1", m1)
    tj2 = _check_half_integer("j2", j2)
    tm2 = _check_half_integer("m2", m2)
    tJ = _check_half_integer("J", J)
    tM = _check_half_integer("M", M)
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
