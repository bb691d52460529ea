"""Dense complex-coefficient polynomial arithmetic and root extraction.

Coefficients are stored constant-term first.  Everything downstream (torsion
determinants, plane decompositions, quadrature integrands) is built on this
module, so evaluation is Horner-stable and root extraction reports explicit
multiplicities obtained by clustering a simultaneous (Aberth-Ehrlich style)
iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegreeZero, NonConvergence

_EPS = float(np.finfo(np.float64).eps)


class ComplexPolynomial:
    """Immutable dense polynomial over the complex numbers.

    Parameters
    ----------
    coeffs : sequence of complex
        Coefficient of z**k at index k.  Trailing exact zeros are trimmed;
        the zero polynomial is kept as a single zero coefficient with
        ``degree == -1``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128)).ravel()
        nz = np.flatnonzero(arr)
        if nz.size == 0:
            arr = np.zeros(1, dtype=np.complex128)
        else:
            arr = arr[: nz[-1] + 1].copy()
        arr.setflags(write=False)
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient, -1 for the zero polynomial."""
        if self._coeffs.size == 1 and self._coeffs[0] == 0:
            return -1
        return self._coeffs.size - 1

    def __call__(self, z):
        """Evaluate by Horner's scheme; accepts scalars or ndarrays."""
        zz = np.asarray(z, dtype=np.complex128)
        out = np.zeros_like(zz)
        for c in self._coeffs[::-1]:
            out = out * zz + c
        if out.shape == ():
            return complex(out)
        return out

    def derivative(self) -> "ComplexPolynomial":
        """Power-rule derivative; constants map to the zero polynomial."""
        return ComplexPolynomial(_power_rule(self._coeffs))

    def max_coeff(self) -> float:
        return float(np.max(np.abs(self._coeffs)))

    def trimmed(self, rel_tol: float = 1e-13) -> "ComplexPolynomial":
        """Drop trailing coefficients smaller than ``rel_tol * max |coeff|``."""
        m = self.max_coeff()
        if m == 0.0:
            return ComplexPolynomial([0.0])
        keep = np.flatnonzero(np.abs(self._coeffs) >= rel_tol * m)
        if keep.size == 0:
            return ComplexPolynomial([0.0])
        return ComplexPolynomial(self._coeffs[: keep[-1] + 1])

    def __add__(self, other):
        if isinstance(other, ComplexPolynomial):
            a, b = self._coeffs, other._coeffs
            out = np.zeros(max(a.size, b.size), dtype=np.complex128)
            out[: a.size] = a
            out[: b.size] += b
            return ComplexPolynomial(out)
        out = np.array(self._coeffs, dtype=np.complex128)
        out[0] = out[0] + complex(other)
        return ComplexPolynomial(out)

    __radd__ = __add__

    # IEEE gives x - y == x + (-y) bit for bit.  The one exception is a -0
    # part of the constant term minus the zero polynomial or a real scalar,
    # whose negation has a +0 part there: the result reads +0, not -0.
    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return ComplexPolynomial(-self._coeffs)

    def __mul__(self, other):
        if isinstance(other, ComplexPolynomial):
            if self.degree < 0 or other.degree < 0:
                return ComplexPolynomial([0.0])
            return ComplexPolynomial(np.convolve(self._coeffs, other._coeffs))
        return ComplexPolynomial(self._coeffs * complex(other))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        return np.array_equal(self._coeffs, other._coeffs)

    def __hash__(self):
        # Adding 0.0 turns -0.0 into 0.0, so coefficients that compare equal
        # hash alike.
        return hash((self._coeffs + 0.0).tobytes())

    def __repr__(self):
        return f"ComplexPolynomial({list(self._coeffs)})"

    def to_json(self) -> list:
        return [[float(c.real), float(c.imag)] for c in self._coeffs]

    @classmethod
    def from_json(cls, data) -> "ComplexPolynomial":
        return cls([complex(re, im) for re, im in data])


@dataclass(frozen=True)
class RootSet:
    """Roots of a polynomial with multiplicities, sorted by modulus.

    ``roots`` holds (location, multiplicity) pairs ordered by ascending
    modulus; equal moduli are ordered by ascending principal argument.
    ``residual`` is the largest |p| over the reported locations after
    polishing.
    """

    roots: tuple
    residual: float

    def locations(self) -> np.ndarray:
        return np.array([r for r, _ in self.roots], dtype=np.complex128)

    def multiplicities(self) -> tuple:
        return tuple(int(m) for _, m in self.roots)


def _power_rule(coeffs: np.ndarray) -> np.ndarray:
    """Derivative coefficients; a constant maps to the single zero."""
    if coeffs.size <= 1:
        return np.zeros(1, dtype=np.complex128)
    return coeffs[1:] * np.arange(1, coeffs.size)


def _horner_pair(coeffs: np.ndarray, z: np.ndarray):
    """Value and first derivative of the polynomial at each z."""
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for c in coeffs[::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _magnitude_bound(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k |c_k| |z|**k."""
    az = np.abs(z)
    err = np.zeros(az.shape, dtype=np.float64)
    for c in np.abs(coeffs[::-1]):
        err = err * az + c
    return err


def _eval_error_bound(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Running-error bound for Horner evaluation (roundoff level)."""
    k = coeffs.size
    return (2 * k + 1) * _EPS * _magnitude_bound(coeffs, z)


def _at_noise_level(coeffs: np.ndarray, z: complex, slack: float = 1.0) -> bool:
    """Whether |p(z)| is within ``slack`` times the residual level below
    which an iterate counts as a converged root.

    The level combines the Horner roundoff bound with the value swing a
    position error of a few ulps produces through the derivative.
    """
    zz = np.array([z])
    swing = 4.0 * _EPS * (1.0 + np.abs(zz)) * _magnitude_bound(_power_rule(coeffs), zz)
    level = 64.0 * (_eval_error_bound(coeffs, zz) + swing)
    return abs(_horner_pair(coeffs, zz)[0][0]) <= slack * float(level[0]) + 1e-290


def _aberth(coeffs: np.ndarray, max_iter: int) -> np.ndarray:
    """Simultaneous first-order iteration for all roots of a monic polynomial."""
    d = coeffs.size - 1
    radius = 1.0 + float(np.max(np.abs(coeffs[:-1])))
    angles = 2.0 * math.pi * (np.arange(d) / d) + 0.3923
    x = 0.7 * radius * np.exp(1j * angles)
    for _ in range(max_iter):
        p, dp = _horner_pair(coeffs, x)
        newton = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), 0.0)
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        s = inv.sum(axis=1)
        denom = 1.0 - newton * s
        step = np.where(np.abs(denom) > 1e-300, newton / np.where(denom != 0, denom, 1.0), newton)
        bad = ~np.isfinite(step)
        if np.any(bad):
            step = np.where(bad, 0.0, step)
        x = x - step
        if np.max(np.abs(step)) <= 1e-14 * (1.0 + np.max(np.abs(x))):
            break
    return x


# Newton steps that polish every simple-root iterate.
_POLISH_STEPS = 4


def _polish_simple(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    for _ in range(_POLISH_STEPS):
        p, dp = _horner_pair(coeffs, x)
        mask = np.abs(dp) > 1e-300
        x = np.where(mask, x - p / np.where(mask, dp, 1.0), x)
    return x


# Distance below which root iterates always merge into one multiple root.
CLUSTER_TOL = 1e-7

# Iterations of the first root-iteration attempt; the second gets four times as many.
_MAX_ITER = 512

# Most Newton steps taken to refine a cluster center.
_NEWTON_STEPS = 30


def _newton_on(coeffs: np.ndarray, z0: complex) -> complex:
    z = complex(z0)
    for _ in range(_NEWTON_STEPS):
        p, dp = _horner_pair(coeffs, np.array([z]))
        if abs(dp[0]) < 1e-300:
            break
        step = p[0] / dp[0]
        z = z - step
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return z


def _cluster_points(monic: np.ndarray, points: np.ndarray, scale: float):
    """Agglomerative merge of near-coincident iterates.

    Points within CLUSTER_TOL of each other always merge.  Beyond that,
    a candidate cluster of size m merges only when it is numerically
    indistinguishable from an m-fold root: the derivatives of order
    0..m-2 must vanish at the cluster center, within 16 times the residual
    level a simple root must reach.  The center is refined by Newton
    iteration on the (m-1)-st derivative, which has a simple root there
    (the iterates themselves scatter over a radius like eps**(1/m) around
    a multiple root; the refined center recovers full precision).  Order
    m-1 itself is skipped: it vanishes at the refined center by
    construction.

    Returns a list of (points, center) clusters.
    """
    deriv = [monic]
    for _ in range(monic.size - 1):
        deriv.append(_power_rule(deriv[-1]))

    clusters = [([p], complex(p)) for p in points]
    cap = CLUSTER_TOL + 5e-2 * scale
    while len(clusters) > 1:
        pairs = sorted(
            (abs(clusters[i][1] - clusters[j][1]), i, j)
            for i in range(len(clusters))
            for j in range(i + 1, len(clusters))
        )
        merged = False
        for dist, i, j in pairs:
            if dist > cap:
                break
            pts = clusters[i][0] + clusters[j][0]
            m = len(pts)
            mu = _newton_on(deriv[m - 1], sum(pts) / m)
            if dist <= CLUSTER_TOL or all(_at_noise_level(deriv[k], mu, 16.0)
                                          for k in range(m - 1)):
                clusters[i] = (pts, mu)
                del clusters[j]
                merged = True
                break
        if not merged:
            break
    return clusters


def roots(p: ComplexPolynomial) -> RootSet:
    """All roots of ``p`` with multiplicities from cluster merging.

    Raises
    ------
    DegreeZero
        For constant input.
    NonConvergence
        When the simultaneous iteration cannot reach residuals at the
        evaluation-noise level.
    """
    q = p.trimmed(1e-13)
    if q.degree < 0:
        raise DegreeZero("cannot extract roots of the zero polynomial")
    if q.degree == 0:
        raise DegreeZero("cannot extract roots of a constant polynomial")
    monic = q.coeffs / q.coeffs[-1]

    def attempt(iters):
        x = _polish_simple(monic, _aberth(monic, iters))
        scale = max(1.0, float(np.max(np.abs(x))))
        clusters = _cluster_points(monic, x, scale)
        # Multi-point clusters validated themselves when they merged;
        # singles must sit at a residual of evaluation-noise size.
        for pts, center in clusters:
            if len(pts) == 1 and not _at_noise_level(monic, center):
                return None
        return clusters

    clusters = attempt(_MAX_ITER)
    if clusters is None:
        clusters = attempt(4 * _MAX_ITER)
    if clusters is None:
        raise NonConvergence("root iteration stalled above the residual target")

    polished = sorted(
        ((complex(center), len(pts)) for pts, center in clusters),
        key=lambda rm: (abs(rm[0]), np.angle(rm[0])),
    )
    locs = np.array([r for r, _ in polished])
    residual = float(np.max(np.abs(p(locs)))) if locs.size else 0.0
    return RootSet(roots=tuple((complex(r), int(m)) for r, m in polished), residual=residual)


def det2(m) -> ComplexPolynomial:
    """Determinant of a 2x2 matrix of polynomials by cofactor expansion."""
    (a, b), (c, d) = m
    return a * d - b * c


def det3(m) -> ComplexPolynomial:
    """Determinant of a 3x3 matrix of polynomials by cofactor expansion."""
    return _det3_entries(*zip(*m))


def _det3_entries(c1, c2, c3):
    """Cofactor determinant of three columns, each given as its three
    entries; exactly antisymmetric in c1 <-> c2.  Entries may be
    polynomials or arrays of values."""
    a, d, g = c1
    b, e, h = c2
    c, f, i = c3
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per node count.

    Returns ``leggauss(n)``'s arrays, made read-only because every caller
    shares them.
    """
    # Imported here: importing numpy.polynomial along with this module
    # raised every workload's peak RSS by about 0.5 MB.
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
