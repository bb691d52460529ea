"""Desk-scale estimators for the weighted convolution and extension operators.

The convolution operator integrates f(z - Gamma(w)) against the affine
arclength weight over a disk; its restricted weak-type pairing against a
pair of measurable sets in C^3 is estimated by Monte Carlo with mandatory
seeds.  The extension operator is an oscillatory integral over the support
disk, evaluated on a polar tensor grid by one kernel that takes a batch of
points: ``extension`` passes one point, and ``norm_ratio_scan`` evaluates
each (function, dilation) once over its whole grid.  The kernel works
through the batch in chunks, and its values do not depend on the chunk size.

The Monte Carlo estimators share one sampling kernel.  ``convolve`` passes
its one point z and its f; ``pairing`` passes f = chi_E and one point z of F
per sample, because <T chi_E, chi_F> = |F| times the mean over z in F of
T chi_E(z).  The random arrays (F's, then the disk's) are drawn whole, in
a fixed order, and every per-sample value (the point z, the disk point w,
Gamma(w), z - Gamma(w), lambda(w) and f) is built _CHUNK_SAMPLES rows at a
time into one samples array.  The mean and the standard error are taken
over that whole array, so memory is bounded per sample and the estimates do
not depend on the chunk size.

The frequency pairing z . Gamma(w) is the real inner product of C^3 read as
R^6: sum_j Re(z_j) Re(Gamma_j) + Im(z_j) Im(Gamma_j).  This convention is
fixed here and used everywhere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curves import CurveGamma, lambda_weight
from .errors import NonConvergence, ZeroVolume
from .polynomials import gauss_legendre

_BALL6_UNIT_VOLUME = math.pi**3 / 6.0

# Points per chunk of the extension kernel: at the CLI default n_quad = 16
# (512 polar nodes) one complex (points x nodes) temporary is 1 MB.
_CHUNK_POINTS = 128

# Rows per slice of the Monte Carlo estimators: one complex (rows x 3)
# temporary such as z - Gamma(w) is 3 MB.
_CHUNK_SAMPLES = 65_536

_EXTENSION_REL_TOL = 1e-6


@dataclass(frozen=True)
class MeasurableSet:
    """Ball or box in C^3 (= R^6)."""

    kind: str
    center: tuple
    size: float

    def __post_init__(self):
        if self.kind not in ("ball", "box"):
            raise ValueError("kind must be 'ball' or 'box'")
        if not 0 < self.size < math.inf:
            raise ValueError("size must be positive and finite")
        center = tuple(complex(c) for c in self.center)
        if len(center) != 3 or not all(cmath.isfinite(c) for c in center):
            raise ValueError("center must have three finite complex entries")
        object.__setattr__(self, "center", center)

    @property
    def volume(self) -> float:
        """Lebesgue volume in R^6."""
        if self.kind == "ball":
            return float(_BALL6_UNIT_VOLUME * self.size**6)
        return float((2.0 * self.size) ** 6)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Membership for an (n, 3) complex array."""
        delta = pts - np.asarray(self.center, dtype=np.complex128)
        if self.kind == "ball":
            return np.sum(np.abs(delta) ** 2, axis=-1) <= self.size**2
        coords = np.concatenate([delta.real, delta.imag], axis=-1)
        return np.max(np.abs(coords), axis=-1) <= self.size

    def draw(self, n: int, rng) -> tuple:
        """The random arrays behind n points, each with n rows.

        A box draws an (n, 6) block of uniform coordinates; a ball draws an
        (n, 6) block of normals, then n uniforms for the radii.
        """
        if self.kind == "box":
            return (rng.uniform(-self.size, self.size, size=(n, 6)),)
        return rng.standard_normal((n, 6)), rng.random(n)

    def place(self, coords, u=None) -> np.ndarray:
        """Points of the set from rows of ``draw``'s arrays.

        Each output row depends only on the same row of ``coords`` and
        ``u`` (a ball's uniforms), so slices of the draws map on their own.
        """
        center = np.asarray(self.center, dtype=np.complex128)
        if self.kind == "ball":
            norm = np.linalg.norm(coords, axis=1, keepdims=True)
            radii = self.size * u ** (1.0 / 6.0)
            coords = coords / norm * radii[:, None]
        return center + coords[:, :3] + 1j * coords[:, 3:]

    def translate(self, v) -> "MeasurableSet":
        v = np.asarray(v, dtype=np.complex128).reshape(3)
        return MeasurableSet(
            kind=self.kind,
            center=tuple(complex(c) for c in (np.asarray(self.center) + v)),
            size=self.size,
        )

    def to_json(self) -> dict:
        return {
            **vars(self),
            "center": [[c.real, c.imag] for c in self.center],
            "volume": self.volume,
        }


@dataclass(frozen=True)
class WeakTypeReport:
    """Pairing estimate with its derived restricted weak-type quantities."""

    pairing: float
    alpha: float
    beta: float
    rwt_ratio: float
    mc_samples: int
    mc_stderr: float
    volume_e: float
    volume_f: float
    weak_type_gap: float

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class PQPair:
    """Lebesgue exponent pair, optionally born from the theta family."""

    p: float
    q: float
    theta: float | None = None

    def __post_init__(self):
        if not (1 <= self.p < math.inf and self.q >= 1):
            raise ValueError("p must be finite, and both exponents at least 1")
        if self.theta is not None:
            if not 0.0 < self.theta < 1.0:
                raise ValueError("theta must lie in (0, 1)")
            if (
                abs(self.p - 6.0 / (3.0 + self.theta)) > 1e-12
                or abs(self.q - 6.0 / (2.0 + self.theta)) > 1e-12
            ):
                raise ValueError("theta-parameterized pair must satisfy its formulas")

    @classmethod
    def from_theta(cls, theta: float) -> "PQPair":
        return cls(p=6.0 / (3.0 + theta), q=6.0 / (2.0 + theta), theta=theta)


@dataclass(frozen=True)
class BallSpec:
    """Ball whose weighted measure is calibrated to an eighth of x."""

    x: float
    k_prime: int

    def __post_init__(self):
        if not 0 < self.x < math.inf:
            raise ValueError("x must be positive and finite")
        if self.k_prime < 0:
            raise ValueError("k_prime must be nonnegative")

    @property
    def nu(self) -> float:
        return 3.0 / (self.k_prime + 6.0)

    @property
    def radius(self) -> float:
        nu = self.nu
        return (16.0 * math.pi * nu) ** (-nu) * self.x**nu


def ball_measure_check(spec: BallSpec):
    """Weighted measure of the calibrated ball against x / 8.

    The weight |z|**(k'/3) integrates in polar coordinates to
    2*pi*R**(k'/3 + 2) / (k'/3 + 2), which the radius is built to turn into
    exactly x / 8.
    """
    expo = spec.k_prime / 3.0 + 2.0
    sigma = 2.0 * math.pi * spec.radius**expo / expo
    return sigma, spec.x / 8.0


def _row_slices(n: int, rows: int):
    """Consecutive slices of ``rows`` rows covering n rows."""
    return (slice(start, start + rows) for start in range(0, n, rows))


def _complex_stderr(samples: np.ndarray, scale: float) -> float:
    """Scaled standard error of the sample mean: scale * sqrt(s**2 / n).

    s**2 is the two-pass sample variance of the data shifted by its first
    sample (Chan, Golub & LeVeque 1983).  The shift leaves the variance
    unchanged, and when all samples are equal the shifted data are exactly
    zero, so the result is exactly 0 whatever the summation order of the
    mean.  Fewer than two samples give 0.
    """
    n = samples.size
    if n < 2:
        return 0.0
    shifted = samples - samples.flat[0]
    shifted -= shifted.mean()
    var = float(np.mean(np.abs(shifted) ** 2)) * n / (n - 1)
    return scale * math.sqrt(var / n)


def _convolve_samples(curve: CurveGamma, f, points, disk_radius: float, n: int,
                      rng) -> np.ndarray:
    """f(z - Gamma(w)) lambda(w) at n uniform points w of the disk.

    The disk's r and theta are drawn whole; every other array is built one
    _CHUNK_SAMPLES-row slice at a time.  ``points(s)`` gives the z rows of
    slice s, either one row shared by every sample or one row per sample.
    """
    r = disk_radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    samples = None
    for s in _row_slices(n, _CHUNK_SAMPLES):
        w = r[s] * np.exp(1j * theta[s])
        values = np.asarray(f(points(s) - curve(w))) * lambda_weight(curve.torsion, w)
        if samples is None:
            samples = np.empty(n, dtype=values.dtype)
        samples[s] = values
    return samples


def convolve(curve: CurveGamma, f, z, disk_radius: float, n_mc: int, seed: int):
    """Monte Carlo estimate of the weighted convolution at one point.

    ``f`` must accept an (n, 3) complex array and return (n,) values, each
    depending on its own row only, because it is called on slices of the
    samples.  Returns (value, stderr); the estimate is area(D) times the
    sample mean of f(z - Gamma(w)) lambda(w) over w uniform in the disk, and
    stderr is area(D) times the shifted two-pass sample standard error of
    that mean, exactly 0 when all samples are equal.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    rng = np.random.default_rng(seed)
    z = np.asarray(z, dtype=np.complex128).reshape(1, 3)
    samples = _convolve_samples(curve, f, lambda s: z, disk_radius, n_mc, rng)
    area = math.pi * disk_radius**2
    value = complex(area * samples.mean())
    return value, _complex_stderr(samples, area)


def _placed_rows(S: MeasurableSet, n: int, rng):
    """Draw the arrays of n points of S whole; return the map from a slice
    to its placed rows.  The draws live only as long as that map."""
    draws = S.draw(n, rng)
    return lambda s: S.place(*(a[s] for a in draws))


def pairing(curve: CurveGamma, E: MeasurableSet, F: MeasurableSet,
            disk_radius: float, n_mc: int, seed: int) -> WeakTypeReport:
    """Estimate <T chi_E, chi_F> and derive alpha, beta, and the weak-type ratio.

    One (z, w) pair per sample, z uniform in F and w uniform in the disk,
    sampled by ``convolve``'s kernel with f = chi_E.  The identities
    alpha |F| = pairing = beta |E| hold exactly by construction; the
    weak-type ratio divides the pairing by |E|**(1/2) |F|**(2/3), and
    ``weak_type_gap`` reports alpha**4 beta**2 / |E| for the equivalent
    lower-bound form.
    """
    if E.volume <= 0.0 or F.volume <= 0.0:
        raise ZeroVolume("both sets need positive volume")
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    rng = np.random.default_rng(seed)
    samples = _convolve_samples(curve, E.contains, _placed_rows(F, n_mc, rng),
                                disk_radius, n_mc, rng)
    scale = F.volume * math.pi * disk_radius**2
    est = float(scale * samples.mean())
    stderr = _complex_stderr(samples.astype(np.complex128), scale)
    alpha = est / F.volume
    beta = est / E.volume
    return WeakTypeReport(
        pairing=est,
        alpha=alpha,
        beta=beta,
        rwt_ratio=est / (E.volume**0.5 * F.volume ** (2.0 / 3.0)),
        mc_samples=n_mc,
        mc_stderr=stderr,
        volume_e=E.volume,
        volume_f=F.volume,
        weak_type_gap=alpha**4 * beta**2 / E.volume,
    )


def _polar_grid(support_radius: float, n_quad: int):
    x, w = gauss_legendre(n_quad)
    r = 0.5 * support_radius * (x + 1.0)
    wr = 0.5 * support_radius * w
    m_t = max(8, 2 * n_quad)
    theta = 2.0 * math.pi * np.arange(m_t) / m_t
    nodes = r[:, None] * np.exp(1j * theta[None, :])
    weights = (wr * r)[:, None] * (2.0 * math.pi / m_t) * np.ones((1, m_t))
    return nodes.ravel(), weights.ravel()


def _extension_values(curve: CurveGamma, f, zs, n_quad: int,
                      support_radius: float) -> np.ndarray:
    """Extension integral of f at each of the (m, 3) points ``zs``.

    The polar grid, Gamma, f and lambda at its nodes are built once; the
    points are then evaluated _CHUNK_POINTS rows at a time as a C-contiguous
    (points x nodes) phase matrix.  The phase is summed element-wise in a
    fixed order, (Re z1 Re G1 + Re z2 Re G2 + Re z3 Re G3) + (Im z1 Im G1 +
    ...), and each row is reduced on its own, so every value is independent
    of the chunk size and of the other points.
    """
    if n_quad < 4:
        raise ValueError("n_quad must be at least 4")
    nodes, weights = _polar_grid(support_radius, n_quad)
    gamma = curve(nodes)
    g_re = np.ascontiguousarray(gamma.real.T)
    g_im = np.ascontiguousarray(gamma.imag.T)
    fw = np.asarray(f(nodes))
    lam = lambda_weight(curve.torsion, nodes)
    zs = np.asarray(zs, dtype=np.complex128).reshape(-1, 3)
    values = np.empty(zs.shape[0], dtype=np.complex128)
    for s in _row_slices(zs.shape[0], _CHUNK_POINTS):
        z_re, z_im = zs[s].real, zs[s].imag
        phase = z_re[:, 0:1] * g_re[0]
        phase += z_re[:, 1:2] * g_re[1]
        phase += z_re[:, 2:3] * g_re[2]
        im_part = z_im[:, 0:1] * g_im[0]
        im_part += z_im[:, 1:2] * g_im[1]
        im_part += z_im[:, 2:3] * g_im[2]
        phase += im_part
        integrand = np.exp(1j * phase) * fw * lam
        values[s] = np.sum(weights * integrand, axis=1)
    return values


def extension(curve: CurveGamma, f, z, n_quad: int, support_radius: float, *,
              check_convergence: bool = True) -> complex:
    """Oscillatory extension integral over the support disk of f.

    ``f`` maps an (n,) complex array to (n,) values supported in
    |w| <= support_radius.  Doubling the polar grid must leave the value
    stable to _EXTENSION_REL_TOL times the weighted L1 mass of f, else
    NonConvergence is raised.
    """
    zs = np.asarray(z, dtype=np.complex128).reshape(1, 3)
    value = complex(_extension_values(curve, f, zs, n_quad, support_radius)[0])
    if check_convergence:
        value2 = complex(_extension_values(curve, f, zs, 2 * n_quad, support_radius)[0])
        mass2 = weighted_l1_mass(curve, f, 2 * n_quad, support_radius)
        tol = _EXTENSION_REL_TOL * max(abs(value2), mass2, 1e-12)
        if abs(value2 - value) > tol:
            raise NonConvergence(
                f"extension quadrature moved by {abs(value2 - value):.3e} on doubling"
            )
        value = value2
    return value


def weighted_l1_mass(curve: CurveGamma, f, n_quad: int, support_radius: float) -> float:
    """Discretized weighted L1 norm of f on the same polar grid."""
    nodes, weights = _polar_grid(support_radius, n_quad)
    return float(np.sum(weights * np.abs(np.asarray(f(nodes)))
                        * lambda_weight(curve.torsion, nodes)))


def weighted_lp_norm(curve: CurveGamma, f, p: float, n_quad: int,
                     support_radius: float) -> float:
    nodes, weights = _polar_grid(support_radius, n_quad)
    vals = np.abs(np.asarray(f(nodes))) ** p * lambda_weight(curve.torsion, nodes)
    return float(np.sum(weights * vals) ** (1.0 / p))


@dataclass(frozen=True)
class GridSpec:
    """Tensor evaluation grid in R^6 for discretized output norms."""

    half_width: float = 4.0
    points_per_axis: int = 4

    def __post_init__(self):
        if not 0 < self.half_width < math.inf:
            raise ValueError("half_width must be positive and finite")
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be at least 2")

    def points(self) -> np.ndarray:
        axis = np.linspace(-self.half_width, self.half_width, self.points_per_axis)
        mesh = np.meshgrid(*([axis] * 6), indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=-1)
        return coords[:, :3] + 1j * coords[:, 3:]

    @property
    def cell_volume(self) -> float:
        step = 2.0 * self.half_width / (self.points_per_axis - 1)
        return step**6


def norm_ratio_scan(curve: CurveGamma, pq_pairs, family, grid: GridSpec, *,
                    n_quad: int = 24, dilations=(1.0,)) -> dict:
    """Discretized output/input norm ratios; evidence only, no assertions.

    ``family`` is a list of (name, f, support_radius).  The extension of
    each dilate f_s(w) = f(s w) depends on neither exponent, so it is
    evaluated once per (function, dilation) over the whole grid by the
    shared kernel of ``extension``, with values that do not depend on the
    kernel's chunk size.  For each pair, test function, and dilation s the
    scan then forms the L^q grid norm over the L^p weighted input norm of
    f_s, and reports per-(pair, function) flatness across the dilations
    (max ratio over min ratio).
    """
    pts = grid.points()
    dilates = []
    for name, f, support in family:
        for s in dilations:
            fs = (lambda func, sc: (lambda w: func(sc * w)))(f, s)
            radius = support / s
            mags = np.abs(_extension_values(curve, fs, pts, n_quad, radius))
            dilates.append((name, s, fs, radius, mags))
    rows = []
    for pair in pq_pairs:
        for name, s, fs, radius, mags in dilates:
            if math.isinf(pair.q):
                lq = float(np.max(mags))
            else:
                lq = float(np.sum(mags**pair.q * grid.cell_volume) ** (1.0 / pair.q))
            lp = weighted_lp_norm(curve, fs, pair.p, n_quad, radius)
            rows.append(
                {
                    "p": pair.p,
                    "q": pair.q,
                    "theta": pair.theta,
                    "function": name,
                    "dilation": s,
                    "lq_norm": lq,
                    "lp_norm": lp,
                    "ratio": lq / lp if lp > 0 else math.inf,
                }
            )
    flatness = {}
    for row in rows:
        key = (row["p"], row["q"], row["function"])
        flatness.setdefault(key, []).append(row["ratio"])
    flat_rows = [
        {
            "p": p,
            "q": q,
            "function": fn,
            "flatness": (max(r) / min(r)) if min(r) > 0 else math.inf,
        }
        for (p, q, fn), r in sorted(flatness.items(), key=lambda kv: str(kv[0]))
    ]
    return {"rows": rows, "flatness": flat_rows}
