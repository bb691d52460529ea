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
its one point z and its f; ``pairing`` passes f = chi_E, as complex values,
and one point z of F per sample, because <T chi_E, chi_F> = |F| times the
mean over z in F of T chi_E(z).  The random values are those of one PCG64
stream drawn whole in a fixed order: F's (n, 6) block, a ball's radii, the
disk's r, then its theta.  A ball's normals take a variable number of
outputs, so they are drawn whole; every uniform takes exactly one, so each
uniform array is read slice by slice from its own copy of the stream,
advanced to where the array starts.  Every per-sample value (the point z,
the disk point w, Gamma(w), z - Gamma(w), lambda(w) and f) is built
_CHUNK_SAMPLES rows at a time into one samples array.  The mean and the
standard error are taken over that whole array, so memory is bounded per
sample and the estimates do not depend on the chunk size.

The frequency pairing z . Gamma(w) is the real inner product of C^3 read as
R^6: sum_j Re(z_j) Re(Gamma_j) + Im(z_j) Im(Gamma_j).  This convention is
fixed here and used everywhere.
"""

from __future__ import annotations

import cmath
import itertools
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
# temporary such as z - Gamma(w) is 192 KB, which stays in L2.  Of the
# slice sizes 2,048 to 65,536, this one timed fastest on a 10^6-sample
# ball pairing.
_CHUNK_SAMPLES = 4_096

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
    """Consecutive slices of at most ``rows`` rows covering n rows."""
    return (slice(start, min(start + rows, n)) for start in range(0, n, rows))


def _stream_at(rng, skip: int):
    """A generator reading rng's PCG64 stream from ``skip`` outputs past its
    position; rng does not move.  Each value of ``random`` and ``uniform``
    takes one 64-bit output, so a uniform array rng would draw later can be
    read from here in consecutive pieces."""
    bit_generator = np.random.PCG64()
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator.advance(skip))


def _set_rows(S: MeasurableSet, n: int, rng):
    """n points uniform in S, one _CHUNK_SAMPLES-row block at a time, with
    the values of a whole draw from rng: a box's (n, 6) uniforms, or a
    ball's (n, 6) normals, then n radius uniforms.

    The normals take a variable number of outputs (ziggurat rejections), so
    they are drawn now, whole.  Returns the blocks and the number of outputs
    their uniforms take after rng's position on return.
    """
    center = np.asarray(S.center, dtype=np.complex128)
    normals = rng.standard_normal((n, 6)) if S.kind == "ball" else None
    stream = _stream_at(rng, 0)

    def blocks():
        for s in _row_slices(n, _CHUNK_SAMPLES):
            if normals is None:
                coords = stream.uniform(-S.size, S.size, size=(s.stop - s.start, 6))
            else:
                norm = np.linalg.norm(normals[s], axis=1, keepdims=True)
                radii = S.size * stream.random(s.stop - s.start) ** (1.0 / 6.0)
                coords = normals[s] / norm * radii[:, None]
            yield center + coords[:, :3] + 1j * coords[:, 3:]

    return blocks(), (6 * n if normals is None else n)


def _disk_rows(disk_radius: float, n: int, rng, skip: int):
    """n points uniform in the disk, one _CHUNK_SAMPLES-row block at a time,
    with the values of a whole draw of r, then theta, from ``skip`` outputs
    past rng's position."""
    r_stream, theta_stream = _stream_at(rng, skip), _stream_at(rng, skip + n)

    def blocks():
        for s in _row_slices(n, _CHUNK_SAMPLES):
            r = disk_radius * np.sqrt(r_stream.random(s.stop - s.start))
            theta = 2.0 * math.pi * theta_stream.random(s.stop - s.start)
            yield r * np.exp(1j * theta)

    return blocks()


def _complex_stderr(samples: np.ndarray, scale: float) -> float:
    """Scaled standard error of the sample mean: scale * sqrt(s**2 / n).

    s**2 is the two-pass sample variance of the data shifted by its first
    sample (Chan, Golub & LeVeque 1983).  The shift leaves the variance
    unchanged, and when all samples are equal the shifted data are exactly
    zero, so the result is exactly 0 whatever the summation order of the
    mean.  Fewer than two samples give 0.  ``samples`` is overwritten: it
    is shifted in place, and its squared moduli go to its real part.
    """
    n = samples.size
    if n < 2:
        return 0.0
    samples -= samples.flat[0]
    samples -= samples.mean()
    power = np.abs(samples, out=samples.real)
    power *= power
    var = float(np.mean(power)) * n / (n - 1)
    return scale * math.sqrt(var / n)


def _convolve_samples(curve: CurveGamma, f, points, disk, n: int) -> np.ndarray:
    """f(z - Gamma(w)) lambda(w) for n samples, built one _CHUNK_SAMPLES-row
    slice at a time.

    ``points`` and ``disk`` yield each slice's z rows (one row shared by
    every sample, or one row per sample) and its disk points w.  Only the
    samples array and one slice of every other array are held here.
    """
    samples = None
    for s, z, w in zip(_row_slices(n, _CHUNK_SAMPLES), points, disk):
        values = np.asarray(f(z - curve(w))) * lambda_weight(curve.torsion, w)
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
    that mean, exactly 0 when all samples are equal.  The disk's r and
    theta are read slice by slice, with the values of a whole draw.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    rng = np.random.default_rng(seed)
    z = np.asarray(z, dtype=np.complex128).reshape(1, 3)
    samples = _convolve_samples(curve, f, itertools.repeat(z),
                                _disk_rows(disk_radius, n_mc, rng, 0), n_mc)
    area = math.pi * disk_radius**2
    value = complex(area * samples.mean())
    return value, _complex_stderr(samples, area)


def pairing(curve: CurveGamma, E: MeasurableSet, F: MeasurableSet,
            disk_radius: float, n_mc: int, seed: int) -> WeakTypeReport:
    """Estimate <T chi_E, chi_F> and derive alpha, beta, and the weak-type ratio.

    One (z, w) pair per sample, z uniform in F and w uniform in the disk,
    sampled by ``convolve``'s kernel with f = chi_E.  Of the random values,
    drawn in the order F's block, a ball's radii, the disk's r, then theta,
    only a ball's normals are held whole.  The identities
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
    points, skip = _set_rows(F, n_mc, rng)
    # Complex samples (imaginary part zero) let the standard error work in
    # place; a complex copy of real samples would sit beside them.
    samples = _convolve_samples(curve, lambda pts: E.contains(pts) + 0j, points,
                                _disk_rows(disk_radius, n_mc, rng, skip), n_mc)
    del points  # frees a ball's normals
    scale = F.volume * math.pi * disk_radius**2
    est = float(scale * samples.real.mean())
    stderr = _complex_stderr(samples, scale)
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
