import itertools
import math
import tracemalloc

import numpy as np
import pytest

from curvetorsion import (
    BallSpec,
    GridSpec,
    MeasurableSet,
    NonConvergence,
    PQPair,
    ZeroVolume,
    ball_measure_check,
    convolve,
    extension,
    norm_ratio_scan,
    pairing,
    weighted_l1_mass,
    weighted_lp_norm,
)
from curvetorsion import operators
from curvetorsion.cli import _scan_family
from curvetorsion.curves import CurveGamma, lambda_weight
from curvetorsion.operators import _complex_stderr, _extension_values

from conftest import poly, reference_disk, reference_pairing, reference_sample

ONES = lambda pts: np.ones(pts.shape[0], dtype=complex)
UNIT_DISK = lambda w: np.where(np.abs(w) <= 1.0, 1.0 + 0j, 0j)
GAUSS = lambda w: np.exp(-2.0 * np.abs(w) ** 2)


class TestMeasurableSet:
    def test_ball_volume(self):
        ball = MeasurableSet(kind="ball", center=(0, 0, 0), size=2.0)
        assert abs(ball.volume - math.pi**3 / 6.0 * 2.0**6) <= 1e-12 * ball.volume

    def test_box_volume(self):
        box = MeasurableSet(kind="box", center=(1j, 0, 0), size=0.5)
        assert abs(box.volume - 1.0) <= 1e-12
        assert set(vars(box)) == {"kind", "center", "size"}
        assert box.to_json()["volume"] == box.volume

    def test_membership_and_sampling(self, rng):
        ball = MeasurableSet(kind="ball", center=(1, 1j, 0), size=1.5)
        pts = np.concatenate(list(operators._set_rows(ball, 2000, rng)[0]))
        assert ball.contains(pts).all()
        far = pts + 100.0
        assert not ball.contains(far).any()


class TestConvolve:
    def test_constant_function_closed_form(self, moment_curve):
        value, stderr = convolve(moment_curve, ONES, np.zeros(3), 1.0, 20000, seed=7)
        target = 12 ** (1 / 3) * math.pi
        assert stderr == 0.0
        assert abs(value - target) <= 1e-12 * target

    def test_zero_function(self, moment_curve):
        value, stderr = convolve(
            moment_curve, lambda pts: np.zeros(pts.shape[0]), np.zeros(3), 1.0, 500, seed=1
        )
        assert value == 0

    def test_degenerate_curve_zero(self):
        curve = CurveGamma.from_components(poly(0, 1), poly(0, 0, 1), poly(0))
        value, _ = convolve(curve, ONES, np.zeros(3), 1.0, 500, seed=1)
        assert value == 0


class TestComplexStderr:
    @pytest.mark.parametrize("n", [2, 3, 17, 20000, 100001])
    @pytest.mark.parametrize("fill", [2.2894284851066637, 0.1 + 0.3j, -7.5])
    def test_constant_samples_exact_zero(self, n, fill):
        samples = np.full(n, fill)
        assert _complex_stderr(samples.astype(np.complex128), math.pi) == 0.0
        assert _complex_stderr(samples, 1.0) == 0.0

    def test_matches_sample_std(self, rng):
        samples = 3.0 + rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
        n = samples.size
        var = np.var(samples.real, ddof=1) + np.var(samples.imag, ddof=1)
        expected = 2.0 * math.sqrt(var / n)
        assert abs(_complex_stderr(samples, 2.0) - expected) <= 1e-12 * expected


class TestPairing:
    def _balls(self, r=1.0):
        return (
            MeasurableSet(kind="ball", center=(0, 0, 0), size=r),
            MeasurableSet(kind="ball", center=(0, 0, 0), size=r),
        )

    def test_definitional_identities(self, moment_curve):
        E, F = self._balls()
        rep = pairing(moment_curve, E, F, 1.0, 20000, seed=5)
        assert abs(rep.alpha * F.volume - rep.pairing) <= 1e-10 * rep.pairing
        assert abs(rep.beta * E.volume - rep.pairing) <= 1e-10 * rep.pairing
        assert rep.weak_type_gap == pytest.approx(rep.alpha**4 * rep.beta**2 / E.volume)

    def test_regression_pinned_ratio(self, moment_curve):
        E, F = self._balls()
        rep = pairing(moment_curve, E, F, 1.0, 20000, seed=5)
        assert abs(rep.rwt_ratio - 1.5138453911243523) < 1e-9

    def test_disjoint_sets_vanish(self, moment_curve):
        E = MeasurableSet(kind="ball", center=(1000, 0, 0), size=1.0)
        F = MeasurableSet(kind="ball", center=(0, 0, 0), size=1.0)
        rep = pairing(moment_curve, E, F, 1.0, 5000, seed=3)
        assert rep.pairing <= 3 * rep.mc_stderr + 1e-12

    def test_stderr_scaling(self, moment_curve):
        E, F = self._balls()
        errs = [pairing(moment_curve, E, F, 1.0, n, seed=1).mc_stderr for n in (1000, 10000, 100000)]
        for a, b in zip(errs, errs[1:]):
            assert math.sqrt(10) / 2 <= a / b <= 2 * math.sqrt(10)

    def test_translation_invariance(self, moment_curve):
        E, F = self._balls()
        base = pairing(moment_curve, E, F, 1.0, 40000, seed=11)
        v = np.array([0.3 + 0.1j, -0.2j, 0.05])
        moved = pairing(moment_curve, E.translate(v), F.translate(v), 1.0, 40000, seed=12)
        spread = base.mc_stderr + moved.mc_stderr
        assert abs(base.pairing - moved.pairing) <= 3 * spread

    def test_multi_scale_ratio_stability(self, moment_curve):
        ratios = []
        for r in (0.5, 1.0, 2.0):
            E, F = self._balls(r)
            ratios.append(pairing(moment_curve, E, F, 1.0, 40000, seed=9).rwt_ratio)
        assert max(ratios) / min(ratios) < 10.0

    def test_zero_volume_rejected(self, moment_curve):
        with pytest.raises((ZeroVolume, ValueError)):
            MeasurableSet(kind="ball", center=(0, 0, 0), size=0.0)


class TestMonteCarloChunks:
    """The estimators stream their draws in row slices of any size with the
    bytes of whole draws."""

    N_MC = 2003  # a multiple of neither 7 nor the default slice
    CHUNKS = (1, 7, operators._CHUNK_SAMPLES)
    # One sample, less than a slice, two slices, and one row into a third.
    SIZES = (1, 7, 2 * operators._CHUNK_SAMPLES, 2 * operators._CHUNK_SAMPLES + 1)

    @pytest.mark.parametrize("kind", ["ball", "box"])
    def test_sample_matches_reference(self, kind):
        S = MeasurableSet(kind=kind, center=(1, 1j, 0), size=1.5)
        for n in (self.N_MC,) + self.SIZES:
            rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
            points, skip = operators._set_rows(S, n, rng)
            got = np.concatenate(list(points))
            assert got.tobytes() == reference_sample(S, n, ref_rng).tobytes()
            # The uniforms after F's are where a whole draw would leave them.
            after = operators._stream_at(rng, skip).random(3)
            assert after.tobytes() == ref_rng.random(3).tobytes()

    @pytest.mark.parametrize("seed", [5, 11, 12])
    @pytest.mark.parametrize("f_kind", ["ball", "box"])
    @pytest.mark.parametrize("e_kind", ["ball", "box"])
    def test_pairing_chunk_size_invariant(self, moment_curve, monkeypatch, e_kind, f_kind,
                                          seed):
        E = MeasurableSet(kind=e_kind, center=(0.1, 0.2j, 0), size=1.0)
        F = MeasurableSet(kind=f_kind, center=(0, 0.3, 0.1j), size=0.8)
        reference, est, stderr = reference_pairing(moment_curve, E, F, 1.0, self.N_MC, seed)
        assert 0 < np.count_nonzero(reference) < self.N_MC
        for chunk in self.CHUNKS:
            monkeypatch.setattr(operators, "_CHUNK_SAMPLES", chunk)
            rng = np.random.default_rng(seed)
            points, skip = operators._set_rows(F, self.N_MC, rng)
            samples = operators._convolve_samples(
                moment_curve, E.contains, points,
                operators._disk_rows(1.0, self.N_MC, rng, skip), self.N_MC)
            assert samples.tobytes() == reference.tobytes()
            rep = pairing(moment_curve, E, F, 1.0, self.N_MC, seed)
            assert (rep.pairing.hex(), rep.mc_stderr.hex()) == (est.hex(), stderr.hex())

    @pytest.mark.parametrize("seed", [5, 11, 12])
    def test_convolve_chunk_size_invariant(self, moment_curve, monkeypatch, seed):
        f = lambda pts: np.exp(-np.sum(np.abs(pts) ** 2, axis=1)) * (1 + pts[:, 0])
        z = np.array([0.1, 0.2, 0.3j]).reshape(1, 3)
        w = reference_disk(self.N_MC, 1.3, np.random.default_rng(seed))
        reference = f(z - moment_curve(w)) * lambda_weight(moment_curve.torsion, w)
        results = set()
        for chunk in self.CHUNKS:
            monkeypatch.setattr(operators, "_CHUNK_SAMPLES", chunk)
            disk = operators._disk_rows(1.3, self.N_MC, np.random.default_rng(seed), 0)
            samples = operators._convolve_samples(moment_curve, f, itertools.repeat(z), disk,
                                                  self.N_MC)
            assert samples.dtype == reference.dtype
            assert samples.tobytes() == reference.tobytes()
            value, stderr = convolve(moment_curve, f, z, 1.3, self.N_MC, seed)
            results.add((value.real.hex(), value.imag.hex(), stderr.hex()))
        assert len(results) == 1

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("f_kind", ["ball", "box"])
    def test_pairing_sizes_match_whole_draws(self, moment_curve, f_kind, n):
        E = MeasurableSet(kind="ball", center=(0.1, 0.2j, 0), size=1.0)
        F = MeasurableSet(kind=f_kind, center=(0, 0.3, 0.1j), size=0.8)
        _, est, stderr = reference_pairing(moment_curve, E, F, 1.0, n, 3)
        rep = pairing(moment_curve, E, F, 1.0, n, 3)
        assert (rep.pairing.hex(), rep.mc_stderr.hex()) == (est.hex(), stderr.hex())

    @pytest.mark.parametrize("n", SIZES)
    def test_convolve_sizes_match_whole_draws(self, moment_curve, n):
        f = lambda pts: np.exp(-np.sum(np.abs(pts) ** 2, axis=1)) * (1 + pts[:, 0])
        z = np.array([0.1, 0.2, 0.3j])
        w = reference_disk(n, 1.3, np.random.default_rng(3))
        reference = f(z - moment_curve(w)) * lambda_weight(moment_curve.torsion, w)
        area = math.pi * 1.3**2
        expected = complex(area * reference.mean()), _complex_stderr(reference, area)
        assert convolve(moment_curve, f, z, 1.3, n, 3) == expected

    # Bytes per sample at 4,096-row slices of 200,000 samples.  A ball F
    # holds its (n, 6) normals and the complex samples, 64 B, plus one slice
    # of temporaries (about 6 B); it read 85 B with whole draws.  A box F
    # and ``convolve`` hold the complex samples and one slice (about 4-6 B),
    # and the standard error adds nothing; they read 76 B and 40 B with
    # whole draws.
    @pytest.mark.parametrize("f_kind", ["ball", "box"])
    def test_pairing_memory_per_sample(self, moment_curve, monkeypatch, f_kind):
        monkeypatch.setattr(operators, "_CHUNK_SAMPLES", 4096)
        E = MeasurableSet(kind="ball", center=(0, 0, 0), size=1.0)
        F = MeasurableSet(kind=f_kind, center=(0, 0, 0), size=1.0)
        peak = _peak_bytes_per_sample(lambda n: pairing(moment_curve, E, F, 1.0, n, seed=5))
        assert peak < {"ball": 72, "box": 24}[f_kind]

    def test_convolve_memory_per_sample(self, moment_curve, monkeypatch):
        monkeypatch.setattr(operators, "_CHUNK_SAMPLES", 4096)
        f = lambda pts: np.exp(-np.sum(np.abs(pts) ** 2, axis=1)) * (1 + pts[:, 0])
        peak = _peak_bytes_per_sample(lambda n: convolve(moment_curve, f, np.zeros(3), 1.0,
                                                         n, seed=5))
        assert peak < 22


def _peak_bytes_per_sample(estimate, n=200_000):
    """tracemalloc's peak during ``estimate(n)``, per sample, after a warm-up call."""
    estimate(10)
    tracemalloc.start()
    try:
        estimate(n)
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


class TestBallMeasure:
    @pytest.mark.parametrize("k_prime", range(7))
    @pytest.mark.parametrize("x", [0.25, 1.0, 8.0])
    def test_measure_identity(self, k_prime, x):
        sigma, target = ball_measure_check(BallSpec(x=x, k_prime=k_prime))
        assert abs(sigma - target) <= 1e-12 * max(1.0, target)
        assert target == x / 8.0

    def test_unit_case(self):
        spec = BallSpec(x=1.0, k_prime=0)
        assert abs(spec.radius - (8 * math.pi) ** -0.5) < 1e-15
        sigma, target = ball_measure_check(spec)
        assert abs(sigma - 0.125) < 1e-15

    def test_k3_x8(self):
        sigma, target = ball_measure_check(BallSpec(x=8.0, k_prime=3))
        assert abs(sigma - 1.0) <= 1e-12

    def test_monotone_in_x(self):
        vals = [ball_measure_check(BallSpec(x=x, k_prime=2))[0] for x in (1.0, 0.5, 0.1, 0.01)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_invariants(self):
        spec = BallSpec(x=2.0, k_prime=4)
        assert set(vars(spec)) == {"x", "k_prime"}
        assert spec.nu == pytest.approx(3.0 / 10.0)
        assert spec.radius == pytest.approx((16 * math.pi * spec.nu) ** -spec.nu * 2.0**spec.nu)


class TestExtension:
    def test_no_oscillation_closed_form(self, moment_curve):
        val = extension(moment_curve, UNIT_DISK, np.zeros(3), 24, 1.0)
        target = 12 ** (1 / 3) * math.pi
        assert abs(val - target) <= 1e-10 * target

    def test_zero_function(self, moment_curve):
        val = extension(moment_curve, lambda w: np.zeros_like(w), np.ones(3), 16, 1.0)
        assert val == 0

    def test_endpoint_bound(self, moment_curve, rng):
        for f, support in ((UNIT_DISK, 1.0), (GAUSS, 3.0)):
            mass = weighted_l1_mass(moment_curve, f, 24, support)
            for _ in range(50):
                coords = rng.uniform(-5, 5, 6)
                z = coords[:3] + 1j * coords[3:]
                val = abs(extension(moment_curve, f, z, 24, support, check_convergence=False))
                assert val <= mass * (1 + 1e-12)

    # Every 20th point of the 4^6 grid: coordinates 0 never occur, +-4/3 and
    # +-4 both do.
    KERNEL_POINTS = GridSpec(4.0, 4).points()[::20]

    @pytest.mark.parametrize("name,f,support", _scan_family(),
                             ids=[name for name, _, _ in _scan_family()])
    def test_kernel_matches_single_points(self, moment_curve, name, f, support):
        batched = _extension_values(moment_curve, f, self.KERNEL_POINTS, 16, support)
        single = np.array([extension(moment_curve, f, z, 16, support, check_convergence=False)
                           for z in self.KERNEL_POINTS])
        assert np.array_equal(batched, single)

    def test_kernel_chunk_size_invariant(self, moment_curve, monkeypatch):
        results = []
        for chunk in (1, 7, operators._CHUNK_POINTS):
            monkeypatch.setattr(operators, "_CHUNK_POINTS", chunk)
            results.append([_extension_values(moment_curve, f, self.KERNEL_POINTS, 16, support)
                            for _, f, support in _scan_family()])
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert np.array_equal(a, b)

    def test_n_quad_below_four_rejected(self, moment_curve):
        with pytest.raises(ValueError):
            extension(moment_curve, GAUSS, np.zeros(3), 3, 3.0)

    def test_convergence_failure_raises(self, moment_curve):
        z = np.full(3, 40.0)
        with pytest.raises(NonConvergence):
            extension(moment_curve, UNIT_DISK, z, 4, 1.0)


class TestPQPair:
    def test_theta_family(self):
        pair = PQPair.from_theta(0.5)
        assert pair.p == pytest.approx(6.0 / 3.5)
        assert pair.q == pytest.approx(6.0 / 2.5)

    def test_invalid_theta_pair(self):
        with pytest.raises(ValueError):
            PQPair(p=2.0, q=2.0, theta=0.5)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            PQPair.from_theta(1.5)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build", [
    lambda: PQPair(p=NAN, q=2.0),
    lambda: PQPair(p=2.0, q=NAN),
    lambda: PQPair(p=INF, q=2.0),
    lambda: BallSpec(x=NAN, k_prime=0),
    lambda: BallSpec(x=INF, k_prime=0),
    lambda: MeasurableSet(kind="ball", center=(0, 0, 0), size=NAN),
    lambda: MeasurableSet(kind="ball", center=(0, complex(NAN, 0), 0), size=1.0),
    lambda: MeasurableSet(kind="box", center=(0, 0, INF), size=1.0),
    lambda: GridSpec(half_width=NAN),
    lambda: GridSpec(half_width=INF),
    lambda: GridSpec(-1.0, 0),
    lambda: GridSpec(half_width=1.0, points_per_axis=1),
], ids=["pq-p-nan", "pq-q-nan", "pq-p-inf", "ball-x-nan", "ball-x-inf", "set-size-nan",
        "set-center-nan", "set-center-inf", "grid-nan", "grid-inf", "grid-negative",
        "grid-one-point"])
def test_non_finite_or_empty_input_records_raise(build):
    with pytest.raises(ValueError):
        build()


class TestNormRatioScan:
    def test_scan_shapes_and_endpoint_row(self, moment_curve):
        grid = GridSpec(half_width=3.0, points_per_axis=3)
        family = [("bump", GAUSS, 3.0), ("plateau", UNIT_DISK, 1.0)]
        pairs = [PQPair.from_theta(t) for t in (0.25, 0.5, 0.75)]
        pairs.append(PQPair(p=1.0, q=math.inf))
        table = norm_ratio_scan(moment_curve, pairs, family, grid, n_quad=10,
                                dilations=(0.5, 1.0, 2.0))
        assert len(table["rows"]) == 4 * 2 * 3
        for row in table["rows"]:
            if math.isinf(row["q"]):
                assert row["ratio"] <= 1.0 + 1e-12
        keys = {(f["p"], f["q"], f["function"]) for f in table["flatness"]}
        assert len(keys) == 4 * 2
        for entry in table["flatness"]:
            assert entry["flatness"] >= 1.0

    def test_rows_match_single_point_reference(self, moment_curve):
        grid = GridSpec(half_width=2.5, points_per_axis=2)
        family = _scan_family()
        pairs = [PQPair.from_theta(0.5), PQPair(p=1.0, q=math.inf)]
        dilations = (0.5, 2.0)
        table = norm_ratio_scan(moment_curve, pairs, family, grid, n_quad=8,
                                dilations=dilations)
        reference = []
        for pair in pairs:
            for name, f, support in family:
                for s in dilations:
                    fs = (lambda func, sc: (lambda w: func(sc * w)))(f, s)
                    radius = support / s
                    mags = np.abs(np.array([
                        extension(moment_curve, fs, z, 8, radius, check_convergence=False)
                        for z in grid.points()
                    ]))
                    if math.isinf(pair.q):
                        lq = float(np.max(mags))
                    else:
                        lq = float(np.sum(mags**pair.q * grid.cell_volume) ** (1.0 / pair.q))
                    lp = weighted_lp_norm(moment_curve, fs, pair.p, 8, radius)
                    reference.append({"p": pair.p, "q": pair.q, "theta": pair.theta,
                                      "function": name, "dilation": s, "lq_norm": lq,
                                      "lp_norm": lp, "ratio": lq / lp})
        assert table["rows"] == reference

    def test_extra_pair_adds_no_grid_evaluation(self, moment_curve):
        calls = []

        def counted(w):
            calls.append(w.shape[0])
            return GAUSS(w)

        grid = GridSpec(half_width=2.0, points_per_axis=2)
        dilations = (1.0, 2.0)

        def count_calls(pairs):
            calls.clear()
            norm_ratio_scan(moment_curve, pairs, [("bump", counted, 3.0)], grid,
                            n_quad=8, dilations=dilations)
            return len(calls)

        one = count_calls([PQPair.from_theta(0.5)])
        two = count_calls([PQPair.from_theta(0.5), PQPair(p=1.0, q=math.inf)])
        # The added pair costs one L^p input norm per dilation and nothing
        # per grid point.
        assert two - one == len(dilations)
