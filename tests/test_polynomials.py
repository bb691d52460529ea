import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from curvetorsion import DegreeZero, det2, det3, roots
from curvetorsion.polynomials import ComplexPolynomial, gauss_legendre

from conftest import from_roots, poly


class TestEval:
    def test_root_of_quadratic(self):
        assert poly(1, 0, 1)(1j) == 0

    def test_zero_polynomial(self):
        assert poly(0)(5 + 2j) == 0

    def test_hand_value(self):
        # z^3 - 2z at z = 2
        assert poly(0, -2, 0, 1)(2.0) == 4

    def test_vectorized(self):
        p = poly(1, 2, 3)
        z = np.array([0.0, 1.0, 1j])
        assert np.allclose(p(z), [1, 6, 1 + 2j + 3 * 1j**2])


class TestDerivative:
    def test_cube(self):
        assert poly(0, 0, 0, 1).derivative() == poly(0, 0, 3)

    def test_constant(self):
        d = poly(7).derivative()
        assert d.degree == -1

    def test_hand_derivative(self):
        assert poly(0, 2, 0, 0, 1).derivative() == poly(2, 0, 0, 4)

    def test_linearity_exact(self, rng):
        # integer data keeps every operation exact in floating point
        for _ in range(50):
            p = ComplexPolynomial(rng.integers(-9, 10, 6) + 1j * rng.integers(-9, 10, 6))
            q = ComplexPolynomial(rng.integers(-9, 10, 6) + 1j * rng.integers(-9, 10, 6))
            a, b = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
            lhs = (a * p + b * q).derivative()
            rhs = a * p.derivative() + b * q.derivative()
            assert np.array_equal(lhs.coeffs, rhs.coeffs)


class TestRoots:
    def test_conjugate_pair_order(self):
        rs = roots(poly(1, 0, 1))
        # equal moduli break ties by ascending principal argument
        assert rs.roots == ((-1j, 1), (1j, 1))

    def test_triple_root_clusters(self):
        rs = roots(from_roots(1, [(1, 3)]))
        assert len(rs.roots) == 1
        loc, mult = rs.roots[0]
        assert mult == 3
        assert abs(loc - 1) < 1e-9

    def test_factored_cubic(self):
        rs = roots(from_roots(1, [(0, 1), (1, 1), (4, 1)]))
        locs = rs.locations()
        assert np.allclose(locs, [0, 1, 4], atol=1e-9)
        assert rs.multiplicities() == (1, 1, 1)

    def test_modulus_order(self):
        rs = roots(from_roots(2, [(3, 1), (-0.5, 1), (1j, 1)]))
        mods = np.abs(rs.locations())
        assert np.all(np.diff(mods) >= -1e-12)

    def test_multiplicity_sum(self):
        p = from_roots(1.5, [(0, 2), (2 + 1j, 2), (3, 1)])
        rs = roots(p)
        assert sum(rs.multiplicities()) == p.degree

    def test_cluster_tol_merges(self):
        p = from_roots(1, [(1, 1), (1 + 5e-8, 1)])
        rs = roots(p)
        assert len(rs.roots) == 1 and rs.roots[0][1] == 2

    def test_close_but_distinct_stay_separate(self):
        p = from_roots(1, [(1, 1), (1 + 1e-4, 1)])
        rs = roots(p)
        assert len(rs.roots) == 2

    def test_pairwise_separation_invariant(self):
        rs = roots(from_roots(1, [(0, 1), (0.3, 1), (1j, 2)]))
        locs = rs.locations()
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                assert abs(locs[i] - locs[j]) > 1e-7

    def test_constant_raises(self):
        with pytest.raises(DegreeZero):
            roots(poly(3))

    def test_reconstruction_roundtrip(self, rng):
        for _ in range(25):
            deg = int(rng.integers(2, 7))
            p = ComplexPolynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
            rs = roots(p)
            rec = from_roots(p.coeffs[-1], rs.roots)
            n = max(rec.coeffs.size, p.coeffs.size)
            a = np.zeros(n, complex)
            b = np.zeros(n, complex)
            a[: rec.coeffs.size] = rec.coeffs
            b[: p.coeffs.size] = p.coeffs
            assert np.max(np.abs(a - b)) <= 1e-6 * np.max(np.abs(b))


class TestDeterminants:
    def test_det2_hand(self):
        m = [[poly(1), poly(0)], [poly(0, 2), poly(2)]]
        assert det2(m) == poly(2)

    def test_det3_identity(self):
        one, zero = poly(1), poly(0)
        m = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
        assert det3(m) == poly(1)

    def test_det3_upper_triangular(self):
        m = [
            [poly(1), poly(0, 2), poly(0, 0, 3)],
            [poly(0), poly(2), poly(0, 6)],
            [poly(0), poly(0), poly(6)],
        ]
        assert det3(m) == poly(12)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (0, 2)])
    def test_det3_equal_rows_exact_zero(self, pair, rng):
        rows = [
            [ComplexPolynomial(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(3)]
            for _ in range(3)
        ]
        i, j = pair
        rows[j] = rows[i]
        assert det3(rows).degree == -1


class TestProperties:
    def test_eval_product_property(self, rng):
        for _ in range(20):
            dp, dq = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            p = ComplexPolynomial(rng.normal(size=dp + 1) + 1j * rng.normal(size=dp + 1))
            q = ComplexPolynomial(rng.normal(size=dq + 1) + 1j * rng.normal(size=dq + 1))
            z = (rng.normal(size=100) + 1j * rng.normal(size=100)) * 0.8
            z = z[np.abs(z) <= 2]
            lhs = (p * q)(z)
            rhs = p(z) * q(z)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs) + 1)

    def test_json_roundtrip(self):
        p = poly(1 + 2j, 0, -3.5)
        assert ComplexPolynomial.from_json(p.to_json()) == p

    @pytest.mark.parametrize("zero", [-0.0, complex(0.0, -0.0), complex(-0.0, -0.0)])
    def test_signed_zeros_hash_alike(self, zero):
        a, b = ComplexPolynomial([0.0, 1.0]), ComplexPolynomial([zero, 1.0])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [4, 12, 16, 24, 32, 48, 64, 96])
    def test_bitwise_leggauss(self, n):
        x, w = gauss_legendre(n)
        ref_x, ref_w = leggauss(n)
        assert x.tobytes() == ref_x.tobytes()
        assert w.tobytes() == ref_w.tobytes()

    def test_shared_and_read_only(self):
        x, w = gauss_legendre(8)
        assert gauss_legendre(8)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
