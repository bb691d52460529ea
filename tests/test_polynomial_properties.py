"""Property tests of root extraction (multiplicity recovery) and of
polynomial subtraction."""

import cmath
import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from curvetorsion.polynomials import ComplexPolynomial, roots

from conftest import from_roots

parts = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
root_lists = st.lists(
    st.tuples(st.builds(complex, parts, parts), st.integers(min_value=1, max_value=3)),
    min_size=1,
    max_size=4,
).filter(lambda rs: all(abs(a - b) >= 0.5 for (a, _), (b, _) in itertools.combinations(rs, 2)))
leads = st.builds(
    cmath.rect,
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-cmath.pi, max_value=cmath.pi),
)


@settings(max_examples=100, deadline=None, database=None)
@given(lead=leads, rs=root_lists)
def test_from_roots_recovers_roots_and_multiplicities(lead, rs):
    found = roots(from_roots(lead, rs)).roots
    assert len(found) == len(rs)
    for r, mult in rs:
        near = [(z, m) for z, m in found if abs(z - r) <= 1e-6 * (1.0 + abs(r))]
        assert len(near) == 1 and near[0][1] == mult, (r, mult, found)


# Signed zeros are frequent draws, so sign-of-zero differences show up.
values = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
)
coeff_lists = st.lists(st.builds(complex, values, values), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None, database=None)
@given(a=coeff_lists, b=coeff_lists)
def test_difference_is_the_elementwise_one(a, b):
    # The zero polynomial negates to a +0 constant: the one documented
    # exception in ComplexPolynomial.__sub__.
    p, q = ComplexPolynomial(a), ComplexPolynomial(b)
    assume(q.degree >= 0)
    out = np.zeros(max(p.coeffs.size, q.coeffs.size), dtype=np.complex128)
    out[: p.coeffs.size] = p.coeffs
    out[: q.coeffs.size] -= q.coeffs
    assert (p - q).coeffs.tobytes() == ComplexPolynomial(out).coeffs.tobytes()
