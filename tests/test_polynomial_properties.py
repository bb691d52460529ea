"""Property test of root extraction: multiplicity recovery."""

import cmath
import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from curvetorsion.polynomials import ComplexPolynomial, roots

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
    found = roots(ComplexPolynomial.from_roots(lead, rs)).roots
    assert len(found) == len(rs)
    for r, mult in rs:
        near = [(z, m) for z, m in found if abs(z - r) <= 1e-6 * (1.0 + abs(r))]
        assert len(near) == 1 and near[0][1] == mult, (r, mult, found)
