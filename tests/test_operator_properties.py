"""Property tests of the batched extension kernel."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from curvetorsion import extension, weighted_l1_mass
from curvetorsion import operators
from curvetorsion.cli import _scan_family
from curvetorsion.operators import _extension_values

N_QUAD = 12

coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
point_sets = st.lists(st.tuples(*([coords] * 6)), min_size=1, max_size=20).map(
    lambda rows: np.array(rows)[:, :3] + 1j * np.array(rows)[:, 3:]
)


@settings(max_examples=60, deadline=None, database=None)
@given(zs=point_sets, chunk=st.integers(min_value=1, max_value=32),
       index=st.integers(min_value=0, max_value=2))
def test_batched_values_match_single_points_and_respect_mass(moment_curve, zs, chunk, index):
    _, f, support = _scan_family()[index]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_CHUNK_POINTS", chunk)
        batched = _extension_values(moment_curve, f, zs, N_QUAD, support)
    single = np.array([extension(moment_curve, f, z, N_QUAD, support, check_convergence=False)
                       for z in zs])
    assert np.array_equal(batched, single)
    mass = weighted_l1_mass(moment_curve, f, N_QUAD, support)
    assert np.all(np.abs(batched) <= mass * (1 + 1e-12))
