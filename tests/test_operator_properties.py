"""Property tests of the batched extension kernel and the streamed Monte Carlo
sampler."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from curvetorsion import MeasurableSet, extension, pairing, weighted_l1_mass
from curvetorsion import operators
from curvetorsion.cli import _scan_family
from curvetorsion.operators import _extension_values

from conftest import reference_pairing

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


@settings(max_examples=40, deadline=None, database=None)
@given(chunk=st.integers(min_value=1, max_value=64), data=st.data(),
       seed=st.integers(min_value=0, max_value=2**63 - 1),
       e_kind=st.sampled_from(["ball", "box"]), f_kind=st.sampled_from(["ball", "box"]))
def test_streamed_pairing_matches_whole_draws(moment_curve, chunk, data, seed, e_kind, f_kind):
    n = data.draw(st.integers(min_value=1, max_value=3 * chunk + 2))
    E = MeasurableSet(kind=e_kind, center=(0.1, 0.2j, 0), size=1.0)
    F = MeasurableSet(kind=f_kind, center=(0, 0.3, 0.1j), size=0.8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_CHUNK_SAMPLES", chunk)
        rep = pairing(moment_curve, E, F, 1.0, n, seed)
    _, est, stderr = reference_pairing(moment_curve, E, F, 1.0, n, seed)
    assert (rep.pairing.hex(), rep.mc_stderr.hex()) == (est.hex(), stderr.hex())
