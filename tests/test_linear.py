"""Voxelwise linear extrapolation baseline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from longipet.errors import ShapeError
from longipet.linear import predict_linear
from longipet.volume_io import Volume3D

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(
    a=arrays(np.float64, (3, 3, 3), elements=finite),
    b=arrays(np.float64, (3, 3, 3), elements=finite),
)
def test_formula_is_two_prev1_minus_prev2(a, b):
    out = predict_linear(Volume3D(a), Volume3D(b))
    np.testing.assert_array_equal(out.data, 2.0 * b - a)


@settings(max_examples=30, deadline=None)
@given(
    base=arrays(np.float64, (2, 2, 2), elements=st.floats(-100, 100)),
    slope=arrays(np.float64, (2, 2, 2), elements=st.floats(-10, 10)),
)
def test_exact_on_linear_trajectories(base, slope):
    y0 = Volume3D(base)
    y1 = Volume3D(base + slope)
    y2 = predict_linear(y0, y1)
    np.testing.assert_allclose(y2.data, base + 2.0 * slope, atol=1e-9)
    # and it stays exact under recursion
    y3 = predict_linear(y1, y2)
    np.testing.assert_allclose(y3.data, base + 3.0 * slope, atol=1e-9)


def test_constant_input_is_fixed_point():
    v = Volume3D(np.full((4, 4, 4), 1.3))
    out = predict_linear(v, Volume3D(v.data.copy()))
    np.testing.assert_array_equal(out.data, v.data)


def test_affine_equivariance():
    # scaling and shifting both inputs scales and shifts the prediction
    r = np.random.default_rng(0)
    a, b = r.normal(size=(2, 4, 4, 4)) + 2.0
    plain = predict_linear(Volume3D(a), Volume3D(b)).data
    moved = predict_linear(Volume3D(3.0 * a + 1.0), Volume3D(3.0 * b + 1.0)).data
    np.testing.assert_allclose(moved, 3.0 * plain + 1.0, atol=1e-12)


def test_clamp_floors_at_zero():
    a = Volume3D(np.full((2, 2, 2), 1.0))
    b = Volume3D(np.full((2, 2, 2), 0.2))
    raw = predict_linear(a, b)
    np.testing.assert_allclose(raw.data, -0.6)
    clamped = predict_linear(a, b, clamp_nonnegative=True)
    np.testing.assert_array_equal(clamped.data, 0.0)


def test_clamp_leaves_positive_untouched():
    r = np.random.default_rng(1)
    a = Volume3D(r.uniform(0.5, 1.0, size=(3, 3, 3)))
    b = Volume3D(r.uniform(1.5, 2.0, size=(3, 3, 3)))
    np.testing.assert_array_equal(
        predict_linear(a, b, clamp_nonnegative=True).data,
        predict_linear(a, b).data,
    )


def test_prediction_carries_recent_affine():
    aff1 = np.diag([1.0, 1.0, 1.0, 1.0])
    aff2 = np.diag([2.0, 2.0, 2.0, 1.0])
    out = predict_linear(
        Volume3D(np.ones((2, 2, 2)), aff1), Volume3D(np.ones((2, 2, 2)), aff2)
    )
    np.testing.assert_array_equal(out.affine, aff2)


def test_dim_mismatch():
    with pytest.raises(ShapeError):
        predict_linear(Volume3D(np.ones((2, 2, 2))), Volume3D(np.ones((2, 2, 4))))


@pytest.mark.parametrize("clamp", [False, True])
def test_prediction_allocates_only_its_output(clamp):
    r = np.random.default_rng(4)
    a, b = (Volume3D(r.normal(size=(24, 20, 16))) for _ in range(2))
    saved = a.data.copy(), b.data.copy()
    predict_linear(a, b, clamp_nonnegative=clamp)  # imports and caches
    tracemalloc.start()
    try:
        out = predict_linear(a, b, clamp_nonnegative=clamp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = 2.0 * b.data - a.data
    np.testing.assert_array_equal(out.data, np.maximum(want, 0.0) if clamp else want)
    np.testing.assert_array_equal(a.data, saved[0])
    np.testing.assert_array_equal(b.data, saved[1])
    # The output, its bool finiteness check and the affine; no second volume.
    assert peak < 1.25 * a.data.nbytes, peak
