"""The gate logistic and the 2x pool's forward, against the library and
numpy expressions they replaced."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from longipet import autodiff as ad
from longipet.errors import ShapeError


def test_sigmoid_within_4_ulp_of_expit():
    r = np.random.default_rng(17)
    v = np.concatenate([np.linspace(-800.0, 800.0, 1_000_001), r.uniform(-40.0, 40.0, 10**6)])
    want = expit(v)
    got = ad._sigmoid(v.copy())
    assert (np.abs(got - want) / np.spacing(np.abs(want))).max() <= 4


EDGES = np.array([np.inf, -np.inf, 800.0, -800.0, 0.0, -0.0, np.nan])
EDGE_VALUES = np.array([1.0, 0.0, 1.0, 0.0, 0.5, 0.5, np.nan])


def test_sigmoid_edge_values_without_warnings():
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        helper = ad._sigmoid(EDGES.copy())
        op = ad.sigmoid(ad.Tensor(EDGES)).data
    for got in (helper, op):
        assert np.array_equal(got, EDGE_VALUES, equal_nan=True)


def _encode_case(bias_scale):
    r = np.random.default_rng(4)
    nf, cin = 2, 1
    frames = [r.normal(size=(2, 4, 4, 4, cin)) for _ in range(2)]
    kernel = 0.3 * r.normal(size=(3, 3, 3, cin + nf, 4 * nf))
    bias = bias_scale * np.where(np.arange(4 * nf) % 2, 1.0, -1.0)
    return frames, kernel, bias


@pytest.mark.parametrize("grad", [False, True])
def test_saturated_gates_neither_warn_nor_raise(grad):
    # Gate pre-activations of +-800 drive exp(-v) past overflow and underflow.
    (f0, f1), kernel, bias = _encode_case(800.0)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        if grad:
            out = ad.encode(f0, f1, ad.Tensor(kernel), ad.Tensor(bias))
        else:
            with ad.no_grad():
                out = ad.encode(f0, f1, kernel, bias)
    assert np.all(np.isfinite(out.data))


def test_encode_leaves_the_error_settings_as_it_found_them():
    (f0, f1), kernel, bias = _encode_case(0.1)
    before = np.geterr()
    ad.encode(f0, f1, kernel, bias)
    assert np.geterr() == before
    with pytest.raises(ShapeError):
        ad.encode(f0, f1[:, :2], kernel, bias)
    assert np.geterr() == before


def take_along_pool(x):
    # The argmax-then-gather pool the strided maxima replaced.
    n, a, b, c, ch = x.shape
    cells = x.reshape(n, a // 2, 2, b // 2, 2, c // 2, 2, ch)
    flat = cells.transpose(0, 1, 3, 5, 7, 6, 4, 2).reshape(n, a // 2, b // 2, c // 2, ch, 8)
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def _pool_input(kind):
    r = np.random.default_rng(8)
    shape = (2, 4, 6, 4, 3)
    if kind == "random":
        return r.normal(size=shape)
    x = r.integers(0, 2, size=shape).astype(np.float64)  # most cells tie
    if kind == "nan":
        x[0, 1, 2, 3, 1] = np.nan
        x[1, 2, 4, 0, 0] = np.nan
    return x


@pytest.mark.parametrize("kind", ["random", "ties", "nan"])
def test_pool_without_argmax_matches_the_gather(kind):
    x = _pool_input(kind)
    plain, none = ad._pool2(x, False)
    kept, idx = ad._pool2(x, True)
    want, want_idx = take_along_pool(x)
    assert none is None
    assert idx.dtype == np.uint8 and np.array_equal(idx, want_idx)
    for got in (plain, kept):
        assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(plain).sum() == (2 if kind == "nan" else 0)
