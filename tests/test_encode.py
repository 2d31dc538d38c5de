"""The fused encoder against the ops it replaces in the model: two chained
``convlstm3d_step`` calls from the zero state, then ``maxpool3d``.

``encode`` runs the same cell and pool code one sample at a time, so its
forward is bit-identical to the composition; its backward sums the kernel
and bias gradients over the samples, so with more than one sample they may
differ in the last bits.
"""

import numpy as np
import pytest

from longipet import autodiff as ad
from longipet.errors import ShapeError
from longipet.model import I2IModelConfig, forward_batch, init_model

from gradcheck import check_op, traced, weighted_sum

DIMS = (4, 6, 2)
CIN, FILTERS = 1, 3


def composed_encode(x0, x1, kernel, bias):
    h, c = ad.convlstm3d_step(x0, None, None, kernel, bias)
    h, c = ad.convlstm3d_step(x1, h, c, kernel, bias)
    return ad.maxpool3d(h, 2)


def _case(n, k, seed=1):
    r = np.random.default_rng((23, n, k, seed))
    shape = (n,) + DIMS + (CIN,)
    pooled = (n,) + tuple(d // 2 for d in DIMS) + (FILTERS,)
    return {
        "x0": r.normal(size=shape),
        "x1": r.normal(size=shape),
        "kernel": 0.4 * r.normal(size=(k, k, k, CIN + FILTERS, 4 * FILTERS)),
        "bias": 0.1 * r.normal(size=4 * FILTERS),
        "w": r.normal(size=pooled),
    }


def _run(op, case, grad):
    kernel, bias = ad.Tensor(case["kernel"]), ad.Tensor(case["bias"])
    if not grad:
        with ad.no_grad():
            return [op(case["x0"], case["x1"], kernel, bias).data]
    out = op(case["x0"], case["x1"], kernel, bias)
    weighted_sum(out, case["w"]).backward()
    return [out.data, kernel.grad, bias.grad]


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [1, 3])
def test_encode_matches_two_steps_and_pool(n, k, grad):
    case = _case(n, k)
    got = _run(ad.encode, case, grad)
    want = _run(composed_encode, case, grad)
    assert len(got) == len(want)
    assert got[0].shape == (n,) + tuple(d // 2 for d in DIMS) + (FILTERS,)
    assert np.array_equal(got[0], want[0])
    for a, b in zip(got[1:], want[1:]):
        assert a.shape == b.shape
        if n == 1:
            assert np.array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


def test_encode_is_one_node_over_kernel_and_bias():
    case = _case(2, 3)
    kernel, bias = ad.Tensor(case["kernel"]), ad.Tensor(case["bias"])
    out = ad.encode(case["x0"], case["x1"], kernel, bias)
    assert out._parents == (kernel, bias)
    with ad.no_grad():
        assert ad.encode(case["x0"], case["x1"], kernel, bias)._parents == ()


def test_encode_gradients_numeric():
    case = _case(2, 3, seed=2)
    check_op(lambda kernel, bias: weighted_sum(
        ad.encode(case["x0"], case["x1"], kernel, bias), case["w"]),
        [case["kernel"], case["bias"]])


@pytest.mark.parametrize("bad", ["odd dims", "frames differ", "kernel"])
def test_encode_bad_shapes_raise(bad):
    case = _case(1, 3)
    x0, x1, kernel = case["x0"], case["x1"], case["kernel"]
    if bad == "odd dims":
        x0, x1 = x0[:, 1:], x1[:, 1:]
    elif bad == "frames differ":
        x1 = x1[:, :2]
    else:
        kernel = kernel[..., :-1, :]
    with pytest.raises(ShapeError):
        ad.encode(x0, x1, kernel, case["bias"])


def test_maxpool_keeps_only_the_argmax_for_its_backward():
    # What a grad-mode pool holds after its forward is its output and one
    # uint8 argmax per output element: 9/64 of the input's bytes.
    x = ad.Tensor(np.random.default_rng(3).normal(size=(2, 16, 16, 16, 4)))
    out, held, _ = traced(lambda: ad.maxpool3d(x))
    assert held <= x.data.nbytes * 9 // 64 + (16 << 10)
    ad.tensor_sum(out).backward()
    assert x.grad.sum() == out.size


def _no_grad_peak(config, params, n):
    r = np.random.default_rng(n)
    f0, f1 = (r.uniform(0.5, 1.5, size=(n,) + config.dims) for _ in range(2))
    with ad.no_grad():
        peak = traced(lambda: forward_batch(params, f0, f1, config, mode="train"))[2]
    return peak / 2 ** 20


def test_no_grad_forward_peak_does_not_grow_with_the_batch():
    # encode holds one sample's full-resolution state at a time, and the
    # head runs at pooled resolution, so a second sample adds only its
    # pooled-size tensors: about 1.2 MiB at 40x48x40.  The growth is bounded
    # directly, not as a share of the batch-1 peak, which shrinks as the
    # encoder's slab buffers do.
    config = I2IModelConfig(dims=(40, 48, 40), lstm_filters=16, decoder_filters=32)
    params = init_model(config, seed=0)
    small = I2IModelConfig(dims=(4, 4, 4))
    _no_grad_peak(small, init_model(small, seed=0), 1)  # numpy's lazy set-up
    one = _no_grad_peak(config, params, 1)
    two = _no_grad_peak(config, params, 2)
    assert two - one <= 1.45, f"batch 2 peaks at {two:.2f} MiB, batch 1 at {one:.2f} MiB"
    assert two <= 14.0, f"batch 2 peaks at {two:.1f} MiB"
