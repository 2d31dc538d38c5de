"""Gradient and serialization tests for the autodiff engine.

Every operation is checked against central-difference numeric gradients
on several shapes, and the convolution pair is additionally checked
against an explicit dense-matrix oracle built from basis vectors.
"""

import numpy as np
import pytest

from longipet import autodiff as ad
from longipet.errors import FormatError, ParameterError, ShapeError, StateError

from gradcheck import check_op, max_rel_err, numeric_gradient, traced, weighted_sum


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng((1234, tag))


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

ARITH_SHAPES = [
    ((), ()),
    ((5,), (5,)),
    ((3, 4), (3, 4)),
    ((2, 1, 4), (2, 3, 4)),   # broadcast on the middle axis
    ((4,), (2, 3, 4)),        # broadcast by rank
    ((2, 3, 1), (1, 3, 5)),   # two-sided broadcast
]


@pytest.mark.parametrize("sa,sb", ARITH_SHAPES)
@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
def test_arith_gradients(op, sa, sb):
    r = rng_for(1)
    a = r.normal(size=sa)
    b = r.normal(size=sb) + 3.0  # keep divisors away from zero
    out_shape = np.broadcast_shapes(sa, sb)
    w = r.normal(size=out_shape)
    check_op(lambda x, y: weighted_sum(op(x, y), w), [a, b])


@pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 3, 2), (1,), (4, 1, 3)])
def test_sqrt_gradient(shape):
    r = rng_for(2)
    a = r.uniform(0.5, 4.0, size=shape)
    w = r.normal(size=shape)
    check_op(lambda x: weighted_sum(ad.sqrt(x), w), [a])


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(6,), (2, 5), (2, 2, 3), (3, 1), (1, 2, 2, 2)])
@pytest.mark.parametrize("op", [ad.relu, ad.tanh, ad.sigmoid])
def test_activation_gradients(op, shape):
    r = rng_for(4)
    a = r.normal(size=shape)
    a = np.where(np.abs(a) < 0.1, 0.25, a)  # keep relu inputs off the kink
    w = r.normal(size=shape)
    check_op(lambda x: weighted_sum(op(x), w), [a])


def test_sigmoid_stable_in_both_tails():
    big = ad.sigmoid(ad.Tensor(np.array([800.0, -800.0])))
    assert np.all(np.isfinite(big.data))
    np.testing.assert_allclose(big.data, [1.0, 0.0], atol=1e-300)


def test_relu_zeroes_negatives_exactly():
    out = ad.relu(ad.Tensor(np.array([-2.0, -1e-12, 0.0, 1e-12, 3.0])))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0, 1e-12, 3.0])


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("axis,keepdims", [
    (None, False), (0, False), (1, True), ((0, 2), False), ((1, 3), True),
])
@pytest.mark.parametrize("op", [ad.mean, ad.tensor_sum])
def test_reduction_gradients(op, axis, keepdims):
    r = rng_for(5)
    a = r.normal(size=(2, 3, 2, 4))
    probe = op(ad.Tensor(a), axis=axis, keepdims=keepdims)
    w = r.normal(size=probe.shape)
    check_op(lambda x: weighted_sum(op(x, axis=axis, keepdims=keepdims), w), [a])


def test_mean_value_matches_numpy():
    r = rng_for(6)
    a = r.normal(size=(3, 4, 5))
    np.testing.assert_allclose(
        ad.mean(ad.Tensor(a), axis=(0, 2)).data, a.mean(axis=(0, 2))
    )
    np.testing.assert_allclose(ad.tensor_sum(ad.Tensor(a)).data, a.sum())


# ---------------------------------------------------------------------------
# channel concat / narrow
# ---------------------------------------------------------------------------

def test_concat_narrow_roundtrip_and_gradients():
    r = rng_for(7)
    a = r.normal(size=(2, 3, 2))
    b = r.normal(size=(2, 3, 4))
    cat = ad.concat_channels(ad.Tensor(a), ad.Tensor(b))
    np.testing.assert_array_equal(cat.data, np.concatenate([a, b], axis=-1))
    back = ad.narrow_channels(cat, 2, 4)
    np.testing.assert_array_equal(back.data, b)

    w = r.normal(size=(2, 3, 6))
    check_op(lambda x, y: weighted_sum(ad.concat_channels(x, y), w), [a, b])
    w2 = r.normal(size=(2, 3, 3))
    check_op(lambda x: weighted_sum(ad.narrow_channels(x, 1, 3), w2), [b])


def test_concat_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        ad.concat_channels(ad.Tensor(np.zeros((2, 3, 1))), ad.Tensor(np.zeros((2, 4, 1))))


# ---------------------------------------------------------------------------
# conv3d and its adjoint
# ---------------------------------------------------------------------------

def conv3d_reference(x, w, b=None):
    """Direct six-loop same-padding correlation used as the oracle."""
    n, a, bb, c, ci = x.shape
    k = w.shape[0]
    co = w.shape[4]
    p = k // 2
    out = np.zeros((n, a, bb, c, co))
    for ii in range(a):
        for jj in range(bb):
            for ll in range(c):
                for di in range(k):
                    for dj in range(k):
                        for dl in range(k):
                            si, sj, sl = ii + di - p, jj + dj - p, ll + dl - p
                            if 0 <= si < a and 0 <= sj < bb and 0 <= sl < c:
                                out[:, ii, jj, ll, :] += x[:, si, sj, sl, :] @ w[di, dj, dl]
    if b is not None:
        out = out + b
    return out


@pytest.mark.parametrize("shape,k,co", [
    ((2, 4, 5, 3, 2), 3, 2),
    ((1, 3, 3, 3, 1), 3, 3),
    ((2, 2, 4, 2, 3), 1, 2),
    ((1, 5, 2, 4, 2), 3, 1),
    ((1, 4, 4, 4, 1), 5, 1),
])
def test_conv3d_forward_matches_reference(shape, k, co):
    r = rng_for(8)
    x = r.normal(size=shape)
    w = r.normal(size=(k, k, k, shape[4], co))
    b = r.normal(size=co)
    out = ad.conv3d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
    np.testing.assert_allclose(out.data, conv3d_reference(x, w, b), atol=1e-12)


@pytest.mark.parametrize("shape,k,co", [
    ((1, 3, 3, 3, 2), 3, 2),
    ((2, 2, 2, 2, 1), 1, 2),
    ((1, 4, 2, 3, 1), 3, 1),
])
def test_conv3d_gradients(shape, k, co):
    r = rng_for(9)
    x = r.normal(size=shape)
    w = r.normal(size=(k, k, k, shape[4], co))
    b = r.normal(size=co)
    ww = r.normal(size=shape[:4] + (co,))
    check_op(lambda xx, kk, bb: weighted_sum(ad.conv3d(xx, kk, bb), ww), [x, w, b])


@pytest.mark.parametrize("shape,k,co", [
    ((1, 3, 3, 3, 2), 3, 2),
    ((2, 2, 2, 2, 2), 1, 1),
    ((1, 2, 4, 2, 1), 3, 2),
])
def test_conv_transpose3d_gradients(shape, k, co):
    r = rng_for(10)
    x = r.normal(size=shape)
    w = r.normal(size=(k, k, k, co, shape[4]))  # (k,k,k,out,in)
    b = r.normal(size=co)
    ww = r.normal(size=shape[:4] + (co,))
    check_op(lambda xx, kk, bb: weighted_sum(ad.conv_transpose3d(xx, kk, bb), ww), [x, w, b])


def test_conv_transpose_is_exact_adjoint_inner_product():
    # <conv(x), y> == <x, conv_transpose(y)> with the same kernel array.
    r = rng_for(11)
    ci, co = 2, 3
    x = r.normal(size=(1, 4, 3, 4, ci))
    y = r.normal(size=(1, 4, 3, 4, co))
    w = r.normal(size=(3, 3, 3, ci, co))
    ax = ad.conv3d(ad.Tensor(x), ad.Tensor(w)).data
    aty = ad.conv_transpose3d(ad.Tensor(y), ad.Tensor(w)).data
    np.testing.assert_allclose(np.sum(ax * y), np.sum(x * aty), rtol=1e-12)


def test_conv_transpose_matches_explicit_matrix_transpose():
    # Build the dense matrix of conv3d on a 4x4x4 single-channel grid from
    # basis vectors, then compare conv_transpose3d against its transpose.
    r = rng_for(12)
    dims = (4, 4, 4)
    size = 4 * 4 * 4
    w = r.normal(size=(3, 3, 3, 1, 1))
    mat = np.zeros((size, size))
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        out = ad.conv3d(ad.Tensor(e.reshape(1, *dims, 1)), ad.Tensor(w)).data
        mat[:, j] = out.ravel()
    yvec = r.normal(size=size)
    expected = mat.T @ yvec
    got = ad.conv_transpose3d(ad.Tensor(yvec.reshape(1, *dims, 1)), ad.Tensor(w)).data
    np.testing.assert_allclose(got.ravel(), expected, atol=1e-12)


def test_conv3d_shape_errors():
    x = ad.Tensor(np.zeros((1, 4, 4, 4, 2)))
    with pytest.raises(ShapeError):
        ad.conv3d(x, ad.Tensor(np.zeros((2, 2, 2, 2, 1))))  # even kernel
    with pytest.raises(ShapeError):
        ad.conv3d(x, ad.Tensor(np.zeros((3, 3, 3, 3, 1))))  # channel mismatch
    with pytest.raises(ShapeError):
        ad.conv3d(x, ad.Tensor(np.zeros((3, 3, 3, 2, 4))), ad.Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# pooling / upsampling
# ---------------------------------------------------------------------------

def test_maxpool_forward_matches_reference():
    r = rng_for(13)
    x = r.normal(size=(2, 4, 6, 2, 3))
    out = ad.maxpool3d(ad.Tensor(x)).data
    ref = x.reshape(2, 2, 2, 3, 2, 1, 2, 3).max(axis=(2, 4, 6))
    np.testing.assert_array_equal(out, ref)


def test_maxpool_gradient_numeric():
    # A permutation guarantees distinct cell values, keeping the numeric
    # derivative away from max ties.
    r = rng_for(14)
    vals = r.permutation(2 * 4 * 4 * 2 * 2).astype(np.float64)
    x = vals.reshape(2, 4, 4, 2, 2)
    w = r.normal(size=(2, 2, 2, 1, 2))
    check_op(lambda xx: weighted_sum(ad.maxpool3d(xx), w), [x])


def test_maxpool_tie_routes_to_first_x_fastest():
    x = np.zeros((1, 2, 2, 2, 1))
    x[0, 1, 0, 0, 0] = 5.0  # scan position dx=1: earliest of the two maxima
    x[0, 0, 1, 0, 0] = 5.0  # scan position dy=1 comes later in x-fastest order
    t = ad.Tensor(x)
    out = ad.maxpool3d(t)
    loss = ad.tensor_sum(out)
    loss.backward()
    expected = np.zeros_like(x)
    expected[0, 1, 0, 0, 0] = 1.0
    np.testing.assert_array_equal(t.grad, expected)


def test_maxpool_all_equal_routes_to_origin_corner():
    t = ad.Tensor(np.ones((1, 2, 2, 2, 1)))
    ad.tensor_sum(ad.maxpool3d(t)).backward()
    expected = np.zeros((1, 2, 2, 2, 1))
    expected[0, 0, 0, 0, 0] = 1.0
    np.testing.assert_array_equal(t.grad, expected)


def test_maxpool_odd_dims_raise():
    with pytest.raises(ShapeError):
        ad.maxpool3d(ad.Tensor(np.zeros((1, 3, 4, 4, 1))))


def test_upsample_forward_and_gradient():
    r = rng_for(15)
    x = r.normal(size=(1, 2, 3, 2, 2))
    out = ad.upsample_nn(ad.Tensor(x)).data
    assert out.shape == (1, 4, 6, 4, 2)
    ref = np.repeat(np.repeat(np.repeat(x, 2, axis=1), 2, axis=2), 2, axis=3)
    np.testing.assert_array_equal(out, ref)
    w = r.normal(size=(1, 4, 6, 4, 2))
    check_op(lambda xx: weighted_sum(ad.upsample_nn(xx), w), [x])


def test_upsample_then_pool_of_distinct_is_identity():
    r = rng_for(16)
    x = r.permutation(8).astype(np.float64).reshape(1, 2, 2, 2, 1)
    round_trip = ad.maxpool3d(ad.upsample_nn(ad.Tensor(x))).data
    np.testing.assert_array_equal(round_trip, x)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def test_batchnorm_train_normalizes_per_channel():
    r = rng_for(17)
    x = r.normal(loc=3.0, scale=2.0, size=(2, 4, 4, 2, 3))
    stats = {}
    out = ad.batchnorm(
        ad.Tensor(x), ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)), stats, mode="train"
    ).data
    mu = out.mean(axis=(0, 1, 2, 3))
    var = out.var(axis=(0, 1, 2, 3))
    raw_var = x.var(axis=(0, 1, 2, 3))
    np.testing.assert_allclose(mu, 0.0, atol=1e-12)
    # the eps in the denominator shrinks the variance slightly below 1
    np.testing.assert_allclose(var, raw_var / (raw_var + 1e-3), rtol=1e-10)


def test_batchnorm_running_stats_follow_ema():
    r = rng_for(18)
    x = r.normal(loc=1.5, scale=0.7, size=(3, 2, 2, 2, 2))
    stats = {}
    ad.batchnorm(ad.Tensor(x), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)),
                 stats, mode="train")
    mu1 = x.mean(axis=(0, 1, 2, 3))
    var1 = x.var(axis=(0, 1, 2, 3))
    # the first batch seeds the running estimates outright
    np.testing.assert_allclose(stats["bn.mean"], mu1, rtol=1e-12)
    np.testing.assert_allclose(stats["bn.var"], var1, rtol=1e-12)

    y = r.normal(size=(3, 2, 2, 2, 2))
    ad.batchnorm(ad.Tensor(y), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)),
                 stats, mode="train")
    mu2 = y.mean(axis=(0, 1, 2, 3))
    np.testing.assert_allclose(stats["bn.mean"], 0.99 * mu1 + 0.01 * mu2, rtol=1e-12)
    var2 = y.var(axis=(0, 1, 2, 3))
    np.testing.assert_allclose(stats["bn.var"], 0.99 * var1 + 0.01 * var2, rtol=1e-12)


def test_batchnorm_infer_uses_running_stats():
    stats = {"bn.mean": np.array([2.0]), "bn.var": np.array([4.0])}
    x = np.full((1, 2, 2, 2, 1), 4.0)
    out = ad.batchnorm(
        ad.Tensor(x), ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)), stats, mode="infer"
    ).data
    np.testing.assert_allclose(out, (4.0 - 2.0) / np.sqrt(4.0 + 1e-3))


def test_batchnorm_infer_before_train_raises():
    with pytest.raises(StateError):
        ad.batchnorm(
            ad.Tensor(np.zeros((1, 2, 2, 2, 1))),
            ad.Tensor(np.ones(1)),
            ad.Tensor(np.zeros(1)),
            {},
            mode="infer",
        )


def test_batchnorm_gradients():
    r = rng_for(19)
    x = r.normal(size=(2, 2, 2, 2, 2))
    gamma = r.uniform(0.5, 1.5, size=2)
    beta = r.normal(size=2)
    w = r.normal(size=(2, 2, 2, 2, 2))

    def build(xx, gg, bb):
        return weighted_sum(ad.batchnorm(xx, gg, bb, {}, mode="train"), w)

    check_op(build, [x, gamma, beta])


def test_batchnorm_infer_gradients():
    r = rng_for(20)
    stats = {"bn.mean": r.normal(size=2), "bn.var": r.uniform(0.5, 2.0, size=2)}
    x = r.normal(size=(1, 2, 2, 2, 2))
    gamma = r.uniform(0.5, 1.5, size=2)
    beta = r.normal(size=2)
    w = r.normal(size=(1, 2, 2, 2, 2))

    def build(xx, gg, bb):
        return weighted_sum(ad.batchnorm(xx, gg, bb, dict(stats), mode="infer"), w)

    check_op(build, [x, gamma, beta])


# ---------------------------------------------------------------------------
# ConvLSTM step
# ---------------------------------------------------------------------------

def _sigmoid_np(v):
    return 1.0 / (1.0 + np.exp(-v))


def test_convlstm_step_matches_reference():
    r = rng_for(21)
    filters, cin = 2, 1
    x = r.normal(size=(2, 3, 3, 3, cin))
    h0 = r.normal(size=(2, 3, 3, 3, filters))
    c0 = r.normal(size=(2, 3, 3, 3, filters))
    kern = r.normal(size=(3, 3, 3, cin + filters, 4 * filters))
    bias = r.normal(size=4 * filters)
    h, c = ad.convlstm3d_step(
        ad.Tensor(x), ad.Tensor(h0), ad.Tensor(c0), ad.Tensor(kern), ad.Tensor(bias)
    )
    gates = conv3d_reference(np.concatenate([x, h0], axis=-1), kern, bias)
    i = _sigmoid_np(gates[..., 0:filters])
    f = _sigmoid_np(gates[..., filters : 2 * filters])
    g = np.tanh(gates[..., 2 * filters : 3 * filters])
    o = _sigmoid_np(gates[..., 3 * filters : 4 * filters])
    c_ref = f * c0 + i * g
    h_ref = o * np.tanh(c_ref)
    np.testing.assert_allclose(c.data, c_ref, atol=1e-12)
    np.testing.assert_allclose(h.data, h_ref, atol=1e-12)


def test_convlstm_step_gradients():
    r = rng_for(22)
    filters, cin = 1, 1
    x = r.normal(size=(1, 2, 2, 2, cin))
    h0 = r.normal(size=(1, 2, 2, 2, filters))
    c0 = r.normal(size=(1, 2, 2, 2, filters))
    kern = r.normal(size=(3, 3, 3, cin + filters, 4 * filters)) * 0.4
    bias = r.normal(size=4 * filters) * 0.1
    wh = r.normal(size=(1, 2, 2, 2, filters))
    wc = r.normal(size=(1, 2, 2, 2, filters))

    def build(xx, hh, cc, kk, bb):
        h, c = ad.convlstm3d_step(xx, hh, cc, kk, bb)
        return ad.add(weighted_sum(h, wh), weighted_sum(c, wc))

    check_op(build, [x, h0, c0, kern, bias])


def test_convlstm_kernel_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        ad.convlstm3d_step(
            ad.Tensor(np.zeros((1, 2, 2, 2, 1))),
            ad.Tensor(np.zeros((1, 2, 2, 2, 2))),
            ad.Tensor(np.zeros((1, 2, 2, 2, 2))),
            ad.Tensor(np.zeros((3, 3, 3, 3, 7))),  # should be (3,3,3,3,8)
            ad.Tensor(np.zeros(7)),
        )


# ---------------------------------------------------------------------------
# loss, graph mechanics
# ---------------------------------------------------------------------------

def test_mae_loss_value_and_gradients():
    r = rng_for(23)
    pred = r.normal(size=(2, 3, 2))
    target = pred + np.where(r.normal(size=(2, 3, 2)) > 0, 0.5, -0.5)
    tp, tt = ad.Tensor(pred), ad.Tensor(target)
    loss = ad.mae_loss(tp, tt)
    assert np.isclose(loss.item(), np.mean(np.abs(pred - target)))
    loss.backward()
    np.testing.assert_allclose(tp.grad, np.sign(pred - target) / pred.size)
    np.testing.assert_allclose(tt.grad, -np.sign(pred - target) / pred.size)
    check_op(lambda a, b: ad.mae_loss(a, b), [pred, target])


def test_backward_requires_scalar():
    with pytest.raises(ParameterError):
        ad.Tensor(np.zeros(3)).backward()


def test_gradient_accumulates_across_backward_calls():
    x = ad.Tensor(np.array(2.0))
    y = ad.mul(x, x)
    y.backward()
    first = x.grad.copy()
    y2 = ad.mul(x, x)
    y2.backward()
    np.testing.assert_allclose(x.grad, 2 * first)
    x.zero_grad()
    assert x.grad is None


def test_first_gradient_is_an_owned_copy_at_the_tensor_shape():
    t = ad.Tensor(np.zeros((2, 3)))
    g = np.ones((2, 3))
    t._accumulate(g)
    g[...] = 5.0  # the caller's buffer stays the caller's
    np.testing.assert_array_equal(t.grad, 1.0)
    t._accumulate(np.full(3, 2.0))  # later calls add, broadcasting
    np.testing.assert_array_equal(t.grad, 3.0)
    s = ad.Tensor(np.zeros((2, 3)))
    s._accumulate(np.float64(4.0))
    assert s.grad.shape == (2, 3) and s.grad.dtype == np.float64
    np.testing.assert_array_equal(s.grad, 4.0)


def _fed(y, g):
    # A scalar node whose backward gives y the gradient g.
    return ad._node(np.zeros(()), (y,), lambda _: y._accumulate(g))


@pytest.mark.parametrize("op", ["relu", "batchnorm"])
def test_fresh_input_gradient_is_taken_without_a_copy(op):
    # relu's g * (a > 0) and batchnorm's gx are new arrays, so the input's
    # first gradient takes them as its buffer: the backward holds the
    # output's gradient and that array, never a third copy; the slack is
    # relu's one-byte mask and ufunc casting buffers.  batchnorm runs in
    # infer mode, whose backward has no larger temporary.
    r = rng_for(30)
    shape = (2, 16, 16, 16, 8)
    x = ad.Tensor(r.normal(size=shape))
    g = r.normal(size=shape)
    if op == "relu":
        y = ad.relu(x)
        want = g * (x.data > 0.0)
    else:
        stats = {"bn.mean": r.normal(size=8), "bn.var": r.uniform(0.5, 2.0, size=8)}
        gamma = ad.Tensor(r.uniform(0.5, 1.5, size=8))
        y = ad.batchnorm(x, gamma, ad.Tensor(np.zeros(8)), stats, mode="infer")
        want = g * gamma.data / np.sqrt(stats["bn.var"] + 1e-3)
    _, held, peak = traced(_fed(y, g).backward)
    assert np.array_equal(x.grad, want)
    assert held <= g.nbytes + (16 << 10)
    assert peak <= 2 * g.nbytes + (256 << 10), f"peak {peak} B for {g.nbytes} B gradients"


def test_a_taken_gradient_still_sums_and_is_shared_by_no_one():
    # x feeds two relus: its first gradient is the first relu's product, and
    # the second's is added into it, not into anything the walk still holds.
    r = rng_for(31)
    x = ad.Tensor(r.normal(size=(3, 4)))
    g1, g2 = r.normal(size=(3, 4)), r.normal(size=(3, 4))
    y1, y2 = ad.relu(x), ad.relu(x)
    loss = ad._node(np.zeros(()), (y1, y2), lambda _: (y1._accumulate(g1), y2._accumulate(g2)))
    loss.backward()
    np.testing.assert_array_equal(x.grad, g1 * (x.data > 0) + g2 * (x.data > 0))
    assert y1.grad is None and y2.grad is None


def test_diamond_graph_gradient():
    x = ad.Tensor(np.array(3.0))
    y = ad.add(ad.mul(x, x), x)  # x^2 + x, x reused
    y.backward()
    np.testing.assert_allclose(x.grad, 2 * 3.0 + 1.0)


def test_deep_chain_does_not_recurse():
    # The topological walk is iterative, so graph depth is not limited by
    # the Python recursion limit.
    x = ad.Tensor(np.array(1.0))
    y = x
    for _ in range(5000):
        y = ad.add(y, 1.0)
    y.backward()
    np.testing.assert_allclose(x.grad, 1.0)


def test_no_grad_skips_graph_building():
    x = ad.Tensor(np.array(2.0))
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y._parents == ()
    y.backward()  # scalar; nothing upstream to touch
    assert x.grad is None


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_first_step_is_lr_over_one_plus_eps():
    ps = ad.ParameterSet()
    t = ps.add("w", np.array([1.0, -2.0]))
    ad.adam_step(ps, {"w": np.array([1.0, 1.0])}, lr=1e-3)
    # first step with unit gradient: mhat = 1, sqrt(vhat) = 1, so the
    # displacement is exactly -lr / (1 + eps) regardless of magnitude
    expected = np.array([1.0, -2.0]) - 1e-3 / (1.0 + 1e-7)
    np.testing.assert_allclose(t.data, expected, rtol=0, atol=1e-18)


def test_adam_first_step_invariant_to_gradient_scale():
    for scale in (1e-6, 1.0, 1e6):
        ps = ad.ParameterSet()
        t = ps.add("w", np.array([0.0]))
        ad.adam_step(ps, {"w": np.array([scale])}, lr=1e-3)
        np.testing.assert_allclose(
            t.data, [-1e-3 * scale / (scale + 1e-7)], rtol=1e-12
        )


def test_adam_three_steps_match_reference():
    r = rng_for(24)
    w0 = r.normal(size=4)
    grads = [r.normal(size=4) for _ in range(3)]
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-7

    ps = ad.ParameterSet()
    t = ps.add("w", w0.copy())
    state = None
    for g in grads:
        state = ad.adam_step(ps, {"w": g}, state, lr=lr)

    w = w0.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for step, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - lr * (m / (1 - b1 ** step)) / (np.sqrt(v / (1 - b2 ** step)) + eps)
    np.testing.assert_allclose(t.data, w, rtol=1e-14)


def test_adam_missing_gradient_raises():
    ps = ad.ParameterSet()
    ps.add("w", np.zeros(2))
    with pytest.raises(ParameterError):
        ad.adam_step(ps, {})


def test_adam_shape_mismatch_raises():
    ps = ad.ParameterSet()
    ps.add("w", np.zeros(2))
    with pytest.raises(ShapeError):
        ad.adam_step(ps, {"w": np.zeros(3)})


# ---------------------------------------------------------------------------
# parameter container serialization
# ---------------------------------------------------------------------------

def _make_params():
    r = rng_for(25)
    ps = ad.ParameterSet()
    ps.add("conv.kernel", r.normal(size=(3, 3, 3, 2, 4)))
    ps.add("conv.bias", r.normal(size=4))
    ps.stats["bn.mean"] = r.normal(size=4)
    ps.stats["bn.var"] = r.uniform(0.5, 2.0, size=4)
    return ps


def test_save_load_roundtrip_is_float32_exact(tmp_path):
    ps = _make_params()
    path = tmp_path / "params.bin"
    ad.save_params(ps, path, meta={"note": "x"})
    loaded, meta = ad.load_params(path)
    assert meta == {"note": "x"}
    q = ps.quantize()
    assert set(loaded.params) == set(q.params)
    for name in q.params:
        np.testing.assert_array_equal(loaded.params[name].data, q.params[name].data)
    for name in q.stats:
        np.testing.assert_array_equal(loaded.stats[name], q.stats[name])


def test_save_twice_is_bit_identical(tmp_path):
    ps = _make_params()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    ad.save_params(ps, p1, meta={"k": 1})
    ad.save_params(ps, p2, meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(FormatError):
        ad.load_params(p)


def test_load_rejects_truncated_file(tmp_path):
    ps = _make_params()
    p = tmp_path / "params.bin"
    ad.save_params(ps, p)
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(FormatError):
        ad.load_params(p)


def test_load_rejects_wrong_format_tag(tmp_path):
    import json as _json
    import struct as _struct

    header = _json.dumps({"format": "something-else/9", "tensors": [], "meta": {}}).encode()
    p = tmp_path / "tag.bin"
    p.write_bytes(b"LPC1" + _struct.pack("<Q", len(header)) + header)
    with pytest.raises(FormatError):
        ad.load_params(p)


def test_load_rejects_size_mismatch(tmp_path):
    import json as _json
    import struct as _struct

    header = _json.dumps(
        {
            "format": "longipet-tensors/1",
            "tensors": [{"name": "w", "role": "param", "shape": [3], "offset": 0, "nbytes": 8}],
            "meta": {},
        }
    ).encode()
    p = tmp_path / "size.bin"
    p.write_bytes(b"LPC1" + _struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(FormatError):
        ad.load_params(p)


def _write_index(path, header, payload=b"\x00" * 8):
    import json as _json
    import struct as _struct

    doc = _json.dumps(header).encode()
    path.write_bytes(b"LPC1" + _struct.pack("<Q", len(doc)) + doc + payload)
    return path


@pytest.mark.parametrize("role", ["param", "stat"])
def test_load_rejects_a_duplicate_tensor_name(tmp_path, role):
    entry = {"name": "w", "role": role, "shape": [2], "offset": 0, "nbytes": 8}
    header = {"format": "longipet-tensors/1", "tensors": [entry, entry], "meta": {}}
    with pytest.raises(FormatError, match="'w' twice"):
        ad.load_params(_write_index(tmp_path / "dup.bin", header))


def test_load_rejects_an_index_without_a_tensors_list(tmp_path):
    header = {"format": "longipet-tensors/1", "meta": {}}
    with pytest.raises(FormatError, match="'tensors' list"):
        ad.load_params(_write_index(tmp_path / "none.bin", header, b""))


def test_duplicate_parameter_name_raises():
    ps = ad.ParameterSet()
    ps.add("w", np.zeros(1))
    with pytest.raises(ParameterError):
        ps.add("w", np.zeros(1))
