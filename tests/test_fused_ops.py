"""Equivalence of the fused ConvLSTM step and batch normalization with the
composed graphs they replaced.

The oracles below are the previous implementations, built from generic
graph ops (concat, conv3d, narrow, sigmoid, tanh, mul, add for the cell;
mean, sub, mul, div, sqrt, add for batch normalization).  The fused ops
differentiate by hand and sum in another order, so values and gradients
are compared with a tolerance.
"""

import numpy as np
import pytest

from longipet import autodiff as ad
from longipet.errors import ParameterError
from longipet.model import I2IModelConfig, forward_batch, init_model

from gradcheck import weighted_sum

TOL = 1e-12


# ---------------------------------------------------------------------------
# oracles: the composed graphs
# ---------------------------------------------------------------------------

def composed_convlstm_step(x, h_prev, c_prev, kernel, bias):
    filters = h_prev.data.shape[4]
    z = ad.concat_channels(x, h_prev)
    gates = ad.conv3d(z, kernel, bias)
    i = ad.sigmoid(ad.narrow_channels(gates, 0, filters))
    f = ad.sigmoid(ad.narrow_channels(gates, filters, filters))
    g = ad.tanh(ad.narrow_channels(gates, 2 * filters, filters))
    o = ad.sigmoid(ad.narrow_channels(gates, 3 * filters, filters))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h = ad.mul(o, ad.tanh(c))
    return h, c


def composed_batchnorm(x, gamma, beta, stats, mode="train", eps=1e-3, momentum=0.99,
                       key="bn"):
    ch = x.data.shape[4]
    mean_key, var_key = f"{key}.mean", f"{key}.var"
    axes = (0, 1, 2, 3)
    if mode == "train":
        mu = ad.mean(x, axis=axes, keepdims=True)
        centered = ad.sub(x, mu)
        var = ad.mean(ad.mul(centered, centered), axis=axes, keepdims=True)
        xhat = ad.div(centered, ad.sqrt(ad.add(var, eps)))
        if mean_key not in stats:
            stats[mean_key] = mu.data.reshape(ch).copy()
            stats[var_key] = var.data.reshape(ch).copy()
        else:
            stats[mean_key] = momentum * stats[mean_key] + (1.0 - momentum) * mu.data.reshape(ch)
            stats[var_key] = momentum * stats[var_key] + (1.0 - momentum) * var.data.reshape(ch)
    else:
        rm = stats[mean_key].reshape(1, 1, 1, 1, ch)
        rv = stats[var_key].reshape(1, 1, 1, 1, ch)
        xhat = ad.div(ad.sub(x, rm), np.sqrt(rv + eps))
    return ad.add(ad.mul(xhat, gamma), beta)


def composed_forward_batch(params, frames0, frames1, config, mode):
    n = frames0.shape[0]
    f = config.lstm_filters
    spatial = frames0.shape[1:]
    h = ad.Tensor(np.zeros((n, *spatial, f)))
    c = ad.Tensor(np.zeros((n, *spatial, f)))
    kernel = params.params["convlstm.kernel"]
    bias = params.params["convlstm.bias"]
    h, c = composed_convlstm_step(ad.Tensor(frames0[..., None]), h, c, kernel, bias)
    h, c = composed_convlstm_step(ad.Tensor(frames1[..., None]), h, c, kernel, bias)
    normed = composed_batchnorm(
        ad.maxpool3d(h, 2), params.params["bn.gamma"], params.params["bn.beta"],
        params.stats, mode=mode,
    )
    decoded = ad.relu(ad.conv_transpose3d(
        normed, params.params["deconv.kernel"], params.params["deconv.bias"]))
    up = ad.upsample_nn(decoded, 2)
    return ad.relu(ad.conv3d(up, params.params["head.kernel"], params.params["head.bias"]))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=TOL)


def cell_case(seed, k, filters, cin=1, n=2, d=3):
    r = np.random.default_rng((77, seed, k, filters))
    return {
        "x": r.normal(size=(n, d, d, d, cin)),
        "h": r.normal(size=(n, d, d, d, filters)),
        "c": r.normal(size=(n, d, d, d, filters)),
        "kernel": 0.4 * r.normal(size=(k, k, k, cin + filters, 4 * filters)),
        "bias": 0.1 * r.normal(size=4 * filters),
        "wh": r.normal(size=(n, d, d, d, filters)),
        "wc": r.normal(size=(n, d, d, d, filters)),
    }


def build_cell(step, case, x, h, c):
    """Build the cell; return the outputs and the kernel and bias tensors."""
    kernel, bias = ad.Tensor(case["kernel"]), ad.Tensor(case["bias"])
    return step(x, h, c, kernel, bias) + (kernel, bias)


def backprop_cell(cell, case):
    h_out, c_out = cell[:2]
    ad.add(weighted_sum(h_out, case["wh"]), weighted_sum(c_out, case["wc"])).backward()


def run_cell(step, case, x, h, c):
    """Build the cell, backprop a weighted sum of h and c; return the outputs
    and the tensors the gradients land on."""
    cell = build_cell(step, case, x, h, c)
    backprop_cell(cell, case)
    return cell


CELL_CASES = [(k, filters) for k in (1, 3) for filters in (1, 3)]


# ---------------------------------------------------------------------------
# ConvLSTM step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,filters,loss_on",
                         [pytest.param(k, f, "h and c", id=f"{k}-{f}") for k, f in CELL_CASES]
                         + [pytest.param(k, f, "c", id=f"{k}-{f}-loss-on-c")
                            for k, f in CELL_CASES])
def test_cell_matches_composed_with_random_state(k, filters, loss_on):
    # With the loss on c alone, h gets no gradient, and the fused step's
    # backward runs on a zero one.
    case = cell_case(1, k, filters)
    ins = {}
    outs = {}
    for name, step in (("fused", ad.convlstm3d_step), ("composed", composed_convlstm_step)):
        ins[name] = [ad.Tensor(case[key].copy()) for key in ("x", "h", "c")]
        outs[name] = cell = build_cell(step, case, *ins[name])
        if loss_on == "c":
            weighted_sum(cell[1], case["wc"]).backward()
        else:
            backprop_cell(cell, case)
    for a, b in zip(outs["fused"][:2], outs["composed"][:2]):
        assert_close(a.data, b.data)
    for a, b in zip(ins["fused"] + list(outs["fused"][2:]),
                    ins["composed"] + list(outs["composed"][2:])):
        assert_close(a.grad, b.grad)


@pytest.mark.parametrize("k,filters", CELL_CASES)
def test_cell_none_state_matches_zero_state(k, filters):
    case = cell_case(2, k, filters)
    zeros = np.zeros_like(case["h"])
    x_fused, x_comp = ad.Tensor(case["x"].copy()), ad.Tensor(case["x"].copy())
    fused = run_cell(ad.convlstm3d_step, case, x_fused, None, None)
    comp = run_cell(composed_convlstm_step, case, x_comp,
                    ad.Tensor(zeros), ad.Tensor(zeros.copy()))
    assert_close(fused[0].data, comp[0].data)
    assert_close(fused[1].data, comp[1].data)
    assert_close(x_fused.grad, x_comp.grad)
    assert_close(fused[2].grad, comp[2].grad)  # kernel, hidden part exactly 0
    assert_close(fused[3].grad, comp[3].grad)
    np.testing.assert_array_equal(fused[2].grad[..., 1:, :], 0.0)


@pytest.mark.parametrize("k,filters", CELL_CASES)
@pytest.mark.parametrize("with_state", [True, False])
def test_cell_ndarray_input_is_constant(k, filters, with_state):
    case = cell_case(3, k, filters)
    x = case["x"].copy()
    state = [ad.Tensor(case["h"].copy()), ad.Tensor(case["c"].copy())] if with_state else [None, None]
    fused = build_cell(ad.convlstm3d_step, case, x, *state)
    # the step records no node for x, so nothing upstream can receive dx;
    # backward() releases the parent links, so look before it runs
    assert any(p is fused[2] for p in fused[1]._parents)
    assert not any(np.shares_memory(p.data, x) for p in fused[1]._parents)
    backprop_cell(fused, case)
    np.testing.assert_array_equal(x, case["x"])

    ref_state = [ad.Tensor(case["h"].copy()), ad.Tensor(case["c"].copy())] if with_state else [
        ad.Tensor(np.zeros_like(case["h"])), ad.Tensor(np.zeros_like(case["c"]))]
    comp = run_cell(composed_convlstm_step, case, ad.Tensor(x.copy()), *ref_state)
    for a, b in zip(fused, comp):
        assert_close(a.data, b.data)
    assert_close(fused[2].grad, comp[2].grad)
    assert_close(fused[3].grad, comp[3].grad)
    if with_state:
        for a, b in zip(state, ref_state):
            assert_close(a.grad, b.grad)


def test_cell_two_steps_match_composed():
    # The model's pattern: zero state, then the first step's (h, c) as the
    # second step's state; the second step's c only reaches the loss via h.
    case = cell_case(4, 3, 2)
    r = np.random.default_rng(5)
    x0, x1 = case["x"], r.normal(size=case["x"].shape)
    grads = {}
    values = {}
    for name in ("fused", "composed"):
        kernel, bias = ad.Tensor(case["kernel"]), ad.Tensor(case["bias"])
        if name == "fused":
            h, c = ad.convlstm3d_step(x0, None, None, kernel, bias)
            h, c = ad.convlstm3d_step(x1, h, c, kernel, bias)
        else:
            zero = np.zeros(x0.shape[:-1] + (2,))
            h, c = composed_convlstm_step(ad.Tensor(x0), ad.Tensor(zero),
                                          ad.Tensor(zero.copy()), kernel, bias)
            h, c = composed_convlstm_step(ad.Tensor(x1), h, c, kernel, bias)
        weighted_sum(h, case["wh"]).backward()
        values[name] = h.data
        grads[name] = (kernel.grad, bias.grad)
    assert_close(values["fused"], values["composed"])
    for a, b in zip(grads["fused"], grads["composed"]):
        assert_close(a, b)


def test_cell_gradients_accumulate_across_backward_calls():
    case = cell_case(6, 3, 2)
    kernel, bias = ad.Tensor(case["kernel"]), ad.Tensor(case["bias"])
    h_prev = ad.Tensor(case["h"])

    def run():
        h, c = ad.convlstm3d_step(case["x"], h_prev, ad.Tensor(case["c"]), kernel, bias)
        ad.add(weighted_sum(h, case["wh"]), weighted_sum(c, case["wc"])).backward()

    run()
    first = (kernel.grad.copy(), h_prev.grad.copy())
    run()
    assert_close(kernel.grad, 2 * first[0])
    assert_close(h_prev.grad, 2 * first[1])


@pytest.mark.parametrize("which", ["h", "c"])
def test_cell_needs_both_or_neither_state(which):
    case = cell_case(7, 3, 2)
    h = ad.Tensor(case["h"]) if which == "h" else None
    c = ad.Tensor(case["c"]) if which == "c" else None
    with pytest.raises(ParameterError):
        ad.convlstm3d_step(case["x"], h, c, ad.Tensor(case["kernel"]), ad.Tensor(case["bias"]))


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def bn_case(seed):
    r = np.random.default_rng((88, seed))
    return (2.0 + r.normal(size=(2, 3, 2, 4, 3)), 0.5 + r.uniform(size=3),
            r.normal(size=3), r.normal(size=(2, 3, 2, 4, 3)))


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_batchnorm_matches_composed(mode):
    x, gamma, beta, w = bn_case(1)
    seed_stats = {"bn.mean": np.array([1.9, 2.1, 2.0]), "bn.var": np.array([0.8, 1.1, 1.3])}
    results = {}
    for name, op in (("fused", ad.batchnorm), ("composed", composed_batchnorm)):
        stats = {k: v.copy() for k, v in seed_stats.items()}
        tensors = [ad.Tensor(a.copy()) for a in (x, gamma, beta)]
        out = op(*tensors, stats, mode=mode)
        weighted_sum(out, w).backward()
        results[name] = (out.data, stats, [t.grad for t in tensors])
    fused, comp = results["fused"], results["composed"]
    np.testing.assert_array_equal(fused[0], comp[0])  # same expressions, same bits
    for key in seed_stats:
        np.testing.assert_array_equal(fused[1][key], comp[1][key])
    for a, b in zip(fused[2], comp[2]):
        assert_close(a, b)


def test_batchnorm_running_stats_bit_identical_from_empty():
    x, gamma, beta, _ = bn_case(2)
    fused_stats, comp_stats = {}, {}
    for step in range(3):
        xs = x + step
        ad.batchnorm(ad.Tensor(xs), ad.Tensor(gamma), ad.Tensor(beta), fused_stats)
        composed_batchnorm(ad.Tensor(xs), ad.Tensor(gamma), ad.Tensor(beta), comp_stats)
        for key in ("bn.mean", "bn.var"):
            np.testing.assert_array_equal(fused_stats[key], comp_stats[key])


def test_batchnorm_is_one_node():
    x, gamma, beta, _ = bn_case(3)
    ts = [ad.Tensor(a) for a in (x, gamma, beta)]
    out = ad.batchnorm(*ts, {})
    assert out._parents == tuple(ts)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

def test_model_train_loss_and_gradients_match_composed():
    cfg = I2IModelConfig(dims=(16, 16, 16), lstm_filters=2, decoder_filters=4)
    r = np.random.default_rng(9)
    f0 = r.uniform(0.5, 1.5, size=(2, 16, 16, 16))
    f1 = f0 + r.normal(scale=0.05, size=f0.shape)
    target = f1 + r.normal(scale=0.05, size=f0.shape)
    results = {}
    for name in ("fused", "composed"):
        ps = init_model(cfg, seed=3)
        if name == "fused":
            out = forward_batch(ps, f0, f1, cfg, mode="train")
        else:
            out = composed_forward_batch(ps, f0, f1, cfg, mode="train")
        loss = ad.mae_loss(out, target[..., None])
        loss.backward()
        results[name] = (loss.item(), {k: t.grad for k, t in ps.params.items()}, ps.stats)
    fused, comp = results["fused"], results["composed"]
    assert fused[0] == pytest.approx(comp[0], rel=0, abs=TOL)
    for key, g in comp[1].items():
        assert_close(fused[1][key], g)
    for key, v in comp[2].items():
        assert_close(fused[2][key], v)


def test_model_forward_nodes():
    # encode, batchnorm, deconv, relu, head conv, relu, upsample
    cfg = I2IModelConfig(dims=(4, 4, 4), lstm_filters=2, decoder_filters=2)
    ps = init_model(cfg, seed=1)
    f0 = np.ones((1, 4, 4, 4))
    out = forward_batch(ps, f0, f0, cfg, mode="train")
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) in seen or not t._parents:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    assert len(seen) == 7
