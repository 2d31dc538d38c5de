"""The slab-fused ConvLSTM step against the whole-tensor step it replaced.

The oracle below is the previous implementation: concatenate the input and
the hidden state, run ``_corr3d`` over the whole batch, then the gate
arithmetic on full-tensor views, with the same hand-derived backward.  The
fused step runs the same expressions on every element, one slab at a time,
so values and gradients must match bit for bit, whatever the slab grid.
The one exception is the input gradient's col2im adjoint, whose bits
depend on the slab grid: the oracle runs it through the same helper on the
fused step's grid, and test_conv_engine pins that helper against the padded
correlation the oracle used to run.
"""

import numpy as np
import pytest

from longipet import autodiff as ad
from longipet.errors import ShapeError

from gradcheck import traced, weighted_sum
from test_conv_engine import DpadAdjoint, _set_budget, corr3d_grad_w


def whole_tensor_convlstm_step(x, h_prev, c_prev, kernel, bias):
    state = h_prev is not None
    x_in = x if isinstance(x, ad.Tensor) else None
    xd = x.data if x_in is not None else np.asarray(x, dtype=np.float64)
    kernel, bias = ad._const(kernel), ad._const(bias)
    if state:
        h_prev, c_prev = ad._const(h_prev), ad._const(c_prev)
    nf = kernel.shape[-1] // 4
    cin = xd.shape[-1]
    z = np.concatenate([xd, h_prev.data], axis=-1) if state else xd
    w = kernel.data[..., : z.shape[-1], :]
    k = w.shape[0]
    act = ad._corr3d(ad._pad(z, k), w)
    act += bias.data
    with np.errstate(over="ignore"):
        act[..., : 2 * nf] = 1 / (1 + np.exp(-act[..., : 2 * nf]))
        np.tanh(act[..., 2 * nf : 3 * nf], out=act[..., 2 * nf : 3 * nf])
        act[..., 3 * nf :] = 1 / (1 + np.exp(-act[..., 3 * nf :]))
    i, f, g, o = (act[..., j * nf : (j + 1) * nf] for j in range(4))
    c_data = i * g
    if state:
        c_data += f * c_prev.data
    tc = np.tanh(c_data)
    h_data = o * tc
    pending = {}

    def c_backward(gc):
        dpre = pending.pop("dpre", None)
        if dpre is None:
            dpre = np.zeros_like(act)
        di, df, dg = (dpre[..., j * nf : (j + 1) * nf] for j in range(3))
        np.multiply(gc * g, i * (1.0 - i), out=di)
        np.multiply(gc * i, 1.0 - g * g, out=dg)
        if state:
            np.multiply(gc * c_prev.data, f * (1.0 - f), out=df)
            c_prev._accumulate(gc * f)
        else:
            df[...] = 0.0
        bias._accumulate(dpre.sum(axis=(0, 1, 2, 3)))
        slabs = ad._cell_slabs(dpre.shape[:3], dpre.shape[3], w)
        gw = np.zeros(kernel.shape)
        gw[..., : z.shape[-1], :] = corr3d_grad_w(ad._pad(z, k), dpre, k, slabs)
        kernel._accumulate(gw)
        lo = 0 if x_in is not None else cin
        if lo < z.shape[-1]:
            adjoint = ad._Corr3dAdjoint(w[..., lo:, :], dpre.shape[:4])
            for sel in slabs:
                adjoint.add(sel, dpre[sel].reshape(-1, 4 * nf))
            gz = adjoint.result()
            if x_in is not None:
                x_in._accumulate(gz[..., :cin])
            if state:
                h_prev._accumulate(gz[..., cin - lo :])

    c = ad._node(c_data, [p for p in (x_in, h_prev, c_prev, kernel, bias) if p is not None],
                 c_backward)

    def h_backward(gh):
        dpre = pending["dpre"] = np.empty_like(act)
        np.multiply(gh * tc, o * (1.0 - o), out=dpre[..., 3 * nf :])
        c._accumulate(gh * o * (1.0 - tc * tc))

    return ad._node(h_data, (c,), h_backward), c


# n = 3 items of a = 5 x-planes and b = 3 y-rows: the "items" budget groups
# two items and leaves one, "planes" cuts 2, 2, 1 planes, 2 y-rows leaves a
# ragged last row; None keeps the default (one slab at these sizes).  The
# budgets count y-rows of the step's widest slab buffer: its im2col columns
# at k = 3, its 4 * FILTERS gate channels at k = 1.
SHAPE = (3, 5, 3, 4)
CIN, FILTERS = 2, 3


def _set_cell_budget(monkeypatch, budget, case, cz):
    w = case["kernel"][..., :cz, :]
    _set_budget(monkeypatch, budget, SHAPE, ad._cell_row_bytes(SHAPE[3], w))


def _case(k, seed):
    r = np.random.default_rng((91, k, seed))
    return {
        "x": r.normal(size=SHAPE + (CIN,)),
        "h": r.normal(size=SHAPE + (FILTERS,)),
        "c": r.normal(size=SHAPE + (FILTERS,)),
        "kernel": 0.4 * r.normal(size=(k, k, k, CIN + FILTERS, 4 * FILTERS)),
        "bias": 0.1 * r.normal(size=4 * FILTERS),
        "wh": r.normal(size=SHAPE + (FILTERS,)),
        "wc": r.normal(size=SHAPE + (FILTERS,)),
    }


def _run(step, case, state, x_tensor, grad):
    x = ad.Tensor(case["x"].copy()) if x_tensor else case["x"].copy()
    hc = [ad.Tensor(case[key].copy()) for key in ("h", "c")] if state else [None, None]
    kernel, bias = ad.Tensor(case["kernel"]), ad.Tensor(case["bias"])
    if not grad:
        with ad.no_grad():
            h, c = step(x, *hc, kernel, bias)
        return [h.data, c.data]
    h, c = step(x, *hc, kernel, bias)
    ad.add(weighted_sum(h, case["wh"]), weighted_sum(c, case["wc"])).backward()
    leaves = ([x] if x_tensor else []) + [t for t in hc if t is not None] + [kernel, bias]
    return [h.data, c.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("x_tensor", [False, True])
@pytest.mark.parametrize("state", [False, True])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("budget", [None, "items", "planes", 2])
def test_fused_step_is_bit_identical_to_whole_tensor_step(monkeypatch, budget, k, state,
                                                          x_tensor, grad):
    case = _case(k, 1)
    cz = CIN + FILTERS if state else CIN
    _set_cell_budget(monkeypatch, budget, case, cz)
    got = _run(ad.convlstm3d_step, case, state, x_tensor, grad)
    want = _run(whole_tensor_convlstm_step, case, state, x_tensor, grad)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_fused_step_two_steps_bit_identical():
    # the model's pattern: zero state, then the first step's (h, c)
    case = _case(3, 2)
    x1 = np.random.default_rng(3).normal(size=case["x"].shape)
    results = []
    for step in (ad.convlstm3d_step, whole_tensor_convlstm_step):
        kernel, bias = ad.Tensor(case["kernel"]), ad.Tensor(case["bias"])
        h, c = step(case["x"], None, None, kernel, bias)
        h, c = step(x1, h, c, kernel, bias)
        weighted_sum(h, case["wh"]).backward()
        results.append((h.data, kernel.grad, bias.grad))
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_no_grad_step_keeps_no_gate_tensor():
    # The peak is the padded input, h, c, one slab of gates and of tanh(c),
    # and the slab's im2col columns; the whole-tensor step also held the
    # 64-channel gate tensor, the concatenated input and its padded copy.
    d, cin, nf, k = 24, 1, 16, 3
    r = np.random.default_rng(5)
    x = r.normal(size=(1, d, d, d, cin))
    h = r.normal(size=(1, d, d, d, nf))
    c = r.normal(size=(1, d, d, d, nf))
    kernel = 0.1 * r.normal(size=(k, k, k, cin + nf, 4 * nf))
    bias = r.normal(size=4 * nf)
    cz, width = cin + nf, k ** 3 * (cin + nf)
    slab_rows = max(np.empty((1, d, d, d))[sel].size
                    for sel in ad._cell_slabs((1, d, d), d, kernel))
    zp = (d + 2) ** 3 * cz * 8
    hc = 2 * d ** 3 * nf * 8
    gate_slab = slab_rows * 4 * nf * 8
    columns = slab_rows * width * 8
    bound = zp + hc + 2 * gate_slab + columns + (64 << 10)
    with ad.no_grad():
        out, _, peak = traced(lambda: ad.convlstm3d_step(x, h, c, kernel, bias))
    assert out[0].shape == out[1].shape == (1, d, d, d, nf)
    assert peak <= bound, f"peak {peak} B over the bound {bound} B"
    assert bound < peak + d ** 3 * 4 * nf * 8  # a whole gate tensor would not fit


def _bad_step_args(case):
    # (x, h_prev, c_prev, kernel): each breaks one check of the step
    r = np.random.default_rng(6)
    x = r.normal(size=(1, 12, 12, 12, 1))
    state = r.normal(size=(1, 12, 12, 12, 2))
    if case == "even kernel":
        return x, state, state, np.zeros((2, 2, 2, 3, 8))
    if case == "non-cubic kernel":
        return x, state, state, np.zeros((3, 3, 1, 3, 8))
    if case == "4-D x":
        return x[0], None, None, np.zeros((3, 3, 3, 3, 8))
    bad = r.normal(size=(1, 12, 12, 10, 2))
    return x, bad, bad, np.zeros((3, 3, 3, 3, 8))


@pytest.mark.parametrize("case", ["even kernel", "non-cubic kernel", "4-D x",
                                  "state of another spatial shape"])
def test_bad_step_raises_before_allocating(case):
    x, h, c, kernel = _bad_step_args(case)
    padded = 14 ** 3 * 3 * 8

    def bad_step():
        with pytest.raises(ShapeError):
            ad.convlstm3d_step(x, h, c, kernel, np.zeros(8))

    peak = traced(bad_step)[2]
    assert peak < padded // 4


def _run_one_output(step, case, state, x_tensor, target):
    # the loss reads only h or only c, so the other output gets no gradient
    x = ad.Tensor(case["x"].copy()) if x_tensor else case["x"].copy()
    hc = [ad.Tensor(case[key].copy()) for key in ("h", "c")] if state else [None, None]
    kernel, bias = ad.Tensor(case["kernel"]), ad.Tensor(case["bias"])
    h, c = step(x, *hc, kernel, bias)
    out, weights = (h, case["wh"]) if target == "h" else (c, case["wc"])
    weighted_sum(out, weights).backward()
    leaves = ([x] if x_tensor else []) + [t for t in hc if t is not None] + [kernel, bias]
    return [h.data, c.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("target", ["h", "c"])
@pytest.mark.parametrize("x_tensor", [False, True])
@pytest.mark.parametrize("state", [False, True])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("budget", [None, "items", "planes", 2])
def test_loss_on_one_output_is_bit_identical(monkeypatch, budget, k, state, x_tensor, target):
    case = _case(k, 4)
    cz = CIN + FILTERS if state else CIN
    _set_cell_budget(monkeypatch, budget, case, cz)
    got = _run_one_output(ad.convlstm3d_step, case, state, x_tensor, target)
    want = _run_one_output(whole_tensor_convlstm_step, case, state, x_tensor, target)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_c_gradient_excludes_h_contribution():
    # c's backward takes h's gradient directly, so a loss on h alone leaves
    # c.grad unset although every parameter gets its gradient
    case = _case(3, 5)
    kernel, bias = ad.Tensor(case["kernel"]), ad.Tensor(case["bias"])
    h, c = ad.convlstm3d_step(case["x"], None, None, kernel, bias)
    weighted_sum(h, case["wh"]).backward()
    assert c.grad is None
    assert kernel.grad is not None and bias.grad is not None


def _step_backward_peak(d, cin, nf, k):
    # The peak of one state step's backward from a loss on h, and the
    # gradients of h_prev and c_prev.
    r = np.random.default_rng(7)
    x = r.normal(size=(1, d, d, d, cin))
    h = ad.Tensor(r.normal(size=(1, d, d, d, nf)))
    c = ad.Tensor(r.normal(size=(1, d, d, d, nf)))
    kernel = ad.Tensor(0.1 * r.normal(size=(k, k, k, cin + nf, 4 * nf)))
    bias = ad.Tensor(r.normal(size=4 * nf))
    wh = r.normal(size=(1, d, d, d, nf))
    h1, _ = ad.convlstm3d_step(x, h, c, kernel, bias)
    loss = ad._node(np.zeros(()), (h1,), lambda g: h1._accumulate(wh))
    return traced(loss.backward)[2], h.grad, c.grad


def test_grad_step_backward_holds_the_gradient_once(monkeypatch):
    # The backward's peak is h's gradient, the hidden-state gradient's
    # zero-bordered nf-channel accumulator and its channel-last copy,
    # c_prev's gradient, and one slab's im2col columns, gate buffer and
    # adjoint columns (k^3 * nf per row).  The whole-tensor backward also
    # held the unpadded pre-activation gradient; the previous fused one
    # copied it into a zero-bordered 4 * nf-channel buffer (dpad) and
    # convolved that, which breaks the bound.
    d, cin, nf, k = 24, 1, 16, 3
    width = k ** 3 * (cin + nf)
    w = np.zeros((k, k, k, cin + nf, 4 * nf))
    slab_rows = max(np.empty((1, d, d, d))[sel].size
                    for sel in ad._cell_slabs((1, d, d), d, w))
    state_grad = d ** 3 * nf * 8
    accumulator = (d + 2) ** 3 * nf * 8
    slab = slab_rows * (width + 4 * nf + k ** 3 * nf) * 8
    bound = 3 * state_grad + accumulator + slab + (64 << 10)
    peak, gh, gc = _step_backward_peak(d, cin, nf, k)
    assert gh.shape == gc.shape == (1, d, d, d, nf)
    assert peak <= bound, f"peak {peak} B over the bound {bound} B"
    assert bound < peak + d ** 3 * 4 * nf * 8  # an unpadded gradient copy would not fit
    monkeypatch.setattr(ad, "_Corr3dAdjoint", DpadAdjoint)
    assert _step_backward_peak(d, cin, nf, k)[0] > bound, "the dpad control fits the bound"
