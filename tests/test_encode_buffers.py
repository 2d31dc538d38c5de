"""The encoder's buffers: ``encode`` against the previous implementation.

The oracle below is ``encode`` as it was before the two steps shared their
buffers.  It gave each step its own padded input, kept separate ``h`` and
``c`` buffers, copied ``h`` into the second step's padded input, and with
gradients on kept the first step's ``c`` and ``tanh(c)`` for the backward.
The current ``encode`` runs the same ufuncs on the same values, so its
predictions and gradients must match the oracle's bit for bit, on any slab
grid, while it holds less: per sample, the second step's padded input and
one state buffer under ``no_grad``, and no kept first-step cell state with
gradients on.
"""

import tracemalloc

import numpy as np
import pytest

from longipet import autodiff as ad
from longipet.model import I2IModelConfig, forward_batch, init_model

from gradcheck import weighted_sum


def old_cell_forward(x, h_prev, c_prev, w, bias, keep, h_out=None, c_out=None):
    n, a, b, c, cin = x.shape
    k = w.shape[0]
    p = k // 2
    cz, gates = w.shape[3:]
    nf = gates // 4
    zp = np.zeros((n, a + 2 * p, b + 2 * p, c + 2 * p, cz))
    inner = zp[:, p : p + a, p : p + b, p : p + c]
    inner[..., :cin] = x
    if h_prev is not None:
        inner[..., cin:] = h_prev
    cols = ad._columns(zp, k)
    width = k ** 3 * cz
    w2 = w.reshape(width, gates)
    if h_out is None:
        h_out = np.empty((n, a, b, c, nf))
    if c_out is None:
        c_out = np.empty((n, a, b, c, nf))
    slabs = list(ad._slabs((n, a, b), c * width * zp.itemsize))
    if keep:
        act = np.empty((n, a, b, c, gates))
        tc = np.empty((n, a, b, c, nf))
    else:
        rows = max(h_out[sel].size for sel in slabs) // nf
        gate_buf = np.empty((rows, gates))
        tc_buf = np.empty((rows, nf))
    for sel in slabs:
        hs = h_out[sel].reshape(-1, nf)
        cs = c_out[sel].reshape(-1, nf)
        m = hs.shape[0]
        gs = act[sel].reshape(-1, gates) if keep else gate_buf[:m]
        ts = tc[sel].reshape(-1, nf) if keep else tc_buf[:m]
        np.matmul(cols[sel].reshape(-1, width), w2, out=gs)
        gs += bias
        i, f, g, o = (gs[:, j * nf : (j + 1) * nf] for j in range(4))
        np.copyto(ts, g)
        ad._sigmoid(gs)
        np.tanh(ts, out=g)
        if c_prev is None:
            np.multiply(i, g, out=cs)
        else:
            np.multiply(f, c_prev[sel].reshape(-1, nf), out=ts)
            np.multiply(i, g, out=cs)
            cs += ts
        np.tanh(cs, out=ts)
        np.multiply(o, ts, out=hs)
    return h_out, c_out, ((zp, act, tc) if keep else None)


def old_cell_backward(gh, gc, saved, c_prev, w, lo):
    zp, act, tc = saved
    n, a, b, c, gates = act.shape
    nf = gates // 4
    k = w.shape[0]
    p = k // 2
    cz = w.shape[3]
    dpad = inner = None
    if lo < cz:
        dpad = np.zeros((n, a + 2 * p, b + 2 * p, c + 2 * p, gates))
        inner = dpad[:, p : p + a, p : p + b, p : p + c]
    cols = ad._columns(zp, k)
    width = k ** 3 * cz
    slabs = list(ad._slabs((n, a, b), c * width * zp.itemsize))
    rows = max(tc[sel].size for sel in slabs) // nf
    buf = np.zeros((rows + 1, gates))
    gw = np.zeros((width, gates))
    gc_prev = None if c_prev is None else np.empty(c_prev.shape)
    for sel in slabs:
        acts = act[sel].reshape(-1, gates)
        i, f, g, o = (acts[:, j * nf : (j + 1) * nf] for j in range(4))
        ts = tc[sel].reshape(-1, nf)
        m = ts.shape[0]
        d = buf[1 : m + 1]
        di, df, dg, do = (d[:, j * nf : (j + 1) * nf] for j in range(4))
        if gh is None:
            do[...] = 0.0
            gct = gc[sel].reshape(-1, nf)
        else:
            ghs = gh[sel].reshape(-1, nf)
            np.multiply(ghs * ts, o * (1.0 - o), out=do)
            gct = ghs * o * (1.0 - ts * ts)
            if gc is not None:
                gct += gc[sel].reshape(-1, nf)
        np.multiply(gct * g, i * (1.0 - i), out=di)
        np.multiply(gct * i, 1.0 - g * g, out=dg)
        if c_prev is None:
            df[...] = 0.0
        else:
            np.multiply(gct * c_prev[sel].reshape(-1, nf), f * (1.0 - f), out=df)
            np.multiply(gct, f, out=gc_prev[sel].reshape(-1, nf))
        gw += cols[sel].reshape(-1, width).T @ d
        buf[0] = buf[: m + 1].sum(axis=0)
        if dpad is not None:
            inner[sel] = d.reshape(inner[sel].shape)
    gz = ad._corr3d(dpad, ad._flip_swap(w[..., lo:, :])) if lo < cz else None
    return gz, gc_prev, gw.reshape(k, k, k, cz, gates), buf[0].copy()


def old_encode_sample(x0, x1, w, bias, keep):
    cin = x0.shape[-1]
    h, c, cell1 = old_cell_forward(x0, None, None, w[..., :cin, :], bias, keep)
    h, c2, cell2 = old_cell_forward(x1, h, c, w, bias, keep, h_out=h,
                                    c_out=None if keep else c)
    saved = (cell1, cell2, c) if keep else None
    del c, c2
    pooled, idx = ad._pool2(h, keep)
    return pooled, (saved + (idx,) if keep else None)


def old_encode(frames0, frames1, kernel, bias):
    x0 = np.asarray(frames0, dtype=np.float64)
    x1 = np.asarray(frames1, dtype=np.float64)
    kernel, bias = ad._const(kernel), ad._const(bias)
    nf = kernel.shape[-1] // 4
    cin = ad._check_gate_args(x0, nf, kernel, bias)
    n = x0.shape[0]
    w = kernel.data
    keep = ad.grad_enabled()
    parts = [old_encode_sample(x0[s : s + 1], x1[s : s + 1], w, bias.data, keep)
             for s in range(n)]
    pooled = np.concatenate([part for part, _ in parts])
    if not keep:
        return ad.Tensor(pooled)
    saved = [kept for _, kept in parts]

    def backward(g):
        gk, gb = np.zeros(kernel.shape), np.zeros(bias.shape)
        for s, (cell1, cell2, c1, idx) in enumerate(saved):
            gh, gc, gw, gbs = old_cell_backward(
                ad._unpool2(g[s : s + 1], idx), None, cell2, c1, w, cin)
            gk += gw
            gb += gbs
            _, _, gw, gbs = old_cell_backward(gh, gc, cell1, None, w[..., :cin, :], cin)
            gk[..., :cin, :] += gw
            gb += gbs
        kernel._accumulate(gk)
        bias._accumulate(gb)

    return ad._node(pooled, (kernel, bias), backward)


def _frames(dims, n, seed, cin=1):
    r = np.random.default_rng((47, n, seed))
    return [r.uniform(0.5, 1.5, size=(n,) + dims + (cin,)) for _ in range(2)]


def _gate_params(k, cin, nf, seed):
    r = np.random.default_rng((53, k, seed))
    return (ad.Tensor(0.3 * r.normal(size=(k, k, k, cin + nf, 4 * nf))),
            ad.Tensor(0.1 * r.normal(size=4 * nf)))


def _model_run(monkeypatch, encode, dims, filters, n, k, grad):
    # The model's prediction and its 8 parameter gradients with encode as the
    # given implementation.
    monkeypatch.setattr(ad, "encode", encode)
    config = I2IModelConfig(dims=dims, lstm_filters=filters[0], decoder_filters=filters[1],
                            kernel_size=k)
    params = init_model(config, seed=5)
    (x0, x1), y = _frames(dims, n, 1), _frames(dims, n, 2)[0]
    if not grad:
        with ad.no_grad():
            return [forward_batch(params, x0[..., 0], x1[..., 0], config, mode="train").data]
    pred = forward_batch(params, x0[..., 0], x1[..., 0], config, mode="train")
    ad.mae_loss(pred, y).backward()
    return [pred.data] + [t.grad for t in params.params.values()]


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [1, 3])
def test_model_is_bit_identical_to_the_previous_encode(monkeypatch, n, k, grad):
    got = _model_run(monkeypatch, ad.encode, (16, 16, 16), (16, 32), n, k, grad)
    want = _model_run(monkeypatch, old_encode, (16, 16, 16), (16, 32), n, k, grad)
    assert len(got) == len(want) == (9 if grad else 1)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


# Slab budgets, in y-rows of the first step's columns: the first step's h is
# written into a strided view of the second step's padded input, so these
# grids make those writes start and stop inside planes, with a ragged last
# slab (3 rows of 6), and make the second step's slabs single y-rows.
@pytest.mark.parametrize("rows", [1, 3, 12])
@pytest.mark.parametrize("grad", [False, True])
def test_small_slabs_are_bit_identical_to_the_previous_encode(monkeypatch, rows, grad):
    dims, cin, nf, k = (4, 6, 4), 2, 3, 3
    monkeypatch.setattr(ad, "_SLAB_BYTES", rows * dims[2] * k ** 3 * cin * 8)
    x0, x1 = _frames(dims, 2, 3, cin)
    w = np.random.default_rng(4).normal(size=(2,) + tuple(d // 2 for d in dims) + (nf,))
    results = []
    for encode in (ad.encode, old_encode):
        kernel, bias = _gate_params(k, cin, nf, 6)
        if grad:
            out = encode(x0, x1, kernel, bias)
            weighted_sum(out, w).backward()
            results.append([out.data, kernel.grad, bias.grad])
        else:
            with ad.no_grad():
                results.append([encode(x0, x1, kernel, bias).data])
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def _traced(fn):
    # (bytes held after fn, peak bytes during it) by tracemalloc
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def _padded_bytes(dims, k, channels):
    p = k // 2
    return int(np.prod([d + 2 * p for d in dims])) * channels * 8


def test_grad_forward_keeps_no_first_step_cell_state():
    # What a sample keeps for the backward: both steps' padded inputs and
    # gates, the second step's tanh(c) and the pool's uint8 argmax.  The
    # previous encode also kept the first step's c and tanh(c).
    dims, cin, nf, k = (40, 48, 40), 1, 16, 3
    x0, x1 = _frames(dims, 1, 7)
    kernel, bias = _gate_params(k, cin, nf, 8)
    vox = int(np.prod(dims))
    kept = (_padded_bytes(dims, k, cin) + _padded_bytes(dims, k, cin + nf)
            + 2 * vox * 4 * nf * 8 + vox * nf * 8 + vox // 8 * nf)
    bound = kept + vox // 8 * nf * 8 + (256 << 10)  # plus the pooled output
    for encode in (ad.encode, old_encode):
        out, held, _ = _traced(lambda: encode(x0, x1, kernel, bias))
        if encode is ad.encode:
            assert held <= bound, f"holds {held} B over the bound {bound} B"
        else:
            assert held > bound + vox * nf * 8, "the control no longer keeps c1 and tanh(c1)"
        del out


def test_no_grad_forward_holds_one_state_buffer_and_one_padded_input():
    # At 64^3 the 16-channel state outweighs the slab buffers: the peak is
    # the second step's padded input zp2, the state buffer s, and, during
    # the first step, its own padded input and one slab of its columns,
    # gates and tanh(c).  The previous encode also held a separate h.
    dims, cin, nf, k = (64, 64, 64), 1, 16, 3
    x0, x1 = _frames(dims, 1, 9)
    kernel, bias = _gate_params(k, cin, nf, 10)
    vox = int(np.prod(dims))
    width = k ** 3 * cin
    slab_rows = max(np.empty((1,) + dims)[sel].size
                    for sel in ad._slabs((1,) + dims[:2], dims[2] * width * 8))
    step1 = _padded_bytes(dims, k, cin) + slab_rows * (width + 4 * nf + nf) * 8
    bound = _padded_bytes(dims, k, cin + nf) + vox * nf * 8 + step1 + (256 << 10)
    for encode in (ad.encode, old_encode):
        with ad.no_grad():
            out, _, peak = _traced(lambda: encode(x0, x1, kernel, bias))
        if encode is ad.encode:
            assert peak <= bound, f"peak {peak} B over the bound {bound} B"
        else:
            assert peak > bound + vox * nf * 4, "the control no longer holds a separate h"
        del out
