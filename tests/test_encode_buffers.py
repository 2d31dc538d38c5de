"""The encoder's buffers: ``encode`` against the previous implementation.

The oracle below is ``encode`` as it was before the two steps shared their
buffers.  It gave each step its own padded input, kept separate ``h`` and
``c`` buffers, copied ``h`` into the second step's padded input, and with
gradients on kept both steps' gates, padded inputs and ``tanh(c)`` and the
first step's ``c`` for the backward.  The current ``encode`` runs the same
ufuncs on the same values, so its predictions and gradients must match the
oracle's bit for bit, on any slab grid, while it holds less: no
full-resolution state wherever the windows of its wavefront over
x-planes are shorter than x, and with gradients on, per sample, only the
pool's argmax, the backward running the wavefront again to recompute
both steps.  The oracle's input gradient
runs through the current col2im adjoint (``_Corr3dAdjoint``) on the same
slab grid, since its bits depend on the grid; it is pinned against the
padded correlation it replaced in test_conv_engine.
"""

import numpy as np
import pytest

from longipet import autodiff as ad
from longipet.model import I2IModelConfig, forward_batch, init_model

from gradcheck import traced, weighted_sum


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
    cz = w.shape[3]
    adjoint = ad._Corr3dAdjoint(w[..., lo:, :], (n, a, b, c)) if lo < cz else None
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
        if adjoint is not None:
            adjoint.add(sel, d)
    gz = None if adjoint is None else adjoint.result()
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


def _padded_bytes(dims, k, channels):
    p = k // 2
    return int(np.prod([d + 2 * p for d in dims])) * channels * 8


def test_no_grad_peak_grows_with_x_by_the_frame_and_the_output_only():
    # Under no_grad the two steps run chunk by chunk over x, in windows of
    # planes sized by the chunks.  At (10, 48, 40) and (40, 48, 40) both have
    # the same chunks, 5 planes for the first step and 1 for the second, so
    # from one x to the other the peak may grow only by the first step's
    # padded frame and the pooled output.  The oracle holds the second
    # step's whole padded input and state.
    cin, nf, k = 1, 16, 3
    kernel, bias = _gate_params(k, cin, nf, 10)
    small, large = (10, 48, 40), (40, 48, 40)
    for dims in (small, large):
        for part, span in ((kernel.data[..., :cin, :], 5), (kernel.data, 1)):
            assert {hi - lo for lo, hi in ad._x_chunks(*dims, part)} == {span}

    def peak(encode, dims):
        x0, x1 = _frames(dims, 1, 9)
        with ad.no_grad():
            return traced(lambda: encode(x0, x1, kernel, bias))[2]

    def grows(dims):
        return _padded_bytes(dims, k, cin) + int(np.prod(dims)) // 8 * nf * 8

    bound = grows(large) - grows(small) + (256 << 10)
    state = (large[0] - small[0]) * large[1] * large[2] * nf * 8
    for encode in (ad.encode, old_encode):
        growth = peak(encode, large) - peak(encode, small)
        if encode is ad.encode:
            assert growth <= bound, f"grew {growth} B over the bound {bound} B"
        else:
            assert growth > bound + state, "the control no longer holds a whole state buffer"


def _count_cell_calls(monkeypatch, cin, name="_cell_forward"):
    # [first step, second step]: the calls of name, _cell_forward or
    # _cell_backward, each makes, told apart by the channels of the gate
    # kernel part they run.
    calls = [0, 0]
    run = getattr(ad, name)
    at = 2 if name == "_cell_forward" else 5  # w's position

    def counted(*args):
        calls[args[at].shape[3] > cin] += 1
        return run(*args)

    monkeypatch.setattr(ad, name, counted)
    return calls


# Slab budgets in y-rows of the second step's columns, the x-chunk spans
# (_x_chunks) they give the first and the second step, and the second
# step's calls over the batch, one per chunk per sample.  Every case runs
# windowed: its windows (both steps' longest chunks plus 3p) are shorter
# than x.  They cover second-step slabs that are y-blocks within single
# planes (2 and 3 rows of 6); multi-plane first-step chunks feeding
# single-plane second-step chunks; second-step chunks of an odd span, so
# that pool pairs straddle chunk borders, with a ragged last chunk (40
# planes); windows that shift (30 planes); and batch 3.
WINDOWED = [
    ((10, 6, 4), 2, 2, ({1}, {1}), 20),
    ((10, 6, 4), 2, 3, ({2}, {1}), 20),
    ((40, 6, 4), 2, 9, ({6, 4}, {1}), 80),
    ((40, 6, 4), 2, 18, ({12, 4}, {3, 1}), 28),
    ((30, 6, 4), 2, 18, ({12, 6}, {3}), 20),
    ((30, 6, 4), 2, 30, ({20, 10}, {5}), 12),
    ((30, 6, 4), 3, 2, ({1}, {1}), 90),
    ((30, 6, 4), 3, 9, ({6}, {1}), 90),
]


def _windowed_grid(monkeypatch, dims, rows, spans, k, cin, nf):
    # Set the slab budget of a WINDOWED case and check its chunk spans.
    monkeypatch.setattr(ad, "_SLAB_BYTES", rows * dims[2] * k ** 3 * (cin + nf) * 8)
    kernel, bias = _gate_params(k, cin, nf, rows)
    got = tuple({hi - lo for lo, hi in ad._x_chunks(*dims, part)}
                for part in (kernel.data[..., :cin, :], kernel.data))
    assert got == spans
    return kernel, bias


@pytest.mark.parametrize("dims, n, rows, spans, calls", WINDOWED)
@pytest.mark.parametrize("k", [1, 3])
def test_no_grad_wavefront_is_bit_identical_to_the_previous_encode(monkeypatch, dims, n,
                                                                   rows, spans, calls, k):
    cin, nf = 1, 3
    kernel, bias = _windowed_grid(monkeypatch, dims, rows, spans, k, cin, nf)
    x0, x1 = _frames(dims, n, rows)
    counts = _count_cell_calls(monkeypatch, cin)
    with ad.no_grad():
        out = ad.encode(x0, x1, kernel, bias).data
        assert counts[1] == calls
        assert np.array_equal(out, old_encode(x0, x1, kernel, bias).data)


# The WINDOWED grid in training, and a 5^3 kernel whose 13-plane windows
# shift over 30 planes.
@pytest.mark.parametrize("dims, n, rows, spans, calls, k",
                         [case + (k,) for k in (1, 3) for case in WINDOWED]
                         + [((30, 6, 4), 2, 9, ({6}, {1}), 60, 5)])
def test_grad_wavefront_is_bit_identical_to_the_previous_encode(monkeypatch, dims, n, rows,
                                                                spans, calls, k):
    # The model's prediction and its 8 parameter gradients.  The backward
    # runs the second step once per chunk per sample, as the forward does.
    cin, nf = 1, 3
    _windowed_grid(monkeypatch, dims, rows, spans, k, cin, nf)
    counts = _count_cell_calls(monkeypatch, cin, "_cell_backward")
    got = _model_run(monkeypatch, ad.encode, dims, (nf, 4), n, k, True)
    assert counts[1] == calls
    want = _model_run(monkeypatch, old_encode, dims, (nf, 4), n, k, True)
    assert len(got) == len(want) == 9
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dims, filters, n, grad", [
    ((16, 16, 16), 2, 4, False),
    ((16, 16, 16), 4, 4, False),
    ((40, 48, 40), 16, 2, True),
])
def test_encode_runs_each_step_once_per_sample_where_windows_cover_x(monkeypatch, dims,
                                                                     filters, n, grad):
    # At 16^3 with 2 or 4 filters the windows would span 31 and 26 planes,
    # so a no_grad encode runs each step on the whole volume, not in the
    # second step's 2 or 3 chunks.  At 40x48x40 with 16 filters they span 9
    # planes, so a training forward, the same pass, runs the wavefront's
    # chunks: 8 of 5 planes for the first step and 40 of 1 for the second,
    # per sample.
    cin = 1
    kernel, bias = _gate_params(3, cin, filters, 11)
    x0, x1 = _frames(dims, n, 12)
    counts = _count_cell_calls(monkeypatch, cin)
    if grad:
        ad.encode(x0, x1, kernel, bias)
    else:
        with ad.no_grad():
            ad.encode(x0, x1, kernel, bias)
    assert counts == ([8 * n, 40 * n] if dims[0] == 40 else [n, n])


def test_grad_forward_keeps_only_the_argmax():
    # Beyond its pooled output a training forward holds the pool's argmax,
    # one byte per pooled element, and nothing else: the backward reruns
    # both steps.  The oracle keeps both steps' gates and padded inputs.
    dims, cin, nf, k = (40, 48, 40), 1, 16, 3
    x0, x1 = _frames(dims, 1, 7)
    kernel, bias = _gate_params(k, cin, nf, 8)
    pooled = int(np.prod(dims)) // 8 * nf
    bound = pooled * 8 + pooled + (64 << 10)
    for encode in (ad.encode, old_encode):
        out, held, _ = traced(lambda: encode(x0, x1, kernel, bias))
        if encode is ad.encode:
            assert held <= bound, f"holds {held} B over the bound {bound} B"
        else:
            assert held > bound + 8 * pooled * 4 * nf, "the control keeps no gates"
        del out


def test_training_step_peak_grows_with_x_by_the_frames_and_pooled_tensors_only(monkeypatch):
    # A batch-2 training step at 16/32 filters, at (10, 48, 40) and
    # (40, 48, 40).  Both steps run the same chunks at both x (5 and 1
    # planes), in windows of the same planes, forward and backward alike, so
    # from one x to the other the peak may grow only by the frames, the
    # target and the prediction, the first step's padded frame, the pooled
    # output, its gradient and the argmax.  No gates outlive a slab: every
    # cell backward recomputes them.  The oracle keeps each sample's gates
    # and padded inputs, so its peak grows by several whole states.
    n, filters, k = 2, (16, 32), 3
    nf = filters[0]
    small, large = (10, 48, 40), (40, 48, 40)

    def grows(dims):
        vox = int(np.prod(dims))
        return 4 * n * vox * 8 + _padded_bytes(dims, k, 1) + n * vox // 8 * nf * 17

    def peak(encode, dims):
        return traced(lambda: _model_run(monkeypatch, encode, dims, filters, n, k, True))[2]

    bound = grows(large) - grows(small) + (512 << 10)
    state = n * (large[0] - small[0]) * large[1] * large[2] * nf * 8
    for encode, control in ((ad.encode, False), (old_encode, True)):
        growth = peak(encode, large) - peak(encode, small)  # leaves ad.encode patched
        if not control:
            assert growth <= bound, f"grew {growth} B over the bound {bound} B"
        else:
            assert growth > bound + 4 * state, "the control no longer keeps whole states"


def _cell_case(dims, cin, nf, k, state, seed):
    # A cell's padded input, c_prev (None for the zero state), kernel part
    # and bias, and the gradients of its h and c.
    r = np.random.default_rng((61, seed))
    shape = (2,) + dims
    kernel, bias = _gate_params(k, cin, nf, seed)
    zp, inner = ad._gate_input(r.uniform(0.5, 1.5, size=shape + (cin,)), k, nf if state else 0)
    c_prev = None
    if state:
        inner[..., cin:] = r.normal(size=shape + (nf,))
        c_prev = r.normal(size=shape + (nf,))
    w = kernel.data[..., : cin + (nf if state else 0), :]
    grads = [r.normal(size=shape + (nf,)) for _ in range(2)]
    return zp, c_prev, w, bias.data, grads


def cell_backward(gh, gc, zp, c_prev, w, bias, lo):
    # ad._cell_backward into fresh sums, as a whole-volume backward runs it:
    # (gz, gc_prev, gw, gb), gz being the gradient of zp's channels lo:
    # (None when lo is all of them).
    cz, p = w.shape[3], w.shape[0] // 2
    lead = (zp.shape[0],) + tuple(d - 2 * p for d in zp.shape[1:4])
    adjoint = ad._Corr3dAdjoint(w[..., lo:, :], lead) if lo < cz else None
    gc_prev = None if c_prev is None else np.empty(c_prev.shape)
    gw, gb = np.zeros(w.shape), np.zeros(w.shape[4])
    ad._cell_backward(gh, gc, zp, c_prev, gc_prev, w, bias, gw, gb, adjoint)
    return None if adjoint is None else adjoint.result(), gc_prev, gw, gb


# The slab budgets of test_small_slabs_are_bit_identical_to_the_previous_encode,
# in y-rows of the cell's own columns.
@pytest.mark.parametrize("state", [False, True])
@pytest.mark.parametrize("rows", [1, 3, 12])
def test_cell_backward_recomputes_the_gates_bit_for_bit(monkeypatch, rows, state):
    # The oracle's backward reads the gates and tanh(c) its forward kept;
    # the current one recomputes both per slab with the forward's own code.
    # Both run with and without c's gradient, and for the gradients of all
    # of zp's channels (lo = 0) or of h's only (lo = cin).
    dims, cin, nf, k = (4, 6, 4), 2, 3, 3
    cz = cin + nf if state else cin
    monkeypatch.setattr(ad, "_SLAB_BYTES", rows * dims[2] * k ** 3 * cz * 8)
    zp, c_prev, w, bias, (gh, gc) = _cell_case(dims, cin, nf, k, state, rows)
    inner = zp[:, 1:-1, 1:-1, 1:-1]
    *_, saved = old_cell_forward(inner[..., :cin], inner[..., cin:] if state else None, c_prev,
                                 w, bias, True)
    for lo in (0, cin):
        for gcs in (gc, None):
            want = old_cell_backward(gh, gcs, saved, c_prev, w, lo)
            got = cell_backward(gh, gcs, zp, c_prev, w, bias, lo)
            for a, b in zip(got, want):
                assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("with_gh", [False, True])
@pytest.mark.parametrize("rows", [1, 3, 12])
def test_state_step_tanh_c_recompute_matches_a_kept_tanh_c(monkeypatch, rows, with_gh):
    # The oracle's backward reads the tanh(c) its forward kept; the current
    # one recomputes it per slab from the gates and c_prev.  Without h's
    # gradient the oracle takes None and the current backward a zero one,
    # as convlstm3d_step hands it.
    dims, cin, nf, k = (4, 6, 4), 2, 3, 3
    monkeypatch.setattr(ad, "_SLAB_BYTES", rows * dims[2] * k ** 3 * (cin + nf) * 8)
    zp, c_prev, w, bias, (gh, gc) = _cell_case(dims, cin, nf, k, True, rows)
    x, h_prev = zp[:, 1:-1, 1:-1, 1:-1, :cin], zp[:, 1:-1, 1:-1, 1:-1, cin:]
    *_, saved = old_cell_forward(x, h_prev, c_prev, w, bias, True)
    want = old_cell_backward(gh if with_gh else None, gc, saved, c_prev, w, 0)
    got = cell_backward(gh if with_gh else np.zeros(gh.shape), gc, zp, c_prev, w, bias, 0)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_training_step_peak_is_two_samples_kept_plus_one_backward(monkeypatch):
    # One 40x48x40 batch-2 training step at 16/32 filters, bounded as when
    # each sample kept its second step's gates and padded input and its
    # first step's c (encode now keeps only the argmax and holds windows, so
    # it stays far below; test_training_step_peak_grows_with_x_... bounds it
    # tightly).  That peak came in a sample's second-step backward: both
    # samples' kept bytes, the pooled output and its gradient, and that
    # sample's transient, which is its
    # unpooled gradient, the hidden-state gradient's zero-bordered
    # nf-channel accumulator, the gradients of the step's h and c inputs,
    # and one slab.  _model_run's frames and target are made while traced.
    # The oracle keeps more per sample, so it breaks the bound.
    dims, filters = (40, 48, 40), (16, 32)
    nf, k = filters[0], 3
    vox = int(np.prod(dims))
    kept = (_padded_bytes(dims, k, 1 + nf) + vox * 4 * nf * 8 + vox * nf * 8
            + vox // 8 * nf)
    pooled = 2 * vox // 8 * nf * 8
    transient = _padded_bytes(dims, k, nf) + 3 * vox * nf * 8 + ad._SLAB_BYTES
    frames = 3 * 2 * vox * 8
    bound = 2 * kept + 2 * pooled + transient + frames + (8 << 20)  # the decoder and loss
    peaks = [traced(lambda: _model_run(monkeypatch, encode, dims, filters, 2, k, True))[2]
             for encode in (ad.encode, old_encode)]
    assert peaks[0] <= bound, f"peak {peaks[0]} B over the bound {bound} B"
    assert peaks[1] > bound, "the control no longer breaks the bound"
