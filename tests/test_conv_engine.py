"""Equivalence of the convolution engine, the slab-chunked im2col GEMM that
runs every correlation, with the per-offset loop it replaced, of the col2im
adjoint that computes every input gradient with the padded correlation it
replaced, and the memory that engine holds.

The oracle below is the original implementation: one matmul per kernel
offset over a copied input patch.  The GEMMs may sum in another order, so
the comparison uses a tolerance rather than equality.
"""

import numpy as np
import pytest

from longipet import autodiff as ad

from gradcheck import traced

TOL = 1e-12


def corr3d_per_offset(x, w):
    n, a, b, c, ci = x.shape
    k = w.shape[0]
    co = w.shape[4]
    if k == 1:
        return np.tensordot(x, w[0, 0, 0], axes=([4], [0]))
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)))
    out = np.zeros((n, a, b, c, co))
    out2 = out.reshape(-1, co)
    for i in range(k):
        for j in range(k):
            for l in range(k):
                patch = xp[:, i : i + a, j : j + b, l : l + c, :]
                out2 += patch.reshape(-1, ci) @ w[i, j, l]
    return out


def corr3d_grad_w_per_offset(x, gy, k):
    n, a, b, c, ci = x.shape
    co = gy.shape[4]
    gw = np.empty((k, k, k, ci, co))
    if k == 1:
        gw[0, 0, 0] = x.reshape(-1, ci).T @ gy.reshape(-1, co)
        return gw
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)))
    g2 = gy.reshape(-1, co)
    for i in range(k):
        for j in range(k):
            for l in range(k):
                patch = xp[:, i : i + a, j : j + b, l : l + c, :]
                gw[i, j, l] = patch.reshape(-1, ci).T @ g2
    return gw


def corr3d_grad_w(xp, gy, k, slabs=None):
    # The slab-order reference for the whole-tensor step in test_cell_slabs.
    # Kernel gradient: im2col(x).T @ gy, summed over slabs (by default the
    # grid of im2col columns, _corr3d's), from the input already
    # zero-padded by k // 2 (_pad), so a caller that keeps its padded input
    # never pads it again.
    n, a, b, c, co = gy.shape
    ci = xp.shape[4]
    cols = ad._columns(xp, k)
    width = k ** 3 * ci
    gw = np.zeros((width, co))
    if slabs is None:
        slabs = ad._slabs((n, a, b), c * width * xp.itemsize)
    for sel in slabs:
        gw += cols[sel].reshape(-1, width).T @ gy[sel].reshape(-1, co)
    return gw.reshape(k, k, k, ci, co)


# Slab budgets, in y-rows of the widest slab buffer (here im2col columns of
# the input shape).  None keeps the module default (the whole batch in one
# GEMM at these sizes).  1 and 2 cut single planes into rows (2 leaves a
# ragged last slab when b = 3); "planes" makes slabs of 2, 2, 1 x-planes of
# a = 5; "items" groups two whole items of n = 3, leaving one alone.
BUDGETS = [None, 1, 2, "planes", "items"]


def _set_budget(monkeypatch, budget, shape, row_bytes):
    # row_bytes: one y-row of the slab grid's widest buffer
    if budget is None:
        return
    _, a, b = shape[:3]
    rows = {"planes": 2 * b, "items": 2 * a * b}.get(budget, budget)
    monkeypatch.setattr(ad, "_SLAB_BYTES", rows * row_bytes)


def _column_row_bytes(shape, k):
    # one y-row of im2col columns of an input of this shape
    return shape[3] * k ** 3 * shape[4] * 8


# (shape, k, c_out): outputs wider and narrower than the input (c_out >=
# c_in and c_out < c_in; both run the one im2col path), k in {1, 3, 5},
# batches of 3 with a = 5 x-planes.  The last case is the 1x1x1 head's
# many-to-one channel map, scaled down.
CASES = [
    ((3, 5, 4, 3, 2), 3, 5),
    ((3, 5, 4, 3, 2), 3, 2),
    ((3, 5, 3, 4, 6), 3, 2),
    ((3, 5, 2, 3, 2), 5, 3),
    ((3, 5, 3, 2, 4), 5, 1),
    ((3, 5, 2, 2, 2), 1, 3),
    ((3, 5, 2, 2, 3), 1, 2),
    ((3, 5, 4, 3, 8), 1, 1),
]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("shape,k,co", CASES)
def test_corr3d_matches_per_offset_loop(monkeypatch, shape, k, co, budget):
    r = np.random.default_rng((77, k, co, shape[4]))
    x = r.normal(size=shape)
    w = r.normal(size=(k, k, k, shape[4], co))
    _set_budget(monkeypatch, budget, shape, _column_row_bytes(shape, k))
    got = ad._corr3d(ad._pad(x, k), w)
    assert got.shape == shape[:4] + (co,)
    np.testing.assert_allclose(got, corr3d_per_offset(x, w), rtol=0, atol=TOL)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("shape,k,co", CASES)
def test_corr3d_grad_w_matches_per_offset_loop(monkeypatch, shape, k, co, budget):
    # The kernel gradient that conv3d's and conv_transpose3d's backward
    # compute, given the output gradient gy: conv3d's is the slab-order
    # reference's bit for bit, and conv_transpose3d's, whose kernel is
    # (k, k, k, c_out, c_in), is that one flipped and channel-swapped.
    r = np.random.default_rng((78, k, co, shape[4]))
    x = r.normal(size=shape)
    gy = r.normal(size=shape[:4] + (co,))
    _set_budget(monkeypatch, budget, shape, _column_row_bytes(shape, k))
    want = corr3d_grad_w_per_offset(x, gy, k)
    for op, kernel_shape, oriented in (
            (ad.conv3d, (k, k, k, shape[4], co), want),
            (ad.conv_transpose3d, (k, k, k, co, shape[4]),
             np.flip(want, axis=(0, 1, 2)).transpose(0, 1, 2, 4, 3))):
        kernel = ad.Tensor(r.normal(size=kernel_shape))
        y = op(x, kernel)
        ad._node(np.zeros(()), (y,), lambda _, y=y: y._accumulate(gy)).backward()
        assert kernel.grad.shape == kernel_shape
        np.testing.assert_allclose(kernel.grad, oriented, rtol=0, atol=TOL)
        if op is ad.conv3d:
            assert np.array_equal(kernel.grad, corr3d_grad_w(ad._pad(x, k), gy, k))


def test_narrow_corr3d_holds_its_output_and_one_slab_of_columns(monkeypatch):
    # The ConvLSTM hidden-state gradient's 64 -> 16 map, scaled down to a
    # 16^3 output, with a slab of one y-row.  Beyond the padded input the
    # correlation holds its output and that slab's im2col columns: nothing
    # the size of the padded volume.
    r = np.random.default_rng(79)
    xp = r.normal(size=(1, 18, 18, 18, 64))
    w = r.normal(size=(3, 3, 3, 64, 16))
    row = 16 * 27 * 64 * 8
    monkeypatch.setattr(ad, "_SLAB_BYTES", row)
    out, _, peak = traced(lambda: ad._corr3d(xp, w))
    bound = out.nbytes + row + (64 << 10)
    assert peak <= bound, f"peak {peak} B over the bound {bound} B"


class DpadAdjoint:
    """The input gradient as it ran before col2im, behind _Corr3dAdjoint's
    interface: each slab's output gradient is copied into a zero-bordered
    buffer of its c_out channels (dpad), which is then correlated with the
    flipped, channel-swapped kernel."""

    def __init__(self, w, lead):
        p = w.shape[0] // 2
        n, a, b, c = lead
        self.w = w
        self.dpad = np.zeros((n, a + 2 * p, b + 2 * p, c + 2 * p, w.shape[4]))
        self.inner = self.dpad[:, p : p + a, p : p + b, p : p + c]

    def add(self, sel, d, buf=None):
        self.inner[sel] = d.reshape(self.inner[sel].shape)

    def result(self):
        return ad._corr3d(self.dpad, ad._flip_swap(self.w))


# Slab budgets in y-rows of the adjoint's columns over (n, 5, 5, 4) outputs:
# 1 row, 3 rows (3 + 2 per plane) and 12 rows (2 + 2 + 1 planes), the last
# two ragged.
@pytest.mark.parametrize("rows", [1, 3, 12])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("op", ["conv3d", "conv_transpose3d"])
def test_input_gradient_matches_the_padded_flipped_correlation(monkeypatch, op, k, n, rows):
    # The input gradient of either op against the correlation of the padded
    # output gradient with the flipped, channel-swapped kernel the forward
    # ran (w): the adjoint sums each voxel's terms in another order.
    ci, co = 2, 3
    r = np.random.default_rng((80, k, n, rows))
    x = ad.Tensor(r.normal(size=(n, 5, 5, 4, ci)))
    if op == "conv3d":
        kernel = r.normal(size=(k, k, k, ci, co))
        w = kernel
    else:
        kernel = r.normal(size=(k, k, k, co, ci))
        w = ad._flip_swap(kernel)
    g = r.normal(size=(n, 5, 5, 4, co))
    monkeypatch.setattr(ad, "_SLAB_BYTES", rows * 4 * k ** 3 * ci * 8)
    y = getattr(ad, op)(x, ad.Tensor(kernel))
    ad._node(np.zeros(()), (y,), lambda _: y._accumulate(g)).backward()
    want = ad._corr3d(ad._pad(g, k), ad._flip_swap(w))
    assert x.grad.shape == want.shape
    np.testing.assert_allclose(x.grad, want, rtol=0, atol=TOL * np.abs(want).max())
    adjoint = DpadAdjoint(w, g.shape[:4])
    for sel in ad._slabs(g.shape[:3], 4 * k ** 3 * ci * 8):
        adjoint.add(sel, g[sel].reshape(-1, co))
    assert np.array_equal(adjoint.result(), want)


@pytest.mark.parametrize("lead", [(3, 5, 4), (1, 7, 3), (2, 1, 1)])
@pytest.mark.parametrize("rows", [1, 2, 3, 5, 8, 20, 41, 1000])
def test_slabs_cover_every_row_once_within_budget(monkeypatch, lead, rows):
    row_bytes = 96
    monkeypatch.setattr(ad, "_SLAB_BYTES", rows * row_bytes)
    seen = np.zeros(lead, dtype=int)
    for sel in ad._slabs(lead, row_bytes):
        block = seen[sel]
        assert block.size <= rows
        assert block.flags.c_contiguous
        seen[sel] += 1
    np.testing.assert_array_equal(seen, 1)
