"""Reverse-mode automatic differentiation on dense numpy tensors.

A Tensor wraps a float64 ndarray plus the closure that routes its output
gradient back to its parents.  Calling ``backward()`` on a scalar loss walks
the graph in reverse topological order and accumulates gradients into the
leaves (tensors no op produced: parameters, inputs), so a leaf's gradients
from backward calls through fresh graphs sum until ``zero_grad``.  Interior
gradients are not kept: the walk releases each interior node's gradient,
saved buffers and parent links once its backward has run, and a second
``backward()`` that reaches a released node raises StateError.  Plain
arrays are constants.

The operation set is what the image-to-image forecaster needs: elementwise
arithmetic, relu / tanh / sigmoid, reductions, channel concat/slice, 3D
convolution and its adjoint, 2x max pooling, nearest-neighbor upsampling,
mean absolute error, and an Adam update.  Batch normalization, which
runs in place, and the convolutional LSTM step are fused ops with
hand-derived backward passes;
the LSTM step takes ``None`` for the zero initial state and computes no
gradient for an input frame given as a plain array.  Its forward and its
backward run one slab of voxels at a time, in plain functions
(``_cell_forward``, ``_cell_backward``) over one slab step
(``_slab_cell``), which the backward reruns to recompute each slab's gates,
so no whole-volume tensor of the 4 * filters gate channels ever exists.
Every input gradient of a convolution, the LSTM step's included, is
scattered slab by slab into a zero-bordered accumulator of the input's
channels (col2im, ``_Corr3dAdjoint``).  ``encode``, the forecaster's
encoder, is one fused op over the same functions and the
pool's (``_pool2``, ``_unpool2``): two LSTM steps from the zero state and
the 2x max pool, one sample at a time as one wavefront over x-planes,
which holds windows of a few planes, not the volume, wherever they are
smaller; its backward runs the same wavefront again, recomputing the
steps, so training keeps only the pool's argmax.  ``decode``, the
forecaster's decoder, is one fused op too: the transposed convolution, its
activation and the 1x1x1 head, one slab of the transposed convolution's
output at a time, so its channels never exist whole; its backward
recomputes each slab.  Tensors are laid out
``(batch, x, y, z, channel)``; convolutions use stride 1 with same-padding
and odd cubic kernels.
"""

import json
import math
import struct
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import FormatError, ParameterError, ShapeError, StateError
from .volume_io import atomic_open

_GRAD_ENABLED = [True]

# Stands in for the backward of a node whose graph backward() has released.
_RELEASED = object()


@contextmanager
def no_grad():
    """Run forward passes without recording the graph."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    # -- graph plumbing ----------------------------------------------------

    def _accumulate(self, g, fresh=False):
        # No two tensors ever share a grad buffer: the first gradient is
        # copied into one of this tensor's own, unless fresh says g is a new
        # array of this tensor's shape that nothing else holds, which is
        # then taken as the buffer without a copy.
        if self.grad is None:
            if fresh:
                self.grad = g
                return
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate d(self)/d(leaf) into the ``.grad`` of every leaf.

        The graph is released as the walk consumes it: once an interior
        node's backward has run, its gradient, its saved forward buffers and
        its parent links are dropped, so only the leaves' gradients and the
        nodes' ``data`` outlive the call.  A released node is marked, and a
        later backward whose graph reaches it raises StateError before any
        gradient moves.
        """
        if self.data.size != 1:
            raise ParameterError(
                f"backward requires a scalar, got shape {self.data.shape}"
            )
        # Iterative post-order walk; parents land before children, so
        # popping from the end visits each node once all its consumers have
        # pushed gradient into it.
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _RELEASED:
                raise StateError(
                    "backward reached a node released by an earlier backward; "
                    "rebuild the graph with a new forward pass"
                )
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _RELEASED, ()

    # -- introspection -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _const(value):
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _node(data, parents, backward):
    if not grad_enabled():
        return Tensor(data)
    return Tensor(data, tuple(parents), backward)


def _unbroadcast(g, shape):
    # Sum the gradient of a broadcast result back down to `shape`.
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _const(a), _const(b)
    out_data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward)


def sub(a, b):
    a, b = _const(a), _const(b)
    out_data = a.data - b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b):
    a, b = _const(a), _const(b)
    out_data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def div(a, b):
    a, b = _const(a), _const(b)
    out_data = a.data / b.data

    def backward(g):
        a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(out_data, (a, b), backward)


def sqrt(a):
    a = _const(a)
    root = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * 0.5 / root)

    return _node(root, (a,), backward)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a):
    a = _const(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0.0), fresh=True)

    return _node(out_data, (a,), backward)


def tanh(a):
    a = _const(a)
    t = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - t * t))

    return _node(t, (a,), backward)


def _sigmoid(v):
    # The logistic function 1 / (1 + exp(-v)) in place, as numpy ufuncs so
    # exp runs vectorized.  exp(-v) overflows to inf for v below about -709.8,
    # which gives the correct 0, and underflows to 0 for large v, which gives
    # 1; neither warns or raises, whatever the caller's error settings.
    with np.errstate(over="ignore", under="ignore"):
        np.negative(v, out=v)
        np.exp(v, out=v)
        v += 1.0
        np.reciprocal(v, out=v)
    return v


def sigmoid(a):
    a = _const(a)
    s = _sigmoid(a.data.copy())

    def backward(g):
        a._accumulate(g * s * (1.0 - s))

    return _node(s, (a,), backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def mean(a, axis=None, keepdims=False):
    a = _const(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if out_data.size == 0 else a.data.size // max(out_data.size, 1)

    def backward(g):
        gg = np.asarray(g)
        if not keepdims and axis is not None:
            gg = np.expand_dims(gg, axis)
        a._accumulate(np.broadcast_to(gg, a.data.shape) / count)

    return _node(out_data, (a,), backward)


def tensor_sum(a, axis=None, keepdims=False):
    a = _const(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = np.asarray(g)
        if not keepdims and axis is not None:
            gg = np.expand_dims(gg, axis)
        a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

    return _node(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# channel concat / slice
# ---------------------------------------------------------------------------

def concat_channels(a, b):
    a, b = _const(a), _const(b)
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(
            f"concat needs matching leading dims, got {a.shape} vs {b.shape}"
        )
    out_data = np.concatenate([a.data, b.data], axis=-1)
    ca = a.data.shape[-1]

    def backward(g):
        a._accumulate(g[..., :ca])
        b._accumulate(g[..., ca:])

    return _node(out_data, (a, b), backward)


def narrow_channels(a, start, length):
    a = _const(a)
    out_data = a.data[..., start : start + length]

    def backward(g):
        full = np.zeros_like(a.data)
        full[..., start : start + length] = g
        a._accumulate(full)

    return _node(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# 3D convolution core
# ---------------------------------------------------------------------------

def _check_conv_args(x, w, expect_in_axis):
    if x.ndim != 5:
        raise ShapeError(f"conv input must be (n, x, y, z, c), got {x.shape}")
    if w.ndim != 5 or not (w.shape[0] == w.shape[1] == w.shape[2]):
        raise ShapeError(f"conv kernel must be cubic (k, k, k, ., .), got {w.shape}")
    k = w.shape[0]
    if k % 2 != 1:
        raise ShapeError(f"conv kernel size must be odd, got {k}")
    if x.shape[4] != w.shape[expect_in_axis]:
        raise ShapeError(
            f"input has {x.shape[4]} channels, kernel expects {w.shape[expect_in_axis]}"
        )
    return k


# Byte budget of one slab buffer (im2col columns, or a ConvLSTM step's gates
# or gate gradient).  A slab is the largest block of whole items, x-planes of
# one item, or y-rows of one plane whose widest buffer fits; only a single
# y-row, z rows of that buffer, may exceed it.
_SLAB_BYTES = 2 << 20


def _pad(x, k):
    p = k // 2
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)))


def _columns(xp, k):
    # View of every k^3 patch of the padded input, laid out
    # (n, a, b, c, i, j, l, ci) so a slab reshapes to im2col rows whose
    # column order matches w.reshape(k^3 * ci, co).
    n, a, b, c, ci = xp.shape
    s0, s1, s2, s3, s4 = xp.strides
    return as_strided(xp, (n, a - k + 1, b - k + 1, c - k + 1, k, k, k, ci),
                      (s0, s1, s2, s3, s1, s2, s3, s4), writeable=False)


def _slabs(lead, row_bytes):
    # Index tuples over the leading axes lead = (n, a, b), one slice with
    # explicit bounds per axis.  Each selects a C-contiguous block of an
    # (n, a, b, ...) array, so out[sel].reshape(-1, co) is a view; together
    # they cover every (item, x, y) once.
    rows = max(1, _SLAB_BYTES // row_bytes)
    d, inner = len(lead) - 1, 1
    while d > 0 and inner * lead[d] <= rows:
        inner *= lead[d]
        d -= 1
    step = max(1, rows // inner)
    whole = tuple(slice(0, m) for m in lead[d + 1 :])
    for outer in np.ndindex(*lead[:d]):
        head = tuple(slice(i, i + 1) for i in outer)
        for i0 in range(0, lead[d], step):
            yield head + (slice(i0, min(i0 + step, lead[d])),) + whole


def _corr3d(xp, w):
    # Same-padding stride-1 correlation of the input already zero-padded by
    # k // 2 (_pad): xp (n, a+2p, b+2p, c+2p, ci), w (k,k,k,ci,co), output
    # (n, a, b, c, co).  One GEMM per slab of im2col rows, written straight
    # into the output, so beyond the padded input the extra memory is one
    # slab's columns (_SLAB_BYTES).
    k = w.shape[0]
    ci, co = w.shape[3:]
    n = xp.shape[0]
    a, b, c = (d - (k - 1) for d in xp.shape[1:4])
    cols = _columns(xp, k)
    width = k ** 3 * ci
    w2 = w.reshape(width, co)
    out = np.empty((n, a, b, c, co))
    for sel in _slabs((n, a, b), c * width * xp.itemsize):
        np.matmul(cols[sel].reshape(-1, width), w2, out=out[sel].reshape(-1, co))
    return out


class _Corr3dAdjoint:
    # The adjoint of _corr3d with kernel w (k,k,k,ci,co) over outputs of
    # leading shape lead = (n, a, b, c), by col2im.  add(sel, d) takes the
    # output gradient of one _slabs block, d (the block's rows, co wide),
    # and adds its image into a zero-bordered channel-first accumulator
    # (n, ci, a+2p, b+2p, c+2p), indexed through its (n, a+2p, ci, b+2p,
    # c+2p) view: one GEMM w2 @ d.T gives every row's k^3 * ci columns
    # grouped by kernel offset, and each offset's block is added at that
    # offset, each add moving contiguous z-rows.  So beyond the accumulator
    # the extra memory is one slab's columns, whatever co is.  acc, if
    # given, is that view to add into (a window of a larger one, say), else
    # a zeroed one is made.  The columns go into buf, if given, a
    # C-contiguous array with room for them that the caller has done with.
    # result() returns the accumulator's interior once, channel-last
    # (n, a, b, c, ci), and drops the accumulator.  A voxel's terms are
    # summed in slab order, then offset order, so the bits depend on the
    # slab grid the caller runs.
    __slots__ = ("w2", "k", "lead", "acc")

    def __init__(self, w, lead, acc=None):
        k = w.shape[0]
        p = k // 2
        n, a, b, c = lead
        self.w2 = w.reshape(-1, w.shape[4])
        self.k, self.lead = k, lead
        if acc is None:
            acc = np.zeros((n, w.shape[3], a + 2 * p, b + 2 * p, c + 2 * p))
            acc = acc.transpose(0, 2, 1, 3, 4)
        self.acc = acc

    def add(self, sel, d, buf=None):
        sn, sx, sy = sel
        k, ci, c = self.k, self.acc.shape[2], self.lead[3]
        block = (sn.stop - sn.start, sx.stop - sx.start, sy.stop - sy.start, c)
        shape = (self.w2.shape[0], d.shape[0])
        out = None if buf is None else buf.reshape(-1)[: shape[0] * shape[1]].reshape(shape)
        cols = np.matmul(self.w2, d.T, out=out).reshape((k, k, k, ci) + block)
        for i, j, l in np.ndindex(k, k, k):
            dst = self.acc[sn, sx.start + i : sx.stop + i, :, sy.start + j : sy.stop + j, l : l + c]
            dst += cols[i, j, l].transpose(1, 2, 0, 3, 4)

    def result(self):
        n, a, b, c = self.lead
        p = self.k // 2
        inner = self.acc[:, p : p + a, :, p : p + b, p : p + c]
        self.acc = None
        return np.ascontiguousarray(inner.transpose(0, 1, 3, 4, 2))


def _flip_swap(w):
    # Spatial flip plus channel transpose: the kernel of the adjoint map.
    return np.ascontiguousarray(np.flip(w, axis=(0, 1, 2)).transpose(0, 1, 2, 4, 3))


def _add_bias(out, bias, filters):
    # Check an optional conv bias against the filter count, add it in place.
    if bias is None:
        return None
    bias = _const(bias)
    if bias.data.shape != (filters,):
        raise ShapeError(f"bias shape {bias.shape} does not match {filters} filters")
    out += bias.data
    return bias


def _conv(x, kernel, bias, adjoint):
    # The body of conv3d and, with adjoint, of conv_transpose3d: the same
    # correlation with the kernel flipped and channel-swapped (_flip_swap),
    # whose kernel gradient is the _flip_swap of the plain one.  The backward
    # makes one pass over g's slabs: each is scattered into the input
    # gradient (_Corr3dAdjoint with the kernel that ran, so g is never
    # padded) and feeds the kernel gradient, im2col(x).T @ g in slab order.
    x, kernel = _const(x), _const(kernel)
    k = _check_conv_args(x, kernel, 4 if adjoint else 3)
    orient = _flip_swap if adjoint else (lambda w: w)
    w = orient(kernel.data)  # (k,k,k,ci,co), ready for plain correlation
    xp = _pad(x.data, k)
    out_data = _corr3d(xp, w)
    bias = _add_bias(out_data, bias, w.shape[4])
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward(g):
        width, co = k ** 3 * w.shape[3], w.shape[4]
        cols, gw = _columns(xp, k), np.zeros((width, co))
        adjoint_x = _Corr3dAdjoint(w, g.shape[:4])
        for sel in _slabs(g.shape[:3], g.shape[3] * width * g.itemsize):
            d = g[sel].reshape(-1, co)
            adjoint_x.add(sel, d)
            gw += cols[sel].reshape(-1, width).T @ d
        x._accumulate(adjoint_x.result(), fresh=True)
        kernel._accumulate(orient(gw.reshape(w.shape)))
        if bias is not None:
            bias._accumulate(g.sum(axis=(0, 1, 2, 3)))

    return _node(out_data, parents, backward)


def conv3d(x, kernel, bias=None):
    """Stride-1 same-padding 3D correlation.

    ``x`` is (n, x, y, z, c_in), ``kernel`` is (k, k, k, c_in, c_out) with k
    odd, ``bias`` is (c_out,) or None.  Output keeps the spatial dims.
    """
    return _conv(x, kernel, bias, adjoint=False)


def conv_transpose3d(x, kernel, bias=None):
    """Adjoint of ``conv3d`` at stride 1 with same-padding.

    ``kernel`` is (k, k, k, c_out, c_in): the forward map here is the exact
    vector-Jacobian product of a conv3d that maps c_out channels to c_in
    channels with the same kernel.
    """
    return _conv(x, kernel, bias, adjoint=True)


ACTIVATIONS = ("relu", "linear")  # decode's, by name


def decode(x, kernel, bias, head_kernel, head_bias, act="relu", out_act="relu"):
    """The forecaster's decoder as one fused op: ``conv_transpose3d(x,
    kernel, bias)``, the activation ``act``, the per-voxel head
    ``conv3d(., head_kernel, head_bias)`` with a 1x1x1 ``head_kernel`` (1, 1,
    1, filters, c_out), then ``out_act``.  Each activation is "relu" or
    "linear" (none).  Returns the head's output (n, x, y, z, c_out).

    The transposed conv runs as ``conv_transpose3d`` does, one GEMM per slab
    of its im2col grid, and each slab then goes through the bias, ``act``
    and the head's GEMM while it is still in cache, so the ``filters``
    channels never exist whole: beyond the padded input the op holds one
    slab and the head's output.  Every element goes through the composed
    ops' expressions.  The head's GEMM runs per slab of the transposed
    conv's grid, not its own; with OpenBLAS 0.3.31 such a one-column product
    gave the whole product's bits on slabs of 100 rows and more (the grids
    at 16^3 with 2 filters, and at 40x48x40 and 80x96x80 with 16, run 480
    rows or more), but differed on some of 35 rows or fewer.

    It is one graph node, which keeps only ``x`` (and the output).  Its
    backward recomputes each slab's ``filters`` channels and ``relu`` masks
    and, while the slab is in cache, feeds both kernel gradients and scatters
    the input gradient by col2im (``_Corr3dAdjoint``), in the slab order of
    ``conv_transpose3d``'s backward.  So every gradient but the head
    kernel's is bit-identical to the composed ops'; the head kernel's sums
    run on the transposed conv's slab grid, so its last bits may differ.
    """
    x, kernel, bias = _const(x), _const(kernel), _const(bias)
    head_kernel, head_bias = _const(head_kernel), _const(head_bias)
    if act not in ACTIVATIONS or out_act not in ACTIVATIONS:
        raise ParameterError(f"activations must be one of {ACTIVATIONS}, got {act!r}, {out_act!r}")
    k = _check_conv_args(x, kernel, 4)
    w = _flip_swap(kernel.data)  # (k,k,k,ci,filters), ready for plain correlation
    filters = w.shape[4]
    if head_kernel.shape[:4] != (1, 1, 1, filters):
        raise ShapeError(f"head kernel must be (1, 1, 1, {filters}, c_out), got {head_kernel.shape}")
    co = head_kernel.shape[4]
    for t, m in ((bias, filters), (head_bias, co)):
        if t.shape != (m,):
            raise ShapeError(f"bias shape {t.shape} does not match {m} filters")
    n, a, b, c = x.shape[:4]
    width = k ** 3 * w.shape[3]
    w2, hw2 = w.reshape(width, filters), head_kernel.data.reshape(filters, co)
    out_data = np.empty((n, a, b, c, co))
    slabs = list(_slabs((n, a, b), c * width * 8))
    rows = max(out_data[sel].size for sel in slabs) // co

    def conv_pass():
        # Per slab: its index, its im2col rows and its transposed-conv output
        # plus bias, before the activation, both in buffers of this pass.
        cols = _columns(_pad(x.data, k), k)
        rows_buf, dec_buf = np.empty((rows, width)), np.empty((rows, filters))
        for sel in slabs:
            rows_in = _im2col(cols, sel, rows_buf)
            ds = dec_buf[: rows_in.shape[0]]
            np.matmul(rows_in, w2, out=ds)
            ds += bias.data
            yield sel, rows_in, ds

    for sel, _, ds in conv_pass():
        if act == "relu":
            np.maximum(ds, 0.0, out=ds)
        np.matmul(ds, hw2, out=out_data[sel].reshape(-1, co))
    out_data += head_bias.data
    if out_act == "relu":
        np.maximum(out_data, 0.0, out=out_data)

    def backward(g):
        gh = g * (out_data > 0.0) if out_act == "relu" else g
        head_bias._accumulate(gh.sum(axis=(0, 1, 2, 3)))
        gw, ghw = np.zeros((width, filters)), np.zeros((filters, co))
        adjoint_x = _Corr3dAdjoint(w, (n, a, b, c))
        # Row 0 carries the running bias sum, so each slab's sum adds the
        # rows in the order the whole gradient's sum over (0, 1, 2, 3) would.
        buf = np.zeros((rows + 1, filters))
        for sel, rows_in, ds in conv_pass():
            m = ds.shape[0]
            d, ghs = buf[1 : m + 1], gh[sel].reshape(-1, co)
            np.matmul(ghs, hw2.T, out=d)
            if act == "relu":
                d *= ds > 0.0
                np.maximum(ds, 0.0, out=ds)
            ghw += ds.T @ ghs
            gw += rows_in.T @ d
            adjoint_x.add(sel, d, rows_in)  # done with this slab's rows
            buf[0] = buf[: m + 1].sum(axis=0)
        x._accumulate(adjoint_x.result(), fresh=True)
        kernel._accumulate(_flip_swap(gw.reshape(w.shape)))
        bias._accumulate(buf[0])
        head_kernel._accumulate(ghw.reshape(head_kernel.shape))

    return _node(out_data, (x, kernel, bias, head_kernel, head_bias), backward)


# ---------------------------------------------------------------------------
# pooling / upsampling
# ---------------------------------------------------------------------------

def _pool2(x, keep):
    # 2x max pooling of (n, a, b, c, ch) with a, b, c even: seven maximum
    # passes over the strided views of the eight cell offsets.  With keep it
    # also returns, as uint8, each cell's argmax in x-fastest scan order,
    # which is all the backward (_unpool2) needs; otherwise None.
    n, a, b, c, ch = x.shape
    cells = x.reshape(n, a // 2, 2, b // 2, 2, c // 2, 2, ch)
    views = [cells[:, :, dx, :, dy, :, dz] for dz, dy, dx in np.ndindex(2, 2, 2)]
    out = np.maximum(views[0], views[1])
    for view in views[2:]:
        np.maximum(out, view, out=out)
    if not keep:
        return out, None
    # Reorder cell offsets to (dz, dy, dx) so the flattened last axis scans
    # x fastest; argmax then breaks ties toward the first such position.
    flat = cells.transpose(0, 1, 3, 5, 7, 6, 4, 2).reshape(n, a // 2, b // 2, c // 2, ch, 8)
    return out, flat.argmax(axis=-1).astype(np.uint8)


def _unpool2(g, idx):
    # The backward of _pool2: each pooled gradient goes to its cell's argmax.
    n, a, b, c, ch = g.shape
    gcells = np.zeros((n, a, b, c, ch, 8))
    np.put_along_axis(gcells, idx[..., None], g[..., None], axis=-1)
    gcells = gcells.reshape(n, a, b, c, ch, 2, 2, 2)
    return gcells.transpose(0, 1, 7, 2, 6, 3, 5, 4).reshape(n, 2 * a, 2 * b, 2 * c, ch)


def maxpool3d(x, window: int = 2):
    """Non-overlapping max pooling; gradient routes to the first maximum in
    x-fastest scan order within each cell."""
    x = _const(x)
    if x.ndim != 5:
        raise ShapeError(f"maxpool input must be (n, x, y, z, c), got {x.shape}")
    if window != 2:
        raise ParameterError(f"only window 2 is supported, got {window}")
    if any(d % 2 for d in x.shape[1:4]):
        raise ShapeError(f"spatial dims must be even for 2x pooling, got {x.shape[1:4]}")
    out_data, idx = _pool2(x.data, grad_enabled())

    def backward(g):
        x._accumulate(_unpool2(g, idx))

    return _node(out_data, (x,), backward)


def upsample_nn(x, factor: int = 2):
    """Nearest-neighbor upsampling: replicate each voxel factor^3 times."""
    x = _const(x)
    if x.ndim != 5:
        raise ShapeError(f"upsample input must be (n, x, y, z, c), got {x.shape}")
    if not isinstance(factor, int) or factor < 1:
        raise ParameterError(f"factor must be a positive int, got {factor!r}")
    out_data = x.data
    for axis in (1, 2, 3):
        out_data = np.repeat(out_data, factor, axis=axis)
    n, a, b, c, ch = x.data.shape

    def backward(g):
        gg = g.reshape(n, a, factor, b, factor, c, factor, ch)
        x._accumulate(gg.sum(axis=(2, 4, 6)))

    return _node(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

_BN_EPS = 1e-3
_BN_MOMENTUM = 0.99
BN_STATS = ("bn.mean", "bn.var")  # the running statistics, as model files name them


def batchnorm(
    x,
    gamma,
    beta,
    stats: Dict[str, np.ndarray],
    mode: str = "train",
):
    """Per-channel batch normalization over the batch and spatial axes.

    In train mode the batch statistics normalize the input and update the
    running estimates ``stats["bn.mean"]`` and ``stats["bn.var"]`` (created
    on first use, then an EMA with momentum 0.99).  In infer mode the
    running estimates are used; calling infer before any train step raises
    StateError.  The variance is offset by eps = 1e-3.  One graph node,
    whose backward is derived by hand.

    Whole-tensor steps run in place, in the order of the plain expressions,
    so the bits are theirs: the centered input becomes ``xhat`` in its own
    buffer, which under ``no_grad`` becomes the output too, and the
    backward's temporaries share one buffer.
    """
    x = _const(x)
    gamma, beta = _const(gamma), _const(beta)
    if x.ndim != 5:
        raise ShapeError(f"batchnorm input must be (n, x, y, z, c), got {x.shape}")
    ch = x.data.shape[4]
    if gamma.data.shape != (ch,) or beta.data.shape != (ch,):
        raise ShapeError(
            f"gamma/beta must have shape ({ch},), got {gamma.shape} and {beta.shape}"
        )
    mean_key, var_key = BN_STATS
    axes = (0, 1, 2, 3)
    if mode == "train":
        mu = x.data.mean(axis=axes, keepdims=True)
        centered = x.data - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        std = np.sqrt(var + _BN_EPS)
        if mean_key not in stats:
            # seed with the first batch so early infer calls are not pulled
            # toward an arbitrary (0, 1) prior the EMA takes ages to forget
            stats[mean_key] = mu.reshape(ch).copy()
            stats[var_key] = var.reshape(ch).copy()
        else:
            stats[mean_key] = (_BN_MOMENTUM * stats[mean_key]
                               + (1.0 - _BN_MOMENTUM) * mu.reshape(ch))
            stats[var_key] = (_BN_MOMENTUM * stats[var_key]
                              + (1.0 - _BN_MOMENTUM) * var.reshape(ch))
    elif mode == "infer":
        if mean_key not in stats or var_key not in stats:
            raise StateError(
                "batchnorm infer mode requires running statistics; train first"
            )
        centered = x.data - stats[mean_key].reshape(1, 1, 1, 1, ch)
        std = np.sqrt(stats[var_key].reshape(1, 1, 1, 1, ch) + _BN_EPS)
    else:
        raise ParameterError(f"mode must be 'train' or 'infer', got {mode!r}")
    xhat = centered  # normalized in place, as is the output under no_grad
    xhat /= std
    out_data = np.multiply(xhat, gamma.data, out=None if grad_enabled() else xhat)
    out_data += beta.data

    def backward(g):
        tmp = g * xhat  # the temporary, reused
        gamma._accumulate(tmp.sum(axis=axes))
        beta._accumulate(g.sum(axis=axes))
        if mode == "train":
            # the batch mean and variance depend on x too: gx -= mean(gx) +
            # xhat * mean(gx * xhat)
            gx = g * gamma.data
            np.multiply(gx, xhat, out=tmp)
            np.multiply(xhat, tmp.mean(axis=axes, keepdims=True), out=tmp)
            tmp += gx.mean(axis=axes, keepdims=True)
            gx -= tmp
        else:
            gx = np.multiply(g, gamma.data, out=tmp)
        gx /= std
        x._accumulate(gx, fresh=True)

    return _node(out_data, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# convolutional LSTM step
# ---------------------------------------------------------------------------

def _gate_input(x, k, nf):
    # A cell's zero-bordered conv input: x in channels :cin, then nf hidden
    # channels left zero for the caller to fill.  Returns the buffer and its
    # interior (a strided view).
    n, a, b, c, cin = x.shape
    p = k // 2
    zp = np.zeros((n, a + 2 * p, b + 2 * p, c + 2 * p, cin + nf))
    inner = zp[:, p : p + a, p : p + b, p : p + c]
    inner[..., :cin] = x
    return zp, inner


def _slab_cell(cols, w2, bias, c_prev, gs, ts, cs):
    # One slab of a ConvLSTM step from its im2col rows cols, the code both
    # the forward and every backward run, so a backward's recomputed gates
    # are the forward's bit for bit.  The GEMM goes into gs, then the bias,
    # then the logistic over the whole contiguous slab at once, candidate
    # columns included, their pre-activations first copied into ts and
    # their tanh taken from ts back over gs's candidate columns.  Then
    # c = i*g (+ f*c_prev, c_prev being the slab's rows or None) goes into
    # cs and tanh(c) into ts.  Returns gs's column views (i, f, g, o).
    nf = ts.shape[1]
    np.matmul(cols, w2, out=gs)
    gs += bias
    i, f, g, o = (gs[:, j * nf : (j + 1) * nf] for j in range(4))
    np.copyto(ts, g)
    _sigmoid(gs)
    np.tanh(ts, out=g)
    np.multiply(i, g, out=cs)
    if c_prev is not None:
        np.multiply(f, c_prev, out=ts)
        cs += ts
    np.tanh(cs, out=ts)
    return i, f, g, o


def _cell_row_bytes(c, w):
    # The bytes of one y-row of c voxels in the widest slab buffer of a
    # ConvLSTM step with the gate kernel part w (k, k, k, cz, 4 * nf): its
    # im2col columns (k^3 * cz wide) or its gates and gate gradient
    # (4 * nf wide), whichever is wider.
    return c * max(w[..., 0].size, w.shape[-1]) * 8


def _cell_slabs(lead, c, w):
    # The slab grid of _cell_forward and _cell_backward over lead = (n, a, b)
    # for rows of c voxels and the gate kernel part w.
    return list(_slabs(lead, _cell_row_bytes(c, w)))


def _scratch(bufs, name, shape):
    # A float64 buffer of the given shape for slab work: a fresh one when
    # bufs is None, else a view of bufs[name], a flat buffer grown to the
    # largest size asked for.  So the many calls of one encoder pass (its
    # chunks and samples) share their slab buffers instead of allocating
    # them each time; a sample's allocations then stay small, and glibc
    # keeps its heap instead of trimming it and faulting it back in.
    size = math.prod(shape)
    if bufs is None:
        return np.empty(shape)
    buf = bufs.get(name)
    if buf is None or buf.size < size:
        buf = bufs[name] = np.empty(size)
    return buf[:size].reshape(shape)


def _im2col(cols, sel, buf):
    # The im2col rows of the slab sel of the patch view cols (_columns),
    # copied into the front of buf, which one call reuses for all its slabs;
    # returns those rows.
    block = cols[sel]
    rows = buf[: block.size // buf.shape[1]]
    np.copyto(rows.reshape(block.shape), block)
    return rows


def _x_chunks(a, b, c, w):
    # The x-ranges [x0, x1) of one item's _cell_slabs grid, in order: single
    # planes when its slabs are y-blocks, else its multi-plane spans, or the
    # whole item.  _cell_forward on any one of them as a sub-volume runs the
    # same slabs, row counts included, as on the whole item.
    grid = _cell_slabs((1, a, b), c, w)
    return list(dict.fromkeys((sel[1].start, sel[1].stop) for sel in grid))


def _cell_forward(zp, c_prev, w, bias, h_out, c_out=None, bufs=None):
    # One ConvLSTM step on plain arrays.  zp is the zero-bordered conv input
    # the caller built (_gate_input): x, then the previous h unless c_prev is
    # None, the zero state.  w is the gate kernel's part for zp's channels.
    # Each slab of _cell_slabs, whose grid the step's widest slab buffer
    # sizes (_cell_row_bytes), runs _slab_cell and writes its rows of h while
    # they are still in cache.
    # h goes into h_out through views of the slab's own shape, never
    # through a reshape, which on a strided view would write into a copy: so
    # h_out may be the hidden channels of the next step's padded input, or
    # c_prev itself, whose rows each slab reads before it writes them.  c
    # goes into c_out (C-contiguous), or, when c_out is None, into a slab
    # buffer and is dropped.  The gates and tanh(c) live in slab buffers
    # only.  The slab buffers come from bufs (_scratch).
    # Past the GEMM every element goes through the same expressions whatever
    # the grid, but the GEMM's last bits can depend on the slab's row count,
    # and a slab can be as small as one y-row of z voxels.  With OpenBLAS
    # 0.3.31, products of up to 34 rows at width 459 (cell 2 at 16 filters),
    # and of one row at widths 27 and 162, differed from the same rows of a
    # 20000-row product; 35 rows and more agreed.  So the backward recomputes
    # the gates on this same grid.
    n, a, b, c, nf = h_out.shape
    k = w.shape[0]
    cz, gates = w.shape[3:]
    cols = _columns(zp, k)
    width = k ** 3 * cz
    w2 = w.reshape(width, gates)
    slabs = _cell_slabs((n, a, b), c, w)
    rows = max(h_out[sel].size for sel in slabs) // nf
    gate_buf = _scratch(bufs, "gates", (rows, gates))
    ts_buf = _scratch(bufs, "ts", (rows, nf))
    c_buf = _scratch(bufs, "c", (rows, nf)) if c_out is None else None
    rows_buf = _scratch(bufs, "rows", (rows, width))
    for sel in slabs:
        hs = h_out[sel]
        m = hs.size // nf
        cp = None if c_prev is None else c_prev[sel].reshape(-1, nf)
        cs = c_buf[:m] if c_out is None else c_out[sel].reshape(-1, nf)
        ts = ts_buf[:m]  # tanh(c)
        *_, o = _slab_cell(_im2col(cols, sel, rows_buf), w2, bias, cp, gate_buf[:m], ts, cs)
        np.multiply(o.reshape(hs.shape), ts.reshape(hs.shape), out=hs)


def _cell_backward(gh, gc, zp, c_prev, gc_prev, w, bias, gw, gb, adjoint, bufs=None):
    # The backward of _cell_forward on plain arrays.  gh and gc are the
    # gradients of h and c (gc may be None), zp and bias the forward's
    # padded input and gate bias.  The gradients are summed into what the
    # caller passes: c_prev's into gc_prev (None without state), w's into
    # gw (C-contiguous, w's shape), the bias's into gb, and those of the
    # conv input channels that need one into adjoint (a _Corr3dAdjoint over
    # zp's interior for their part of w, or None), so a caller that runs a
    # volume as x-chunks carries the sums across them.  The slab buffers
    # come from bufs (_scratch).  One pass over the forward's slab grid:
    # each slab's im2col copy of zp reruns the forward's _slab_cell, so its
    # gates and tanh(c) are the forward's bit for bit and no whole gate
    # tensor exists, then feeds the weight-gradient GEMM (the grid and
    # order of _conv's backward).  Each slab's gate pre-activation gradient
    # goes into one reused slab buffer, and while it is in cache adjoint
    # scatters it, so no whole-volume gate gradient exists.  The buffer's
    # row 0 carries the running bias sum, gb on entry, so summing it with
    # each slab adds the rows in the order dpre.sum(axis=(0, 1, 2, 3))
    # would.  Every element goes through the whole-tensor backward's
    # expressions, so the result is bit-identical to it on any slab grid,
    # if that backward runs its adjoint on the same grid.
    k = w.shape[0]
    cz, gates = w.shape[3:]
    nf = gates // 4
    cols = _columns(zp, k)
    n, a, b, c = cols.shape[:4]
    width = k ** 3 * cz
    w2, gw2 = w.reshape(width, gates), gw.reshape(width, gates)
    slabs = _cell_slabs((n, a, b), c, w)
    rows = max(cols[sel].size for sel in slabs) // width
    buf = _scratch(bufs, "d", (rows + 1, gates))
    buf[0] = gb
    gate_buf = _scratch(bufs, "gates", (rows, gates))
    ts_buf = _scratch(bufs, "ts", (rows, nf))
    c_buf = _scratch(bufs, "c", (rows, nf))
    rows_buf = _scratch(bufs, "rows", (rows, width))
    for sel in slabs:
        rows_in = _im2col(cols, sel, rows_buf)
        m = rows_in.shape[0]
        cp = None if c_prev is None else c_prev[sel].reshape(-1, nf)
        ts = ts_buf[:m]  # tanh(c)
        i, f, g, o = _slab_cell(rows_in, w2, bias, cp, gate_buf[:m], ts, c_buf[:m])
        d = buf[1 : m + 1]
        di, df, dg, do = (d[:, j * nf : (j + 1) * nf] for j in range(4))
        ghs = gh[sel].reshape(-1, nf)
        np.multiply(ghs * ts, o * (1.0 - o), out=do)
        gct = ghs * o * (1.0 - ts * ts)
        if gc is not None:
            gct += gc[sel].reshape(-1, nf)
        np.multiply(gct * g, i * (1.0 - i), out=di)
        np.multiply(gct * i, 1.0 - g * g, out=dg)
        if cp is None:
            df[...] = 0.0
        else:
            np.multiply(gct * cp, f * (1.0 - f), out=df)
            np.multiply(gct, f, out=gc_prev[sel].reshape(-1, nf))
        gw2 += rows_in.T @ d
        if adjoint is not None:
            adjoint.add(sel, d, rows_buf)  # done with this slab's rows
        buf[0] = buf[: m + 1].sum(axis=0)
    gb[...] = buf[0]


def _check_gate_args(x, nf, kernel, bias):
    # The cell's checks of x and of the gate kernel and bias for nf filters;
    # returns x's channel count.
    cin = x.shape[-1]
    if kernel.shape[3:] != (cin + nf, 4 * nf) or bias.shape != (4 * nf,):
        raise ShapeError(
            f"gate kernel must map {cin + nf} channels to {4 * nf} with a "
            f"({4 * nf},) bias, got {kernel.shape} and {bias.shape}"
        )
    _check_conv_args(x, kernel.data[..., :cin, :], 3)
    return cin


def convlstm3d_step(x, h_prev, c_prev, kernel, bias):
    """One ConvLSTM step (Shi et al. 2015) as a single fused op.

    The gate kernel (k, k, k, c_in + filters, 4 * filters) convolves the
    concatenated (input, hidden) channels and emits gate channels ordered
    (input, forget, candidate, output).  Input/forget/output gates are
    logistic; the candidate and the cell output are tanh:
    ``c = i*g + f*c_prev`` and ``h = o*tanh(c)``.  Returns ``(h, c)``.

    ``h_prev`` and ``c_prev`` are both None for the zero initial state: the
    conv then reads only ``x`` through ``kernel[..., :c_in, :]`` and the
    ``f*c_prev`` term is skipped.  ``x`` given as a plain ndarray is a
    constant and gets no gradient; pass a Tensor to differentiate it.

    Every shape is checked before anything is allocated.  The input and the
    hidden state are written once into one zero-padded buffer, and the gates
    are computed one slab of voxels at a time, each slab's GEMM followed at
    once by its gate arithmetic: one vectorized logistic pass over the whole
    slab, then the candidate's tanh on a copy of its pre-activations made
    in a slab buffer.  No gate tensor is kept: the step's memory beyond
    ``h`` and ``c`` is the padded buffer and one slab, and with gradients
    on only the padded buffer is kept for the backward.

    The backward makes one pass over the same slabs.  Each slab first
    reruns the forward's own slab code, so its gates and ``tanh(c)`` are
    the forward's bit for bit.  Its gate gradient is computed in one reused
    slab buffer, feeds the kernel and bias gradients, and, while still in
    cache, is mapped by one GEMM to its input and hidden-state columns,
    which are added into a zero-bordered accumulator of those channels
    only; no whole-volume gate gradient exists.  ``h``'s backward only hands its gradient to ``c``'s, which
    does all the work, so ``c.grad`` holds only the gradient that reaches
    ``c`` directly, never ``h``'s contribution.
    """
    if (h_prev is None) != (c_prev is None):
        raise ParameterError("h_prev and c_prev must both be given or both be None")
    state = h_prev is not None
    x_in = x if isinstance(x, Tensor) else None
    xd = x.data if x_in is not None else np.asarray(x, dtype=np.float64)
    kernel, bias = _const(kernel), _const(bias)
    if state:
        h_prev, c_prev = _const(h_prev), _const(c_prev)
        if h_prev.shape[:-1] != xd.shape[:-1] or c_prev.shape != h_prev.shape:
            raise ShapeError(
                f"state shapes {h_prev.shape}, {c_prev.shape} do not fit input {xd.shape}"
            )
    nf = h_prev.shape[-1] if state else kernel.shape[-1] // 4
    cin = _check_gate_args(xd, nf, kernel, bias)
    cz = cin + nf if state else cin
    w = kernel.data[..., :cz, :]
    zp, inner = _gate_input(xd, w.shape[0], cz - cin)
    if state:
        inner[..., cin:] = h_prev.data
    h_data = np.empty(xd.shape[:-1] + (nf,))
    c_data = np.empty(h_data.shape)
    _cell_forward(zp, c_prev.data if state else None, w, bias.data, h_data, c_data)
    if not grad_enabled():
        return Tensor(h_data), Tensor(c_data)
    # conv input channels that need a gradient: x only when it is a Tensor
    lo = 0 if x_in is not None else cin

    # h's backward only hands its gradient on; c's backward, which always
    # runs after it, does the whole cell backward in one slab pass, with a
    # zero gradient for an h that got none.  So c's own gradient never
    # includes h's contribution.
    pending = {}

    def c_backward(gc):
        gw, gb = np.zeros(w.shape), np.zeros(bias.shape)
        adjoint = _Corr3dAdjoint(w[..., lo:, :], c_data.shape[:4]) if lo < cz else None
        gc_prev = np.empty(c_data.shape) if state else None
        gh = pending.pop("gh") if pending else np.zeros(h_data.shape)
        _cell_backward(gh, gc, zp, c_prev.data if state else None, gc_prev, w, bias.data,
                       gw, gb, adjoint)
        if state:
            c_prev._accumulate(gc_prev)
        bias._accumulate(gb)
        gk = np.zeros(kernel.shape)
        gk[..., :cz, :] = gw
        kernel._accumulate(gk)
        if adjoint is not None:
            gz = adjoint.result()
            if x_in is not None:
                x_in._accumulate(gz[..., :cin])
            if state:
                h_prev._accumulate(gz[..., cin - lo :])

    c = _node(c_data, [p for p in (x_in, h_prev, c_prev, kernel, bias) if p is not None],
              c_backward)

    def h_backward(gh):
        pending["gh"] = gh

    return _node(h_data, (c,), h_backward), c


class _Window:
    # Planes [o, o + len) of axis 1 of a (1, x, ...) volume, in buf, for a
    # wavefront over x.  at(x0, x1) is planes [x0, x1) as a view of buf.
    # When x1 would pass buf's end, the planes from lo, the first one the
    # caller still needs, up to hi, the end of those at() has handed out,
    # first move to buf's front; so lo must only grow, and a view is good
    # until the next at() call.  A plane handed out for the first time holds
    # zeros if fresh, else whatever buf held.  reset() starts a new volume.
    __slots__ = ("buf", "fresh", "o", "lo", "hi")

    def __init__(self, buf, fresh=False):
        self.buf, self.fresh = buf, fresh
        self.reset()

    def reset(self):
        self.o = self.lo = self.hi = 0

    def at(self, x0, x1):
        if x1 - self.o > self.buf.shape[1]:
            self.buf[:, : self.hi - self.lo] = self.buf[:, self.lo - self.o : self.hi - self.o]
            self.o = self.lo
        if x1 > self.hi:
            if self.fresh:
                self.buf[:, self.hi - self.o : x1 - self.o] = 0.0
            self.hi = x1
        return self.buf[:, x0 - self.o : x1 - self.o]


class _Front:
    # The first step of the encoder's wavefront, run ahead of the second,
    # for the samples of one shape (n, a, b, c, cin) in turn, and what the
    # steps of one pass share across its samples: the first step's padded
    # frame zp1, the windows (_Window) zp2, the second step's padded input,
    # and s, and the slab buffers bufs (_scratch).  chunks are both steps'
    # x-chunks (_x_chunks), or the whole volume for both where windows of
    # their longest chunks plus 3p would cover it.  start(x0, x1) begins a
    # sample.  advance(x) then runs the first step's chunks in order until
    # its h covers planes [0, min(x, a)): it writes h into zp2, whose frame
    # channels it fills as it goes, and c into s; it returns the chunks it
    # ran.
    def __init__(self, shape, w, bias):
        _, a, b, c, cin = shape
        nf, self.p = w.shape[-1] // 4, w.shape[0] // 2
        p = self.p
        self.w1, self.bias = w[..., :cin, :], bias
        self.chunks = [_x_chunks(a, b, c, part) for part in (self.w1, w)]
        span = sum(max(hi - lo for lo, hi in ch) for ch in self.chunks) + 3 * p
        if span >= a:
            self.chunks, span = [[(0, a)]] * 2, a + 2 * p
        self.zp1 = np.zeros((1, a + 2 * p, b + 2 * p, c + 2 * p, cin))
        self.zp2 = _Window(np.zeros((1, min(span, a + 2 * p), b + 2 * p, c + 2 * p, cin + nf)))
        self.s = _Window(np.empty((1, min(span, a), b, c, nf)))
        self.bufs = {}

    def gradient_windows(self):
        # The backward's windows (_encode_sample_backward): the first step's
        # c's gradient, and its h's, by col2im into a zero-bordered
        # accumulator.
        (_, _, b, c, nf), p = self.s.buf.shape, self.p
        acc = np.zeros((1, nf, self.zp2.buf.shape[1], b + 2 * p, c + 2 * p))
        return (_Window(np.empty(self.s.buf.shape)),
                _Window(acc.transpose(0, 2, 1, 3, 4), fresh=True))

    def start(self, x0, x1):
        p, (a, b, c) = self.p, x0.shape[1:4]
        self.zp1[:, p : p + a, p : p + b, p : p + c] = x0
        self.x1, self.todo, self.done = x1, iter(self.chunks[0]), 0  # done: planes of h written
        self.zp2.reset()
        self.s.reset()
        self.zp2.buf[:, :p] = 0.0  # the near border; an earlier sample's planes moved there

    def advance(self, x):
        p, (a, b, c, cin) = self.p, self.x1.shape[1:]
        ran = []
        while self.done < min(x, a):
            u0, u1 = next(self.todo)
            planes = self.zp2.at(u0 + p, u1 + (2 * p if u1 == a else p))
            planes[:, u1 - u0 :] = 0.0  # the far border, after the last chunk
            zi = planes[:, : u1 - u0, p : p + b, p : p + c]
            zi[..., :cin] = self.x1[:, u0:u1]
            _cell_forward(self.zp1[:, u0 : u1 + 2 * p], None, self.w1, self.bias, zi[..., cin:],
                          self.s.at(u0, u1), self.bufs)
            ran.append((u0, u1))
            self.done = u1
        return ran


def _encode_sample(front, x0, x1, w, bias, out, idx):
    # Both steps and the pool for one sample, the pooled h into out and, if
    # idx is given, the pool's argmax into idx: for each x-chunk of the
    # second step, the first runs ahead until its h covers the chunk's halo
    # (front, a _Front), the second runs on the chunk, reading the first
    # step's c from s as c_prev and overwriting it with its h, and every
    # finished pair of planes is pooled.  Each chunk runs the whole volume's
    # slabs, so the bits do not depend on the chunks.  zp2 is live from the
    # next chunk on, s from the first unpooled plane, each window with its
    # own origin, so a shift moves only live planes.
    front.start(x0, x1)
    p, pooled = front.p, 0
    for xs, xe in front.chunks[1]:
        front.advance(xe + p)
        h = front.s.at(xs, xe)
        _cell_forward(front.zp2.at(xs, xe + 2 * p), h, w, bias, h, None, front.bufs)
        front.zp2.lo = xe
        end = xe - xe % 2
        out[:, pooled // 2 : end // 2], kept = _pool2(front.s.at(pooled, end), idx is not None)
        if idx is not None:
            idx[:, pooled // 2 : end // 2] = kept
        pooled = front.s.lo = end


def _encode_sample_backward(front, grads, x0, x1, w, bias, g, idx, gk, gb):
    # The backward of _encode_sample for one sample, given the pooled h's
    # gradient g and the pool's argmax idx, summed into gk and gb.  It runs
    # the forward's wavefront again (front, the same chunks): the first
    # step reruns a chunk ahead; the second step's backward runs per chunk
    # on the unpooled gradient of the chunk's planes (the pooled planes a
    # chunk reads are unpooled together and kept until every plane of them
    # is used, so single-plane chunks unpool each pooled plane once) and
    # writes the first step's c and h gradients into windows, h's by col2im
    # into a zero-bordered accumulator (_Corr3dAdjoint); and the first step's
    # backward runs each of its chunks once the second step's chunks cover
    # it plus p, which finishes its h gradient.  Each cell backward
    # recomputes its gates slab by slab.  grads holds the two gradient
    # windows (front.gradient_windows).  Each step's kernel and bias
    # sums are carried across the chunks, so every sum runs in the whole
    # volume's order, and are added to gk and gb per sample, as whole-volume
    # backwards would be.
    _, a, b, c, cin = x0.shape
    front.start(x0, x1)
    gc1, gh1 = grads
    for win in grads:
        win.reset()
    p, w1, wh, bufs = front.p, front.w1, np.ascontiguousarray(w[..., cin:, :]), front.bufs
    gw2, gw1 = np.zeros(w.shape), np.zeros(w1.shape)
    gb2, gb1 = np.zeros(gb.shape), np.zeros(gb.shape)
    ahead = deque()
    up0, up1, up = 0, 0, None  # pooled planes [up0, up1) unpooled, into up
    for xs, xe in front.chunks[1]:
        ahead.extend(front.advance(xe + p))
        q0, q1 = xs // 2, (xe + 1) // 2
        if not up0 <= q0 < q1 <= up1:
            up0, up1, up = q0, q1, _unpool2(g[:, q0:q1], idx[:, q0:q1])
        adjoint = _Corr3dAdjoint(wh, (1, xe - xs, b, c), gh1.at(xs, xe + 2 * p))
        _cell_backward(up[:, xs - 2 * up0 : xe - 2 * up0], None, front.zp2.at(xs, xe + 2 * p),
                       front.s.at(xs, xe), gc1.at(xs, xe), w, bias, gw2, gb2, adjoint, bufs)
        if xe >= 2 * up1:
            up = None  # every plane of it used
        front.zp2.lo = front.s.lo = xe
        while ahead and (ahead[0][1] + p <= xe or xe == a):
            u0, u1 = ahead.popleft()
            gh = _scratch(bufs, "gh", (1, u1 - u0, b, c, gh1.buf.shape[2]))
            planes = gh1.at(u0 + p, u1 + p)[..., p : p + b, p : p + c]
            np.copyto(gh, planes.transpose(0, 1, 3, 4, 2))
            _cell_backward(gh, gc1.at(u0, u1), front.zp1[:, u0 : u1 + 2 * p], None, None, w1,
                           bias, gw1, gb1, None, bufs)
        first = ahead[0][0] if ahead else front.done  # the first plane still to run
        gc1.lo, gh1.lo = min(first, xe), min(first + p, xe)
    gk += gw2
    gb += gb2
    gk[..., :cin, :] += gw1
    gb += gb1


def encode(frames0, frames1, kernel, bias):
    """The forecaster's encoder as one fused op: two ConvLSTM steps from the
    zero state over ``frames0`` then ``frames1``, and 2x max pooling of the
    final hidden state.  Returns the pooled state (n, x/2, y/2, z/2, filters).

    The frames are (n, x, y, z, c_in) arrays with even x, y, z; they are
    constants and get no gradient.  ``kernel`` and ``bias`` are the gate
    kernel and bias of ``convlstm3d_step``, and the result equals, bit for
    bit, ``maxpool3d`` of the ``h`` two chained ``convlstm3d_step`` calls
    return.

    The op runs one sample at a time, so no batch-sized full-resolution
    state exists.  Every step is local in x, so the two steps and the pool
    run as a wavefront over x-planes: for each x-chunk of the second step's
    slab grid, the first step runs its own chunks until its ``h`` covers the
    chunk's halo, the second step runs on the chunk, and the pool takes its
    maxima from every finished pair of planes.  The first step writes its
    ``h`` straight into the second step's padded input and its ``c`` into a
    state buffer, which the second step's ``h`` overwrites slab by slab once
    it has read those rows.  Both are windows of a few planes, so beyond the
    first step's padded frame and the pooled output the memory does not
    grow with x; when the windows would cover the volume anyway, each step
    runs as one chunk.  Each chunk runs the same slabs as the whole volume
    would, so the result is bit-identical.  Both modes run this one pass;
    with gradients on, a sample keeps only the pool's argmax (uint8).

    It is one graph node.  Its backward runs, per sample, the same
    wavefront again (Chen et al. 2016's recompute): the first step reruns
    its forward a chunk ahead; the second step's backward runs per chunk on
    the pool's backward of the chunk's planes and scatters the first step's
    ``h`` and ``c`` gradients into windows; the first step's backward runs
    each of its chunks once those gradients are final there.  Every cell
    backward recomputes its gates slab by slab with the forward's own slab
    code.  No full-resolution state exists in the backward either.  Every
    sum runs in the whole volume's order, with the kernel and bias sums
    carried across the chunks and added up per sample, so the gradients are
    bit-identical to whole-volume backwards.
    """
    x0 = np.asarray(frames0, dtype=np.float64)
    x1 = np.asarray(frames1, dtype=np.float64)
    kernel, bias = _const(kernel), _const(bias)
    if x0.shape != x1.shape:
        raise ShapeError(f"frames must share one shape, got {x0.shape} and {x1.shape}")
    nf = kernel.shape[-1] // 4
    _check_gate_args(x0, nf, kernel, bias)
    if any(d % 2 for d in x0.shape[1:4]):
        raise ShapeError(f"spatial dims must be even for 2x pooling, got {x0.shape[1:4]}")
    n = x0.shape[0]
    w, b = kernel.data, bias.data
    pooled = np.empty((n,) + tuple(d // 2 for d in x0.shape[1:4]) + (nf,))
    idx = np.empty(pooled.shape, np.uint8) if grad_enabled() else None
    front = _Front(x0.shape, w, b)
    for s in range(n):
        _encode_sample(front, x0[s : s + 1], x1[s : s + 1], w, b, pooled[s : s + 1],
                       None if idx is None else idx[s : s + 1])
    if idx is None:
        return Tensor(pooled)

    def backward(g):
        gk, gb = np.zeros(kernel.shape), np.zeros(bias.shape)
        front = _Front(x0.shape, w, b)
        grads = front.gradient_windows()
        for s in range(n):
            _encode_sample_backward(front, grads, x0[s : s + 1], x1[s : s + 1], w, b,
                                    g[s : s + 1], idx[s : s + 1], gk, gb)
        kernel._accumulate(gk)
        bias._accumulate(gb)

    return _node(pooled, (kernel, bias), backward)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def mae_loss(pred, target):
    """Mean absolute error over all elements; subgradient 0 at zero.

    ``target`` given as a plain ndarray is a constant and gets no gradient;
    pass a Tensor to differentiate it."""
    pred = _const(pred)
    target_in = target if isinstance(target, Tensor) else None
    td = target.data if target_in is not None else np.asarray(target, dtype=np.float64)
    if pred.data.shape != td.shape:
        raise ShapeError(
            f"mae_loss shapes differ: {pred.shape} vs {td.shape}"
        )
    diff = pred.data - td
    out_data = np.mean(np.abs(diff))

    def backward(g):
        gd = g * np.sign(diff) / diff.size
        pred._accumulate(gd)
        if target_in is not None:
            target_in._accumulate(-gd)

    return _node(out_data, (pred,) if target_in is None else (pred, target_in), backward)


# ---------------------------------------------------------------------------
# parameters, Adam, serialization
# ---------------------------------------------------------------------------

class ParameterSet:
    """Named learnable tensors plus non-learnable running statistics."""

    def __init__(self):
        self.params: Dict[str, Tensor] = {}
        self.stats: Dict[str, np.ndarray] = {}

    def add(self, name: str, array) -> Tensor:
        if name in self.params:
            raise ParameterError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(array, dtype=np.float64))
        self.params[name] = t
        return t

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def quantize(self) -> "ParameterSet":
        """Round every tensor through float32, the at-rest precision."""
        out = ParameterSet()
        for name, t in self.params.items():
            out.add(name, t.data.astype(np.float32).astype(np.float64))
        for name, arr in self.stats.items():
            out.stats[name] = arr.astype(np.float32).astype(np.float64)
        return out

    def copy(self) -> "ParameterSet":
        out = ParameterSet()
        for name, t in self.params.items():
            out.add(name, t.data.copy())
        for name, arr in self.stats.items():
            out.stats[name] = arr.copy()
        return out


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-7


@dataclass
class AdamState:
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: ParameterSet,
    grads: Dict[str, np.ndarray],
    state: Optional[AdamState] = None,
    lr: float = 1e-3,
) -> AdamState:
    """One bias-corrected Adam update, applied in place, with the standard
    constants beta1 = 0.9, beta2 = 0.999 and eps = 1e-7."""
    if state is None:
        state = AdamState()
    state.t += 1
    t = state.t
    for name, tensor in params.params.items():
        if name not in grads or grads[name] is None:
            raise ParameterError(f"missing gradient for parameter {name!r}")
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != tensor.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name!r} shape {tensor.data.shape}"
            )
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(tensor.data)
            v = np.zeros_like(tensor.data)
        m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * g
        v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        mhat = m / (1.0 - _ADAM_BETA1 ** t)
        vhat = v / (1.0 - _ADAM_BETA2 ** t)
        tensor.data = tensor.data - lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)
    return state


_CONTAINER_MAGIC = b"LPC1"
_CONTAINER_FORMAT = "longipet-tensors/1"


def save_params(params: ParameterSet, path, meta: Optional[dict] = None) -> Path:
    """Write a named-tensor container: magic, JSON index, float32 LE blobs.

    The file is written in place atomically: a failed write leaves any
    previous file at ``path`` as it was."""
    path = Path(path)
    entries = []
    blobs = []
    offset = 0
    for role, items in (("param", params.params.items()), ("stat", params.stats.items())):
        for name, value in items:
            arr = value.data if isinstance(value, Tensor) else value
            blob = np.ascontiguousarray(arr, dtype="<f4").tobytes()
            entries.append(
                {
                    "name": name,
                    "role": role,
                    "shape": [int(d) for d in np.shape(arr)],
                    "offset": offset,
                    "nbytes": len(blob),
                }
            )
            blobs.append(blob)
            offset += len(blob)
    header = {
        "format": _CONTAINER_FORMAT,
        "tensors": entries,
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(_CONTAINER_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)
    return path


def load_params(path):
    """Read a named-tensor container; returns (ParameterSet, meta dict)."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 12 or blob[:4] != _CONTAINER_MAGIC:
        raise FormatError(f"{path} is not a tensor container (bad magic)")
    (header_len,) = struct.unpack_from("<Q", blob, 4)
    if 12 + header_len > len(blob):
        raise FormatError(f"{path} header length exceeds file size")
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path} has an unreadable tensor index: {exc}") from exc
    if not (isinstance(header, dict) and isinstance(header.get("tensors"), list)
            and isinstance(header.get("meta", {}), dict)):
        raise FormatError(f"{path} tensor index is not an object with a 'tensors' list and 'meta'")
    if header.get("format") != _CONTAINER_FORMAT:
        raise FormatError(
            f"{path} has unknown format tag {header.get('format')!r}, "
            f"expected {_CONTAINER_FORMAT!r}"
        )
    body = blob[12 + header_len :]
    out = ParameterSet()
    for i, entry in enumerate(header["tensors"]):
        if not _is_entry(entry):
            raise FormatError(f"{path} tensor index entry {i} does not follow the schema "
                              "save_params writes")
        name, shape = entry["name"], tuple(entry["shape"])
        nbytes, offset = entry["nbytes"], entry["offset"]
        count = int(np.prod(shape)) if shape else 1
        if nbytes != 4 * count:
            raise FormatError(
                f"{path} tensor {name!r}: blob holds {nbytes} bytes, "
                f"shape {shape} needs {4 * count}"
            )
        if offset + nbytes > len(body):
            raise FormatError(f"{path} tensor {name!r}: blob extends past end of file")
        stat = entry.get("role") == "stat"
        if name in (out.stats if stat else out.params):
            raise FormatError(f"{path} tensor index names {name!r} twice")
        arr = np.frombuffer(body, dtype="<f4", count=count, offset=offset)
        arr = arr.astype(np.float64).reshape(shape)
        if stat:
            out.stats[name] = arr
        else:
            out.add(name, arr)
    return out, header.get("meta", {})


def _is_entry(e):
    # A tensor index entry as save_params writes it: a string name, and a
    # shape list, offset and nbytes of non-negative integers.
    if not (isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list)):
        return False
    return all(type(v) is int and v >= 0 for v in e["shape"] + [e.get("offset"), e.get("nbytes")])
