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
mean absolute error, and an Adam update.  Batch normalization and the
convolutional LSTM step are fused ops with hand-derived backward passes;
the LSTM step takes ``None`` for the zero initial state and computes no
gradient for an input frame given as a plain array.  Its forward and its
backward run one slab of voxels at a time, in plain functions
(``_cell_forward``, ``_cell_backward``), so neither holds a whole-volume
temporary of the 4 * filters gate channels beyond the gates it keeps for
the backward and one gradient buffer.  ``encode``, the forecaster's
encoder, is one fused op over the same functions and the pool's
(``_pool2``, ``_unpool2``): two LSTM steps from the zero state and the 2x
max pool, one sample at a time, so no batch-sized full-resolution state
exists.  Tensors are laid out
``(batch, x, y, z, channel)``; convolutions use stride 1 with same-padding
and odd cubic kernels.
"""

import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    def _accumulate(self, g):
        # An owned copy first: no two tensors ever share a grad buffer.
        if self.grad is None:
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
        a._accumulate(g * (a.data > 0.0))

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


# Byte budget of one im2col column matrix.  A slab is the largest block of
# whole items, x-planes of one item, or y-rows of one plane that fits; only
# a single y-row, (z, k, k, k, c_in) columns, may exceed it.
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
    win = sliding_window_view(xp, (k, k, k), axis=(1, 2, 3))
    return win.transpose(0, 1, 2, 3, 5, 6, 7, 4)


def _slabs(lead, row_bytes):
    # Index tuples over the leading axes lead = (n, a, b).  Each selects a
    # C-contiguous block of an (n, a, b, ...) array, so out[sel].reshape(-1,
    # co) is a view; together they cover every (item, x, y) once.
    rows = max(1, _SLAB_BYTES // row_bytes)
    d, inner = len(lead) - 1, 1
    while d > 0 and inner * lead[d] <= rows:
        inner *= lead[d]
        d -= 1
    step = max(1, rows // inner)
    for outer in np.ndindex(*lead[:d]):
        for i0 in range(0, lead[d], step):
            yield outer + (slice(i0, i0 + step),)


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


def _corr3d_grad_w(xp, gy, k):
    # Kernel gradient: im2col(x).T @ gy, summed over slabs, from the input
    # already zero-padded by k // 2 (_pad), so a caller that keeps its padded
    # input never pads it again.
    n, a, b, c, co = gy.shape
    ci = xp.shape[4]
    cols = _columns(xp, k)
    width = k ** 3 * ci
    gw = np.zeros((width, co))
    for sel in _slabs((n, a, b), c * width * xp.itemsize):
        gw += cols[sel].reshape(-1, width).T @ gy[sel].reshape(-1, co)
    return gw.reshape(k, k, k, ci, co)


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
    # whose kernel gradient is the _flip_swap of the plain one.
    x, kernel = _const(x), _const(kernel)
    k = _check_conv_args(x, kernel, 4 if adjoint else 3)
    orient = _flip_swap if adjoint else (lambda w: w)
    w = orient(kernel.data)  # (k,k,k,ci,co), ready for plain correlation
    xp = _pad(x.data, k)
    out_data = _corr3d(xp, w)
    bias = _add_bias(out_data, bias, w.shape[4])
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward(g):
        x._accumulate(_corr3d(_pad(g, k), _flip_swap(w)))
        kernel._accumulate(orient(_corr3d_grad_w(xp, g, k)))
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


def batchnorm(
    x,
    gamma,
    beta,
    stats: Dict[str, np.ndarray],
    mode: str = "train",
    key: str = "bn",
):
    """Per-channel batch normalization over the batch and spatial axes.

    In train mode the batch statistics normalize the input and update the
    running estimates in ``stats`` (created on first use, then an EMA with
    momentum 0.99).  In infer mode the running estimates are used; calling
    infer before any train step raises StateError.  The variance is offset
    by eps = 1e-3.  One graph node, whose backward is derived by hand.
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
    mean_key, var_key = f"{key}.mean", f"{key}.var"
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
    xhat = centered / std
    out_data = xhat * gamma.data + beta.data

    def backward(g):
        gamma._accumulate((g * xhat).sum(axis=axes))
        beta._accumulate(g.sum(axis=axes))
        gx = g * gamma.data
        if mode == "train":
            # the batch mean and variance depend on x too
            gx -= gx.mean(axis=axes, keepdims=True) + xhat * (gx * xhat).mean(
                axis=axes, keepdims=True
            )
        gx /= std
        x._accumulate(gx)

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


def _cell_forward(zp, c_prev, w, bias, keep, h_out, c_out=None):
    # One ConvLSTM step on plain arrays.  zp is the zero-bordered conv input
    # the caller built (_gate_input): x, then the previous h unless c_prev is
    # None, the zero state.  w is the gate kernel's part for zp's channels.
    # Each slab of im2col rows (the _corr3d grid) runs its GEMM, bias and
    # activations and writes its rows of h while its gates are still in
    # cache.  h goes into h_out through views of the slab's own shape, never
    # through a reshape, which on a strided view would write into a copy: so
    # h_out may be the hidden channels of the next step's padded input, or
    # c_prev itself, whose rows each slab reads before it writes them.  c
    # goes into c_out (C-contiguous), or, when c_out is None, into a slab
    # buffer and is dropped.
    # The logistic runs over the whole contiguous slab at once, candidate
    # columns included: their pre-activations are first copied to the slab's
    # tanh(c) rows, still free then, and their tanh is taken there (with
    # keep, written back over the logistic for the backward).  So the gates
    # need no buffer beyond the slab.
    # Past the GEMM every element goes through the same expressions whatever
    # the grid, but the GEMM's last bits can depend on the slab's row count,
    # and a slab can be as small as one y-row of z voxels.  With OpenBLAS
    # 0.3.31, products of up to 34 rows at width 459 (cell 2 at 16 filters),
    # and of one row at widths 27 and 162, differed from the same rows of a
    # 20000-row product; 35 rows and more agreed.
    # With keep the gates are kept whole for the backward and returned with
    # zp as (zp, act, tc), tc being tanh(c) when there is a c_prev and None
    # for the zero state, whose c = i*g the backward recomputes from the
    # gates.  Otherwise one slab-sized buffer of each is reused and the
    # result is None.
    n, a, b, c, nf = h_out.shape
    k = w.shape[0]
    cz, gates = w.shape[3:]
    cols = _columns(zp, k)
    width = k ** 3 * cz
    w2 = w.reshape(width, gates)
    slabs = list(_slabs((n, a, b), c * width * zp.itemsize))
    rows = max(h_out[sel].size for sel in slabs) // nf
    if keep:
        act = np.empty((n, a, b, c, gates))
    else:
        gate_buf = np.empty((rows, gates))
    tc = np.empty((n, a, b, c, nf)) if keep and c_prev is not None else None
    ts_buf = np.empty((rows, nf)) if tc is None else None
    c_buf = np.empty((rows, nf)) if c_out is None else None
    for sel in slabs:
        hs = h_out[sel]
        m = hs.size // nf
        gs = act[sel].reshape(-1, gates) if keep else gate_buf[:m]
        ts = ts_buf[:m] if tc is None else tc[sel].reshape(-1, nf)
        cs = c_buf[:m] if c_out is None else c_out[sel].reshape(-1, nf)
        np.matmul(cols[sel].reshape(-1, width), w2, out=gs)
        gs += bias
        i, f, g, o = (gs[:, j * nf : (j + 1) * nf] for j in range(4))
        np.copyto(ts, g)
        _sigmoid(gs)
        cand = g if keep else ts
        np.tanh(ts, out=cand)
        np.multiply(i, cand, out=cs)
        if c_prev is not None:
            np.multiply(f, c_prev[sel].reshape(-1, nf), out=ts)
            cs += ts
        np.tanh(cs, out=ts)
        np.multiply(o.reshape(hs.shape), ts.reshape(hs.shape), out=hs)
    return (zp, act, tc) if keep else None


def _cell_backward(gh, gc, saved, c_prev, w, lo):
    # The backward of _cell_forward on plain arrays.  gh and gc are the
    # gradients of h and c (either may be None), saved is the forward's
    # (zp, act, tc), lo the first conv input channel that needs a gradient
    # (lo == cz: none).  One pass over the forward's slab grid: each slab's
    # gate pre-activation gradient goes into one reused slab buffer, feeds
    # the weight-gradient GEMM (the _corr3d_grad_w grid and order) and is
    # copied into the interior of one zero-bordered buffer dpad, which the
    # x/h gradient conv reads without padding it again.  The buffer's row 0
    # carries the running bias sum, so summing it with each slab adds the
    # rows in the order dpre.sum(axis=(0, 1, 2, 3)) would.  Every element
    # goes through the whole-tensor backward's expressions, so the result is
    # bit-identical to it on any slab grid.  A zero-state step's tanh(c) is
    # not kept (tc None): a slab that needs it recomputes tanh(i*g) from the
    # gates with the forward's ufuncs, so it is bit-identical too.  Returns
    # (gz, gc_prev, gw, gb): gz is the gradient of zp's channels lo: (None
    # when lo == cz), gc_prev c_prev's (None without state), gw of w and gb
    # of the bias.
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
    cols = _columns(zp, k)
    width = k ** 3 * cz
    slabs = list(_slabs((n, a, b), c * width * zp.itemsize))
    rows = max(act[sel].size for sel in slabs) // gates
    buf = np.zeros((rows + 1, gates))
    ts_buf = np.empty((rows, nf)) if tc is None and gh is not None else None
    gw = np.zeros((width, gates))
    gc_prev = None if c_prev is None else np.empty(c_prev.shape)
    for sel in slabs:
        acts = act[sel].reshape(-1, gates)
        i, f, g, o = (acts[:, j * nf : (j + 1) * nf] for j in range(4))
        m = acts.shape[0]
        d = buf[1 : m + 1]
        di, df, dg, do = (d[:, j * nf : (j + 1) * nf] for j in range(4))
        if gh is None:
            do[...] = 0.0
            gct = gc[sel].reshape(-1, nf)
        else:
            if tc is None:
                ts = ts_buf[:m]
                np.multiply(i, g, out=ts)
                np.tanh(ts, out=ts)
            else:
                ts = tc[sel].reshape(-1, nf)
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
    gz = _corr3d(dpad, _flip_swap(w[..., lo:, :])) if lo < cz else None
    return gz, gc_prev, gw.reshape(k, k, k, cz, gates), buf[0].copy()


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
    in the slab's ``tanh(c)`` rows.  Under ``no_grad`` the step keeps no gate
    tensor: its memory beyond ``h`` and ``c`` is the padded buffer and one
    slab.  With gradients on, the gates and the padded buffer are kept for
    the backward, and ``tanh(c)`` too when there is a previous state; from
    the zero state ``c = i*g``, so the backward recomputes ``tanh(c)`` from
    the kept gates one slab at a time, bit for bit.

    The backward makes one pass over the same slabs.  Each slab's gate
    gradient is computed in one reused slab buffer, feeds the kernel and
    bias gradients, and is copied into one zero-bordered buffer from which
    the input and hidden-state gradients are convolved; no unpadded
    whole-volume gate gradient exists.  ``h``'s backward only hands its
    gradient to ``c``'s, which does all the work, so ``c.grad`` holds only
    the gradient that reaches ``c`` directly, never ``h``'s contribution.
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
    keep = grad_enabled()
    zp, inner = _gate_input(xd, w.shape[0], cz - cin)
    if state:
        inner[..., cin:] = h_prev.data
    h_data = np.empty(xd.shape[:-1] + (nf,))
    c_data = np.empty(h_data.shape)
    saved = _cell_forward(zp, c_prev.data if state else None, w, bias.data, keep,
                          h_data, c_data)
    if not keep:
        return Tensor(h_data), Tensor(c_data)
    # conv input channels that need a gradient: x only when it is a Tensor
    lo = 0 if x_in is not None else cin

    # h's backward only hands its gradient on; c's backward, which always
    # runs after it, does the whole cell backward in one slab pass.  So c's
    # own gradient never includes h's contribution.
    pending = {}

    def c_backward(gc):
        gz, gc_prev, gw, gb = _cell_backward(
            pending.pop("gh", None), gc, saved, c_prev.data if state else None, w, lo)
        if state:
            c_prev._accumulate(gc_prev)
        bias._accumulate(gb)
        gk = np.zeros(kernel.shape)
        gk[..., :cz, :] = gw
        kernel._accumulate(gk)
        if gz is not None:
            if x_in is not None:
                x_in._accumulate(gz[..., :cin])
            if state:
                h_prev._accumulate(gz[..., cin - lo :])

    c = _node(c_data, [p for p in (x_in, h_prev, c_prev, kernel, bias) if p is not None],
              c_backward)

    def h_backward(gh):
        pending["gh"] = gh

    return _node(h_data, (c,), h_backward), c


def _encode_sample(x0, x1, w, bias, keep):
    # Both cells and the pool for one sample, whose full-resolution memory
    # is cell 2's padded input zp2 and one state buffer s.  Cell 1 writes its
    # c into s and its h straight into zp2's hidden channels; cell 2 reads
    # its c_prev from s and writes its h over each slab's rows of s once it
    # has read them, and the pool reads h from s.  Returns the pooled state
    # and, with keep, what the backward needs: (cell 1's saved, cell 2's
    # saved, the pool's argmax).  Neither cell 1's c nor its tanh is kept:
    # from the zero state c1 = i1*g1, which the backward recomputes.
    cin, nf, k = x0.shape[-1], w.shape[-1] // 4, w.shape[0]
    zp2, inner = _gate_input(x1, k, nf)
    s = np.empty(x0.shape[:-1] + (nf,))
    cell1 = _cell_forward(_gate_input(x0, k, 0)[0], None, w[..., :cin, :], bias, keep,
                          inner[..., cin:], s)
    del inner
    cell2 = _cell_forward(zp2, s, w, bias, keep, s)
    del zp2  # under no_grad, freed before the pool allocates its output
    pooled, idx = _pool2(s, keep)
    return pooled, ((cell1, cell2, idx) if keep else None)


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
    state exists.  A sample's full-resolution memory is the second step's
    padded input and one ``filters``-channel state buffer: the first step
    writes its ``h`` straight into that padded input and its ``c`` into the
    buffer, and the second step writes its ``h`` over the buffer, slab by
    slab, once it has read those rows of ``c``.  Under ``no_grad`` the pool
    takes its maxima straight from strided views of that ``h`` and computes
    no argmax.  With gradients on it keeps, per sample, the two steps' gates
    and padded inputs, the second step's ``tanh(c)`` and the pool's argmax
    (uint8); the first step's ``c = i*g`` and its tanh are recomputed from
    its gates in the backward.  It is one graph node, whose backward runs,
    per sample, the pool's backward and the two cell backwards, and sums the
    kernel and bias gradients over the samples.
    """
    x0 = np.asarray(frames0, dtype=np.float64)
    x1 = np.asarray(frames1, dtype=np.float64)
    kernel, bias = _const(kernel), _const(bias)
    if x0.shape != x1.shape:
        raise ShapeError(f"frames must share one shape, got {x0.shape} and {x1.shape}")
    nf = kernel.shape[-1] // 4
    cin = _check_gate_args(x0, nf, kernel, bias)
    if any(d % 2 for d in x0.shape[1:4]):
        raise ShapeError(f"spatial dims must be even for 2x pooling, got {x0.shape[1:4]}")
    n = x0.shape[0]
    w = kernel.data
    keep = grad_enabled()
    parts = [_encode_sample(x0[s : s + 1], x1[s : s + 1], w, bias.data, keep)
             for s in range(n)]
    pooled = np.concatenate([part for part, _ in parts])
    if not keep:
        return Tensor(pooled)
    saved = [kept for _, kept in parts]

    def backward(g):
        gk, gb = np.zeros(kernel.shape), np.zeros(bias.shape)
        for s, (cell1, cell2, idx) in enumerate(saved):
            act1 = cell1[1]
            c1 = act1[..., :nf] * act1[..., 2 * nf : 3 * nf]
            gh, gc, gw, gbs = _cell_backward(
                _unpool2(g[s : s + 1], idx), None, cell2, c1, w, cin)
            del c1
            gk += gw
            gb += gbs
            _, _, gw, gbs = _cell_backward(gh, gc, cell1, None, w[..., :cin, :], cin)
            gk[..., :cin, :] += gw
            gb += gbs
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
    if not (isinstance(header, dict) and isinstance(header.get("tensors", []), list)
            and isinstance(header.get("meta", {}), dict)):
        raise FormatError(f"{path} tensor index is not an object with a 'tensors' list and 'meta'")
    if header.get("format") != _CONTAINER_FORMAT:
        raise FormatError(
            f"{path} has unknown format tag {header.get('format')!r}, "
            f"expected {_CONTAINER_FORMAT!r}"
        )
    body = blob[12 + header_len :]
    out = ParameterSet()
    for i, entry in enumerate(header.get("tensors", [])):
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
        arr = np.frombuffer(body, dtype="<f4", count=count, offset=offset)
        arr = arr.astype(np.float64).reshape(shape)
        if entry.get("role") == "stat":
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
