"""Numeric gradient checking, and memory tracing, shared by the test modules.

Central differences with h=1e-5 in float64, compared with a guarded
relative error: |a - b| / max(floor, |a| + |b|).  The floor keeps the
ratio meaningful when both gradients are near zero.
"""

import tracemalloc

import numpy as np

from longipet import autodiff as ad

H = 1e-5
TOL = 1e-4
FLOOR = 1e-4


def numeric_gradient(f, x, h=H):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = g.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f(x)
        flat_x[i] = orig - h
        fm = f(x)
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(a, b, floor=FLOOR):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom))


def check_op(build, arrays, h=H, tol=TOL):
    """Check analytic vs numeric gradients of ``build`` for every input.

    ``build`` maps len(arrays) Tensors to a scalar Tensor.  Returns the
    worst relative error seen, and asserts it is under ``tol``.
    """
    tensors = [ad.Tensor(np.array(a, dtype=np.float64)) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    worst = 0.0
    for i, a in enumerate(arrays):

        def f(x, i=i):
            inputs = [
                ad.Tensor(np.array(x if j == i else arr, dtype=np.float64))
                for j, arr in enumerate(arrays)
            ]
            return float(build(*inputs).data)

        num = numeric_gradient(f, a, h=h)
        ana = tensors[i].grad
        assert ana is not None, f"input {i} received no gradient"
        err = max_rel_err(ana, num)
        assert err < tol, f"input {i}: max rel err {err:.3g} >= {tol}"
        worst = max(worst, err)
    return worst


def weighted_sum(t, weights):
    """Deterministic non-uniform scalarization of a tensor output."""
    return ad.tensor_sum(ad.mul(t, ad.Tensor(weights)))


def traced(fn):
    """Run ``fn()`` under tracemalloc: (its result, bytes held after it,
    peak bytes during it), counted from the start of the call."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak
