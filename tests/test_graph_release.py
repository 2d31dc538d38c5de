"""Graph release in Tensor.backward: gradients equal to a walk that keeps
the whole graph, a second backward through a released node refused, and the
memory a training step holds after its backward and across two steps."""

import numpy as np
import pytest

from longipet import autodiff as ad
from longipet.errors import StateError
from longipet.model import I2IModelConfig, forward_batch, init_model

from gradcheck import traced

SLACK = 64 << 10


def keep_graph_backward(loss):
    # The walk without release: every interior node keeps its gradient,
    # its saved buffers and its parents after its backward has run.
    order, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def release_backward(loss):
    loss.backward()


def _frames(dims, batch, seed):
    r = np.random.default_rng(seed)
    return [r.uniform(0.5, 1.5, size=(batch,) + dims) for _ in range(3)]


def _param_grads(k, walk):
    config = I2IModelConfig(dims=(8, 8, 8), lstm_filters=2, decoder_filters=3, kernel_size=k)
    params = init_model(config, seed=11)
    x0, x1, y = _frames(config.dims, 2, 5)
    pred = forward_batch(params, x0, x1, config, mode="train")
    walk(ad.mae_loss(pred, y[..., None]))
    return {name: t.grad for name, t in params.params.items()}


@pytest.mark.parametrize("k", [1, 3])
def test_parameter_gradients_equal_the_keep_graph_walk(k):
    got = _param_grads(k, release_backward)
    want = _param_grads(k, keep_graph_backward)
    assert len(got) == 8 and got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_second_backward_through_a_shared_node_raises():
    x = ad.Tensor(3.0)
    h = ad.mul(x, x)
    l1 = ad.add(h, 0.0)
    l2 = ad.mul(h, 2.0)
    l1.backward()
    with pytest.raises(StateError):
        l2.backward()
    assert x.grad == 6.0


def test_second_backward_on_the_same_loss_raises():
    x = ad.Tensor(np.arange(3.0))
    loss = ad.mean(ad.mul(x, x))
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(StateError):
        loss.backward()
    np.testing.assert_array_equal(x.grad, first)


def test_backward_releases_interior_nodes_and_keeps_leaves():
    x = ad.Tensor(np.arange(1.0, 4.0))
    h = ad.relu(x)
    loss = ad.mean(h)
    loss.backward()
    for node in (h, loss):
        assert node.grad is None and node._backward is ad._RELEASED and node._parents == ()
    np.testing.assert_array_equal(x.grad, np.full(3, 1.0 / 3.0))
    np.testing.assert_array_equal(h.data, np.arange(1.0, 4.0))  # data outlives the walk


@pytest.mark.parametrize("with_state", [True, False])
def test_cell_records_no_node_for_an_ndarray_input(with_state):
    # Checked before backward: once released, a node's parents are ().
    r = np.random.default_rng(4)
    x = r.normal(size=(1, 3, 3, 3, 1))
    state = [ad.Tensor(r.normal(size=(1, 3, 3, 3, 2))) for _ in range(2)]
    h, c = ad.convlstm3d_step(x, *(state if with_state else [None, None]),
                              ad.Tensor(0.1 * r.normal(size=(3, 3, 3, 3, 8))),
                              ad.Tensor(np.zeros(8)))
    assert len(c._parents) == (4 if with_state else 2)
    assert not any(np.shares_memory(p.data, x) for p in c._parents)


def test_mae_loss_array_target_gets_no_gradient():
    pred = ad.Tensor(np.array([1.0, 2.0, 5.0, 3.0]))
    target = np.array([2.0, 2.5, 4.0, 3.5])
    loss = ad.mae_loss(pred, target)
    assert loss._parents == (pred,)
    assert loss.item() == np.mean(np.abs(pred.data - target))
    loss.backward()
    np.testing.assert_array_equal(pred.grad, np.sign(pred.data - target) / 4)


def test_mae_loss_tensor_target_gets_its_gradient():
    pred = ad.Tensor(np.array([1.0, 2.0, 5.0, 3.0]))
    target = ad.Tensor(np.array([2.0, 2.5, 4.0, 3.5]))
    ad.mae_loss(pred, target).backward()
    np.testing.assert_array_equal(target.grad, -np.sign(pred.data - target.data) / 4)
    np.testing.assert_array_equal(pred.grad, -target.grad)


# ---------------------------------------------------------------------------
# memory of a training step at 16^3, 4/8 filters, batch 2 (the two-step
# control at batch 32)
# ---------------------------------------------------------------------------

MEM_CONFIG = I2IModelConfig(dims=(16, 16, 16), lstm_filters=4, decoder_filters=8)


def _train_steps(params, frames, n, walk):
    # The training loop's shape: pred and loss are rebound each step, so
    # the previous step's survive until the new forward and loss return.
    x0, x1, y = frames
    for _ in range(n):
        params.zero_grad()
        pred = forward_batch(params, x0, x1, MEM_CONFIG, mode="train")
        loss = ad.mae_loss(pred, y[..., None])
        walk(loss)
    return pred, loss


def _fresh(walk, batch=2):
    # Parameters after one warm-up step, so batchnorm's running statistics
    # and every lazily built numpy loop exist before tracing starts.
    params = init_model(MEM_CONFIG, seed=3)
    frames = _frames(MEM_CONFIG.dims, batch, 9)
    _train_steps(params, frames, 1, walk)
    return params, frames


def _held_after_backward(walk):
    params, frames = _fresh(walk)
    (pred, loss), held, _ = traced(lambda: _train_steps(params, frames, 1, walk))
    grads = sum(t.grad.nbytes for t in params.params.values())
    return held, grads + pred.data.nbytes + loss.data.nbytes + SLACK


def _peak(walk, n, batch=2):
    params, frames = _fresh(walk, batch)
    return traced(lambda: _train_steps(params, frames, n, walk))[2]


def test_step_holds_only_leaf_gradients_pred_and_loss_after_backward():
    held, bound = _held_after_backward(release_backward)
    assert held <= bound, f"{held} B held after backward, bound {bound} B"
    held, bound = _held_after_backward(keep_graph_backward)
    assert held > bound  # a walk that keeps the graph fails the bound


def test_two_steps_peak_no_higher_than_one():
    one, two = _peak(release_backward, 1), _peak(release_backward, 2)
    assert two <= one + SLACK, f"two steps peak {two} B, one step {one} B"
    # A kept graph holds the decoder's gradients and encode's argmax per
    # sample, which at batch 2 and 8 no longer outweigh one sample's encoder
    # backward transient; at batch 32 they do.
    one, two = _peak(keep_graph_backward, 1, 32), _peak(keep_graph_backward, 2, 32)
    assert two > one + SLACK  # a walk that keeps the graph fails the bound
