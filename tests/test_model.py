"""Forecaster network: configuration, initialization, shapes, serialization,
and an end-to-end gradient check on a miniature instance."""

import tracemalloc

import numpy as np
import pytest

from longipet import autodiff as ad
from longipet.errors import FormatError, ParameterError, ShapeError, StateError
from longipet.model import (
    I2IModelConfig,
    forward,
    forward_batch,
    init_model,
    load_model,
    save_model,
)
from longipet.volume_io import Volume3D

from gradcheck import max_rel_err, numeric_gradient, traced

SMALL = I2IModelConfig(dims=(8, 8, 8), lstm_filters=2, decoder_filters=3)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_defaults():
    c = I2IModelConfig()
    assert c.dims == (80, 96, 80)
    assert c.lstm_filters == 16
    assert c.decoder_filters == 32
    assert c.kernel_size == 3
    assert c.decoder_activation == "relu"
    assert c.output_activation == "relu"


def test_config_rejects_odd_dims():
    with pytest.raises(ParameterError):
        I2IModelConfig(dims=(7, 8, 8))


def test_config_rejects_even_kernel():
    with pytest.raises(ParameterError):
        I2IModelConfig(dims=(8, 8, 8), kernel_size=2)


def test_config_rejects_bad_activation():
    with pytest.raises(ParameterError):
        I2IModelConfig(dims=(8, 8, 8), output_activation="tanh")


def test_config_rejects_bad_rank():
    with pytest.raises(ParameterError):
        I2IModelConfig(dims=(8, 8))


@pytest.mark.parametrize("field, value", [
    ("dims", (16.5, 16, 16)), ("lstm_filters", 2.5), ("decoder_filters", 4.0),
    ("kernel_size", 3.0),
])
def test_config_rejects_a_setting_that_is_not_an_integer(field, value):
    with pytest.raises(ParameterError, match="must be an integer"):
        I2IModelConfig(**{field: value})


def test_config_takes_numpy_integers_as_python_ints(tmp_path):
    c = I2IModelConfig(dims=np.array([4, 6, 8]), lstm_filters=np.int64(2),
                       decoder_filters=np.int32(3), kernel_size=np.uint8(1))
    assert c == I2IModelConfig(dims=(4, 6, 8), lstm_filters=2, decoder_filters=3, kernel_size=1)
    assert all(type(v) is int for v in (*c.dims, c.lstm_filters, c.decoder_filters, c.kernel_size))
    save_model(init_model(c, seed=0), c, tmp_path / "model.bin")  # its config is JSON


def test_config_dict_roundtrip():
    c = I2IModelConfig(dims=(4, 6, 8), lstm_filters=3, decoder_filters=5)
    d = c.to_dict()
    assert d["dims"] == [4, 6, 8]
    assert I2IModelConfig.from_dict(d) == c


def test_config_from_dict_ignores_the_old_pool_key():
    # model files from version 0.2.0 store "pool": 2, then the only legal value
    d = I2IModelConfig(dims=(4, 6, 8)).to_dict()
    assert "pool" not in d
    assert I2IModelConfig.from_dict({**d, "pool": 2}) == I2IModelConfig(dims=(4, 6, 8))


def test_config_from_dict_missing_key():
    with pytest.raises(FormatError):
        I2IModelConfig.from_dict({"dims": [4, 4, 4]})


@pytest.mark.parametrize("field, value", [
    ("lstm_filters", 2.5), ("lstm_filters", "16"), ("decoder_filters", True),
    ("kernel_size", 3.0), ("dims", [4, "6", 8]), ("dims", [4, 6.0, 8]),
    ("kernel_size", 2), ("lstm_filters", 0), ("output_activation", "tanh"),
])
def test_config_from_dict_neither_coerces_nor_lets_a_bad_value_pass(field, value):
    # what the constructor would reject is a broken file, not a bad argument
    d = {**I2IModelConfig(dims=(4, 6, 8)).to_dict(), field: value}
    with pytest.raises(FormatError, match="bad model config"):
        I2IModelConfig.from_dict(d)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

EXPECTED_PARAM_NAMES = [
    "convlstm.kernel",
    "convlstm.bias",
    "bn.gamma",
    "bn.beta",
    "deconv.kernel",
    "deconv.bias",
    "head.kernel",
    "head.bias",
]


def test_init_param_names_and_shapes():
    ps = init_model(SMALL, seed=0)
    assert list(ps.params) == EXPECTED_PARAM_NAMES
    k, f, dec = SMALL.kernel_size, SMALL.lstm_filters, SMALL.decoder_filters
    assert ps.params["convlstm.kernel"].shape == (k, k, k, 1 + f, 4 * f)
    assert ps.params["convlstm.bias"].shape == (4 * f,)
    assert ps.params["bn.gamma"].shape == (f,)
    assert ps.params["bn.beta"].shape == (f,)
    assert ps.params["deconv.kernel"].shape == (k, k, k, dec, f)
    assert ps.params["deconv.bias"].shape == (dec,)
    assert ps.params["head.kernel"].shape == (1, 1, 1, dec, 1)
    assert ps.params["head.bias"].shape == (1,)


def test_init_biases_zero_gains_one():
    ps = init_model(SMALL, seed=3)
    np.testing.assert_array_equal(ps.params["convlstm.bias"].data, 0.0)
    np.testing.assert_array_equal(ps.params["deconv.bias"].data, 0.0)
    np.testing.assert_array_equal(ps.params["head.bias"].data, 0.0)
    np.testing.assert_array_equal(ps.params["bn.gamma"].data, 1.0)
    np.testing.assert_array_equal(ps.params["bn.beta"].data, 0.0)


def test_init_deterministic_per_seed():
    a = init_model(SMALL, seed=42)
    b = init_model(SMALL, seed=42)
    c = init_model(SMALL, seed=43)
    for name in EXPECTED_PARAM_NAMES:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    assert not np.array_equal(
        a.params["convlstm.kernel"].data, c.params["convlstm.kernel"].data
    )


def test_init_kernel_bounds_match_fan():
    ps = init_model(SMALL, seed=5)
    k, f = SMALL.kernel_size, SMALL.lstm_filters
    k3 = k ** 3
    limit = np.sqrt(6.0 / (k3 * (1 + f) + k3 * 4 * f))
    w = ps.params["convlstm.kernel"].data
    assert np.abs(w).max() <= limit
    # a uniform draw this size hugs its bound
    assert np.abs(w).max() > 0.8 * limit


def test_init_fresh_stats_empty():
    ps = init_model(SMALL, seed=0)
    assert ps.stats == {}


# ---------------------------------------------------------------------------
# forward shapes and modes
# ---------------------------------------------------------------------------

def _frames(n, dims, seed):
    r = np.random.default_rng(seed)
    return r.uniform(0.2, 1.5, size=(n, *dims)), r.uniform(0.2, 1.5, size=(n, *dims))


def test_forward_shapes_and_trace():
    ps = init_model(SMALL, seed=0)
    f0, f1 = _frames(2, SMALL.dims, 1)
    trace = {}
    out = forward_batch(ps, f0, f1, SMALL, mode="train", trace=trace)
    assert out.shape == (2, 8, 8, 8, 1)
    assert trace["lstm_hidden"] == (2, 8, 8, 8, 2)
    assert trace["pooled"] == (2, 4, 4, 4, 2)
    assert trace["decoded"] == (2, 4, 4, 4, 3)
    assert trace["head"] == (2, 4, 4, 4, 1)
    assert trace["upsampled"] == (2, 8, 8, 8, 1)
    assert trace["output"] == (2, 8, 8, 8, 1)


def test_forward_output_nonnegative():
    ps = init_model(SMALL, seed=7)
    f0, f1 = _frames(3, SMALL.dims, 2)
    out = forward_batch(ps, f0, f1, SMALL, mode="train")
    assert np.all(out.data >= 0.0)


def test_forward_bad_mode():
    ps = init_model(SMALL, seed=0)
    f0, f1 = _frames(1, SMALL.dims, 3)
    with pytest.raises(ParameterError):
        forward_batch(ps, f0, f1, SMALL, mode="test")


def test_forward_frame_shape_mismatch():
    ps = init_model(SMALL, seed=0)
    f0, _ = _frames(1, SMALL.dims, 3)
    f1 = np.zeros((2, 8, 8, 8))
    with pytest.raises(ShapeError):
        forward_batch(ps, f0, f1, SMALL)


def test_forward_wrong_spatial_dims():
    ps = init_model(SMALL, seed=0)
    f0 = np.zeros((1, 4, 4, 4))
    with pytest.raises(ShapeError):
        forward_batch(ps, f0, f0, SMALL)


def test_infer_before_any_training_is_an_error():
    ps = init_model(SMALL, seed=0)
    f0, f1 = _frames(1, SMALL.dims, 4)
    with pytest.raises(StateError):
        forward_batch(ps, f0, f1, SMALL, mode="infer")


def test_infer_after_train_uses_running_stats():
    ps = init_model(SMALL, seed=0)
    f0, f1 = _frames(2, SMALL.dims, 5)
    with ad.no_grad():
        forward_batch(ps, f0, f1, SMALL, mode="train")
        a = forward_batch(ps, f0[:1], f1[:1], SMALL, mode="infer").data
        b = forward_batch(ps, f0[:1], f1[:1], SMALL, mode="infer").data
    # inference is deterministic and does not touch the running stats
    np.testing.assert_array_equal(a, b)


def test_infer_is_per_sample_consistent():
    # running stats, not batch stats, at inference: each sample's output is
    # independent of what else shares the batch, bit for bit, so predicting
    # one subject at a time gives what a batch gives.  At 16^3 with 2/4
    # filters decode's slabs span several samples.
    for config in (SMALL, I2IModelConfig(dims=(16, 16, 16), lstm_filters=2, decoder_filters=4),
                   I2IModelConfig(dims=(40, 48, 40), lstm_filters=16, decoder_filters=32)):
        ps = init_model(config, seed=9)
        f0, f1 = _frames(4, config.dims, 6)
        with ad.no_grad():
            forward_batch(ps, f0, f1, config, mode="train")
            batch = forward_batch(ps, f0, f1, config, mode="infer").data
            for i in range(4):
                alone = forward_batch(ps, f0[i : i + 1], f1[i : i + 1], config, mode="infer")
                np.testing.assert_array_equal(batch[i], alone.data[0])


def test_no_grad_forward_frees_the_encoder_output_before_decode(monkeypatch):
    # Under no_grad nothing but forward_batch refers to the encoder's pooled
    # output, and batchnorm writes a new buffer; so when decode is entered,
    # the memory held since the call began is batchnorm's output, one
    # pooled-size tensor, not two.
    config = I2IModelConfig(dims=(24, 24, 24), lstm_filters=16, decoder_filters=4)
    ps = init_model(config, seed=0)
    f0, f1 = _frames(1, config.dims, 3)
    pooled = 12 ** 3 * 16 * 8
    held, decode = [], ad.decode

    def recorded(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return decode(*args)

    monkeypatch.setattr(ad, "decode", recorded)
    with ad.no_grad():
        traced(lambda: forward_batch(ps, f0, f1, config, mode="train"))
    assert len(held) == 1
    assert pooled <= held[0] <= pooled + pooled // 2, f"{held[0]} B held entering decode"


def test_forward_volume_wrapper():
    ps = init_model(SMALL, seed=0)
    f0, f1 = _frames(1, SMALL.dims, 8)
    with ad.no_grad():
        forward_batch(ps, f0, f1, SMALL, mode="train")
    affine = np.diag([2.0, 2.0, 2.0, 1.0])
    v0 = Volume3D(f0[0], np.diag([3.0, 3.0, 3.0, 1.0]))
    v1 = Volume3D(f1[0], affine.copy())
    pred = forward(ps, v0, v1, SMALL)
    assert isinstance(pred, Volume3D)
    assert pred.dims == SMALL.dims
    np.testing.assert_array_equal(pred.affine, affine)  # the later scan's
    batch = forward_batch(ps, f0, f1, SMALL, mode="infer")
    np.testing.assert_array_equal(pred.data, batch.data[0, ..., 0])


def test_forward_volume_dim_mismatch():
    ps = init_model(SMALL, seed=0)
    with pytest.raises(ShapeError):
        forward(
            ps,
            Volume3D(np.zeros((8, 8, 8))),
            Volume3D(np.zeros((8, 8, 4))),
            SMALL,
        )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    ps = init_model(SMALL, seed=11)
    f0, f1 = _frames(2, SMALL.dims, 9)
    with ad.no_grad():
        forward_batch(ps, f0, f1, SMALL, mode="train")
    p = tmp_path / "model.bin"
    save_model(ps, SMALL, p)
    loaded, cfg = load_model(p)
    assert cfg == SMALL
    assert list(loaded.params) == list(ps.params)
    for name, t in ps.params.items():
        np.testing.assert_array_equal(
            loaded.params[name].data, t.data.astype(np.float32).astype(np.float64)
        )
    assert set(loaded.stats) == set(ps.stats)
    for name, arr in ps.stats.items():
        np.testing.assert_array_equal(
            loaded.stats[name], arr.astype(np.float32).astype(np.float64)
        )


def test_loaded_model_predicts_like_float32_original(tmp_path):
    ps = init_model(SMALL, seed=13)
    f0, f1 = _frames(2, SMALL.dims, 10)
    with ad.no_grad():
        forward_batch(ps, f0, f1, SMALL, mode="train")
    p = tmp_path / "model.bin"
    save_model(ps, SMALL, p)
    a, cfg = load_model(p)
    b, _ = load_model(p)
    with ad.no_grad():
        pa = forward_batch(a, f0, f1, cfg, mode="infer").data
        pb = forward_batch(b, f0, f1, cfg, mode="infer").data
    # two loads of the same file are bit-identical
    np.testing.assert_array_equal(pa, pb)


# Each case breaks one thing load_model checks against the embedded config;
# the value is the tensor name its error message gives.
BROKEN_MODELS = {
    "missing parameter": "head.bias",
    "misshaped parameter": "deconv.kernel",
    "extra parameter": "head.scale",
    "missing statistic": "bn.var",
    "misshaped statistic": "bn.mean",
}


def break_model(ps, case):
    if case == "missing parameter":
        del ps.params["head.bias"]
    elif case == "misshaped parameter":
        ps.params["deconv.kernel"] = ad.Tensor(ps.params["deconv.kernel"].data[:-1])
    elif case == "extra parameter":
        ps.add("head.scale", np.ones(1))
    elif case == "missing statistic":
        del ps.stats["bn.var"]
    else:
        ps.stats["bn.mean"] = np.zeros(ps.stats["bn.mean"].size + 1)
    return ps


@pytest.mark.parametrize("case", sorted(BROKEN_MODELS))
def test_load_model_rejects_a_file_that_does_not_match_its_config(tmp_path, case):
    ps = init_model(SMALL, seed=11)
    f0, f1 = _frames(2, SMALL.dims, 9)
    with ad.no_grad():
        forward_batch(ps, f0, f1, SMALL, mode="train")
    p = tmp_path / "model.bin"
    save_model(break_model(ps, case), SMALL, p)
    with pytest.raises(FormatError, match=BROKEN_MODELS[case]):
        load_model(p)


def test_load_model_rejects_an_untrained_model(tmp_path):
    # init_model makes no batch-norm statistics; only a training step does
    p = tmp_path / "model.bin"
    save_model(init_model(SMALL, seed=0), SMALL, p)
    with pytest.raises(FormatError, match="bn.mean"):
        load_model(p)


def test_load_model_requires_config(tmp_path):
    ps = init_model(SMALL, seed=0)
    p = tmp_path / "plain.bin"
    ad.save_params(ps, p, meta={})
    with pytest.raises(FormatError):
        load_model(p)


# ---------------------------------------------------------------------------
# end-to-end gradient check on a miniature network
# ---------------------------------------------------------------------------

def test_end_to_end_gradients():
    # 1x1x1 kernels and linear activations keep this fast and kink-free;
    # maxpool kinks are avoided because random inputs never tie
    cfg = I2IModelConfig(
        dims=(4, 4, 4),
        lstm_filters=1,
        decoder_filters=1,
        kernel_size=1,
        decoder_activation="linear",
        output_activation="linear",
    )
    ps = init_model(cfg, seed=17)
    r = np.random.default_rng(18)
    f0 = r.normal(size=(2, 4, 4, 4))
    f1 = r.normal(size=(2, 4, 4, 4))
    weights = r.normal(size=(2, 4, 4, 4, 1))

    def run():
        out = forward_batch(ps, f0, f1, cfg, mode="train")
        return ad.tensor_sum(ad.mul(out, ad.Tensor(weights)))

    ps.zero_grad()
    run().backward()
    for name in ["convlstm.kernel", "convlstm.bias", "bn.gamma", "bn.beta",
                 "deconv.kernel", "deconv.bias", "head.kernel", "head.bias"]:
        t = ps.params[name]
        analytic = t.grad.copy()

        def scalar(x, _t=t):
            saved = _t.data.copy()
            _t.data[...] = x
            try:
                with ad.no_grad():
                    out = forward_batch(ps, f0, f1, cfg, mode="train")
                    return float((out.data * weights).sum())
            finally:
                _t.data[...] = saved

        numeric = numeric_gradient(scalar, t.data.copy(), h=1e-5)
        err = max_rel_err(analytic, numeric)
        assert err < 1e-3, f"{name}: rel err {err}"
