"""Image-to-image forecaster: a ConvLSTM encoder whose final hidden state
is max-pooled (one fused op, ``autodiff.encode``), a batch-normalized
bottleneck, a transposed-convolution decoder and a 1x1x1 output projection
(one fused op, ``autodiff.decode``), all at pooled resolution, then a
nearest-neighbor upsample to full size.  A training graph has five nodes:
``encode``, ``batchnorm``, ``decode``, ``upsample_nn`` and the loss.

The network consumes two volumes (the two most recent annual scans) as a
2-frame sequence and emits the next annual volume.  The output activation is
relu, so predictions are nonnegative.
"""

from dataclasses import dataclass, asdict
from typing import Optional, Tuple

import numpy as np

from . import autodiff as ad
from .errors import FormatError, ParameterError, ShapeError, check_integer
from .volume_io import Volume3D


@dataclass(frozen=True)
class I2IModelConfig:
    dims: Tuple[int, int, int] = (80, 96, 80)
    lstm_filters: int = 16
    decoder_filters: int = 32
    kernel_size: int = 3
    decoder_activation: str = "relu"
    output_activation: str = "relu"

    def __post_init__(self):
        dims = tuple(check_integer(d, "each of dims") for d in self.dims)
        object.__setattr__(self, "dims", dims)
        for name in ("lstm_filters", "decoder_filters", "kernel_size"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if len(dims) != 3 or min(dims) < 2:
            raise ParameterError(f"dims must be 3 values >= 2, got {dims}")
        if any(d % 2 for d in dims):
            raise ParameterError(f"dims {dims} must be even for 2x pooling")
        if self.lstm_filters < 1 or self.decoder_filters < 1:
            raise ParameterError("filter counts must be positive")
        if self.kernel_size % 2 != 1 or self.kernel_size < 1:
            raise ParameterError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.decoder_activation not in ad.ACTIVATIONS:
            raise ParameterError(f"unknown decoder activation {self.decoder_activation!r}")
        if self.output_activation not in ad.ACTIVATIONS:
            raise ParameterError(f"unknown output activation {self.output_activation!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["dims"] = list(self.dims)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "I2IModelConfig":
        """The config a model file holds; a missing key, a value of the wrong
        type or one the constructor rejects raises FormatError."""
        try:
            return cls(
                dims=tuple(d["dims"]),
                lstm_filters=d["lstm_filters"],
                decoder_filters=d["decoder_filters"],
                kernel_size=d.get("kernel_size", 3),
                decoder_activation=d.get("decoder_activation", "relu"),
                output_activation=d.get("output_activation", "relu"),
            )
        except (KeyError, TypeError, ValueError, ParameterError) as exc:
            raise FormatError(f"bad model config: {exc}") from exc


def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_model(config: I2IModelConfig, seed: int) -> ad.ParameterSet:
    """Glorot-uniform kernels, zero biases, unit batch-norm gain.

    Deterministic for a given seed: parameters are drawn in a fixed order.
    """
    rng = np.random.default_rng(seed)
    k = config.kernel_size
    f = config.lstm_filters
    dec = config.decoder_filters
    k3 = k ** 3
    ps = ad.ParameterSet()
    in_ch = 1 + f  # input frame channels + hidden channels, concatenated
    ps.add("convlstm.kernel", _glorot(rng, (k, k, k, in_ch, 4 * f), k3 * in_ch, k3 * 4 * f))
    ps.add("convlstm.bias", np.zeros(4 * f))
    ps.add("bn.gamma", np.ones(f))
    ps.add("bn.beta", np.zeros(f))
    ps.add("deconv.kernel", _glorot(rng, (k, k, k, dec, f), k3 * f, k3 * dec))
    ps.add("deconv.bias", np.zeros(dec))
    ps.add("head.kernel", _glorot(rng, (1, 1, 1, dec, 1), dec, 1))
    ps.add("head.bias", np.zeros(1))
    return ps


def forward_batch(
    params: ad.ParameterSet,
    frames0: np.ndarray,
    frames1: np.ndarray,
    config: I2IModelConfig,
    mode: str = "infer",
    trace: Optional[dict] = None,
):
    """Run the network on a batch.

    ``frames0`` and ``frames1`` are (n, x, y, z) arrays for the earlier and
    later input years.  Returns the prediction Tensor (n, x, y, z, 1).
    ``mode`` is the batch norm's: "train" normalizes by the batch's
    statistics and updates the running ones, "infer" uses the running ones;
    the graph is recorded unless the call runs under ``autodiff.no_grad``.
    A ``trace`` dict receives the shape of each stage's output by name, and
    as ``lstm_hidden`` and ``decoded`` the shapes the encoder's hidden state
    and the transposed conv's output would have.
    """
    if mode not in ("train", "infer"):
        raise ParameterError(f"mode must be 'train' or 'infer', got {mode!r}")
    frames0 = np.asarray(frames0, dtype=np.float64)
    frames1 = np.asarray(frames1, dtype=np.float64)
    if frames0.shape != frames1.shape or frames0.ndim != 4:
        raise ShapeError(
            f"frames must share shape (n, x, y, z), got {frames0.shape} and {frames1.shape}"
        )
    if frames0.shape[1:] != config.dims:
        raise ShapeError(
            f"frames have spatial dims {frames0.shape[1:]}, model expects {config.dims}"
        )
    # The frames are constants (plain arrays) and the initial state is zero.
    pooled = ad.encode(frames0[..., None], frames1[..., None],
                       params.params["convlstm.kernel"], params.params["convlstm.bias"])
    if trace is not None:
        # encode never holds this whole: it runs one sample at a time
        trace["lstm_hidden"] = frames0.shape + (config.lstm_filters,)
        trace["pooled"] = pooled.shape
    normed = ad.batchnorm(
        pooled,
        params.params["bn.gamma"],
        params.params["bn.beta"],
        params.stats,
        mode=mode,
    )
    # The head is per voxel, so it runs before the nearest-neighbor upsample
    # on 1/8 of the voxels and gives the same output.
    head = ad.decode(normed, params.params["deconv.kernel"], params.params["deconv.bias"],
                     params.params["head.kernel"], params.params["head.bias"],
                     config.decoder_activation, config.output_activation)
    if trace is not None:
        # decode never holds the transposed conv's output whole: it runs one
        # slab at a time
        trace["decoded"] = head.shape[:4] + (config.decoder_filters,)
        trace["head"] = head.shape
    out = ad.upsample_nn(head, 2)
    if trace is not None:
        trace["upsampled"] = out.shape
        trace["output"] = out.shape
    return out


def forward(
    params: ad.ParameterSet,
    baseline: Volume3D,
    year1: Volume3D,
    config: I2IModelConfig,
) -> Volume3D:
    """Predict the next annual volume from two consecutive annual scans, in
    inference mode; it carries the later scan's affine."""
    if baseline.dims != year1.dims:
        raise ShapeError(f"input dims differ: {baseline.dims} vs {year1.dims}")
    with ad.no_grad():
        pred = forward_batch(params, baseline.data[None, ...], year1.data[None, ...], config)
    return Volume3D(pred.data[0, ..., 0], year1.affine.copy())


def save_model(params: ad.ParameterSet, config: I2IModelConfig, path):
    """Serialize parameters, running statistics and the config."""
    return ad.save_params(params, path, meta={"model": "i2i", "config": config.to_dict()})


def load_model(path):
    """Load a model file; returns (ParameterSet, I2IModelConfig).

    The file must hold exactly the parameters ``init_model`` builds for its
    embedded config, each of the same shape, and the batch-norm running
    statistics ``bn.mean`` and ``bn.var`` with one value per LSTM filter.
    Anything else raises FormatError, before any forward pass runs."""
    params, meta = ad.load_params(path)
    if "config" not in meta:
        raise FormatError(f"{path} has no embedded model config")
    config = I2IModelConfig.from_dict(meta["config"])
    _check_tensors(path, "parameter", {n: t.shape for n, t in params.params.items()},
                   {n: t.shape for n, t in init_model(config, seed=0).params.items()})
    _check_tensors(path, "statistic", {n: a.shape for n, a in params.stats.items()},
                   {n: (config.lstm_filters,) for n in ad.BN_STATS})
    return params, config


def _check_tensors(path, kind, got, want):
    # got and want map tensor names to shapes; any difference is a FormatError.
    for name in sorted(want.keys() | got.keys()):
        if name not in got:
            raise FormatError(f"{path} lacks the {kind} {name!r} its config needs")
        if name not in want:
            raise FormatError(f"{path} has a {kind} {name!r} its config does not use")
        if got[name] != want[name]:
            raise FormatError(f"{path} {kind} {name!r} has shape {got[name]}, "
                              f"its config needs {want[name]}")
