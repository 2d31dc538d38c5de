"""Spans around longipet's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function at every name where callers
look it up: every ``longipet`` module attribute bound to the original
function object (``cli`` imports ``read_volume`` by name, ``model`` calls
``ad.conv3d`` through the module), plus ``Tensor.backward``.  The backward
pass of each op is timed by wrapping the ``_backward`` closure of every
Tensor a wrapped op returns.  ``uninstall`` puts every original back and
checks that it did.  Only the traced run installs the tracer.

Spans are kept in memory as (name, start, end, parent, job) and written out
once, when the traced run ends.  A span's self time is its duration minus
the time its child spans cover; spans nest strictly because every traced
call runs on one thread.
"""

import json
import os
import sys
import time
import tracemalloc

from longipet import autodiff as ad

MARK = "__perfbench_wrapped__"

ELEMENTWISE = ("add", "sub", "mul", "div", "sqrt", "relu", "mean", "tensor_sum")
GATES = ("sigmoid", "tanh")
NARROW_CONCAT = ("narrow_channels", "concat_channels")
AUTODIFF_OPS = ELEMENTWISE + GATES + NARROW_CONCAT + (
    "conv3d", "conv_transpose3d", "convlstm3d_step", "maxpool3d", "batchnorm",
    "upsample_nn", "mae_loss",
)
LIBRARY = {
    "autodiff": ("adam_step", "save_params", "load_params"),
    "model": ("forward_batch",),
    "training": ("train_fold", "cross_validate"),
    "augment": ("augment_cohort",),
    "volume_io": ("read_volume", "write_volume", "load_manifest"),
    "forecast": ("forecast_cohort",),
    "preprocess": ("preprocess_chain", "gaussian_smooth"),
    "linear": ("predict_linear",),
    "metrics": ("ssim3d", "mae", "regional_mae", "meta_roi_suvr"),
    "report": ("evaluate_forecasts", "write_metrics_csv", "read_metrics_csv",
               "write_report_svg"),
    "stats": ("wilcoxon_signed_rank", "paired_t", "one_way_anova",
              "chi_square_independence", "mixed_anova"),
    "cli": ("main",),
}

# (name, unit, better): the per-layer metrics, in report order.
PER_LAYER = [
    ("autodiff.conv3d.fwd_s", "s", "lower"),
    ("autodiff.conv3d.bwd_s", "s", "lower"),
    ("autodiff.conv3d.calls", "count", "lower"),
    ("autodiff.conv3d.gflop", "GFLOP_computed", "lower"),
    ("autodiff.conv3d.gflop_per_s", "GFLOP/s", "higher"),
    ("autodiff.conv_transpose3d.fwd_s", "s", "lower"),
    ("autodiff.conv_transpose3d.bwd_s", "s", "lower"),
    ("autodiff.convlstm3d_step.self_s", "s", "lower"),
    ("autodiff.gates.fwd_s", "s", "lower"),
    ("autodiff.gates.bwd_s", "s", "lower"),
    ("autodiff.narrow_concat.bwd_s", "s", "lower"),
    ("autodiff.maxpool3d.fwd_s", "s", "lower"),
    ("autodiff.maxpool3d.bwd_s", "s", "lower"),
    ("autodiff.batchnorm.fwd_s", "s", "lower"),
    ("autodiff.batchnorm.bwd_s", "s", "lower"),
    ("autodiff.upsample_nn.fwd_s", "s", "lower"),
    ("autodiff.upsample_nn.bwd_s", "s", "lower"),
    ("autodiff.mae_loss.s", "s", "lower"),
    ("autodiff.elementwise.fwd_s", "s", "lower"),
    ("autodiff.elementwise.bwd_s", "s", "lower"),
    ("autodiff.backward.self_s", "s", "lower"),
    ("autodiff.adam_step.s", "s", "lower"),
    ("autodiff.params_io.s", "s", "lower"),
    ("autodiff.nodes_per_forward", "count", "lower"),
    ("autodiff.step_peak_mib", "MiB", "lower"),
    ("model.forward_batch.train_s", "s", "lower"),
    ("model.forward_batch.infer_s", "s", "lower"),
    ("training.train_fold.self_s", "s", "lower"),
    ("training.cross_validate.self_s", "s", "lower"),
    ("training.best_epoch_frac", "ratio", "higher"),
    ("training.cv_mci_mae_ratio", "ratio", "lower"),
    ("augment.augment_cohort.s", "s", "lower"),
    ("volume_io.read_volume.s", "s", "lower"),
    ("volume_io.read_volume.calls", "count", "lower"),
    ("volume_io.reads_per_file", "ratio", "lower"),
    ("volume_io.write_volume.s", "s", "lower"),
    ("volume_io.bytes_written", "bytes", "lower"),
    ("volume_io.load_manifest.s", "s", "lower"),
    ("forecast.forecast_cohort.self_s", "s", "lower"),
    ("forecast.model_loads", "count", "lower"),
    ("preprocess.preprocess_chain.s", "s", "lower"),
    ("preprocess.gaussian_smooth.s", "s", "lower"),
    ("linear.predict_linear.s", "s", "lower"),
    ("metrics.ssim3d.s", "s", "lower"),
    ("metrics.ssim3d.calls", "count", "lower"),
    ("metrics.regional.s", "s", "lower"),
    ("report.evaluate_forecasts.self_s", "s", "lower"),
    ("report.io.s", "s", "lower"),
    ("stats.tests.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
]

# Counts that depend only on shapes and control flow; every traced repeat
# of a job must reproduce them exactly.
REPEATABLE = (
    "autodiff.nodes_per_forward", "autodiff.conv3d.gflop", "autodiff.conv3d.calls",
    "volume_io.read_volume.calls", "volume_io.reads_per_file", "forecast.model_loads",
    "metrics.ssim3d.calls",
)


def _shape(t):
    return getattr(t, "data", t).shape


class Tracer:
    def __init__(self, workload):
        self.workload = workload
        self.spans = []        # [name, start, end, parent, job, child time, children]
        self.stack = []
        self.job = -1
        self.t0 = time.perf_counter()
        self.counts = {}       # (job, key) -> number
        self.read_paths = {}   # job -> set of paths
        self.forward_nodes = {}  # job -> [(mode, leaf op count)]
        self._open_forwards = []  # leaf op counts of the forward passes running
        self.measure_memory = False
        self._bn_depth = 0
        self._patched = []     # (owner, attr, original)

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter() - self.t0, None, parent, self.job, 0.0, 0])
        idx = len(self.spans) - 1
        if parent >= 0:
            self.spans[parent][6] += 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter() - self.t0
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def add(self, key, value):
        k = (self.job, key)
        self.counts[k] = self.counts.get(k, 0) + value

    # -- wrappers ----------------------------------------------------------

    def _wrap_backward(self, tensor, name, flop=0):
        fn = getattr(tensor, "_backward", None)
        if fn is None or getattr(fn, MARK, False):
            return
        tracer = self

        def backward(g):
            idx = tracer.open(name)
            try:
                return fn(g)
            finally:
                tracer.close(idx)
                if flop:
                    tracer.add("conv3d.flop", 2 * flop)

        setattr(backward, MARK, True)
        tensor._backward = backward

    def _op_wrapper(self, op, fn):
        tracer = self
        is_bn = op == "batchnorm"
        is_elementwise = op in ELEMENTWISE

        def wrapper(*args, **kwargs):
            name = f"autodiff.{op}"
            if is_elementwise and tracer._bn_depth:
                name = f"autodiff.batchnorm.{op}"
            flop = 0
            if op == "conv3d":
                n, a, b, c, ci = _shape(args[0])
                k, _, _, _, co = _shape(args[1])
                flop = 2 * n * a * b * c * k ** 3 * ci * co
                tracer.add("conv3d.flop", flop)
            idx = tracer.open(name)
            tracer._bn_depth += is_bn
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._bn_depth -= is_bn
                tracer.close(idx)
            if tracer.spans[idx][6] == 0 and tracer._open_forwards:
                tracer._open_forwards[-1] += 1
            bwd = "autodiff.batchnorm.bwd" if (tracer._bn_depth or is_bn) else f"{name}.bwd"
            for t in out if isinstance(out, tuple) else (out,):
                tracer._wrap_backward(t, bwd, flop)
            return out

        return wrapper

    def _lib_wrapper(self, module, func, fn):
        tracer = self
        name = f"{module}.{func}"

        def wrapper(*args, **kwargs):
            span = name
            if func == "forward_batch":
                mode = kwargs.get("mode", args[4] if len(args) > 4 else "infer")
                span = f"{name}.{mode}"
                if tracer.measure_memory and not tracemalloc.is_tracing():
                    tracemalloc.start()
                tracer._open_forwards.append(0)
            elif func == "read_volume":
                tracer.read_paths.setdefault(tracer.job, set()).add(os.path.abspath(args[0]))
            idx = tracer.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if func == "forward_batch":
                    nodes = tracer._open_forwards.pop()
                    tracer.forward_nodes.setdefault(tracer.job, []).append((mode, nodes))
                    if mode == "infer":
                        tracer._note_peak()
                elif func == "adam_step":
                    tracer._note_peak()
            if func == "write_volume":
                tracer.add("bytes_written", os.path.getsize(out))
            return out

        return wrapper

    def _note_peak(self):
        # Tracing allocations slows Python-heavy code by up to half, so it
        # runs only while measure_memory is set, and then only from the start
        # of a forward pass to the end of that inference pass or of the Adam
        # step that closes the training step.
        if not tracemalloc.is_tracing():
            return
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
        key = (self.job, "step_peak_mib")
        self.counts[key] = max(self.counts.get(key, 0.0), peak)

    def install(self):
        targets = [(ad, op, self._op_wrapper(op, getattr(ad, op))) for op in AUTODIFF_OPS]
        for module, funcs in LIBRARY.items():
            mod = sys.modules[f"longipet.{module}"]
            for func in funcs:
                targets.append((mod, func, self._lib_wrapper(module, func, getattr(mod, func))))
        mods = [m for n, m in sys.modules.items() if n == "longipet" or n.startswith("longipet.")]
        for owner, attr, wrapper in targets:
            original = getattr(owner, attr)
            setattr(wrapper, MARK, True)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        original = ad.Tensor.backward
        tracer = self

        def backward(tensor):
            idx = tracer.open("autodiff.backward")
            try:
                return original(tensor)
            finally:
                tracer.close(idx)

        setattr(backward, MARK, True)
        self._patched.append((ad.Tensor, "backward", original))
        ad.Tensor.backward = backward

    def uninstall(self):
        tracemalloc.stop()
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        left = wrapped_names()
        if left:
            raise RuntimeError(f"tracer left wrappers behind: {left}")

    # -- per-layer metrics -------------------------------------------------

    def job_metrics(self, job, wall):
        """Per-layer metrics of one job from its spans and counters."""
        dur, self_t, count = {}, {}, {}
        for name, start, end, _, j, child, _ in self.spans:
            if j == job:
                dur[name] = dur.get(name, 0.0) + (end - start)
                self_t[name] = self_t.get(name, 0.0) + (end - start - child)
                count[name] = count.get(name, 0) + 1

        def d(*names):
            return sum(dur.get(n, 0.0) for n in names)

        def cnt(key):
            return self.counts.get((job, key), 0)

        ops = lambda names, suffix="": [f"autodiff.{o}{suffix}" for o in names]  # noqa: E731
        conv_s = d("autodiff.conv3d", "autodiff.conv3d.bwd")
        gflop = cnt("conv3d.flop") / 1e9
        forwards = self.forward_nodes.get(job, [])
        train_nodes = [n for m, n in forwards if m == "train"]
        nodes = (train_nodes or [n for _, n in forwards] or [0])[0]
        reads = count.get("volume_io.read_volume", 0)
        paths = len(self.read_paths.get(job, ()))
        selfsum = sum(self_t.values())
        return {
            "autodiff.conv3d.fwd_s": d("autodiff.conv3d"),
            "autodiff.conv3d.bwd_s": d("autodiff.conv3d.bwd"),
            "autodiff.conv3d.calls": count.get("autodiff.conv3d", 0),
            "autodiff.conv3d.gflop": gflop,
            "autodiff.conv3d.gflop_per_s": gflop / conv_s if conv_s else 0.0,
            "autodiff.conv_transpose3d.fwd_s": d("autodiff.conv_transpose3d"),
            "autodiff.conv_transpose3d.bwd_s": d("autodiff.conv_transpose3d.bwd"),
            "autodiff.convlstm3d_step.self_s": self_t.get("autodiff.convlstm3d_step", 0.0),
            "autodiff.gates.fwd_s": d(*ops(GATES)),
            "autodiff.gates.bwd_s": d(*ops(GATES, ".bwd")),
            "autodiff.narrow_concat.bwd_s": d(*ops(NARROW_CONCAT, ".bwd")),
            "autodiff.maxpool3d.fwd_s": d("autodiff.maxpool3d"),
            "autodiff.maxpool3d.bwd_s": d("autodiff.maxpool3d.bwd"),
            "autodiff.batchnorm.fwd_s": d("autodiff.batchnorm"),
            "autodiff.batchnorm.bwd_s": d("autodiff.batchnorm.bwd"),
            "autodiff.upsample_nn.fwd_s": d("autodiff.upsample_nn"),
            "autodiff.upsample_nn.bwd_s": d("autodiff.upsample_nn.bwd"),
            "autodiff.mae_loss.s": d("autodiff.mae_loss", "autodiff.mae_loss.bwd"),
            "autodiff.elementwise.fwd_s": d(*ops(ELEMENTWISE)),
            "autodiff.elementwise.bwd_s": d(*ops(ELEMENTWISE, ".bwd")),
            "autodiff.backward.self_s": self_t.get("autodiff.backward", 0.0),
            "autodiff.adam_step.s": d("autodiff.adam_step"),
            "autodiff.params_io.s": d("autodiff.save_params", "autodiff.load_params"),
            "autodiff.nodes_per_forward": nodes,
            "autodiff.step_peak_mib": cnt("step_peak_mib"),
            "model.forward_batch.train_s": d("model.forward_batch.train"),
            "model.forward_batch.infer_s": d("model.forward_batch.infer"),
            "training.train_fold.self_s": self_t.get("training.train_fold", 0.0),
            "training.cross_validate.self_s": self_t.get("training.cross_validate", 0.0),
            "augment.augment_cohort.s": d("augment.augment_cohort"),
            "volume_io.read_volume.s": d("volume_io.read_volume"),
            "volume_io.read_volume.calls": reads,
            "volume_io.reads_per_file": reads / paths if paths else 0.0,
            "volume_io.write_volume.s": d("volume_io.write_volume"),
            "volume_io.bytes_written": cnt("bytes_written"),
            "volume_io.load_manifest.s": d("volume_io.load_manifest"),
            "forecast.forecast_cohort.self_s": self_t.get("forecast.forecast_cohort", 0.0),
            "forecast.model_loads": self._loads_in_forecast(job),
            "preprocess.preprocess_chain.s": d("preprocess.preprocess_chain"),
            "preprocess.gaussian_smooth.s": d("preprocess.gaussian_smooth"),
            "linear.predict_linear.s": d("linear.predict_linear"),
            "metrics.ssim3d.s": d("metrics.ssim3d"),
            "metrics.ssim3d.calls": count.get("metrics.ssim3d", 0),
            "metrics.regional.s": d("metrics.mae", "metrics.regional_mae",
                                    "metrics.meta_roi_suvr"),
            "report.evaluate_forecasts.self_s": self_t.get("report.evaluate_forecasts", 0.0),
            "report.io.s": d("report.write_metrics_csv", "report.read_metrics_csv",
                             "report.write_report_svg"),
            "stats.tests.s": d(*[f"stats.{f}" for f in LIBRARY["stats"]]),
            "cli.main.self_s": self_t.get("cli.main", 0.0),
            "trace.unattributed_frac": (wall - selfsum) / wall,
        }

    def _loads_in_forecast(self, job):
        loads = 0
        for span in self.spans:
            if span[4] != job or span[0] != "autodiff.load_params":
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != "forecast.forecast_cohort":
                parent = self.spans[parent][3]
            loads += parent >= 0
        return loads

    def dump(self, path, walls):
        doc = {
            "workload": self.workload,
            "job_walls": walls,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "job": j,
                 "self": e - s - c, "workload": self.workload}
                for n, s, e, p, j, c, _ in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def wrapped_names():
    """Names in ``longipet`` modules that are bound to a tracer wrapper."""
    found = [f"{n}.{k}" for n, m in list(sys.modules.items())
             if n == "longipet" or n.startswith("longipet.")
             for k, v in vars(m).items() if getattr(v, MARK, False)]
    backward = sys.modules.get("longipet.autodiff")
    if backward is not None and getattr(backward.Tensor.backward, MARK, False):
        found.append("longipet.autodiff.Tensor.backward")
    return found
