"""Acceptance suite: one test per release criterion.

Each test checks its criterion at the stated tolerance and records a single
PASS/FAIL line in the terminal summary (see conftest).  The expensive
end-to-end training run is shared through a module-scoped fixture; the
remaining criteria are cheap enough to run standalone.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from longipet import autodiff as ad
from longipet.cli import main as cli_main
from longipet.forecast import (
    ForecastPlan,
    PlanEntry,
    audit_leakage,
    forecast_recursive,
    plan_from_folds,
)
from longipet.linear import predict_linear
from longipet.metrics import mae, meta_roi_suvr, regional_mae, ssim3d
from longipet.model import I2IModelConfig, forward_batch, init_model, save_model
from longipet.phantom import (
    PhantomConfig,
    generate_cohort,
    octant_atlas_array,
    write_cohort,
)
from longipet.stats import (
    bonferroni,
    chi2_cdf,
    f_cdf,
    mixed_anova,
    normal_cdf,
    student_t_cdf,
    wilcoxon_signed_rank,
)
from longipet.training import Hyper, cross_validate
from longipet.volume_io import SubjectRecord, Volume3D, load_manifest, pad_to_even

from gradcheck import check_op, weighted_sum
from test_stats import _chi2_pdf, _f_pdf, _t_pdf, _wilcoxon_brute


# ---------------------------------------------------------------------------
# A1: published clinical accuracy figures
# ---------------------------------------------------------------------------

def test_readme_documents_clinical_result_substitution(acceptance):
    """The clinical-cohort accuracy figures come from access-restricted
    scans that are not bundled, so they cannot be checked by this suite.
    The README must say so and point at the synthetic-phantom checks that
    stand in for them."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text() if readme.exists() else ""
    ok = "cannot be reproduced here" in text and "synthetic" in text.lower()
    acceptance(
        "A1 clinical-figure substitution",
        ok,
        "README explains that published cohort numbers need restricted data "
        "and that synthetic-phantom checks stand in for them",
    )


# ---------------------------------------------------------------------------
# A2: gradients of every differentiable building block
# ---------------------------------------------------------------------------

def _scalarize(t, seed):
    # fixed random weights make the scalarization sensitive to every output
    w = np.random.default_rng(seed).normal(size=t.data.shape)
    return weighted_sum(t, w)


def test_gradients_match_central_differences(acceptance):
    t_start = time.perf_counter()
    worst: dict = {}

    def note(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    for case in range(5):
        r = np.random.default_rng(100 + case)
        n = int(r.integers(1, 3))
        d = [int(r.integers(2, 5)) for _ in range(3)]
        cin = int(r.integers(1, 3))
        cout = int(r.integers(1, 3))
        k = int(r.choice([1, 3]))

        x = r.normal(size=(n, *d, cin))
        kern = 0.5 * r.normal(size=(k, k, k, cin, cout))
        bias = r.normal(size=cout)
        note("conv3d", check_op(
            lambda a, b, c, s=case: _scalarize(ad.conv3d(a, b, c), s),
            [x, kern, bias]))

        kern_t = 0.5 * r.normal(size=(k, k, k, cout, cin))
        bias_t = r.normal(size=cout)
        note("conv_transpose3d", check_op(
            lambda a, b, c, s=case: _scalarize(ad.conv_transpose3d(a, b, c), s),
            [x, kern_t, bias_t]))

        dp = [int(r.choice([2, 4])) for _ in range(3)]
        total = n * dp[0] * dp[1] * dp[2] * cin
        # distinct values spaced far beyond the finite-difference step so no
        # pooling argmax flips under the probe
        xp = r.permutation(total).astype(np.float64).reshape(n, *dp, cin) / total
        note("maxpool3d", check_op(
            lambda a, s=case: _scalarize(ad.maxpool3d(a, 2), s), [xp]))

        gamma = 0.5 + r.uniform(size=cin)
        beta = r.normal(size=cin)
        note("batchnorm", check_op(
            lambda a, g, b, s=case: _scalarize(
                ad.batchnorm(a, g, b, {}, mode="train"), s),
            [x, gamma, beta]))

        f = int(r.integers(1, 3))
        dl = int(r.integers(2, 4))
        x0 = r.normal(size=(1, dl, dl, dl, cin))
        x1 = r.normal(size=(1, dl, dl, dl, cin))
        h0 = r.normal(size=(1, dl, dl, dl, f))
        c0 = r.normal(size=(1, dl, dl, dl, f))
        gate_k = 0.5 * r.normal(size=(k, k, k, cin + f, 4 * f))
        gate_b = 0.1 * r.normal(size=4 * f)

        def lstm_twice(a0, a1, h, c, kk, bb, s=case):
            h1, c1 = ad.convlstm3d_step(a0, h, c, kk, bb)
            h2, c2 = ad.convlstm3d_step(a1, h1, c1, kk, bb)
            return ad.add(_scalarize(h2, s), _scalarize(c2, s + 1000))

        note("convlstm3d_step x2", check_op(
            lstm_twice, [x0, x1, h0, c0, gate_k, gate_b]))

        # keep values away from the relu kink; the probe must not cross it
        xr = r.normal(size=(n, *d, cin))
        xr = xr + np.where(xr >= 0, 0.05, -0.05)
        note("relu", check_op(
            lambda a, s=case: _scalarize(ad.relu(a), s), [xr]))

        note("tanh", check_op(
            lambda a, s=case: _scalarize(ad.tanh(a), s), [x]))

        note("upsample_nn", check_op(
            lambda a, s=case: _scalarize(ad.upsample_nn(a, 2), s), [x]))

        pred = r.normal(size=(n, *d, cin))
        gap = r.uniform(0.05, 0.5, size=pred.shape) * r.choice([-1.0, 1.0], size=pred.shape)
        note("mae_loss", check_op(lambda a, b: ad.mae_loss(a, b), [pred, pred + gap]))

    elapsed = time.perf_counter() - t_start
    peak = max(worst.values())
    ok = peak < 1e-4 and elapsed < 120.0
    acceptance(
        "A2 gradient checks",
        ok,
        f"{len(worst)} ops x 5 shapes, max rel err {peak:.2e} vs central "
        f"differences, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# A3: exactness of the linear baseline on noise-free trajectories
# ---------------------------------------------------------------------------

def test_linear_forecaster_exactness_on_known_trajectories(acceptance):
    gamma = 0.002
    cfg = PhantomConfig(
        dims=(16, 16, 16), n_stable=2, n_converter=3, n_decliner=2,
        years=tuple(range(8)), noise_sigma=0.0,
        decline_quadratic=gamma, seed=11,
    )
    cohort = generate_cohort(cfg)
    worst_vol = 0.0
    worst_roi = 0.0
    for rec in cohort.records:
        fc = forecast_recursive(rec, PlanEntry(rec.subject_id, "linear"), to_year=7)
        for year in range(2, 8):
            if rec.group in ("CN", "Dementia"):
                # flat and linear declines are captured exactly by the recursion
                worst_vol = max(worst_vol, mae(fc[year], rec.scans[year]))
            else:
                got = abs(
                    meta_roi_suvr(fc[year], cohort.atlas, cohort.roi)
                    - meta_roi_suvr(rec.scans[year], cohort.atlas, cohort.roi)
                )
                want = year * (year - 1) * gamma
                worst_roi = max(worst_roi, abs(got - want))
    ok = worst_vol < 1e-10 and worst_roi < 1e-9
    acceptance(
        "A3 linear-baseline exactness",
        ok,
        f"flat/linear volume MAE <= {worst_vol:.1e} (< 1e-10); quadratic ROI "
        f"error matches k(k-1)*rate within {worst_roi:.1e} (< 1e-9)",
    )


# ---------------------------------------------------------------------------
# A4 + A5: end-to-end training on a small cohort, and the leakage audit
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """Train the small reference cohort once; A4 and A5 both read it.

    The decline rate, blob amplitude, learning rate, and augmentation count
    were chosen so the learned model has a group-level signal to exploit
    that per-subject linear extrapolation cannot see.
    """
    root = tmp_path_factory.mktemp("e2e")
    cfg = PhantomConfig(
        dims=(16, 16, 16), n_stable=8, n_converter=12, n_decliner=4,
        noise_sigma=0.01, decline_quadratic=0.12, blob_amplitude=0.03, seed=0,
    )
    manifest = load_manifest(write_cohort(generate_cohort(cfg), root / "cohort"))
    config = I2IModelConfig(dims=(16, 16, 16), lstm_filters=2, decoder_filters=4)
    hyper = Hyper(batch_size=4, epochs=30, n_copies=2, lr=3e-3, n_folds=5)
    t0 = time.perf_counter()
    result = cross_validate(manifest, config, hyper, seed=0, out_dir=root / "models")
    elapsed = time.perf_counter() - t0
    return {"manifest": manifest, "result": result, "elapsed": elapsed,
            "models": root / "models"}


def test_training_converges_and_beats_linear_extrapolation(acceptance, e2e):
    result = e2e["result"]
    manifest = e2e["manifest"]
    ratios = [rep.val_mae[-1] / rep.val_mae[0] for rep in result.reports]

    i2i_err = []
    lin_err = []
    for entry in manifest.entries:
        if entry.group != "MCI":
            continue
        rec = manifest.load_record(entry.subject_id)
        i2i_err.append(mae(result.predictions[entry.subject_id], rec.scans[2]))
        lin_err.append(mae(predict_linear(rec.scans[0], rec.scans[1]), rec.scans[2]))
    i2i_mean = float(np.mean(i2i_err))
    lin_mean = float(np.mean(lin_err))

    converged = max(ratios) < 0.5
    beats = i2i_mean < lin_mean
    fast = e2e["elapsed"] < 1200.0
    acceptance(
        "A4 end-to-end training",
        converged and beats and fast,
        f"val MAE final/first max {max(ratios):.3f} (< 0.5) over "
        f"{len(ratios)} rounds; MCI year-2 MAE {i2i_mean:.4f} learned vs "
        f"{lin_mean:.4f} linear; {e2e['elapsed']:.0f}s (< 1200s)",
    )


def test_leakage_audit_passes_and_flags_corruption(acceptance, e2e):
    result = e2e["result"]
    manifest = e2e["manifest"]
    models = e2e["models"]

    plan = plan_from_folds(result.folds, models, subject_ids=manifest.subject_ids)
    clean = audit_leakage(plan, result.folds)

    # reroute one subject to a round that trained on it
    sid = result.folds.rounds[0].train[0]
    corrupted = ForecastPlan(dict(plan.entries), to_year=plan.to_year)
    corrupted.entries[sid] = PlanEntry(sid, "i2i", 0, models / "model_0.bin")
    bad = audit_leakage(corrupted, result.folds)
    flagged = [item for item in bad.failures() if item.subject_id == sid]

    ok = (
        clean.passed
        and len(clean.items) == len(manifest.entries)
        and not bad.passed
        and bool(flagged)
        and "training set" in flagged[0].detail
    )
    acceptance(
        "A5 leakage audit",
        ok,
        f"clean plan passes for all {len(clean.items)} subjects; rerouting "
        f"{sid!r} to its own training round is flagged by name",
    )


# ---------------------------------------------------------------------------
# A6: metric identities
# ---------------------------------------------------------------------------

def test_metric_identities(acceptance):
    rng = np.random.default_rng(123)
    dims = (16, 16, 16)
    atlas_arr = octant_atlas_array(dims, 2)
    atlas = Volume3D(atlas_arr)
    brain = Volume3D((atlas_arr > 0).astype(np.float64))
    labels = np.rint(atlas_arr).astype(np.int64)

    worst_self_mae = 0.0
    worst_self_ssim = 0.0
    worst_sym = 0.0
    worst_part = 0.0
    for _ in range(20):
        a = Volume3D(rng.uniform(0.5, 2.0, size=dims))
        b = Volume3D(rng.uniform(0.5, 2.0, size=dims))
        worst_self_mae = max(worst_self_mae, mae(a, a))
        worst_self_ssim = max(worst_self_ssim, abs(ssim3d(a, a) - 1.0))
        worst_sym = max(worst_sym, abs(ssim3d(a, b) - ssim3d(b, a)))

        # the label-weighted mean of per-region MAEs must reassemble the
        # masked global MAE
        reg = regional_mae(a, b, atlas)
        counts = {lab: int(np.count_nonzero(labels == lab)) for lab in reg}
        stitched = sum(reg[lab] * counts[lab] for lab in reg) / sum(counts.values())
        worst_part = max(worst_part, abs(stitched - mae(a, b, mask=brain)))

    ok = (
        worst_self_mae < 1e-9
        and worst_self_ssim < 1e-9
        and worst_sym < 1e-12
        and worst_part < 1e-12
    )
    acceptance(
        "A6 metric identities",
        ok,
        f"20 volumes: mae(x,x) <= {worst_self_mae:.1e}, |ssim(x,x)-1| <= "
        f"{worst_self_ssim:.1e}, ssim asymmetry <= {worst_sym:.1e}, regional "
        f"partition residual <= {worst_part:.1e}",
    )


# ---------------------------------------------------------------------------
# A7: statistics against independent oracles
# ---------------------------------------------------------------------------

def _anova_ss_by_squared_totals(y: np.ndarray, groups) -> dict:
    """Classical computing-formula route: every sum of squares comes from
    squared marginal totals and the correction factor, never from the mean
    deviations the implementation uses."""
    n_subj, n_lev = y.shape
    order = sorted(set(groups))
    members = {g: [i for i, gi in enumerate(groups) if gi == g] for g in order}
    big_n = y.size
    cf = y.sum() ** 2 / big_n
    ss_total = float((y * y).sum() - cf)
    subj_tot = y.sum(axis=1)
    ss_between_subj = float((subj_tot ** 2).sum() / n_lev - cf)
    ss_group = float(sum(
        subj_tot[members[g]].sum() ** 2 / (len(members[g]) * n_lev) for g in order
    ) - cf)
    ss_level = float((y.sum(axis=0) ** 2).sum() / n_subj - cf)
    ss_cells = float(sum(
        (y[members[g]].sum(axis=0) ** 2).sum() / len(members[g]) for g in order
    ) - cf)
    ss_inter = ss_cells - ss_group - ss_level
    return {
        "group": ss_group,
        "subjects_within_groups": ss_between_subj - ss_group,
        "level": ss_level,
        "interaction": ss_inter,
        "error": ss_total - ss_between_subj - ss_level - ss_inter,
        "total": ss_total,
    }


def test_statistics_against_independent_oracles(acceptance):
    rng = np.random.default_rng(7)

    # signed-rank test: bitwise agreement with brute-force enumeration
    trials = 0
    wilcoxon_exact = True
    while trials < 100:
        n = int(rng.integers(3, 13))
        x = rng.integers(-3, 4, size=n).astype(float)
        y = rng.integers(-3, 4, size=n).astype(float)
        if np.all(x == y):
            continue
        trials += 1
        w_ref, p_ref = _wilcoxon_brute(x, y)
        res = wilcoxon_signed_rank(x, y, method="exact")
        if res.statistic != w_ref or res.p_value != p_ref:
            wilcoxon_exact = False

    bonf_ok = bonferroni(0.05, 6) == 0.05 / 6 and bonferroni(0.05, 4) == 0.0125

    worst_ss = 0.0
    rng2 = np.random.default_rng(17)
    for _ in range(50):
        n_groups = int(rng2.integers(2, 5))
        n_levels = int(rng2.integers(2, 6))
        sizes = [int(rng2.integers(2, 7)) for _ in range(n_groups)]
        groups = [f"g{gi}" for gi, s in enumerate(sizes) for _ in range(s)]
        y = rng2.normal(size=(len(groups), n_levels))
        res = mixed_anova(y, groups)
        oracle = _anova_ss_by_squared_totals(y, groups)
        for key, want in oracle.items():
            worst_ss = max(worst_ss, abs(res.ss[key] - want))

    worst_cdf = 0.0
    for z in np.linspace(-3.5, 3.5, 20):
        want, _ = quad(lambda u: np.exp(-u * u / 2.0) / np.sqrt(2 * np.pi), -np.inf, z)
        worst_cdf = max(worst_cdf, abs(normal_cdf(float(z)) - want))
    for v in (1.0, 3.0, 7.0, 12.0, 30.0):
        for xq in (-6.0, -2.5, -1.0, 0.3, 2.2):
            want, _ = quad(_t_pdf, -np.inf, xq, args=(v,))
            worst_cdf = max(worst_cdf, abs(student_t_cdf(xq, v) - want))
    for kdf in (2.0, 3.0, 5.0, 9.0, 16.0):
        for xq in (0.2, 1.0, 3.0, 7.0, 20.0):
            want, _ = quad(_chi2_pdf, 0.0, xq, args=(kdf,))
            worst_cdf = max(worst_cdf, abs(chi2_cdf(xq, kdf) - want))
    for d1, d2 in ((2.0, 5.0), (3.0, 8.0), (5.0, 3.0), (8.0, 20.0), (10.0, 10.0)):
        for xq in (0.1, 0.7, 1.5, 4.0):
            want, _ = quad(_f_pdf, 0.0, xq, args=(d1, d2))
            worst_cdf = max(worst_cdf, abs(f_cdf(xq, d1, d2) - want))

    ok = wilcoxon_exact and bonf_ok and worst_ss < 1e-10 and worst_cdf < 1e-8
    acceptance(
        "A7 statistics oracles",
        ok,
        f"signed-rank bitwise-exact over {trials} enumerated trials; "
        f"alpha splits exact; ANOVA SS residual <= {worst_ss:.1e} over 50 "
        f"designs; CDF vs quadrature <= {worst_cdf:.1e}",
    )


# ---------------------------------------------------------------------------
# A8: odd input dimensions through padding, network, and forecast
# ---------------------------------------------------------------------------

def test_odd_dimensions_pad_and_flow_through_the_network(acceptance, tmp_path):
    rng = np.random.default_rng(5)
    raw0 = Volume3D(rng.uniform(0.6, 1.4, size=(79, 95, 79)))
    raw1 = Volume3D(rng.uniform(0.6, 1.4, size=(79, 95, 79)))
    p0 = pad_to_even(raw0)
    p1 = pad_to_even(raw1)

    config = I2IModelConfig()
    params = init_model(config, seed=0)
    trace: dict = {}
    t0 = time.perf_counter()
    with ad.no_grad():
        out = forward_batch(
            params, p0.data[None], p1.data[None], config, mode="train", trace=trace
        )
    out_shape = out.data.shape
    del out

    model_path = tmp_path / "full_size.bin"
    save_model(params, config, model_path)
    del params

    record = SubjectRecord("SUB_000", "MCI", {0: p0, 1: p1})
    entry = PlanEntry("SUB_000", "i2i", 0, model_path)
    fc = forecast_recursive(record, entry, to_year=2)
    elapsed = time.perf_counter() - t0

    ok = (
        p0.dims == (80, 96, 80)
        and p1.dims == (80, 96, 80)
        and trace["lstm_hidden"] == (1, 80, 96, 80, 16)
        and trace["pooled"] == (1, 40, 48, 40, 16)
        and trace["decoded"] == (1, 40, 48, 40, 32)
        and trace["head"] == (1, 40, 48, 40, 1)
        and trace["upsampled"] == (1, 80, 96, 80, 1)
        and trace["output"] == (1, 80, 96, 80, 1)
        and out_shape == (1, 80, 96, 80, 1)
        and fc[2].dims == (80, 96, 80)
    )
    acceptance(
        "A8 odd-dimension padding",
        ok,
        f"(79,95,79) pads to (80,96,80), pools to (40,48,40,16), forecasts "
        f"at full size in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# A9: bit-identical reruns
# ---------------------------------------------------------------------------

def _pipeline_digests(root: Path) -> dict:
    ph = root / "phantom"
    tr = root / "train"
    fc = root / "forecast"
    met = root / "metrics.csv"

    steps = [
        ["phantom", "--out", str(ph), "--dims", "12", "12", "12",
         "--n-stable", "4", "--n-converter", "4", "--n-decliner", "4",
         "--seed", "3"],
        ["train", "--manifest", str(ph / "manifest.json"), "--out", str(tr),
         "--seed", "0", "--epochs", "2", "--batch-size", "4", "--copies", "0",
         "--folds", "2", "--lstm-filters", "1", "--decoder-filters", "1",
         "--kernel-size", "1"],
        ["forecast", "--manifest", str(ph / "manifest.json"), "--out", str(fc),
         "--predictor", "both", "--folds", str(tr / "folds.json"),
         "--models", str(tr), "--to-year", "2"],
        ["evaluate", "--manifest", str(ph / "manifest.json"),
         "--predictions", str(fc / "volumes"), "--out", str(met),
         "--atlas", str(ph / "atlas.vol"), "--roi", str(ph / "meta_roi.json")],
        ["stats", "--metrics", str(met), "--out", str(root / "stats.csv"),
         "--test", "wilcoxon"],
        ["report", "--metrics", str(met), "--out", str(root / "report.svg")],
    ]
    for argv in steps:
        code = cli_main(argv)
        assert code == 0, f"{argv[0]} exited with {code}"

    digests = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        # run manifests and forecast plans embed absolute paths by design,
        # so they differ across output directories
        if p.name == "run_manifest.json" or p.name.endswith(".run.json"):
            continue
        if p.name.startswith("plan_"):
            continue
        digests[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def test_repeated_runs_are_bit_identical(acceptance, tmp_path):
    first = _pipeline_digests(tmp_path / "run_a")
    second = _pipeline_digests(tmp_path / "run_b")

    names = set(first)
    covered = (
        any(n.endswith(".bin") for n in names)
        and any(n.endswith(".vol") and n.startswith("forecast") for n in names)
        and "metrics.csv" in names
        and "stats.csv" in names
        and "report.svg" in names
    )
    ok = covered and first == second
    acceptance(
        "A9 bit-identical reruns",
        ok,
        f"{len(first)} artifacts (models, forecasts, reports) hash-identical "
        "across two same-seed runs",
    )
