"""Forecast evaluation tables and a static SVG summary.

``evaluate_forecasts`` scores predicted volumes against ground truth and
produces one row per (subject, predictor, year) plus a gap list naming
every prediction that could not be scored.  Rows serialize to CSV with a
fixed column order so downstream parsing never guesses:

    subject_id, year, predictor, mae, ssim, group,
    meta_roi_suvr_pred, meta_roi_suvr_true, region_<label>...

``compare`` runs one family of hypothesis tests over the rows (i2i vs
linear, predicted vs true SUVR, across groups), and ``write_stats_csv``
writes the results with a Bonferroni-adjusted alpha in ``STATS_COLUMNS``
order.  Each comparison whose input is degenerate becomes a row that says
why, instead of failing the whole run.

The SVG report is a pure function of the rows: same rows, same bytes.  It
draws two bar panels (MAE and SSIM), one bar group per year, one bar per
predictor.  No plotting library is used.

The gap list and the SVG are written by ``volume_io.write_text`` and the CSV
files through ``volume_io.atomic_open``, so a failed write leaves no partial
file.
"""

import csv
import io
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DegenerateDataError, FormatError, InputError, ParameterError, ShapeError
from .metrics import (
    AtlasIndex,
    RoiDefinition,
    _as_pair,
    _mask_selection,
    _mean_error,
    _roi_selection,
    _Ssim,
)
from .stats import (
    MixedAnovaResult,
    TestResult,
    bonferroni,
    chi_square_independence,
    mixed_anova,
    one_way_anova,
    paired_t,
    WILCOXON_METHODS,
    wilcoxon_signed_rank,
)
from .volume_io import (
    ManifestEntry,
    SubjectRecord,
    Volume3D,
    atomic_open,
    read_volume,
    write_text,
)

CSV_FIXED_COLUMNS = (
    "subject_id",
    "year",
    "predictor",
    "mae",
    "ssim",
    "group",
    "meta_roi_suvr_pred",
    "meta_roi_suvr_true",
)


@dataclass
class EvalRow:
    subject_id: str
    group: str
    year: int
    predictor: str
    mae: float
    ssim: float
    meta_roi_suvr_pred: Optional[float] = None
    meta_roi_suvr_true: Optional[float] = None
    regional: Dict[int, float] = field(default_factory=dict)


@dataclass
class EvalReport:
    rows: List[EvalRow]
    gaps: List[str]


def evaluate_forecasts(
    records: Iterable[Union[SubjectRecord, ManifestEntry]],
    forecasts: Dict[str, Dict[str, Dict[int, Union[Volume3D, str, Path]]]],
    atlas: Optional[Volume3D] = None,
    roi: Optional[RoiDefinition] = None,
    mask: Optional[Volume3D] = None,
) -> EvalReport:
    """Score ``forecasts[predictor][subject][year]`` against ground truth.

    ``records`` may be any iterable, such as a generator that reads one
    subject at a time; it is read once, and its subject ids must be
    distinct.  A record is a ``SubjectRecord`` or a ``ManifestEntry``, whose
    ground-truth scans are read from its ``scan_paths`` one year at a time,
    only for years with a prediction.  A prediction is a ``Volume3D`` or the
    path of one, read only when its row is scored.  Each subject is released
    before the next is read and each year before the next is scored, so
    beside the fixed buffers one record, one truth scan and one prediction
    are held: a pair's ROI means and SSIM are taken first, and then the
    |pred - truth| error map, which serves the MAE and the regional means,
    is written into the prediction's buffer when the prediction was read
    here (a caller's ``Volume3D`` is never written).  Predictions without a
    matching ground-truth scan are listed in ``gaps`` instead of being
    scored.  Regional and ROI columns appear only when an atlas (and ROI)
    are supplied.  Rows and gaps come in predictor, then subject, then year
    order, whatever the order of ``records``.  The atlas labels, the ROI
    selection, the mask selection and the SSIM buffers are built once per
    call, and the atlas and the mask are released once they are; an empty
    mask or an ROI that selects no voxel raises ParameterError before any
    record is drawn.
    """
    index = AtlasIndex(atlas) if atlas is not None else None
    roi_sel = _roi_selection(roi, atlas) if atlas is not None and roi is not None else None
    mask_sel = _mask_selection(mask) if mask is not None else None
    # Indexed: freed now unless the caller holds them (since CPython 3.11 a
    # call's arguments are handed over to the callee, not held by the
    # caller's frame).
    del atlas, mask
    ssim = None
    rows: List[EvalRow] = []
    gaps: List[Tuple[str, str, int, str]] = []  # (predictor, subject, year, text)
    seen = set()
    for rec in records:
        sid = rec.subject_id
        if sid in seen:
            raise InputError(f"subject {sid!r} has more than one record")
        seen.add(sid)
        by_year: Dict[int, Dict[str, Union[Volume3D, str, Path]]] = {}
        for predictor, by_subject in forecasts.items():
            for year, pred in by_subject.get(sid, {}).items():
                by_year.setdefault(year, {})[predictor] = pred
        truth_years = set(rec.years)
        for year, by_predictor in by_year.items():
            if year not in truth_years:
                gaps += [(predictor, sid, year, f"{predictor}: subject {sid} year "
                          f"{year} has no ground-truth scan") for predictor in by_predictor]
                continue
            if isinstance(rec, ManifestEntry):
                true = read_volume(rec.scan_paths[year])
            else:
                true = rec.scans[year]
            if ssim is None or ssim.dims != true.dims:
                ssim = _Ssim(true.dims)
            for predictor, pred in by_predictor.items():
                owned = not isinstance(pred, Volume3D)
                if owned:
                    pred = read_volume(pred)
                dp, dt = _as_pair(pred, true)
                # Checked before the ROI mean indexes the volume with the
                # atlas's selection.
                if index is not None and index.dims != true.dims:
                    raise ShapeError(
                        f"atlas dims {index.dims} do not match volume dims {true.dims}")
                suvr_p = suvr_t = None
                if roi_sel is not None:
                    suvr_p = float(dp[roi_sel].mean())
                    suvr_t = float(dt[roi_sel].mean())
                score = ssim(pred, true)
                err = np.subtract(dp, dt, out=dp if owned else None)
                np.abs(err, out=err)
                rows.append(
                    EvalRow(
                        subject_id=sid,
                        group=rec.group,
                        year=year,
                        predictor=predictor,
                        mae=_mean_error(err, mask_sel),
                        ssim=score,
                        meta_roi_suvr_pred=suvr_p,
                        meta_roi_suvr_true=suvr_t,
                        regional=index.regional_error(err) if index is not None else {},
                    )
                )
                del pred, dp, dt, err
            del true
        del rec
    for predictor, by_subject in forecasts.items():
        gaps += [(predictor, sid, -1, f"{predictor}: subject {sid} has predictions but no record")
                 for sid in by_subject if sid not in seen]
    rows.sort(key=lambda r: (r.predictor, r.subject_id, r.year))
    return EvalReport(rows, [text for *_, text in sorted(gaps)])


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def _cell(v: Optional[float]) -> str:
    return "" if v is None else repr(float(v))


def write_metrics_csv(rows: Sequence[EvalRow], path) -> Path:
    path = Path(path)
    labels = sorted({label for r in rows for label in r.regional})
    header = list(CSV_FIXED_COLUMNS) + [f"region_{label}" for label in labels]
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in rows:
            cells = [
                r.subject_id,
                str(int(r.year)),
                r.predictor,
                repr(float(r.mae)),
                repr(float(r.ssim)),
                r.group,
                _cell(r.meta_roi_suvr_pred),
                _cell(r.meta_roi_suvr_true),
            ]
            cells += [_cell(r.regional.get(label)) for label in labels]
            writer.writerow(cells)
    return path


def write_gaps(gaps: Sequence[str], path) -> Path:
    """Write the gap list of an ``EvalReport``, one line per gap."""
    return write_text(path, "".join(line + "\n" for line in gaps))


def _optional_float(cell: str) -> Optional[float]:
    return float(cell) if cell != "" else None


# How each metrics CSV column parses; region_<label> cells are optional floats.
_CSV_PARSERS = {
    "subject_id": str, "year": int, "predictor": str, "mae": float, "ssim": float, "group": str,
    "meta_roi_suvr_pred": _optional_float, "meta_roi_suvr_true": _optional_float,
}


def read_metrics_csv(path) -> List[EvalRow]:
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header[: len(CSV_FIXED_COLUMNS)]) != CSV_FIXED_COLUMNS:
            raise FormatError(
                f"{path} is not a metrics CSV; expected columns {CSV_FIXED_COLUMNS}"
            )
        labels = []
        for name in header[len(CSV_FIXED_COLUMNS):]:
            if not name.startswith("region_"):
                raise FormatError(f"{path} has unexpected column {name!r}")
            try:
                labels.append(int(name[len("region_"):]))
            except ValueError as exc:
                raise FormatError(f"{path} has bad region column {name!r}") from exc
        fixed = len(CSV_FIXED_COLUMNS)
        rows = []
        for row, cells in enumerate(reader, start=2):
            if len(cells) != len(header):
                raise FormatError(f"{path} row {row} has {len(cells)} cells, want {len(header)}")
            values = []
            for name, cell in zip(header, cells):
                try:
                    values.append(_CSV_PARSERS.get(name, _optional_float)(cell))
                except ValueError as exc:
                    raise FormatError(f"{path} row {row} column {name!r}: cannot read {cell!r}") from exc
            regional = {label: v for label, v in zip(labels, values[fixed:]) if v is not None}
            rows.append(EvalRow(**dict(zip(CSV_FIXED_COLUMNS, values)), regional=regional))
    return rows


def summarize(rows: Sequence[EvalRow], metric: str) -> Dict[int, Dict[str, float]]:
    """Mean of ``metric`` ('mae' or 'ssim') per (year, predictor)."""
    if metric not in ("mae", "ssim"):
        raise InputError(f"unknown metric {metric!r}")
    sums: Dict[Tuple[int, str], List[float]] = {}
    for r in rows:
        sums.setdefault((r.year, r.predictor), []).append(getattr(r, metric))
    out: Dict[int, Dict[str, float]] = {}
    for (year, predictor), vals in sorted(sums.items()):
        out.setdefault(year, {})[predictor] = sum(vals) / len(vals)
    return out


# ---------------------------------------------------------------------------
# hypothesis tests
# ---------------------------------------------------------------------------

STATS_COLUMNS = (
    "test", "scope", "statistic_name", "statistic", "p_value",
    "df1", "df2", "n", "m_comparisons", "alpha_adjusted", "significant", "status",
)

TESTS = ("wilcoxon", "ttest", "anova", "chi2", "mixed")


@dataclass
class StatRow:
    """One comparison: its test result, or why its input was degenerate."""

    test: str
    scope: str
    result: Optional[TestResult]
    detail: str = ""  # reason when degenerate

    @property
    def ok(self) -> bool:
        return self.result is not None


def _attempt(test: str, scope: str, fn, *args, **kwargs) -> List[StatRow]:
    """Run one statistical test; a degenerate input becomes a row that says
    so, and a mixed ANOVA gives one row per effect."""
    try:
        res = fn(*args, **kwargs)
    except DegenerateDataError as exc:
        return [StatRow(test, scope, None, str(exc))]
    if isinstance(res, MixedAnovaResult):
        return [
            StatRow(test, f"{scope},effect={effect}", r)
            for effect, r in (("group", res.between), ("level", res.within),
                              ("interaction", res.interaction))
        ]
    return [StatRow(test, scope, res)]


def _i2i_linear_pairs(year_rows: Sequence[EvalRow], need_suvr: bool = False):
    # (i2i row, linear row) for each subject both predictors scored that
    # year, sorted by subject.
    by_pred: Dict[str, Dict[str, EvalRow]] = {}
    for r in year_rows:
        if not need_suvr or r.meta_roi_suvr_pred is not None:
            by_pred.setdefault(r.predictor, {})[r.subject_id] = r
    i2i, linear = by_pred.get("i2i", {}), by_pred.get("linear", {})
    return [(i2i[sid], linear[sid]) for sid in sorted(set(i2i) & set(linear))]


def _wilcoxon(year, year_rows, method) -> Iterator[StatRow]:
    pairs = _i2i_linear_pairs(year_rows)
    for metric in ("mae", "ssim") if pairs else ():
        a = [getattr(i2i, metric) for i2i, _ in pairs]
        b = [getattr(linear, metric) for _, linear in pairs]
        scope = f"year={year},metric={metric},i2i-vs-linear"
        yield from _attempt("wilcoxon", scope, wilcoxon_signed_rank, a, b, method=method)


def _ttest(year, year_rows) -> Iterator[StatRow]:
    scored = sorted(
        (r for r in year_rows
         if r.meta_roi_suvr_pred is not None and r.meta_roi_suvr_true is not None),
        key=lambda r: r.subject_id,
    )
    for group in sorted({r.group for r in scored}):
        for predictor in sorted({r.predictor for r in scored}):
            sel = [r for r in scored if r.group == group and r.predictor == predictor]
            if len(sel) < 2:
                continue
            scope = f"year={year},group={group},predictor={predictor},suvr-pred-vs-true"
            yield from _attempt("ttest", scope, paired_t, [r.meta_roi_suvr_pred for r in sel],
                                [r.meta_roi_suvr_true for r in sel])


def _anova(year, year_rows) -> Iterator[StatRow]:
    for predictor in sorted({r.predictor for r in year_rows}):
        sel = [r for r in year_rows if r.predictor == predictor]
        groups = sorted({r.group for r in sel})
        if len(groups) < 2:
            continue
        for metric in ("mae", "ssim"):
            samples = [[getattr(r, metric) for r in sel if r.group == g] for g in groups]
            scope = f"year={year},predictor={predictor},metric={metric},across-groups"
            yield from _attempt("anova", scope, one_way_anova, samples)


def _mixed(year, year_rows) -> Iterator[StatRow]:
    pairs = [(i2i, linear) for i2i, linear in _i2i_linear_pairs(year_rows, need_suvr=True)
             if i2i.meta_roi_suvr_true is not None]
    labels = [i2i.group for i2i, _ in pairs]
    if len(pairs) < 3 or len(set(labels)) < 2:
        return
    values = np.array([
        [i2i.meta_roi_suvr_true, i2i.meta_roi_suvr_pred, linear.meta_roi_suvr_pred]
        for i2i, linear in pairs
    ])
    yield from _attempt("mixed", f"year={year},levels=gt|i2i|linear", mixed_anova, values, labels)


def _chi2(by_year) -> List[StatRow]:
    groups = sorted({r.group for year_rows in by_year.values() for r in year_rows})
    years = list(by_year)
    if len(groups) < 2 or len(years) < 2:
        raise InputError(
            f"chi-square needs at least 2 groups and 2 years with scored rows, "
            f"got {len(groups)} group(s) and {len(years)} year(s)"
        )
    table = np.zeros((len(groups), len(years)))
    for gi, g in enumerate(groups):
        for yi, y in enumerate(years):
            table[gi, yi] = len({r.subject_id for r in by_year[y] if r.group == g})
    scope = f"groups={'|'.join(groups)},years={'|'.join(str(y) for y in years)}"
    return _attempt("chi2", scope, chi_square_independence, table)


def compare(rows: Sequence[EvalRow], test: str, method: str = "auto",
            alpha: float = 0.05) -> List[StatRow]:
    """Run one family of tests over evaluation rows, one row per comparison.

    ``test`` is one of ``TESTS``: ``wilcoxon`` (i2i vs linear MAE and SSIM
    per year, with the signed-rank ``method``), ``ttest`` (predicted vs
    true meta-ROI SUVR per year, group and predictor), ``anova`` (MAE and
    SSIM across groups per year and predictor), ``chi2`` (subjects per
    group and year) or ``mixed`` (SUVR of ground truth, i2i and linear
    within subjects, groups between, per year).  ``alpha`` and ``method``
    are checked here, before any test runs; ``alpha`` is applied by
    ``write_stats_csv``.  Raises ``InputError`` when the rows support no
    comparison.
    """
    bonferroni(alpha, 1)  # rejects an alpha outside (0, 1]
    if method not in WILCOXON_METHODS:
        raise ParameterError(f"unknown method {method!r}; expected one of {WILCOXON_METHODS}")
    if test not in TESTS:
        raise ParameterError(f"unknown test {test!r}; expected one of {TESTS}")
    if not rows:
        raise InputError("no evaluation rows to compare")
    by_year = {y: [r for r in rows if r.year == y] for y in sorted({r.year for r in rows})}
    if test == "chi2":
        stat_rows = _chi2(by_year)
    else:
        per_year = {"wilcoxon": partial(_wilcoxon, method=method), "ttest": _ttest,
                    "anova": _anova, "mixed": _mixed}[test]
        stat_rows = [s for year, year_rows in by_year.items() for s in per_year(year, year_rows)]
    if not stat_rows:
        raise InputError(
            f"metrics support no {test} comparison "
            "(missing predictors, groups, or ROI columns)"
        )
    return stat_rows


def _stat_cells(s: StatRow, m: int, alpha_adj: Optional[float]) -> List[str]:
    res = s.result
    if res is None:
        return [s.test, s.scope, "", "", "", "", "", "", str(m), _cell(alpha_adj),
                "", f"degenerate: {s.detail}"]
    df1, df2 = (tuple(res.df or ()) + (None, None))[:2]
    return [s.test, s.scope, res.name, _cell(res.statistic), _cell(res.p_value),
            _cell(df1), _cell(df2), str(res.n), str(m), _cell(alpha_adj),
            "true" if res.p_value < alpha_adj else "false", "ok"]


def write_stats_csv(stat_rows: Sequence[StatRow], alpha: float, path) -> int:
    """Write ``stat_rows`` as a ``STATS_COLUMNS`` CSV; ``alpha`` is
    Bonferroni-adjusted over the m non-degenerate comparisons.  Returns m."""
    m = sum(1 for s in stat_rows if s.ok)
    alpha_adj = bonferroni(alpha, m) if m > 0 else None
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_COLUMNS)
        for s in stat_rows:
            writer.writerow(_stat_cells(s, m, alpha_adj))
    return m


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_PALETTE = ("#4472c4", "#ed7d31", "#70ad47", "#ffc000", "#a5a5a5", "#264478")

_PANEL_W = 860
_PANEL_H = 330
_MARGIN_L = 70
_MARGIN_R = 20
_TITLE_H = 34


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _bar_panel(out: List[str], y0: int, title: str,
               data: Dict[int, Dict[str, float]], predictors: List[str]) -> None:
    plot_x = _MARGIN_L
    plot_w = _PANEL_W - _MARGIN_L - _MARGIN_R
    plot_y = y0 + _TITLE_H
    plot_h = _PANEL_H - _TITLE_H - 46
    years = sorted(data)
    vmax = max((v for per in data.values() for v in per.values()), default=0.0)
    if vmax <= 0:
        vmax = 1.0
    vmax *= 1.12  # headroom for value labels
    out.append(
        f'<text x="{plot_x}" y="{y0 + 20}" font-size="15" font-weight="bold" '
        f'fill="#222">{title}</text>'
    )
    # y axis with 5 ticks
    for i in range(6):
        val = vmax * i / 5.0
        ty = plot_y + plot_h - plot_h * i / 5.0
        out.append(
            f'<line x1="{plot_x}" y1="{_fmt(ty)}" x2="{plot_x + plot_w}" y2="{_fmt(ty)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{plot_x - 6}" y="{_fmt(ty + 4)}" font-size="10" fill="#555" '
            f'text-anchor="end">{val:.3g}</text>'
        )
    group_w = plot_w / max(1, len(years))
    bar_w = group_w * 0.8 / max(1, len(predictors))
    for gi, year in enumerate(years):
        gx = plot_x + gi * group_w
        out.append(
            f'<text x="{_fmt(gx + group_w / 2)}" y="{plot_y + plot_h + 18}" '
            f'font-size="11" fill="#222" text-anchor="middle">year {year}</text>'
        )
        for pi, predictor in enumerate(predictors):
            if predictor not in data[year]:
                continue
            v = data[year][predictor]
            h = plot_h * v / vmax
            bx = gx + group_w * 0.1 + pi * bar_w
            by = plot_y + plot_h - h
            color = _PALETTE[pi % len(_PALETTE)]
            out.append(
                f'<rect x="{_fmt(bx)}" y="{_fmt(by)}" width="{_fmt(bar_w * 0.92)}" '
                f'height="{_fmt(h)}" fill="{color}"/>'
            )
            out.append(
                f'<text x="{_fmt(bx + bar_w * 0.46)}" y="{_fmt(by - 3)}" font-size="9" '
                f'fill="#333" text-anchor="middle">{v:.4g}</text>'
            )
    # axis lines
    out.append(
        f'<line x1="{plot_x}" y1="{plot_y}" x2="{plot_x}" y2="{plot_y + plot_h}" '
        f'stroke="#333" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{plot_x}" y1="{plot_y + plot_h}" x2="{plot_x + plot_w}" '
        f'y2="{plot_y + plot_h}" stroke="#333" stroke-width="1"/>'
    )


def render_report_svg(rows: Sequence[EvalRow], title: str = "Forecast evaluation") -> str:
    """Render MAE and SSIM panels as a standalone SVG string."""
    if not rows:
        raise InputError("no evaluation rows to report")
    predictors = sorted({r.predictor for r in rows})
    n_subj = len({r.subject_id for r in rows})
    height = 40 + 2 * _PANEL_H
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PANEL_W}" '
        f'height="{height}" viewBox="0 0 {_PANEL_W} {height}" font-family="sans-serif">',
        f'<rect width="{_PANEL_W}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_MARGIN_L}" y="24" font-size="18" font-weight="bold" '
        f'fill="#111">{title}</text>',
        f'<text x="{_PANEL_W - _MARGIN_R}" y="24" font-size="11" fill="#555" '
        f'text-anchor="end">{n_subj} subjects, mean over subjects per year</text>',
    ]
    # legend
    lx = _MARGIN_L
    ly = 36
    for pi, predictor in enumerate(predictors):
        color = _PALETTE[pi % len(_PALETTE)]
        out.append(f'<rect x="{lx}" y="{ly - 9}" width="11" height="11" fill="{color}"/>')
        out.append(
            f'<text x="{lx + 15}" y="{ly}" font-size="11" fill="#222">{predictor}</text>'
        )
        lx += 15 + 9 * len(predictor) + 24
    _bar_panel(out, 46, "Mean absolute error (lower is better)",
               summarize(rows, "mae"), predictors)
    _bar_panel(out, 46 + _PANEL_H, "Structural similarity (higher is better)",
               summarize(rows, "ssim"), predictors)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_report_svg(rows: Sequence[EvalRow], path, title: str = "Forecast evaluation") -> Path:
    return write_text(path, render_report_svg(rows, title=title))
