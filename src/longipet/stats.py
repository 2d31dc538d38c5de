"""Statistical tests for paired volume metrics and ROI trajectories.

Everything here is computed directly from the defining formulas: the
Wilcoxon signed-rank test (exact tail by enumeration of the sign
distribution up to n=25, normal approximation with continuity and tie
corrections beyond), the paired t-test, one-way ANOVA, the chi-square
independence test, and a two-factor mixed (split-plot) ANOVA with one
between-subject factor and one within-subject factor.  The t, F and
chi-square tail probabilities come from the regularized incomplete beta and
gamma functions, computed here by continued fractions with the prefactor in
log space, so no scipy module is loaded; a fraction that does not converge
raises DegenerateDataError.  The signed-rank, t, ANOVA and chi-square tests
raise InputError on any non-finite sample value or count.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateDataError, InputError, ParameterError, check_integer, check_real

WILCOXON_EXACT_LIMIT = 25
WILCOXON_METHODS = ("auto", "exact", "approx")


@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    p_value: float
    df: Optional[Tuple[float, ...]]
    n: int


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

# Modified Lentz method and the incomplete beta and gamma continued
# fractions of Press et al., Numerical Recipes, 3rd ed., sections 5.2, 6.2
# and 6.4.  A fraction whose partial numerator reaches 0 (an integer b for
# the beta, an integer a for the gamma) ends there, exactly.
_TINY = 1e-300
_EPS = 2.0 ** -52  # machine epsilon
_MAX_TERMS = 10_000


def _lentz(f: float, terms) -> float:
    # b0 + a1/(b1 + a2/(b2 + ...)) for b0 = f != 0 and terms (a_j, b_j).
    c, d = f, 0.0
    for a, b in itertools.islice(terms, _MAX_TERMS):
        d = b + a * d
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + a / c
        c = c if abs(c) >= _TINY else _TINY
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= _EPS:
            return f
    raise DegenerateDataError(f"continued fraction did not converge in {_MAX_TERMS} terms")


def _ln_beta_ratio(a: float, b: float) -> float:
    # ln(Gamma(a + b) / (Gamma(a) Gamma(b))).  Past 100, lgamma's absolute
    # error grows with its value, so the larger argument's two terms come
    # from Stirling's series, whose difference loses no digits.
    big, small = max(a, b), min(a, b)
    if big < 100.0:
        return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def tail(z):  # ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi) / 2, to z^-5
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * z * z)) / (z * z)) / z

    return ((big - 0.5) * math.log1p(small / big) + small * (math.log(big + small) - 1.0)
            + tail(big + small) - tail(big) - math.lgamma(small))


def _beta_fraction(a: float, b: float, x: float) -> float:
    # I_x(a, b) by its continued fraction, which converges fast for x below
    # (a + 1) / (a + b + 2).
    def terms():
        for m in itertools.count():
            if m:
                yield m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)), 1.0
            yield -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)), 1.0

    ln_front = _ln_beta_ratio(a, b) + a * math.log(x) + b * math.log1p(-x)
    return math.exp(ln_front) / (a * _lentz(1.0, terms()))


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for finite reals a, b > 0 and
    x in [0, 1]; anything else raises ParameterError."""
    a, b, x = check_real(a, "a"), check_real(b, "b"), check_real(x, "x")
    if a <= 0 or b <= 0:
        raise ParameterError(f"beta parameters must be positive, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise ParameterError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    if x < (a + 1.0) / (a + b + 2.0):
        return _beta_fraction(a, b, x)
    return 1.0 - _beta_fraction(b, a, 1.0 - x)


def _gammainc(a: float, x: float) -> Tuple[float, float]:
    # (P(a, x), Q(a, x)): P by its series below x = a + 1, Q by its continued
    # fraction above, and the other one as 1 minus it.
    a, x = check_real(a, "a"), check_real(x, "x")
    if a <= 0:
        raise ParameterError(f"shape must be positive, got {a}")
    if x < 0:
        raise ParameterError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0, 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x >= a + 1.0:
        terms = ((-i * (i - a), x + 2 * i + 1.0 - a) for i in itertools.count(1))
        q = front / _lentz(x + 1.0 - a, terms)
        return 1.0 - q, q
    term = total = 1.0 / a
    for n in range(1, _MAX_TERMS):
        term *= x / (a + n)
        total += term
        if term <= total * _EPS:
            p = front * total
            return p, 1.0 - p
    raise DegenerateDataError(f"gamma series did not converge in {_MAX_TERMS} terms")


def gammainc_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for finite reals a > 0 and
    x >= 0; anything else raises ParameterError."""
    return _gammainc(a, x)[0]


def gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x), computed
    directly, so it keeps full relative precision in the far tail."""
    return _gammainc(a, x)[1]


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def student_t_cdf(x: float, df: float) -> float:
    x, df = check_real(x, "x"), check_real(df, "df")
    if df <= 0:
        raise ParameterError(f"df must be positive, got {df}")
    if x == 0.0:
        return 0.5
    tail = betainc_reg(df / 2.0, 0.5, df / (df + x * x))  # P(|T| >= |x|)
    return 1.0 - tail / 2.0 if x > 0 else tail / 2.0


def f_cdf(x: float, df1: float, df2: float) -> float:
    x, df1, df2 = check_real(x, "x"), check_real(df1, "df1"), check_real(df2, "df2")
    if df1 <= 0 or df2 <= 0:
        raise ParameterError(f"df must be positive, got ({df1}, {df2})")
    if x <= 0.0:
        return 0.0
    return betainc_reg(df1 / 2.0, df2 / 2.0, df1 * x / (df1 * x + df2))


def chi2_cdf(x: float, df: float) -> float:
    x, df = check_real(x, "x"), check_real(df, "df")
    if df <= 0:
        raise ParameterError(f"df must be positive, got {df}")
    if x <= 0.0:
        return 0.0
    return gammainc_lower(df / 2.0, x / 2.0)


def _t_two_sided_p(t: float, df: float) -> float:
    return betainc_reg(df / 2.0, 0.5, df / (df + t * t))


def _f_sf(f: float, df1: float, df2: float) -> float:
    if f <= 0.0:
        return 1.0
    return betainc_reg(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def _check_finite(*arrays) -> None:
    # A NaN would otherwise pass silently: counted in n but in no statistic.
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise InputError("samples hold non-finite values; no imputation is done")


# ---------------------------------------------------------------------------
# rank helpers
# ---------------------------------------------------------------------------

def _average_ranks(values: np.ndarray) -> np.ndarray:
    # 1-based ranks, ties sharing their mean rank: a run of c equal values
    # ending at rank r gets r - (c - 1) / 2.  NaNs never tie, so each NaN
    # gets a rank of its own.
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True,
                                   equal_nan=False)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _wilcoxon_exact_tail(ranks: np.ndarray, w_obs: float) -> float:
    # Distribution of W+ over all 2^n sign assignments via its generating
    # function; ranks are doubled so average ranks stay integral.
    ranks2 = np.rint(2.0 * ranks).astype(np.int64)
    total = int(ranks2.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in ranks2:
        nxt = counts.copy()
        nxt[r:] += counts[: total + 1 - r]
        counts = nxt
    threshold = int(math.floor(2.0 * w_obs + 1e-9))
    return counts[: threshold + 1].sum() / counts.sum()


def wilcoxon_signed_rank(x, y, method: str = "auto") -> TestResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; ties in |d| get average ranks.  The
    statistic is W = min(W+, W-).  ``method`` is 'auto' (exact up to n=25),
    'exact', or 'approx'; the approximation applies continuity and tie
    corrections.  The two-sided p doubles the lower tail, capped at 1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError(f"paired samples must be equal-length 1D, got {x.shape}, {y.shape}")
    _check_finite(x, y)
    d = x - y
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise DegenerateDataError("all paired differences are zero")
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if method not in WILCOXON_METHODS:
        raise ParameterError(f"unknown method {method!r}")
    use_exact = method == "exact" or (method == "auto" and n <= WILCOXON_EXACT_LIMIT)
    if use_exact:
        p = min(1.0, 2.0 * _wilcoxon_exact_tail(ranks, w))
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(np.abs(d), return_counts=True)
        var -= float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
        if var <= 0:
            raise DegenerateDataError("tie correction consumed all rank variance")
        z = (w - mu + 0.5) / math.sqrt(var)
        p = min(1.0, 2.0 * normal_cdf(z))
    return TestResult("W", w, p, None, n)


# ---------------------------------------------------------------------------
# t-test and ANOVA family
# ---------------------------------------------------------------------------

def paired_t(x, y) -> TestResult:
    """Two-sided paired t-test: t = mean(d) / (sd(d) / sqrt(n)), df = n-1."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError(f"paired samples must be equal-length 1D, got {x.shape}, {y.shape}")
    _check_finite(x, y)
    d = x - y
    n = d.size
    if n < 2:
        raise InputError(f"paired t-test needs at least 2 pairs, got {n}")
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateDataError("paired differences have zero variance")
    t = float(d.mean() / (sd / math.sqrt(n)))
    return TestResult("t", t, _t_two_sided_p(t, n - 1), (float(n - 1),), n)


def one_way_anova(groups: Sequence[np.ndarray]) -> TestResult:
    """One-way fixed-effects ANOVA across two or more groups."""
    arrays = [np.asarray(g, dtype=np.float64).ravel() for g in groups]
    if len(arrays) < 2:
        raise InputError(f"need at least 2 groups, got {len(arrays)}")
    if any(a.size == 0 for a in arrays):
        raise InputError("every group needs at least one observation")
    _check_finite(*arrays)
    n_total = sum(a.size for a in arrays)
    k = len(arrays)
    if n_total - k < 1:
        raise InputError("not enough observations for a within-group error term")
    grand = sum(float(a.sum()) for a in arrays) / n_total
    ss_between = sum(a.size * (float(a.mean()) - grand) ** 2 for a in arrays)
    ss_within = sum(float(((a - a.mean()) ** 2).sum()) for a in arrays)
    df1, df2 = k - 1, n_total - k
    if ss_within == 0.0:
        if ss_between == 0.0:
            raise DegenerateDataError("no variance between or within groups")
        raise DegenerateDataError("zero within-group variance with unequal means")
    f = (ss_between / df1) / (ss_within / df2)
    return TestResult("F", float(f), _f_sf(f, df1, df2), (float(df1), float(df2)), n_total)


def chi_square_independence(table) -> TestResult:
    """Pearson chi-square test of independence on a contingency table."""
    obs = np.asarray(table, dtype=np.float64)
    if obs.ndim != 2 or obs.shape[0] < 2 or obs.shape[1] < 2:
        raise InputError(f"contingency table must be at least 2x2, got {obs.shape}")
    _check_finite(obs)
    if np.any(obs < 0):
        raise InputError("contingency counts must be nonnegative")
    row = obs.sum(axis=1)
    col = obs.sum(axis=0)
    total = obs.sum()
    if np.any(row == 0) or np.any(col == 0) or total == 0:
        raise InputError("contingency table has an empty row or column")
    expected = np.outer(row, col) / total
    stat = float(((obs - expected) ** 2 / expected).sum())
    df = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    # The upper tail directly: 1 - cdf cancels to 0 for large statistics.
    p = gammainc_upper(df / 2.0, stat / 2.0)
    return TestResult("chi2", stat, p, (float(df),), int(total))


# ---------------------------------------------------------------------------
# mixed (split-plot) ANOVA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedAnovaResult:
    between: TestResult
    within: TestResult
    interaction: TestResult
    ss: Dict[str, float]
    df: Dict[str, float]


def _effect_f(ss_effect, df_effect, ss_error, df_error, name, n) -> TestResult:
    if ss_effect == 0.0:
        return TestResult(name, 0.0, 1.0, (float(df_effect), float(df_error)), n)
    if ss_error == 0.0:
        raise DegenerateDataError(f"zero error variance for the {name} effect")
    f = (ss_effect / df_effect) / (ss_error / df_error)
    return TestResult(name, float(f), _f_sf(f, df_effect, df_error), (float(df_effect), float(df_error)), n)


def mixed_anova(values, groups: Sequence[str]) -> MixedAnovaResult:
    """Two-factor mixed ANOVA: rows are subjects (between factor = group
    label), columns are repeated levels (within factor).

    Requires a complete design: every subject measured at every level.  The
    between effect is tested against subjects-within-groups; the within and
    interaction effects against level-by-subject-within-groups.
    """
    y = np.asarray(values, dtype=np.float64)
    if y.ndim != 2:
        raise InputError(f"values must be (subjects, levels), got shape {y.shape}")
    n_subj, n_lev = y.shape
    if n_lev < 2:
        raise InputError(f"need at least 2 within-subject levels, got {n_lev}")
    if len(groups) != n_subj:
        raise InputError(f"{n_subj} subjects but {len(groups)} group labels")
    if not np.all(np.isfinite(y)):
        raise InputError("design is incomplete (non-finite cells); no imputation is done")
    labels = list(dict.fromkeys(groups))  # first-appearance order
    if len(labels) < 2:
        raise InputError(f"need at least 2 groups, got {len(labels)}")
    group_idx = {g: [i for i, gg in enumerate(groups) if gg == g] for g in labels}
    n_g = {g: len(idx) for g, idx in group_idx.items()}
    n_groups = len(labels)
    if n_subj - n_groups < 1:
        raise InputError("not enough subjects for a subjects-within-groups error term")

    grand = float(y.mean())
    subj_mean = y.mean(axis=1)
    level_mean = y.mean(axis=0)
    group_mean = {g: float(y[idx].mean()) for g, idx in group_idx.items()}
    cell_mean = {g: y[idx].mean(axis=0) for g, idx in group_idx.items()}

    ss_group = n_lev * sum(n_g[g] * (group_mean[g] - grand) ** 2 for g in labels)
    ss_subj = n_lev * sum(
        float(((subj_mean[idx] - group_mean[g]) ** 2).sum()) for g, idx in group_idx.items()
    )
    ss_level = n_subj * float(((level_mean - grand) ** 2).sum())
    ss_inter = sum(
        n_g[g] * float(((cell_mean[g] - group_mean[g] - level_mean + grand) ** 2).sum())
        for g in labels
    )
    ss_error = 0.0
    for g, idx in group_idx.items():
        resid = y[idx] - subj_mean[idx][:, None] - cell_mean[g][None, :] + group_mean[g]
        ss_error += float((resid ** 2).sum())
    ss_total = float(((y - grand) ** 2).sum())

    df_group = n_groups - 1
    df_subj = n_subj - n_groups
    df_level = n_lev - 1
    df_inter = df_group * df_level
    df_error = df_subj * df_level

    between = _effect_f(ss_group, df_group, ss_subj, df_subj, "F_group", n_subj)
    within = _effect_f(ss_level, df_level, ss_error, df_error, "F_level", n_subj)
    interaction = _effect_f(ss_inter, df_inter, ss_error, df_error, "F_interaction", n_subj)
    return MixedAnovaResult(
        between,
        within,
        interaction,
        ss={
            "group": float(ss_group),
            "subjects_within_groups": float(ss_subj),
            "level": float(ss_level),
            "interaction": float(ss_inter),
            "error": float(ss_error),
            "total": ss_total,
        },
        df={
            "group": float(df_group),
            "subjects_within_groups": float(df_subj),
            "level": float(df_level),
            "interaction": float(df_inter),
            "error": float(df_error),
        },
    )


def bonferroni(alpha: float, m: int) -> float:
    """Per-comparison significance level for m comparisons: ``alpha`` a
    finite real number in (0, 1], ``m`` a positive integer (neither a
    bool); anything else raises ParameterError."""
    alpha, m = check_real(alpha, "alpha"), check_integer(m, "m")
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    if m < 1:
        raise ParameterError(f"m must be a positive integer, got {m!r}")
    return alpha / m
