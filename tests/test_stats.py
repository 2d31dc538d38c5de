"""Statistical tests against independent oracles.

Tail probabilities are checked by numerically integrating the explicit
density formulas with scipy.integrate.quad; the incomplete beta and gamma
evaluations against their closed forms at special parameter values; the
exact Wilcoxon distribution against literal enumeration of all 2^n sign
assignments; and the mixed ANOVA against a fully hand-worked example plus
its orthogonality identities on random designs.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from longipet import report, stats
from longipet.errors import DegenerateDataError, InputError, ParameterError
from longipet.stats import (
    WILCOXON_EXACT_LIMIT,
    MixedAnovaResult,
    TestResult as StatTestResult,
    betainc_reg,
    bonferroni,
    chi2_cdf,
    chi_square_independence,
    f_cdf,
    gammainc_lower,
    gammainc_upper,
    mixed_anova,
    normal_cdf,
    one_way_anova,
    paired_t,
    student_t_cdf,
    wilcoxon_signed_rank,
    _average_ranks,
)


# ---------------------------------------------------------------------------
# special functions: closed forms
# ---------------------------------------------------------------------------

def test_betainc_closed_forms():
    for x in (0.01, 0.2, 0.5, 0.77, 0.99):
        for b in (0.5, 1.0, 2.0, 7.5):
            assert betainc_reg(1.0, b, x) == pytest.approx(
                1.0 - (1.0 - x) ** b, abs=1e-13
            )
            assert betainc_reg(b, 1.0, x) == pytest.approx(x ** b, abs=1e-13)
        assert betainc_reg(0.5, 0.5, x) == pytest.approx(
            2.0 / math.pi * math.asin(math.sqrt(x)), abs=1e-13
        )


def test_betainc_symmetry_and_edges():
    assert betainc_reg(2.0, 3.0, 0.0) == 0.0
    assert betainc_reg(2.0, 3.0, 1.0) == 1.0
    for a, b, x in ((2.0, 3.0, 0.3), (0.5, 5.0, 0.9), (10.0, 0.5, 0.05)):
        assert betainc_reg(a, b, x) == pytest.approx(
            1.0 - betainc_reg(b, a, 1.0 - x), abs=1e-13
        )
    with pytest.raises(ParameterError):
        betainc_reg(0.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        betainc_reg(1.0, 1.0, 1.5)


def test_gammainc_closed_forms():
    for x in (0.1, 0.5, 1.0, 2.5, 10.0):
        assert gammainc_lower(1.0, x) == pytest.approx(1.0 - math.exp(-x), abs=1e-13)
        assert gammainc_lower(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), abs=1e-13)
        # recurrence P(a+1, x) = P(a, x) - x^a e^-x / gamma(a+1)
        for a in (0.7, 2.0, 6.0):
            want = gammainc_lower(a, x) - math.exp(
                a * math.log(x) - x - math.lgamma(a + 1.0)
            )
            assert gammainc_lower(a + 1.0, x) == pytest.approx(want, abs=1e-12)
    assert gammainc_lower(3.0, 0.0) == 0.0
    with pytest.raises(ParameterError):
        gammainc_lower(-1.0, 1.0)
    with pytest.raises(ParameterError):
        gammainc_lower(1.0, -0.5)


# ---------------------------------------------------------------------------
# CDFs against quadrature of the densities
# ---------------------------------------------------------------------------

def _t_pdf(x, v):
    return math.exp(
        math.lgamma((v + 1.0) / 2.0) - math.lgamma(v / 2.0)
    ) / math.sqrt(v * math.pi) * (1.0 + x * x / v) ** (-(v + 1.0) / 2.0)


def _chi2_pdf(x, k):
    return math.exp(
        (k / 2.0 - 1.0) * math.log(x) - x / 2.0 - (k / 2.0) * math.log(2.0) - math.lgamma(k / 2.0)
    )


def _f_pdf(x, d1, d2):
    log_b = math.lgamma(d1 / 2.0) + math.lgamma(d2 / 2.0) - math.lgamma((d1 + d2) / 2.0)
    return math.exp(
        (d1 / 2.0) * math.log(d1)
        + (d2 / 2.0) * math.log(d2)
        + (d1 / 2.0 - 1.0) * math.log(x)
        - ((d1 + d2) / 2.0) * math.log(d2 + d1 * x)
        - log_b
    )


def test_normal_cdf_against_quadrature():
    for z in (-3.0, -1.5, -0.2, 0.0, 0.7, 1.96, 3.5):
        want, _ = quad(lambda u: math.exp(-u * u / 2.0) / math.sqrt(2 * math.pi), -np.inf, z)
        assert normal_cdf(z) == pytest.approx(want, abs=1e-10)


def test_t_cdf_against_quadrature():
    for v in (1.0, 2.0, 4.0, 9.0, 24.0):
        for x in (-4.0, -1.3, 0.0, 0.5, 2.1):
            want, _ = quad(_t_pdf, -np.inf, x, args=(v,))
            assert student_t_cdf(x, v) == pytest.approx(want, abs=1e-8)


def test_chi2_cdf_against_quadrature():
    for k in (2.0, 3.0, 5.0, 10.0):
        for x in (0.5, 1.0, 4.0, 11.07, 25.0):
            want, _ = quad(_chi2_pdf, 0.0, x, args=(k,))
            assert chi2_cdf(x, k) == pytest.approx(want, abs=1e-8)
    # df=1 has a closed form through the error function
    for x in (0.02, 1.0, 3.84, 12.0):
        assert chi2_cdf(x, 1.0) == pytest.approx(math.erf(math.sqrt(x / 2.0)), abs=1e-12)


def test_f_cdf_against_quadrature():
    for d1, d2 in ((2.0, 5.0), (3.0, 12.0), (4.0, 2.0), (10.0, 10.0)):
        for x in (0.2, 1.0, 2.5, 6.0):
            want, _ = quad(_f_pdf, 0.0, x, args=(d1, d2))
            assert f_cdf(x, d1, d2) == pytest.approx(want, abs=1e-8)
    # df1=1 reduces to a folded t distribution
    for v in (3.0, 8.0):
        for f in (0.5, 2.0, 5.0):
            want = 2.0 * student_t_cdf(math.sqrt(f), v) - 1.0
            assert f_cdf(f, 1.0, v) == pytest.approx(want, abs=1e-12)


def test_cdf_domains():
    assert f_cdf(0.0, 2.0, 2.0) == 0.0
    assert chi2_cdf(0.0, 3.0) == 0.0
    assert student_t_cdf(0.0, 5.0) == 0.5
    with pytest.raises(ParameterError):
        student_t_cdf(1.0, 0.0)
    with pytest.raises(ParameterError):
        f_cdf(1.0, 0.0, 2.0)
    with pytest.raises(ParameterError):
        chi2_cdf(1.0, -2.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("fn, args", [
    (betainc_reg, (1.0, 1.0, NAN)),
    (betainc_reg, (True, 1.0, 0.5)),
    (betainc_reg, (INF, 1.0, 0.5)),
    (betainc_reg, (1.0, -INF, 0.5)),
    (betainc_reg, ("1", 1.0, 0.5)),
    (gammainc_lower, (1.0, NAN)),
    (gammainc_lower, (NAN, 1.0)),
    (gammainc_lower, (1.0, INF)),
    (gammainc_lower, (1.0, False)),
    (gammainc_upper, (1.0, NAN)),
    (gammainc_upper, (INF, 1.0)),
    (gammainc_upper, ("2", 1.0)),
    (student_t_cdf, (NAN, 3.0)),
    (student_t_cdf, (INF, 3.0)),
    (student_t_cdf, (1.0, True)),
    (f_cdf, (NAN, 2.0, 3.0)),
    (f_cdf, (1.0, INF, 3.0)),
    (f_cdf, (1.0, 2.0, "3")),
    (chi2_cdf, (-INF, 2.0)),
    (chi2_cdf, (1.0, NAN)),
    (chi2_cdf, (True, 2.0)),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_special_functions_take_only_finite_real_numbers(fn, args):
    # NaN would run a continued fraction to its term cap; a bool or an
    # infinity would pass as a number.
    with pytest.raises(ParameterError):
        fn(*args)


def test_special_functions_take_numpy_numbers():
    assert betainc_reg(np.float32(2.0), np.int64(3), np.float64(0.4)) == betainc_reg(2.0, 3.0, 0.4)
    assert gammainc_upper(np.int32(2), np.float64(1.5)) == gammainc_upper(2.0, 1.5)


def test_a_fraction_or_series_that_does_not_converge_raises(monkeypatch):
    # Each of these needs more than 3 terms; a partial value is never returned.
    monkeypatch.setattr(stats, "_MAX_TERMS", 3)
    for fn, args in ((betainc_reg, (20.5, 30.5, 0.4)), (gammainc_upper, (2.5, 40.0)),
                     (gammainc_lower, (50.5, 40.0)), (student_t_cdf, (2.0, 9.5))):
        with pytest.raises(DegenerateDataError, match="did not converge"):
            fn(*args)
    # and the report turns it into a degenerate row
    rows = report._attempt("ttest", "scope", paired_t, [1.0, 2.0, 4.0], [0.5, 1.0, 1.2])
    assert [(r.ok, r.detail[:30]) for r in rows] == [(False, "continued fraction did not con")]


# ---------------------------------------------------------------------------
# incomplete beta and gamma against scipy.special
# ---------------------------------------------------------------------------

# Tail probabilities from 1 down to 1e-300; each case is placed at its
# quantile by scipy's inverse and compared at that same argument.
ORACLE_P = 10.0 ** -np.arange(0.0, 301.0, 7.5)
ORACLE_REL = 1e-11


def _worst_relative_error(fn, ref, cases):
    worst = 0.0
    for args in cases:
        want = float(ref(*args))
        if want >= 1e-300:
            worst = max(worst, abs(fn(*args) - want) / want)
    return worst


def _beta_cases(a, b):
    from scipy import special

    for p in ORACLE_P:
        x = float(special.betaincinv(a, b, p))
        if 0.0 < x < 1.0:
            yield a, b, x


@pytest.mark.parametrize("df", [1, 2, 3, 5, 9, 30, 101, 1000, 10_000])
def test_t_tails_match_scipy(df):
    # the two-sided tail P(|T| >= t) = I_{df/(df+t^2)}(df/2, 1/2), and its lower half
    from scipy import special

    cases = list(_beta_cases(df / 2.0, 0.5))
    assert len(cases) > 20
    assert _worst_relative_error(betainc_reg, special.betainc, cases) <= ORACLE_REL
    tails = [(-math.sqrt(df / x - df), float(df)) for _, _, x in cases]
    assert _worst_relative_error(student_t_cdf, lambda t, v: special.stdtr(v, t),
                                 tails) <= ORACLE_REL


@pytest.mark.parametrize("df1", range(1, 11))
def test_f_tails_match_scipy(df1):
    # the upper tail I_{df2/(df2+df1 f)}(df2/2, df1/2) and the cdf I(df1/2, df2/2)
    from scipy import special

    for df2 in (1, 2, 5, 17, 100, 1000, 10_000):
        for a, b in ((df2 / 2.0, df1 / 2.0), (df1 / 2.0, df2 / 2.0)):
            cases = list(_beta_cases(a, b))
            assert len(cases) >= 10  # x of the smallest tails underflows when a or b is small
            assert _worst_relative_error(betainc_reg, special.betainc, cases) <= ORACLE_REL


@pytest.mark.parametrize("dfs", [range(1, 26), range(26, 51), range(51, 76), range(76, 101)],
                         ids=lambda r: f"df{r.start}-{r.stop - 1}")
def test_chi_square_tails_match_scipy(dfs):
    from scipy import special

    for df in dfs:
        a = df / 2.0
        upper = [(a, float(special.gammainccinv(a, p))) for p in ORACLE_P]
        lower = [(a, float(special.gammaincinv(a, p))) for p in ORACLE_P[1:]]  # P = 1 at inf
        assert _worst_relative_error(gammainc_upper, special.gammaincc, upper) <= ORACLE_REL
        assert _worst_relative_error(gammainc_lower, special.gammainc, lower) <= ORACLE_REL


def test_chi_square_deep_tail_stays_positive_and_relative_accurate():
    # df 1: Q(1/2, x/2) = erfc(sqrt(x/2)) = 2.1e-306 at x = 1400, where 1 - P is 0
    want = math.erfc(math.sqrt(700.0))
    assert gammainc_upper(0.5, 700.0) > 0.0
    assert gammainc_upper(0.5, 700.0) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert 1.0 - chi2_cdf(1400.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank vs literal enumeration
# ---------------------------------------------------------------------------

def _rankdata_avg(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    v = values[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and v[j + 1] == v[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_average_ranks_match_the_loop_on_many_ties():
    rng = np.random.default_rng(5)
    for trial in range(2000):
        n = int(rng.integers(1, 30))
        values = rng.integers(0, max(1, n // 3), size=n) * rng.choice([1.0, 0.5, 0.1])
        values[rng.random(n) < 0.1] = np.inf
        np.testing.assert_array_equal(_average_ranks(values), _rankdata_avg(values))


def _wilcoxon_brute(x, y):
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    d = d[d != 0]
    n = d.size
    ranks = _rankdata_avg(np.abs(d))
    w_plus = ranks[d > 0].sum()
    w = min(w_plus, ranks.sum() - w_plus)
    signs = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    all_w_plus = signs @ ranks
    tail = np.sum(all_w_plus <= w + 1e-9) / signs.shape[0]
    return w, min(1.0, 2.0 * tail)


def test_wilcoxon_matches_enumeration():
    rng = np.random.default_rng(0)
    for trial in range(40):
        n = int(rng.integers(3, 13))
        x = rng.integers(-3, 4, size=n).astype(float)  # ties and zeros likely
        y = rng.integers(-3, 4, size=n).astype(float)
        if np.all(x == y):
            continue
        w_ref, p_ref = _wilcoxon_brute(x, y)
        res = wilcoxon_signed_rank(x, y, method="exact")
        assert res.name == "W"
        assert res.statistic == pytest.approx(w_ref, abs=1e-12)
        assert res.p_value == pytest.approx(p_ref, abs=1e-12)
        assert res.n == np.count_nonzero(x - y)


def test_wilcoxon_all_positive_differences():
    # W = 0 with n = 9 distinct differences: only the empty subset is as
    # extreme, so p = 2 / 2^9
    x = np.arange(1.0, 10.0)
    y = x - np.linspace(0.5, 4.5, 9)
    res = wilcoxon_signed_rank(x, y)
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(2.0 / 512.0, abs=1e-15)


def test_wilcoxon_symmetric_data_caps_at_one():
    x = np.array([1.0, -1.0, 2.0, -2.0])
    y = np.zeros(4)
    res = wilcoxon_signed_rank(x, y)
    assert res.p_value == 1.0


def test_wilcoxon_drops_zero_differences():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([1.0, 2.0, 2.5, 3.0, 4.0])
    res = wilcoxon_signed_rank(x, y)
    assert res.n == 3
    ref = wilcoxon_signed_rank(x[2:], y[2:])
    assert res.statistic == ref.statistic and res.p_value == ref.p_value


def test_wilcoxon_approx_tracks_exact():
    rng = np.random.default_rng(7)
    x = rng.normal(0.3, 1.0, size=30)
    y = rng.normal(0.0, 1.0, size=30)
    exact = wilcoxon_signed_rank(x, y, method="exact")
    approx = wilcoxon_signed_rank(x, y, method="approx")
    assert approx.statistic == exact.statistic
    assert approx.p_value == pytest.approx(exact.p_value, rel=0.15, abs=5e-3)


def test_wilcoxon_auto_switches_at_limit():
    rng = np.random.default_rng(8)
    x_small = rng.normal(size=WILCOXON_EXACT_LIMIT)
    y_small = rng.normal(size=WILCOXON_EXACT_LIMIT)
    auto = wilcoxon_signed_rank(x_small, y_small, method="auto")
    exact = wilcoxon_signed_rank(x_small, y_small, method="exact")
    assert auto.p_value == exact.p_value
    x_big = rng.normal(size=WILCOXON_EXACT_LIMIT + 1)
    y_big = rng.normal(size=WILCOXON_EXACT_LIMIT + 1)
    auto_big = wilcoxon_signed_rank(x_big, y_big, method="auto")
    approx_big = wilcoxon_signed_rank(x_big, y_big, method="approx")
    assert auto_big.p_value == approx_big.p_value


def test_wilcoxon_degenerate_and_validation():
    with pytest.raises(DegenerateDataError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(InputError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0])
    with pytest.raises(ParameterError):
        wilcoxon_signed_rank([1.0, 2.0], [0.0, 0.0], method="bayes")


# ---------------------------------------------------------------------------
# paired t-test
# ---------------------------------------------------------------------------

def test_paired_t_known_value():
    x = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    # d = 1..5: mean 3, sd sqrt(2.5), t = 3 / sqrt(0.5)
    res = paired_t(x, y)
    assert res.name == "t"
    assert res.statistic == pytest.approx(3.0 / math.sqrt(0.5), rel=1e-12)
    assert res.df == (4.0,)
    want, _ = quad(_t_pdf, abs(res.statistic), np.inf, args=(4.0,))
    assert res.p_value == pytest.approx(2.0 * want, abs=1e-10)


def test_paired_t_sign_symmetry():
    rng = np.random.default_rng(1)
    x = rng.normal(size=12)
    y = rng.normal(size=12)
    a = paired_t(x, y)
    b = paired_t(y, x)
    assert a.statistic == pytest.approx(-b.statistic, abs=1e-15)
    assert a.p_value == pytest.approx(b.p_value, abs=1e-15)


def test_paired_t_degenerate_and_validation():
    with pytest.raises(DegenerateDataError):
        paired_t([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])  # constant difference
    with pytest.raises(InputError):
        paired_t([1.0], [2.0])
    with pytest.raises(InputError):
        paired_t([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("test", ["wilcoxon", "paired_t", "anova", "chi2"])
def test_non_finite_samples_are_rejected(test, bad):
    # a NaN difference used to be counted in n but in neither W+ nor W-:
    # these inputs gave n = 5, p = 0.125
    x = np.array([bad, 1.0, 2.0, 3.0, -0.5])
    y = np.zeros(5)
    with pytest.raises(InputError, match="non-finite"):
        if test == "wilcoxon":
            wilcoxon_signed_rank(x, y)
        elif test == "paired_t":
            paired_t(y, x)
        elif test == "anova":
            one_way_anova([y, x])
        else:
            chi_square_independence([[1.0, 2.0], [3.0, bad]])


# ---------------------------------------------------------------------------
# one-way ANOVA
# ---------------------------------------------------------------------------

def test_anova_two_groups_equals_t_squared():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 1.0, size=9)
    b = rng.normal(0.8, 1.0, size=14)
    res = one_way_anova([a, b])
    # pooled-variance two-sample t statistic, computed from scratch
    na, nb = a.size, b.size
    sp2 = (((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()) / (na + nb - 2)
    t = (a.mean() - b.mean()) / math.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    assert res.statistic == pytest.approx(t * t, rel=1e-12)
    assert res.df == (1.0, float(na + nb - 2))
    want, _ = quad(_t_pdf, abs(t), np.inf, args=(float(na + nb - 2),))
    assert res.p_value == pytest.approx(2.0 * want, abs=1e-10)


def test_anova_hand_worked_example():
    groups = [np.array([1.0, 2.0, 3.0]), np.array([2.0, 3.0, 4.0]), np.array([5.0, 6.0, 7.0])]
    # grand = 3.666...; between = 3*((2-g)^2+(3-g)^2+(6-g)^2) = 26; within = 6
    res = one_way_anova(groups)
    assert res.statistic == pytest.approx((26.0 / 2.0) / (6.0 / 6.0), rel=1e-12)
    assert res.df == (2.0, 6.0)
    assert res.n == 9
    want, _ = quad(_f_pdf, res.statistic, np.inf, args=(2.0, 6.0))
    assert res.p_value == pytest.approx(want, abs=1e-10)


def test_anova_identical_groups():
    g = np.array([1.0, 2.0, 3.0])
    res = one_way_anova([g, g.copy()])
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(1.0, abs=1e-12)


def test_anova_degenerate_and_validation():
    with pytest.raises(DegenerateDataError):
        one_way_anova([np.ones(3), np.full(3, 2.0)])  # zero within-variance
    with pytest.raises(DegenerateDataError):
        one_way_anova([np.ones(3), np.ones(3)])
    with pytest.raises(InputError):
        one_way_anova([np.ones(3)])
    with pytest.raises(InputError):
        one_way_anova([np.ones(3), np.array([])])


# ---------------------------------------------------------------------------
# chi-square independence
# ---------------------------------------------------------------------------

def test_chi2_diagonal_table():
    res = chi_square_independence([[20, 0], [0, 20]])
    assert res.statistic == pytest.approx(40.0, abs=1e-12)
    assert res.df == (1.0,)
    assert res.n == 40
    # for df=1 the tail is erfc(sqrt(x/2))
    assert res.p_value == pytest.approx(math.erfc(math.sqrt(20.0)), rel=1e-8)


@pytest.mark.parametrize("table", [[[90, 10], [10, 90]], [[20, 0], [0, 20]], [[30, 5], [8, 25]]])
def test_chi2_p_value_is_the_upper_tail_to_full_precision(table):
    # 1 - cdf would read 0.0 for the first table (stat 128, p = 1.12e-29)
    res = chi_square_independence(table)
    want = math.erfc(math.sqrt(res.statistic / 2.0))
    assert res.p_value > 0.0
    assert res.p_value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_chi2_hand_worked_example():
    res = chi_square_independence([[10, 20], [20, 10]])
    # expected 15 everywhere: chi2 = 4 * 25/15
    assert res.statistic == pytest.approx(100.0 / 15.0, rel=1e-13)
    assert res.p_value == pytest.approx(math.erfc(math.sqrt(100.0 / 30.0)), rel=1e-10)


def test_chi2_independent_table_scores_zero():
    # rank-one table: rows proportional, so observed == expected
    res = chi_square_independence([[10, 20], [30, 60]])
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0, abs=1e-12)


def test_chi2_bigger_table_df():
    rng = np.random.default_rng(3)
    table = rng.integers(5, 30, size=(3, 4))
    res = chi_square_independence(table)
    assert res.df == (6.0,)
    want, _ = quad(_chi2_pdf, res.statistic, np.inf, args=(6.0,))
    assert res.p_value == pytest.approx(want, abs=1e-8)


def test_chi2_validation():
    with pytest.raises(InputError):
        chi_square_independence([[1, 2, 3]])
    with pytest.raises(InputError):
        chi_square_independence([[1, -2], [3, 4]])
    with pytest.raises(InputError):
        chi_square_independence([[0, 0], [1, 2]])


# ---------------------------------------------------------------------------
# mixed (split-plot) ANOVA
# ---------------------------------------------------------------------------

def test_mixed_anova_hand_worked_example():
    # 2 groups x 2 subjects x 2 levels, worked out on paper:
    # ss_group 24.5, ss_subj 4.5, ss_level 8, ss_inter 0.5, ss_error 0.5
    y = np.array([[1.0, 2.0], [2.0, 4.0], [4.0, 6.0], [5.0, 8.0]])
    res = mixed_anova(y, ["A", "A", "B", "B"])
    assert res.ss["group"] == pytest.approx(24.5, abs=1e-12)
    assert res.ss["subjects_within_groups"] == pytest.approx(4.5, abs=1e-12)
    assert res.ss["level"] == pytest.approx(8.0, abs=1e-12)
    assert res.ss["interaction"] == pytest.approx(0.5, abs=1e-12)
    assert res.ss["error"] == pytest.approx(0.5, abs=1e-12)
    assert res.ss["total"] == pytest.approx(38.0, abs=1e-12)
    assert res.df == {
        "group": 1.0,
        "subjects_within_groups": 2.0,
        "level": 1.0,
        "interaction": 1.0,
        "error": 2.0,
    }
    assert res.between.statistic == pytest.approx(24.5 / 2.25, rel=1e-12)
    assert res.within.statistic == pytest.approx(32.0, rel=1e-12)
    assert res.interaction.statistic == pytest.approx(2.0, rel=1e-12)
    for tr, (d1, d2) in ((res.between, (1.0, 2.0)), (res.within, (1.0, 2.0)), (res.interaction, (1.0, 2.0))):
        assert tr.df == (d1, d2)
        want, _ = quad(_f_pdf, tr.statistic, np.inf, args=(d1, d2))
        assert tr.p_value == pytest.approx(want, abs=1e-9)


def test_mixed_anova_decomposition_is_orthogonal():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n_groups = int(rng.integers(2, 4))
        sizes = rng.integers(2, 5, size=n_groups)
        n_lev = int(rng.integers(2, 5))
        groups = []
        for gi, size in enumerate(sizes):
            groups.extend([f"g{gi}"] * int(size))
        y = rng.normal(size=(len(groups), n_lev))
        res = mixed_anova(y, groups)
        parts = ["group", "subjects_within_groups", "level", "interaction", "error"]
        assert sum(res.ss[p] for p in parts) == pytest.approx(res.ss["total"], rel=1e-10)
        assert sum(res.df[p] for p in parts) == y.size - 1
        for tr in (res.between, res.within, res.interaction):
            assert 0.0 <= tr.p_value <= 1.0
            assert tr.statistic >= 0.0


def test_mixed_anova_group_permutation_invariant():
    # renaming groups or reordering subjects must not change any statistic
    rng = np.random.default_rng(5)
    y = rng.normal(size=(6, 3))
    groups = ["A", "A", "B", "B", "B", "A"]
    res1 = mixed_anova(y, groups)
    perm = np.array([3, 0, 5, 1, 4, 2])
    res2 = mixed_anova(y[perm], [groups[i] for i in perm])
    for key in res1.ss:
        assert res1.ss[key] == pytest.approx(res2.ss[key], rel=1e-12)
    assert res1.between.p_value == pytest.approx(res2.between.p_value, rel=1e-12)


def test_mixed_anova_zero_effect_reports_f_zero():
    # both groups share every cell mean, so the group effect vanishes
    y = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
    res = mixed_anova(y, ["A", "A", "B", "B"])
    assert res.ss["group"] == pytest.approx(0.0, abs=1e-12)
    assert res.between.statistic == 0.0
    assert res.between.p_value == 1.0


def test_mixed_anova_zero_error_with_effect_is_degenerate():
    # perfectly parallel profiles: level effect present, error exactly zero
    y = np.array([[1.0, 2.0], [2.0, 3.0], [4.0, 6.0], [5.0, 7.0]])
    with pytest.raises(DegenerateDataError):
        mixed_anova(y, ["A", "A", "B", "B"])


def test_mixed_anova_validation():
    y = np.ones((4, 2))
    with pytest.raises(InputError):
        mixed_anova(np.ones((4,)), ["A"] * 4)
    with pytest.raises(InputError):
        mixed_anova(np.ones((4, 1)), ["A", "A", "B", "B"])
    with pytest.raises(InputError):
        mixed_anova(y, ["A", "A", "B"])
    with pytest.raises(InputError):
        mixed_anova(y, ["A", "A", "A", "A"])
    with pytest.raises(InputError):
        mixed_anova(np.array([[1.0, 2.0], [3.0, np.nan]]), ["A", "B"])
    with pytest.raises(InputError):
        mixed_anova(np.ones((2, 2)), ["A", "B"])  # no subjects left for error


# ---------------------------------------------------------------------------
# multiple comparisons
# ---------------------------------------------------------------------------

def test_bonferroni():
    assert bonferroni(0.05, 1) == 0.05
    assert bonferroni(0.05, 6) == pytest.approx(0.05 / 6.0, abs=1e-18)
    with pytest.raises(ParameterError):
        bonferroni(0.0, 3)
    with pytest.raises(ParameterError):
        bonferroni(0.05, 0)
    with pytest.raises(ParameterError):
        bonferroni(0.05, 2.5)


@pytest.mark.parametrize("m", [True, False, np.True_, 2.0, "2"],
                         ids=["True", "False", "numpy-bool", "float", "string"])
def test_bonferroni_rejects_a_count_that_is_not_an_integer(m):
    with pytest.raises(ParameterError):
        bonferroni(0.05, m)


@pytest.mark.parametrize("alpha", [True, np.nan, np.inf, 10 ** 400, "0.05"],
                         ids=["bool", "nan", "inf", "huge-int", "string"])
def test_bonferroni_rejects_an_alpha_that_is_not_a_finite_real_number(alpha):
    with pytest.raises(ParameterError):
        bonferroni(alpha, 2)


def test_bonferroni_takes_numpy_numbers():
    assert bonferroni(np.float32(0.5), np.int64(4)) == 0.125


def test_result_container():
    res = StatTestResult("t", 1.0, 0.5, (3.0,), 4)
    assert (res.name, res.statistic, res.p_value, res.df, res.n) == ("t", 1.0, 0.5, (3.0,), 4)
    assert isinstance(mixed_anova(np.random.default_rng(0).normal(size=(5, 2)), ["A", "A", "B", "B", "B"]), MixedAnovaResult)
