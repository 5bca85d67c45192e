import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import letters_db, random_db
from txcleanse import (
    Band,
    ManualBand,
    cleanse,
    database_from_items,
    fit_distribution,
    fit_exponential,
    fit_lognormal,
    item_frequencies,
)
from txcleanse.cleanse import log_likelihood

E = math.e


class TestItemFrequencies:
    def test_direct_count(self):
        db = database_from_items([["a", "b"], ["b", "c"], ["b"]])
        hist = item_frequencies(db)
        by_name = {db.item_string(i): f for i, f in hist.per_item.items()}
        assert by_name == {"a": 1, "b": 3, "c": 1}
        assert hist.marginal == ((1, 2), (3, 1))

    def test_empty_database(self):
        hist = item_frequencies(database_from_items([]))
        assert hist.per_item == {}
        assert hist.marginal == ()

    def test_noise_example_counts(self):
        db = letters_db("abcxyz", "bcdpqr", "acdstuvw")
        hist = item_frequencies(db)
        by_name = {db.item_string(i): f for i, f in hist.per_item.items()}
        assert by_name["a"] == 2 and by_name["b"] == 2
        assert by_name["c"] == 3 and by_name["d"] == 2
        assert sum(1 for f in by_name.values() if f == 1) == 11
        assert hist.marginal == ((1, 11), (2, 3), (3, 1))


def _two_pass_log_moments(values):
    logs = [math.log(v) for v in values]
    mean = sum(logs) / len(logs)
    return mean, math.sqrt(sum((x - mean) ** 2 for x in logs) / len(logs))


class TestFitLognormal:
    def test_constant_frequency_has_zero_sigma(self):
        mu, sigma = fit_lognormal([(4, 10)])
        assert mu == pytest.approx(math.log(4))
        assert sigma == 0.0

    def test_single_item(self):
        mu, sigma = fit_lognormal([(7, 1)])
        assert mu == pytest.approx(math.log(7))
        assert sigma == 0.0

    def test_log_values_one_one_three(self):
        # frequencies e, e, e**3; checked against an independent two-pass reference
        mu, sigma = fit_lognormal([(E, 2), (E**3, 1)])
        assert mu == pytest.approx(5 / 3, abs=1e-12)
        assert sigma == pytest.approx(math.sqrt(8 / 9), abs=1e-12)
        ref_mu, ref_sigma = _two_pass_log_moments([E, E, E**3])
        assert mu == pytest.approx(ref_mu, abs=1e-12)
        assert sigma == pytest.approx(ref_sigma, abs=1e-12)

    def test_on_histogram_object(self):
        db = database_from_items([["a"], ["a"], ["b"]])
        mu, sigma = fit_lognormal(item_frequencies(db))
        ref_mu, ref_sigma = _two_pass_log_moments([2, 1])
        assert mu == pytest.approx(ref_mu)
        assert sigma == pytest.approx(ref_sigma)

    def test_empty_is_error(self):
        with pytest.raises(ValueError, match="no items"):
            fit_lognormal([])


class TestFitExponential:
    def test_hand_case(self):
        mu, sigma = fit_exponential([(1, 2), (2, 1), (4, 1), (8, 1)])
        assert mu == pytest.approx(3.2)
        assert sigma == pytest.approx(3.2)

    def test_constant(self):
        assert fit_exponential([(5, 3)]) == (5.0, 5.0)

    def test_single_item_frequency_one(self):
        assert fit_exponential([(1, 1)]) == (1.0, 1.0)

    def test_empty_is_error(self):
        with pytest.raises(ValueError, match="no items"):
            fit_exponential([])


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=10**6),
                  st.integers(min_value=1, max_value=50)),
        min_size=1,
        max_size=20,
        unique_by=lambda pair: pair[0],
    )
)
def test_fits_match_expanded_multiset(pairs):
    expanded = [f for f, k in pairs for _ in range(k)]
    mu, sigma = fit_lognormal(pairs)
    ref_mu, ref_sigma = _two_pass_log_moments(expanded)
    assert mu == pytest.approx(ref_mu, rel=1e-12, abs=1e-12)
    assert sigma == pytest.approx(ref_sigma, rel=1e-12, abs=1e-12)
    mean, _ = fit_exponential(pairs)
    assert mean == pytest.approx(sum(expanded) / len(expanded), rel=1e-12)


class TestComputeBounds:
    """Raw-space endpoints of ``Band.from_fit``."""

    def test_zero_variance_lognormal_collapses(self):
        band = Band.from_fit("lognormal", math.log(4), 0.0, 5.0)
        assert band.lower == pytest.approx(4.0)
        assert band.upper == pytest.approx(4.0)
        assert band.lo == band.hi == math.log(4)

    def test_exponential_clamps_negative_lower(self):
        band = Band.from_fit("exponential", 3.2, 3.2, 1.0)
        assert (band.lower, band.upper) == (0.0, 6.4)
        assert (band.lo, band.hi) == (0.0, 6.4)

    def test_lognormal_band_is_exp_of_log_bounds(self):
        mu, sigma = 5 / 3, math.sqrt(8 / 9)
        band = Band.from_fit("lognormal", mu, sigma, 1.0)
        assert band.log_space
        assert (band.lo, band.hi) == (mu - sigma, mu + sigma)
        assert band.lower == pytest.approx(math.exp(mu - sigma))
        assert band.upper == pytest.approx(math.exp(mu + sigma))

    def test_raw_band_flag(self):
        band = Band.from_fit("lognormal", 10.0, 1.0, 2.0, raw_band=True)
        assert not band.log_space
        assert (band.lower, band.upper) == (8.0, 12.0)
        assert Band.from_fit("lognormal", 1.0, 1.0, 2.0, raw_band=True).lower == 0.0

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            Band.from_fit("lognormal", 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            Band.from_fit("lognormal", 1.0, -0.5, 1.0)
        with pytest.raises(ValueError):
            Band.from_fit("weibull", 1.0, 1.0, 1.0)


class TestDistributionFitClassify:
    """``Band.classify`` on fitted and manual bands."""

    def test_log_space_banding(self):
        fit = fit_distribution([(E, 2), (E**3, 1)], "lognormal", 1.0)
        assert fit.retains(E)
        assert fit.classify(E**3) == 1
        assert fit.classify(1) == -1  # ln 1 = 0 < 5/3 - 0.9428

    def test_exponential_low_cut_vacuous_at_s_ge_1(self):
        fit = fit_distribution([(1, 2), (2, 1), (4, 1), (8, 1)], "exponential", 1.0)
        assert fit.lower == 0.0
        assert fit.retains(1) and fit.retains(4)
        assert fit.classify(8) == 1

    def test_boundary_frequency_retained(self):
        band = ManualBand(2.0, 4.0)
        assert band.classify(2) == 0
        assert band.classify(4) == 0
        assert band.classify(1) == -1
        assert band.classify(5) == 1


class TestCleanse:
    def test_noise_example_one(self):
        db = letters_db("abcxyz", "bcdpqr", "acdstuvw")
        cleansed, report = cleanse(db, ManualBand(2, math.inf))
        assert [set(cleansed.item_strings(t)) for t in cleansed] == [
            {"a", "b", "c"}, {"b", "c", "d"}, {"a", "c", "d"},
        ]
        assert report.items_removed_low == 11
        assert report.items_removed_high == 0
        assert report.items_retained == 4
        assert report.transactions_removed_empty == 0
        assert report.transactions_retained == 3

    def test_noise_example_two(self):
        db = letters_db("abcdxy", "cdxyzw", "qrxyzw", "opqrzw")
        cleansed, report = cleanse(db, ManualBand(1, 2))
        assert [set(cleansed.item_strings(t)) for t in cleansed] == [
            {"a", "b", "c", "d"}, {"c", "d"}, {"q", "r"}, {"o", "p", "q", "r"},
        ]
        assert report.items_removed_high == 4  # x, y, z, w
        assert report.items_removed_low == 0

    def test_emptied_transaction_pruned(self):
        db = database_from_items([["x"], ["a", "b"], ["a", "b"], ["b", "x"]])
        # freq: x=2, a=2, b=3 -> keep only frequency-3 items; {x} empties out
        cleansed, report = cleanse(db, ManualBand(3, 3))
        assert report.transactions_removed_empty == 1
        assert report.transactions_retained == 3
        assert cleansed.n == 3
        assert all(len(t) >= 1 for t in cleansed)

    def test_empty_database(self):
        cleansed, report = cleanse(database_from_items([]), ManualBand(1, 2))
        assert cleansed.n == 0
        assert report.items_retained == 0
        assert report.transactions_retained == 0

    def test_tids_reassigned_and_order_kept(self):
        db = database_from_items([["z"], ["a", "b"], ["z", "a"]])
        # freq: z=2, a=2, b=1 -> drop b
        cleansed, _ = cleanse(db, ManualBand(2, math.inf))
        assert [t.tid for t in cleansed] == [0, 1, 2]
        assert [set(cleansed.item_strings(t)) for t in cleansed] == [
            {"z"}, {"a"}, {"z", "a"},
        ]

    def test_id_map_points_to_same_strings(self):
        db = letters_db("abcxyz", "bcdpqr", "acdstuvw")
        cleansed, report = cleanse(db, ManualBand(2, math.inf))
        assert set(report.id_map) == {
            i for i, f in item_frequencies(db).per_item.items() if f >= 2
        }
        for old, new in report.id_map.items():
            assert cleansed.item_string(new) == db.item_string(old)

    def test_occurrence_conservation(self):
        db = letters_db("abcxyz", "bcdpqr", "acdstuvw")
        hist = item_frequencies(db)
        cleansed, report = cleanse(db, ManualBand(2, math.inf))
        removed = [f for f in hist.per_item.values() if f < 2]
        assert cleansed.total_occurrences() == db.total_occurrences() - sum(removed)

    def test_second_cleanse_with_same_band_is_noop(self):
        db = letters_db("abcxyz", "bcdpqr", "acdstuvw")
        band = ManualBand(2, math.inf)
        once, _ = cleanse(db, band)
        twice, report = cleanse(once, band)
        assert twice == once
        assert report.items_removed_low == 0
        assert report.items_removed_high == 0

    def test_labels_survive(self):
        from txcleanse import parse_keyword_registration

        db = parse_keyword_registration(["a.com\tx\ty", "b.com\tx"])
        cleansed, _ = cleanse(db, ManualBand(2, math.inf))
        assert [t.label for t in cleansed] == ["a.com", "b.com"]


def test_increasing_s_never_removes_more():
    rng = random.Random(7)
    for _ in range(30):
        db = random_db(rng)
        hist = item_frequencies(db)
        for kind in ("lognormal", "exponential"):
            removed_by_s = []
            for s in (0.3, 0.8, 1.5, 3.0, 5.0, 50.0):
                fit = fit_distribution(hist, kind, s)
                removed = {i for i, f in hist.per_item.items() if not fit.retains(f)}
                removed_by_s.append(removed)
            for tighter, looser in zip(removed_by_s, removed_by_s[1:]):
                assert looser <= tighter
            assert removed_by_s[-1] == set()


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(["lognormal", "exponential"]),
       st.floats(min_value=0.2, max_value=6.0, allow_nan=False))
def test_band_membership_matches_moments(seed, kind, s):
    db = random_db(random.Random(seed), max_tx=20, max_vocab=12)
    hist = item_frequencies(db)
    if hist.item_count == 0:
        return
    fit = fit_distribution(hist, kind, s)
    lo = fit.mu_hat - s * fit.sigma_hat
    hi = fit.mu_hat + s * fit.sigma_hat
    for f in hist.per_item.values():
        value = math.log(f) if fit.log_space else float(f)
        low = lo if fit.log_space else max(0.0, lo)
        assert fit.retains(f) == (low <= value <= hi)


class TestLogLikelihood:
    def test_degenerate_lognormal_is_none(self):
        assert log_likelihood([(3, 5)], "lognormal") is None

    def test_exponential_hand_value(self):
        # frequencies {1, 1}: mean 1, rate 1 -> loglik = 2 * (ln 1 - 1) = -2
        assert log_likelihood([(1, 2)], "exponential") == pytest.approx(-2.0)

    def test_lognormal_matches_direct_sum(self):
        pairs = [(1, 3), (4, 2), (9, 1)]
        mu, sigma = fit_lognormal(pairs)
        direct = sum(
            k * (-math.log(f) - math.log(sigma * math.sqrt(2 * math.pi))
                 - (math.log(f) - mu) ** 2 / (2 * sigma**2))
            for f, k in pairs
        )
        assert log_likelihood(pairs, "lognormal") == pytest.approx(direct)


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
def test_non_positive_or_non_finite_s_rejected(s):
    with pytest.raises(ValueError):
        Band.from_fit("exponential", 1.0, 1.0, s)
    with pytest.raises(ValueError):
        fit_distribution([(1, 2), (3, 1)], "lognormal", s)


@pytest.mark.parametrize("lower, upper", [
    (math.nan, 3.0), (1.0, math.nan), (50.0, 3.0), (math.inf, math.inf), (-math.inf, 3.0),
])
def test_manual_band_rejects_bad_endpoints(lower, upper):
    with pytest.raises(ValueError):
        ManualBand(lower, upper)


def test_manual_band_allows_open_upper_end():
    assert ManualBand(2, math.inf).retains(10**9)
    assert ManualBand(3, 3).retains(3)


def test_manual_band_reports_endpoints_as_passed():
    band = ManualBand(2, math.inf)
    assert (band.lower, band.upper) == (2, math.inf)
    assert not band.log_space
    assert band.to_json_dict() == {"kind": "manual", "lower": 2, "upper": math.inf}


@pytest.mark.parametrize("kind, raw_band", [
    ("lognormal", False), ("lognormal", True), ("exponential", False),
])
def test_fitted_band_json_keys_and_endpoints(kind, raw_band):
    band = fit_distribution([(1, 3), (4, 2), (9, 1)], kind, 0.5, raw_band=raw_band)
    payload = band.to_json_dict()
    assert list(payload) == [
        "kind", "mu_hat", "sigma_hat", "s", "lower", "upper", "log_space",
    ]
    assert payload["log_space"] == (kind == "lognormal" and not raw_band)
    if band.log_space:
        assert (payload["lower"], payload["upper"]) == (math.exp(band.lo), math.exp(band.hi))
    else:
        assert (payload["lower"], payload["upper"]) == (band.lo, band.hi)
