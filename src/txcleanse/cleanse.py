"""Item-frequency statistics, distribution fitting, and band cleansing.

The cleansing pipeline is: count item frequencies, fit a lognormal or
exponential distribution to the (frequency, item count) marginal, derive the
retention band mu_hat +/- s*sigma_hat, delete every out-of-band item from
every transaction, then prune transactions left empty.

Fitting conventions:

* lognormal: mu_hat and sigma_hat are the population mean and standard
  deviation of ln(frequency) over items, each frequency value weighted by
  the number of items carrying it;
* exponential: the rate estimate is 1/mean(frequency), so mu_hat and
  sigma_hat are both the plain mean frequency.

A ``Band`` is the one retention-band value. It is built from fitted moments
(``fit_distribution``, ``Band.from_fit``) or from explicit raw-space
endpoints (``ManualBand``), and stores the endpoints of the space it
compares in. The lognormal band compares ln(frequency) against
mu_hat +/- s*sigma_hat (the fitted moments are moments of ln x, so comparing
raw frequencies against them would be dimensionally inconsistent); a
raw-space variant is available behind ``raw_band=True`` for sensitivity
experiments. The exponential band compares raw frequencies, with the lower
endpoint clamped at 0, which makes the low cut vacuous for s >= 1. Items
exactly on a band endpoint are retained.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence, Union

from .core import ItemId, TransactionDatabase, check_number, remap

LOGNORMAL = "lognormal"
EXPONENTIAL = "exponential"
KINDS = (LOGNORMAL, EXPONENTIAL)
MANUAL = "manual"

# (frequency value, number of items with that frequency)
MarginalPair = tuple[float, int]


@dataclass(frozen=True)
class FrequencyHistogram:
    """Per-item transaction-containment counts plus their marginal.

    ``marginal`` is sorted by frequency ascending with no duplicate
    frequency values; its counts sum to the number of distinct items.
    """

    per_item: dict[ItemId, int]
    marginal: tuple[MarginalPair, ...]

    @property
    def item_count(self) -> int:
        return len(self.per_item)


def item_frequencies(db: TransactionDatabase) -> FrequencyHistogram:
    """Count, for every item, the number of transactions containing it."""
    counts = Counter(chain.from_iterable(db.rows))
    marginal = tuple(sorted(Counter(counts.values()).items()))
    return FrequencyHistogram(per_item=dict(counts), marginal=marginal)


Marginal = Union[FrequencyHistogram, Sequence[MarginalPair]]


def _pairs(hist: Marginal) -> tuple[Sequence[MarginalPair], int]:
    """The (frequency, count) pairs of ``hist`` and the items they count;
    raises ValueError when they count none."""
    pairs = hist.marginal if isinstance(hist, FrequencyHistogram) else list(hist)
    n = sum(k for _, k in pairs)
    if n == 0:
        raise ValueError("no items to fit")
    return pairs, n


def _ordered_sum(terms: Iterable[float]) -> float:
    """Left-to-right sum, as the built-in ``sum`` was before Python 3.12
    (3.12 compensates float sums), so fitted values are bit-identical across
    Python versions."""
    total = 0
    for term in terms:
        total += term
    return total


def fit_lognormal(hist: Marginal) -> tuple[float, float]:
    """Population mean and standard deviation of ln(frequency) over items.

    Accepts a histogram or raw (frequency, count) pairs; a frequency carried
    by k items contributes k terms to both moments. One frequency f alone
    fits exactly (ln f, 0.0), which the rounded sums can miss.
    """
    pairs, n = _pairs(hist)
    logs = {math.log(f) for f, k in pairs if k}
    if len(logs) == 1:
        return logs.pop(), 0.0
    mu = _ordered_sum(k * math.log(f) for f, k in pairs) / n
    var = _ordered_sum(k * (math.log(f) - mu) ** 2 for f, k in pairs) / n
    return mu, math.sqrt(var)


def fit_exponential(hist: Marginal) -> tuple[float, float]:
    """Exponential fit: rate = 1/mean(frequency), so mu_hat = sigma_hat = mean."""
    pairs, n = _pairs(hist)
    mean = _ordered_sum(k * f for f, k in pairs) / n
    return mean, mean


# The range checks of a fitted band's parameters; the CLI validates with them.
def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown distribution kind {kind!r}")


def check_s(s: float) -> None:
    check_number("band multiplier s", s)
    if not (s > 0 and math.isfinite(s)):
        raise ValueError("band multiplier s must be finite and > 0")


def _exp(x: float) -> float:
    """``math.exp``, but inf where the result would overflow a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Band:
    """A retention band: an item is kept iff its frequency lies inside it.

    ``lo``/``hi`` are the endpoints in the space items are compared in,
    ln(frequency) when ``log_space`` is set and the raw frequency otherwise;
    they are worked out once, when the band is built. ``lower``/``upper``
    report them in raw space. ``kind`` names the fitted distribution, whose
    moments and multiplier the band keeps, or is ``"manual"`` for an
    explicit band, which has none. Build bands with ``Band.from_fit``,
    ``fit_distribution`` or ``ManualBand``.
    """

    kind: str
    lo: float
    hi: float
    log_space: bool = False
    mu_hat: float | None = None
    sigma_hat: float | None = None
    s: float | None = None

    @classmethod
    def from_fit(
        cls,
        kind: str,
        mu_hat: float,
        sigma_hat: float,
        s: float,
        raw_band: bool = False,
    ) -> Band:
        """The band mu_hat -/+ s*sigma_hat of fitted moments.

        A lognormal band lives in log space unless ``raw_band`` is set. A
        raw-space band (exponential, or lognormal with ``raw_band``) clamps a
        negative lower endpoint to 0.
        """
        check_kind(kind)
        check_s(s)
        if not (math.isfinite(mu_hat) and math.isfinite(sigma_hat)):
            raise ValueError(f"mu_hat and sigma_hat must be finite, got {mu_hat}, {sigma_hat}")
        if sigma_hat < 0:
            raise ValueError("sigma_hat must be >= 0")
        log_space = kind == LOGNORMAL and not raw_band
        lo = mu_hat - s * sigma_hat
        hi = mu_hat + s * sigma_hat
        if not log_space:
            lo = max(0.0, lo)
        return cls(kind, lo, hi, log_space, mu_hat, sigma_hat, s)

    @classmethod
    def manual(cls, lower: float, upper: float) -> Band:
        """Explicit raw-space band, for overrides and golden cases.

        ``lower`` must be finite and at most ``upper``; ``upper`` may be inf.
        """
        for name, value in (("lower", lower), ("upper", upper)):
            if value is None:
                raise ValueError(f"manual band is missing its {name} endpoint")
            check_number(f"manual band {name} endpoint", value)
        if not (math.isfinite(lower) and lower <= upper):
            raise ValueError(
                f"manual band needs a finite lower <= upper, got [{lower}, {upper}]"
            )
        return cls(MANUAL, lower, upper)

    @property
    def lower(self) -> float:
        return _exp(self.lo) if self.log_space else self.lo

    @property
    def upper(self) -> float:
        return _exp(self.hi) if self.log_space else self.hi

    def classify(self, frequency: float) -> int:
        """-1 below the band, 0 inside or on an endpoint, +1 above."""
        value = math.log(frequency) if self.log_space else frequency
        if value < self.lo:
            return -1
        if value > self.hi:
            return 1
        return 0

    def retains(self, frequency: float) -> bool:
        return self.classify(frequency) == 0

    def to_json_dict(self) -> dict:
        if self.kind == MANUAL:
            return {"kind": MANUAL, "lower": self.lower, "upper": self.upper}
        return {
            "kind": self.kind,
            "mu_hat": self.mu_hat,
            "sigma_hat": self.sigma_hat,
            "s": self.s,
            "lower": self.lower,
            "upper": self.upper,
            "log_space": self.log_space,
        }


ManualBand = Band.manual


def fit_distribution(
    hist: Marginal,
    kind: str = LOGNORMAL,
    s: float = 5.0,
    raw_band: bool = False,
) -> Band:
    """Fit the requested distribution and return its retention band."""
    check_kind(kind)
    mu, sigma = (fit_lognormal if kind == LOGNORMAL else fit_exponential)(hist)
    return Band.from_fit(kind, mu, sigma, s, raw_band=raw_band)


def log_likelihood(hist: Marginal, kind: str) -> float | None:
    """Advisory goodness-of-fit: log-likelihood of the fitted distribution.

    Returns None when the likelihood is degenerate (zero-variance lognormal).
    Distribution choice stays with the caller; this is reporting only.
    """
    check_kind(kind)
    pairs, _ = _pairs(hist)
    if kind == LOGNORMAL:
        mu, sigma = fit_lognormal(pairs)
        if sigma == 0.0:
            return None
        const = math.log(sigma * math.sqrt(2.0 * math.pi))
        return _ordered_sum(
            k * (-math.log(f) - const - (math.log(f) - mu) ** 2 / (2.0 * sigma**2))
            for f, k in pairs
        )
    mean, _ = fit_exponential(pairs)
    rate = 1.0 / mean
    return _ordered_sum(k * (math.log(rate) - rate * f) for f, k in pairs)


@dataclass(frozen=True)
class CleansingReport:
    """Outcome counts of one cleansing pass.

    Identities: items_removed_low + items_removed_high + items_retained
    equals the input item count, and transactions_removed_empty +
    transactions_retained equals the input transaction count. ``id_map``
    maps each retained item's old id to its new id, which is its rank among
    the retained old ids; the map is order-preserving and onto
    0..items_retained-1.
    """

    items_removed_low: int
    items_removed_high: int
    items_retained: int
    transactions_removed_empty: int
    transactions_retained: int
    fit: Band
    id_map: dict[ItemId, ItemId] = field(repr=False, default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "items_removed_low": self.items_removed_low,
            "items_removed_high": self.items_removed_high,
            "items_retained": self.items_retained,
            "transactions_removed_empty": self.transactions_removed_empty,
            "transactions_retained": self.transactions_retained,
            "fit": self.fit.to_json_dict(),
        }


def plan_cleanse(db: TransactionDatabase, band: Band, hist: FrequencyHistogram | None = None,
                 ) -> tuple[list[str | None], CleansingReport]:
    """The band step of ``cleanse``, which builds no database: an m-entry
    table holding each retained item's string at its id and None at each
    cut id, and the report ``cleanse`` returns, transaction counts included.

    ``hist`` must be ``item_frequencies(db)``; a caller that has already
    counted it for the fit passes it here, and it is counted when omitted.
    A ``hist`` that does not count the items ``db``'s rows hold raises
    ``ValueError``. An item string that no row holds has frequency 0, which
    ``hist`` leaves out: it is cut, and counted in ``items_removed_low``.
    """
    if hist is None:
        hist = item_frequencies(db)
    elif hist.item_count != db.m and (
            hist.item_count > db.m or set(chain.from_iterable(db.rows)) != hist.per_item.keys()):
        raise ValueError(f"hist counts {hist.item_count} items, not the ones db's rows hold: "
                         "it must be item_frequencies(db)")
    verdicts = list(map(band.classify, hist.per_item.values()))
    retained = sorted(item for item, v in zip(hist.per_item, verdicts) if v == 0)
    counts = Counter(verdicts)
    id_map = {old: new for new, old in enumerate(retained)}
    kept = [s if i in id_map else None for i, s in enumerate(db.strings)]
    # A transaction survives iff it holds a retained item.
    emptied = sum(map(id_map.keys().isdisjoint, db.rows))
    unused = db.m - hist.item_count
    report = CleansingReport(counts[-1] + unused, counts[1], len(retained), emptied,
                             db.n - emptied, fit=band, id_map=id_map)
    return kept, report


def cleanse(db: TransactionDatabase, band: Band, hist: FrequencyHistogram | None = None,
            ) -> tuple[TransactionDatabase, CleansingReport]:
    """Remove out-of-band items everywhere, then prune emptied transactions:
    ``plan_cleanse``'s band step, then the remap. ``hist`` is as there.

    The result is an order-preserving id remap of ``db``: each retained item
    gets as new id its rank among the retained old ids (``report.id_map``),
    and its string is reused unchanged. Surviving transactions keep their
    relative order and labels under fresh dense tids. Every transaction
    holding a retained item survives, so when ``db``'s ids are in first-seen
    order (as every parser assigns them) the cleansed ids are too, and the
    result equals re-ingesting the kept items. Removing an item never
    changes another item's frequency, so a second cleanse with the same band
    is a no-op.
    """
    _, report = plan_cleanse(db, band, hist)
    # The copy is the memory peak of a caller that keeps ``db``; the
    # ``cleanse`` command writes ``plan_cleanse``'s table and never builds it.
    return remap(db, report.id_map), report


__all__ = [
    "LOGNORMAL",
    "EXPONENTIAL",
    "KINDS",
    "FrequencyHistogram",
    "item_frequencies",
    "fit_lognormal",
    "fit_exponential",
    "MANUAL",
    "Band",
    "ManualBand",
    "fit_distribution",
    "log_likelihood",
    "CleansingReport",
    "plan_cleanse",
    "cleanse",
]
