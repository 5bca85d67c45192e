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
from typing import Iterator, Sequence, Union

from .core import ItemId, TransactionDatabase, remap

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

    @property
    def total_occurrences(self) -> int:
        return sum(f * k for f, k in self.marginal)


def item_frequencies(db: TransactionDatabase) -> FrequencyHistogram:
    """Count, for every item, the number of transactions containing it."""
    counts: Counter[ItemId] = Counter()
    for t in db.transactions:
        counts.update(t.items)
    marginal = tuple(sorted(Counter(counts.values()).items()))
    return FrequencyHistogram(per_item=dict(counts), marginal=marginal)


Marginal = Union[FrequencyHistogram, Sequence[MarginalPair]]


def _pairs(hist: Marginal) -> Sequence[MarginalPair]:
    if isinstance(hist, FrequencyHistogram):
        return hist.marginal
    return list(hist)


def fit_lognormal(hist: Marginal) -> tuple[float, float]:
    """Population mean and standard deviation of ln(frequency) over items.

    Accepts a histogram or raw (frequency, count) pairs; a frequency carried
    by k items contributes k terms to both moments.
    """
    pairs = _pairs(hist)
    n = sum(k for _, k in pairs)
    if n == 0:
        raise ValueError("no items to fit")
    mu = sum(k * math.log(f) for f, k in pairs) / n
    var = sum(k * (math.log(f) - mu) ** 2 for f, k in pairs) / n
    return mu, math.sqrt(var)


def fit_exponential(hist: Marginal) -> tuple[float, float]:
    """Exponential fit: rate = 1/mean(frequency), so mu_hat = sigma_hat = mean."""
    pairs = _pairs(hist)
    n = sum(k for _, k in pairs)
    if n == 0:
        raise ValueError("no items to fit")
    mean = sum(k * f for f, k in pairs) / n
    return mean, mean


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
        if kind not in KINDS:
            raise ValueError(f"unknown distribution kind {kind!r}")
        if not (s > 0 and math.isfinite(s)):
            raise ValueError("band multiplier s must be finite and > 0")
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
        if not (math.isfinite(lower) and lower <= upper):
            raise ValueError(
                f"manual band needs a finite lower <= upper, got [{lower}, {upper}]"
            )
        return cls(MANUAL, lower, upper)

    @property
    def lower(self) -> float:
        return math.exp(self.lo) if self.log_space else self.lo

    @property
    def upper(self) -> float:
        return math.exp(self.hi) if self.log_space else self.hi

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
    if kind == LOGNORMAL:
        mu, sigma = fit_lognormal(hist)
    elif kind == EXPONENTIAL:
        mu, sigma = fit_exponential(hist)
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    return Band.from_fit(kind, mu, sigma, s, raw_band=raw_band)


def log_likelihood(hist: Marginal, kind: str) -> float | None:
    """Advisory goodness-of-fit: log-likelihood of the fitted distribution.

    Returns None when the likelihood is degenerate (zero-variance lognormal).
    Distribution choice stays with the caller; this is reporting only.
    """
    pairs = _pairs(hist)
    if kind == LOGNORMAL:
        mu, sigma = fit_lognormal(pairs)
        if sigma == 0.0:
            return None
        const = math.log(sigma * math.sqrt(2.0 * math.pi))
        return sum(
            k * (-math.log(f) - const - (math.log(f) - mu) ** 2 / (2.0 * sigma**2))
            for f, k in pairs
        )
    if kind == EXPONENTIAL:
        mean, _ = fit_exponential(pairs)
        rate = 1.0 / mean
        return sum(k * (math.log(rate) - rate * f) for f, k in pairs)
    raise ValueError(f"unknown distribution kind {kind!r}")


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


def cleanse(
    db: TransactionDatabase,
    band: Band,
) -> tuple[TransactionDatabase, CleansingReport]:
    """Remove out-of-band items everywhere, then prune emptied transactions.

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
    freq = item_frequencies(db).per_item
    verdict = {item: band.classify(f) for item, f in freq.items()}
    retained = sorted(item for item, v in verdict.items() if v == 0)
    id_map = {old: new for new, old in enumerate(retained)}
    cleansed = remap(db, id_map, db.transactions)
    report = CleansingReport(
        items_removed_low=sum(1 for v in verdict.values() if v < 0),
        items_removed_high=sum(1 for v in verdict.values() if v > 0),
        items_retained=len(retained),
        transactions_removed_empty=db.n - cleansed.n,
        transactions_retained=cleansed.n,
        fit=band,
        id_map=id_map,
    )
    return cleansed, report


def histogram_csv_lines(hist: FrequencyHistogram) -> Iterator[str]:
    """CSV export of the marginal: header then ``frequency,count`` ascending."""
    yield "frequency,count"
    for f, k in hist.marginal:
        yield f"{f},{k}"


def write_histogram_csv(hist: FrequencyHistogram, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in histogram_csv_lines(hist):
            fh.write(line + "\n")


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
    "cleanse",
    "histogram_csv_lines",
    "write_histogram_csv",
]
