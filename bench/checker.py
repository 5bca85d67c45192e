"""Independent output checker for the txcleanse benchmark.

Standard library only; it never imports ``txcleanse``. Every rule here is
re-implemented from the project's documentation (README "Input formats",
"How cleansing works", "Clustering"), so a fault in the program cannot hide
behind the same fault in its judge. ``self_check`` runs the README's worked
examples through the checker before it is trusted with program output.
"""

from __future__ import annotations

import csv
import math
import random
import re
from fractions import Fraction

RTOL = 1e-9
_WS = re.compile(r"\s+")


class CheckFailed(AssertionError):
    """A program output disagrees with the checker."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# ingest rules


def normalize_item(raw: str) -> str:
    """Trimmed, lowercased, inner whitespace collapsed."""
    return _WS.sub(" ", raw.strip()).lower()


def _dedup(raw_items) -> list[str]:
    return [n for n in dict.fromkeys(normalize_item(r) for r in raw_items) if n]


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield line.rstrip("\r\n")


def parse_generic(path) -> list[list[str]]:
    """One transaction per tab-separated line, items in first-seen order
    within the line. Blank and ``#`` lines are skipped, as are lines with no
    usable item."""
    transactions = []
    for text in _lines(path):
        if not text or text.startswith("#"):
            continue
        items = _dedup(text.split("\t"))
        if items:
            transactions.append(items)
    return transactions


def parse_aol(path) -> tuple[list[tuple[str, list[str]]], int, int]:
    """Sessions of an AOL query log: one (AnonID, distinct queries) per user
    in order of first appearance. Rows with the wrong field count or an
    empty AnonID/Query are skipped; a half-present or non-integer click pair
    keeps the row. Returns (sessions, skipped rows, warnings)."""
    lines = _lines(path)
    header = next(lines).split("\t")
    columns = {name.strip().lower(): i for i, name in enumerate(header)}
    id_col, query_col = columns["anonid"], columns["query"]
    rank_col, url_col = columns.get("itemrank"), columns.get("clickurl")
    by_user: dict[str, list[str]] = {}
    skipped = warnings = 0
    for text in lines:
        if not text.strip():
            continue
        fields = text.split("\t")
        if len(fields) != len(header) or not fields[id_col].strip() or not fields[query_col].strip():
            skipped += 1
            warnings += 1
            continue
        rank = fields[rank_col].strip() if rank_col is not None else ""
        url = fields[url_col].strip() if url_col is not None else ""
        if bool(rank) != bool(url) or (rank and not _is_int(rank)):
            warnings += 1
        by_user.setdefault(fields[id_col].strip(), []).append(fields[query_col].strip())
    sessions = [(user, items) for user, raw in by_user.items() if (items := _dedup(raw))]
    return sessions, skipped, warnings


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def first_seen_order(transactions: list[list[str]]) -> dict[str, int]:
    """Dense item ids in first-seen order over the whole database."""
    order: dict[str, int] = {}
    for items in transactions:
        for item in items:
            order.setdefault(item, len(order))
    return order


# ---------------------------------------------------------------------------
# cleansing rules


def frequencies(transactions: list[list[str]]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for items in transactions:
        for item in items:
            counts[item] = counts.get(item, 0) + 1
    return counts


def fit(freqs: dict[str, int], kind: str, s: float):
    """(mu_hat, sigma_hat, lo, hi, log_space): population moments of ln x
    for lognormal, mean for both moments for exponential; the raw-space band
    clamps its lower endpoint at 0."""
    values = sorted(freqs.values())
    n = len(values)
    if kind == "lognormal":
        mu = sum(math.log(f) for f in values) / n
        sigma = math.sqrt(sum((math.log(f) - mu) ** 2 for f in values) / n)
    elif kind == "exponential":
        mu = sigma = sum(values) / n
    else:
        raise ValueError(f"unknown distribution {kind!r}")
    log_space = kind == "lognormal"
    lo, hi = mu - s * sigma, mu + s * sigma
    if not log_space:
        lo = max(0.0, lo)
    return mu, sigma, lo, hi, log_space


def classify(frequency: int, lo: float, hi: float, log_space: bool) -> int:
    """-1 below, 0 inside (endpoints inclusive), +1 above."""
    value = math.log(frequency) if log_space else float(frequency)
    return -1 if value < lo else (1 if value > hi else 0)


def cleanse(transactions: list[list[str]], verdict: dict[str, int]):
    """In-band items of each transaction in first-seen order, emptied
    transactions pruned; returns (cleansed transactions, counts)."""
    order = first_seen_order(transactions)
    cleansed = []
    pruned = 0
    for items in transactions:
        kept = sorted((i for i in items if verdict[i] == 0), key=order.__getitem__)
        if kept:
            cleansed.append(kept)
        else:
            pruned += 1
    counts = {
        "items_removed_low": sum(1 for v in verdict.values() if v < 0),
        "items_removed_high": sum(1 for v in verdict.values() if v > 0),
        "items_retained": sum(1 for v in verdict.values() if v == 0),
        "transactions_removed_empty": pruned,
        "transactions_retained": len(cleansed),
    }
    return cleansed, counts


def band_cleanse(transactions, kind: str, s: float):
    freqs = frequencies(transactions)
    mu, sigma, lo, hi, log_space = fit(freqs, kind, s)
    verdict = {item: classify(f, lo, hi, log_space) for item, f in freqs.items()}
    cleansed, counts = cleanse(transactions, verdict)
    return cleansed, counts, (mu, sigma)


# ---------------------------------------------------------------------------
# clustering rules


def gain(occurrences: int, width: int, members: int, r: float) -> float:
    """S / W**r * N of one cluster, 0 for an empty one."""
    if members == 0:
        return 0.0
    return occurrences / width ** r * members


def _summaries(transactions, assignment):
    clusters: dict[int, list] = {}
    for items, cid in zip(transactions, assignment):
        occ, size, members = clusters.setdefault(cid, [{}, 0, 0])
        for item in items:
            occ[item] = occ.get(item, 0) + 1
        clusters[cid][1] = size + len(items)
        clusters[cid][2] = members + 1
    return clusters


def profit(transactions, assignment, r: float) -> float:
    clusters = _summaries(transactions, assignment)
    numerator = sum(gain(size, len(occ), members, r)
                    for occ, size, members in (clusters[c] for c in sorted(clusters)))
    return numerator / len(transactions)


def read_assignment(path, n: int) -> list[int]:
    """``tid,cluster_id`` rows covering tids 0..n-1 once, ids dense and
    numbered by first member."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    expect(rows and rows[0] == ["tid", "cluster_id"], f"{path}: bad header {rows[:1]}")
    expect(len(rows) - 1 == n, f"{path}: {len(rows) - 1} rows for {n} transactions")
    assignment = []
    next_id = 0
    for tid, row in enumerate(rows[1:]):
        expect(len(row) == 2 and row[0] == str(tid), f"{path}: row {tid + 1} is {row}")
        cid = int(row[1])
        expect(0 <= cid <= next_id, f"{path}: tid {tid} opens cluster {cid}, expected <= {next_id}")
        next_id = max(next_id, cid + 1)
        assignment.append(cid)
    return assignment


def improving_moves(transactions, assignment, r: float, sample) -> list[str]:
    """Single moves of a sampled transaction, to another cluster or to a new
    singleton, that strictly raise profit beyond float tolerance."""
    clusters = _summaries(transactions, assignment)
    found = []
    for tid in sample:
        items = transactions[tid]
        size = len(items)
        home = assignment[tid]
        occ, total, members = clusters[home]
        lonely = sum(1 for item in items if occ[item] == 1)
        here = gain(total, len(occ), members, r)
        stay = here - gain(total - size, len(occ) - lonely, members - 1, r)
        options = [] if members == 1 else [("new singleton", gain(size, size, 1, r))]
        for cid, (other, other_total, other_members) in clusters.items():
            if cid == home:
                continue
            present = sum(1 for item in items if item in other)
            before = gain(other_total, len(other), other_members, r)
            after = gain(other_total + size, len(other) + size - present, other_members + 1, r)
            options.append((f"cluster {cid}", after - before))
        for target, delta in options:
            if delta - stay > RTOL * max(1.0, here, abs(delta)):
                found.append(f"tid {tid}: {home} -> {target} gains {delta - stay:.3g}")
    return found


def jaccard(a, b) -> Fraction:
    a, b = set(a), set(b)
    return Fraction(len(a & b), len(a | b))


# ---------------------------------------------------------------------------
# self-check on the README's worked examples


def self_check() -> None:
    letters = lambda *words: [_dedup(w) for w in words]  # noqa: E731

    one = letters("abcxyz", "bcdpqr", "acdstuvw")
    expect([jaccard(one[0], one[1]), jaccard(one[0], one[2]), jaccard(one[1], one[2])]
           == [Fraction(1, 5), Fraction(1, 6), Fraction(1, 6)],
           "noise example one: similarities are not 1/5, 1/6, 1/6")
    freqs = frequencies(one)
    cleansed, _ = cleanse(one, {i: classify(f, 2, math.inf, False) for i, f in freqs.items()})
    expect(all(jaccard(a, b) == Fraction(1, 2)
               for k, a in enumerate(cleansed) for b in cleansed[k + 1:]),
           "noise example one: band [2, inf] must leave pairwise similarity 1/2")

    two = letters("abcdxy", "cdxyzw", "qrxyzw", "opqrzw")
    freqs = frequencies(two)
    verdict = {i: classify(f, 1, 2, False) for i, f in freqs.items()}
    cleansed, counts = cleanse(two, verdict)
    expect(sorted(i for i, v in verdict.items() if v > 0) == ["w", "x", "y", "z"]
           and counts["items_removed_high"] == 4,
           "noise example two: band [1, 2] must remove exactly x, y, z, w")
    expect(cleansed == [list("abcd"), list("cd"), list("qr"), list("qrop")],
           f"noise example two: cleansed to {cleansed}")

    # Exponential band: mean 2 at s=0.5 keeps [1, 3] inclusive of both ends.
    mu, sigma, lo, hi, log_space = fit({"a": 1, "b": 3, "c": 2, "d": 2}, "exponential", 0.5)
    expect((mu, sigma, lo, hi, log_space) == (2.0, 2.0, 1.0, 3.0, False),
           "exponential band endpoints")
    expect(fit({"a": 1}, "exponential", 2.0)[2] == 0.0, "exponential lower clamp at 0")
    mu, sigma, lo, hi, log_space = fit({"a": 1, "b": math.e ** 2}, "lognormal", 1.0)
    expect(close(mu, 1.0) and close(sigma, 1.0) and log_space, "lognormal log-space moments")

    # Profit: two clusters {ab, ab} and {c}: (4/2**2*2 + 1/1*1) / 3 at r=2.
    db = letters("ab", "ab", "c")
    expect(close(profit(db, [0, 0, 1], 2.0), 3.0 / 3), "profit of a hand-computed clustering")
    expect(not improving_moves(db, [0, 0, 1], 2.0, range(3)), "optimal clustering flagged")
    expect(improving_moves(db, [0, 1, 1], 2.0, range(3)), "improvable clustering not flagged")


def sample_tids(n: int, size: int, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(n), min(n, size)))
