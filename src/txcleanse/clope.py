"""CLOPE-style profit-maximizing transaction clustering.

Each cluster is summarized by three sufficient statistics: total item
occurrences S, distinct item count (width) W, and member count N. A
clustering's profit is

    profit = sum_i( S_i / W_i**r * N_i ) / sum_i( N_i )

where the repulsion r > 0 penalizes wide clusters; larger r favors more,
tighter clusters. Clustering proceeds in an add phase (each transaction, in
tid order, joins the cluster maximizing the profit-numerator delta, or
starts a fresh one) followed by refinement passes that move transactions
while any strictly profitable move exists.

All scans and tie-breaks are fixed (ascending tid, ascending cluster id,
existing cluster preferred over a fresh one), so identical inputs yield
identical clusterings. Per-pass work is O(n * k * |T|): every move evaluates
exact incremental deltas, never a full recomputation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import ItemId, Transaction, TransactionDatabase

# Relative slack for float comparisons of recomputed profits.
PROFIT_RTOL = 1e-9


def _check_repulsion(repulsion: float) -> None:
    if not (repulsion > 0 and math.isfinite(repulsion)):
        raise ValueError("repulsion must be finite and > 0")


def _gain(occurrences: int, width: int, members: int, r: float) -> float:
    """Profit-numerator term S / W**r * N of one cluster (0 for an empty one).

    Falls back to exp/log arithmetic when W**r would overflow a float, since
    r is not capped.
    """
    if members == 0 or width == 0:
        return 0.0
    try:
        return occurrences / width**r * members
    except OverflowError:
        return math.exp(math.log(occurrences) - r * math.log(width) + math.log(members))


class ClusterSummary:
    """Incremental (occurrence map, S, W, N) statistics of one cluster.

    add() and remove() are exact integer updates; removing a transaction and
    re-adding it restores the summary bit-for-bit.
    """

    __slots__ = ("occ", "occurrences", "members", "_gain_r", "_gain_value")

    def __init__(self) -> None:
        self.occ: dict[ItemId, int] = {}
        self.occurrences = 0
        self.members = 0
        self._gain_r = -1.0
        self._gain_value = 0.0

    @property
    def width(self) -> int:
        return len(self.occ)

    def add(self, t: Transaction) -> None:
        occ = self.occ
        for item in t.items:
            occ[item] = occ.get(item, 0) + 1
        self.occurrences += len(t.items)
        self.members += 1
        self._gain_r = -1.0

    def remove(self, t: Transaction) -> None:
        occ = self.occ
        for item in t.items:
            count = occ[item]
            if count == 1:
                del occ[item]
            else:
                occ[item] = count - 1
        self.occurrences -= len(t.items)
        self.members -= 1
        self._gain_r = -1.0

    def gain(self, r: float) -> float:
        # memoized per repulsion; every mutation invalidates
        if self._gain_r != r:
            self._gain_value = _gain(self.occurrences, len(self.occ), self.members, r)
            self._gain_r = r
        return self._gain_value

    @classmethod
    def from_transactions(cls, transactions: Iterable[Transaction]) -> ClusterSummary:
        """From-scratch rebuild (tests compare this against incremental state)."""
        summary = cls()
        occ: dict[ItemId, int] = {}
        total = 0
        count = 0
        for t in transactions:
            for item in t.items:
                occ[item] = occ.get(item, 0) + 1
            total += len(t.items)
            count += 1
        summary.occ = occ
        summary.occurrences = total
        summary.members = count
        return summary

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterSummary):
            return NotImplemented
        return (
            self.occ == other.occ
            and self.occurrences == other.occurrences
            and self.members == other.members
        )

    def __repr__(self) -> str:
        return (
            f"ClusterSummary(S={self.occurrences}, W={len(self.occ)}, "
            f"N={self.members})"
        )


def profit(summaries: Iterable[ClusterSummary], repulsion: float) -> float:
    """Global clustering quality over live clusters.

    Summation follows the given iteration order; callers wanting
    reproducible floats should pass clusters in a fixed order.
    """
    _check_repulsion(repulsion)
    numerator = 0.0
    total_members = 0
    for summary in summaries:
        if summary.members < 1:
            raise ValueError("profit requires live clusters (N >= 1)")
        numerator += summary.gain(repulsion)
        total_members += summary.members
    if total_members == 0:
        raise ValueError("profit undefined for an empty clustering")
    return numerator / total_members


def delta_add(summary: ClusterSummary, t: Transaction, repulsion: float) -> float:
    """Profit-numerator change from adding ``t`` to the cluster.

    For an empty (or hypothetical fresh) cluster the subtracted term is 0.
    """
    occ = summary.occ
    present = sum(map(occ.__contains__, t.items))
    new_width = len(occ) + len(t.items) - present
    return (
        _gain(summary.occurrences + len(t.items), new_width, summary.members + 1, repulsion)
        - summary.gain(repulsion)
    )


@dataclass
class Clustering:
    """Result of one clustering run.

    ``assignment[tid]`` is the dense cluster id (renumbered by smallest
    member tid); ``profit_per_pass`` starts with the add-phase profit and
    appends one value per refinement pass.
    """

    assignment: list[int]
    clusters: dict[int, ClusterSummary]
    k: int
    profit: float
    profit_per_pass: list[float]
    passes: int
    moves_per_pass: list[int]
    hit_max_passes: bool
    seconds_add: float
    seconds_refine: float

    def members_of(self, cluster_id: int) -> list[int]:
        return [tid for tid, cid in enumerate(self.assignment) if cid == cluster_id]


def _profit_of(clusters: dict[int, ClusterSummary], n: int, repulsion: float) -> float:
    return sum(clusters[cid].gain(repulsion) for cid in sorted(clusters)) / n


def _new_cluster_delta(t: Transaction, repulsion: float) -> float:
    size = len(t.items)
    return _gain(size, size, 1, repulsion)


def clope_cluster(
    db: TransactionDatabase,
    repulsion: float = 1.5,
    max_passes: int = 20,
) -> Clustering:
    """Cluster a database by iterative profit maximization.

    Refinement stops after a full pass with zero moves, or at ``max_passes``
    (a safety valve; hitting it is reported via ``hit_max_passes``). Empty
    clusters are collected immediately. The reported profit sequence is
    non-decreasing.
    """
    _check_repulsion(repulsion)
    if max_passes < 1:
        raise ValueError("max_passes must be >= 1")
    if db.n == 0:
        raise ValueError("cannot cluster an empty database")
    for t in db.transactions:
        if len(t.items) == 0:
            raise ValueError(f"transaction {t.tid} is empty; cleanse before clustering")

    transactions = db.transactions
    clusters: dict[int, ClusterSummary] = {}
    assignment = [0] * db.n
    next_id = 0

    started = time.perf_counter()
    for t in transactions:
        best_delta = -math.inf
        best_cid = -1
        for cid in sorted(clusters):
            d = delta_add(clusters[cid], t, repulsion)
            if d > best_delta:
                best_delta, best_cid = d, cid
        if _new_cluster_delta(t, repulsion) > best_delta:
            best_cid = next_id
            next_id += 1
            clusters[best_cid] = ClusterSummary()
        clusters[best_cid].add(t)
        assignment[t.tid] = best_cid
    seconds_add = time.perf_counter() - started

    profits = [_profit_of(clusters, db.n, repulsion)]
    moves_per_pass: list[int] = []

    started = time.perf_counter()
    passes = 0
    hit_cap = False
    while True:
        if passes == max_passes:
            hit_cap = moves_per_pass[-1] > 0 if moves_per_pass else False
            break
        moves = 0
        for t in transactions:
            old_cid = assignment[t.tid]
            old_summary = clusters[old_cid]
            old_summary.remove(t)
            emptied = old_summary.members == 0
            if emptied:
                del clusters[old_cid]
                # Putting the transaction back on its own is the baseline.
                best_delta = _new_cluster_delta(t, repulsion)
                best_cid = -1
            else:
                best_delta = delta_add(old_summary, t, repulsion)
                best_cid = old_cid
            for cid in sorted(clusters):
                if cid == best_cid:
                    continue
                d = delta_add(clusters[cid], t, repulsion)
                if d > best_delta:
                    best_delta, best_cid = d, cid
            if not emptied and _new_cluster_delta(t, repulsion) > best_delta:
                best_cid = -1
            if best_cid == -1:
                if emptied:
                    best_cid = old_cid  # restore in place, not a move
                else:
                    best_cid = next_id
                    next_id += 1
                clusters[best_cid] = ClusterSummary()
            if best_cid != old_cid:
                moves += 1
            clusters[best_cid].add(t)
            assignment[t.tid] = best_cid
        passes += 1
        moves_per_pass.append(moves)
        profits.append(_profit_of(clusters, db.n, repulsion))
        if profits[-1] < profits[-2] - PROFIT_RTOL * max(1.0, abs(profits[-2])):
            raise RuntimeError(
                f"profit decreased across pass {passes}: {profits[-2]} -> {profits[-1]}"
            )
        if moves == 0:
            break
    seconds_refine = time.perf_counter() - started

    # Dense, order-stable cluster ids: renumber by smallest member tid.
    first_member: dict[int, int] = {}
    for tid, cid in enumerate(assignment):
        first_member.setdefault(cid, tid)
    renumber = {cid: new for new, cid in enumerate(sorted(first_member, key=first_member.get))}
    assignment = [renumber[cid] for cid in assignment]
    clusters = {renumber[cid]: summary for cid, summary in clusters.items()}

    return Clustering(
        assignment=assignment,
        clusters=clusters,
        k=len(clusters),
        profit=_profit_of(clusters, db.n, repulsion),
        profit_per_pass=profits,
        passes=passes,
        moves_per_pass=moves_per_pass,
        hit_max_passes=hit_cap,
        seconds_add=seconds_add,
        seconds_refine=seconds_refine,
    )


def recompute_profit(
    db: TransactionDatabase,
    assignment: Sequence[int],
    repulsion: float,
) -> float:
    """Naive from-scratch profit of an assignment, independent of the
    incremental machinery; the verification twin of clope_cluster's value."""
    _check_repulsion(repulsion)
    if len(assignment) != db.n or db.n == 0:
        raise ValueError("assignment must cover every transaction")
    groups: dict[int, list[Transaction]] = {}
    for t in db.transactions:
        groups.setdefault(assignment[t.tid], []).append(t)
    numerator = 0.0
    for cid in sorted(groups):
        members = groups[cid]
        total = sum(len(t.items) for t in members)
        width = len(set().union(*(t.item_set() for t in members)))
        numerator += _gain(total, width, len(members), repulsion)
    return numerator / db.n


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of range(n) as restricted-growth strings, in
    lexicographic order (labels numbered by first appearance)."""
    if n == 0:
        return
    if n == 1:
        yield (0,)
        return
    labels = [0] * n

    def extend(position: int, max_label: int) -> Iterator[tuple[int, ...]]:
        if position == n:
            yield tuple(labels)
            return
        for label in range(max_label + 2):
            labels[position] = label
            yield from extend(position + 1, max(max_label, label))

    yield from extend(1, 0)


def brute_force_best(
    db: TransactionDatabase,
    repulsion: float,
    max_transactions: int = 10,
) -> tuple[list[list[int]], float]:
    """Globally optimal partition by exhaustive enumeration (test oracle).

    Refuses databases beyond ``max_transactions`` (Bell-number growth). Ties
    resolve to the lexicographically smallest restricted-growth encoding.
    Returns (clusters as tid lists ordered by smallest member, profit).
    """
    if db.n == 0:
        raise ValueError("cannot partition an empty database")
    if db.n > max_transactions:
        raise ValueError(f"refusing to enumerate partitions of {db.n} > {max_transactions} transactions")
    item_sets = [t.item_set() for t in db.transactions]
    sizes = [len(t.items) for t in db.transactions]

    best_profit = -math.inf
    best_labels: tuple[int, ...] = ()
    for labels in _partitions(db.n):
        groups: dict[int, list[int]] = {}
        for tid, label in enumerate(labels):
            groups.setdefault(label, []).append(tid)
        numerator = 0.0
        for members in groups.values():
            total = sum(sizes[tid] for tid in members)
            width = len(set().union(*(item_sets[tid] for tid in members)))
            numerator += _gain(total, width, len(members), repulsion)
        value = numerator / db.n
        if value > best_profit:
            best_profit = value
            best_labels = labels

    partition: dict[int, list[int]] = {}
    for tid, label in enumerate(best_labels):
        partition.setdefault(label, []).append(tid)
    return [partition[label] for label in sorted(partition)], best_profit


__all__ = [
    "ClusterSummary",
    "Clustering",
    "profit",
    "delta_add",
    "clope_cluster",
    "recompute_profit",
    "brute_force_best",
]
