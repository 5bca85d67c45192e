"""CLOPE-style profit-maximizing transaction clustering.

Each cluster is summarized by three sufficient statistics: total item
occurrences S, distinct item count (width) W, and member count N. A
clustering's profit is

    profit = sum_i( S_i / W_i**r * N_i ) / sum_i( N_i )

where the repulsion r > 0 penalizes wide clusters; larger r favors more,
tighter clusters. Clustering proceeds in an add phase followed by refinement
passes that take each transaction out of its cluster and place it again,
until a pass moves nothing. Both phases place a transaction, in tid order, by
one rule: its home (the cluster it just left, if any) is the baseline and
wins ties; other clusters, scanned in ascending id, take over only on a
strictly greater profit-numerator delta (``delta_add``); a fresh cluster wins
only if strictly better than all of them. An emptied home stays in the scan,
so a singleton keeps its id and is not moved. Identical inputs thus yield
identical clusterings.

Placement does not call ``delta_add`` per cluster. An inverted index
``item -> {cluster: count}`` gives the clusters that share an item with the
transaction and their overlaps, so only those are scored one by one, as
``(S+|t|) / pw[W+|t|-overlap] * (N+1) - G`` with G the cluster's current
gain and ``pw[w] == w**r`` a table over widths up to the item count (a width
whose power overflows takes ``_gain``'s exp/log path). A cluster that shares
no item offers a delta that depends on the transaction only through its
size; those deltas are kept per size and cluster, and the slot of each
size's maximum is cached and kept up to date as clusters change, so a
placement rescans a size's deltas only when its cached maximum fell or left.
An index row can hold only live clusters, so one that holds k of them (a
near-ubiquitous item's, say) adds 1 to every overlap: such full rows are
counted once, not once per cluster. A transaction with a full row overlaps
every cluster, so all of them are scored, in ascending id, and the per-size
maxima are not read; that placement costs O(sum of overlaps over the other
rows + k). Per-pass work is O(n + sum of overlaps), less the full rows' share,
plus one delta per size for each cluster change and O(k) for each rescan. A
refinement pass that has moved nothing yet ends at the first transaction
after the previous pass's last move: every later one stayed at its last
placement, and nothing has changed since. Every delta is bit-identical to
``delta_add``'s. The index, one row per item id, is the only occurrence map:
``Clustering.clusters`` is read off it once, and each pass's profit sums the
gains G the placer keeps. ``delta_add``, ``ClusterSummary`` and ``profit``
stay as the oracles the tests compare the kernel against.
"""

from __future__ import annotations

import itertools
import math
import time
from bisect import bisect_left
from collections import Counter
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

    __slots__ = ("occ", "occurrences", "members")

    def __init__(self) -> None:
        self.occ: dict[ItemId, int] = {}
        self.occurrences = 0
        self.members = 0

    @property
    def width(self) -> int:
        return len(self.occ)

    def add(self, t: Transaction) -> None:
        occ = self.occ
        for item in t.items:
            occ[item] = occ.get(item, 0) + 1
        self.occurrences += len(t.items)
        self.members += 1

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

    def gain(self, r: float) -> float:
        return _gain(self.occurrences, len(self.occ), self.members, r)

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
    appends one value per refinement pass; ``profit`` is its last entry.
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


def _powers(size: int, r: float) -> list:
    """``pw[w] == w ** r`` for w < len(pw); the table stops at ``size`` or at
    the first width whose power overflows a float, whichever comes first."""
    pw = []
    try:
        for w in range(size):
            pw.append(w**r)
    except OverflowError:
        pass
    return pw


class _Placer:
    """Incremental CLOPE state and the placement rule over it.

    ``index[item]``, one row per item id, maps each cluster holding ``item``
    to its count there, so the clusters sharing an item with a transaction,
    and their overlaps with it, come from its items' rows alone;
    ``summaries()`` reads ClusterSummary objects off it. ``stats[cid]`` is
    ``(S, W, N + 1, G)`` of each live cluster in ascending id, G its current
    gain, which ``profit()`` sums. A row holds only live clusters, since a
    cluster leaves a row when its count there reaches 0, so a row of
    ``len(stats)`` entries is full: it holds every cluster.

    A cluster that shares no item with ``t`` offers ``(S+s) / pw[W+s] *
    (N+1) - G``, which depends on ``t`` only through its size s. So
    ``disjoint[s][slot]`` keeps that delta for every size s in the database
    and every live cluster, refreshed whenever the cluster changes, and its
    maximum replaces scoring the disjoint clusters one by one. ``tops[s]`` is
    the slot of the first maximum of ``disjoint[s]``, or -1 when unknown:
    ``best`` rescans a column only then, and each update keeps it exact. It
    becomes -1 when its own entry falls or its cluster is deleted, moves
    down with its slot when a lower slot is deleted, and passes to a slot
    whose new entry is greater, or equal at a lower slot.
    ``cids[slot]`` is the cluster of each slot, in ascending id order, since
    fresh ids only grow.
    """

    def __init__(self, m: int, sizes: Iterable[int], repulsion: float) -> None:
        self.r = repulsion
        # widths never exceed m; wider or overflowing ones take _gain's path
        self.pw = _powers(m + 1, repulsion)
        self.index: list[dict[int, int]] = [{} for _ in range(m)]
        self.stats: dict[int, tuple[int, int, int, float]] = {}
        self.disjoint: dict[int, list[float]] = {s: [] for s in sizes}
        self.tops = dict.fromkeys(self.disjoint, -1)
        self.fresh = {s: _gain(s, s, 1, repulsion) for s in self.disjoint}
        self.cids: list[int] = []

    def _delta(self, occurrences: int, width: int, members: int, gain: float) -> float:
        """``_gain(occurrences, width, members) - gain``, through the table."""
        try:
            return occurrences / self.pw[width] * members - gain
        except IndexError:
            return _gain(occurrences, width, members, self.r) - gain

    def best(self, items: tuple[ItemId, ...], home: int | None = None) -> int | None:
        """The id of the cluster that transaction t, whose row is ``items``,
        should join, or None for a fresh one.

        ``home``, the cluster that holds ``t`` in refinement, is the baseline
        and wins ties; among the other clusters the greatest delta wins, and
        the lowest id among equal ones; a fresh cluster must beat them all.
        These are exactly the choices of scanning delta_add over the clusters
        in ascending id, with ``t`` taken out of its home, and taking over
        only on a strictly greater delta.

        A full row adds 1 to every overlap, so full rows are counted once, as
        ``base``. When ``t`` has one, every cluster overlaps it and is scored:
        O(entries of the other rows + k). Otherwise only the overlapping
        clusters are scored, and the disjoint ones through a column maximum.
        """
        stats = self.stats
        k = len(stats)
        if not k:
            # every row is empty, and so trivially full: t opens a cluster
            return None
        s = len(items)
        rows = list(map(self.index.__getitem__, items))
        best_cid, best = None, -math.inf
        pw = self.pw
        if k in map(len, rows):
            # Every cluster overlaps t, by ``base`` plus its count in the
            # other rows. Scanned in ascending id, a strict > keeps the lowest
            # id among equal deltas. The column is not read: each of its
            # entries is at most its cluster's exact delta (see below).
            partial = [row for row in rows if len(row) != k]
            base = s - len(partial)
            ov = Counter(itertools.chain.from_iterable(partial))
            for cid, (S, W, N1, G) in stats.items():
                if cid == home:
                    continue
                o = base + ov.get(cid, 0)
                try:
                    d = (S + s) / pw[W + s - o] * N1 - G
                except IndexError:
                    d = _gain(S + s, W + s - o, N1, self.r) - G
                if d > best:
                    best, best_cid = d, cid
        else:
            # overlap counts, only for the clusters that share an item with t
            ov = Counter(itertools.chain.from_iterable(rows))
            if home is not None:
                del ov[home]
            for cid, o in ov.items():
                S, W, N1, G = stats[cid]
                try:
                    d = (S + s) / pw[W + s - o] * N1 - G
                except IndexError:
                    d = _gain(S + s, W + s - o, N1, self.r) - G
                if d > best or d == best and cid < best_cid:
                    best, best_cid = d, cid

            # Overlap only narrows the width, so an overlapping cluster's
            # column entry is at most its exact delta, already scored above. A
            # column maximum above ``best`` is therefore a disjoint cluster's
            # delta, and one equal to ``best`` is first held by a cluster whose
            # exact delta equals ``best``: the lowest id among them wins the
            # tie.
            column = self.disjoint[s]
            top_slot = self.tops[s]
            if top_slot < 0:
                top_slot = self.tops[s] = column.index(max(column))
            top = column[top_slot]
            if home is not None:
                slot = bisect_left(self.cids, home)
                if top_slot == slot:
                    # The cached top is the home's own entry: the others'
                    # maximum is read with it held out, and is not cached.
                    held, column[slot] = column[slot], -math.inf
                    top = max(column)
                    top_slot = column.index(top)
                    column[slot] = held
            if top >= best and top > -math.inf:
                cid = self.cids[top_slot]
                if top > best or cid < best_cid:
                    best, best_cid = top, cid
        if home is not None:
            # t stays in its home: the home's delta is its gain minus the gain
            # it would have without t
            S, W, N1, G = stats[home]
            ones = sum(row[home] == 1 for row in rows)
            d = G - _gain(S - s, W - ones, N1 - 2, self.r)
            if d >= best:
                best, best_cid = d, home
        if self.fresh[s] > best:
            return None
        return best_cid

    def add(self, cid: int, items: tuple[ItemId, ...]) -> None:
        if cid not in self.stats:
            self.stats[cid] = (0, 0, 1, 0.0)
            self.cids.append(cid)
            for column in self.disjoint.values():
                column.append(-math.inf)
        S, W, N1, _ = self.stats[cid]
        index = self.index
        for item in items:
            row = index[item]
            if cid in row:
                row[cid] += 1
            else:
                row[cid] = 1
                W += 1
        self._restat(cid, S + len(items), W, N1 + 1)

    def remove(self, cid: int, items: tuple[ItemId, ...]) -> None:
        S, W, N1, _ = self.stats[cid]
        index = self.index
        for item in items:
            row = index[item]
            count = row[cid]
            if count == 1:
                del row[cid]
                W -= 1
            else:
                row[cid] = count - 1
        if N1 == 2:
            del self.stats[cid]
            slot = bisect_left(self.cids, cid)
            del self.cids[slot]
            tops = self.tops
            for s, column in self.disjoint.items():
                del column[slot]
                if tops[s] > slot:
                    tops[s] -= 1
                elif tops[s] == slot:
                    tops[s] = -1
        else:
            self._restat(cid, S - len(items), W, N1 - 1)

    def _restat(self, cid: int, S: int, W: int, N1: int) -> None:
        G = _gain(S, W, N1 - 1, self.r)
        self.stats[cid] = (S, W, N1, G)
        slot = bisect_left(self.cids, cid)
        delta = self._delta
        tops = self.tops
        for s, column in self.disjoint.items():
            d = delta(S + s, W + s, N1, G)
            top = tops[s]
            if top == slot:
                if d < column[slot]:
                    tops[s] = -1
            elif top >= 0 and (d > column[top] or d == column[top] and slot < top):
                tops[s] = slot
            column[slot] = d

    def profit(self, n: int) -> float:
        """Gains summed left to right in ascending id, over n, as ``profit`` sums."""
        numerator = 0.0
        for *_, G in self.stats.values():
            numerator += G
        return numerator / n

    def summaries(self) -> dict[int, ClusterSummary]:
        """The ClusterSummary of each live cluster, in ascending id."""
        summaries = {cid: ClusterSummary() for cid in self.cids}
        for item, row in enumerate(self.index):
            for cid, count in row.items():
                summaries[cid].occ[item] = count
        for cid, (S, _, N1, _) in self.stats.items():
            summaries[cid].occurrences, summaries[cid].members = S, N1 - 1
        return summaries


def clope_cluster(
    db: TransactionDatabase,
    repulsion: float = 1.5,
    max_passes: int = 20,
) -> Clustering:
    """Cluster a database by iterative profit maximization.

    Refinement stops after a pass with zero moves, or at ``max_passes``
    (a safety valve; hitting it is reported via ``hit_max_passes``). Empty
    clusters are collected immediately. The reported profit sequence is
    non-decreasing.
    """
    _check_repulsion(repulsion)
    if max_passes < 1:
        raise ValueError("max_passes must be >= 1")
    if db.n == 0:
        raise ValueError("cannot cluster an empty database")
    rows = db.rows
    if not all(rows):
        raise ValueError(f"transaction {rows.index(())} is empty; cleanse before clustering")

    placer = _Placer(db.m, set(map(len, rows)), repulsion)
    assignment = [0] * db.n
    fresh_ids = itertools.count()

    started = time.perf_counter()
    for tid, row in enumerate(rows):
        cid = placer.best(row)
        if cid is None:
            cid = next(fresh_ids)
        placer.add(cid, row)
        assignment[tid] = cid
    seconds_add = time.perf_counter() - started

    profits = [placer.profit(db.n)]
    moves_per_pass: list[int] = []

    started = time.perf_counter()
    last_move = db.n
    for _ in range(max_passes):
        moves = 0
        for tid, row in enumerate(rows):
            # Past the last move, with none made since, each transaction would
            # stay where its last placement left it.
            if tid > last_move and not moves:
                break
            home = assignment[tid]
            cid = placer.best(row, home)
            if cid == home:
                continue
            if cid is None:
                cid = next(fresh_ids)
            placer.remove(home, row)
            placer.add(cid, row)
            assignment[tid] = cid
            last_move = tid
            moves += 1
        moves_per_pass.append(moves)
        profits.append(placer.profit(db.n))
        if profits[-1] < profits[-2] - PROFIT_RTOL * max(1.0, abs(profits[-2])):
            raise RuntimeError(
                f"profit decreased across pass {len(moves_per_pass)}: {profits[-2]} -> {profits[-1]}"
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
    clusters = {renumber[cid]: summary for cid, summary in placer.summaries().items()}

    return Clustering(
        assignment=assignment,
        clusters=clusters,
        k=len(clusters),
        profit=profits[-1],
        profit_per_pass=profits,
        passes=len(moves_per_pass),
        moves_per_pass=moves_per_pass,
        hit_max_passes=moves_per_pass[-1] > 0,
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
