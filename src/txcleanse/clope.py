"""CLOPE-style profit-maximizing transaction clustering (Yang, Guan & You,
KDD 2002).

Each cluster is summarized by three sufficient statistics: total item
occurrences S, distinct item count (width) W, and member count N. A
clustering's profit is

    profit = sum_i( S_i / W_i**r * N_i ) / sum_i( N_i )

where the repulsion r > 0 penalizes wide clusters; larger r favors more,
tighter clusters. Clustering is one loop of passes over the transactions in
tid order. Pass 0, the add phase, places each one for the first time; each
later pass takes it out of its cluster and places it again, until a pass
moves nothing. Every placement follows one rule: its home (the cluster it
just left, none in pass 0) is the baseline and wins ties; other clusters,
scanned in ascending id, take over only on a strictly greater
profit-numerator delta (``delta_add``); a fresh cluster wins only if
strictly better than all of them. An emptied home stays in the scan, so a
singleton keeps its id and is not moved. Identical inputs thus yield
identical clusterings. ``delta_add``, ``ClusterSummary``, ``profit`` and
``brute_force_best`` stay as the oracles the tests hold the kernel to.

``_Placer`` makes the same choices without calling ``delta_add`` per
cluster, through the shortcuts below. Each is exact: every delta it
computes is the float ``delta_add`` gives, and every cluster it skips can
neither win nor tie.

Tables. ``pw[w] == w**r`` for each width up to the item count m, or up to
the first power that overflows a float. A width past the table takes
``_gain``'s formula, as ``delta_add`` does, with the width's power, or
``r * log(w)`` where the power overflows, kept in ``past`` from its first
use, so no score raises an exception. ``fresh[s]`` is a fresh cluster's
delta ``_gain(s, s, 1)`` for each size s up to m. All hold the very floats
the formula gives.

Index. ``index[item]`` maps each live cluster holding the item to its count
there, so a transaction's rows give the clusters that share an item with it
and their overlaps. It is the only occurrence map: each pass's profit sums
the gains G the placer keeps, in ascending id as ``profit`` sums them, and
``Clustering.clusters`` is read off the index once.

Dense-row complements. A row that holds more than half of the k live
clusters is dense, the others sparse. A dense row is read by the set of
live clusters it misses, kept from its first read on: ``add`` and
``remove`` update it where the row gains or loses a cluster and when a
cluster is born or dies, and drop it once the row is no longer dense, so it
always equals the complement, and a dense row costs what it misses, not
what it holds.

Columns and cached tops. Let transaction t of size s have q sparse rows. A
cluster that meets each of its dense rows and none of its sparse ones
widens by q and offers ``(S+s) / pw[W+q] * (N+1) - G``, which depends on t
only through (s, q). Column (s, q), opened by the first placement that
needs it, keeps that value per cluster id and is refreshed whenever a
cluster changes; ids are never reused, so a deleted cluster's entry is
-inf. Each column caches the id of its first maximum; an update that raises
an entry above it, or to it at a lower id, takes it over, one that lowers
the top's entry or deletes its cluster makes it unknown, and a read
rescans only then. A placement scores one by one, as ``(S+s) / pw[W+q-o] *
(N+1) - G``, only the clusters that meet a sparse row or miss a dense row,
o being a cluster's overlap with the sparse rows less the dense rows it
misses. Every other cluster's entry is its exact delta, so the column
maximum stands for all of them.

Hold-out. Overlap in the sparse rows only narrows the width, so the entry
of a scored cluster that misses no dense row is at most its delta: a
column maximum above the best scored delta is an unscored cluster's, and
one equal to it is first held by a cluster whose delta equals it, so the
lower id wins the tie as the scan would. The entry of a cluster that misses
a dense row, and the home's (t counted twice), may exceed its delta, so
those are held out of the maximum when the cached top is one of them, and
that rescan is not cached.

Overlap bound. When q > 0, the placement first reads the maximum B of
column (s, q-1). A cluster of overlap 1 offers exactly its entry there, the
same expression, and one of overlap 0 or less at most its entry, being
wider, since ``pw`` grows with width and IEEE ``/``, ``*`` and ``-`` are
monotone. So B bounds every cluster of overlap at most 1, scored, held out
or not. When B is strictly below both the home's delta and a fresh
cluster's, none of them can win or tie: only clusters of overlap 2 or more
are scored, and column (s, q) is not read.

Stay. The placer logs the id of the cluster each add and remove changes,
and each transaction keeps the log's length and the delta that won right
after its last placement. A cluster unchanged since offers the same delta
as then, which was at most the winning one, and a fresh cluster's delta is
constant. An unchanged home offers exactly the delta that won: a winning
join ``(S+s) / pw[W'] * (N+1) - G`` is bit for bit the home's later
``G' - _gain(S, W, N)``. So if the log has not grown, t stays in O(1).

Sifting. While the home offers at least the delta that won, no unchanged
cluster can take t, since the home wins ties. Then, if the log grew by g < k
entries, only the clusters among its last g ids that meet a sparse row or
miss a dense one are scored. In the column read, an unchanged cluster that
is not held out has an entry at most its delta, so when it tops the column
the home keeps t. If the log grew by k or more entries, sifting would save
little, and every such cluster is scored, which is as exact.

Cost. A placement costs O(1) when nothing changed, O(s + g + sum over its
sparse rows of min(row, g) + misses of its dense rows) while its home holds
and g < k, and O(s + entries of its sparse rows + misses of its dense rows)
otherwise, plus O(ids added so far) per column it rescans. Each cluster
change adds one delta per open column, and one set update per kept dense
row that the cluster joins or leaves, or per kept row when it is born or
dies.
"""

from __future__ import annotations

import itertools
import math
import time
from array import array
from collections import _count_elements
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .core import ItemId, Transaction, TransactionDatabase, check_int, check_number

# Relative slack for float comparisons of recomputed profits.
PROFIT_RTOL = 1e-9

# An index row holding more than k >> _DENSE_SHIFT of the k live clusters
# is dense: placement reads it by the clusters it misses.
_DENSE_SHIFT = 1


# The range checks of CLOPE's parameters; the CLI validates with them.
def check_repulsion(repulsion: float) -> None:
    check_number("repulsion", repulsion)
    if not (repulsion > 0 and math.isfinite(repulsion)):
        raise ValueError("repulsion must be finite and > 0")


def check_max_passes(max_passes: int) -> None:
    check_int("max_passes", max_passes)
    if max_passes < 1:
        raise ValueError("max_passes must be >= 1")


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


@dataclass(slots=True)
class ClusterSummary:
    """Incremental (occurrence map, S, W, N) statistics of one cluster.

    add() and remove() are exact integer updates; removing a transaction and
    re-adding it restores the summary bit-for-bit.
    """

    occ: dict[ItemId, int] = field(default_factory=dict)
    occurrences: int = 0
    members: int = 0

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
        occ: dict[ItemId, int] = {}
        total = 0
        count = 0
        for t in transactions:
            for item in t.items:
                occ[item] = occ.get(item, 0) + 1
            total += len(t.items)
            count += 1
        return cls(occ, total, count)


def profit(summaries: Iterable[ClusterSummary], repulsion: float) -> float:
    """Global clustering quality over live clusters.

    Summation follows the given iteration order; callers wanting
    reproducible floats should pass clusters in a fixed order.
    """
    check_repulsion(repulsion)
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
    ``moves_per_pass[i]`` counts the transactions refinement pass i + 1
    moved. ``placements_per_pass[i]`` counts the placements of pass i that
    scored every cluster meeting a sparse index row or missing a dense one
    because the transaction had no earlier placement (all n in pass 0) or
    its home's delta fell below the one that won it. A placement whose
    change log grew by k or more entries since also scores every such
    cluster but is not counted; the others stayed in O(1) or scored only
    the clusters changed since.
    """

    assignment: list[int]
    clusters: dict[int, ClusterSummary]
    k: int
    profit: float
    profit_per_pass: list[float]
    passes: int
    moves_per_pass: list[int]
    placements_per_pass: list[int]
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
    """Incremental CLOPE state and the placement rule over it (see the
    module docstring for why each shortcut is exact).

    - ``pw[w] == w**r`` and ``fresh[s] == _gain(s, s, 1)``;
    - ``past[w]`` is ``(w**r, None)``, or ``(None, r * log(w))`` where
      ``w**r`` overflows, for each width past ``pw`` used so far;
    - ``index[item]`` maps each live cluster holding ``item`` to its count;
    - ``stats[cid]`` is ``(S, W, N + 1, G)`` of each live cluster, in
      ascending id, G its gain;
    - ``missing[item]`` is the set of live clusters that dense row
      ``index[item]`` lacks, for rows read since they last became dense;
    - ``disjoint[(s, q)][cid]`` is ``(S+s) / pw[W+q] * (N+1) - G`` of each
      live cluster, -inf at a deleted id;
    - ``tops[(s, q)]`` is the id of that column's first maximum, or -1;
    - ``next_id`` is the number of ids handed out, the next fresh id;
    - ``changes`` logs the id of the cluster each ``add`` and ``remove``
      changes;
    - ``scored`` counts the placements ``Clustering.placements_per_pass``
      counts.
    """

    def __init__(self, m: int, repulsion: float) -> None:
        self.r = repulsion
        # clusters are never wider than m; wider or overflowing widths take
        # _gain_past
        self.pw = _powers(m + 1, repulsion)
        # a fresh cluster's delta per transaction size s, _gain(s, s, 1)
        self.fresh = [s / p if s else 0.0 for s, p in enumerate(self.pw)]
        self.fresh += [_gain(s, s, 1, repulsion) for s in range(len(self.pw), m + 1)]
        self.past: dict[int, tuple] = {}
        self.index: list[dict[int, int]] = [{} for _ in range(m)]
        self.stats: dict[int, tuple[int, int, int, float]] = {}
        self.disjoint: dict[tuple[int, int], list[float]] = {}
        self.tops: dict[tuple[int, int], int] = {}
        self.missing: dict[int, set[int]] = {}
        self.next_id = 0
        self.changes: list[int] = []
        self.scored = 0

    def best(self, items: tuple[ItemId, ...], home: int | None = None,
             since: int = -1, won: float = 0.0) -> tuple[int | None, float]:
        """The id of the cluster that transaction t, whose row is ``items``,
        should join, or None for a fresh one, and the delta that won.

        ``home``, the cluster that holds t in refinement, is the baseline
        and wins ties; among the other clusters the greatest delta wins, and
        the lowest id among equal ones; a fresh cluster must beat them all.
        ``since`` is ``len(changes)`` right after t's last placement, which
        put it in ``home`` with delta ``won``, or -1 if there was none.
        """
        if since == len(self.changes):
            return home, won
        s = len(items)
        fresh = self.fresh[s]
        stats = self.stats
        k = len(stats)
        if not k:
            # every row is empty, and so sparse: t opens a cluster
            self.scored += 1
            return None, fresh
        dense = k >> _DENSE_SHIFT
        index = self.index
        missing = self.missing
        sparse, gaps = [], []
        ones = 0  # items that t alone holds in its home
        for item in items:
            row = index[item]
            if row.get(home) == 1:
                ones += 1
            if len(row) <= dense:
                sparse.append(row)
            else:
                gap = missing.get(item)
                if gap is None:
                    gap = missing[item] = stats.keys() - row.keys()
                if gap:
                    gaps.append(gap)
        floor = fresh
        if home is not None:
            # the home's delta: its gain less the gain it would have without t
            S, W, N1, G = stats[home]
            home_delta = G - _gain(S - s, W - ones, N1 - 2, self.r)
            if home_delta < won:
                since = -1
            if home_delta > floor:
                floor = home_delta
        q = len(sparse)
        shared, missed = sparse, gaps
        if since < 0:
            self.scored += 1
        elif len(self.changes) - since < k:
            changed = set(self.changes[since:])
            shared = [row.keys() & changed for row in sparse]
            missed = [gap & changed for gap in gaps]
        # overlaps in the sparse rows less the dense rows missed, for the
        # clusters to score
        ov: dict[int, int] = {}
        _count_elements(ov, itertools.chain.from_iterable(shared))
        for gap in missed:
            for cid in gap:
                ov[cid] = ov.get(cid, 0) - 1
        ov.pop(home, None)
        # the overlap bound: below the floor, column (s, q-1) rules out every
        # cluster of overlap at most 1
        bounded = False
        if q:
            column, top_cid = self._column(s, q - 1)
            bounded = column[top_cid] < floor
        best_cid, best = None, -math.inf
        pw = self.pw
        npw = len(pw)
        for cid, o in ov.items():
            if bounded and o < 2:
                continue
            S, W, N1, G = stats[cid]
            w = W + q - o
            if w < npw:
                d = (S + s) / pw[w] * N1 - G
            else:
                d = self._gain_past(S + s, w, N1) - G
            if d > best or d == best and cid < best_cid:
                best, best_cid = d, cid

        if not bounded:
            # every unscored cluster through the column maximum
            column, top_cid = self._column(s, q)
            top = column[top_cid]
            if top_cid == home or gaps and any(top_cid in gap for gap in gaps):
                # the hold-out: an uncached rescan without the entries that
                # may exceed their clusters' deltas
                held = {cid: column[cid] for gap in gaps for cid in gap}
                if home is not None:
                    held[home] = column[home]
                for cid in held:
                    column[cid] = -math.inf
                top = max(column)
                top_cid = column.index(top)
                for cid, d in held.items():
                    column[cid] = d
            if top > -math.inf and (top > best or top == best and top_cid < best_cid):
                best, best_cid = top, top_cid
        if home is not None and home_delta >= best:
            best, best_cid = home_delta, home
        if fresh > best:
            return None, fresh
        return best_cid, best

    def _column(self, s: int, q: int) -> tuple[list[float], int]:
        """Column ``disjoint[(s, q)]`` and the id of its first maximum,
        opening the column and rescanning its maximum as needed."""
        key = s, q
        column = self.disjoint.get(key)
        if column is None:
            column = self.disjoint[key] = [-math.inf] * self.next_id
            pw = self.pw
            npw = len(pw)
            for cid, (S, W, N1, G) in self.stats.items():
                w = W + q
                if w < npw:
                    column[cid] = (S + s) / pw[w] * N1 - G
                else:
                    column[cid] = self._gain_past(S + s, w, N1) - G
            self.tops[key] = -1
        top_cid = self.tops[key]
        if top_cid < 0:
            top_cid = self.tops[key] = column.index(max(column))
        return column, top_cid

    def add(self, cid: int, items: tuple[ItemId, ...]) -> None:
        """Add a transaction to a live cluster, or to a fresh one if ``cid``
        is ``next_id``."""
        self.changes.append(cid)
        index = self.index
        missing = self.missing
        if cid not in self.stats:
            self.stats[cid] = (0, 0, 1, 0.0)
            self.next_id += 1
            for column in self.disjoint.values():
                column.append(-math.inf)
            # the newborn misses every row, and one more cluster may leave a
            # row no longer dense
            dense = len(self.stats) >> _DENSE_SHIFT
            for item in list(missing):
                if len(index[item]) > dense:
                    missing[item].add(cid)
                else:
                    del missing[item]
        S, W, N1, _ = self.stats[cid]
        for item in items:
            row = index[item]
            if cid in row:
                row[cid] += 1
            else:
                row[cid] = 1
                W += 1
                if item in missing:
                    missing[item].remove(cid)
        self._restat(cid, S + len(items), W, N1 + 1)

    def remove(self, cid: int, items: tuple[ItemId, ...]) -> None:
        self.changes.append(cid)
        S, W, N1, _ = self.stats[cid]
        index = self.index
        missing = self.missing
        dense = len(self.stats) >> _DENSE_SHIFT
        if N1 == 2:
            # t is the cluster's only member, so it holds each item once,
            # and the cluster dies: it leaves every complement but its rows'
            del self.stats[cid]
            for item in items:
                row = index[item]
                del row[cid]
                if item in missing and len(row) <= dense:
                    del missing[item]
            for gap in missing.values():
                gap.discard(cid)
            tops = self.tops
            for key, column in self.disjoint.items():
                column[cid] = -math.inf
                if tops[key] == cid:
                    tops[key] = -1
            return
        for item in items:
            row = index[item]
            count = row[cid]
            if count == 1:
                del row[cid]
                W -= 1
                if item in missing:
                    if len(row) > dense:
                        missing[item].add(cid)
                    else:
                        del missing[item]
            else:
                row[cid] = count - 1
        self._restat(cid, S - len(items), W, N1 - 1)

    def _restat(self, cid: int, S: int, W: int, N1: int) -> None:
        G = _gain(S, W, N1 - 1, self.r)
        self.stats[cid] = (S, W, N1, G)
        pw = self.pw
        npw = len(pw)
        tops = self.tops
        for key, column in self.disjoint.items():
            s, q = key
            w = W + q
            if w < npw:
                d = (S + s) / pw[w] * N1 - G
            else:
                d = self._gain_past(S + s, w, N1) - G
            top = tops[key]
            if top == cid:
                if d < column[cid]:
                    tops[key] = -1
            elif top >= 0 and (d > column[top] or d == column[top] and cid < top):
                tops[key] = cid
            column[cid] = d

    def _gain_past(self, occurrences: int, width: int, members: int) -> float:
        """``_gain(occurrences, width, members, r)`` for a width past ``pw``
        and members > 0. Each such width's ``width**r``, or ``r * log(width)``
        where the power overflows, is computed once and kept in ``past``."""
        past = self.past.get(width)
        if past is None:
            try:
                past = self.past[width] = width**self.r, None
            except OverflowError:
                past = self.past[width] = None, self.r * math.log(width)
        power, log_power = past
        if log_power is None:
            return occurrences / power * members
        return math.exp(math.log(occurrences) - log_power + math.log(members))

    def profit(self, n: int) -> float:
        """Gains summed left to right in ascending id, over n, as ``profit`` sums."""
        numerator = 0.0
        for *_, G in self.stats.values():
            numerator += G
        return numerator / n

    def summaries(self) -> dict[int, ClusterSummary]:
        """The ClusterSummary of each live cluster, in ascending id."""
        summaries = {cid: ClusterSummary({}, S, N1 - 1)
                     for cid, (S, _, N1, _) in self.stats.items()}
        for item, row in enumerate(self.index):
            for cid, count in row.items():
                summaries[cid].occ[item] = count
        return summaries


def clope_cluster(
    db: TransactionDatabase,
    repulsion: float = 1.5,
    max_passes: int = 20,
) -> Clustering:
    """Cluster a database by iterative profit maximization.

    Pass 0, the add phase, places every transaction, and passes 1 to
    ``max_passes`` refine by the same placement, from each transaction's
    home. Refinement stops after a pass with zero moves, or at ``max_passes``
    (a safety valve; hitting it is reported via ``hit_max_passes``). Empty
    clusters are collected immediately. The reported profit sequence is
    non-decreasing.
    """
    check_repulsion(repulsion)
    check_max_passes(max_passes)
    if db.n == 0:
        raise ValueError("cannot cluster an empty database")
    rows = db.rows
    if not all(rows):
        raise ValueError(f"transaction {rows.index(())} is empty; cleanse before clustering")

    placer = _Placer(db.m, repulsion)
    # No transaction has a home before pass 0, the add phase.
    assignment: list[int | None] = [None] * db.n
    profits: list[float] = []
    moves_per_pass: list[int] = []
    placements: list[int] = []
    seconds: list[float] = []
    # len(placer.changes) and the delta that won right after each one's
    # last placement, unboxed
    since = array("q", [-1]) * db.n
    won = array("d", [0.0]) * db.n

    for pass_ in range(max_passes + 1):
        started = time.perf_counter()
        moves = 0
        scored = placer.scored
        for tid, row in enumerate(rows):
            home = assignment[tid]
            cid, won[tid] = placer.best(row, home, since[tid], won[tid])
            if cid is None:
                cid = placer.next_id
            if cid != home:
                if home is not None:
                    placer.remove(home, row)
                placer.add(cid, row)
                assignment[tid] = cid
                moves += 1
            since[tid] = len(placer.changes)
        placements.append(placer.scored - scored)
        profits.append(placer.profit(db.n))
        seconds.append(time.perf_counter() - started)
        if pass_:
            moves_per_pass.append(moves)
            if profits[-1] < profits[-2] - PROFIT_RTOL * max(1.0, abs(profits[-2])):
                raise RuntimeError(
                    f"profit decreased across pass {pass_}: {profits[-2]} -> {profits[-1]}"
                )
        if moves == 0:
            break

    # Dense, order-stable cluster ids: renumber by smallest member tid.
    renumber = {cid: new for new, cid in enumerate(dict.fromkeys(assignment))}
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
        placements_per_pass=placements,
        hit_max_passes=moves_per_pass[-1] > 0,
        seconds_add=seconds[0],
        seconds_refine=sum(seconds[1:]),
    )


def recompute_profit(
    db: TransactionDatabase,
    assignment: Sequence[int],
    repulsion: float,
) -> float:
    """Naive from-scratch profit of an assignment, independent of the
    incremental machinery; the verification twin of clope_cluster's value."""
    check_repulsion(repulsion)
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
    lexicographic order (labels numbered by first appearance), for n >= 1."""
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

    Refuses a repulsion as ``clope_cluster`` does, a non-int
    ``max_transactions`` and databases beyond it (Bell-number growth). Ties
    resolve to the lexicographically smallest restricted-growth encoding.
    Returns (clusters as tid lists ordered by smallest member, profit).
    """
    check_repulsion(repulsion)
    check_int("max_transactions", max_transactions)
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
