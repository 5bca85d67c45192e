"""Reference CLOPE loop: the per-cluster ``delta_add`` scan (test oracle).

``clope_cluster`` places a transaction through an item -> cluster index;
this module places it by scoring ``delta_add`` against every cluster in turn,
with the transaction taken out of its home first. Both must make the same
choice at every step, so their outputs are compared bit for bit.
"""

from __future__ import annotations

import itertools
import math

from txcleanse import ClusterSummary, Clustering, TransactionDatabase, delta_add, profit
from txcleanse.clope import _gain


def best_home(clusters: dict[int, ClusterSummary], t, repulsion: float,
              home: int | None = None) -> int | None:
    """The id of the cluster ``t`` should join, or None for a fresh one.

    ``home``, the cluster ``t`` was just removed from, is the baseline and
    wins ties; the other clusters are scanned in ascending id and take over
    only on a strictly greater delta; a fresh cluster must beat them all.
    """
    others = sorted(clusters)
    if home is None:
        best_cid, best_delta = None, -math.inf
    else:
        others.remove(home)
        best_cid, best_delta = home, delta_add(clusters[home], t, repulsion)
    for cid in others:
        d = delta_add(clusters[cid], t, repulsion)
        if d > best_delta:
            best_delta, best_cid = d, cid
    size = len(t.items)
    if _gain(size, size, 1, repulsion) > best_delta:
        return None
    return best_cid


def _profit_of(clusters: dict[int, ClusterSummary], repulsion: float) -> float:
    return profit([clusters[cid] for cid in sorted(clusters)], repulsion)


def reference_cluster(db: TransactionDatabase, repulsion: float,
                      max_passes: int = 20) -> Clustering:
    """``clope_cluster`` computed by the per-cluster scan (timings read 0)."""
    clusters: dict[int, ClusterSummary] = {}
    assignment = [0] * db.n
    fresh_ids = itertools.count()
    for t in db.transactions:
        cid = best_home(clusters, t, repulsion)
        if cid is None:
            cid = next(fresh_ids)
            clusters[cid] = ClusterSummary()
        clusters[cid].add(t)
        assignment[t.tid] = cid

    profits = [_profit_of(clusters, repulsion)]
    moves_per_pass: list[int] = []
    for _ in range(max_passes):
        moves = 0
        for t in db.transactions:
            home = assignment[t.tid]
            clusters[home].remove(t)
            cid = best_home(clusters, t, repulsion, home)
            if cid is None:
                cid = next(fresh_ids)
                clusters[cid] = ClusterSummary()
            if cid != home:
                moves += 1
                if clusters[home].members == 0:
                    del clusters[home]
            clusters[cid].add(t)
            assignment[t.tid] = cid
        moves_per_pass.append(moves)
        profits.append(_profit_of(clusters, repulsion))
        if moves == 0:
            break

    first_member: dict[int, int] = {}
    for tid, cid in enumerate(assignment):
        first_member.setdefault(cid, tid)
    renumber = {cid: new for new, cid in enumerate(sorted(first_member, key=first_member.get))}
    clusters = {renumber[cid]: summary for cid, summary in clusters.items()}
    return Clustering(
        assignment=[renumber[cid] for cid in assignment],
        clusters=clusters,
        k=len(clusters),
        profit=profits[-1],
        profit_per_pass=profits,
        passes=len(moves_per_pass),
        moves_per_pass=moves_per_pass,
        # every placement scores every cluster
        placements_per_pass=[db.n] * len(profits),
        hit_max_passes=moves_per_pass[-1] > 0,
        seconds_add=0.0,
        seconds_refine=0.0,
    )
