import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import letters_db, random_db
from txcleanse import (
    ClusterSummary,
    SyntheticSpec,
    TransactionDatabase,
    brute_force_best,
    clope_cluster,
    database_from_items,
    delta_add,
    generate_synthetic,
    profit,
    recompute_profit,
)
from reference_clope import best_home, reference_cluster
from txcleanse.clope import _gain, _partitions, _Placer, _powers


class TestPartitions:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 15), (8, 4140)])
    def test_counts_match_bell_numbers(self, n, count):
        parts = list(_partitions(n))
        assert len(parts) == count
        assert len(set(parts)) == count
        assert parts == sorted(parts)  # lexicographic enumeration

    def test_labels_are_restricted_growth(self):
        for labels in _partitions(5):
            assert labels[0] == 0
            for i in range(1, 5):
                assert labels[i] <= max(labels[:i]) + 1


class TestClusterSummary:
    def test_add_remove_restores_exactly(self):
        db = database_from_items([["a", "b"], ["b", "c"], ["a", "b"]])
        summary = ClusterSummary()
        for t in db:
            summary.add(t)
        snapshot = (dict(summary.occ), summary.occurrences, summary.members)
        extra = db.transactions[1]
        summary.remove(extra)
        summary.add(extra)
        assert (summary.occ, summary.occurrences, summary.members) == snapshot

    def test_statistics(self):
        db = database_from_items([["a", "b"], ["a", "b"]])
        summary = ClusterSummary.from_transactions(db.transactions)
        assert summary.occurrences == 4
        assert summary.width == 2
        assert summary.members == 2
        assert summary.occ == {0: 2, 1: 2}

    @given(st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=5),
                    min_size=1, max_size=12),
           st.data())
    def test_random_add_remove_matches_rebuild(self, sets, data):
        db = database_from_items([[f"i{x}" for x in s] for s in sets])
        summary = ClusterSummary()
        inside = []
        for t in db:
            summary.add(t)
            inside.append(t)
        removals = data.draw(st.sets(st.integers(0, len(inside) - 1),
                                     max_size=len(inside)))
        for tid in sorted(removals, reverse=True):
            summary.remove(inside[tid])
        kept = [t for t in inside if t.tid not in removals]
        assert summary == ClusterSummary.from_transactions(kept)


class TestProfit:
    def test_single_transaction_cluster(self):
        db = database_from_items([["a", "b"]])
        summary = ClusterSummary.from_transactions(db.transactions)
        assert profit([summary], 1.0) == pytest.approx(1.0)

    def test_stacked_identical_transactions(self):
        db = database_from_items([["a", "b"], ["a", "b"]])
        summary = ClusterSummary.from_transactions(db.transactions)
        assert profit([summary], 1.0) == pytest.approx(2.0)

    def test_two_singleton_clusters(self):
        db = database_from_items([["a", "b"], ["c", "d"]])
        summaries = [ClusterSummary.from_transactions([t]) for t in db]
        assert profit(summaries, 1.0) == pytest.approx(1.0)

    def test_empty_clustering_undefined(self):
        with pytest.raises(ValueError, match="undefined|empty"):
            profit([], 1.0)

    def test_dead_cluster_rejected(self):
        with pytest.raises(ValueError):
            profit([ClusterSummary()], 1.0)

    def test_huge_repulsion_does_not_overflow(self):
        db = database_from_items([[f"i{j}" for j in range(50)]])
        summary = ClusterSummary.from_transactions(db.transactions)
        value = profit([summary], 250.0)
        assert value >= 0.0
        assert math.isfinite(value)
        assert _gain(50, 50, 1, 250.0) == pytest.approx(value)


class TestDeltaAdd:
    def test_into_empty_cluster(self):
        db = database_from_items([["a", "b"]])
        (t,) = db.transactions
        assert delta_add(ClusterSummary(), t, 1.0) == pytest.approx(1.0)

    def test_stacking_identical(self):
        db = database_from_items([["a", "b"], ["a", "b"]])
        t1, t2 = db.transactions
        summary = ClusterSummary.from_transactions([t1])
        assert delta_add(summary, t2, 1.0) == pytest.approx(3.0)

    def test_disjoint_ties_new_cluster_at_r1(self):
        db = database_from_items([["a", "b"], ["c", "d"]])
        t1, t2 = db.transactions
        summary = ClusterSummary.from_transactions([t1])
        assert delta_add(summary, t2, 1.0) == pytest.approx(1.0)


class TestClopeCluster:
    def test_identical_pair_merges(self):
        for r in (1.0, 1.5, 2.0):
            db = database_from_items([["a", "b"], ["a", "b"]])
            result = clope_cluster(db, r)
            assert result.k == 1
            assert result.assignment == [0, 0]
        result = clope_cluster(database_from_items([["a", "b"], ["a", "b"]]), 1.0)
        assert result.profit == pytest.approx(2.0)

    def test_disjoint_pair_tie_breaks_to_existing_cluster(self):
        db = database_from_items([["a", "b"], ["c", "d"]])
        result = clope_cluster(db, 1.0)
        # join ties new-cluster creation at r=1; existing cluster preferred
        assert result.assignment == [0, 0]
        assert result.profit == pytest.approx(1.0)

    def test_cleansed_noise_example_two(self):
        db = letters_db("abcd", "cd", "qr", "opqr")
        result = clope_cluster(db, 1.5)
        assert result.assignment == [0, 0, 1, 1]
        assert result.profit == pytest.approx(0.75)
        partition, best = brute_force_best(db, 1.5)
        assert partition == [[0, 1], [2, 3]]
        assert result.profit == pytest.approx(best)
        single = recompute_profit(db, [0, 0, 0, 0], 1.5)
        assert result.profit >= single

    def test_parameter_errors(self):
        db = database_from_items([["a"]])
        with pytest.raises(ValueError):
            clope_cluster(db, 1.5, max_passes=0)
        with pytest.raises(ValueError):
            clope_cluster(db, 0.0)
        with pytest.raises(ValueError):
            clope_cluster(database_from_items([]), 1.5)

    def test_empty_transaction_rejected(self):
        db = TransactionDatabase(("a",), ((0,), ()), (None, None))
        with pytest.raises(ValueError, match="transaction 1 is empty"):
            clope_cluster(db, 1.5)

    def test_determinism(self):
        rng = random.Random(99)
        db = random_db(rng, max_tx=60, max_vocab=20)
        first = clope_cluster(db, 1.5)
        second = clope_cluster(db, 1.5)
        assert first.assignment == second.assignment
        assert first.profit == second.profit
        assert first.profit_per_pass == second.profit_per_pass

    def test_cluster_ids_dense_and_ordered_by_first_member(self):
        rng = random.Random(5)
        for _ in range(20):
            db = random_db(rng, max_tx=30, max_vocab=10)
            result = clope_cluster(db, 1.5)
            seen = []
            for cid in result.assignment:
                if cid not in seen:
                    seen.append(cid)
            assert seen == list(range(result.k))
            assert set(result.clusters) == set(range(result.k))

    def test_max_passes_cap_is_reported(self):
        r2 = random.Random(267459)
        n = r2.randint(3, 10)
        vocab = r2.randint(3, 8)
        db = database_from_items(
            [[f"i{r2.randrange(vocab)}" for _ in range(r2.randint(1, 4))]
             for _ in range(n)]
        )
        free = clope_cluster(db, 1.5, max_passes=50)
        assert free.moves_per_pass[0] > 0
        assert free.passes >= 2
        assert not free.hit_max_passes
        capped = clope_cluster(db, 1.5, max_passes=1)
        assert capped.passes == 1
        assert capped.hit_max_passes
        assert capped.profit <= free.profit + 1e-12

    def test_summaries_match_rebuild(self):
        rng = random.Random(17)
        for _ in range(25):
            db = random_db(rng, max_tx=50, max_vocab=15)
            result = clope_cluster(db, rng.choice([1.0, 1.5, 2.0, 2.6]))
            assert result.k == len(result.clusters)
            for cid, summary in result.clusters.items():
                members = [db.transactions[tid] for tid in result.members_of(cid)]
                assert summary == ClusterSummary.from_transactions(members)

    def test_profit_matches_naive_recomputation(self):
        rng = random.Random(23)
        for _ in range(25):
            db = random_db(rng, max_tx=50, max_vocab=15)
            r = rng.choice([1.0, 1.5, 2.0])
            result = clope_cluster(db, r)
            naive = recompute_profit(db, result.assignment, r)
            assert result.profit == pytest.approx(naive, rel=1e-9)

    def test_profit_non_decreasing_across_passes(self):
        rng = random.Random(31)
        for _ in range(30):
            db = random_db(rng, max_tx=80, max_vocab=25)
            result = clope_cluster(db, rng.choice([1.0, 1.5, 2.0]))
            for before, after in zip(result.profit_per_pass, result.profit_per_pass[1:]):
                assert after >= before - 1e-9 * max(1.0, abs(before))


class TestPlacementRule:
    """Refinement tie-breaks: the cluster a transaction just left is the
    baseline, other clusters take over only on a strictly greater delta, and
    an emptied singleton is kept under its own id without counting a move."""

    def test_home_wins_a_tie_with_a_lower_id_cluster(self):
        db = letters_db("c", "ad", "d", "cd", "a")
        # When "d" is re-placed, its home {ad, a} and the lower-id cluster
        # {c, cd} have equal S, W and N, so both offer the same delta.
        d = db.transactions[2]
        home = ClusterSummary.from_transactions([db.transactions[1], db.transactions[4]])
        lower = ClusterSummary.from_transactions([db.transactions[0], db.transactions[3]])
        assert delta_add(home, d, 2.0) == delta_add(lower, d, 2.0)
        result = clope_cluster(db, 2.0)
        assert result.assignment == [0, 1, 1, 0, 1]
        assert result.moves_per_pass == [0]

    def test_emptied_singleton_stays_without_a_move(self):
        result = clope_cluster(letters_db("ab", "cd"), 2.0)
        assert result.assignment == [0, 1]
        assert result.moves_per_pass == [0]
        assert not result.hit_max_passes

    def test_emptied_singleton_keeps_its_id(self):
        db = letters_db("c", "de", "cd", "c", "bc")
        # In pass 1 the singleton {de} (id 1) is re-placed into itself; then
        # "cd" ties between {de} and {bc} (id 2) and joins the lower id.
        # Were {de} re-created under a fresh id, "cd" would join {bc}, and
        # the moves would read [1, 1, 0].
        de, cd, bc = db.transactions[1], db.transactions[2], db.transactions[4]
        assert delta_add(ClusterSummary.from_transactions([de]), cd, 1.5) == delta_add(
            ClusterSummary.from_transactions([bc]), cd, 1.5
        )
        result = clope_cluster(db, 1.5)
        assert result.assignment == [0, 1, 1, 0, 1]
        assert result.moves_per_pass == [2, 0]

    def test_integer_outputs_digest(self):
        # sha256 of (assignment, moves_per_pass, k) over 300 seeded random
        # databases; any change to the placement rule or scan order moves it.
        rng = random.Random(2002)
        rows = []
        for _ in range(300):
            db = random_db(rng, max_tx=40, max_vocab=rng.choice([4, 12, 30]))
            result = clope_cluster(db, rng.choice([0.5, 1.0, 1.5, 2.0, 2.6]),
                                   rng.choice([1, 2, 3, 20]))
            rows.append([result.assignment, result.moves_per_pass, result.k])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "8bef4dfb842af0644bfc674a73ad52d2dad4021c73bedfc928dca9a51b40f314"


def _outputs(result):
    return (result.assignment, result.moves_per_pass, result.k, result.hit_max_passes,
            [p.hex() for p in result.profit_per_pass], result.profit.hex())


def _assert_matches_reference(db, r, max_passes):
    result = clope_cluster(db, r, max_passes)
    reference = reference_cluster(db, r, max_passes)
    assert _outputs(result) == _outputs(reference)
    assert result.profit.hex() == result.profit_per_pass[-1].hex()
    assert result.clusters == reference.clusters
    for cid, summary in result.clusters.items():
        members = [db.transactions[tid] for tid in result.members_of(cid)]
        assert summary == ClusterSummary.from_transactions(members)


class TestKernelParity:
    """clope_cluster against the per-cluster delta_add scan, bit for bit."""

    def test_random_databases(self):
        rng = random.Random(6006)
        for _ in range(3000):
            db = random_db(rng, max_tx=rng.choice([10, 40, 80]),
                           max_vocab=rng.choice([4, 12, 30]), max_size=rng.choice([6, 14]))
            _assert_matches_reference(db, rng.choice([0.5, 1.0, 1.5, 2.0, 2.6, 300.0]),
                                      rng.choice([1, 2, 3, 20]))

    @pytest.mark.parametrize("r", [300.0, 300])
    def test_widths_past_the_power_table(self, r):
        # 11**300.0 overflows a float, so widths from 11 on take _gain's
        # exp/log path, where the gains of widths 11 and 12 are subnormal but
        # still decide placements; an int r gives exact int powers instead.
        rng = random.Random(11)
        vocab = [f"i{j}" for j in range(12)]
        for _ in range(20):
            db = database_from_items(
                [rng.sample(vocab, rng.randint(9, 12)) for _ in range(rng.randint(3, 40))]
            )
            assert len(_powers(db.m + 1, 300.0)) == 11
            for max_passes in (1, 20):
                _assert_matches_reference(db, r, max_passes)

    @pytest.mark.parametrize("r", [300.0, 300])
    def test_disjoint_columns_equal_delta_add(self, r):
        # disjoint[s][slot] is the delta of a size-s transaction that shares
        # no item with the slot's cluster. Cluster widths run up to 12 and
        # sizes to 12, so at r=300.0 the widths from 11 on, past the power
        # table, take _gain's exp/log path.
        rng = random.Random(300)
        vocab = [f"i{j}" for j in range(12)]
        rows = [rng.sample(vocab, rng.randint(1, 12)) for _ in range(40)]
        db = database_from_items(rows + [[f"o{j}" for j in range(s)] for s in range(1, 13)])
        members = db.transactions[:len(rows)]
        outside = {len(t.items): t for t in db.transactions[len(rows):]}
        placer = _Placer(db.m, outside, r)
        assert len(placer.pw) == (11 if isinstance(r, float) else db.m + 1)
        homes = []
        for t in members:
            cid = rng.randint(0, len(placer.cids))
            placer.add(cid, t.items)
            homes.append(cid)
        for i in range(0, len(members), 3):
            placer.remove(homes[i], members[i].items)
            homes[i] = None
        assert len(placer.index) == db.m
        assert all(all(row.values()) for row in placer.index)
        summaries = placer.summaries()
        for s, t in outside.items():
            assert placer.disjoint[s] == [
                delta_add(summaries[cid], t, r) for cid in placer.cids
            ]
        assert list(summaries) == placer.cids == sorted(set(homes) - {None})
        for cid, summary in summaries.items():
            kept = [t for t, home in zip(members, homes) if home == cid]
            assert summary == ClusterSummary.from_transactions(kept)

    def test_home_is_kept_out_of_the_disjoint_maximum(self):
        # The home's disjoint delta (t added to it a second time) would beat
        # the true best at r=0.5 here.
        db = letters_db("ea", "a", "eb", "eab", "ab", "e", "b", "a", "ead", "c", "e", "eabd",
                        "a", "bd")
        _assert_matches_reference(db, 0.5, 20)

    def test_disjoint_cluster_wins_a_tie_with_a_higher_id_overlapping_one(self):
        # At r=1 the singleton {pq} (id 0), which shares no item with t, and
        # {x, x} (id 1), which shares x, both offer t exactly 1.0, as does a
        # fresh cluster: the lower id takes t.
        db = letters_db("pq", "x", "x", "xab")
        *members, t = db.transactions
        placer = _Placer(db.m, {1, 2, 3}, 1.0)
        for cid, member in zip((0, 1, 1), members):
            placer.add(cid, member.items)
        summaries = placer.summaries()
        assert [delta_add(summaries[cid], t, 1.0) for cid in (0, 1)] == [1.0, 1.0]
        assert placer.best(t.items) == best_home(summaries, t, 1.0) == 0

    @pytest.mark.parametrize("seed, r", [(5, 1.5), (6, 2.0), (7, 2.6)])
    def test_hub_heavy_synthetic(self, seed, r):
        # Hubs sit in nine of ten transactions, so their index rows hold
        # nearly every cluster; a few hundred transactions keep cached column
        # maxima alive across many placements and moves.
        spec = SyntheticSpec(transactions=300, clusters=10, items_per_cluster=10,
                             picks_per_transaction=5, noise_rate=0.3, ubiquitous_items=5,
                             ubiquity=0.9, seed=seed)
        db, _ = generate_synthetic(spec)
        _assert_matches_reference(db, r, 20)

    @pytest.mark.parametrize("r", [0.5, 1.5, 300.0, 300])
    def test_hubs_in_every_row(self, r):
        # Every transaction holds the three hubs, so their index rows hold
        # every live cluster at every placement after the first, and each
        # placement takes the full-row scan.
        spec = SyntheticSpec(transactions=200, clusters=8, items_per_cluster=10,
                             picks_per_transaction=5, noise_rate=0.3, ubiquitous_items=3,
                             ubiquity=1.0, seed=18)
        db, _ = generate_synthetic(spec)
        hubs = [db.strings.index(f"hub{h:02d}") for h in range(3)]
        assert all(set(hubs) <= set(row) for row in db.rows)
        for max_passes in (1, 20):
            _assert_matches_reference(db, r, max_passes)

    @pytest.mark.parametrize("r", [0.5, 1.5, 300.0, 300])
    def test_random_databases_with_an_item_in_every_row(self, r):
        # The wide databases hold 9 to 12 items per row, the hub included,
        # so that at r=300.0 the widths from 11 on, past the power table,
        # decide placements in the full-row scan.
        rng = random.Random(1818)
        vocab = [f"i{j}" for j in range(12)]
        for _ in range(60):
            db = random_db(rng, max_tx=rng.choice([10, 40]), max_vocab=rng.choice([4, 12]),
                           max_size=rng.choice([6, 14]))
            narrow = [[*map(db.strings.__getitem__, row), "hub"] for row in db.rows]
            wide = [rng.sample(vocab, rng.randint(8, 11)) + ["hub"]
                    for _ in range(rng.randint(3, 40))]
            for rows in (narrow, wide):
                for max_passes in (1, 20):
                    _assert_matches_reference(database_from_items(rows), r, max_passes)


def _assert_tops_are_first_maxima(placer):
    for s, column in placer.disjoint.items():
        top = placer.tops[s]
        assert top == -1 or top == column.index(max(column)), s


class TestCachedMaxima:
    """``tops[s]`` caches the slot of the first maximum of ``disjoint[s]``,
    or -1 when unknown; ``best`` fills it and every update keeps it exact."""

    @pytest.mark.parametrize("r", [1.5, 300.0])
    def test_random_adds_and_removals_keep_tops_exact(self, r):
        # Every row occurs twice, so clusters of equal S, W and N put tied
        # entries in the columns. Cluster widths and sizes run up to 12, so at
        # r=300.0 the widths from 11 on take _gain's exp/log path.
        rng = random.Random(13)
        vocab = [f"i{j}" for j in range(12)]
        rows = [rng.sample(vocab, rng.randint(1, 12)) for _ in range(20)]
        db = database_from_items(rows * 2 + [[f"o{j}" for j in range(s)] for s in range(1, 13)])
        members = db.transactions[:2 * len(rows)]
        outside = db.transactions[2 * len(rows):]
        placer = _Placer(db.m, range(1, 13), r)
        homes = [None] * len(members)
        fresh = itertools.count()
        seen = Counter()
        for _ in range(800):
            i = rng.randrange(len(members))
            t, home = members[i], homes[i]
            if home is None:
                homes[i] = rng.choice(placer.cids + [next(fresh)])
                placer.add(homes[i], t.items)
            else:
                slot = placer.cids.index(home)
                deleted = homes.count(home) == 1
                before = dict(placer.tops)
                placer.remove(home, t.items)
                homes[i] = None
                for s, top in before.items():
                    if deleted and top == slot:
                        seen["top cluster deleted"] += 1
                    elif deleted and top > slot:
                        seen["deleted below the top"] += 1
                    elif top == slot and placer.tops[s] == -1:
                        seen["top entry fell"] += 1
            _assert_tops_are_first_maxima(placer)

            summaries = placer.summaries()
            probe = rng.choice(outside)
            assert placer.best(probe.items) == best_home(summaries, probe, r)
            placed = [j for j, cid in enumerate(homes) if cid is not None]
            if placed:
                j = rng.choice(placed)
                summaries[homes[j]].remove(members[j])
                assert placer.best(members[j].items, homes[j]) == best_home(
                    summaries, members[j], r, homes[j])
            _assert_tops_are_first_maxima(placer)
            for s, column in placer.disjoint.items():
                top = placer.tops[s]
                if top >= 0 and column.count(column[top]) > 1:
                    seen["tied top"] += 1
        assert set(seen) == {"top cluster deleted", "deleted below the top", "top entry fell",
                             "tied top"}, seen

    def test_home_holding_the_cached_top_is_held_out(self):
        # At r=0.5 the home {cf} holds the greatest size-2 entry; held out,
        # the first maximum is {a} (id 0), tied with {a} (id 1), and t, which
        # shares no item with either, joins id 0.
        db = letters_db("a", "a", "cf")
        t = db.transactions[2]
        placer = _Placer(db.m, {1, 2}, 0.5)
        for cid, member in enumerate(db.transactions):
            placer.add(cid, member.items)
        summaries = placer.summaries()
        summaries[2].remove(t)
        want = best_home(summaries, t, 0.5, 2)
        assert want == 0
        column = list(placer.disjoint[2])
        assert column.index(max(column)) == 2 and column[0] == column[1]
        for _ in range(2):
            # the first call caches the home's slot, the second reads it
            assert placer.best(t.items, 2) == want
            assert placer.tops[2] == 2
            assert placer.disjoint[2] == column


class TestFullRows:
    """An index row that holds every live cluster adds 1 to every overlap:
    ``best`` counts such rows once and scores every cluster but the home."""

    # Clusters 0, 1 and 2 all hold h, and only 0 and 1 hold n; x is in none.
    # All three have S=5, W=3 and N=2, so equal overlaps tie.
    MEMBERS = {0: ("hna", "ha"), 1: ("hnb", "hb"), 2: ("hc", "hac")}
    VOCAB = "hnabcx"

    def _subsets(self):
        return ["".join(c) for size in range(1, len(self.VOCAB) + 1)
                for c in itertools.combinations(self.VOCAB, size)]

    def test_first_placement_on_an_empty_placer(self):
        db = letters_db(*self._subsets())
        placer = _Placer(db.m, set(map(len, db.rows)), 1.5)
        for t in db.transactions:
            assert placer.best(t.items) is None
            assert best_home({}, t, 1.5) is None

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.6, 300.0])
    def test_every_subset_matches_the_reference(self, r):
        members = [m for cid in sorted(self.MEMBERS) for m in self.MEMBERS[cid]]
        db = letters_db(*members, *self._subsets())
        placer = _Placer(db.m, set(map(len, db.rows)), r)
        for cid, member in zip((0, 0, 1, 1, 2, 2), db.transactions):
            placer.add(cid, member.items)
        h, n = db.strings.index("h"), db.strings.index("n")
        assert len(placer.index[h]) == len(placer.stats) == 3
        assert sorted(placer.index[n]) == [0, 1]
        for t in db.transactions[len(members):]:
            assert placer.best(t.items) == best_home(placer.summaries(), t, r)
            for home in sorted(self.MEMBERS):
                placer.add(home, t.items)
                summaries = placer.summaries()
                summaries[home].remove(t)
                assert placer.best(t.items, home) == best_home(summaries, t, r, home), (t, home)
                placer.remove(home, t.items)
                _assert_tops_are_first_maxima(placer)


class TestTailExit:
    def test_pass_ends_after_its_last_move(self, monkeypatch):
        # Pass 1 moves only tid 1. Pass 2 re-places tids 0 and 1 without a
        # move; every later transaction stayed in pass 1 after the last move,
        # and nothing has changed since, so the pass ends there.
        db = letters_db("ce", "cfg", "eg", "bd", "d", "bd", "c", "a")
        calls = []
        best = _Placer.best

        def recording_best(self, row, home=None):
            cid = best(self, row, home)
            if home is not None:
                calls.append((row, cid != home))
            return cid

        monkeypatch.setattr(_Placer, "best", recording_best)
        result = clope_cluster(db, 1.5)
        assert result.moves_per_pass == [1, 0]
        # pass 1 re-places every transaction in tid order
        assert [row for row, _ in calls[:db.n]] == list(db.rows)
        last_move = max(tid for tid, (_, moved) in enumerate(calls[:db.n]) if moved)
        assert last_move == 1
        assert calls[db.n:] == [(db.rows[tid], False) for tid in range(last_move + 1)]
        _assert_matches_reference(db, 1.5, 20)


class TestBruteForce:
    def test_single_transaction(self):
        db = database_from_items([["a", "b", "c"]])
        partition, best = brute_force_best(db, 1.5)
        assert partition == [[0]]
        assert best == pytest.approx(3 / 3**1.5)

    def test_identical_pair_merged(self):
        db = database_from_items([["a", "b"], ["a", "b"]])
        partition, best = brute_force_best(db, 1.0)
        assert partition == [[0, 1]]
        assert best == pytest.approx(2.0)

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            brute_force_best(database_from_items([]), 1.5)

    def test_too_many_transactions_refused(self):
        db = database_from_items([[f"i{j}"] for j in range(11)])
        with pytest.raises(ValueError, match="refus"):
            brute_force_best(db, 1.5)

    def test_clope_never_beats_the_oracle(self):
        rng = random.Random(41)
        for _ in range(40):
            db = random_db(rng, max_tx=6, max_vocab=8, max_size=4)
            r = rng.choice([1.0, 1.5, 2.0])
            result = clope_cluster(db, r)
            _, best = brute_force_best(db, r)
            assert result.profit <= best * (1 + 1e-9) + 1e-12


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_non_positive_or_non_finite_repulsion_rejected(r):
    db = letters_db("ab", "bc")
    with pytest.raises(ValueError, match="repulsion"):
        clope_cluster(db, r)
    with pytest.raises(ValueError, match="repulsion"):
        profit([ClusterSummary.from_transactions(db.transactions)], r)
    with pytest.raises(ValueError, match="repulsion"):
        recompute_profit(db, [0, 0], r)
