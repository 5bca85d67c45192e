import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import letters_db, random_db
from txcleanse import (
    ClusterSummary,
    brute_force_best,
    clope_cluster,
    database_from_items,
    delta_add,
    profit,
    recompute_profit,
)
from txcleanse.clope import _gain, _partitions


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
        from txcleanse import ItemDictionary, Transaction, TransactionDatabase

        d = ItemDictionary()
        d.intern("a")
        db = TransactionDatabase(d, (Transaction(0, (0,)), Transaction(1, ())))
        with pytest.raises(ValueError, match="empty"):
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
