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
    Transaction,
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
from txcleanse.clope import _DENSE_SHIFT, _gain, _partitions, _Placer, _powers


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

    @pytest.mark.parametrize("max_passes", [1.5, 2.0, "2", None, True])
    def test_max_passes_must_be_an_int(self, max_passes):
        with pytest.raises(ValueError, match="max_passes must be an int"):
            clope_cluster(database_from_items([["a"]]), 1.5, max_passes)

    def test_profit_decrease_across_a_pass_is_refused(self, monkeypatch):
        # The kernel's profits never fall; if the placer's did, the run must
        # stop rather than report a falling sequence.
        profits = iter([2.0, 1.0])
        monkeypatch.setattr(_Placer, "profit", lambda self, n: next(profits))
        with pytest.raises(RuntimeError, match=r"profit decreased across pass 1: 2.0 -> 1.0"):
            clope_cluster(letters_db("ab", "cd"), 1.5)

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
    return result


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

    @pytest.mark.parametrize("r, overflows_from", [(300.0, 11), (300, 40), (1.5, 40)])
    def test_gain_past_the_power_table_equals_gain(self, r, overflows_from):
        # With m=5 the table holds widths 0-5. At r=300.0 widths 6-10 still
        # have a finite power and widths from 11 on overflow; each width's
        # power or r * log(w) is computed once, by its first score.
        placer = _Placer(5, r)
        assert len(placer.pw) == 6
        for width in range(6, 40):
            for occurrences, members in ((1, 1), (width, 1), (7 * width, 3), (10**6, 997)):
                gain = placer._gain_past(occurrences, width, members)
                assert gain.hex() == _gain(occurrences, width, members, r).hex()
        assert sorted(placer.past) == list(range(6, 40))
        overflowed = {w for w, (power, _) in placer.past.items() if power is None}
        assert overflowed == set(range(overflows_from, 40))

    @pytest.mark.parametrize("r", [300.0, 300])
    def test_disjoint_columns_equal_delta_add(self, r):
        # disjoint[(s, q)][cid] is the delta of a size-s transaction with q
        # sparse rows that meets cluster cid in each of its s - q dense rows
        # and in none of its sparse ones, and -inf once cid is deleted. Every
        # member holds the hubs h0-h2, so their rows are full and thus dense;
        # the o items are in no cluster, so their rows are empty and sparse.
        # Cluster widths run up to 15 and q to 12, so at r=300.0 the widths
        # from 11 on, past the power table, take _gain's exp/log path. Half
        # the columns open before the removals, half after.
        rng = random.Random(300)
        vocab = [f"i{j}" for j in range(12)]
        hubs = ["h0", "h1", "h2"]
        rows = [rng.sample(vocab, rng.randint(1, 12)) + hubs for _ in range(40)]
        probes = [hubs[:h] + [f"o{j}" for j in range(s - h)]
                  for s in range(1, 13) for h in range(min(s, 3) + 1)]
        db = database_from_items(rows + probes)
        members = db.transactions[:len(rows)]
        outside = {(len(t.items), len(t.items) - h): t
                   for t, h in zip(db.transactions[len(rows):],
                                   (sum(i in hubs for i in items) for items in probes))}
        placer = _Placer(db.m, r)
        assert len(placer.pw) == (11 if isinstance(r, float) else db.m + 1)
        homes = []
        for t in members:
            cid = rng.randint(0, placer.next_id)
            placer.add(cid, t.items)
            homes.append(cid)
        keys = sorted(outside)
        for key in keys[::2]:
            placer._column(*key)
        # every third member leaves, and so does every member of member 1's
        # cluster, which is thereby deleted
        gone = homes[1]
        for i, home in enumerate(homes):
            if i % 3 == 0 or home == gone:
                placer.remove(home, members[i].items)
                homes[i] = None
        for key in keys[1::2]:
            placer._column(*key)
        assert sorted(placer.disjoint) == keys
        assert len(placer.index) == db.m
        assert all(all(row.values()) for row in placer.index)
        summaries = placer.summaries()
        assert list(summaries) == list(placer.stats) == sorted(set(homes) - {None})
        dead = set(range(placer.next_id)) - set(summaries)
        assert dead
        for key, t in outside.items():
            assert placer.disjoint[key] == [
                -math.inf if cid in dead else delta_add(summaries[cid], t, r)
                for cid in range(placer.next_id)
            ], key
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
        placer = _Placer(db.m, 1.0)
        for cid, member in zip((0, 1, 1), members):
            placer.add(cid, member.items)
        summaries = placer.summaries()
        assert [delta_add(summaries[cid], t, 1.0) for cid in (0, 1)] == [1.0, 1.0]
        assert placer.best(t.items)[0] == best_home(summaries, t, 1.0) == 0

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
        # every live cluster at every placement after the first: each
        # placement reads them as dense rows that miss nothing.
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
        # decide placements that read the hub's full row as a dense one.
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


def _delta_of(summaries, t, r, cid):
    """The delta that cluster ``cid`` (None: a fresh one) offers ``t``."""
    size = len(t.items)
    return _gain(size, size, 1, r) if cid is None else delta_add(summaries[cid], t, r)


def _assert_tops_are_first_maxima(placer):
    assert placer.tops.keys() == placer.disjoint.keys()
    for key, column in placer.disjoint.items():
        assert len(column) == placer.next_id, key
        top = placer.tops[key]
        assert top == -1 or top == column.index(max(column)), key


class TestCachedMaxima:
    """``tops[(s, q)]`` caches the id of the first maximum of
    ``disjoint[(s, q)]``, or -1 when unknown; ``best`` fills it and every
    update keeps it exact."""

    @pytest.mark.parametrize("r", [1.5, 300.0])
    def test_random_adds_and_removals_keep_tops_exact(self, r):
        self._random_adds_and_removals(r, hubs=0)

    @pytest.mark.parametrize("r", [1.5, 300.0])
    def test_lazily_opened_full_row_columns_keep_tops_exact(self, r):
        # Every member holds both hubs, whose rows are therefore full, and
        # the probes hold up to both, so columns (s, q) with q < s open as
        # placements first read them, before and after removals.
        self._random_adds_and_removals(r, hubs=2)

    @staticmethod
    def _random_adds_and_removals(r, hubs):
        # Every row occurs twice, so clusters of equal S, W and N put tied
        # entries in the columns. Cluster widths and sizes run up to 12 plus
        # the hubs, so at r=300.0 the widths from 11 on take _gain's exp/log
        # path.
        rng = random.Random(13)
        vocab = [f"i{j}" for j in range(12)]
        hub_items = [f"h{j}" for j in range(hubs)]
        rows = [rng.sample(vocab, rng.randint(1, 12)) + hub_items for _ in range(20)]
        probes = [hub_items[:h] + [f"o{j}" for j in range(s - h)]
                  for s in range(1, 13) for h in range(min(s, hubs) + 1)]
        db = database_from_items(rows * 2 + probes)
        members = db.transactions[:2 * len(rows)]
        outside = db.transactions[2 * len(rows):]
        placer = _Placer(db.m, r)
        homes = [None] * len(members)
        seen = Counter()
        removed = False
        for _ in range(800):
            i = rng.randrange(len(members))
            t, home = members[i], homes[i]
            if home is None:
                homes[i] = rng.choice([*placer.stats, placer.next_id])
                placer.add(homes[i], t.items)
            else:
                deleted = homes.count(home) == 1
                before = dict(placer.tops)
                placer.remove(home, t.items)
                homes[i] = None
                removed = True
                if deleted:
                    assert all(column[home] == -math.inf for column in placer.disjoint.values())
                for key, top in before.items():
                    if deleted and top == home:
                        seen["top cluster deleted"] += 1
                    elif top == home and placer.tops[key] == -1:
                        seen["top entry fell"] += 1
            _assert_tops_are_first_maxima(placer)

            summaries = placer.summaries()
            probe = rng.choice(outside)
            opened = len(placer.disjoint)
            cid, won = placer.best(probe.items)
            assert cid is None or cid in placer.stats
            assert cid == best_home(summaries, probe, r)
            assert won == _delta_of(summaries, probe, r, cid)
            if len(placer.disjoint) > opened and removed:
                seen["column opened after a removal"] += 1
            placed = [j for j, cid in enumerate(homes) if cid is not None]
            if placed:
                j = rng.choice(placed)
                summaries[homes[j]].remove(members[j])
                cid, won = placer.best(members[j].items, homes[j])
                assert cid is None or cid in placer.stats
                assert cid == best_home(summaries, members[j], r, homes[j])
                assert won == _delta_of(summaries, members[j], r, cid)
            _assert_tops_are_first_maxima(placer)
            for key, column in placer.disjoint.items():
                top = placer.tops[key]
                if top >= 0 and column.count(column[top]) > 1:
                    seen["tied top"] += 1
        assert set(seen) == {"top cluster deleted", "top entry fell", "tied top",
                             "column opened after a removal"}, seen

    def test_home_holding_the_cached_top_is_held_out(self):
        # At r=0.5 the home {cf} holds the greatest entry of column (2, 2);
        # held out, the first maximum is {a} (id 0), tied with {a} (id 1),
        # and t, which shares no item with either, joins id 0. Column (2, 1)
        # reads {a} as meeting t in one item, above the home's delta, so it
        # bounds nothing and column (2, 2) is read.
        db = letters_db("a", "a", "cf", "de")
        t, disjoint = db.transactions[2:]
        placer = _Placer(db.m, 0.5)
        for cid, member in enumerate(db.transactions[:3]):
            placer.add(cid, member.items)
        column = [delta_add(summary, disjoint, 0.5) for summary in placer.summaries().values()]
        summaries = placer.summaries()
        summaries[2].remove(t)
        want = best_home(summaries, t, 0.5, 2)
        assert want == 0
        assert column.index(max(column)) == 2 and column[0] == column[1]
        assert placer.disjoint == {}
        for _ in range(2):
            # the first call opens the column and caches the home's id, the
            # second reads it
            assert placer.best(t.items, 2)[0] == want
            assert placer.tops[(2, 2)] == 2
            assert placer.disjoint[(2, 2)] == column


class TestFullRows:
    """An index row that holds every live cluster is a dense row that misses
    none: ``best`` leaves it out of the overlap counts, scores the clusters
    that meet one of t's q sparse rows or miss one of its dense ones, and
    reads the rest through column ``(|t|, q)``."""

    # Clusters 0, 1 and 2 all hold h, and only 0 and 1 hold n, so n's row is
    # dense and misses 2; x is in none.
    # All three have S=5, W=3 and N=2, so equal overlaps tie.
    MEMBERS = {0: ("hna", "ha"), 1: ("hnb", "hb"), 2: ("hc", "hac")}
    VOCAB = "hnabcx"

    def _subsets(self):
        return ["".join(c) for size in range(1, len(self.VOCAB) + 1)
                for c in itertools.combinations(self.VOCAB, size)]

    def test_first_placement_on_an_empty_placer(self):
        db = letters_db(*self._subsets())
        placer = _Placer(db.m, 1.5)
        for t in db.transactions:
            assert placer.best(t.items)[0] is None
            assert best_home({}, t, 1.5) is None

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.6, 300.0])
    def test_every_subset_matches_the_reference(self, r):
        members = [m for cid in sorted(self.MEMBERS) for m in self.MEMBERS[cid]]
        db = letters_db(*members, *self._subsets())
        placer = _Placer(db.m, r)
        for cid, member in zip((0, 0, 1, 1, 2, 2), db.transactions):
            placer.add(cid, member.items)
        h, n = db.strings.index("h"), db.strings.index("n")
        assert len(placer.index[h]) == len(placer.stats) == 3
        assert sorted(placer.index[n]) == [0, 1]
        for t in db.transactions[len(members):]:
            assert placer.best(t.items)[0] == best_home(placer.summaries(), t, r)
            for home in sorted(self.MEMBERS):
                placer.add(home, t.items)
                summaries = placer.summaries()
                summaries[home].remove(t)
                assert placer.best(t.items, home)[0] == best_home(summaries, t, r, home), (t, home)
                placer.remove(home, t.items)
                _assert_tops_are_first_maxima(placer)


    def test_cluster_met_only_in_full_rows_wins_through_its_column(self):
        # At r=0.5, {h, hrs} (id 0) meets t=hb only in the full row h, and
        # offers t more than {hb} (id 1), which shares both of t's items.
        db = letters_db("h", "hrs", "hb", "hb")
        *members, t = db.transactions
        placer = _Placer(db.m, 0.5)
        for cid, member in zip((0, 0, 1), members):
            placer.add(cid, member.items)
        summaries = placer.summaries()
        deltas = [delta_add(summaries[cid], t, 0.5) for cid in (0, 1)]
        assert deltas[0] > deltas[1] > _gain(2, 2, 1, 0.5)
        assert placer.best(t.items)[0] == best_home(summaries, t, 0.5) == 0
        assert placer.disjoint[(2, 1)][0] == deltas[0]
        assert placer.tops[(2, 1)] == 0

    @pytest.mark.parametrize("ids", [(0, 1), (1, 0)])
    def test_column_tie_with_an_overlapping_cluster_goes_to_the_lower_id(self, ids):
        # At r=1, {h} meets t=hby only in the full row h and {habcd} meets it
        # in h and b; both offer exactly 8/3 - 1, more than a fresh cluster.
        # Whichever has the lower id takes t.
        db = letters_db("h", "habcd", "hby")
        *members, t = db.transactions
        placer = _Placer(db.m, 1.0)
        for cid, member in sorted(zip(ids, members)):
            placer.add(cid, member.items)
        summaries = placer.summaries()
        assert delta_add(summaries[ids[0]], t, 1.0) == delta_add(summaries[ids[1]], t, 1.0) > 1.0
        assert placer.best(t.items)[0] == best_home(summaries, t, 1.0) == 0
        # {h}'s entry is the top of column (3, 2)
        assert placer.tops[(3, 2)] == ids[0]


def _assert_complements_exact(placer):
    """Each kept complement is the set of live clusters its row lacks, and
    only dense rows keep one."""
    dense = len(placer.stats) >> _DENSE_SHIFT
    for item, gap in placer.missing.items():
        row = placer.index[item]
        assert gap == placer.stats.keys() - row.keys(), item
        assert len(row) > dense, item


class TestDenseRows:
    """An index row that holds more than ``k >> 1`` of the k live clusters
    is dense: ``missing[item]`` keeps the clusters it lacks from the first
    placement that reads it, ``add`` and ``remove`` keep that set exact, and
    ``best`` holds every cluster in it out of the column maximum."""

    @pytest.mark.parametrize("seed", [3, 4])
    def test_random_adds_and_removals_keep_complements_exact(self, seed):
        # Hubs sit in nine of ten transactions, so their rows hold most, but
        # often not all, clusters. Transactions join random live clusters or
        # fresh ones and leave again, so clusters are born and die while
        # complements are kept, and a probe's placement after each step
        # reads its dense rows and is checked against the reference.
        spec = SyntheticSpec(transactions=200, clusters=10, items_per_cluster=10,
                             picks_per_transaction=5, noise_rate=0.3, ubiquitous_items=5,
                             ubiquity=0.9, seed=seed)
        db, _ = generate_synthetic(spec)
        rng = random.Random(seed)
        placer = _Placer(db.m, 1.5)
        homes = [None] * db.n
        seen = Counter()
        for _ in range(1500):
            tid = rng.randrange(db.n)
            t, home = db.transactions[tid], homes[tid]
            kept = {item: set(gap) for item, gap in placer.missing.items()}
            if home is None:
                homes[tid] = rng.choice([*placer.stats, placer.next_id])
                born = homes[tid] not in placer.stats
                placer.add(homes[tid], t.items)
                event = "birth" if born else "join"
            else:
                placer.remove(home, t.items)
                homes[tid] = None
                event = "death" if home not in placer.stats else "leave"
            _assert_complements_exact(placer)
            for item, gap in kept.items():
                now = placer.missing.get(item)
                change = ("dropped" if now is None else "grew" if now > gap
                          else "shrank" if now < gap else None)
                if change:
                    seen[event, change] += 1
            probe = db.transactions[rng.randrange(db.n)]
            summaries = placer.summaries()
            cid, won = placer.best(probe.items)
            assert cid == best_home(summaries, probe, 1.5)
            assert won == _delta_of(summaries, probe, 1.5, cid)
            _assert_complements_exact(placer)
        assert {("birth", "grew"), ("death", "shrank"), ("join", "shrank"),
                ("leave", "grew"), ("leave", "dropped")} <= set(seen), seen

    def test_cached_top_missing_a_dense_row_is_held_out(self):
        # At r=1 rows a and d each hold two of the three clusters, so both
        # are dense for t=adx: {a} (id 0) misses d and {d} (id 1) misses a.
        # Column (3, 1) reads each cluster as if it met both, so {a} tops it
        # with 4/2*2 - 1 = 3, though it offers t only 4/3*2 - 1. Held out
        # with {d}, it leaves t to {ad} (id 2), which offers 5/3*2 - 1.
        # Column (3, 0), whose maximum 7 is above a fresh cluster's 1, bounds
        # nothing, so column (3, 1) is read.
        db = letters_db("a", "d", "ad", "adx")
        *members, t = db.transactions
        placer = _Placer(db.m, 1.0)
        for cid, member in enumerate(members):
            placer.add(cid, member.items)
        summaries = placer.summaries()
        want = delta_add(summaries[2], t, 1.0)
        assert [delta_add(summaries[cid], t, 1.0) for cid in (0, 1)] == [4 / 3 * 2 - 1] * 2
        assert placer.best(t.items) == (2, want)
        assert best_home(summaries, t, 1.0) == 2
        assert placer.disjoint[(3, 1)] == [3.0, 3.0, want]
        assert placer.tops[(3, 1)] == 0
        a, d = map(db.strings.index, "ad")
        assert placer.missing == {a: {1}, d: {0}}


class TestOverlapBound:
    """A cluster of overlap o with t offers ``(S+s) / pw[W+q-o] * (N+1) -
    G``, its entry in column ``(s, q-1)`` when o is 1 and at most that entry
    when o is less. So while that column's maximum is below both the home's
    delta and a fresh cluster's, ``best`` scores only the clusters of
    overlap 2 or more and reads no other column."""

    def test_overlap_one_clusters_at_the_floor_fall_back(self):
        # At r=1, {y, y} (id 0) and {x, x} (id 1) each meet t=xyz in one
        # sparse row and offer it 5/3*3 - 4 = 1.0, a fresh cluster's delta.
        # Their entries in column (3, 2) are those deltas, so its maximum
        # equals the floor and no cluster may be skipped: both are scored,
        # id 1 first, since x's row comes first, and the lower id takes t.
        db = letters_db("xyz", "y", "y", "x", "x")
        t, *members = db.transactions
        placer = _Placer(db.m, 1.0)
        for cid, member in zip((0, 0, 1, 1), members):
            placer.add(cid, member.items)
        summaries = placer.summaries()
        assert [delta_add(summaries[cid], t, 1.0) for cid in (0, 1)] == [1.0, 1.0]
        assert _gain(3, 3, 1, 1.0) == 1.0
        assert placer.best(t.items) == (0, 1.0)
        assert best_home(summaries, t, 1.0) == 0
        assert max(placer.disjoint[(3, 2)]) == 1.0

    @pytest.mark.parametrize("r", [1.5, 2.6, 300.0])
    def test_each_placement_matches_the_reference(self, r, monkeypatch):
        # Hubs sit in nine of ten rows and the other items come from a
        # vocabulary of 12, so clusters share many items with a transaction
        # and meet it in many rows at once. Rows hold up to 15 items, so at
        # r=300.0 the widths from 11 on take _gain's exp/log path. Every
        # placement is checked against the reference; a placement whose
        # column (s, q-1) maximum is below the floor reads no other column.
        best, column = _Placer.best, _Placer._column
        opened = []
        seen = Counter()

        def tallied_column(placer, s, q):
            opened.append((s, q))
            return column(placer, s, q)

        def checked_best(placer, items, home=None, since=-1, won=0.0):
            k = len(placer.stats)
            q = sum(len(placer.index[item]) <= k >> _DENSE_SHIFT for item in items)
            s = len(items)
            opened.clear()
            got = best(placer, items, home, since, won)
            summaries = placer.summaries()
            t = Transaction(0, items)
            if home is not None:
                summaries[home].remove(t)
            assert got[0] == best_home(summaries, t, placer.r, home)
            assert got[1] == _delta_of(summaries, t, placer.r, got[0])
            if opened:
                seen["pruned" if q and opened == [(s, q - 1)] else "scored"] += 1
            return got

        monkeypatch.setattr(_Placer, "best", checked_best)
        monkeypatch.setattr(_Placer, "_column", tallied_column)
        rng = random.Random(29)
        vocab = [f"i{j}" for j in range(12)]
        hubs = ["h0", "h1", "h2"]
        for _ in range(12):
            rows = [rng.sample(vocab, rng.randint(1, 12)) + [h for h in hubs if rng.random() < 0.9]
                    for _ in range(rng.randint(10, 60))]
            _assert_matches_reference(database_from_items(rows), r, 20)
        assert seen["pruned"] and seen["scored"], seen


class TestChangedClustersOnly:
    """A placement that knows t's last one, ``len(changes)`` and the delta
    that won right after it, stays in O(1) when nothing has changed since;
    otherwise, while the home offers at least that delta, it scores only the
    clusters changed since, as every other one offers at most what it
    offered then."""

    @staticmethod
    def _placed(placer, t):
        # t's first placement, and what a later one knows of it
        home, won = placer.best(t.items)
        if home is None:
            home = placer.next_id
        placer.add(home, t.items)
        return home, (len(placer.changes), won)

    @staticmethod
    def _home_delta(placer, items, home):
        # what the home offers t, whose row is items, with t taken out of it
        summary = placer.summaries()[home]
        t = Transaction(0, items)
        summary.remove(t)
        return delta_add(summary, t, placer.r)

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.6])
    def test_each_placement_matches_a_full_scoring(self, r, monkeypatch):
        # Every placement that scores fewer than all the clusters meeting one
        # of t's sparse rows or missing one of its dense rows makes the
        # choice, with the same delta, that a full scoring from the same
        # state makes. Of the changed-only ones, those whose log grew by
        # fewer than k entries sift the rows for the changed clusters; the
        # others score every such cluster, yet are not counted:
        # placements_per_pass counts exactly the placements with no earlier
        # one or whose home's delta fell below won.
        best = _Placer.best
        seen = Counter()
        branches = Counter()

        def checked_best(placer, items, home=None, since=-1, won=0.0):
            scored = placer.scored
            logged = len(placer.changes)
            if since == logged:
                branch = "unchanged"
            elif since < 0 or self._home_delta(placer, items, home) < won:
                branch = "full"
            elif logged - since < len(placer.stats):
                branch = "sifted"
            else:
                branch = "every sharing"
            branches[branch] += 1
            got = best(placer, items, home, since, won)
            assert placer.scored - scored == (branch == "full"), branch
            if branch != "full":
                assert best(placer, items, home) == got
                placer.scored = scored
                kind = "unchanged" if branch == "unchanged" else "changed only"
                seen[kind, "moved" if got[0] != home else "kept"] += 1
            return got

        monkeypatch.setattr(_Placer, "best", checked_best)
        rng = random.Random(2400)
        for _ in range(150):
            db = random_db(rng, max_tx=rng.choice([20, 60]), max_vocab=rng.choice([6, 15, 30]),
                           max_size=rng.choice([4, 8]))
            full = branches["full"]
            result = _assert_matches_reference(db, r, 20)
            assert sum(result.placements_per_pass) == branches["full"] - full
        assert {("unchanged", "kept"), ("changed only", "kept")} <= set(seen), seen
        # at r=0.5 a database merges into a few wide clusters at once, and
        # no refinement move here comes from a changed-only placement
        assert (("changed only", "moved") in seen) == (r > 0.5), seen
        # the unsifted branch, which the checks above found uncounted, occurs
        # at every r
        assert branches["every sharing"], branches
        if r > 1.0:
            assert branches["sifted"], branches

    def test_changed_cluster_in_a_non_full_row_takes_t(self):
        # At r=1, t=agh joins {ae} (id 0) with delta 2.5 - 1 = 1.5 over {de}
        # (1.0) and {ade} (1.4). Then g joins {de}, which now offers t
        # 6/5*3 - 2 = 1.6 through row g, which holds only it: t moves, and
        # only that changed cluster is scored.
        db = letters_db("ae", "de", "ade", "agh", "g")
        *members, t, g = db.transactions
        placer = _Placer(db.m, 1.0)
        for cid, member in enumerate(members):
            placer.add(cid, member.items)
        home, last = self._placed(placer, t)
        assert (home, last[1]) == (0, 1.5)
        placer.add(1, g.items)
        scored = placer.scored
        summaries = placer.summaries()
        summaries[home].remove(t)
        assert placer.best(t.items, home, *last) == (1, delta_add(summaries[1], t, 1.0))
        assert best_home(summaries, t, 1.0, home) == 1
        assert placer.scored == scored

    def test_changed_disjoint_cluster_takes_t_through_its_column(self):
        # At r=1, t=e offers 1.0 to every cluster and to a fresh one, and
        # joins the lowest id, {fh}. Then df joins {af}, which shares no item
        # with t but now offers it 5/4*3 - 8/3 > 1: the top of column (1, 1)
        # takes t, and no cluster is scored one by one.
        db = letters_db("fh", "af", "g", "e", "df")
        *members, t, df = db.transactions
        placer = _Placer(db.m, 1.0)
        for cid, member in enumerate(members):
            placer.add(cid, member.items)
        home, last = self._placed(placer, t)
        assert (home, last[1]) == (0, 1.0)
        placer.add(1, df.items)
        scored = placer.scored
        summaries = placer.summaries()
        summaries[home].remove(t)
        want = delta_add(summaries[1], t, 1.0)
        assert want > 1.0
        assert placer.best(t.items, home, *last) == (1, want)
        assert placer.tops[(1, 1)] == 1
        assert best_home(summaries, t, 1.0, home) == 1
        assert placer.scored == scored

    def test_nothing_changed_keeps_t_without_reading_the_index(self):
        db = letters_db("ab", "ab", "cd", "abc")
        *members, t = db.transactions
        placer = _Placer(db.m, 1.5)
        for cid, member in zip((0, 0, 1), members):
            placer.add(cid, member.items)
        home, last = self._placed(placer, t)
        placer.index = placer.stats = None
        assert placer.best(t.items, home, *last) == (home, last[1])

    def test_placements_per_pass_count_the_full_scorings(self):
        # Pass 0 scores every transaction; pass 1 moves only tid 1, and in
        # pass 2 each transaction after it stays in O(1).
        db = letters_db("ce", "cfg", "eg", "bd", "d", "bd", "c", "a")
        result = clope_cluster(db, 1.5)
        assert result.moves_per_pass == [1, 0]
        assert result.placements_per_pass[0] == db.n
        assert len(result.placements_per_pass) == result.passes + 1
        assert result.placements_per_pass[2] <= 2
        assert reference_cluster(db, 1.5).placements_per_pass == [db.n] * 3


# The benchmark's pipeline-5k input shape; at seed 5 and 5,000 transactions
# over 50 clusters it is that workload's seed-1 input 0.
PIPELINE_5K = dict(items_per_cluster=20, picks_per_transaction=10, noise_items_per_hit=1,
                   noise_rate=0.30, ubiquitous_items=5, ubiquity=0.95, seed=5)


@pytest.mark.slow
def test_pipeline_5k_input_at_repulsion_2_6_digest():
    # The benchmark's pipeline-5k input at seed 5 (its seed-1 input 0)
    # clustered at the CLOPE paper's repulsion: k=323 over five passes. The
    # digest of (assignment, moves_per_pass, hex profit_per_pass) was taken
    # before placements scored only changed clusters.
    db, _ = generate_synthetic(SyntheticSpec(transactions=5000, clusters=50, **PIPELINE_5K))
    result = clope_cluster(db, 2.6)
    assert (result.k, result.moves_per_pass) == (323, [701, 96, 7, 1, 0])
    outputs = [result.assignment, result.moves_per_pass,
               [p.hex() for p in result.profit_per_pass]]
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    assert digest == "fb72b6595f673780210bb545247fd6f9ba20f25b050b99acee23f2233c1fa20d"


@pytest.mark.slow
def test_pipeline_shape_at_20k_transactions_digest():
    # The pipeline-5k shape at 20,000 transactions over 200 clusters, where
    # the hub rows hold most but not all clusters and placement reads them
    # as dense rows. The digest of (assignment, moves_per_pass,
    # placements_per_pass, hex profit_per_pass) was taken while placement
    # still scored every cluster in a row that was not full.
    db, _ = generate_synthetic(SyntheticSpec(transactions=20000, clusters=200, **PIPELINE_5K))
    result = clope_cluster(db, 1.5)
    assert (result.k, result.moves_per_pass) == (400, [3308, 0])
    assert result.placements_per_pass == [20000, 3543, 2208]
    outputs = [result.assignment, result.moves_per_pass, result.placements_per_pass,
               [p.hex() for p in result.profit_per_pass]]
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    assert digest == "95737e3ee7227ff2e636249ab5a7d0cf3ab283ffe02fc315ea9ac60a5d58325a"


@pytest.mark.slow
def test_short_transactions_over_many_narrow_clusters_digest():
    # The regime of the benchmark's aol-wide workload: 6,000 transactions of
    # three to eight items (three from one of 600 planted pools of seven,
    # each of five hubs with chance 0.12, a junk item in three of ten) end
    # in 1,743 clusters, and no index row holds more than half of them, so
    # every row is sparse. Most clusters that share an item with a
    # transaction share only that one, and on every placement the maximum
    # of column (s, q-1) bounds them all: of the 3.7 million clusters that
    # placements scored one by one before that bound, 0.29 million remain.
    # The digest of (assignment, moves_per_pass, placements_per_pass, hex
    # profit_per_pass) was taken before it.
    db, _ = generate_synthetic(SyntheticSpec(
        transactions=6000, clusters=600, items_per_cluster=7, picks_per_transaction=3,
        noise_rate=0.3, ubiquitous_items=5, ubiquity=0.12, seed=29))
    result = clope_cluster(db, 1.5)
    assert (result.k, result.moves_per_pass) == (1743, [901, 182, 22, 4, 1, 0])
    assert result.placements_per_pass == [6000, 808, 879, 180, 45, 14, 0]
    outputs = [result.assignment, result.moves_per_pass, result.placements_per_pass,
               [p.hex() for p in result.profit_per_pass]]
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    assert digest == "b4a51f73045ca891cf8c1e68712cfe8915385d33816018f2d91067fc910d6519"


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

    @pytest.mark.parametrize("r", [math.nan, -1.0, 0, math.inf, True, "1.5"])
    def test_bad_repulsion_refused(self, r):
        with pytest.raises(ValueError, match="repulsion"):
            brute_force_best(letters_db("ab", "bc"), r)

    @pytest.mark.parametrize("limit", [2.5, True, "10"])
    def test_non_int_max_transactions_refused(self, limit):
        with pytest.raises(ValueError, match="max_transactions"):
            brute_force_best(letters_db("ab", "bc"), 1.5, limit)

    def test_clope_never_beats_the_oracle(self):
        rng = random.Random(41)
        for _ in range(40):
            db = random_db(rng, max_tx=6, max_vocab=8, max_size=4)
            r = rng.choice([1.0, 1.5, 2.0])
            result = clope_cluster(db, r)
            _, best = brute_force_best(db, r)
            assert result.profit <= best * (1 + 1e-9) + 1e-12


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf, True, "1.5",
                               pytest.param(2**1024, id="2**1024")])
def test_non_positive_or_non_finite_repulsion_rejected(r):
    db = letters_db("ab", "bc")
    with pytest.raises(ValueError, match="repulsion"):
        clope_cluster(db, r)
    with pytest.raises(ValueError, match="repulsion"):
        profit([ClusterSummary.from_transactions(db.transactions)], r)
    with pytest.raises(ValueError, match="repulsion"):
        recompute_profit(db, [0, 0], r)


@pytest.mark.parametrize("assignment", [[0], [0, 0, 1]], ids=["short", "long"])
def test_recompute_profit_refuses_an_assignment_of_another_length(assignment):
    with pytest.raises(ValueError, match="assignment must cover every transaction"):
        recompute_profit(letters_db("ab", "bc"), assignment, 1.5)
