import copy
import math
import pickle
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from txcleanse import (
    DatabaseBuilder,
    ManualBand,
    ParseError,
    Transaction,
    TransactionDatabase,
    cleanse,
    core,
    database_from_items,
    item_frequencies,
    normalize_item,
    truncate,
)


def test_normalize_item():
    assert normalize_item("  Amusement   Park ") == "amusement park"
    assert normalize_item("DISNEYLAND") == "disneyland"
    assert normalize_item(" \t \n") == ""
    assert normalize_item("ichiro") == "ichiro"


# The regex form of normalize_item is the oracle for its str built-ins.
_WS = re.compile(r"\s+")
EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))
WHITESPACE = [c for c in EVERY_CODE_POINT if c.isspace()]


def regex_normalize(raw: str) -> str:
    return _WS.sub(" ", raw.strip()).lower()


def test_str_whitespace_is_regex_whitespace():
    # str.split() and str.strip() split and strip at exactly the isspace() code points
    assert WHITESPACE == re.findall(r"\s", EVERY_CODE_POINT)


def test_normalize_item_matches_regex_on_every_code_point():
    for wrap in ("{}", "A{}b"):
        mismatch = next((raw for raw in map(wrap.format, EVERY_CODE_POINT)
                         if normalize_item(raw) != regex_normalize(raw)), None)
        assert mismatch is None


@given(st.text(st.sampled_from(WHITESPACE) | st.characters()))
def test_normalize_item_matches_regex(raw):
    assert normalize_item(raw) == regex_normalize(raw)


@pytest.mark.slow
def test_normalize_item_is_idempotent_on_every_code_point():
    # DatabaseBuilder.add skips normalizing items that already are dictionary
    # keys; that is exact only if a normalized string normalizes to itself.
    # "Σ" + c puts each code point where a final sigma may follow.
    for wrap in ("{}", "A{}B", "Σ{}"):
        mismatch = next((raw for raw in map(wrap.format, EVERY_CODE_POINT)
                         if normalize_item(n := normalize_item(raw)) != n), None)
        assert mismatch is None


class TestItemIds:
    # Ids are handed out by DatabaseBuilder; db.strings holds their strings.
    def test_first_insertion_gets_id_zero(self):
        db = database_from_items([["disneyland"]])
        assert db.transactions[0].items == (0,)
        assert db.strings[0] == "disneyland"

    def test_reintern_is_idempotent(self):
        db = database_from_items([["disneyland"], ["disneyland"], [" Disneyland "]])
        assert [t.items for t in db] == [(0,), (0,), (0,)]
        assert db.m == 1

    def test_dense_next_id(self):
        b = DatabaseBuilder()
        b.add(["a", "b", "c"])
        b.add(["d", "e", "a"])
        b.add(["ichiro", "c"])
        db = b.build()
        assert [t.items for t in db] == [(0, 1, 2), (0, 3, 4), (2, 5)]
        assert db.strings == ("a", "b", "c", "d", "e", "ichiro")

    def test_lookup_roundtrip(self):
        words = ["major league", "ichiro", "baseball cap"]
        strings = database_from_items([words]).strings
        assert [strings[strings.index(word)] for word in words] == words
        assert strings.index("ichiro") == 1
        assert "unseen" not in strings

    def test_empty_after_normalization_rejected(self):
        b = DatabaseBuilder()
        assert b.add(["   "]) is False
        assert b.build().m == 0


class TestTransaction:
    def test_items_must_be_strictly_increasing(self):
        Transaction(0, (0, 1, 5))
        with pytest.raises(ValueError):
            Transaction(0, (1, 1, 2))
        with pytest.raises(ValueError):
            Transaction(0, (2, 1))

    def test_set_and_len(self):
        t = Transaction(3, (0, 2, 7), label="example.com")
        assert len(t) == 3
        assert 2 in t and 5 not in t
        assert t.item_set() == {0, 2, 7}
        assert t.label == "example.com"


class TestDatabaseConstructor:
    def test_rows_and_labels_make_the_transactions(self):
        db = TransactionDatabase(("a", "b", "c"), ((0, 2), (1,)), ("x", None))
        assert db.n == 2 and db.m == 3
        assert db.transactions == (Transaction(0, (0, 2), "x"), Transaction(1, (1,)))
        assert list(db) == list(db.transactions)

    def test_transaction_view_is_built_on_first_access_and_kept(self):
        db = database_from_items([["a", "b"], ["c"]])
        assert "transactions" not in vars(db)
        view = db.transactions
        assert db.transactions is view
        assert vars(db)["transactions"] is view

    @pytest.mark.parametrize("rows, labels, named", [
        (((0, 1), (0, 7)), (None, None), r"row 1 has an item id outside 0\.\.1"),
        (((0, 1), (-1, 0)), (None, None), r"row 1 has an item id outside 0\.\.1"),
        (((0,), (1, 0)), (None, None), "row 1: items not strictly increasing"),
        (((0, 0), (1,)), (None, None), "row 0: items not strictly increasing"),
        (((0,), (1,)), (None,), "1 labels for 2 rows"),
    ], ids=["item-past-m", "negative-item", "unsorted-row", "duplicate-id", "labels-short"])
    def test_malformed_database_rejected(self, rows, labels, named):
        with pytest.raises(ValueError, match=named):
            TransactionDatabase(("a", "b"), rows, labels)


class TestDatabaseBuilder:
    def test_known_items_are_not_normalized_again(self, monkeypatch):
        b = DatabaseBuilder()
        b.add(["a", "b", "c"])
        calls = []
        monkeypatch.setattr(core, "normalize_item", lambda raw: calls.append(raw) or raw)
        b.add(["c", "a"])
        assert calls == []
        monkeypatch.undo()
        b.add(["A", "b"])
        assert [t.items for t in b.build()] == [(0, 1, 2), (0, 2), (0, 1)]

    def test_only_unknown_items_are_normalized(self, monkeypatch):
        b = DatabaseBuilder()
        b.add(["a"])
        calls = []
        monkeypatch.setattr(core, "normalize_item",
                            lambda raw: calls.append(raw) or normalize_item(raw))
        b.add(["B", "a", "c"])
        assert calls == ["B", "c"]
        db = b.build()
        assert db.strings == ("a", "b", "c")
        assert [t.items for t in db] == [(0,), (0, 1, 2)]

    def test_any_iterable_of_items_builds_the_same_database(self):
        item_lists = [["b", "a"], ["c", " A "], ["b"]]
        want = database_from_items(item_lists)
        for got in (database_from_items(map(tuple, item_lists)),
                    database_from_items((item for item in items) for items in item_lists)):
            assert (got.strings, got.rows, got.labels) == (want.strings, want.rows, want.labels)

    def test_duplicates_within_transaction_dropped(self):
        db = database_from_items([["a", "a", "b"]])
        assert [len(t) for t in db] == [2]

    def test_spellings_of_one_item_share_its_first_seen_id(self):
        db = database_from_items([["B", " b ", "a", "B"]])
        assert db.strings == ("b", "a")
        assert db.transactions[0].items == (0, 1)

    @pytest.mark.parametrize("item", [None, b"a", 1], ids=["None", "bytes", "int"])
    def test_item_that_is_not_a_str_is_refused_by_type(self, item):
        with pytest.raises(ParseError, match=f"items must be str, got {type(item).__name__}"):
            database_from_items([["a", item]])

    def test_all_empty_transaction_not_added(self):
        b = DatabaseBuilder()
        assert b.add(["  ", ""]) is False
        assert b.add(["x"]) is True
        db = b.build()
        assert db.n == 1 and db.m == 1

    def test_tids_positional_and_items_sorted(self):
        db = database_from_items([["b", "a"], ["c", "a"]])
        assert [t.tid for t in db] == [0, 1]
        # b seen first -> id 0; items stored in id order
        assert db.item_strings(db.transactions[0]) == ["b", "a"]
        for t in db:
            assert list(t.items) == sorted(set(t.items))

    def test_counts(self):
        db = database_from_items([["a", "b"], ["b", "c"], ["b"]])
        assert db.n == 3
        assert db.m == 3
        assert db.total_occurrences() == 5


_items = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "g "]), min_size=1, max_size=6),
    min_size=0,
    max_size=25,
)


@given(_items)
def test_occurrence_conservation(item_lists):
    """Sum of item frequencies equals sum of transaction sizes."""
    db = database_from_items(item_lists)
    hist = item_frequencies(db)
    assert sum(hist.per_item.values()) == db.total_occurrences()
    assert hist.item_count == db.m
    assert sum(count for _, count in hist.marginal) == db.m


def interned_by_model(item_lists) -> TransactionDatabase:
    """The builder's contract as a plain loop: normalize every raw item,
    drop the empty ones, give each new string the next id in first-seen
    order, and keep each row that holds an item as its sorted set of ids."""
    strings: list[str] = []
    rows = []
    for raw_items in item_lists:
        ids = set()
        for raw in raw_items:
            item = normalize_item(raw)
            if item:
                if item not in strings:
                    strings.append(item)
                ids.add(strings.index(item))
        if ids:
            rows.append(tuple(sorted(ids)))
    return TransactionDatabase(tuple(strings), tuple(rows), (None,) * len(rows))


# Normalized strings, their case and whitespace respellings, and items that
# normalize to nothing; duplicates come from drawing the same spelling twice.
_WORDS = ("a", "b", "ab", "a b", "σ", "ß", "straße")
_SPELLINGS = (
    lambda w: w,
    str.upper,
    str.title,
    lambda w: f" {w}\t",
    lambda w: w.replace(" ", " \u3000 "),
    lambda w: "",
    lambda w: " \n ",
)
_spelled_item = st.builds(lambda w, spell: spell(w), st.sampled_from(_WORDS),
                          st.sampled_from(_SPELLINGS))
# a row and, appended, some of its own items again: repeats within a row
_row_with_repeats = st.lists(_spelled_item | st.text(max_size=3), max_size=6).flatmap(
    lambda row: st.lists(st.sampled_from(row), max_size=3).map(row.__add__) if row
    else st.just(row))


@given(st.lists(_row_with_repeats, max_size=12))
def test_builder_matches_plain_interning_model(item_lists):
    assert database_from_items(item_lists) == interned_by_model(item_lists)


def assert_equal_to_checked_rebuild(db: TransactionDatabase) -> None:
    """``db`` equals the database the checking constructor builds from its
    fields, and every transaction of ``db`` equals, and hashes like, the
    one the public (order-checking) constructor builds from its fields, and
    it survives pickling and copying unchanged."""
    assert TransactionDatabase(db.strings, db.rows, db.labels) == db
    for t in db.transactions:
        rebuilt = Transaction(t.tid, t.items, t.label)
        assert t == rebuilt and hash(t) == hash(rebuilt)
        for twin in (pickle.loads(pickle.dumps(t)), copy.copy(t)):
            assert twin == t and hash(twin) == hash(t)
            assert (twin.tid, twin.items, twin.label) == (t.tid, t.items, t.label)


_labelled_rows = st.lists(
    st.tuples(st.lists(_spelled_item | st.text(max_size=3), max_size=6),
              st.none() | st.text(max_size=3)),
    max_size=12,
)


@given(_labelled_rows, st.data())
def test_builder_and_remap_transactions_equal_their_checked_rebuild(rows, data):
    # Every database builds its transaction view through the checked
    # constructor; the views must equal their checked rebuild. The builder
    # skips the constructor's row check, so its databases must pass it.
    builder = DatabaseBuilder()
    for items, label in rows:
        builder.add(items, label)
    db = builder.build()
    assert_equal_to_checked_rebuild(db)
    assert_equal_to_checked_rebuild(database_from_items([items for items, _ in rows]))

    keep = data.draw(st.lists(st.booleans(), min_size=db.m, max_size=db.m))
    id_map = {old: new for new, old in enumerate(i for i, k in enumerate(keep) if k)}
    assert_equal_to_checked_rebuild(core.remap(db, id_map))

    lower = data.draw(st.integers(1, 4))
    upper = data.draw(st.sampled_from([lower, lower + 2, math.inf]))
    cleansed, _ = cleanse(db, ManualBand(lower, upper), item_frequencies(db))
    assert_equal_to_checked_rebuild(cleansed)

    assert_equal_to_checked_rebuild(truncate(db, data.draw(st.integers(1, 13))))
