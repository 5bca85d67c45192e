"""cleanse() and truncate() against the string-rebuild oracle.

The oracle derives each result the way the library once did: it turns every
surviving item id back into its string and re-ingests the transaction
through DatabaseBuilder, then recovers the old -> new id map by string
lookup. The library instead remaps ids in place; both must agree exactly.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from txcleanse import (
    DatabaseBuilder,
    ManualBand,
    cleanse,
    fit_distribution,
    item_frequencies,
    parse_keyword_registration,
    truncate,
)


def rebuild_cleanse(db, band):
    """Returns (database, id_map, (low, high, retained, pruned, kept))."""
    verdict = {i: band.classify(f) for i, f in item_frequencies(db).per_item.items()}
    builder = DatabaseBuilder()
    pruned = 0
    for t in db.transactions:
        kept = [db.item_string(i) for i in t.items if verdict[i] == 0]
        if kept:
            builder.add(kept, label=t.label)
        else:
            pruned += 1
    cleansed = builder.build()
    id_map = {
        old: cleansed.dictionary.id_of(db.item_string(old))
        for old, v in verdict.items()
        if v == 0
    }
    counts = (
        sum(1 for v in verdict.values() if v < 0),
        sum(1 for v in verdict.values() if v > 0),
        sum(1 for v in verdict.values() if v == 0),
        pruned,
        cleansed.n,
    )
    return cleansed, id_map, counts


def rebuild_truncate(db, limit):
    builder = DatabaseBuilder()
    for t in db.transactions[:limit]:
        builder.add(db.item_strings(t), label=t.label)
    return builder.build()


# Spellings that collide after normalization (case, outer and inner
# whitespace), plus one that normalizes to nothing.
_WORDS = ("a", "b", "c", "d", "e", "ab", "a b")
_SPELLINGS = (
    lambda w: w,
    str.upper,
    lambda w: f" {w}  ",
    lambda w: w.replace(" ", "   "),
    lambda w: " ",
)
_item = st.builds(lambda w, spell: spell(w), st.sampled_from(_WORDS), st.sampled_from(_SPELLINGS))
_line = st.builds(
    lambda url, items: "\t".join([url, *items]),
    st.sampled_from(["a.com", "B.com", "c.org", ""]),
    st.lists(_item, max_size=6),
)

_manual_band = st.builds(
    lambda lower, width: ManualBand(lower, lower + width),
    st.integers(min_value=0, max_value=5),
    st.one_of(st.integers(min_value=0, max_value=4), st.just(math.inf)),
)
_fit_args = st.tuples(st.sampled_from(["lognormal", "exponential"]),
                      st.sampled_from([0.3, 0.5, 1.0, 2.0, 5.0]))


def _keyword_db(lines):
    return parse_keyword_registration(lines, on_warning=lambda message: None)


def _assert_same_database(actual, expected):
    assert actual.dictionary.strings() == expected.dictionary.strings()
    assert [t.tid for t in actual] == [t.tid for t in expected]
    assert [t.items for t in actual] == [t.items for t in expected]
    assert [t.label for t in actual] == [t.label for t in expected]
    assert actual == expected


@settings(max_examples=300)
@given(st.lists(_line, max_size=12), _manual_band, _fit_args, st.booleans())
def test_cleanse_matches_string_rebuild(lines, manual, fit_args, use_fit):
    db = _keyword_db(lines)
    band = manual
    if use_fit and db.m:
        band = fit_distribution(item_frequencies(db), *fit_args)
    cleansed, report = cleanse(db, band)
    expected, id_map, counts = rebuild_cleanse(db, band)
    _assert_same_database(cleansed, expected)
    assert report.id_map == id_map
    assert (
        report.items_removed_low,
        report.items_removed_high,
        report.items_retained,
        report.transactions_removed_empty,
        report.transactions_retained,
    ) == counts


@settings(max_examples=300)
@given(st.lists(_line, max_size=12), st.integers(min_value=1, max_value=14))
def test_truncate_matches_string_rebuild(lines, limit):
    db = _keyword_db(lines)
    _assert_same_database(truncate(db, limit), rebuild_truncate(db, limit))


def test_band_that_empties_transactions_is_covered():
    # frequencies x=2, y=1, z=2, w=1: keeping only the singletons empties b, c
    db = _keyword_db(["a.com\tx\ty", "b.com\tX", "c.com\tz", "d.com\t Z \tw"])
    band = ManualBand(1, 1)
    cleansed, report = cleanse(db, band)
    expected, id_map, _ = rebuild_cleanse(db, band)
    _assert_same_database(cleansed, expected)
    assert report.id_map == id_map
    assert report.transactions_removed_empty == 2
    assert [t.label for t in cleansed] == ["a.com", "d.com"]
