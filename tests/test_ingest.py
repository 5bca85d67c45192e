import copy
import dataclasses
import io
import pickle
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from txcleanse import (
    ParseError,
    QueryLogRecord,
    iter_query_log,
    parse_keyword_registration,
    parse_transactions,
    serialize_transactions,
    sessionize,
    truncate,
    write_transactions,
)
from txcleanse.cli import load_database
from txcleanse.core import TransactionDatabase, database_from_items

AOL_HEADER = "AnonID\tQuery\tQueryTime\tItemRank\tClickURL"


def _listed_query_log(lines, on_warning=None):
    """``iter_query_log``'s records as a list, in the call shape of the
    other parsers for the helpers that take a parser."""
    return list(iter_query_log(lines, on_warning))


class TestParseTransactions:
    def test_figure_line(self):
        db = parse_transactions(["amusement park\tcherry blossom\tdisneyland"])
        assert db.n == 1
        assert db.item_strings(db.transactions[0]) == [
            "amusement park", "cherry blossom", "disneyland",
        ]

    def test_dedup_within_line(self):
        db = parse_transactions(["a\ta\tb"])
        assert len(db.transactions[0]) == 2

    def test_empty_stream(self):
        db = parse_transactions([])
        assert db.n == 0 and db.m == 0

    def test_blank_lines_and_comments_skipped_silently(self):
        warnings = []
        db = parse_transactions(
            ["# header comment", "", "a\tb"], on_warning=warnings.append
        )
        assert db.n == 1
        assert warnings == []

    def test_all_empty_items_warns_and_skips(self):
        warnings = []
        db = parse_transactions(["  \t  ", "a"], on_warning=warnings.append)
        assert db.n == 1
        assert len(warnings) == 1
        assert "line 1" in warnings[0]

    def test_bytes_input_and_bad_utf8(self):
        db = parse_transactions([b"a\tb"])
        assert db.n == 1
        with pytest.raises(ParseError, match="line 2"):
            parse_transactions([b"ok", b"\xff\xfe bad"])

    def test_custom_delimiter(self):
        db = parse_transactions(["a,b,c"], delimiter=",")
        assert len(db.transactions[0]) == 3


class TestRoundTrip:
    def test_example(self, tmp_path):
        db = parse_transactions(["b\ta", "c\ta", "# note", "x"])
        again = parse_transactions(serialize_transactions(db))
        assert again == db
        path = tmp_path / "db.txt"
        write_transactions(db, path, ", ")
        assert path.read_text(encoding="utf-8") == "b, a\na, c\nx\n"
        with open(path, "rb") as fh:
            assert parse_transactions(fh, delimiter=", ") == db

    def test_dictionary_strings_are_normalization_fixpoints(self):
        from txcleanse import normalize_item

        db = parse_transactions(["  Amusement   PARK \tB\t b "])
        assert all(normalize_item(s) == s for s in db.strings)

    @given(
        st.lists(
            st.lists(
                st.text(alphabet="abcdefg hij", min_size=1, max_size=8).filter(
                    lambda s: s.strip()
                ),
                min_size=1,
                max_size=5,
            ),
            min_size=0,
            max_size=15,
        )
    )
    def test_random_databases(self, item_lists):
        db = database_from_items(item_lists)
        again = parse_transactions(serialize_transactions(db))
        assert again == db

    def test_table_leaves_out_its_none_entries_and_emptied_lines(self):
        db = parse_transactions(["a\tb", "c", "b\td"])
        assert list(serialize_transactions(db, ",", ["a", None, None, "d"])) == ["a", "d"]

    @pytest.mark.parametrize("delimiter, item", [
        (" ", "new york"), ("_", "c000_item000"), (",", "a,b"),
        ("aa", "xa"), ("aba", "xab"), ("ab", "xab"),
    ])
    def test_item_holding_the_delimiter_is_refused_before_the_file_opens(
            self, tmp_path, delimiter, item):
        db = database_from_items([["q", item]])
        path = tmp_path / "db.txt"
        with pytest.raises(ParseError, match=re.escape(f"item {item!r} contains the delimiter"
                                                       f" {delimiter!r}")):
            write_transactions(db, path, delimiter)
        assert not path.exists()

    @pytest.mark.parametrize("delimiter, items", [
        ("ab", ["xa", "by"]), ("aa", ["x", "ay"]), ("aba", ["x", "bay"]),
    ])
    def test_delimiter_that_only_touches_an_item_is_allowed(self, tmp_path, delimiter, items):
        db = database_from_items([items])
        write_transactions(db, tmp_path / "db.txt", delimiter)
        with open(tmp_path / "db.txt", "rb") as fh:
            assert parse_transactions(fh, delimiter=delimiter) == db

    def test_line_led_by_a_hash_item_is_refused(self, tmp_path):
        db = parse_transactions(["a\t#x", "c\t#x"])
        assert list(serialize_transactions(db)) == ["a\t#x", "#x\tc"]
        assert parse_transactions(serialize_transactions(db)) != db
        path = tmp_path / "db.txt"
        with pytest.raises(ParseError, match="^line 2 would start with item '#x' and re-read"
                                             " as a comment$"):
            write_transactions(db, path)
        assert not path.exists()
        # The lines checked are the ones the table writes.
        with pytest.raises(ParseError, match="^line 1 would start with item '#x'"):
            write_transactions(db, path, strings=[None, "#x", "c"])
        write_transactions(db, path, strings=["a", None, "c"])
        assert path.read_text(encoding="utf-8") == "a\nc\n"

    def test_hash_item_inside_lines_is_written(self, tmp_path):
        db = parse_transactions(["a\t#x", "a\tb\t#x"])
        write_transactions(db, tmp_path / "db.txt")
        assert (tmp_path / "db.txt").read_text(encoding="utf-8") == "a\t#x\na\t#x\tb\n"
        with open(tmp_path / "db.txt", "rb") as fh:
            assert parse_transactions(fh) == db

    def test_first_line_led_by_a_byte_order_mark_is_refused(self, tmp_path):
        db = database_from_items([["b"], ["\ufeffa"]])
        write_transactions(db, tmp_path / "ok.txt")  # a mark opening line 2 is kept
        with open(tmp_path / "ok.txt", "rb") as fh:
            assert parse_transactions(fh) == db
        first = database_from_items([["\ufeffa", "b"]])
        named = re.escape(repr("\ufeffa"))
        with pytest.raises(ParseError, match=f"^line 1 would start with item {named} and lose"):
            write_transactions(first, tmp_path / "bad.txt")
        assert not (tmp_path / "bad.txt").exists()

    @given(
        st.lists(
            st.lists(st.text(alphabet="ab #,\ufeff", min_size=1, max_size=4), max_size=4),
            max_size=6,
        ),
        st.sampled_from(["\t", ",", ", ", " ", "#", "a", "aa", "ab", "ba", "bab"]),
    )
    def test_every_file_written_re_reads_as_its_database(self, item_lists, delimiter):
        db = database_from_items(item_lists)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "db.txt"
            try:
                write_transactions(db, path, delimiter)
            except ParseError:
                assert not path.exists()
                return
            with open(path, "rb") as fh:
                assert parse_transactions(fh, delimiter=delimiter) == db

    @pytest.mark.parametrize("delimiter", ["", "\n", "\r", "a\rb"])
    def test_delimiter_no_line_can_hold_is_refused_before_any_io(self, tmp_path, delimiter):
        # "\n" would write {a, b} as the lines a and b, which re-read as two
        # transactions; "" would only fail inside str.split, at the first line.
        db = database_from_items([["a", "b"]])
        path = tmp_path / "db.txt"
        refused = re.escape(f"delimiter must be non-empty and hold no line break, got {delimiter!r}")
        with pytest.raises(ParseError, match=refused):
            write_transactions(db, path, delimiter)
        assert not path.exists()
        with pytest.raises(ParseError, match=refused):
            parse_transactions(_read_up_to(["a\tb"], 0), delimiter=delimiter)
        with pytest.raises(ParseError, match=refused):
            list(serialize_transactions(db, delimiter))


class TestParseQueryLog:
    def test_plain_row_without_click(self):
        rows = [AOL_HEADER, "37264\tdisneyland\t2006-03-01 10:00:00\t\t"]
        records = list(iter_query_log(rows))
        assert records == [
            QueryLogRecord("37264", "disneyland", "2006-03-01 10:00:00", None, None)
        ]

    def test_click_pair_parsed(self):
        rows = [AOL_HEADER, "1\tq\tt\t3\thttp://x"]
        (record,) = list(iter_query_log(rows))
        assert record.item_rank == 3
        assert record.click_url == "http://x"

    def test_header_only(self):
        assert list(iter_query_log([AOL_HEADER])) == []

    def test_wrong_arity_skipped_with_warning(self):
        warnings = []
        records = list(iter_query_log(
            [AOL_HEADER, "1\tq\tt", "2\tr\tt\t\t"], on_warning=warnings.append
        ))
        assert len(records) == 1
        assert len(warnings) == 1

    def test_missing_required_column_is_hard_error(self):
        with pytest.raises(ParseError, match="querytime"):
            list(iter_query_log(["AnonID\tQuery", "1\tq"]))

    def test_columns_matched_by_name_any_order(self):
        rows = ["Query\tAnonID\tQueryTime", "ponyo\t9\tt1"]
        (record,) = list(iter_query_log(rows))
        assert record.anon_id == "9"
        assert record.query == "ponyo"

    def test_half_click_pair_dropped_with_warning(self):
        warnings = []
        (record,) = list(iter_query_log(
            [AOL_HEADER, "1\tq\tt\t4\t"], on_warning=warnings.append
        ))
        assert record.item_rank is None and record.click_url is None
        assert len(warnings) == 1

    def test_empty_id_or_query_skipped(self):
        warnings = []
        records = list(iter_query_log(
            [AOL_HEADER, "\tq\tt\t\t", "1\t\tt\t\t"], on_warning=warnings.append
        ))
        assert records == []
        assert len(warnings) == 2

    def test_empty_stream_is_error(self):
        with pytest.raises(ParseError):
            list(iter_query_log([]))

    @pytest.mark.parametrize("header, named", [
        ("AnonID\tQuery\tQueryTime\t query ", "'query' twice (fields 2 and 4)"),
        ("anonid\tQuery\tANONID\tQueryTime", "'anonid' twice (fields 1 and 3)"),
        (f"{AOL_HEADER}\tClickURL", "'clickurl' twice (fields 5 and 6)"),
        ("AnonID\tQuery\tQueryTime\tNote\tnote", "'note' twice (fields 4 and 5)"),
    ])
    def test_column_named_twice_is_hard_error(self, header, named):
        with pytest.raises(ParseError, match=rf"^query log header names column {re.escape(named)}$"):
            list(iter_query_log([header, "1\tq\tt"]))

    def test_empty_header_fields_name_no_column(self):
        (record,) = list(iter_query_log(["AnonID\t\tQuery\t \tQueryTime", "1\ta\tq\tb\tt"]))
        assert record == QueryLogRecord("1", "q", "t")

    def test_record_is_a_frozen_slotted_value(self):
        record = QueryLogRecord("1", "q", "t", 3, "http://x")
        assert not hasattr(record, "__dict__")
        assert repr(record) == ("QueryLogRecord(anon_id='1', query='q', query_time='t',"
                                " item_rank=3, click_url='http://x')")
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     QueryLogRecord("1", "q", "t", 3, "http://x")):
            assert twin == record and hash(twin) == hash(record)
        assert record != QueryLogRecord("1", "q", "t")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.query = "r"


class TestIterQueryLog:
    def test_rows_are_read_only_as_records_are_taken(self):
        sentinel = RuntimeError("read past the first row")

        def lines():
            yield AOL_HEADER
            yield "1\tq\tt\t\t"
            raise sentinel

        records = iter_query_log(lines())
        assert next(records) == QueryLogRecord("1", "q", "t")
        with pytest.raises(RuntimeError) as exc:
            next(records)
        assert exc.value is sentinel

    @pytest.mark.parametrize("lines, message", [
        ([], "query log is empty: header row required"),
        (["AnonID\tQuery", "1\tq"], "query log header missing required column(s): querytime"),
        (["AnonID\tQuery\tQueryTime\tquery"],
         "query log header names column 'query' twice (fields 2 and 4)"),
    ])
    def test_header_error_is_raised_by_the_first_next(self, lines, message):
        records = iter_query_log(lines)  # reads nothing yet
        with pytest.raises(ParseError) as exc:
            next(records)
        assert str(exc.value) == message

    def test_warnings_interleave_with_the_records(self):
        events = []
        clicks = []
        rows = [AOL_HEADER, "1\tq\tt\t\t", "2\tr\tt", "3\ts\tt\t4\t", "\tu\tt\t\t",
                "4\tv\tt\tx\thttp://v"]
        for record in iter_query_log(rows, on_warning=events.append):
            events.append(record.anon_id)
            clicks.append((record.item_rank, record.click_url))
        assert events == [
            "1",
            "line 3: expected 5 fields, got 3; row skipped",
            "line 4: ItemRank/ClickURL must appear together; click pair dropped",
            "3",
            "line 5: empty AnonID or Query; row skipped",
            "line 6: non-integer ItemRank 'x'; click pair dropped",
            "4",
        ]
        assert clicks == [(None, None)] * 3


def _record(user, query):
    return QueryLogRecord(user, query, "t")


class TestSessionize:
    def test_grouping_and_dedup(self):
        records = [_record("A", "x"), _record("A", "x"), _record("B", "z"),
                   _record("A", "y")]
        db = sessionize(records)
        assert db.n == 2
        assert set(db.item_strings(db.transactions[0])) == {"x", "y"}
        assert set(db.item_strings(db.transactions[1])) == {"z"}
        # transaction order follows first appearance of each user
        assert db.transactions[0].label == "A"
        assert db.transactions[1].label == "B"

    def test_user_id_is_not_an_item(self):
        db = sessionize([_record("37264", "disneyland")])
        assert "37264" not in db.strings
        assert db.m == 1

    def test_figure_users(self):
        queries = {
            "37264": ["amusement park", "cherry blossom", "mall of america",
                      "entrance fee", "disneyland"],
            "93272": ["freeway", "traffic condition", "shortcut"],
            "20438": ["media player", "skins", "lyric words", "download"],
            "72620": ["major league", "ichiro", "baseball cap"],
        }
        records = [_record(u, q) for u, qs in queries.items() for q in qs]
        db = sessionize(records)
        assert db.n == 4
        assert db.m == 15
        assert [len(t) for t in db] == [5, 3, 4, 3]

    def test_empty_records(self):
        db = sessionize([])
        assert db.n == 0 and db.m == 0

    def test_all_empty_queries_produce_no_transaction(self):
        db = sessionize([_record("A", "   "), _record("B", "ok")])
        assert db.n == 1

    @given(st.permutations(list(range(8))))
    def test_permutation_changes_only_order(self, order):
        base = [_record(f"u{i % 3}", f"q{i}") for i in range(8)]
        shuffled = [base[i] for i in order]
        expected = {
            frozenset(("q0", "q3", "q6")),
            frozenset(("q1", "q4", "q7")),
            frozenset(("q2", "q5")),
        }
        db = sessionize(shuffled)
        got = {frozenset(db.item_strings(t)) for t in db}
        assert got == expected


class TestKeywordRegistration:
    def test_url_is_label_not_item(self):
        db = parse_keyword_registration(["example.com\tbaseball\tichiro"])
        assert db.n == 1
        assert set(db.item_strings(db.transactions[0])) == {"baseball", "ichiro"}
        assert db.transactions[0].label == "example.com"
        assert "example.com" not in db.strings

    def test_shared_keyword_counts_twice(self):
        from txcleanse import item_frequencies

        db = parse_keyword_registration(
            ["a.com\tbaseball\tichiro", "b.com\tbaseball"]
        )
        hist = item_frequencies(db)
        assert hist.per_item[db.strings.index("baseball")] == 2

    def test_url_without_keywords_skipped(self):
        warnings = []
        db = parse_keyword_registration(["example.com"], on_warning=warnings.append)
        assert db.n == 0
        assert len(warnings) == 1


class TestTruncate:
    def test_keeps_head_and_compacts_dictionary(self):
        db = database_from_items([["a", "b"], ["c"], ["d"]])
        cut = truncate(db, 2)
        assert cut.n == 2
        assert cut.m == 3  # d is gone from the item strings
        assert "d" not in cut.strings
        # the head's rows and labels and the id prefix of the strings are shared, not copied
        assert cut.strings == db.strings[:3]
        assert all(c is r for c, r in zip(cut.rows, db.rows[:2], strict=True))
        assert cut.labels == db.labels[:2]

    def test_limit_at_or_beyond_n_is_identity(self):
        db = database_from_items([["a"], ["b"]])
        assert truncate(db, 2) is db
        assert truncate(db, 5) is db

    def test_limit_must_be_positive(self):
        db = database_from_items([["a"]])
        with pytest.raises(ValueError):
            truncate(db, 0)

    @pytest.mark.parametrize("limit", [1.5, 1.0, "1", True])
    def test_limit_must_be_an_int(self, limit):
        db = database_from_items([["a"], ["b"]])
        with pytest.raises(ValueError, match="limit must be an int"):
            truncate(db, limit)

    def test_head_of_empty_rows_keeps_no_string(self):
        db = TransactionDatabase(("a",), ((), (0,)), (None, None))
        cut = truncate(db, 1)
        assert (cut.strings, cut.rows, cut.labels) == ((), ((),), (None,))


def _read_up_to(lines, stop):
    """Yield ``lines[:stop]``, then fail if another line is asked for."""
    yield from lines[:stop]
    if stop < len(lines):
        raise AssertionError(f"line {stop + 1} read past the limit")


class TestParseLimit:
    """``limit`` stops the generic and keyword parsers at the limit-th kept
    transaction: no later line is read, and the result is ``truncate`` of
    the whole parse, with the warnings of the lines read."""

    @staticmethod
    def _check(parse, lines):
        warnings = []
        whole = parse(lines, on_warning=warnings.append)
        # the lines that each hold a kept transaction
        heads = [i for i, line in enumerate(lines)
                 if parse([line], on_warning=lambda _: None).n]
        assert len(heads) == whole.n
        for limit in range(1, whole.n + 2):
            stop = heads[limit - 1] + 1 if limit <= whole.n else len(lines)
            read = []
            head = parse(_read_up_to(lines, stop), on_warning=read.append, limit=limit)
            assert head == truncate(whole, limit)
            assert read == [w for w in warnings if int(w.split(":")[0][5:]) <= stop]

    @pytest.mark.parametrize("parse, shapes", [
        (parse_transactions, ["", "# note", "\t \t", "a", "b\tc", "c\td\te", "f", "a\tf"]),
        (parse_keyword_registration, ["", "u1\tx", "u2\tx\ty", "u3", "\tz", "u4\t \t",
                                      "u5\ty\tz"]),
    ])
    def test_parser_stops_at_the_limit(self, parse, shapes):
        rng = random.Random(15)
        for _ in range(200):
            self._check(parse, [rng.choice(shapes) for _ in range(rng.randint(0, 12))])

    @pytest.mark.parametrize("parse", [parse_transactions, parse_keyword_registration])
    def test_limit_must_be_positive(self, parse):
        with pytest.raises(ValueError, match="limit must be >= 1"):
            parse(_read_up_to(["a\tb"], 0), limit=0)

    # a float limit never equals a count, so it would read every line
    @pytest.mark.parametrize("limit", [2.5, 1.0, "1", True])
    @pytest.mark.parametrize("parse", [parse_transactions, parse_keyword_registration])
    def test_limit_must_be_an_int(self, parse, limit):
        with pytest.raises(ValueError, match="limit must be an int"):
            parse(_read_up_to(["a\tb"], 0), limit=limit)

    @pytest.mark.parametrize("fmt, head", [("generic", b"a\tb\n\nb\tc\n"),
                                           ("keywords", b"u1\ta\nu2\n\nu3\tb\n")])
    def test_limit_reads_no_line_past_the_head(self, tmp_path, fmt, head):
        # A bad line past the second transaction is never read; a query log
        # is read whole, since a user's rows can come late.
        path = tmp_path / "in.tsv"
        path.write_bytes(head)
        want = truncate(load_database(path, fmt), 2)
        assert want.n == 2
        path.write_bytes(head + b"\xff\n")
        with pytest.raises(ParseError, match="invalid UTF-8"):
            load_database(path, fmt)
        assert load_database(path, fmt, limit=2) == want
        log = tmp_path / "log.tsv"
        log.write_bytes(b"AnonID\tQuery\tQueryTime\nu1\ta\tt\nu2\tb\tt\n\xff\n")
        with pytest.raises(ParseError, match="invalid UTF-8"):
            load_database(log, "aol", limit=1)


class TestLineEnds:
    """A bare \\r ends a line as \\n and \\r\\n do, and line numbers count it."""

    def test_generic_cr_only(self):
        db = parse_transactions(io.BytesIO(b"a\tb\rc\td\re\tf\r"))
        assert [db.item_strings(t) for t in db] == [["a", "b"], ["c", "d"], ["e", "f"]]

    def test_keywords_cr_only(self):
        warnings = []
        db = parse_keyword_registration(io.BytesIO(b"a.com\tx\ty\r\tz\rb.com\tx\r"),
                                        on_warning=warnings.append)
        assert [t.label for t in db] == ["a.com", "b.com"]
        assert warnings == ["line 2: missing URL; line skipped"]

    def test_aol_cr_only(self):
        warnings = []
        records = list(iter_query_log(
            io.BytesIO(f"{AOL_HEADER}\r1\tq\tt\t\t\r2\tr\tt\r3\ts\tt\t\t".encode()),
            on_warning=warnings.append,
        ))
        assert [(r.anon_id, r.query) for r in records] == [("1", "q"), ("3", "s")]
        assert warnings == ["line 3: expected 5 fields, got 3; row skipped"]

    def test_bad_utf8_line_number_counts_cr(self):
        with pytest.raises(ParseError, match="^line 4: invalid UTF-8"):
            parse_transactions(io.BytesIO(b"a\r\nb\rc\r\xff\n"))

    def test_mixed_ends_in_text_lines(self):
        warnings = []
        db = parse_transactions(["a\rb\r\n", "c\r \r", "d\r\n", "e"], on_warning=warnings.append)
        assert [db.item_strings(t) for t in db] == [["a"], ["b"], ["c"], ["d"], ["e"]]
        assert warnings == ["line 4: all items empty after normalization; line skipped"]


class TestByteOrderMark:
    """One U+FEFF opening an input is dropped, so the file parses as its twin
    without the mark; a U+FEFF anywhere else is kept."""

    @staticmethod
    def _assert_parses_as_twin(parse, text):
        plain = _outcome(parse, io.BytesIO(text.encode()))
        assert not isinstance(plain[0], str)
        assert _outcome(parse, io.BytesIO(("\ufeff" + text).encode())) == plain
        assert _outcome(parse, io.StringIO("\ufeff" + text, newline="")) == plain

    def test_generic(self):
        self._assert_parses_as_twin(parse_transactions, "a\tb\nb\ta\n")

    def test_keywords(self):
        self._assert_parses_as_twin(parse_keyword_registration, "a.com\tx\ty\nb.com\ty\n")

    def test_aol(self):
        self._assert_parses_as_twin(_listed_query_log, f"{AOL_HEADER}\r\n1\tq\tt\t\t\r\n")

    @pytest.mark.parametrize("parse, lines", [
        (parse_transactions, [b"\xef\xbb\xbf\t", b"a", b"\xff"]),
        (_listed_query_log, [b"\xef\xbb\xbfAnonID\tQuery\tQueryTime", b"1\tq\tt", b"2\t\xff\tt"]),
    ])
    def test_mark_dropped_before_bad_utf8(self, parse, lines):
        # With bare CR line ends the whole file is one line element, so the
        # lines before the bad byte are decoded apart from the rest of it.
        lf = _outcome(parse, io.BytesIO(b"\n".join(lines) + b"\n"))
        assert lf[0].startswith("ParseError: line 3: invalid UTF-8")
        assert _outcome(parse, io.BytesIO(b"\r".join(lines) + b"\r")) == lf

    def test_only_one_leading_mark_is_dropped(self):
        db = parse_transactions(["\ufeff\ufeffa\n", "\ufeffb\n"])
        assert db.strings == ("\ufeffa", "\ufeffb")


# Boundary tests: any file is either parsed or refused with ParseError, and
# its line ends (\n, \r\n, a bare \r, mixed) do not change the outcome.

_FIELDS = st.sampled_from(["", " ", "1", "07", "-2", "x", "Q ", " ab  c", "\u00e9", "http://a.com"])
_ROWS = st.lists(st.lists(_FIELDS, max_size=6).map("\t".join), max_size=6)
_AOL_HEADERS = st.sampled_from([
    AOL_HEADER, "AnonID\tQuery\tQueryTime", "querytime\tClickURL\tQUERY\tItemRank\tAnonID",
    "AnonID\tQuery", " ", "", None,
])


@st.composite
def _line_files(draw, headers=st.none()):
    """The same lines as two files: ended by \\n, and by a mix of line ends.
    Some files hold one line with bad UTF-8."""
    lines = draw(_ROWS)
    header = draw(headers)
    if header is not None:
        lines.insert(0, header)
    encoded = [line.encode() for line in lines]
    if encoded and draw(st.booleans()):
        i = draw(st.integers(0, len(encoded) - 1))
        cut = draw(st.integers(0, len(encoded[i])))
        encoded[i] = encoded[i][:cut] + b"\xff" + encoded[i][cut:]
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]),
                         min_size=len(encoded), max_size=len(encoded)))
    for i in range(len(encoded) - 1):
        if ends[i] == b"\r" and not encoded[i + 1] and ends[i + 1] != b"\r":
            ends[i] = b"\r\n"  # "\r" + "" + "\n" would read as one line end
    if ends and draw(st.booleans()):
        ends[-1] = b""  # no line end after the last line
    lf = b"".join(line + (end and b"\n") for line, end in zip(encoded, ends))
    mixed = b"".join(line + end for line, end in zip(encoded, ends))
    return lf, mixed


def _outcome(parse, lines):
    """What parsing ``lines`` gives: the result or the ParseError message,
    and the warnings. Any other exception escapes."""
    warnings = []
    try:
        result = parse(lines, on_warning=warnings.append)
    except ParseError as exc:
        result = f"ParseError: {exc}"
    return result, warnings


def _assert_line_ends_do_not_matter(parse, outcome, mixed: bytes):
    assert _outcome(parse, io.BytesIO(mixed)) == outcome
    if b"\xff" not in mixed:  # the same file as text, read without newline translation
        assert _outcome(parse, io.StringIO(mixed.decode(), newline="\n")) == outcome


class TestBoundaries:
    @given(_line_files(_AOL_HEADERS))
    def test_query_log_is_parsed_or_refused(self, files):
        lf, mixed = files
        outcome = _outcome(_listed_query_log, io.BytesIO(lf))
        records, _ = outcome
        if isinstance(records, list):
            assert all(r.anon_id and r.query for r in records)
            assert sessionize(records).n == len({r.anon_id for r in records})
        _assert_line_ends_do_not_matter(_listed_query_log, outcome, mixed)

    @given(_line_files())
    def test_keyword_dump_is_parsed_or_refused(self, files):
        lf, mixed = files
        outcome = _outcome(parse_keyword_registration, io.BytesIO(lf))
        db, _ = outcome
        if not isinstance(db, str):
            assert all(t.items and t.label for t in db)
        _assert_line_ends_do_not_matter(parse_keyword_registration, outcome, mixed)
