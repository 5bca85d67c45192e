"""Parsers turning raw files into transaction databases.

Three input shapes are supported:

* generic transaction files: one transaction per line, items separated by a
  delimiter (default TAB), ``#`` starts a comment line;
* AOL-style query logs: TSV with a header row naming AnonID, Query,
  QueryTime and optionally ItemRank, ClickURL, each at most once; grouped
  into one transaction per user. ``iter_query_log`` yields each row's
  record as the row is read, so ``sessionize(iter_query_log(lines))``
  holds the users' queries but never a list of the log's records;
* keyword-registration dumps: TAB-delimited, first field a URL, remaining
  fields the registered keywords.

Parsers accept any iterable of ``str`` or ``bytes`` lines, so callers may
pass open files (text or binary), lists, or generators. Bad UTF-8 is a hard
error carrying the line number; recoverable oddities are reported through an
``on_warning`` callback (default: module logger) and skipped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .core import DatabaseBuilder, ParseError, TransactionDatabase, check_int

log = logging.getLogger(__name__)

WarningSink = Callable[[str], None]


def _decoded_lines(lines: Iterable[str | bytes]) -> Iterator[tuple[int, str]]:
    r"""Yield (1-based line number, text) decoding bytes as UTF-8.

    Each element of ``lines`` is one line ended by ``\n`` or ``\r\n``, as
    from iterating a file, unless it holds a bare ``\r``, which ends a line
    too (Python's universal newlines). Line numbers count every line end.
    One byte-order mark (U+FEFF) opening line 1 is dropped; any other stays.
    A bare ``str`` or ``bytes`` passed as ``lines`` is refused with
    ``ParseError``: iterating it would yield characters or ints, not lines.
    """
    if isinstance(lines, (str, bytes)):
        raise ParseError(f"lines must be an iterable of lines, got a {type(lines).__name__}")
    lineno = 0
    for line in lines:
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                # the lines before the bad one come first, as from a text file
                head = line[:exc.start].decode("utf-8")
                *before, _ = (head if lineno else head.removeprefix("\ufeff")).split("\r")
                for lineno, text in enumerate(before, lineno + 1):
                    yield lineno, text
                raise ParseError(f"line {lineno + 1}: invalid UTF-8 ({exc.reason})") from exc
        if not lineno:
            line = line.removeprefix("\ufeff")
        lineno += 1
        if "\r" not in line:
            yield lineno, line.rstrip("\n")
        else:
            # drop the line end that closes the last line, then split at the rest
            texts = line.removesuffix("\n").removesuffix("\r").split("\r")
            for lineno, text in enumerate(texts, lineno):
                yield lineno, text


def check_limit(limit: int | None) -> None:
    if limit is not None:
        check_int("limit", limit)
        if limit < 1:
            raise ValueError("limit must be >= 1")


def check_delimiter(delimiter: str) -> None:
    """Raise ``ParseError`` unless ``delimiter`` can separate the items of
    one line: it must be a non-empty str and hold no line break."""
    if not isinstance(delimiter, str):
        raise ParseError(f"delimiter must be a str, got {delimiter!r}")
    if not delimiter or "\n" in delimiter or "\r" in delimiter:
        raise ParseError(f"delimiter must be non-empty and hold no line break, got {delimiter!r}")


def parse_transactions(
    lines: Iterable[str | bytes],
    delimiter: str = "\t",
    on_warning: WarningSink | None = None,
    limit: int | None = None,
) -> TransactionDatabase:
    """Parse the generic one-transaction-per-line format.

    Blank lines and ``#`` comments are skipped silently; a line whose items
    all normalize to empty is skipped with a warning. With ``limit``, no
    line is read after the ``limit``-th transaction, and the result equals
    ``truncate`` of the whole parse. A bad delimiter (see ``check_delimiter``)
    raises ``ParseError`` before any line is read.
    """
    check_limit(limit)
    check_delimiter(delimiter)
    warn = on_warning or log.warning
    builder = DatabaseBuilder()
    kept = 0
    for lineno, text in _decoded_lines(lines):
        if not text or text.startswith("#"):
            continue
        if not builder.add(text.split(delimiter)):
            warn(f"line {lineno}: all items empty after normalization; line skipped")
        elif (kept := kept + 1) == limit:
            break
    return builder.build()


def serialize_transactions(db: TransactionDatabase, delimiter: str = "\t",
                           strings: Sequence[str | None] | None = None) -> Iterator[str]:
    """Yield one line per transaction (no trailing newline), items in id order.

    ``strings``, an m-entry table, defaults to ``db.strings``; its empty and
    None entries are left out, and so is a line left with no item. The lines
    re-read (``parse_transactions(lines, d)``) as ``db``, labels aside, when
    its ids are first-seen and its strings normalized, as every parser builds
    them, every written ``s`` has ``(s + d).find(d) == len(s)``, and no line
    starts with ``#``, nor line 1 with U+FEFF. ``write_transactions`` refuses
    to write any other lines. A bad delimiter (see ``check_delimiter``)
    raises ``ParseError`` before the first line is yielded.
    """
    check_delimiter(delimiter)
    item = (db.strings if strings is None else strings).__getitem__
    for row in db.rows:
        if line := delimiter.join(filter(None, map(item, row))):
            yield line


def write_transactions(db: TransactionDatabase, path, delimiter: str = "\t",
                       strings: Sequence[str | None] | None = None) -> None:
    """Write the lines of ``serialize_transactions(db, delimiter, strings)``,
    each ended by ``\\n``; raise ``ParseError``, before ``path`` is opened,
    for a bad delimiter (see ``check_delimiter``) or, naming the item, if
    the lines would not re-read as written."""
    check_delimiter(delimiter)
    written = list(filter(None, db.strings if strings is None else strings))
    for s in written:
        if (s + delimiter).find(delimiter) != len(s):
            raise ParseError(f"item {s!r} contains the delimiter {delimiter!r}")
    if any(s[0] in "#\ufeff" for s in written):
        for lineno, line in enumerate(serialize_transactions(db, delimiter, strings), 1):
            if line[0] == "#" or lineno == 1 and line[0] == "\ufeff":
                fate = "re-read as a comment" if line[0] == "#" else "lose its byte-order mark"
                raise ParseError(f"line {lineno} would start with item "
                                 f"{line.split(delimiter, 1)[0]!r} and {fate}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in serialize_transactions(db, delimiter, strings))


@dataclass(frozen=True, slots=True)
class QueryLogRecord:
    """One row of an AOL-style query log."""

    anon_id: str
    query: str
    query_time: str
    item_rank: int | None = None
    click_url: str | None = None


_REQUIRED_COLUMNS = ("anonid", "query", "querytime")


def iter_query_log(
    lines: Iterable[str | bytes],
    on_warning: WarningSink | None = None,
) -> Iterator[QueryLogRecord]:
    """Yield the records of a TSV query log with a header row, one per
    usable row, as each row is read; columns matched by name.

    AnonID, Query and QueryTime are required columns; ItemRank and ClickURL
    are optional and appear jointly when the user clicked a result. Header
    names are matched trimmed and lowercased; a header that names a column
    twice is refused (an empty header field names no column). Rows with
    the wrong field count, an empty id/query, or a half-present click pair
    are skipped or repaired with a warning. A ``ParseError`` for the header
    (an empty log included) is raised by the first ``next``.
    """
    warn = on_warning or log.warning
    decoded = _decoded_lines(lines)
    try:
        _, header = next(decoded)
    except StopIteration:
        raise ParseError("query log is empty: header row required") from None

    names = [name.strip().lower() for name in header.split("\t")]
    columns: dict[str, int] = {}
    for idx, name in enumerate(names):
        if name and name in columns:
            raise ParseError(f"query log header names column {name!r} twice"
                             f" (fields {columns[name] + 1} and {idx + 1})")
        columns[name] = idx
    missing = [c for c in _REQUIRED_COLUMNS if c not in columns]
    if missing:
        raise ParseError(f"query log header missing required column(s): {', '.join(missing)}")
    arity = len(names)
    id_idx, query_idx, time_idx = (columns[c] for c in _REQUIRED_COLUMNS)
    rank_idx = columns.get("itemrank")
    url_idx = columns.get("clickurl")

    for lineno, text in decoded:
        if not text.strip():
            continue
        fields = text.split("\t")
        if len(fields) != arity:
            warn(f"line {lineno}: expected {arity} fields, got {len(fields)}; row skipped")
            continue
        anon_id = fields[id_idx].strip()
        query = fields[query_idx].strip()
        if not anon_id or not query:
            warn(f"line {lineno}: empty AnonID or Query; row skipped")
            continue
        rank_raw = fields[rank_idx].strip() if rank_idx is not None else ""
        url_raw = fields[url_idx].strip() if url_idx is not None else ""
        item_rank: int | None = None
        click_url: str | None = None
        if rank_raw and url_raw:
            try:
                item_rank = int(rank_raw)
                click_url = url_raw
            except ValueError:
                warn(f"line {lineno}: non-integer ItemRank {rank_raw!r}; click pair dropped")
        elif rank_raw or url_raw:
            warn(f"line {lineno}: ItemRank/ClickURL must appear together; click pair dropped")
        yield QueryLogRecord(anon_id, query, fields[time_idx].strip(), item_rank, click_url)


def sessionize(records: Iterable[QueryLogRecord]) -> TransactionDatabase:
    """Group query-log records into one transaction per user.

    Each transaction holds the deduplicated set of the user's normalized
    query strings, in order of the user's first appearance. The user id is
    deliberately not an item: id-based similarity between different users is
    always zero and would only pollute the item sets. Users whose queries all
    normalize to empty produce no transaction.
    """
    by_user: dict[str, list[str]] = {}
    for record in records:
        by_user.setdefault(record.anon_id, []).append(record.query)
    builder = DatabaseBuilder()
    for anon_id, queries in by_user.items():
        builder.add(queries, label=anon_id)
    return builder.build()


def parse_keyword_registration(
    lines: Iterable[str | bytes],
    on_warning: WarningSink | None = None,
    limit: int | None = None,
) -> TransactionDatabase:
    """Parse a keyword-registration dump: URL, TAB, keyword list.

    The URL becomes the transaction label, never an item. Lines with no
    usable keywords are skipped with a warning. ``limit`` stops reading as
    in ``parse_transactions``.
    """
    check_limit(limit)
    warn = on_warning or log.warning
    builder = DatabaseBuilder()
    kept = 0
    for lineno, text in _decoded_lines(lines):
        if not text.strip():
            continue
        fields = text.split("\t")
        url = fields[0].strip()
        if not url:
            warn(f"line {lineno}: missing URL; line skipped")
            continue
        if not builder.add(fields[1:], label=url):
            warn(f"line {lineno}: URL {url!r} has no keywords; line skipped")
        elif (kept := kept + 1) == limit:
            break
    return builder.build()


def truncate(db: TransactionDatabase, limit: int) -> TransactionDatabase:
    """First ``limit`` transactions over the id prefix they use (head-of-file
    truncation for scaling runs).

    Exact when ids are first-seen and no row is empty, as every parser,
    ``DatabaseBuilder`` and ``cleanse`` guarantee: the head then uses
    exactly the ids 0..(largest id in the head). The result shares the
    head's own rows and labels and the prefix of ``db.strings``; no row is
    copied. A head that holds no id keeps no string.
    """
    check_limit(limit)
    if limit >= db.n:
        return db
    head = db.rows[:limit]
    largest = max((row[-1] for row in head if row), default=-1)
    return TransactionDatabase(db.strings[:largest + 1], head, db.labels[:limit])


__all__ = [
    "QueryLogRecord",
    "parse_transactions",
    "serialize_transactions",
    "write_transactions",
    "iter_query_log",
    "sessionize",
    "parse_keyword_registration",
    "truncate",
]
