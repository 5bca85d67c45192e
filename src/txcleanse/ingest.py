"""Parsers turning raw files into transaction databases.

Three input shapes are supported:

* generic transaction files: one transaction per line, items separated by a
  delimiter (default TAB), ``#`` starts a comment line;
* AOL-style query logs: TSV with a header row naming AnonID, Query,
  QueryTime and optionally ItemRank, ClickURL; grouped into one transaction
  per user;
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
from typing import Callable, Iterable, Iterator

from .core import DatabaseBuilder, ParseError, TransactionDatabase, remap

log = logging.getLogger(__name__)

WarningSink = Callable[[str], None]


def _decoded_lines(lines: Iterable[str | bytes]) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, text) decoding bytes as UTF-8."""
    for lineno, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"line {lineno}: invalid UTF-8 ({exc.reason})") from exc
        yield lineno, line.rstrip("\r\n")


def parse_transactions(
    lines: Iterable[str | bytes],
    delimiter: str = "\t",
    on_warning: WarningSink | None = None,
) -> TransactionDatabase:
    """Parse the generic one-transaction-per-line format.

    Blank lines and ``#`` comments are skipped silently; a line whose items
    all normalize to empty is skipped with a warning.
    """
    warn = on_warning or log.warning
    builder = DatabaseBuilder()
    for lineno, text in _decoded_lines(lines):
        if not text or text.startswith("#"):
            continue
        if not builder.add(text.split(delimiter)):
            warn(f"line {lineno}: all items empty after normalization; line skipped")
    return builder.build()


def serialize_transactions(db: TransactionDatabase, delimiter: str = "\t") -> Iterator[str]:
    """Yield one line per transaction (no trailing newline), items in id order.

    ``parse_transactions(serialize_transactions(db))`` reproduces ``db``.
    """
    for t in db.transactions:
        yield delimiter.join(db.item_strings(t))


def write_transactions(db: TransactionDatabase, path, delimiter: str = "\t") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in serialize_transactions(db, delimiter):
            fh.write(line + "\n")


@dataclass(frozen=True)
class QueryLogRecord:
    """One row of an AOL-style query log."""

    anon_id: str
    query: str
    query_time: str
    item_rank: int | None = None
    click_url: str | None = None


_REQUIRED_COLUMNS = ("anonid", "query", "querytime")


def parse_query_log(
    lines: Iterable[str | bytes],
    on_warning: WarningSink | None = None,
) -> list[QueryLogRecord]:
    """Parse a TSV query log with a header row; columns matched by name.

    AnonID, Query and QueryTime are required columns; ItemRank and ClickURL
    are optional and appear jointly when the user clicked a result. Rows with
    the wrong field count, an empty id/query, or a half-present click pair
    are skipped or repaired with a warning.
    """
    warn = on_warning or log.warning
    decoded = _decoded_lines(lines)
    try:
        _, header = next(decoded)
    except StopIteration:
        raise ParseError("query log is empty: header row required") from None

    columns = {name.strip().lower(): idx for idx, name in enumerate(header.split("\t"))}
    missing = [c for c in _REQUIRED_COLUMNS if c not in columns]
    if missing:
        raise ParseError(f"query log header missing required column(s): {', '.join(missing)}")
    arity = len(header.split("\t"))
    rank_idx = columns.get("itemrank")
    url_idx = columns.get("clickurl")

    records: list[QueryLogRecord] = []
    for lineno, text in decoded:
        if not text.strip():
            continue
        fields = text.split("\t")
        if len(fields) != arity:
            warn(f"line {lineno}: expected {arity} fields, got {len(fields)}; row skipped")
            continue
        anon_id = fields[columns["anonid"]].strip()
        query = fields[columns["query"]].strip()
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
        records.append(
            QueryLogRecord(
                anon_id=anon_id,
                query=query,
                query_time=fields[columns["querytime"]].strip(),
                item_rank=item_rank,
                click_url=click_url,
            )
        )
    return records


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
) -> TransactionDatabase:
    """Parse a keyword-registration dump: URL, TAB, keyword list.

    The URL becomes the transaction label, never an item. Lines with no
    usable keywords are skipped with a warning.
    """
    warn = on_warning or log.warning
    builder = DatabaseBuilder()
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
    return builder.build()


def truncate(db: TransactionDatabase, limit: int) -> TransactionDatabase:
    """First ``limit`` transactions as a fresh database with a compacted
    dictionary (head-of-file truncation for scaling runs).

    Ids are assigned in first-seen order, so the head uses exactly the id
    prefix 0..(largest id in the head). The result is the identity remap
    onto that prefix: item ids, strings, transaction order and labels are
    kept as they are.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit >= db.n:
        return db
    head = db.transactions[:limit]
    top = max((t.items[-1] for t in head if t.items), default=-1)
    return remap(db, {i: i for i in range(top + 1)}, head)


__all__ = [
    "QueryLogRecord",
    "parse_transactions",
    "serialize_transactions",
    "write_transactions",
    "parse_query_log",
    "sessionize",
    "parse_keyword_registration",
    "truncate",
]
