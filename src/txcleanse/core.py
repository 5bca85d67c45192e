"""Shared domain types: interned items, transactions, transaction databases.

A transaction is a duplicate-free set of items; a database is three
positional tuples: item strings (an item's id is its string's position),
rows (each one transaction's strictly increasing ids; its tid is the row's
position) and one label per row. Ids are dense and first-seen, so a
database serializes and re-ingests to an identical value.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

ItemId = int


class ParseError(ValueError):
    """Unrecoverable input problem (bad encoding, missing column, bad config)."""


def check_int(name: str, value: object) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an int (a
    bool is not a count)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


def check_number(name: str, value: object) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an int or a
    float (a bool is not a number) that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{name} must fit a float, got an int of {value.bit_length()} bits")


def normalize_item(raw: str) -> str:
    """Canonical item form: trimmed, lowercased, inner whitespace collapsed."""
    return " ".join(raw.split()).lower()


@dataclass(frozen=True, slots=True)
class Transaction:
    """A duplicate-free item set with a positional id.

    ``items`` is strictly increasing, so set equality equals tuple equality;
    the constructor checks that order. ``label`` carries an external tag
    (e.g. the URL of a keyword-registration line) and never participates in
    similarity or clustering.
    """

    tid: int
    items: tuple[ItemId, ...]
    label: str | None = None

    def __post_init__(self) -> None:
        if not all(map(operator.lt, self.items, self.items[1:])):
            raise ValueError(f"transaction {self.tid}: items not strictly increasing")

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self.items

    def item_set(self) -> set[ItemId]:
        return set(self.items)


@dataclass(frozen=True)
class TransactionDatabase:
    """Item strings in id order; rows and their labels (None for none) in
    tid order. Immutable once built.

    The constructor refuses, with ``ValueError`` naming the row, a row that
    is not strictly increasing or holds an id outside ``0..m-1``, and
    ``labels`` of another length than ``rows``. ``DatabaseBuilder.build``,
    whose rows pass by construction, makes its database without that check.
    """

    strings: tuple[str, ...]
    rows: tuple[tuple[ItemId, ...], ...]
    labels: tuple[str | None, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.rows):
            raise ValueError(f"{len(self.labels)} labels for {len(self.rows)} rows")
        m = len(self.strings)
        lt = operator.lt
        for tid, row in enumerate(self.rows):
            if not all(map(lt, row, row[1:])):
                raise ValueError(f"row {tid}: items not strictly increasing")
            if row and (row[0] < 0 or row[-1] >= m):
                raise ValueError(f"row {tid} has an item id outside 0..{m - 1}")

    @cached_property
    def transactions(self) -> tuple[Transaction, ...]:
        """The rows as ``Transaction`` values, built on first access and kept."""
        return tuple(map(Transaction, itertools.count(), self.rows, self.labels))

    @property
    def n(self) -> int:
        """Transaction count."""
        return len(self.rows)

    @property
    def m(self) -> int:
        """Distinct item count."""
        return len(self.strings)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __len__(self) -> int:
        return len(self.rows)

    def item_string(self, item_id: ItemId) -> str:
        return self.strings[item_id]

    def item_strings(self, t: Transaction) -> list[str]:
        """Item strings of one transaction, in id order."""
        return list(map(self.strings.__getitem__, t.items))

    def total_occurrences(self) -> int:
        """Sum of |T| over all transactions."""
        return sum(map(len, self.rows))


class _Interner(dict):
    """Normalized item string -> id, in first-seen order. Looking up a raw
    item that is no key normalizes it and returns its normalized form's id,
    interned if new, or -1 for the empty form. A raw item that is a key is
    its own normalized form (``normalize_item`` is idempotent) and its id."""

    def __missing__(self, raw: str) -> ItemId:
        if not isinstance(raw, str):
            raise ParseError(f"items must be str, got {type(raw).__name__} {raw!r}")
        return self.setdefault(item, len(self)) if (item := normalize_item(raw)) else -1


class DatabaseBuilder:
    """Single-writer accumulator for a TransactionDatabase.

    Items are normalized, deduplicated within a transaction (first occurrence
    wins for id assignment) and interned in input order, which keeps the
    serialize/re-ingest round trip exact. Each raw item is looked up once;
    only one that is not a normalized string already held is normalized.
    """

    def __init__(self) -> None:
        self._ids = _Interner()
        self._rows: list[tuple[ItemId, ...]] = []
        self._labels: list[str | None] = []

    def add(self, raw_items: Iterable[str], label: str | None = None) -> bool:
        """Append one transaction. Returns False (and adds nothing) when every
        item normalizes to the empty string; raises ``ParseError`` for an
        item that is not a str."""
        ids = set(map(self._ids.__getitem__, raw_items))
        ids.discard(-1)
        if not ids:
            return False
        self._rows.append(tuple(sorted(ids)))
        self._labels.append(label)
        return True

    def build(self) -> TransactionDatabase:
        """The database of the rows added so far, built without the
        constructor's row check: each row is the sorted set of ids that
        ``add`` handed out, so it is strictly increasing and inside
        ``0..m-1``, and each row has its label."""
        db = object.__new__(TransactionDatabase)
        vars(db).update(strings=tuple(self._ids), rows=tuple(self._rows),
                        labels=tuple(self._labels))
        return db


def database_from_items(item_lists: Iterable[Iterable[str]]) -> TransactionDatabase:
    """Build a database directly from in-memory item lists (empty ones skipped)."""
    builder = DatabaseBuilder()
    for items in item_lists:
        builder.add(items)
    return builder.build()


def remap(db: TransactionDatabase, id_map: Mapping[ItemId, ItemId]) -> TransactionDatabase:
    """``db`` with every item id rewritten through ``id_map``.

    ``id_map`` must be order-preserving (old ids a < b map to new ids
    a' < b') and onto 0..len(id_map)-1; the constructor refuses a row
    that another map leaves out of order. The new strings are the mapped
    items' strings in new-id order, reusing ``db``'s strings. Items missing
    from ``id_map`` are dropped, rows left empty are dropped, and survivors
    keep their order and labels; their tids are their new positions.
    """
    new_ids: list[ItemId | None] = [None] * db.m
    names: list[str] = [""] * len(id_map)
    for old, new in id_map.items():
        new_ids[old] = new
        names[new] = db.strings[old]
    mapped = [tuple([j for i in row if (j := new_ids[i]) is not None]) for row in db.rows]
    return TransactionDatabase(tuple(names), tuple(filter(None, mapped)),
                               tuple(itertools.compress(db.labels, mapped)))
