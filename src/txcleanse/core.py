"""Shared domain types: interned items, transactions, transaction databases.

A transaction is a duplicate-free set of items; a database is two
positional tuples: its item strings, where an item's id is the position of
its normalized string, and its transactions, where a transaction's tid is
its position. Item ids are dense integers assigned in first-seen order, so
a database serializes and re-ingests to an identical value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

ItemId = int


class ParseError(ValueError):
    """Unrecoverable input problem (bad encoding, missing column, bad config)."""


def normalize_item(raw: str) -> str:
    """Canonical item form: trimmed, lowercased, inner whitespace collapsed."""
    return " ".join(raw.split()).lower()


@dataclass(frozen=True, slots=True)
class Transaction:
    """A duplicate-free item set with a positional id.

    ``items`` is strictly increasing, so set equality equals tuple equality.
    ``label`` carries an external tag (e.g. the URL of a keyword-registration
    line) and never participates in similarity or clustering.

    The constructor checks that order, which guards hand-built instances.
    ``DatabaseBuilder.add`` and ``remap`` skip it through ``_sorted_transaction``:
    the builder sorts a set of ids and ``remap`` maps an increasing tuple
    through an order-preserving id map, so their items are increasing by
    construction and the check would only repeat work on every transaction.
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


# The slots' member descriptors write past the frozen dataclass's __setattr__.
_new_object = object.__new__
_set_tid = Transaction.tid.__set__
_set_items = Transaction.items.__set__
_set_label = Transaction.label.__set__


def _sorted_transaction(tid: int, items: tuple[ItemId, ...], label: str | None) -> Transaction:
    """Transaction whose ``items`` the caller guarantees strictly increasing:
    the slots are set directly, so ``__post_init__``'s check is skipped."""
    t = _new_object(Transaction)
    _set_tid(t, tid)
    _set_items(t, items)
    _set_label(t, label)
    return t


@dataclass(frozen=True)
class TransactionDatabase:
    """Item strings in id order, transactions in tid order. Immutable once built."""

    strings: tuple[str, ...]
    transactions: tuple[Transaction, ...]

    @property
    def n(self) -> int:
        """Transaction count."""
        return len(self.transactions)

    @property
    def m(self) -> int:
        """Distinct item count."""
        return len(self.strings)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __len__(self) -> int:
        return len(self.transactions)

    def item_string(self, item_id: ItemId) -> str:
        return self.strings[item_id]

    def item_strings(self, t: Transaction) -> list[str]:
        """Item strings of one transaction, in id order."""
        return list(map(self.strings.__getitem__, t.items))

    def total_occurrences(self) -> int:
        """Sum of |T| over all transactions."""
        return sum(len(t) for t in self.transactions)


class DatabaseBuilder:
    """Single-writer accumulator for a TransactionDatabase.

    Items are normalized, deduplicated within a transaction (first occurrence
    wins for id assignment) and interned in input order, which keeps the
    serialize/re-ingest round trip exact.
    """

    def __init__(self) -> None:
        self._ids: dict[str, ItemId] = {}
        self._transactions: list[Transaction] = []

    def add(self, raw_items: Iterable[str], label: str | None = None) -> bool:
        """Append one transaction. Returns False (and adds nothing) when every
        item normalizes to the empty string.

        The dictionary's keys are normalized strings, and ``normalize_item``
        is idempotent, so a raw item that already is a key normalizes to
        itself and keeps that key's id. When every raw item is a key, those
        ids are final. Otherwise only the raw items that are not keys are
        normalized, and new items are interned in input order; since ``""``
        is never a key, the ids are those of normalizing every item.
        """
        known = self._ids
        if not isinstance(raw_items, list):
            raw_items = list(raw_items)
        ids = set(map(known.get, raw_items))
        if None in ids:
            ids = {
                known[r] if r in known else known.setdefault(n, len(known))
                for r in raw_items
                if r in known or (n := normalize_item(r))
            }
        if not ids:
            return False
        self._transactions.append(
            _sorted_transaction(len(self._transactions), tuple(sorted(ids)), label)
        )
        return True

    def build(self) -> TransactionDatabase:
        return TransactionDatabase(tuple(self._ids), tuple(self._transactions))


def database_from_items(item_lists: Iterable[Iterable[str]]) -> TransactionDatabase:
    """Build a database directly from in-memory item lists (empty ones skipped)."""
    builder = DatabaseBuilder()
    for items in item_lists:
        builder.add(items)
    return builder.build()


def remap(db: TransactionDatabase, id_map: Mapping[ItemId, ItemId]) -> TransactionDatabase:
    """``db`` with every item id rewritten through ``id_map``.

    ``id_map`` must be order-preserving (old ids a < b map to new ids
    a' < b') and onto 0..len(id_map)-1. Nothing checks it: the remapped
    transactions skip ``Transaction``'s order check. The new strings are
    the mapped items' strings in new-id order, reusing ``db``'s normalized
    strings.
    Items missing from ``id_map`` are dropped, transactions left empty are
    dropped, and survivors keep their order and labels under fresh dense tids.
    """
    new_ids: list[ItemId | None] = [None] * db.m
    names: list[str] = [""] * len(id_map)
    for old, new in id_map.items():
        new_ids[old] = new
        names[new] = db.strings[old]
    kept: list[Transaction] = []
    for t in db.transactions:
        items = tuple([j for i in t.items if (j := new_ids[i]) is not None])
        if items:
            kept.append(_sorted_transaction(len(kept), items, t.label))
    return TransactionDatabase(tuple(names), tuple(kept))
