"""Shared domain types: interned items, transactions, transaction databases.

A transaction is a duplicate-free set of items; a database is an ordered
list of transactions sharing one item dictionary. Item ids are dense
integers assigned in first-seen order, so a database serializes and
re-ingests to an identical value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

ItemId = int

_WS = re.compile(r"\s+")


class ParseError(ValueError):
    """Unrecoverable input problem (bad encoding, missing column, bad config)."""


def normalize_item(raw: str) -> str:
    """Canonical item form: trimmed, lowercased, inner whitespace collapsed."""
    return _WS.sub(" ", raw.strip()).lower()


class ItemDictionary:
    """Bijection between item strings and dense ids 0..m-1 in first-seen order."""

    __slots__ = ("_strings", "_ids")

    def __init__(self) -> None:
        self._strings: list[str] = []
        self._ids: dict[str, ItemId] = {}

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, item: str) -> bool:
        return normalize_item(item) in self._ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ItemDictionary):
            return NotImplemented
        return self._strings == other._strings

    def __repr__(self) -> str:
        return f"ItemDictionary({len(self._strings)} items)"

    def intern(self, raw: str) -> ItemId:
        """Return the id for the normalized form of ``raw``, assigning the next
        dense id on first sight.

        Raises ValueError if the string is empty after normalization; parsers
        screen such items out before interning.
        """
        name = normalize_item(raw)
        if not name:
            raise ValueError("item string is empty after normalization")
        return self._intern_normalized(name)

    def _intern_normalized(self, name: str) -> ItemId:
        # ``name`` is already non-empty and normalized.
        existing = self._ids.get(name)
        if existing is not None:
            return existing
        item_id = len(self._strings)
        self._ids[name] = item_id
        self._strings.append(name)
        return item_id

    def lookup(self, item_id: ItemId) -> str:
        return self._strings[item_id]

    def id_of(self, raw: str) -> ItemId | None:
        """Id of an already-interned item, or None."""
        return self._ids.get(normalize_item(raw))

    def strings(self) -> tuple[str, ...]:
        """All item strings in id order."""
        return tuple(self._strings)


@dataclass(frozen=True)
class Transaction:
    """A duplicate-free item set with a positional id.

    ``items`` is strictly increasing, so set equality equals tuple equality.
    ``label`` carries an external tag (e.g. the URL of a keyword-registration
    line) and never participates in similarity or clustering.
    """

    tid: int
    items: tuple[ItemId, ...]
    label: str | None = None

    def __post_init__(self) -> None:
        if any(a >= b for a, b in zip(self.items, self.items[1:])):
            raise ValueError(f"transaction {self.tid}: items not strictly increasing")

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self.items

    def item_set(self) -> set[ItemId]:
        return set(self.items)


@dataclass(frozen=True)
class TransactionDatabase:
    """Ordered transactions over one shared dictionary. Immutable once built."""

    dictionary: ItemDictionary
    transactions: tuple[Transaction, ...]

    @property
    def n(self) -> int:
        """Transaction count."""
        return len(self.transactions)

    @property
    def m(self) -> int:
        """Distinct item count."""
        return len(self.dictionary)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __len__(self) -> int:
        return len(self.transactions)

    def item_string(self, item_id: ItemId) -> str:
        return self.dictionary.lookup(item_id)

    def item_strings(self, t: Transaction) -> list[str]:
        """Item strings of one transaction, in id order."""
        return [self.dictionary.lookup(i) for i in t.items]

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
        self._dictionary = ItemDictionary()
        self._transactions: list[Transaction] = []

    def add(self, raw_items: Iterable[str], label: str | None = None) -> bool:
        """Append one transaction. Returns False (and adds nothing) when every
        item normalizes to the empty string."""
        names = [n for n in dict.fromkeys(normalize_item(r) for r in raw_items) if n]
        if not names:
            return False
        intern = self._dictionary._intern_normalized
        ids = sorted(intern(n) for n in names)
        self._transactions.append(Transaction(len(self._transactions), tuple(ids), label))
        return True

    def build(self) -> TransactionDatabase:
        return TransactionDatabase(self._dictionary, tuple(self._transactions))


def database_from_items(item_lists: Iterable[Iterable[str]]) -> TransactionDatabase:
    """Build a database directly from in-memory item lists (empty ones skipped)."""
    builder = DatabaseBuilder()
    for items in item_lists:
        builder.add(items)
    return builder.build()


def remap(
    db: TransactionDatabase,
    id_map: Mapping[ItemId, ItemId],
    transactions: Iterable[Transaction],
) -> TransactionDatabase:
    """Database of ``transactions`` (drawn from ``db``) with every item id
    rewritten through ``id_map``.

    ``id_map`` must be order-preserving (old ids a < b map to new ids
    a' < b') and onto 0..len(id_map)-1. The new dictionary holds the mapped
    items' strings in new-id order, reusing ``db``'s normalized strings.
    Items missing from ``id_map`` are dropped, transactions left empty are
    dropped, and survivors keep their order and labels under fresh dense tids.
    """
    new_ids: list[ItemId | None] = [None] * db.m
    names: list[str] = [""] * len(id_map)
    for old, new in id_map.items():
        new_ids[old] = new
        names[new] = db.dictionary.lookup(old)
    dictionary = ItemDictionary()
    for name in names:
        dictionary._intern_normalized(name)
    kept: list[Transaction] = []
    for t in transactions:
        items = tuple([j for i in t.items if (j := new_ids[i]) is not None])
        if items:
            kept.append(Transaction(len(kept), items, t.label))
    return TransactionDatabase(dictionary, tuple(kept))
