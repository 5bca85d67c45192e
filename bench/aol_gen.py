"""Seeded AOL-style query-log writer for the ``aol-wide`` workload.

Standard library only. Users are sorted by AnonID and their rows are
contiguous with rising QueryTime, as in the published AOL log. Each user
follows one planted topic and issues a few distinct queries from it, some
of them repeated with case and whitespace variations that normalize to the
same item. A share of users also issues navigational "hub" queries or a
one-off junk query. A share of rows carries an ItemRank/ClickURL pair.

Two kinds of flawed rows are planted at fixed shares:

* skipped rows (wrong field count, empty AnonID, whitespace-only Query):
  ``parse_query_log`` must drop them with a warning. Their queries never
  occur in a valid row, so keeping one would change the item set;
* half click pairs (ItemRank without ClickURL): the row is kept with a
  warning and only the click pair is dropped.

The writer returns the sessions the log encodes: per user, in order of
first appearance, the normalized distinct queries in first-issue order.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

HEADER = "AnonID\tQuery\tQueryTime\tItemRank\tClickURL"
HUBS = ("google", "yahoo", "ebay", "myspace", "mapquest")
_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
QUERIES_PER_TOPIC = 7
PICKS = (3, 5)          # distinct topic queries per user, inclusive range
MAX_REPEATS = 3         # times one distinct query is issued, at most
HUB_RATE = 0.12         # chance a user issues each hub query
JUNK_RATE = 0.3         # chance a user issues one one-off junk query
CLICK_RATE = 0.35       # share of rows with an ItemRank/ClickURL pair
SKIPPED_ROW_EVERY = 64  # a row to skip follows every 64th valid row
HALF_CLICK_EVERY = 200  # every 200th valid row has ItemRank but no ClickURL


@dataclass(frozen=True)
class AolSpec:
    users: int
    topics: int
    seed: int


@dataclass(frozen=True)
class AolLog:
    rows: int
    skipped_rows: int
    half_click_rows: int
    sessions: list[tuple[str, list[str]]]

    def to_json_dict(self) -> dict:
        return asdict(self)


def _words(rng: random.Random, count: int) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        syllables = rng.randint(2, 3)
        words.add("".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                          for _ in range(syllables)))
    return sorted(words)


def _variant(rng: random.Random, query: str) -> str:
    """A spelling of ``query`` that normalizes back to it."""
    roll = rng.random()
    if roll < 0.3:
        return query.upper()
    if roll < 0.6:
        return query.title()
    if roll < 0.8:
        return "  " + query.replace(" ", "   ") + " "
    return query


def write_aol_log(spec: AolSpec, path) -> AolLog:
    rng = random.Random(spec.seed)
    vocabulary = _words(rng, 400)
    pools = []
    seen: set[str] = set(HUBS)
    for _ in range(spec.topics):
        stem = rng.sample(vocabulary, 2)
        pool: list[str] = []
        while len(pool) < QUERIES_PER_TOPIC:
            query = f"{stem[0]} {stem[1]} {rng.choice(vocabulary)}"
            if query not in seen:
                seen.add(query)
                pool.append(query)
        pools.append(pool)
    anon_ids = sorted(rng.sample(range(100_000, 10_000_000), spec.users))

    lines = [HEADER]
    sessions: list[tuple[str, list[str]]] = []
    valid_rows = skipped = half_clicks = junk = 0
    clock = 0
    for anon in anon_ids:
        anon_id = str(anon)
        pool = pools[rng.randrange(spec.topics)]
        distinct = rng.sample(pool, rng.randint(*PICKS))
        distinct += [hub for hub in HUBS if rng.random() < HUB_RATE]
        if rng.random() < JUNK_RATE:
            distinct.append(f"junk query {junk:06d}")
            junk += 1
        issued = [q for q in distinct for _ in range(rng.randint(1, MAX_REPEATS))]
        rng.shuffle(issued)
        order: dict[str, None] = {}
        for query in issued:
            order.setdefault(query, None)
            clock += rng.randint(1, 900)
            stamp = (f"2006-03-{1 + clock // 86_400 % 28:02d} "
                     f"{clock // 3600 % 24:02d}:{clock // 60 % 60:02d}:{clock % 60:02d}")
            rank = url = ""
            if rng.random() < CLICK_RATE:
                rank = str(rng.randint(1, 10))
                url = f"http://www.{query.split()[-1]}{rng.randint(1, 99)}.com"
            valid_rows += 1
            if valid_rows % HALF_CLICK_EVERY == 0:
                rank, url = str(rng.randint(1, 10)), ""
                half_clicks += 1
            lines.append(f"{anon_id}\t{_variant(rng, query)}\t{stamp}\t{rank}\t{url}")
            if valid_rows % SKIPPED_ROW_EVERY == 0:
                lines.append(_skipped_row(skipped, anon_id, stamp))
                skipped += 1
        sessions.append((anon_id, list(order)))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return AolLog(rows=len(lines) - 1, skipped_rows=skipped,
                  half_click_rows=half_clicks, sessions=sessions)


def _skipped_row(index: int, anon_id: str, stamp: str) -> str:
    kind = index % 3
    query = f"malformed row {index:05d}"
    if kind == 0:
        return f"{anon_id}\t{query}\t{stamp}"
    if kind == 1:
        return f" \t{query}\t{stamp}\t\t"
    return f"{anon_id}\t   \t{stamp}\t\t"

