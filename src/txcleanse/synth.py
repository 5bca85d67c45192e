"""Seeded synthetic transaction databases with planted clusters and noise.

Each transaction samples items from its planted cluster's exclusive pool, a
small set of near-ubiquitous items is sprinkled across most transactions,
and a fraction of transactions receive one-off junk items that occur exactly
once in the whole database (the low-frequency noise regime of real query
logs). Same seed, same database.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import DatabaseBuilder, TransactionDatabase, check_int


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the generator; defaults give a mid-size noisy benchmark."""

    transactions: int = 5000
    clusters: int = 50
    items_per_cluster: int = 20
    picks_per_transaction: int = 10
    noise_rate: float = 0.3
    noise_items_per_hit: int = 1
    ubiquitous_items: int = 5
    ubiquity: float = 0.95
    seed: int = 0

    def validate(self) -> None:
        for name in ("transactions", "clusters", "items_per_cluster", "picks_per_transaction",
                     "noise_items_per_hit", "ubiquitous_items"):
            check_int(name, getattr(self, name))
        if self.transactions < 1:
            raise ValueError("transactions must be >= 1")
        if self.clusters < 1 or self.clusters > self.transactions:
            raise ValueError("clusters must be in [1, transactions]")
        if not 1 <= self.picks_per_transaction <= self.items_per_cluster:
            raise ValueError("picks_per_transaction (--picks) must be in [1, items_per_cluster]")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError("noise_rate must be in [0, 1]")
        if self.noise_items_per_hit < 1:
            raise ValueError("noise_items_per_hit (--noise-items) must be >= 1")
        if self.ubiquitous_items < 0:
            raise ValueError("ubiquitous_items (--ubiquitous) must be >= 0")
        if not 0.0 <= self.ubiquity <= 1.0:
            raise ValueError("ubiquity must be in [0, 1]")


def generate_synthetic(spec: SyntheticSpec) -> tuple[TransactionDatabase, list[int]]:
    """Build a labeled database; returns (database, planted cluster per tid)."""
    spec.validate()
    rng = random.Random(spec.seed)
    pools = [
        [f"c{c:03d}_item{i:03d}" for i in range(spec.items_per_cluster)]
        for c in range(spec.clusters)
    ]
    hubs = [f"hub{h:02d}" for h in range(spec.ubiquitous_items)]

    builder = DatabaseBuilder()
    labels: list[int] = []
    junk_counter = 0
    for tid in range(spec.transactions):
        cluster = rng.randrange(spec.clusters)
        items = rng.sample(pools[cluster], spec.picks_per_transaction)
        for hub in hubs:
            if rng.random() < spec.ubiquity:
                items.append(hub)
        if rng.random() < spec.noise_rate:
            for _ in range(spec.noise_items_per_hit):
                items.append(f"junk{junk_counter:07d}")
                junk_counter += 1
        builder.add(items)
        labels.append(cluster)
    return builder.build(), labels


def write_labels_csv(labels: list[int], path) -> None:
    """Ground-truth export: ``tid,planted_cluster`` per transaction."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tid,planted_cluster\n")
        for tid, cluster in enumerate(labels):
            fh.write(f"{tid},{cluster}\n")


__all__ = ["SyntheticSpec", "generate_synthetic", "write_labels_csv"]
