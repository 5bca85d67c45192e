import pytest

from txcleanse import SyntheticSpec, generate_synthetic, item_frequencies


def _small_spec(**overrides):
    base = dict(transactions=300, clusters=6, items_per_cluster=20,
                picks_per_transaction=10, noise_rate=0.2, ubiquitous_items=3,
                ubiquity=0.9, seed=11)
    base.update(overrides)
    return SyntheticSpec(**base)


def test_same_seed_same_database():
    db1, labels1 = generate_synthetic(_small_spec())
    db2, labels2 = generate_synthetic(_small_spec())
    assert db1 == db2
    assert labels1 == labels2


def test_different_seeds_differ():
    db1, _ = generate_synthetic(_small_spec(seed=1))
    db2, _ = generate_synthetic(_small_spec(seed=2))
    assert db1 != db2


def test_shape_and_noise_profile():
    spec = _small_spec()
    db, labels = generate_synthetic(spec)
    assert db.n == spec.transactions
    assert len(labels) == spec.transactions
    assert set(labels) <= set(range(spec.clusters))

    hist = item_frequencies(db)
    junk = [i for i in hist.per_item
            if db.item_string(i).startswith("junk")]
    assert junk, "noise items expected at 20% noise rate"
    assert all(hist.per_item[i] == 1 for i in junk)

    hubs = [i for i in hist.per_item if db.item_string(i).startswith("hub")]
    assert len(hubs) == spec.ubiquitous_items
    for hub in hubs:
        assert hist.per_item[hub] >= 0.7 * spec.transactions


def test_cluster_items_come_from_the_planted_pool():
    db, labels = generate_synthetic(_small_spec(noise_rate=0.0, ubiquitous_items=0))
    for t, label in zip(db.transactions, labels):
        prefixes = {db.item_string(i).split("_")[0] for i in t.items}
        assert prefixes == {f"c{label:03d}"}


@pytest.mark.parametrize("name", ["transactions", "clusters", "items_per_cluster",
                                  "picks_per_transaction", "noise_items_per_hit",
                                  "ubiquitous_items"])
@pytest.mark.parametrize("value", [2.5, 2.0, "2", True])
def test_counts_must_be_ints(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        _small_spec(**{name: value}).validate()


def test_validation_errors():
    with pytest.raises(ValueError):
        SyntheticSpec(transactions=0).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(clusters=0).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(picks_per_transaction=99, items_per_cluster=10).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(noise_rate=1.5).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(ubiquity=-0.1).validate()
