import json
import random
from pathlib import Path

import jsonschema
import pytest

from txcleanse import TransactionDatabase, database_from_items
from txcleanse.cli import load_report_schema


def letters_db(*strings: str) -> TransactionDatabase:
    """Build a database of single-letter items, one transaction per string."""
    return database_from_items([list(s) for s in strings])


def random_db(rng: random.Random, max_tx: int = 40, max_vocab: int = 30,
              max_size: int = 6) -> TransactionDatabase:
    """Small random database; every transaction non-empty."""
    n = rng.randint(1, max_tx)
    vocab = rng.randint(1, max_vocab)
    return database_from_items(
        [[f"i{rng.randrange(vocab)}" for _ in range(rng.randint(1, max_size))]
         for _ in range(n)]
    )


def _report_validator():
    schema = load_report_schema()
    validator_class = jsonschema.validators.validator_for(schema)
    validator_class.check_schema(schema)
    return validator_class(schema)


REPORT_VALIDATOR = _report_validator()


def check_pipeline_reports(root: Path) -> int:
    """Validate every ``pipeline_report.json`` under ``root`` against the
    shipped schema; return how many there were."""
    paths = sorted(root.rglob("pipeline_report.json"))
    for path in paths:
        REPORT_VALIDATOR.validate(json.loads(path.read_text(encoding="utf-8")))
    return len(paths)


@pytest.fixture(autouse=True)
def _pipeline_reports_fit_the_schema(request):
    """The program does not validate its reports, so the suite checks every
    report a test writes under its ``tmp_path`` once the test has run."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    check_pipeline_reports(tmp_path)
