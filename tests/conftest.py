import pytest

from oddmtc import cli, goldens


@pytest.fixture(scope="session")
def golden_tables():
    tables = goldens.load_goldens()
    return {t.table_id: t for t in tables}


@pytest.fixture(scope="session")
def classify_reports():
    """`cli.classify` for every odd rank 17-49, run once per session."""
    return {rank: cli.classify(rank) for rank in range(17, 50, 2)}
