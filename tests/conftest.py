import pytest

from oddmtc import cli, goldens
from oddmtc.dimsearch import SearchParams, enumerate_solutions


@pytest.fixture(scope="session")
def golden_tables():
    tables = goldens.load_goldens()
    return {t.table_id: t for t in tables}


@pytest.fixture(scope="session")
def classify_reports():
    """`cli.classify` for every odd rank 17-49, run once per session."""
    return {rank: cli.classify(rank) for rank in range(17, 50, 2)}


@pytest.fixture(scope="session")
def rank25_solutions():
    """The rank-25, 3-invertible search behind table T1, run once per session."""
    return enumerate_solutions(SearchParams(rank=25, invertibles=3))
