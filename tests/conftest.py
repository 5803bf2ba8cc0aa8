import pytest
from hypothesis import settings

from oddmtc import cli, goldens
from oddmtc.dimsearch import SearchParams, _Engine, enumerate_solutions

# tier-1 draws the same examples on every run, and keeps no example database;
# `--hypothesis-profile=random` (with `--hypothesis-seed`) draws fresh ones
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("random", database=None)
settings.load_profile("tier1")


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


class EngineProbe:
    """Exact counts of `_Engine`'s closing steps and child scan, over every
    search run while the `engine_probe` fixture is active:

    * final_node: {levels: (states, rows emitted)};
    * final_chain, final_pick: (calls, rows emitted);
    * children: (calls, children yielded).

    If `on_close` is set, every close also calls
    on_close(method, eng, args, rows) with the method's name and arguments
    and the rows that call emitted."""

    def __init__(self):
        self.on_close = None
        self.reset()

    def reset(self):
        """Zero every count."""
        self.final_node = {}
        self.final_chain = self.final_pick = self.children = (0, 0)

    def closed(self, method, eng, args, rows):
        if self.on_close is not None:
            self.on_close(method, eng, args, rows)
        if method == "final_node":
            _, states, levels = args
            n, emitted = self.final_node.get(levels, (0, 0))
            self.final_node[levels] = (n + len(states), emitted + len(rows))
        else:
            n, emitted = getattr(self, method)
            setattr(self, method, (n + 1, emitted + len(rows)))


@pytest.fixture
def engine_probe(monkeypatch):
    """An EngineProbe on `_Engine`; every wrapper calls the real method."""
    probe = EngineProbe()
    real_children = _Engine.children

    def closing(method):
        real = getattr(_Engine, method)

        def close(eng, *args):
            start = len(eng.out)
            real(eng, *args)
            probe.closed(method, eng, args, eng.out[start:])
        return close

    def children(eng, *args):
        # a list, so final_node's states are materialized once, here
        kids = list(real_children(eng, *args))
        calls, yielded = probe.children
        probe.children = (calls + 1, yielded + len(kids))
        return kids

    monkeypatch.setattr(_Engine, "final_node", closing("final_node"))
    monkeypatch.setattr(_Engine, "final_chain", closing("final_chain"))
    monkeypatch.setattr(_Engine, "final_pick", closing("final_pick"))
    monkeypatch.setattr(_Engine, "children", children)
    return probe
