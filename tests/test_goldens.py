import hashlib
import json
from importlib import resources

import pytest

from oddmtc import goldens
from oddmtc.dimsearch import canonical


EXPECTED_ROW_COUNTS = {
    "T1": 35, "T2": 3, "T3": 15, "T4": 13,
    "T5": 22, "T6": 2, "T7": 11, "T8": 21,
}


def _entry_and_raw(table_id):
    """A table's manifest entry and CSV bytes, as `load_goldens` reads them."""
    data = resources.files("oddmtc").joinpath("data")
    manifest = json.loads(data.joinpath("manifest.json").read_text("utf-8"))
    return manifest[table_id], data.joinpath(f"{table_id.lower()}.csv").read_bytes()


class TestLoadGoldens:
    def test_all_tables_present(self, golden_tables):
        assert set(golden_tables) == set(goldens.TABLE_IDS)
        for table_id, count in EXPECTED_ROW_COUNTS.items():
            assert len(golden_tables[table_id].rows) == count

    def test_params_reconstructed(self, golden_tables):
        t8 = golden_tables["T8"].params
        assert (t8.rank, t8.invertibles, t8.adjoint_rank, t8.adjoint_invertibles) == (49, 5, 29, 5)
        assert (t8.group_order, t8.layer_invertibles, t8.k) == (5, 5, 12)
        assert (t8.min_m1, t8.m1_square, t8.min_run) == (25, True, 5)
        t1 = golden_tables["T1"].params
        assert (t1.adjoint_rank, t1.adjoint_invertibles) == (None, None)
        t7 = golden_tables["T7"].params
        assert t7.m1_exclude == frozenset({49})
        assert t7.mi_coprime == 5

    def test_post_filter_only_t5(self, golden_tables):
        assert golden_tables["T5"].post_filter_p == 3
        for tid in set(goldens.TABLE_IDS) - {"T5"}:
            assert golden_tables[tid].post_filter_p is None

    def test_rows_canonically_sorted(self, golden_tables):
        for table in golden_tables.values():
            assert list(table.rows) == canonical(table.rows)

    def test_checksum_detects_tampering(self):
        entry, raw = _entry_and_raw("T1")
        with pytest.raises(goldens.GoldenDataError, match="checksum"):
            goldens._load_table("T1", entry, raw + b"\n")

    def test_factored_fpdim_tampering_rejected(self):
        entry, raw = _entry_and_raw("T2")
        assert entry["fpdim_factored"][0] == "3^2*5^2*19"
        tampered = dict(entry, fpdim_factored=["3^2*5^2*17"] + entry["fpdim_factored"][1:])
        with pytest.raises(goldens.GoldenDataError, match="factored"):
            goldens._load_table("T2", tampered, raw)

    @pytest.mark.parametrize("table_id, key, value", [
        ("T8", "mode", "basic"),
        ("T1", "mode", "adjoint"),
        ("T8", "group_order", 1),
        ("T1", "group_order", 3),
        ("T1", "layer_invertibles", 5),
        ("T8", "pairs", 22),
        ("T1", "pairs", 12),
    ])
    def test_redundant_manifest_keys_checked(self, table_id, key, value):
        """mode, group_order, layer_invertibles and pairs restate what the
        search parameters give; a manifest entry that disagrees is rejected
        before any row is read."""
        entry, raw = _entry_and_raw(table_id)
        goldens._load_table(table_id, entry, raw)
        with pytest.raises(goldens.GoldenDataError, match=key):
            goldens._load_table(table_id, dict(entry, **{key: value}), raw)

    @pytest.mark.parametrize("old, new, match", [
        (b"fpdim,s,", b"fpdim,n,", "unexpected header"),
        (b"387,3,3,3,3,3,3,3,3\r\n", b"", "expected 3 rows, found 2"),
        # every dim still divides 387, but the row breaks the layer equation
        (b"387,3,3,3,3,3,3,3,3\r\n", b"387,3,3,3,3,3,3,3,1\r\n",
         "T2: row 387 \\(3, 3, 3, 3, 3, 3, 1\\) fails fpdim equation"),
        # a row holds no invertible count: the loader checks the s column
        (b"387,3,", b"387,5,", "T2: row 387 \\(3, 3, 3, 3, 3, 3, 3\\) has s = 5, not 3"),
    ])
    def test_tampered_csv_rejected(self, old, new, match):
        """A CSV whose checksum is updated with it still fails the row checks."""
        entry, raw = _entry_and_raw("T2")
        assert raw.count(old) == 1
        raw = raw.replace(old, new)
        entry = dict(entry, sha256=hashlib.sha256(raw).hexdigest())
        with pytest.raises(goldens.GoldenDataError, match=match):
            goldens._load_table("T2", entry, raw)

    def test_dim_square_not_dividing_fpdim_rejected(self):
        """A row that keeps the layer equation, 483 = 3 * (3 + 2 * (5^2 + 6 * 3^2)),
        with its factored fpdim edited to match, fails only the check that
        each d^2 divides fpdim: 5^2 does not divide 483 = 3 * 7 * 23."""
        entry, raw = _entry_and_raw("T2")
        raw = raw.replace(b"387,3,3,", b"483,3,5,")
        assert entry["fpdim_factored"][-1] == "3^2*43"
        entry = dict(entry, sha256=hashlib.sha256(raw).hexdigest(),
                     fpdim_factored=entry["fpdim_factored"][:-1] + ["3*7*23"])
        with pytest.raises(goldens.GoldenDataError, match="T2: row 483 \\(5, 3, 3, 3, 3, 3, 3\\)"
                           " fails quotient times dim squared is fpdim"):
            goldens._load_table("T2", entry, raw)

    def test_unknown_post_filter_rejected_at_load(self):
        entry, raw = _entry_and_raw("T5")
        goldens._load_table("T5", entry, raw)
        with pytest.raises(goldens.GoldenDataError, match="post filter"):
            goldens._load_table("T5", dict(entry, post_filter="bogus:3"), raw)

    def test_manifest_missing_table(self, monkeypatch):
        monkeypatch.setattr(goldens, "TABLE_IDS", goldens.TABLE_IDS + ("T9",))
        with pytest.raises(goldens.GoldenDataError, match="manifest missing T9"):
            goldens.load_goldens()
