"""
Embedded regression tables for the dimension-array search.

Eight frozen result tables (t1 .. t8) ship as CSV data files together with
a JSON manifest recording row counts, SHA-256 checksums, the search
parameters that produce each table, and the factored form of each fpdim.
`load_goldens` materializes them with full integrity checking;
`verify` re-runs the search and diffs against the stored rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from importlib import resources

from .dimsearch import (DimSolution, Mode, RowDiff, SearchParams, diff_rows,
                        enumerate_solutions, validate_solution)
from .filters import fixed_dim_multiplicity_filter

TABLE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")


class GoldenDataError(Exception):
    """Embedded golden data failed an integrity check."""


@dataclass(frozen=True)
class GoldenTable:
    table_id: str
    params: SearchParams
    rows: tuple[DimSolution, ...]
    fpdim_factored: tuple[str, ...]
    post_filter: str | None = None

    @property
    def row_count(self) -> int:
        return len(self.rows)


def _parse_factored(text: str) -> int:
    value = 1
    for part in text.split("*"):
        if "^" in part:
            base, exp = part.split("^")
            value *= int(base) ** int(exp)
        else:
            value *= int(part)
    return value


def _params_from_manifest(entry: dict) -> SearchParams:
    pred = dict(entry.get("predicates", {}))
    kwargs = dict(
        rank=entry["rank"],
        invertibles=entry["invertibles"],
        mode=Mode(entry["mode"]),
    )
    if entry["mode"] == "adjoint":
        kwargs["adjoint_rank"] = entry["adjoint_rank"]
        kwargs["adjoint_invertibles"] = entry["layer_invertibles"]
    if "m1_exclude" in pred:
        kwargs["m1_exclude"] = frozenset(pred.pop("m1_exclude"))
    kwargs.update(pred)
    return SearchParams(**kwargs)


def _load_table(table_id: str, entry: dict, raw: bytes) -> GoldenTable:
    digest = hashlib.sha256(raw).hexdigest()
    if digest != entry["sha256"]:
        raise GoldenDataError(
            f"{table_id}: checksum mismatch (expected {entry['sha256']}, got {digest})"
        )
    params = _params_from_manifest(entry)
    reader = csv.reader(io.StringIO(raw.decode("utf-8")))
    header = next(reader)
    if header[:2] != ["fpdim", "s"]:
        raise GoldenDataError(f"{table_id}: unexpected header {header}")
    rows = []
    for record in reader:
        fpdim = int(record[0])
        s = int(record[1])
        dims = tuple(int(x) for x in record[2:])
        quotients = []
        for d in dims:
            m, r = divmod(fpdim, d * d)
            if r:
                raise GoldenDataError(f"{table_id}: {fpdim} not divisible by {d}^2")
            quotients.append(m)
        rows.append(DimSolution(fpdim, s, dims, tuple(quotients)))
    if len(rows) != entry["rows"]:
        raise GoldenDataError(
            f"{table_id}: expected {entry['rows']} rows, found {len(rows)}"
        )
    factored = tuple(entry["fpdim_factored"])
    if len(factored) != len(rows):
        raise GoldenDataError(f"{table_id}: factored fpdim list length mismatch")
    for text, row in zip(factored, rows):
        if _parse_factored(text) != row.fpdim:
            raise GoldenDataError(
                f"{table_id}: factored fpdim {text} != {row.fpdim}"
            )
    for row in rows:
        validate_solution(row, params)
    return GoldenTable(
        table_id=table_id,
        params=params,
        rows=tuple(rows),
        fpdim_factored=factored,
        post_filter=entry.get("post_filter"),
    )


def load_goldens() -> list[GoldenTable]:
    """All eight embedded tables, integrity-checked; raises GoldenDataError."""
    data = resources.files("oddmtc").joinpath("data")
    manifest = json.loads(data.joinpath("manifest.json").read_text("utf-8"))
    tables = []
    for table_id in TABLE_IDS:
        if table_id not in manifest:
            raise GoldenDataError(f"manifest missing {table_id}")
        raw = data.joinpath(f"{table_id.lower()}.csv").read_bytes()
        tables.append(_load_table(table_id, manifest[table_id], raw))
    return tables


def _apply_post_filter(table: GoldenTable, sols: list[DimSolution]) -> list[DimSolution]:
    if table.post_filter is None:
        return sols
    name, _, arg = table.post_filter.partition(":")
    if name != "fixed_dim_multiplicity":
        raise GoldenDataError(f"{table.table_id}: unknown post filter {name}")
    p = int(arg)
    return [s for s in sols if not fixed_dim_multiplicity_filter(s, p).discard]


def verify(table: GoldenTable, jobs: int = 1) -> RowDiff:
    """Re-run the search with the table's parameters and diff against its rows."""
    produced = enumerate_solutions(table.params, jobs=jobs)
    return diff_rows(table.rows, _apply_post_filter(table, produced))
