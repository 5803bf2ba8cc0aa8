"""
Embedded regression tables for the dimension-array search.

Eight frozen result tables (t1 .. t8) ship as CSV data files together with
a JSON manifest recording row counts, SHA-256 checksums, the search
parameters that produce each table, and the factored form of each fpdim.
`load_goldens` materializes them with full integrity checking; `search`
runs a table's search and post filter, and `verify` diffs that against the
stored rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from importlib import resources

from .dimsearch import (DimSolution, RowDiff, SearchParams, diff_rows,
                        enumerate_solutions, validate_solution)
from .exactmath import InvariantError
from .filters import fixed_dim_multiplicity_filter

TABLE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")


class GoldenDataError(Exception):
    """Embedded golden data failed an integrity check."""


@dataclass(frozen=True)
class GoldenTable:
    table_id: str
    params: SearchParams
    rows: tuple[DimSolution, ...]
    post_filter_p: int | None  # p of "fixed_dim_multiplicity:p"


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
    if "m1_exclude" in pred:
        pred["m1_exclude"] = frozenset(pred["m1_exclude"])
    return SearchParams(
        rank=entry["rank"],
        invertibles=entry["invertibles"],
        adjoint_rank=entry.get("adjoint_rank"),
        adjoint_invertibles=entry["layer_invertibles"] if "adjoint_rank" in entry else None,
        **pred,
    )


def _load_table(table_id: str, entry: dict, raw: bytes) -> GoldenTable:
    digest = hashlib.sha256(raw).hexdigest()
    if digest != entry["sha256"]:
        raise GoldenDataError(
            f"{table_id}: checksum mismatch (expected {entry['sha256']}, got {digest})"
        )
    params = _params_from_manifest(entry)
    derived = {"mode": "basic" if params.adjoint_rank is None else "adjoint",
               "group_order": params.group_order,
               "layer_invertibles": params.layer_invertibles,
               "pairs": params.k}
    for key, value in derived.items():
        if entry[key] != value:
            raise GoldenDataError(
                f"{table_id}: manifest {key} {entry[key]!r} disagrees with its search ({value!r})"
            )
    reader = csv.reader(io.StringIO(raw.decode("utf-8")))
    header = next(reader)
    if header[:2] != ["fpdim", "s"]:
        raise GoldenDataError(f"{table_id}: unexpected header {header}")
    rows, s = [], params.layer_invertibles
    for record in reader:
        fpdim = int(record[0])
        dims = tuple(int(x) for x in record[2:])
        if int(record[1]) != s:
            raise GoldenDataError(f"{table_id}: row {fpdim} {dims} has s = {record[1]}, not {s}")
        rows.append(DimSolution(fpdim, dims))
    if len(rows) != entry["rows"]:
        raise GoldenDataError(
            f"{table_id}: expected {entry['rows']} rows, found {len(rows)}"
        )
    if [_parse_factored(text) for text in entry["fpdim_factored"]] != [r.fpdim for r in rows]:
        raise GoldenDataError(f"{table_id}: factored fpdims do not match the rows")
    for row in rows:
        try:
            validate_solution(row, params)
        except InvariantError as exc:
            raise GoldenDataError(f"{table_id}: row {row.fpdim} {row.dims} fails {exc}") from exc
    post_filter = entry.get("post_filter")
    post_filter_p = None
    if post_filter is not None:
        name, _, p = post_filter.partition(":")
        if name != "fixed_dim_multiplicity" or not p.isdigit():
            raise GoldenDataError(f"{table_id}: unknown post filter {post_filter}")
        post_filter_p = int(p)
    return GoldenTable(table_id, params, tuple(rows), post_filter_p)


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


def search(table: GoldenTable, jobs: int = 1) -> list[DimSolution]:
    """The table's search: its SearchParams, then its post filter if it has one."""
    sols = enumerate_solutions(table.params, jobs=jobs)
    if table.post_filter_p is None:
        return sols
    return [s for s in sols if not fixed_dim_multiplicity_filter(s, table.post_filter_p).discard]


def verify(table: GoldenTable, jobs: int = 1) -> RowDiff:
    """Re-run the table's search and diff against its rows."""
    return diff_rows(table.rows, search(table, jobs=jobs))
