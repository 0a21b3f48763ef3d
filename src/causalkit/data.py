"""Dataset ingestion and contingency counting."""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateParent,
    EmptyDataset,
    SchemaMismatch,
)
from .graph import VariableScheme, is_missing
from .nsclc import NUMERIC_BINS


@dataclass(frozen=True)
class CategoricalDataset:
    """Row-major table of state indices conforming to a scheme.

    `_counts` is `contingency_counts`'s memo; the read-only rows keep it valid.
    """

    scheme: VariableScheme
    rows: np.ndarray
    _counts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.base is not None:  # a view's base could still be written
            rows = rows.copy(order="K")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.scheme):
            raise SchemaMismatch(
                f"rows have shape {rows.shape}, expected (N, {len(self.scheme)})"
            )
        cards = np.array(self.scheme.cardinalities())
        if rows.size and ((rows < 0) | (rows >= cards)).any():
            raise SchemaMismatch("state index out of range for its variable")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def column(self, variable) -> np.ndarray:
        return self.rows[:, self.scheme.resolve(variable)]


@dataclass(frozen=True)
class CountTable:
    """Counts n_ij of child states per parent configuration.

    Parent configurations enumerate the Cartesian product of parent state
    spaces in row-major order over the stated parent order.
    """

    child: str
    parents: tuple[str, ...]
    n_ij: np.ndarray
    child_card: int
    parent_cards: tuple[int, ...]

    @functools.cached_property
    def n_i(self) -> np.ndarray:
        n_i = row_sums(self.n_ij)
        n_i.setflags(write=False)
        return n_i

    @property
    def n(self) -> int:
        return int(self.n_i.sum())

    @property
    def n_configs(self) -> int:
        return self.n_ij.shape[0]

    @functools.cached_property
    def histogram(self) -> np.ndarray:
        """Read-only rows (n_i, n_ij, m): the distinct pairs, sorted, of an
        observed configuration's total and one of its cells, and their counts."""
        seen, base = self.n_i > 0, self.n + 1
        cells = self.n_ij[seen] + base * self.n_i[seen, None]
        keys, m = np.unique(cells, return_counts=True)
        (summary := np.stack([keys // base, keys % base, m])).setflags(write=False)
        return summary

    @functools.cached_property
    def distinct(self) -> tuple:
        """For the histogram's n_i and then its n_ij: (values, index), the
        distinct counts, sorted, and each histogram row's position among them."""
        levels = tuple(
            np.unique(column, return_inverse=True) for column in self.histogram[:2]
        )
        for values, index in levels:
            values.setflags(write=False)
            index.setflags(write=False)
        return levels


def row_sums(table: np.ndarray) -> np.ndarray:
    """table.sum(axis=1), bit for bit.  numpy adds a row of fewer than 8 cells
    left to right, but in one inner loop per row; adding whole columns is the
    same order without the per-row loop."""
    if not 0 < table.shape[1] < 8:
        return table.sum(axis=1)
    sums = table[:, 0].copy()
    for column in table.T[1:]:
        sums += column
    return sums


def load_csv(source, scheme: VariableScheme):
    """Parse a CSV byte/text stream into a CategoricalDataset.

    A cell that is a state label is that state.  Any other cell of a column
    in nsclc.NUMERIC_BINS is read as a number and binned; elsewhere it is an
    error.  Rows with missing values in any scheme column are dropped, after
    all their cells are read; the drop count is returned alongside the
    dataset.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataset("no header row") from None
    header = [h.strip() for h in header]
    unknown = [h for h in header if h not in scheme.names]
    if unknown:
        raise SchemaMismatch(f"unknown columns: {unknown}")
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise SchemaMismatch(f"repeated columns: {repeated}")
    missing = [name for name in scheme.names if name not in header]
    if missing:
        raise SchemaMismatch(f"missing columns: {missing}")
    # Each column maps a cell's text to its state (None for a missing value),
    # so a text is encoded once; a text that fails to encode is never stored.
    columns = [(header.index(name), name, {}) for name in scheme.names]
    encoded, dropped = [], 0
    for raw in reader:
        if not raw:
            continue
        if len(raw) != len(header):
            raise SchemaMismatch(
                f"line {reader.line_num}: {len(raw)} fields, "
                f"header has {len(header)}"
            )
        row = []
        for col, name, memo in columns:
            text = raw[col]
            try:
                state = memo[text]
            except KeyError:
                state = memo[text] = _encode_cell(text.strip(), name, scheme)
            row.append(state)
        if None in row:
            dropped += 1
        else:
            encoded.append(row)
    if not encoded:
        raise EmptyDataset("all rows dropped or input empty")
    return CategoricalDataset(scheme, np.array(encoded, dtype=np.int64)), dropped


def _encode_cell(cell, name, scheme):
    """The state of a stripped cell, or None when it is missing.  A state label
    is that state; any other cell of a column in NUMERIC_BINS is binned."""
    if is_missing(cell):
        return None
    states = scheme.states(name)
    if cell in states:
        return states.index(cell)
    if name in NUMERIC_BINS:
        try:
            value = float(cell)
        except ValueError:
            pass
        else:
            state = int(np.searchsorted(NUMERIC_BINS[name], value, side="right"))
            if state >= scheme.cardinality(name):
                raise SchemaMismatch(
                    f"{name}: bin spec yields {state}, cardinality "
                    f"{scheme.cardinality(name)}"
                )
            return state
    raise SchemaMismatch(f"{name}: unmapped state label {cell!r}")


def write_csv(data: CategoricalDataset) -> str:
    """Inverse of load_csv on encoded datasets (state labels, no numerics)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(data.scheme.names)
    labels = [
        np.array(data.scheme.states(j), dtype=object)[data.rows[:, j]]
        for j in range(len(data.scheme))
    ]
    writer.writerows(zip(*labels))
    return out.getvalue()


def text_table(rows) -> str:
    """Rows of cells as left-aligned columns two spaces apart, each line
    stripped of trailing spaces."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = (
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )
    return "\n".join(lines) + "\n"


def contingency_counts(
    data: CategoricalDataset, child: str, parents
) -> CountTable:
    """Tally child states against every parent configuration.

    Each (child, parents) table is counted once per dataset; later calls
    return the same CountTable, whose n_ij is read-only.
    """
    parents = tuple(parents)
    if len(set(parents)) != len(parents) or child in parents:
        raise DuplicateParent(f"bad parent set for {child}: {parents}")
    table = data._counts.get((child, parents))
    if table is not None:
        return table
    child_card = data.scheme.cardinality(child)
    parent_cards = tuple(data.scheme.cardinality(p) for p in parents)
    shape = parent_cards + (child_card,)
    flat = np.ravel_multi_index([data.column(v) for v in (*parents, child)], shape)
    counts = np.bincount(flat, minlength=int(np.prod(shape)))
    n_ij = counts.reshape(-1, child_card)
    n_ij.setflags(write=False)
    table = CountTable(child, parents, n_ij, child_card, parent_cards)
    data._counts[child, parents] = table
    return table
