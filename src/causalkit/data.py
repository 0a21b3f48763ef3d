"""Dataset ingestion and contingency counting."""

from __future__ import annotations

import csv
import functools
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateParent,
    EmptyDataset,
    SchemaMismatch,
    StateSpaceTooLarge,
)
from .graph import VariableScheme, is_missing
from .nsclc import NUMERIC_BINS

# The most cells one count table, or brute_force_query's joint, may hold.
MAX_TABLE_CELLS = 2**24


@dataclass(frozen=True, init=False, eq=False)
class CategoricalDataset:
    """State indices conforming to a scheme, held as one read-only column
    store: one contiguous row per variable, in the narrowest integer type
    that holds every state index.

    `_counts` is `contingency_counts`'s memo; the read-only store keeps it valid.
    """

    scheme: VariableScheme
    columns: np.ndarray
    _counts: dict = field(repr=False)

    def __init__(self, scheme: VariableScheme, rows):
        rows = np.asarray(rows)
        if not np.issubdtype(rows.dtype, np.integer):
            raise SchemaMismatch(f"rows have dtype {rows.dtype}, expected integers")
        if rows.ndim != 2 or rows.shape[1] != len(scheme):
            raise SchemaMismatch(
                f"rows have shape {rows.shape}, expected (N, {len(scheme)})"
            )
        cards = np.array(scheme.cardinalities())
        if rows.size and ((rows < 0) | (rows >= cards)).any():
            raise SchemaMismatch("state index out of range for its variable")
        narrow = np.min_scalar_type(max(cards, default=1) - 1)
        # Always a copy: through a view, the caller could rewrite the store.
        columns = np.array(rows.T, dtype=narrow, order="C")
        columns.setflags(write=False)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_counts", {})

    @property
    def rows(self) -> np.ndarray:
        """The (N, d) int64 state indices, a read-only copy of the store made
        on each access: N x d x 8 bytes each time."""
        rows = self.columns.T.astype(np.int64)
        rows.setflags(write=False)
        return rows

    @property
    def n(self) -> int:
        return self.columns.shape[1]

    def column(self, variable) -> np.ndarray:
        return self.columns[self.scheme.resolve(variable)]

    def joint_counts(self, keys, per_count: int) -> list[np.ndarray]:
        """Joint count table of each variable tuple in `keys`, one axis per
        variable in the tuple's order: one bincount per `per_count` tuples of
        equal length, its codes built in the narrowest integer type that holds
        the batch's largest code.  A table of more than MAX_TABLE_CELLS cells
        raises StateSpaceTooLarge before anything is allocated."""
        columns, cards = self.columns, np.asarray(self.scheme.cardinalities())
        counted = []
        for start in range(0, len(keys), per_count):
            batch = np.array(keys[start:start + per_count], dtype=np.intp)  # (m, k)
            dims = cards[batch]
            sizes = [math.prod(shape) for shape in dims.tolist()]  # exact
            if (size := max(sizes)) > MAX_TABLE_CELLS:
                key = [self.scheme.names[v] for v in batch[sizes.index(size)]]
                raise StateSpaceTooLarge(
                    f"the count table of {key} has {size} cells, "
                    f"more than {MAX_TABLE_CELLS}"
                )
            sizes = np.array(sizes)
            ends = np.cumsum(sizes)
            dtype = np.min_scalar_type(int(ends[-1]) - 1)
            # A tuple's code is its offset plus its row-major cell code.
            strides = (sizes[:, None] // np.cumprod(dims, axis=1)).astype(dtype)
            codes = np.repeat((ends - sizes).astype(dtype)[:, None], self.n, axis=1)
            for j in range(batch.shape[1]):
                codes += columns[batch[:, j]] * strides[:, j, None]
            counts = np.bincount(codes.ravel(), minlength=int(ends[-1]))
            counted += map(np.reshape, np.split(counts, ends[:-1]), dims.tolist())
        return counted


@dataclass(frozen=True, eq=False)
class CountTable:
    """Counts n_ij of child states per parent configuration.

    Parent configurations enumerate the Cartesian product of parent state
    spaces in row-major order over the parent order given to contingency_counts.
    """

    n_ij: np.ndarray

    @functools.cached_property
    def n_i(self) -> np.ndarray:
        # In the dtype numpy's row sum promotes to: einsum alone would add an
        # int8 or bool table in its own dtype, and wrap or saturate.
        n_i = np.einsum("ij->i", self.n_ij, dtype=self.n_ij[:0].sum(axis=1).dtype)
        n_i.setflags(write=False)
        return n_i

    @property
    def n(self) -> int:
        return int(self.n_i.sum())

    @property
    def n_configs(self) -> int:
        return self.n_ij.shape[0]

    @property
    def child_card(self) -> int:
        return self.n_ij.shape[1]

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


def load_csv(text: str, scheme: VariableScheme):
    """Parse CSV text into a CategoricalDataset.

    A cell that is a state label is that state.  Any other cell of a column
    in nsclc.NUMERIC_BINS that reads as a finite number is binned; any other
    cell is an error.  Rows with missing values in any scheme column are
    dropped, after all their cells are read; the drop count is returned
    alongside the dataset.
    """
    reader = csv.reader(io.StringIO(text))
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


# A plain decimal number in ASCII digits: no digit separators, no other script.
_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)


def _encode_cell(cell, name, scheme):
    """The state of a stripped cell, or None when it is missing.  A state label
    is that state; a finite plain number in a column of NUMERIC_BINS is binned."""
    if is_missing(cell):
        return None
    states = scheme.states(name)
    if cell in states:
        return states.index(cell)
    if name in NUMERIC_BINS and _NUMBER.fullmatch(cell):
        value = float(cell)
        if math.isfinite(value):
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
        np.array(data.scheme.states(j), dtype=object)[column]
        for j, column in enumerate(data.columns)
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

    Each family, named by variable names or indices, is counted once per
    dataset; later calls return the same CountTable, whose n_ij is read-only.
    """
    parents = tuple(parents)
    family = tuple(map(data.scheme.resolve, (*parents, child)))
    table = data._counts.get(family)
    if table is None:
        if len(set(family)) != len(family):
            raise DuplicateParent(f"bad parent set for {child}: {parents}")
        (counts,) = data.joint_counts([family], 1)
        n_ij = counts.reshape(-1, counts.shape[-1])
        n_ij.setflags(write=False)
        table = data._counts[family] = CountTable(n_ij)
    return table
