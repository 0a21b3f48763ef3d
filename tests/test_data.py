import dataclasses
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalkit
from causalkit import nsclc
from causalkit.data import (
    CategoricalDataset,
    CountTable,
    contingency_counts,
    load_csv,
    write_csv,
)
from causalkit.errors import (
    DuplicateParent,
    EmptyDataset,
    SchemaMismatch,
    StateSpaceTooLarge,
)
from causalkit.graph import VariableScheme
from causalkit.synth import reference_network, sample_from_network

from conftest import binary_scheme

AB = VariableScheme.of([("A", ("lo", "hi")), ("B", ("x", "y", "z"))])
# B has 300 states, so its dataset's store is uint16.
WIDE = VariableScheme.of(
    [("A", ("lo", "hi")), ("B", tuple(f"b{i}" for i in range(300)))]
)


class TestLoadCsv:
    def test_basic(self):
        text = "A,B\nlo,x\nhi,z\n"
        data, dropped = load_csv(text, AB)
        assert dropped == 0
        assert data.rows.tolist() == [[0, 0], [1, 2]]

    def test_column_reorder(self):
        data, _ = load_csv("B,A\ny,hi\n", AB)
        assert data.rows.tolist() == [[1, 1]]

    def test_missing_rows_dropped_and_counted(self):
        text = "A,B\nlo,x\n,z\nhi,NA\nhi,y\n"
        data, dropped = load_csv(text, AB)
        assert dropped == 2
        assert data.n == 2

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaMismatch):
            load_csv("A,B,C\nlo,x,1\n", AB)

    def test_blank_line_is_skipped(self):
        data, dropped = load_csv("A,B\nlo,x\n\nhi,z\n", AB)
        assert dropped == 0
        assert data.rows.tolist() == [[0, 0], [1, 2]]

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaMismatch):
            load_csv("A\nlo\n", AB)

    def test_short_row_rejected_with_line_number(self):
        with pytest.raises(SchemaMismatch, match="line 3"):
            load_csv("A,B\nlo,x\nhi\n", AB)
        with pytest.raises(SchemaMismatch, match="line 2: 4 fields"):
            load_csv("A,B\nlo,x,extra,more\n", AB)

    def test_unmapped_label_rejected(self):
        with pytest.raises(SchemaMismatch):
            load_csv("A,B\nmid,x\n", AB)

    def test_unmapped_label_beats_a_later_short_row(self):
        with pytest.raises(SchemaMismatch, match="unmapped state label 'mid'"):
            load_csv("A,B\nlo,x\nmid,x\nhi,y\nhi\n", AB)

    @pytest.mark.parametrize(
        "row, label",
        [(",bogus", "bogus"), ("NA,bogus", "bogus"), ("bogus,", "bogus"),
         ("mid,NA", "mid")],
    )
    def test_bad_label_rejected_on_either_side_of_a_missing_cell(self, row, label):
        with pytest.raises(SchemaMismatch, match=f"unmapped state label '{label}'"):
            load_csv(f"A,B\nlo,x\n{row}\nhi,y\n", AB)

    def test_surrounding_spaces_give_the_same_state(self):
        data, _ = load_csv("A,B\n hi ,y\nhi, y \nhi,y\n", AB)
        assert data.rows.tolist() == [[1, 1]] * 3

    def test_same_text_maps_through_each_columns_states(self):
        scheme = VariableScheme.of([("P", ("yes", "no")), ("Q", ("no", "yes"))])
        data, _ = load_csv("P,Q\nyes,yes\nno,no\nyes,no\n", scheme)
        assert data.rows.tolist() == [[0, 1], [1, 0], [0, 0]]

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDataset):
            load_csv("", AB)
        with pytest.raises(EmptyDataset):
            load_csv("A,B\n", AB)

    def test_numeric_discretization(self):
        scheme = VariableScheme.of([("AGE", ("<65", "65-75", ">=75"))])
        text = "AGE\n40\n65\n74.9\n75\n90\n 70 \n70.5\n1e2\n-3\n+.5E2\n75.\n"
        data, _ = load_csv(text, scheme)
        assert data.column("AGE").tolist() == [0, 1, 1, 2, 2, 1, 1, 2, 0, 0, 2]

    def test_bin_beyond_the_cardinality_rejected(self):
        scheme = VariableScheme.of([("AGE", ("young", "old"))])
        with pytest.raises(SchemaMismatch, match="AGE: bin spec yields 2, cardinality 2"):
            load_csv("AGE\n80\n", scheme)

    @pytest.mark.parametrize(
        "cell", ["inf", "Infinity", "-inf", "-Infinity", "-nan", "+nan", "1e999"]
    )
    def test_non_finite_number_is_an_unmapped_label(self, cell):
        scheme = VariableScheme.of([("AGE", ("<65", "65-75", ">=75"))])
        message = re.escape(f"AGE: unmapped state label '{cell}'")
        with pytest.raises(SchemaMismatch, match=message):
            load_csv(f"AGE\n70\n{cell}\n", scheme)

    @pytest.mark.parametrize(
        "cell", ["6_9", "1_000", "1_0.5", "\u0668\u0660", "\uff17\uff10"]
    )
    def test_only_plain_ascii_numbers_are_binned(self, cell):
        # float() reads each of these, but none is a plain ASCII number.
        scheme = VariableScheme.of([("AGE", ("<65", "65-75", ">=75"))])
        message = re.escape(f"AGE: unmapped state label {cell!r}")
        with pytest.raises(SchemaMismatch, match=message):
            load_csv(f"AGE\n70\n{cell}\n", scheme)

    def test_prebinned_label_accepted_for_numeric_column(self):
        scheme = VariableScheme.of([("AGE", ("<65", "65-75", ">=75"))])
        data, _ = load_csv("AGE\n65-75\n", scheme)
        assert data.column("AGE").tolist() == [1]

    @pytest.mark.parametrize(
        "scheme, rows, store",
        [
            (AB, [[0, 2], [1, 1], [0, 0]], np.uint8),
            (WIDE, [[0, 299], [1, 256], [0, 0], [1, 255]], np.uint16),
        ],
        ids=["uint8", "uint16"],
    )
    def test_round_trip_write_then_load(self, scheme, rows, store):
        data = CategoricalDataset(scheme, np.array(rows))
        assert data.columns.dtype == store
        back, dropped = load_csv(write_csv(data), scheme)
        assert dropped == 0
        assert np.array_equal(back.rows, data.rows)
        assert back.rows.tolist() == rows

    def test_numeric_label_is_its_state_before_any_bin(self):
        scheme = VariableScheme.of(
            [("AGE", ("70", "80", "90")), ("SURVIVALMONTHS", ("10", "20"))]
        )
        data = CategoricalDataset(scheme, np.array([[0, 0], [1, 1], [2, 0]]))
        back, _ = load_csv(write_csv(data), scheme)
        assert back.rows.tolist() == [[0, 0], [1, 1], [2, 0]]
        # A number that is not a label is still binned (75 falls in bin 2).
        other, _ = load_csv("AGE,SURVIVALMONTHS\n75,20\n", scheme)
        assert other.rows.tolist() == [[2, 1]]


class TestDataset:
    @pytest.mark.parametrize(
        "rows", [[[0.5, 1.7], [1.0, 2.9]], [[True, False]]], ids=["float", "bool"]
    )
    def test_rows_that_are_not_integers_rejected(self, rows):
        with pytest.raises(SchemaMismatch, match=np.array(rows).dtype.name):
            CategoricalDataset(AB, np.array(rows))

    def test_out_of_range_state_rejected(self):
        with pytest.raises(SchemaMismatch):
            CategoricalDataset(AB, np.array([[0, 3]]))

    @pytest.mark.parametrize(
        "rows", [[[0, 0, 0]], [[0]], [0, 0]], ids=["wide", "narrow", "1-d"]
    )
    def test_rows_of_wrong_width_rejected(self, rows):
        with pytest.raises(SchemaMismatch, match=r"expected \(N, 2\)"):
            CategoricalDataset(AB, np.array(rows))

    def test_rows_read_only(self):
        data = CategoricalDataset(AB, np.array([[0, 0]]))
        with pytest.raises(ValueError):
            data.rows[0, 0] = 1

    def test_view_of_writable_array_is_copied(self):
        base = np.zeros((3, 2), dtype=np.int64)
        data = CategoricalDataset(AB, base[:2])
        table = contingency_counts(data, "B", ("A",))
        base[0, 0] = 1
        assert data.rows.tolist() == [[0, 0], [0, 0]]
        assert table.n_ij.tolist() == [[2, 0, 0], [0, 0, 0]]
        columns = CategoricalDataset(AB, np.ascontiguousarray(base.T).T)
        assert columns.rows.flags.f_contiguous  # the layout is kept


    def test_one_narrow_store_and_rows_made_on_each_access(self):
        rows = np.array(sample_from_network(reference_network(7), 50, seed=1).rows)
        assert rows.dtype == np.int64
        data = CategoricalDataset(nsclc.SCHEME, rows)
        assert data.columns.dtype == np.uint8 and data.columns.flags.c_contiguous
        arrays = [v for v in vars(data).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is data.columns
        first, second = data.rows, data.rows
        assert first is not second
        assert first.dtype == np.int64 and not first.flags.writeable
        assert np.array_equal(first, rows) and np.array_equal(second, rows)
        for name in ("scheme", "columns"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(data, name, getattr(data, name))


class TestContingency:
    def test_no_parents(self):
        data = CategoricalDataset(AB, np.array([[0, 0], [0, 1], [1, 1]]))
        table = contingency_counts(data, "B", ())
        assert table.n_ij.tolist() == [[1, 2, 0]]
        assert table.n_i.tolist() == [3]

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_row_totals_are_numpys_row_sums(self, layout):
        rng = np.random.default_rng(3)
        for width in range(0, 12):
            n_ij = rng.integers(0, 10**6, size=(300, width))
            n_ij = {
                "C": n_ij,
                "F": np.asfortranarray(n_ij),
                "strided": np.repeat(n_ij, 2, axis=0)[::2][:, ::-1],
            }[layout]
            n_i = CountTable(n_ij).n_i
            assert n_i.dtype == n_ij.sum(axis=1).dtype
            assert np.array_equal(n_i, n_ij.sum(axis=1))
            assert not n_i.flags.writeable

    @pytest.mark.parametrize(
        "n_ij, n_i",
        [(np.array([[100, 100]], dtype=np.int8), [200]), (np.array([[True, True]]), [2])],
    )
    def test_row_totals_of_a_narrow_table_do_not_wrap(self, n_ij, n_i):
        totals = CountTable(n_ij).n_i
        assert totals.tolist() == n_i and totals.dtype == n_ij.sum(axis=1).dtype

    def test_one_parent(self):
        data = CategoricalDataset(AB, np.array([[0, 0], [0, 2], [1, 1]]))
        table = contingency_counts(data, "B", ("A",))
        assert table.n_ij.tolist() == [[1, 0, 1], [0, 1, 0]]
        assert table.n_configs == 2

    def test_duplicate_parent_rejected(self):
        data = CategoricalDataset(AB, np.array([[0, 0]]))
        contingency_counts(data, "B", ("A",))
        for _ in range(2):  # a rejected parent set is never memoized
            with pytest.raises(DuplicateParent):
                contingency_counts(data, "B", ("A", "A"))
            with pytest.raises(DuplicateParent):
                contingency_counts(data, "B", ("B",))

    def test_a_parent_that_names_the_child_by_index_rejected(self):
        data = CategoricalDataset(AB, np.array([[0, 0], [1, 2]]))
        with pytest.raises(DuplicateParent):
            contingency_counts(data, "A", (0,))
        with pytest.raises(DuplicateParent):
            contingency_counts(data, 1, ("A", "B"))

    @pytest.mark.parametrize(
        "child, parents", [("AGE", ()), ("RET", ("AGE", "SMOKING"))]
    )
    def test_a_family_by_name_or_by_index_is_one_memo_entry(self, child, parents):
        data = sample_from_network(reference_network(7), 100, seed=0)
        family = tuple(map(nsclc.SCHEME.index, (*parents, child)))
        table = contingency_counts(data, child, parents)
        assert contingency_counts(data, family[-1], family[:-1]) is table
        assert contingency_counts(data, child, family[:-1]) is table
        assert list(data._counts) == [family]

    def test_an_oversized_table_is_refused_before_it_is_sized_in_int64(self):
        # 256**9 cells wrap to 0 in int64.
        scheme = VariableScheme.of(
            (f"V{i}", tuple(map(str, range(256)))) for i in range(9)
        )
        data = CategoricalDataset(scheme, np.zeros((3, 9), dtype=np.int64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateSpaceTooLarge, match=f"has {256**9} cells"):
                contingency_counts(data, "V8", [f"V{i}" for i in range(8)])
        assert not data._counts

    def test_parent_order_is_row_major(self):
        scheme = binary_scheme(3)
        data = CategoricalDataset(scheme, np.array([[1, 0, 1]]))
        table = contingency_counts(data, "X2", ("X0", "X1"))
        # config index = X0 * 2 + X1 = 2
        assert table.n_ij[2].tolist() == [0, 1]

    def test_repeated_call_returns_the_same_read_only_table(self):
        data = CategoricalDataset(AB, np.array([[0, 0], [0, 2], [1, 1]]))
        table = contingency_counts(data, "B", ["A"])
        assert contingency_counts(data, "B", ("A",)) is table
        with pytest.raises(ValueError):
            table.n_ij[0, 0] = 5
        assert table.n_ij.tolist() == [[1, 0, 1], [0, 1, 0]]
        fresh = CategoricalDataset(AB, data.rows)
        assert contingency_counts(fresh, "B", ("A",)) is not table

    def test_each_parent_order_has_its_own_table(self):
        scheme = VariableScheme.of(
            [("A", ("0", "1")), ("B", ("0", "1", "2")), ("C", ("0", "1"))]
        )
        rows = np.array([[1, 0, 1], [0, 2, 0], [0, 2, 1], [1, 1, 0]])
        data = CategoricalDataset(scheme, rows)
        ab = contingency_counts(data, "C", ("A", "B"))
        ba = contingency_counts(data, "C", ("B", "A"))
        expected_ab, expected_ba = np.zeros((6, 2)), np.zeros((6, 2))
        for a, b, c in rows:
            expected_ab[a * 3 + b, c] += 1
            expected_ba[b * 2 + a, c] += 1
        assert ab.n_ij.tolist() == expected_ab.tolist()
        assert ba.n_ij.tolist() == expected_ba.tolist()
        assert ab.n_ij.tolist() != ba.n_ij.tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_counts_partition_the_rows(self, data):
        n_vars = data.draw(st.integers(2, 4))
        scheme = binary_scheme(n_vars)
        n = data.draw(st.integers(1, 40))
        rows = np.array(
            [
                [data.draw(st.integers(0, 1)) for _ in range(n_vars)]
                for _ in range(n)
            ]
        )
        ds = CategoricalDataset(scheme, rows)
        child = data.draw(st.integers(0, n_vars - 1))
        parents = [i for i in range(n_vars) if i != child]
        table = contingency_counts(
            ds, scheme.names[child], [scheme.names[p] for p in parents]
        )
        assert table.n == n
        # Every row lands in exactly one (config, child state) cell.
        for idx in range(n):
            config = 0
            for p in parents:
                config = config * 2 + rows[idx, p]
            assert table.n_ij[config, rows[idx, child]] >= 1


def ravel_counts(data, child, parents):
    """Reference family table: np.ravel_multi_index over the int64 columns,
    then one bincount."""
    shape = tuple(data.scheme.cardinality(v) for v in (*parents, child))
    flat = np.ravel_multi_index([data.column(v) for v in (*parents, child)], shape)
    return np.bincount(flat, minlength=int(np.prod(shape))).reshape(-1, shape[-1])


class TestContingencyReference:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_schemes(self, seed):
        # 0-300 rows of 2-7 variables; every other seed one variable has
        # 257-400 states, so the columns are uint16.
        rng = np.random.default_rng(seed)
        cards = rng.integers(2, 6, size=int(rng.integers(2, 8)))
        if seed % 2:
            cards[rng.integers(len(cards))] = rng.integers(257, 401)
        scheme = VariableScheme.of(
            (f"V{i}", tuple(map(str, range(card)))) for i, card in enumerate(cards)
        )
        n = 0 if seed % 6 == 0 else int(rng.integers(1, 300))
        rows = np.column_stack([rng.integers(0, card, size=n) for card in cards])
        data = CategoricalDataset(scheme, rows)
        assert data.columns.dtype == (np.uint16 if seed % 2 else np.uint8)
        assert data.columns.tolist() == rows.T.tolist()
        for _ in range(12):
            size = int(rng.integers(1, min(4, len(cards)) + 1))
            family = rng.permutation(len(cards))[:size]
            child, *parents = (scheme.names[v] for v in family)
            table = contingency_counts(data, child, parents).n_ij
            reference = ravel_counts(data, child, parents)
            assert table.dtype == reference.dtype
            assert table.tolist() == reference.tolist()

    @pytest.mark.parametrize(
        "cards, code_type",
        [((4, 4, 4), np.uint8), ((300, 4, 4), np.uint16), ((300, 300, 2), np.uint32)],
    )
    @pytest.mark.parametrize("n", [0, 1, 500])
    def test_each_code_type(self, cards, code_type, n, monkeypatch):
        rng = np.random.default_rng(n)
        scheme = VariableScheme.of(
            (f"V{i}", tuple(map(str, range(card)))) for i, card in enumerate(cards)
        )
        rows = np.column_stack([rng.integers(0, card, size=n) for card in cards])
        data = CategoricalDataset(scheme, rows)
        counted, bincount = [], np.bincount
        monkeypatch.setattr(
            np,
            "bincount",
            lambda codes, **kw: counted.append(codes.dtype) or bincount(codes, **kw),
        )
        for child, parents in (("V2", ("V0", "V1")), ("V0", ()), ("V0", ("V2",))):
            table = contingency_counts(data, child, parents)
            assert table.n_ij.tolist() == ravel_counts(data, child, parents).tolist()
            assert table.n == n
        assert counted[0] == code_type

    def test_the_column_store_is_derived_once_and_read_only(self):
        data = CategoricalDataset(AB, np.array([[0, 0], [1, 2], [1, 1]]))
        assert data.columns is data.columns
        assert data.columns.flags.c_contiguous
        with pytest.raises(ValueError):
            data.columns[0, 0] = 1

    def test_importing_data_does_not_import_scipy(self):
        src = str(Path(causalkit.__file__).resolve().parents[1])
        code = (
            "import sys, causalkit.data; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"


class TestDefaults:
    def test_default_discretization_covers_cohort_bins(self):
        assert nsclc.NUMERIC_BINS["AGE"] == (65.0, 75.0)
        assert nsclc.NUMERIC_BINS["SURVIVALMONTHS"] == (12.0, 36.0)
        assert nsclc.SCHEME.cardinality("AGE") == len(nsclc.NUMERIC_BINS["AGE"]) + 1
