import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit import nsclc
from causalkit.data import (
    CategoricalDataset,
    contingency_counts,
    load_csv,
    row_sums,
    write_csv,
)
from causalkit.errors import (
    DuplicateParent,
    EmptyDataset,
    SchemaMismatch,
)
from causalkit.graph import VariableScheme

from conftest import binary_scheme

AB = VariableScheme.of([("A", ("lo", "hi")), ("B", ("x", "y", "z"))])


class TestLoadCsv:
    def test_basic(self):
        text = "A,B\nlo,x\nhi,z\n"
        data, dropped = load_csv(text, AB)
        assert dropped == 0
        assert data.rows.tolist() == [[0, 0], [1, 2]]

    def test_bytes_and_column_reorder(self):
        data, _ = load_csv(b"B,A\ny,hi\n", AB)
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
        data, _ = load_csv("AGE\n40\n65\n74.9\n75\n90\n", scheme)
        assert data.column("AGE").tolist() == [0, 1, 1, 2, 2]

    def test_bin_beyond_the_cardinality_rejected(self):
        scheme = VariableScheme.of([("AGE", ("young", "old"))])
        with pytest.raises(SchemaMismatch, match="AGE: bin spec yields 2, cardinality 2"):
            load_csv("AGE\n80\n", scheme)

    def test_prebinned_label_accepted_for_numeric_column(self):
        scheme = VariableScheme.of([("AGE", ("<65", "65-75", ">=75"))])
        data, _ = load_csv("AGE\n65-75\n", scheme)
        assert data.column("AGE").tolist() == [1]

    def test_round_trip_write_then_load(self):
        data = CategoricalDataset(AB, np.array([[0, 2], [1, 1], [0, 0]]))
        back, dropped = load_csv(write_csv(data), AB)
        assert dropped == 0
        assert np.array_equal(back.rows, data.rows)

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
    def test_out_of_range_state_rejected(self):
        with pytest.raises(SchemaMismatch):
            CategoricalDataset(AB, np.array([[0, 3]]))

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


class TestRowSums:
    @pytest.mark.parametrize("width", range(0, 12))
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bits_of_numpy_sum(self, width, layout):
        rng = np.random.default_rng(width)
        table = rng.dirichlet([0.5] * max(width, 1), size=3000)[:, :width]
        table *= rng.uniform(0.5, 2.0, size=(len(table), 1))
        table = {
            "C": np.ascontiguousarray(table),
            "F": np.asfortranarray(table),
            "strided": np.repeat(table, 2, axis=1)[::3, ::2],
        }[layout]
        for t in (table, (table * 1000).astype(np.int64)):
            assert row_sums(t).dtype == t.sum(axis=1).dtype
            assert row_sums(t).tobytes() == t.sum(axis=1).tobytes()


class TestContingency:
    def test_no_parents(self):
        data = CategoricalDataset(AB, np.array([[0, 0], [0, 1], [1, 1]]))
        table = contingency_counts(data, "B", ())
        assert table.n_ij.tolist() == [[1, 2, 0]]
        assert table.n_i.tolist() == [3]

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
        assert (ab.parents, ba.parents) == (("A", "B"), ("B", "A"))
        assert ab.parent_cards == (2, 3) and ba.parent_cards == (3, 2)
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


class TestDefaults:
    def test_default_discretization_covers_cohort_bins(self):
        assert nsclc.NUMERIC_BINS["AGE"] == (65.0, 75.0)
        assert nsclc.NUMERIC_BINS["SURVIVALMONTHS"] == (12.0, 36.0)
        assert nsclc.SCHEME.cardinality("AGE") == len(nsclc.NUMERIC_BINS["AGE"]) + 1
