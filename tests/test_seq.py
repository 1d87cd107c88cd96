"""Tests for the five routes to the counting sequence."""

import itertools
import math

import pytest

from treegamekit import seq
from treegamekit.game import census_second_player_wins
from treegamekit.poly import Poly
from treegamekit.seq import (
    METHODS,
    census_by_complement_recurrence,
    census_by_egf,
    census_by_split_recurrence,
    census_by_stirling_sum,
    census_table,
    separator_weight_polynomial,
    stirling_first,
)

KNOWN = [1, 0, 1, 1, 8, 26, 194, 1142, 9736, 81384]


def brute_stirling(n, k):
    """Count permutations of n symbols with exactly k cycles."""
    count = 0
    for p in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if not seen[start]:
                cycles += 1
                v = start
                while not seen[v]:
                    seen[v] = True
                    v = p[v]
        if cycles == k:
            count += 1
    return count


class TestStirling:
    def test_examples(self):
        assert stirling_first(4, 2) == 11
        assert stirling_first(5, 1) == 24
        assert stirling_first(5, 5) == 1
        assert stirling_first(6, 3) == 225

    def test_against_cycle_count(self):
        for n in range(7):
            for k in range(n + 1):
                assert stirling_first(n, k) == brute_stirling(n, k)

    def test_row_sums(self):
        for n in range(9):
            assert sum(stirling_first(n, k) for k in range(n + 1)) == (
                math.factorial(n)
            )

    def test_rows_do_not_depend_on_call_order(self):
        # rows are built from the highest row built so far,
        # or from row 0 below it; any order of requests gives the same rows
        build = seq._stirling_row
        expected = [build(n) for n in range(12)]
        assert [sum(row) for row in expected] == [math.factorial(n) for n in range(12)]
        for order in (range(11, -1, -1), [5, 2, 9, 0, 11, 7, 1, 10, 3, 8, 4, 6]):
            for n in order:
                assert build(n) == expected[n]

    def test_stirling_route_ignores_call_history(self, monkeypatch):
        # the route takes rows 0..n_max from one pass, and the same rows
        # whether or not a higher row was asked for first
        pulled = []
        rows = seq._stirling_rows

        def counted(n_max):
            for row in rows(n_max):
                pulled.append(row)
                yield row

        monkeypatch.setattr(seq, "_stirling_rows", counted)
        assert METHODS["stirling"](10, 0) == KNOWN
        assert len(pulled) == 11
        stirling_first(40, 1)
        pulled.clear()
        assert METHODS["stirling"](10, 0) == KNOWN
        assert len(pulled) == 11

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            stirling_first(3, 5)
        with pytest.raises(ValueError):
            stirling_first(-1, 0)
        with pytest.raises(ValueError):
            stirling_first(3, -1)


class TestFiveRoutes:
    def test_known_values(self):
        assert [census_by_stirling_sum(n) for n in range(1, 11)] == KNOWN
        assert census_by_egf(10) == KNOWN
        assert census_by_split_recurrence(10) == KNOWN
        assert census_by_complement_recurrence(10) == KNOWN
        assert [census_second_player_wins(n) for n in range(1, 9)] == KNOWN[:8]

    def test_census_table_agreement(self):
        table = census_table(8)
        assert set(table) == set(METHODS)
        for method in METHODS:
            assert table[method] == KNOWN[:8], method

    def test_methods_map_names_to_routes(self):
        assert list(METHODS) == ["stirling", "egf", "census", "split", "complement"]
        for method, route in METHODS.items():
            assert route(7, 7) == KNOWN[:7], method
        with pytest.raises(ValueError):
            METHODS["census"](8, 7)  # only the census route reads its limit
        assert METHODS["stirling"](8, 7) == KNOWN[:8]

    def test_complement_identity(self):
        # the complement counts first-player wins
        for n in range(1, 9):
            a_n = census_by_stirling_sum(n)
            assert math.factorial(n - 1) - a_n >= 0

    def test_egf_matches_stirling_sum_to_40(self):
        # far past CENSUS_LIMIT, where census_table compares the routes
        assert census_by_egf(40) == [census_by_stirling_sum(n) for n in range(1, 41)]

    def test_egf_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            census_by_egf(0)

    def test_recurrences_reject_nonpositive(self):
        with pytest.raises(ValueError):
            census_by_split_recurrence(0)
        with pytest.raises(ValueError):
            census_by_complement_recurrence(0)

    def test_census_limit(self):
        with pytest.raises(ValueError):
            census_second_player_wins(21)

    def test_split_recurrence_by_hand(self):
        # a_4 = C(2,0)(0! - a_1)a_3 + C(2,1)(1! - a_2)a_2 + C(2,2)(2! - a_3)a_1
        a = [1, 0, 1]
        a4 = (
            math.comb(2, 0) * (1 - a[0]) * a[2]
            + math.comb(2, 1) * (1 - a[1]) * a[1]
            + math.comb(2, 2) * (2 - a[2]) * a[0]
        )
        assert a4 == census_by_stirling_sum(4) == 1

    def test_alternating_formula_directly(self):
        for n in range(1, 9):
            total = sum(
                (-1) ** (k - 1) * math.factorial(k - 1) * stirling_first(n, k)
                for k in range(1, n + 1)
            )
            assert total == census_by_stirling_sum(n)


class TestSeparatorWeights:
    def test_small_examples(self):
        assert separator_weight_polynomial(1) == Poly((1,))
        assert separator_weight_polynomial(2) == Poly((1, 1))
        assert separator_weight_polynomial(3) == Poly((2, 3, 2))

    def test_alternating_evaluation_recovers_sequence(self):
        for n in range(1, 8):
            assert separator_weight_polynomial(n)(-1) == (
                census_by_stirling_sum(n)
            )

    def test_stirling_route_is_the_polynomial_at_minus_one(self):
        assert METHODS["stirling"](60, 0) == [separator_weight_polynomial(n)(-1) for n in range(1, 61)]

    def test_total_weight_is_row_of_placements(self):
        # evaluating at 1 counts every placement of every permutation
        from treegamekit.perm import enumerate_fixing_one, separator_placements

        for n in range(1, 7):
            count = sum(
                1
                for p in enumerate_fixing_one(n)
                for _ in separator_placements(p)
            )
            assert separator_weight_polynomial(n)(1) == count

    def test_degree(self):
        for n in range(1, 7):
            assert len(separator_weight_polynomial(n).coeffs) - 1 == n - 1
