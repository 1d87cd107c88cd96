"""Tests for permutations, first-inversion tables, and separator placements."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegamekit.perm import (
    _signed_placements,
    avoids,
    check_first_inversions,
    check_fixes_one,
    check_permutation,
    enumerate_fixing_one,
    first_inversions,
    format_permutation,
    inversions,
    parse_permutation,
    separator_placements,
    signed_placement_total,
    weak_leq,
)
from treegamekit.seq import census_by_stirling_sum

from test_tree import agree_on_edits, outcome


def first_inversion_orbit(t, i):
    """The forward orbit i -> t(i) -> t(t(i)) .. ending at the sentinel
    (the sentinel is included, the start is not)."""
    n = len(t)
    if not 2 <= i <= n + 1:
        raise ValueError(f"argument {i} outside 2..{n + 1}")
    out = []
    j = i
    while j != n + 1:
        j = t[j - 2]
        out.append(j)
    if not out:
        out.append(n + 1)
    return tuple(out)


def first_inversion_closed(p, separators):
    """Closure rule: each separator's first inversion is the sentinel or
    itself a separator.  Equivalent to the block-minimum rule."""
    p = check_fixes_one(p)
    n = len(p)
    t = first_inversions(p)
    seps = set(separators)
    return all(t[i - 2] == n + 1 or t[i - 2] in seps for i in seps)


def placement_is_valid(p, separators):
    """Block-minimum rule: each block's first value is the block minimum."""
    p = check_fixes_one(p)
    n = len(p)
    cuts = sorted(set(separators))
    if any(not 2 <= s <= n for s in cuts):
        raise ValueError(f"separators must lie in 2..{n}, got {cuts}")
    starts = [1, *cuts]
    ends = [*(c - 1 for c in cuts), n]
    for a, b in zip(starts, ends):
        block = p[a - 1 : b]
        if block[0] != min(block):
            return False
    return True


def filtered_placements(p):
    """Every cut set of positions 2..n that passes the block-minimum rule,
    as an ascending tuple, by size then position: the 2^(n-1) subset filter."""
    p = check_fixes_one(p)
    n = len(p)
    for r in range(n):
        for combo in itertools.combinations(range(2, n + 1), r):
            if placement_is_valid(p, combo):
                yield combo


def brute_inversions(p):
    n = len(p)
    return frozenset(
        (i + 1, j + 1)
        for i, j in itertools.combinations(range(n), 2)
        if p[i] > p[j]
    )


def brute_avoids(p, pattern):
    """Triple scan straight off the pattern definition."""
    n = len(p)
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = p[i], p[j], p[k]
        if pattern == 213 and b < a < c:
            return False
        if pattern == 312 and b < c < a:
            return False
    return True


def scan_first_inversions(p):
    """The table by the definition's double loop, O(n^2)."""
    n = len(p)
    out = []
    for i in range(2, n + 1):
        ti = n + 1
        for j in range(i + 1, n + 1):
            if p[j - 1] < p[i - 1]:
                ti = j
                break
        out.append(ti)
    out.append(n + 1)
    return tuple(out)


def scan_check_first_inversions(t):
    """Validation by double loops, O(n^2); returns the error message, or
    None for a valid table."""
    n = len(t)
    if n == 0:
        return "empty first-inversion table"
    if t[n - 1] != n + 1:
        return f"entry for argument {n + 1} must be the sentinel {n + 1}, got {t[n - 1]}"
    for i in range(2, n + 1):
        ti = t[i - 2]
        if not i < ti <= n + 1:
            return f"t({i}) = {ti} is outside {i + 1}..{n + 1}"
    for i in range(2, n + 1):
        for j in range(i + 1, min(t[i - 2], n + 1)):
            if t[j - 2] > t[i - 2]:
                return f"crossing pair: t({i}) = {t[i - 2]} but t({j}) = {t[j - 2]}"
    return None


def check_message(t):
    try:
        check_first_inversions(t)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def tables(draw, max_n=30):
    """Tables whose entries lie in range, so that crossings are what fails."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = [draw(st.integers(i + 1, n + 1)) for i in range(2, n + 1)]
    return (*entries, n + 1)


@st.composite
def perms_fixing_one(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rest = draw(st.permutations(tuple(range(2, n + 1))))
    return (1, *rest)


class TestValidation:
    def test_accepts_identity(self):
        check_permutation((1, 2, 3))

    def test_rejects_repeat(self):
        with pytest.raises(ValueError):
            check_permutation((1, 2, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_permutation((1, 2, 4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_permutation(())

    def test_parse_and_format_round_trip(self):
        assert parse_permutation("1,6,2,3,5,7,4") == (1, 6, 2, 3, 5, 7, 4)
        assert format_permutation((1, 6, 2, 3, 5, 7, 4)) == "1,6,2,3,5,7,4"
        assert parse_permutation(" 1 , 2 ") == (1, 2)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_permutation("1,two,3")
        with pytest.raises(ValueError):
            parse_permutation("")


class TestInversions:
    def test_worked_example(self):
        got = inversions((1, 6, 2, 3, 5, 7, 4))
        assert got == frozenset(
            {(2, 3), (2, 4), (2, 5), (2, 7), (5, 7), (6, 7)}
        )

    def test_identity_has_none(self):
        assert inversions((1, 2, 3, 4)) == frozenset()

    def test_single_swap(self):
        assert inversions((1, 3, 2)) == frozenset({(2, 3)})

    @given(perms_fixing_one())
    def test_matches_brute_force(self, p):
        assert inversions(p) == brute_inversions(p)

    @given(perms_fixing_one())
    def test_first_position_never_inverted(self, p):
        assert all(i != 1 for i, _ in inversions(p))


class TestFirstInversions:
    def test_worked_example(self):
        assert first_inversions((1, 6, 2, 3, 5, 7, 4)) == (3, 8, 8, 7, 7, 8, 8)

    def test_identity(self):
        assert first_inversions((1, 2, 3)) == (4, 4, 4)

    def test_singleton(self):
        assert first_inversions((1,)) == (2,)

    def test_sentinel_always_last(self):
        for p in enumerate_fixing_one(5):
            assert first_inversions(p)[-1] == 6

    @given(perms_fixing_one())
    def test_table_definition(self, p):
        """t(i) is the least j with (i, j) inverted, else the sentinel."""
        n = len(p)
        table = first_inversions(p)
        inv = brute_inversions(p)
        for i in range(2, n + 2):
            witnesses = [j for a, j in inv if a == i]
            expected = min(witnesses) if witnesses else n + 1
            assert table[i - 2] == expected

    @given(perms_fixing_one())
    def test_tables_validate(self, p):
        check_first_inversions(first_inversions(p))

    def test_rejects_crossing(self):
        with pytest.raises(ValueError):
            check_first_inversions((4, 5, 5, 5))

    def test_rejects_low_entry(self):
        with pytest.raises(ValueError):
            check_first_inversions((2, 4, 4))

    def test_rejects_bad_sentinel(self):
        with pytest.raises(ValueError):
            check_first_inversions((3, 4, 3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_first_inversions(())

    def test_matches_scan_exhaustively(self):
        for n in range(1, 8):
            for p in enumerate_fixing_one(n):
                assert first_inversions(p) == scan_first_inversions(p)

    @given(perms_fixing_one(max_n=40))
    def test_matches_scan_on_random_perms(self, p):
        assert first_inversions(p) == scan_first_inversions(p)

    def test_check_matches_scan_exhaustively(self):
        # every table with entries in 1..n+2, valid or not, for n <= 5
        for n in range(1, 6):
            for t in itertools.product(range(1, n + 3), repeat=n):
                assert check_message(t) == scan_check_first_inversions(t)

    @given(tables())
    def test_check_matches_scan_on_random_tables(self, t):
        assert check_message(t) == scan_check_first_inversions(t)


class TestOrbits:
    def test_worked_example(self):
        t = (3, 8, 8, 7, 7, 8, 8)
        assert first_inversion_orbit(t, 2) == (3, 8)
        assert first_inversion_orbit(t, 5) == (7, 8)
        assert first_inversion_orbit(t, 7) == (8,)

    def test_sentinel_orbit_is_fixed_point(self):
        assert first_inversion_orbit((4, 4, 4), 4) == (4,)

    def test_rejects_out_of_range_start(self):
        with pytest.raises(ValueError):
            first_inversion_orbit((4, 4, 4), 1)

    @given(perms_fixing_one(max_n=7))
    def test_orbit_strictly_increases_to_sentinel(self, p):
        n = len(p)
        t = first_inversions(p)
        for i in range(2, n + 1):
            orbit = first_inversion_orbit(t, i)
            chain = (i, *orbit)
            assert all(a < b for a, b in zip(chain, chain[1:]))
            assert orbit[-1] == n + 1


class TestAvoidance:
    def test_top_of_worked_fiber(self):
        assert avoids((1, 7, 2, 3, 5, 6, 4), 213)
        assert not avoids((1, 7, 2, 3, 5, 6, 4), 312)

    def test_bottom_of_worked_fiber(self):
        assert avoids((1, 3, 2, 4, 6, 7, 5), 312)
        assert not avoids((1, 3, 2, 4, 6, 7, 5), 213)

    def test_middle_of_worked_fiber_avoids_neither(self):
        p = (1, 6, 2, 3, 5, 7, 4)
        assert not avoids(p, 213)
        assert not avoids(p, 312)

    def test_identity_avoids_both(self):
        assert avoids((1, 2, 3, 4, 5), 213)
        assert avoids((1, 2, 3, 4, 5), 312)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            avoids((1, 2, 3), 231)

    @given(perms_fixing_one(), st.sampled_from((213, 312)))
    def test_matches_brute_force(self, p, pattern):
        assert avoids(p, pattern) == brute_avoids(p, pattern)

    def test_matches_brute_force_on_every_permutation(self):
        # every permutation of up to 7 entries, not only those fixing 1
        for n in range(1, 8):
            for p in itertools.permutations(range(1, n + 1)):
                for pattern in (213, 312):
                    assert avoids(p, pattern) == brute_avoids(p, pattern), (p, pattern)

    def test_avoider_counts_are_catalan_like(self):
        # fixing 1 leaves an (n-1)-element avoidance problem
        for n in range(1, 8):
            cat = math.comb(2 * (n - 1), n - 1) // n
            for pattern in (213, 312):
                count = sum(
                    avoids(p, pattern) for p in enumerate_fixing_one(n)
                )
                assert count == cat


class TestInversionLaws:
    """Both avoidance classes are pinned down by inversion geometry."""

    def test_upper_set_containment_and_equality(self):
        for n in range(1, 7):
            for p in enumerate_fixing_one(n):
                t = first_inversions(p)
                inv = inversions(p)
                upper = {
                    (i, j)
                    for i in range(2, n + 1)
                    for j in range(t[i - 2], n + 1)
                }
                assert inv <= upper
                assert (inv == upper) == avoids(p, 213)

    def test_orbit_containment_and_equality(self):
        for n in range(1, 7):
            for p in enumerate_fixing_one(n):
                t = first_inversions(p)
                inv = inversions(p)
                orbit_pairs = {
                    (i, j)
                    for i in range(2, n + 1)
                    for j in first_inversion_orbit(t, i)
                    if j <= n
                }
                assert orbit_pairs <= inv
                assert (orbit_pairs == inv) == avoids(p, 312)

    def test_same_table_same_avoider(self):
        # each table admits exactly one avoider of each pattern
        for n in range(1, 7):
            by_table = {}
            for p in enumerate_fixing_one(n):
                by_table.setdefault(first_inversions(p), []).append(p)
            for members in by_table.values():
                for pattern in (213, 312):
                    assert sum(avoids(p, pattern) for p in members) == 1


class TestWeakOrder:
    def test_identity_below_everything(self):
        for p in enumerate_fixing_one(4):
            assert weak_leq((1, 2, 3, 4), p)

    def test_not_comparable(self):
        assert not weak_leq((1, 3, 2, 4), (1, 2, 4, 3))
        assert not weak_leq((1, 2, 4, 3), (1, 3, 2, 4))

    def test_chain(self):
        assert weak_leq((1, 2, 3), (1, 3, 2))
        assert weak_leq((1, 3, 2), (1, 3, 2))

    def test_is_partial_order(self):
        perms = list(enumerate_fixing_one(5))
        rows = {p: inversions(p) for p in perms}
        for p in perms:
            assert weak_leq(p, p)
        for p, q in itertools.permutations(perms, 2):
            assert weak_leq(p, q) == (rows[p] <= rows[q])
            if weak_leq(p, q) and weak_leq(q, p):
                assert p == q


class TestEnumeration:
    def test_counts(self):
        for n in range(1, 8):
            assert len(list(enumerate_fixing_one(n))) == math.factorial(n - 1)

    def test_lexicographic(self):
        got = list(enumerate_fixing_one(3))
        assert got == [(1, 2, 3), (1, 3, 2)]
        all_n4 = list(enumerate_fixing_one(4))
        assert all_n4 == sorted(all_n4)

    def test_all_fix_one(self):
        assert all(p[0] == 1 for p in enumerate_fixing_one(5))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(enumerate_fixing_one(0))


class TestSeparatorPlacements:
    def test_identity_n3(self):
        assert set(separator_placements((1, 2, 3))) == {(), (2,), (3,), (2, 3)}

    def test_single_descent_n3(self):
        assert set(separator_placements((1, 3, 2))) == {(), (3,), (2, 3)}

    def test_sign_and_rank(self):
        # a placement's rank is its cut count, and its sign that count's parity
        ranks = sorted(len(cuts) for cuts in separator_placements((1, 3, 2)))
        assert ranks == [0, 1, 2]
        assert sum((-1) ** rank for rank in ranks) == 1

    def test_block_minimum_rule_directly(self):
        # separators cut the word into blocks; each block must start at
        # its own minimum
        for p in enumerate_fixing_one(5):
            valid = set(separator_placements(p))
            for size in range(5):
                for combo in itertools.combinations(range(2, 6), size):
                    starts = sorted((1, *combo))
                    ends = starts[1:] + [6]
                    ok = all(
                        p[a - 1] == min(p[a - 1 : b - 1])
                        for a, b in zip(starts, ends)
                    )
                    assert (combo in valid) == ok

    def test_closure_rule_matches_block_rule(self):
        for n in range(1, 7):
            for p in enumerate_fixing_one(n):
                for size in range(n):
                    for combo in itertools.combinations(range(2, n + 1), size):
                        s = frozenset(combo)
                        assert placement_is_valid(p, s) == (
                            first_inversion_closed(p, s)
                        )

    def test_scan_matches_subset_filter(self):
        # the same cut tuples, each once, for every p fixing 1 up to n = 8
        for n in range(1, 9):
            for p in enumerate_fixing_one(n):
                got, want = separator_placements(p), list(filtered_placements(p))
                assert set(got) == set(want) and len(got) == len(want), p

    @settings(max_examples=60, deadline=None)
    @given(perms_fixing_one(max_n=12))
    def test_scan_matches_subset_filter_large(self, p):
        got, want = separator_placements(p), list(filtered_placements(p))
        assert set(got) == set(want) and len(got) == len(want)

    @given(perms_fixing_one(max_n=7))
    def test_empty_always_valid(self, p):
        assert placement_is_valid(p, frozenset())

    def test_full_set_always_valid(self):
        # singleton blocks trivially start at their own minimum
        for p in enumerate_fixing_one(4):
            assert placement_is_valid(p, frozenset(range(2, 5)))

    def test_signed_totals_match_census(self):
        for n in range(1, 8):
            assert signed_placement_total(n) == census_by_stirling_sum(n)

    def test_transfer_matches_placement_signs(self):
        # the transfer counts what summing over the placement objects does
        for n in range(1, 9):
            total = 0
            for p in enumerate_fixing_one(n):
                signs = sum((-1) ** len(cuts) for cuts in separator_placements(p))
                assert _signed_placements(p) == signs, p
                total += signs
            assert signed_placement_total(n) == total, n

    def test_signed_total_by_hand_n3(self):
        # 123 contributes 1-2+1, 132 contributes 1-1+1: total 1
        assert signed_placement_total(3) == 1


# ---------------------------------------------------------------------------
# the text form against the code it replaced


def oracle_parse_permutation(text):
    parts = text.split(",")
    values = []
    for k, part in enumerate(parts):
        part = part.strip()
        if not part:
            raise ValueError(f"empty entry at index {k} in permutation text {text!r}")
        try:
            values.append(int(part))
        except ValueError:
            raise ValueError(f"bad integer {part!r} at index {k} in permutation text") from None
    return check_permutation(values)


def oracle_format_permutation(p):
    return ",".join(str(v) for v in p)


def random_permutation_text(rng):
    values = list(range(1, rng.randint(1, 12) + 1))
    rng.shuffle(values)
    return format_permutation(values)


class TestTextFormAgainstOracles:
    def test_parse_on_edited_texts(self):
        agree_on_edits(parse_permutation, oracle_parse_permutation, random_permutation_text, 2804)

    def test_spacing_the_oracle_accepts(self):
        for text in [" 1, 3,2", "1 ,\t2", "\x1c2,1", "1,\x1f2\x1c", "1_0,2", "٢,1", "+1,2", "1,,2", "1,2,", "1,x"]:
            assert outcome(parse_permutation, text) == outcome(oracle_parse_permutation, text)

    def test_format(self):
        rng = random.Random(2805)
        for _ in range(200):
            p = parse_permutation(random_permutation_text(rng))
            assert format_permutation(p) == oracle_format_permutation(p)
