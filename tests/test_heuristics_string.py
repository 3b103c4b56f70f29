"""Unit tests for the Levenshtein string-view heuristic (§3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.heuristics import LevenshteinHeuristic, levenshtein, round_half_up
from repro.relational import Database, Relation, database_string
from repro.workloads import matching_pair


def reference_levenshtein(left: str, right: str) -> int:
    """Two-row dynamic program: the textbook recurrence, O(|left|·|right|)."""
    previous = list(range(len(right) + 1))
    for i, lchar in enumerate(left, start=1):
        current = [i]
        for j, rchar in enumerate(right, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            substitute_cost = previous[j - 1] + (lchar != rchar)
            current.append(min(insert_cost, delete_cost, substitute_cost))
        previous = current
    return previous[-1]


#: small alphabets make long matching runs; the others mix in 2-, 3- and
#: 4-byte UTF-8 characters, astral ones included
ALPHABETS = ("ab", "acgt", "aé€𝄞", "xyz0123456789 _éλ€𝄞😀")

#: any length up to 300, with the empty string and the lengths straddling
#: 64- and 128-bit word boundaries drawn often
LENGTHS = st.one_of(
    st.integers(0, 300), st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129])
)


@st.composite
def string_pairs(draw):
    alphabet = draw(st.sampled_from(ALPHABETS))
    size = draw(LENGTHS)
    left = draw(st.text(alphabet=alphabet, min_size=size, max_size=size))
    kind = draw(st.sampled_from(["independent", "edited", "equal"]))
    if kind == "equal":
        return left, left
    if kind == "independent":
        size = draw(LENGTHS)
        return left, draw(st.text(alphabet=alphabet, min_size=size, max_size=size))
    right = list(left)
    for _ in range(draw(st.integers(1, 8))):
        where = draw(st.integers(0, len(right)))
        char = draw(st.sampled_from(alphabet))
        edit = draw(st.sampled_from(["insert", "delete", "substitute"]))
        if edit == "insert" or where == len(right):
            right.insert(where, char)
        elif edit == "delete":
            del right[where]
        else:
            right[where] = char
    return left, "".join(right)


class TestLevenshteinDistance:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_empty_cases(self):
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "abcd") == 4

    def test_substitution(self):
        assert levenshtein("kitten", "sitten") == 1

    def test_classic_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_symmetric(self):
        assert levenshtein("flaw", "lawn") == levenshtein("lawn", "flaw") == 2

    def test_insert_delete(self):
        assert levenshtein("abc", "abxc") == 1
        assert levenshtein("abxc", "abc") == 1

    def test_triangle_inequality_sample(self):
        a, b, c = "route", "router", "outer"
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(string_pairs())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, pair):
        left, right = pair
        assert levenshtein(left, right) == reference_levenshtein(left, right)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_synthetic_string_views(self, n):
        pair = matching_pair(n)
        left, right = database_string(pair.source), database_string(pair.target)
        assert (len(left), len(right)) == (7 * n, 7 * n)
        assert levenshtein(left, right) == reference_levenshtein(left, right) == n

    def test_flights_b_to_a_string_views(self, db_a, db_b):
        left, right = database_string(db_b), database_string(db_a)
        assert (len(left), len(right)) == (260, 126)
        assert levenshtein(left, right) == levenshtein(right, left) == 196
        assert reference_levenshtein(left, right) == 196


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(1.4) == 1

    def test_negative_half_away(self):
        assert round_half_up(-0.5) == -1
        assert round_half_up(-1.4) == -1


class TestLevenshteinHeuristic:
    def test_zero_on_target(self, db_a):
        assert LevenshteinHeuristic(db_a)(db_a) == 0

    def test_bounded_by_k(self, db_a, db_b):
        h = LevenshteinHeuristic(db_a, k=11)
        assert 0 <= h(db_b) <= 11

    def test_scaling_constant(self, db_a, db_b):
        small = LevenshteinHeuristic(db_a, k=5)(db_b)
        large = LevenshteinHeuristic(db_a, k=20)(db_b)
        assert large >= small

    def test_k_below_one_rejected(self, db_a):
        with pytest.raises(ValueError):
            LevenshteinHeuristic(db_a, k=0.5)

    def test_default_k_is_paper_ida_value(self, db_a):
        assert LevenshteinHeuristic(db_a).k == 11

    def test_monotone_under_growing_difference(self):
        target = Database.single(Relation("R", ("A",), [("aaaa",)]))
        near = Database.single(Relation("R", ("A",), [("aaab",)]))
        far = Database.single(Relation("R", ("A",), [("zzzz",)]))
        h = LevenshteinHeuristic(target, k=10)
        assert h(near) <= h(far)

    def test_database_order_irrelevant(self):
        """The string view sorts TNF rows, so tuple order cannot matter."""
        target = Database.single(Relation("R", ("A",), [("x",), ("y",)]))
        state1 = Database.single(Relation("R", ("A",), [("y",), ("x",)]))
        assert LevenshteinHeuristic(target)(state1) == 0
