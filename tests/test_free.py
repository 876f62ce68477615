import random

import pytest

from acaa.algebra import check_acaa, check_anticommutative
from acaa.free import (eval_word, free_acaa, graded_dims, normal_form,
                       normal_form_element, parse_word, word_degree, word_to_str)

from conftest import seven_dim_table


def all_trees(n_gens, degree):
    if degree == 1:
        yield from range(n_gens)
        return
    for left_deg in range(1, degree):
        for left in all_trees(n_gens, left_deg):
            for right in all_trees(n_gens, degree - left_deg):
                yield (left, right)


def test_dimensions():
    assert [free_acaa(n).dim for n in range(1, 6)] == [1, 3, 7, 14, 25]


def test_graded_dims():
    assert graded_dims(2) == [2, 1, 0]
    assert graded_dims(3) == [3, 3, 1]
    assert graded_dims(5) == [5, 10, 10]
    with pytest.raises(ValueError):
        graded_dims(0)


def test_free1_is_abelian():
    F = free_acaa(1)
    assert F.dim == 1
    assert (F.generator(0) * F.generator(0)).is_zero


def test_free2_is_heisenberg():
    F = free_acaa(2)
    assert F.dim == 3
    assert F.generator(0) * F.generator(1) == F.monomial((0, 1))
    from acaa.catalog import entry

    assert F.algebra.tensor == entry("h3").algebra.tensor


def test_free3_products_match_the_table():
    F = free_acaa(3)
    X1, X2, X3 = (F.generator(i) for i in range(3))
    X123 = F.monomial((0, 1, 2))
    assert X1 * F.monomial((1, 2)) == X123
    assert X2 * F.monomial((0, 2)) == -X123
    assert X3 * F.monomial((0, 1)) == X123


def test_free_algebras_pass_the_checks():
    for n in range(1, 6):
        A = free_acaa(n).algebra
        assert check_anticommutative(A) is None
        assert check_acaa(A) is None


def test_degree_grading():
    F = free_acaa(3)
    assert F.degrees == (1, 1, 1, 2, 2, 2, 3)
    assert F.algebra.labels == ("X1", "X2", "X3", "X12", "X13", "X23", "X123")


def test_free3_matches_seven_dim_table():
    # relabeling e4..e7 -> X12, X13, X23, X123 is the identity on positions
    assert free_acaa(3).algebra.tensor == seven_dim_table().tensor


def test_normal_form_examples():
    F = free_acaa(3)
    assert normal_form(F, parse_word("((X1 X2) X3)")) == (-1, (0, 1, 2))
    assert normal_form(F, parse_word("(X1 (X2 X1))")) is None
    assert normal_form(F, parse_word("((X1 X2) (X1 X3))")) is None
    assert normal_form(F, parse_word("(X2 (X1 X3))")) == (-1, (0, 1, 2))
    assert normal_form(F, parse_word("X2")) == (1, (1,))
    assert normal_form(F, parse_word("(X2 X1)")) == (-1, (0, 1))


def test_normal_form_agrees_with_fold_exhaustively():
    F = free_acaa(3)
    for degree in range(1, 5):
        for tree in all_trees(3, degree):
            assert normal_form_element(F, tree) == eval_word(F, tree)


def random_tree(rng, n_gens, degree):
    """A bracket word of the given degree with a random bracketing."""
    if degree == 1:
        return rng.randrange(n_gens)
    left = rng.randint(1, degree - 1)
    return (random_tree(rng, n_gens, left), random_tree(rng, n_gens, degree - left))


@pytest.mark.parametrize("n", (4, 5))
def test_normal_form_agrees_with_fold_on_random_words(n):
    # words up to degree 5 over few or many distinct generators, so that
    # zero and nonzero degree-3 words and vanishing longer words all occur
    F = free_acaa(n)
    rng = random.Random(100 + n)
    values = set()
    for _ in range(400):
        tree = random_tree(rng, rng.randint(1, n), rng.randint(1, 5))
        nf = normal_form_element(F, tree)
        assert nf == eval_word(F, tree), word_to_str(tree)
        values.add((word_degree(tree), nf.is_zero))
    assert {(3, True), (3, False), (4, True), (5, True)} <= values


def test_word_parser_round_trip():
    text = "((X1 X2) (X3 X1))"
    assert word_to_str(parse_word(text)) == text
    assert word_degree(parse_word(text)) == 4


def test_word_parser_errors():
    with pytest.raises(ValueError):
        parse_word("((X1 X2) X3")
    with pytest.raises(ValueError):
        parse_word("(X1 X2) X3)")
    with pytest.raises(ValueError):
        parse_word("(X1 Y2)")
    with pytest.raises(ValueError):
        parse_word("(X0 X1)")


def test_normal_form_rejects_bad_generator_index():
    F = free_acaa(2)
    with pytest.raises(ValueError):
        normal_form(F, parse_word("(X1 X3)"))


def test_free_rejects_zero_generators():
    with pytest.raises(ValueError):
        free_acaa(0)
