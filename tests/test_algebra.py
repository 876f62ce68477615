import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acaa.algebra import (Algebra, QuadIdentityCoeffs, _mul_into, acaa_coeffs,
                          antiassociativity_coeffs, change_basis, check_acaa,
                          check_acaa_admissible, check_anticommutative,
                          check_quadratic_identity, check_rho_associative,
                          commutator_algebra, derived_cube_rows, direct_sum,
                          fingerprint, jacobi_coeffs, polarize,
                          quadratic_identity_value, random_element, rho)
from acaa.catalog import all_entries, entry
from acaa.fields import PrimeField, Q
from acaa.free import free_acaa
from acaa.linalg import (Matrix, _from_ints, _int_rank, _int_reduce, _int_rows,
                         random_invertible, span)

from conftest import (FIELDS, KERNEL_SETTINGS, commutative_2, full_matrix_2x2,
                      nonabelian_acaa, plain_algebras, random_invertible_over,
                      reference_change_basis, scalar, seven_dim_table, simple_lie_3,
                      skew_algebras, upper_triangular_2x2)


def test_h3_products():
    h3 = entry("h3").algebra
    e1, e2, e3 = (h3.basis(i) for i in range(3))
    assert e1 * e2 == e3
    assert e2 * e1 == -e3
    assert (e1 * e1).is_zero
    assert ((e1 * e2) * e1).is_zero


def test_anticommutativity_witness():
    A = Algebra.from_products(Q, 2, {(0, 0): {1: 1}})
    assert check_anticommutative(A) == (0, 0)
    assert check_anticommutative(entry("h3").algebra) is None


def test_seven_dim_table_is_acaa_not_lie():
    A = seven_dim_table()
    assert check_anticommutative(A) is None
    assert check_acaa(A) is None
    assert check_quadratic_identity(A, acaa_coeffs(Q)) is None
    assert check_quadratic_identity(A, jacobi_coeffs(Q)) is not None


def test_simple_lie_algebra_fails_acaa():
    A = simple_lie_3()
    # [e1, [e1, e2]] = [e1, e3] = -e2, so the first lexicographic witness
    # is the triple (0, 0, 1).
    assert check_acaa(A) == (0, 0, 1)
    assert check_quadratic_identity(A, jacobi_coeffs(Q)) is None


def test_check_acaa_preconditions():
    with pytest.raises(ValueError):
        check_acaa(upper_triangular_2x2())
    F2 = PrimeField(2)
    A = Algebra.from_products(F2, 2, {})
    with pytest.raises(ValueError):
        check_acaa(A)


def test_from_products_refuses_a_tensor_past_the_size_guard():
    # 215^3 cells fit under 10^7, 216^3 do not; the dense tensor is never built
    with pytest.raises(ValueError, match="size guard"):
        Algebra.from_products(Q, 216, {})


def test_check_acaa_over_odd_prime_field():
    F5 = PrimeField(5)
    h3_mod5 = Algebra.from_products(F5, 3, {(0, 1): {2: 1}}, skew=True)
    assert check_acaa(h3_mod5) is None


def test_jacobi_holds_on_h3_fails_on_free3():
    h3 = entry("h3").algebra
    assert check_quadratic_identity(h3, jacobi_coeffs(Q)) is None
    for field in (Q, PrimeField(5), PrimeField(7)):
        F = free_acaa(3, field)
        assert check_quadratic_identity(F.algebra, jacobi_coeffs(field)) == (0, 1, 2)
    # the Jacobi sum is 3 [x,[y,z]] under the law, so over F_3 free3 is Lie
    F3 = PrimeField(3)
    assert check_quadratic_identity(free_acaa(3, F3).algebra, jacobi_coeffs(F3)) is None


def test_jacobi_sum_on_free3_is_three_times_monomial():
    F = free_acaa(3)
    value = quadratic_identity_value(F.algebra, jacobi_coeffs(Q),
                                     F.generator(0), F.generator(1), F.generator(2))
    assert value == 3 * F.monomial((0, 1, 2))


def test_acaa_equivalent_to_quadratic_form_on_catalog():
    for e in all_entries():
        assert check_acaa(e.algebra) is None
        assert check_quadratic_identity(e.algebra, acaa_coeffs(Q)) is None
    assert check_quadratic_identity(simple_lie_3(), acaa_coeffs(Q)) is not None


def test_antiassociativity_on_acaa_algebras():
    for e in all_entries():
        assert check_quadratic_identity(e.algebra, antiassociativity_coeffs(Q)) is None


def test_triple_bracket_equalities_on_catalog():
    for e in all_entries():
        A = e.algebra
        for i in range(A.dim):
            ei = A.basis(i)
            for j in range(A.dim):
                ej = A.basis(j)
                for k in range(A.dim):
                    ek = A.basis(k)
                    a = ei * (ej * ek)
                    b = ej * (ek * ei)
                    c = ek * (ei * ej)
                    assert a == b == c


def test_polarize_commutative_input():
    A = commutative_2()
    minus, plus = polarize(A)
    assert all(not any(row) for plane in minus.tensor for row in plane)
    assert plus.tensor[0][0][0] == Fraction(2)


def test_polarize_anticommutative_input():
    h3 = entry("h3").algebra
    minus, plus = polarize(h3)
    assert minus.tensor[0][1][2] == Fraction(2)
    assert all(not any(row) for plane in plus.tensor for row in plane)


def test_polarize_square_term():
    A = Algebra.from_products(Q, 2, {(0, 0): {1: 1}})
    minus, plus = polarize(A)
    assert plus.tensor[0][0][1] == Fraction(2)
    assert all(not any(row) for plane in minus.tensor for row in plane)


def test_polarize_recombination():
    A = upper_triangular_2x2()
    minus, plus = polarize(A)
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                assert minus.tensor[i][j][k] + plus.tensor[i][j][k] \
                    == 2 * A.tensor[i][j][k]


def test_rho_on_commutative_and_h3():
    A = commutative_2()
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                assert rho(A, A.basis(i), A.basis(j), A.basis(k)).is_zero
    h3 = entry("h3").algebra
    assert check_rho_associative(h3) is None


def test_rho_on_upper_triangular(ut2):
    e11, e12, e22 = (ut2.basis(i) for i in range(3))
    assert rho(ut2, e11, e12, e22) == e12
    assert check_rho_associative(ut2) is not None


def test_acaa_admissible_cases(ut2, gl2):
    assert check_acaa_admissible(commutative_2()) is None
    # h3 with product equal to its bracket: the commutator doubles it
    assert check_acaa_admissible(entry("h3").algebra) is None
    assert check_acaa_admissible(gl2) is not None


def test_gl2_commutator_not_two_step(gl2):
    L = commutator_algebra(gl2)
    e12, e21 = L.basis(1), L.basis(2)
    inner = e12 * e21
    assert (inner * e12) == 2 * e12


def test_admissibility_agrees_with_commutator_route():
    rng = random.Random(13)
    samples = [commutative_2(), upper_triangular_2x2(), full_matrix_2x2(),
               entry("h3").algebra]
    for _ in range(15):
        tensor = [[[Q.from_int(rng.randint(-1, 1)) for _ in range(3)]
                   for _ in range(3)] for _ in range(3)]
        samples.append(Algebra(Q, 3, tensor))
    for B in samples:
        direct = check_acaa_admissible(B) is None
        via_commutator = check_acaa(commutator_algebra(B)) is None
        assert direct == via_commutator


def test_rho_associative_implies_two_step_nilpotent_commutator(ut2):
    h3_as_product = entry("h3").algebra
    for B in (commutative_2(), h3_as_product):
        if check_rho_associative(B) is None:
            L = commutator_algebra(B)
            assert check_quadratic_identity(L, jacobi_coeffs(Q)) is None
            assert fingerprint(L).cube_dim == 0


def test_commutator_of_upper_triangular(ut2):
    L = commutator_algebra(ut2)
    e11, e12, e22 = (L.basis(i) for i in range(3))
    assert e11 * e12 == e12
    assert e12 * e22 == e12
    assert (e11 * e22).is_zero
    assert check_anticommutative(L) is None


def test_commutator_of_anticommutative_doubles():
    h3 = entry("h3").algebra
    L = commutator_algebra(h3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert L.tensor[i][j][k] == 2 * h3.tensor[i][j][k]


def test_commutator_of_commutative_is_abelian():
    L = commutator_algebra(commutative_2())
    assert all(not any(row) for plane in L.tensor for row in plane)


def test_fingerprints():
    assert fingerprint(entry("abelian5").algebra).as_tuple() == (5, 0, 5, 0)
    assert fingerprint(entry("h5").algebra).as_tuple() == (5, 1, 1, 0)
    assert fingerprint(free_acaa(3).algebra).as_tuple() == (7, 4, 1, 1)
    assert fingerprint(entry("L5").algebra).as_tuple() == (5, 2, 2, 0)


def test_fingerprint_invariant_under_basis_change():
    rng = random.Random(2024)
    for name in ("h5", "L5", "free3"):
        A = entry(name).algebra
        fp = fingerprint(A)
        for _ in range(10):
            P = random_invertible(Q, A.dim, rng)
            assert fingerprint(change_basis(A, P)) == fp


def test_direct_sum_matches_catalog():
    h3 = entry("h3").algebra
    K = Algebra.from_products(Q, 1, {}, skew=True)
    assert direct_sum(h3, K) == entry("h3+K").algebra
    assert direct_sum(direct_sum(h3, K), K) == entry("h3+K2").algebra


def test_direct_sum_shifts_the_second_summand():
    h3 = entry("h3").algebra
    K = Algebra.from_products(Q, 1, {}, skew=True)
    assert direct_sum(K, h3) == Algebra.from_products(Q, 4, {(1, 2): {3: 1}}, skew=True)
    assert direct_sum(h3, h3) == Algebra.from_products(
        Q, 6, {(0, 1): {2: 1}, (3, 4): {5: 1}}, skew=True)
    assert direct_sum(commutative_2(), upper_triangular_2x2()) == Algebra.from_products(
        Q, 5, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
               (2, 2): {2: 1}, (2, 3): {3: 1}, (3, 4): {3: 1}, (4, 4): {4: 1}})


def test_direct_sum_with_zero_dim():
    h3 = entry("h3").algebra
    zero_alg = Algebra.from_products(Q, 0, {}, skew=True)
    assert direct_sum(h3, zero_alg) == h3


def test_direct_sum_of_abelians_is_abelian():
    a2 = entry("abelian2").algebra
    s = direct_sum(a2, a2)
    assert fingerprint(s).as_tuple() == (4, 0, 4, 0)


def test_direct_sum_field_mismatch():
    h3 = entry("h3").algebra
    other = Algebra.from_products(PrimeField(3), 1, {}, skew=True)
    with pytest.raises(ValueError):
        direct_sum(h3, other)


def test_multiply_rejects_foreign_elements():
    h3 = entry("h3").algebra
    other = free_acaa(2).algebra
    with pytest.raises(ValueError):
        h3.multiply(h3.basis(0), other.basis(0))


def test_skew_constructor_validates():
    with pytest.raises(ValueError):
        Algebra.from_products(Q, 2, {(1, 0): {0: 1}}, skew=True)
    bad = [[[Q.one, Q.zero], [Q.zero, Q.zero]], [[Q.zero, Q.zero], [Q.zero, Q.zero]]]
    with pytest.raises(ValueError):
        Algebra(Q, 2, bad, symmetry="skew")


def test_element_arithmetic_and_repr():
    h3 = entry("h3").algebra
    x = h3.element([1, -1, 0])
    y = h3.basis(0) - h3.basis(1)
    assert x == y
    assert repr(h3.basis(2)) == "e3"
    assert not x.is_zero


def test_random_element_seeded():
    h3 = entry("h3").algebra
    a = random_element(h3, random.Random(5))
    b = random_element(h3, random.Random(5))
    assert a == b


# --- the integer kernel against the Fraction loops it replaced ---------------
#
# The references below are the former field-element implementations of
# check_acaa, fingerprint and change_basis (in conftest.py), kept here only
# as test oracles.

def reference_acaa_failures(A):
    """Every basis triple (i, j, k), of all d^3 in lexicographic order,
    where the linearized law fails."""
    zero = A.field.zero

    def bracket_into(i, vec, acc):
        for m, c in enumerate(vec):
            if c:
                for k, c2 in enumerate(A.tensor[i][m]):
                    acc[k] = acc[k] + c * c2

    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                acc = [zero] * A.dim
                bracket_into(i, A.tensor[j][k], acc)
                bracket_into(k, A.tensor[j][i], acc)
                if any(acc):
                    yield (i, j, k)


def reference_check_acaa(A):
    return next(reference_acaa_failures(A), None)


def reference_fingerprint(A):
    d = A.dim
    products = [A.tensor[i][j] for i in range(d) for j in range(d)]
    cubes = []
    for u in products:
        if any(u):
            for k in range(d):
                ek = [A.field.one if m == k else A.field.zero for m in range(d)]
                cubes.append(A.multiply_coords(u, ek))
                cubes.append(A.multiply_coords(ek, u))
    rows = []
    for j in range(d):
        for k in range(d):
            rows.append([A.tensor[i][j][k] for i in range(d)])
            rows.append([A.tensor[j][i][k] for i in range(d)])
    ann = d - Matrix(A.field, rows).rank() if rows else d
    return (d, span(A.field, products, d).dim, ann, span(A.field, cubes, d).dim)


@KERNEL_SETTINGS
@given(skew_algebras())
def test_check_acaa_witness_matches_fraction_reference(A):
    assert check_acaa(A) == reference_check_acaa(A)


@st.composite
def planted_tables(draw):
    """Sparse skew tables with [e_a, e_b] = c e_b planted beside up to two
    random products.  Then [e_a, [e_a, e_b]] = c^2 e_b, so the triple
    (a, b, a) fails, and with it the mirrors (k, j, i), k > i, of the
    triples that fail with i < k: the triples check_acaa does not scan."""
    field = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(2, 5))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    products = {}
    for _ in range(rng.randint(0, 2)):
        i, j = sorted(rng.sample(range(d), 2))
        products[(i, j)] = {rng.randrange(d): scalar(field, rng.choice((-2, -1, 1, 2)), 2)}
    a, b = rng.sample(range(d), 2)
    c = scalar(field, rng.choice((-1, 1)), rng.randint(1, 3))
    products[(min(a, b), max(a, b))] = {b: c if a < b else -c}
    return Algebra.from_products(field, d, products, skew=True)


@KERNEL_SETTINGS
@given(planted_tables())
def test_check_acaa_witness_matches_reference_on_planted_tables(A):
    failing = list(reference_acaa_failures(A))
    assert check_acaa(A) == failing[0]
    skipped = [(i, j, k) for i, j, k in failing if i >= k]
    assert any(i == k for i, _, k in skipped) and any(i > k for i, _, k in skipped)
    # each skipped failure has a failing triple with i < k before it
    for i, j, k in skipped:
        earlier = (k, j, i) if i > k else (min(i, j), i, max(i, j))
        assert earlier < (i, j, k) and earlier in failing


@KERNEL_SETTINGS
@given(skew_algebras().filter(nonabelian_acaa), st.integers(0, 2 ** 32))
def test_check_acaa_witness_matches_reference_on_nonabelian_tables(A, seed):
    # a non-abelian ACAA table, then the same with one product moved
    assert check_acaa(A) is None and reference_check_acaa(A) is None
    rng = random.Random(seed)
    t = [[list(row) for row in plane] for plane in A.tensor]
    i, j = sorted(rng.sample(range(A.dim), 2))
    k = rng.randrange(A.dim)
    x = scalar(A.field, rng.choice((-1, 1)), rng.randint(1, 3))
    t[i][j][k], t[j][i][k] = t[i][j][k] + x, t[j][i][k] - x
    B = Algebra(A.field, A.dim, t, symmetry="skew")
    assert check_acaa(B) == reference_check_acaa(B)


@KERNEL_SETTINGS
@given(st.one_of(skew_algebras(), skew_algebras().filter(nonabelian_acaa)))
def test_fingerprint_matches_fraction_reference(A):
    assert fingerprint(A).as_tuple() == reference_fingerprint(A)


@KERNEL_SETTINGS
@given(plain_algebras())
def test_fingerprint_matches_fraction_reference_without_symmetry(A):
    assert fingerprint(A).as_tuple() == reference_fingerprint(A)


@KERNEL_SETTINGS
@given(plain_algebras(), st.integers(0, 2 ** 32))
def test_multiply_coords_matches_the_integer_route(A, seed):
    # the Element route reads the field tensor, the kernel reads int_table:
    # x y = sum_i x_i (e_i y), lam mu^2 times the field product in integers
    rng = random.Random(seed)
    _, lam, t = A.int_table()
    for density in (0.3, 1.0):
        x, y = ([scalar(A.field, rng.randint(-3, 3), rng.randint(1, 4))
                 if rng.random() < density else A.field.zero for _ in range(A.dim)]
                for _ in range(2))
        mu, (xs, ys) = _int_rows(A.field, (x, y))
        acc = [0] * A.dim
        for i, c in xs:
            _mul_into(acc, t[i], ys, c)
        assert A.multiply_coords(x, y) == _from_ints(A.field, lam * mu * mu)(acc)


def test_kernel_matches_reference_on_catalog_and_non_acaa_examples():
    examples = [e.algebra for e in all_entries()] + [free_acaa(4).algebra, simple_lie_3(),
                                                     seven_dim_table()]
    examples += [commutative_2(), upper_triangular_2x2(), full_matrix_2x2()]
    examples += [Algebra.from_products(F, d, {}, skew=True) for F in FIELDS for d in (0, 1)]
    for A in examples:
        assert fingerprint(A).as_tuple() == reference_fingerprint(A)
        if check_anticommutative(A) is None:
            assert check_acaa(A) == reference_check_acaa(A)
    assert check_acaa(simple_lie_3()) == (0, 0, 1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(skew_algebras(max_dim=4), st.integers(0, 2 ** 32))
def test_fingerprint_invariant_under_random_change_basis(A, seed):
    P = random_invertible_over(A.field, A.dim, random.Random(seed))
    B = change_basis(A, P)
    assert fingerprint(B) == fingerprint(A)
    assert (check_acaa(B) is None) == (check_acaa(A) is None)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(skew_algebras(max_dim=4), plain_algebras()), st.integers(0, 2 ** 32))
def test_change_basis_matches_fraction_reference_on_random_algebras(A, seed):
    P = random_invertible_over(A.field, A.dim, random.Random(seed))
    assert change_basis(A, P) == reference_change_basis(A, P)


def over_field(F, A):
    """An integral table A over Q read over F, with A's symmetry hint."""
    return Algebra(F, A.dim, [[[F.from_int(int(c)) for c in row] for row in plane]
                              for plane in A.tensor], symmetry=A.symmetry)


def test_change_basis_matches_fraction_reference_on_catalog():
    rng = random.Random(77)
    for e in all_entries():
        A = e.algebra
        for _ in range(3):
            for P in (random_invertible(Q, A.dim, rng), random_invertible_over(Q, A.dim, rng)):
                B = change_basis(A, P)
                assert B == reference_change_basis(A, P), e.name
                assert B.tensor == reference_change_basis(A, P).tensor
                # a second change of basis starts from a table with denominators
                P2 = random_invertible_over(Q, A.dim, rng)
                assert change_basis(B, P2) == reference_change_basis(B, P2), e.name
    F5 = PrimeField(5)
    h3 = Algebra.from_products(F5, 3, {(0, 1): {2: 1}}, skew=True)
    for _ in range(10):
        P = random_invertible(F5, 3, rng)
        assert change_basis(h3, P) == reference_change_basis(h3, P)
    # the entries over Q, F_3 and F_5 and dense tables of dimension 7, with
    # and without the skew hint, sparse (n <= d nonzero products) and dense
    # (n up to d^2) sources: the integer table built with the result is the
    # one int_table builds from its Fractions
    examples = [over_field(F, e.algebra) for F in FIELDS for e in all_entries()]
    for F in FIELDS:
        examples.append(Algebra.from_products(
            F, 7, {(i, j): {k: scalar(F, rng.randint(-3, 3), rng.randint(1, 3)) for k in range(7)}
                   for i in range(7) for j in range(i + 1, 7)}, skew=True))
    examples += [Algebra(A.field, A.dim, A.tensor) for A in examples]
    for A in examples:
        P = random_invertible_over(A.field, A.dim, rng)
        B = change_basis(A, P)
        assert B.tensor == reference_change_basis(A, P).tensor and B.symmetry == A.symmetry
        rebuilt = Algebra(B.field, B.dim, B.tensor, symmetry=B.symmetry)
        assert B.int_table() == rebuilt.int_table()


def test_change_basis_rejects_singular_matrix():
    h3 = entry("h3").algebra
    with pytest.raises(ValueError, match="singular"):
        change_basis(h3, Matrix.build(Q, [[1, 2, 0], [2, 4, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="singular"):
        change_basis(Algebra.from_products(PrimeField(3), 2, {}, skew=True),
                     Matrix.build(PrimeField(3), [[1, 2], [2, 1]]))


def rank_deficient_int_matrix(rng, nrows, ncols, rank, zero_cols):
    """An integer nrows x ncols matrix of rank at most `rank`, as a product
    of random factors, with the columns in zero_cols set to 0."""
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    return [[0 if c in zero_cols else sum(left[r][t] * right[t][c] for t in range(rank))
             for c in range(ncols)] for r in range(nrows)]


@pytest.mark.parametrize("field", (Q, PrimeField(5)), ids=("Q", "F5"))
def test_int_rank_matches_matrix_rank(field):
    rng = random.Random(31)
    p = field.characteristic
    seen = set()
    for _ in range(300):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 7)
        rank = rng.randint(0, min(nrows, ncols))
        zero_cols = {c for c in range(ncols) if rng.random() < 0.25}
        rows = rank_deficient_int_matrix(rng, nrows, ncols, rank, zero_cols)
        want = Matrix(field, [[field.from_int(v) for v in row] for row in rows]).rank()
        assert _int_rank(rows, ncols, p) == want
        seen.add(want < min(nrows, ncols))
    assert seen == {True, False}


def test_int_reduce_inverts_over_q_and_fp():
    rng = random.Random(8)
    for field in (Q, PrimeField(5)):
        p = field.characteristic
        for d in range(1, 6):
            P = random_invertible(field, d, rng)
            M = [[v.r if p else int(v) for v in row] for row in P.entries]
            rows, pivots, det = _int_reduce(
                [row + [int(i == j) for j in range(d)] for i, row in enumerate(M)], d, p)
            assert pivots == list(range(d))
            got = [[field.from_int(v) if p else Fraction(v, det) for v in row[d:]]
                   for row in rows]
            assert Matrix(field, got) == P.inverse()


@KERNEL_SETTINGS
@given(st.one_of(skew_algebras(), plain_algebras()))
def test_derived_cube_rows_span_the_fraction_spaces(A):
    d = A.dim
    products = [A.tensor[i][j] for i in range(d) for j in range(d)]
    cubes = [v for u in products if any(u) for k in range(d)
             for v in (A.multiply_coords(u, A.basis(k).coords),
                       A.multiply_coords(A.basis(k).coords, u))]
    derived_rows, cube_rows = derived_cube_rows(A)
    # a basis of A*A, and x e_k, e_k x for each of its rows x
    assert len(derived_rows) == span(A.field, products, d).dim <= d
    assert len(cube_rows) <= 2 * d * len(derived_rows)
    as_field = [[[A.field.from_int(v) for v in row] for row in rows]
                for rows in (derived_rows, cube_rows)]
    assert span(A.field, as_field[0], d) == span(A.field, products, d)
    assert span(A.field, as_field[1], d) == span(A.field, cubes, d)


def test_int_table_is_built_on_first_use_and_scaled():
    A = Algebra.from_products(Q, 3, {(0, 1): {2: Fraction(1, 2)}, (0, 2): {1: Fraction(2, 3)}},
                              skew=True)
    # without the skew hint nothing reads the table at construction; with
    # it, the anticommutativity check at construction is the first use
    plain = Algebra(Q, 3, A.tensor)
    assert plain._int is None and A._int is not None
    assert plain.int_table() == A.int_table()
    p, lam, table = A.int_table()
    assert (p, lam) == (0, 6)
    assert table[0][1] == ((2, 3),) and table[1][0] == ((2, -3),)
    assert table[0][2] == ((1, 4),) and table[1][1] == ()
    assert A.int_table() is A.int_table()
    F5 = PrimeField(5)
    B = Algebra.from_products(F5, 2, {(0, 1): {0: 3}}, skew=True)
    assert B.int_table() == (5, 1, (((), ((0, 3),)), (((0, 2),), ())))


# --- the one triple scan against the Element loops it replaced ----------------
#
# The references below are the former Element-level implementations of
# check_anticommutative, check_quadratic_identity, check_rho_associative and
# check_acaa_admissible, kept here only as test oracles.

def reference_check_anticommutative(A):
    for i in range(A.dim):
        for j in range(A.dim):
            if i == j:
                if any(A.tensor[i][i]):
                    return (i, i)
            elif any(a + b for a, b in zip(A.tensor[i][j], A.tensor[j][i])):
                return (i, j)
    return None


def reference_triple_scan(A, value):
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                if value(A.basis(i), A.basis(j), A.basis(k)):
                    return (i, j, k)
    return None


def reference_check_quadratic_identity(A, coeffs):
    return reference_triple_scan(
        A, lambda x, y, z: quadratic_identity_value(A, coeffs, x, y, z))


def reference_check_rho_associative(B):
    return reference_triple_scan(B, lambda x, y, z: rho(B, x, y, z))


def reference_check_acaa_admissible(B):
    return reference_triple_scan(B, lambda x, y, z: rho(B, x, y, z) - rho(B, y, x, z)
                                 + rho(B, x, z, y) - rho(B, z, x, y))


@st.composite
def quad_coeffs(draw, field):
    """Twelve coefficients, each zero with probability 1/2, fractional over Q."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return QuadIdentityCoeffs.build(field, *(
        [scalar(field, rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.5 else 0
         for _ in range(6)] for _ in range(2)))


@st.composite
def algebras_and_coeffs(draw):
    """An ACAA, non-ACAA or plain table (dimension at most 4) with random
    coefficients over its field, or one of the named identities."""
    A = draw(st.one_of(skew_algebras(max_dim=4), plain_algebras()))
    coeffs = draw(st.one_of(quad_coeffs(A.field), st.sampled_from(
        (jacobi_coeffs, acaa_coeffs, antiassociativity_coeffs)).map(lambda f: f(A.field))))
    return A, coeffs


@KERNEL_SETTINGS
@given(algebras_and_coeffs())
def test_quadratic_identity_witness_matches_element_reference(A_coeffs):
    A, coeffs = A_coeffs
    assert check_quadratic_identity(A, coeffs) == reference_check_quadratic_identity(A, coeffs)


@KERNEL_SETTINGS
@given(st.one_of(skew_algebras(max_dim=4), plain_algebras()))
def test_rho_and_admissibility_witnesses_match_element_reference(B):
    assert check_rho_associative(B) == reference_check_rho_associative(B)
    assert check_acaa_admissible(B) == reference_check_acaa_admissible(B)


@KERNEL_SETTINGS
@given(skew_algebras(), st.integers(0, 2 ** 32))
def test_anticommutative_witness_matches_fraction_reference(A, seed):
    # the table without its skew hint, then with one constant moved off skew
    plain = Algebra(A.field, A.dim, A.tensor)
    assert check_anticommutative(plain) is None
    assert check_acaa(plain) == check_acaa(A) == reference_check_acaa(A)
    rng = random.Random(seed)
    t = [[list(row) for row in plane] for plane in A.tensor]
    i, j, k = (rng.randrange(A.dim) for _ in range(3))
    t[i][j][k] += scalar(A.field, rng.choice((-1, 1)), rng.randint(1, 3))
    B = Algebra(A.field, A.dim, t)
    assert check_anticommutative(B) == reference_check_anticommutative(B)
    with pytest.raises(ValueError, match="not anticommutative"):
        check_acaa(B)


def test_checkers_match_element_references_on_named_algebras():
    examples = [e.algebra for e in all_entries()] + [free_acaa(n).algebra for n in (2, 3)]
    examples += [simple_lie_3(), commutative_2(), upper_triangular_2x2(), full_matrix_2x2()]
    examples += [Algebra.from_products(F, 3, {(0, 1): {2: 1}}, skew=True) for F in FIELDS]
    coeffs = (jacobi_coeffs, acaa_coeffs, antiassociativity_coeffs)
    for A in examples:
        assert check_anticommutative(A) == reference_check_anticommutative(A)
        assert check_rho_associative(A) == reference_check_rho_associative(A)
        assert check_acaa_admissible(A) == reference_check_acaa_admissible(A)
        for make in coeffs:
            assert (check_quadratic_identity(A, make(A.field))
                    == reference_check_quadratic_identity(A, make(A.field)))
    assert check_rho_associative(upper_triangular_2x2()) == (0, 0, 1)
    assert check_acaa_admissible(full_matrix_2x2()) is not None


def test_quadratic_identity_value_over_prime_field():
    # the Element-level route multiplies FpElement coefficients into elements
    F5 = PrimeField(5)
    A = Algebra.from_products(F5, 3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
                              skew=True)
    x, y, z = (A.basis(i) for i in range(3))
    assert quadratic_identity_value(A, jacobi_coeffs(F5), x, y, z).is_zero
    assert quadratic_identity_value(A, acaa_coeffs(F5), x, y, z) == x * (y * z) - y * (z * x)
    assert check_quadratic_identity(A, jacobi_coeffs(F5)) is None
    assert check_quadratic_identity(A, acaa_coeffs(F5)) == (0, 0, 1)


# --- the cube certificate of the triple scan ---------------------------------

def f3_cube_a_multiple_of_three():
    """Over F_3, [e3, e1] = e1 + e2 and [e3, e2] = 2 (e1 + e2).  A*A is
    spanned by e1 + e2 and [e3, e1 + e2] = 3 (e1 + e2), so A^3 = 0 mod 3,
    while the integer cube row of e3 is (3, 3, 0)."""
    return Algebra.from_products(PrimeField(3), 3, {(0, 2): {0: -1, 1: -1},
                                                    (1, 2): {0: -2, 1: -2}}, skew=True)


def presets_and_references(A, rng):
    """The witnesses of every preset (the named identities, a random 12-term
    coefficient vector with no zero among them, rho, admissibility and, on
    an anticommutative table, check_acaa), each asserted equal to the
    Element reference's."""
    coeffs = [make(A.field) for make in (jacobi_coeffs, acaa_coeffs, antiassociativity_coeffs)]
    coeffs.append(QuadIdentityCoeffs.build(A.field, *(
        [scalar(A.field, rng.choice((-2, -1, 1, 2)), rng.randint(1, 4)) for _ in range(6)]
        for _ in range(2))))
    pairs = [(check_quadratic_identity(A, c), reference_check_quadratic_identity(A, c))
             for c in coeffs]
    pairs += [(check_rho_associative(A), reference_check_rho_associative(A)),
              (check_acaa_admissible(A), reference_check_acaa_admissible(A))]
    if reference_check_anticommutative(A) is None:
        pairs.append((check_acaa(A), reference_check_acaa(A)))
    got, want = zip(*pairs)
    assert got == want
    return got


def test_cube_certificate_passes_every_law_when_the_cube_vanishes():
    rng = random.Random(25)
    C = f3_cube_a_multiple_of_three()
    assert [row for row in derived_cube_rows(C)[1] if any(row)] == [[3, 3, 0]]
    # the entries themselves are among the named algebras checked above;
    # here each gets one basis-changed image, the field running through
    # Q, F_3 and F_5 in turn (the Element references are slow on dense
    # tables, above all over Q)
    entries = [e.algebra for e in all_entries() if e.name != "free3"]
    tables = [C, Algebra(C.field, C.dim, C.tensor)]
    tables += [change_basis(over_field(F, A), random_invertible(F, A.dim, rng))
               for A, F in zip(entries, FIELDS * len(entries))]
    assert {B.field for B in tables[2:] if any(map(any, B.int_table()[2]))} == set(FIELDS)
    for A in tables:
        assert reference_fingerprint(A)[3] == 0
        assert set(presets_and_references(A, rng)) == {None}


def test_cube_certificate_runs_after_the_coefficients_are_checked():
    # h3 over F_5 has A^3 = 0, so no triple is scanned, but coefficients
    # from another field are still refused, as on free3 where the scan runs
    F3, F5 = PrimeField(3), PrimeField(5)
    for A in (over_field(F5, entry("h3").algebra), free_acaa(3, F5).algebra):
        with pytest.raises(ValueError, match="value from F_3 used in F_5"):
            check_quadratic_identity(A, jacobi_coeffs(F3))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(skew_algebras(max_dim=4).filter(nonabelian_acaa), st.integers(0, 2 ** 32))
def test_cube_certificate_on_random_acaa_tables(A, seed):
    got = presets_and_references(A, random.Random(seed))
    if reference_fingerprint(A)[3] == 0:
        assert set(got) == {None}


def test_cube_certificate_leaves_the_scan_when_the_cube_is_nonzero():
    rng = random.Random(26)
    F5 = PrimeField(5)
    for A in (free_acaa(3).algebra, free_acaa(3, F5).algebra, simple_lie_3()):
        assert reference_fingerprint(A)[3] > 0
        presets_and_references(A, rng)
    free4 = free_acaa(4, F5).algebra
    assert fingerprint(free4).cube_dim == 4
    for make in (jacobi_coeffs, acaa_coeffs, antiassociativity_coeffs):
        assert (check_quadratic_identity(free4, make(F5))
                == reference_check_quadratic_identity(free4, make(F5)))
    assert check_acaa(free4) == reference_check_acaa(free4) is None


@KERNEL_SETTINGS
@given(planted_tables(), st.integers(0, 2 ** 32))
def test_cube_certificate_leaves_the_scan_on_planted_tables(A, seed):
    # [e_a, [e_a, e_b]] = c^2 e_b, so A^3 != 0, the scan runs, and
    # check_acaa, the last witness, is not None
    assert reference_fingerprint(A)[3] > 0
    assert presets_and_references(A, random.Random(seed))[-1] is not None
