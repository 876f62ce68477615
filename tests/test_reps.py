import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acaa import reps
from acaa.algebra import Algebra, change_basis, check_acaa, random_element
from acaa.catalog import all_entries, entry
from acaa.fields import Q
from acaa.free import free_acaa
from acaa.linalg import Matrix, span
from acaa.reps import (Representation, ad_matrix, adjoint_representation,
                       check_ad_identities, check_representation,
                       check_weighted_antiderivation, h3_faithfulness_search,
                       is_faithful)
from acaa.serialize import representation_from_json, representation_to_json

from conftest import (FIELDS, KERNEL_SETTINGS, nonabelian_acaa, plain_algebras,
                      random_invertible_over, reference_check_ad_identities,
                      reference_check_representation, reference_check_weighted_antiderivation,
                      scalar, simple_lie_3, skew_algebras)


def test_ad_of_central_element_is_zero():
    h3 = entry("h3").algebra
    assert ad_matrix(h3, h3.basis(2)).is_zero()


def test_ad_e1_on_h3():
    h3 = entry("h3").algebra
    m = ad_matrix(h3, h3.basis(0))
    expected = Matrix.build(Q, [[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    assert m == expected


def test_ad_matrix_on_free3_generator():
    F = free_acaa(3)
    m = ad_matrix(F.algebra, F.generator(0))
    nonzero = {(i, j): v for i, row in enumerate(m.entries)
               for j, v in enumerate(row) if v}
    # [X1,X2]=X12, [X1,X3]=X13, [X1,X23]=X123
    assert nonzero == {(3, 1): Q.one, (4, 2): Q.one, (6, 5): Q.one}


def test_ad_matrix_columns_are_brackets():
    F = free_acaa(3)
    A = F.algebra
    rng = random.Random(17)
    for _ in range(10):
        x = random_element(A, rng)
        m = ad_matrix(A, x)
        for j in range(A.dim):
            assert m.apply(A.basis(j).coords) == (x * A.basis(j)).coords


def test_ad_matrix_rank_on_free3():
    F = free_acaa(3)
    m = ad_matrix(F.algebra, F.generator(0))
    assert m.rank() == 3
    assert len(m.kernel_vectors()) == 4


def test_ad_identities_on_catalog():
    for e in all_entries():
        assert check_ad_identities(e.algebra) is None, e.name


def test_ad_identities_precondition():
    with pytest.raises(ValueError):
        check_ad_identities(simple_lie_3())


def test_double_bracket_identity_on_random_elements():
    rng = random.Random(23)
    for e in all_entries():
        A = e.algebra
        two = A.field.from_int(2)
        for _ in range(10):
            x, y = random_element(A, rng), random_element(A, rng)
            adx, ady = ad_matrix(A, x), ad_matrix(A, y)
            ad_br = ad_matrix(A, x * y)
            assert (ad_br.scale(two) + adx * ady - ady * adx).is_zero()
            assert (adx * adx).is_zero()


def test_ad_is_weight2_antiderivation():
    rng = random.Random(29)
    for e in all_entries():
        A = e.algebra
        for _ in range(10):
            x = random_element(A, rng)
            assert check_weighted_antiderivation(A, ad_matrix(A, x), 2) is None


def test_weight2_example_on_free3():
    F = free_acaa(3)
    X1, X2, X3 = (F.generator(i) for i in range(3))
    X123 = F.monomial((0, 1, 2))
    lhs = 2 * (X1 * (X2 * X3))
    rhs = -(X2 * (X1 * X3)) - ((X1 * X2) * X3)
    assert lhs == rhs == 2 * X123


def test_identity_map_is_not_weight1_antiderivation():
    h3 = entry("h3").algebra
    assert check_weighted_antiderivation(h3, Matrix.identity(Q, 3), 1) == (0, 1)


def test_weighted_antiderivation_validation():
    h3 = entry("h3").algebra
    with pytest.raises(ValueError, match="weight"):
        check_weighted_antiderivation(h3, Matrix.identity(Q, 3), 0)
    with pytest.raises(ValueError, match="weight"):
        check_weighted_antiderivation(h3, Matrix.identity(Q, 2), 0)
    with pytest.raises(ValueError, match="shape or field"):
        check_weighted_antiderivation(h3, Matrix.identity(Q, 2), 2)


def test_adjoint_is_representation_on_catalog():
    for e in all_entries():
        rep = adjoint_representation(e.algebra)
        assert check_representation(rep) is None, e.name


def test_adjoint_not_faithful_on_h3_and_free3():
    assert is_faithful(adjoint_representation(entry("h3").algebra)) is False
    assert is_faithful(adjoint_representation(free_acaa(3).algebra)) is False


def test_zero_representation_not_faithful():
    A = entry("abelian3").algebra
    rep = Representation(A, 2, [Matrix.zero(Q, 2, 2)] * 3)
    assert check_representation(rep) is None
    assert is_faithful(rep) is False


def test_rank_one_nilpotent_pair_representation():
    h3 = entry("h3").algebra
    n1 = Matrix.build(Q, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    rep = Representation(h3, 3, [n1, n1, Matrix.zero(Q, 3, 3)])
    assert check_representation(rep) is None
    assert is_faithful(rep) is False


def test_broken_representation_witness():
    h3 = entry("h3").algebra
    diag = Matrix.build(Q, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    rep = Representation(h3, 3, [diag, Matrix.zero(Q, 3, 3), Matrix.zero(Q, 3, 3)])
    assert check_representation(rep) == ("square", (0,))


def test_is_faithful_requires_valid_representation():
    h3 = entry("h3").algebra
    diag = Matrix.build(Q, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    rep = Representation(h3, 3, [diag, Matrix.zero(Q, 3, 3), Matrix.zero(Q, 3, 3)])
    with pytest.raises(ValueError):
        is_faithful(rep)


def test_h3_search_exhausted_mod3():
    assert h3_faithfulness_search(3) is None


def test_h3_search_specific_pair_products_vanish():
    # X = N1 and Y with a single (2,3) entry anticommute with XY = YX = 0
    x = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    y = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
    xy = [[sum(x[i][m] * y[m][j] for m in range(3)) % 3 for j in range(3)]
          for i in range(3)]
    yx = [[sum(y[i][m] * x[m][j] for m in range(3)) % 3 for j in range(3)]
          for i in range(3)]
    assert all(v == 0 for row in xy for v in row)
    assert all(v == 0 for row in yx for v in row)


def test_h3_search_validation():
    with pytest.raises(ValueError):
        h3_faithfulness_search(7)
    with pytest.raises(ValueError):
        h3_faithfulness_search(3, d=4)


def reference_pair(mats, p):
    """The first anticommuting pair with a nonzero product, read off the
    full n x n x d x d product array in int64."""
    import numpy as np

    mats = np.asarray(mats).astype(np.int64)
    products = np.einsum("aij,bjk->abik", mats, mats) % p
    anti = ((products + products.transpose(1, 0, 2, 3)) % p == 0).all(axis=(2, 3))
    bad = anti & (products != 0).any(axis=(2, 3))
    return tuple(int(v) for v in np.argwhere(bad)[0]) if bad.any() else None


def as_rows(mats):
    """d x d integer matrices with entries in [0, p) as digit rows, entry
    (i, k) at byte i d + k."""
    import numpy as np

    mats = np.asarray(mats)
    return [m.astype(np.uint8).tobytes() for m in mats.reshape(len(mats), -1)]


def from_rows(rows, d):
    """Digit rows back to an int64 array of d x d matrices."""
    import numpy as np

    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, d, d).astype(np.int64)


def test_pair_scan_matches_full_product_array():
    import numpy as np

    rng = np.random.default_rng(5)
    for d, p in ((2, 3), (3, 3), (3, 5)):
        found = 0
        for _ in range(40):
            mats = (rng.integers(0, p, size=(10, d, d))
                    * (rng.random((10, d, d)) < 0.3))
            want = reference_pair(mats, p)
            assert reps._first_anticommuting_pair(as_rows(mats), as_rows(mats), p) == want
            found += want is not None
        assert 0 < found < 40

        # a planted pair X Y = -Y X != 0 among zero matrices
        mats = np.zeros((200, d, d), dtype=np.int64)
        mats[70, 0, 1] = mats[70, 1, 0] = 1
        mats[130, 0, 0], mats[130, 1, 1] = 1, p - 1
        assert reference_pair(mats, p) == (70, 130)
        assert reps._first_anticommuting_pair(as_rows(mats), as_rows(mats), p) == (70, 130)


@pytest.mark.parametrize("p", [3, 5])
def test_pair_scan_finds_a_witness_planted_larger_index_first(p):
    # X at index 130 and Y at 70, with XY = -YX != 0, among random matrices
    # with X^2 != 0, for which (a, a) would have XX != 0: the scan must
    # report (70, 130), not (130, 70)
    import numpy as np

    rng = np.random.default_rng(17 + p)

    def redraw(idx):
        for i in idx:
            while not (mats[i] @ mats[i] % p).any():
                mats[i] = rng.integers(0, p, size=(3, 3))

    mats = np.zeros((200, 3, 3), dtype=np.int64)
    mats[130, 0, 1] = mats[130, 1, 0] = 1
    mats[70, 0, 0], mats[70, 1, 1] = 1, p - 1
    redraw([i for i in range(200) if i not in (70, 130)])
    # random witnesses among the others are drawn again
    while (found := reference_pair(mats, p)) != (70, 130):
        i = next(i for i in found if i not in (70, 130))
        mats[i] = 0
        redraw([i])
    assert (np.einsum("nij,njk->nik", mats, mats) % p).any(axis=(1, 2)).all()
    assert reps._first_anticommuting_pair(as_rows(mats), as_rows(mats), p) == (70, 130)


@pytest.mark.parametrize("d,p", [(3, 5), (2, 7)])
def test_pair_scan_lanes_hold_dense_sums(d, p):
    # a dense anticommuting pair, the planted pair conjugated by a matrix P,
    # at the largest p whose lanes d^2 (p - 1)^2 stay below 256 (144 and 144)
    import numpy as np

    from acaa.fields import PrimeField
    from acaa.linalg import Matrix

    P = np.array({3: [[1, 2, 3], [4, 5, 6], [7, 8, 10]], 2: [[2, 3], [5, 6]]}[d])
    Pinv = np.array([[v.r for v in row]
                     for row in Matrix.build(PrimeField(p), P.tolist()).inverse().entries])
    assert ((P @ Pinv) % p == np.eye(d, dtype=int)).all()
    X0, Y0 = np.zeros((d, d), dtype=int), np.zeros((d, d), dtype=int)
    X0[0, 1] = X0[1, 0] = 1
    Y0[0, 0], Y0[1, 1] = 1, p - 1
    mats = np.zeros((10, d, d), dtype=np.int64)
    mats[3], mats[7] = P @ X0 @ Pinv % p, P @ Y0 @ Pinv % p
    assert (mats[3] != 0).sum() + (mats[7] != 0).sum() >= d * d
    assert reference_pair(mats, p) == (3, 7)
    assert reps._first_anticommuting_pair(as_rows(mats), as_rows(mats), p) == (3, 7)


def test_pair_scan_refuses_lanes_of_256_or_more():
    # 9 (p - 1)^2 = 324 at p = 7 and 900 at p = 11 would carry between lanes
    for p in (7, 11):
        with pytest.raises(ValueError, match="overflow the 8-bit lanes"):
            reps._first_anticommuting_pair([bytes(9)], [bytes(9)], p)


@pytest.mark.parametrize("p", [3, 5])
def test_staged_pair_scan_when_entry_00_vanishes_for_every_pair(p):
    # first row and first column zero: entry (0, 0) of XY + YX is 0 for all
    # pairs
    import numpy as np

    rng = np.random.default_rng(p)
    found = 0
    for _ in range(20):
        n = int(rng.integers(2, 30))
        mats = rng.integers(0, p, size=(n, 3, 3)) * (rng.random((n, 3, 3)) < 0.4)
        mats[:, 0, :] = mats[:, :, 0] = 0
        s = np.einsum("aij,bjk->abik", mats, mats)
        assert ((s + s.transpose(1, 0, 2, 3))[:, :, 0, 0] % p == 0).all()
        want = reference_pair(mats, p)
        assert reps._first_anticommuting_pair(as_rows(mats), as_rows(mats), p) == want
        found += want is not None
    assert 0 < found < 20


@pytest.mark.parametrize("d,p", [(2, 3), (3, 5)])
def test_staged_pair_scan_finds_a_pair_planted_after_the_first_row_block(d, p):
    import numpy as np

    n = 356
    mats = np.zeros((n, d, d), dtype=np.int64)
    a, b = 266, 306
    mats[a, 0, 1] = mats[a, 1, 0] = 1
    mats[b, 0, 0], mats[b, 1, 1] = 1, p - 1
    assert reference_pair(mats, p) == (a, b)
    assert reps._first_anticommuting_pair(as_rows(mats), as_rows(mats), p) == (a, b)
    # a second witness earlier wins
    mats[261] = mats[a]
    assert reps._first_anticommuting_pair(as_rows(mats), as_rows(mats), p) == (261, b)


def all_matrices(p, d):
    """Every d x d matrix over F_p, in code order, as int8."""
    import numpy as np

    codes = np.arange(p ** (d * d))
    return np.stack([codes // p ** q % p for q in range(d * d)], 1).reshape(-1, d, d).astype(np.int8)


def nilpotent_3x3_mod3():
    """The 3x3 matrices over F_3 with X^3 = 0, in code order."""
    import numpy as np

    M = all_matrices(3, 3).astype(np.int64)
    return M[(M @ M @ M % 3 == 0).all(axis=(1, 2))].astype(np.int8)


@pytest.mark.parametrize("p,d,want", [(3, 2, (3, 29)), (5, 2, (5, 129)), (3, 3, (10, 11))])
def test_first_witness_matches_brute_force_on_conjugation_closed_sets(p, d, want):
    # all of M_2(F_p), and the 729 nilpotent 3x3 matrices over F_3: sets
    # closed under conjugation that do hold witnesses, scanned from one
    # matrix per orbit
    mats = all_matrices(p, d) if d == 2 else nilpotent_3x3_mod3()
    assert len(mats) == {2: p ** 4, 3: 729}[d]
    assert reference_pair(mats, p) == want
    assert reps._first_witness(as_rows(mats), p) == want


def test_h3_search_returns_a_witness_as_integer_matrices(monkeypatch):
    # fed the nilpotent matrices, which do hold witnesses, the search
    # returns the first one as nested tuples of ints
    rows = as_rows(nilpotent_3x3_mod3())
    monkeypatch.setattr(reps, "_square_zero", lambda p, d: rows)
    X, Y = h3_faithfulness_search(3)
    want = from_rows([rows[10], rows[11]], 3)
    assert (X, Y) == tuple(tuple(map(tuple, m.tolist())) for m in want)
    assert all(type(v) is int for m in (X, Y) for row in m for v in row)


@pytest.mark.parametrize("p,sizes,order", [(3, [1, 104], 11232), (5, [1, 744], 1488000)])
def test_square_zero_conjugation_orbits(p, sizes, order):
    # the conjugates by the generators formed in int64 matrix products
    from collections import Counter

    import numpy as np

    from acaa.catalog import _gl_generators, _gl_order, _orbits

    S = reps._square_zero(p, 3)
    M = from_rows(S, 3)
    images = [as_rows(np.array(g) @ M @ np.array(ginv) % p)
              for g, ginv in _gl_generators(3, p)]
    roots = _orbits(S, images, _gl_order(3, p))
    got = sorted(Counter(roots).values())
    assert got == sizes and sum(got) == len(S) and _gl_order(3, p) == order
    assert all(order % s == 0 for s in got)


@pytest.mark.parametrize("p", [3, 5])
def test_first_witness_rejects_a_set_not_closed_under_conjugation(p):
    S = reps._square_zero(p, 3)
    with pytest.raises(RuntimeError, match="orbit left the filtered set"):
        reps._first_witness(S[:1] + S[2:], p)


def test_pair_scan_refuses_more_cells_than_the_size_guard(monkeypatch):
    from acaa.algebra import _SIZE_GUARD

    # 1,112 x 1,000 x 9 cells exceed the guard of 10^7; the inputs repeat
    # one row, so only the scan itself would take time
    rows, cols = [bytes(9)] * 1112, [bytes(9)] * 1000
    assert len(rows) * len(cols) * 9 > _SIZE_GUARD
    with pytest.raises(ValueError, match="pair scan too large"):
        reps._first_anticommuting_pair(rows, cols, 5)
    # the bound is inclusive: 10 x 10 x 9 cells pass at a guard of 900
    monkeypatch.setattr(reps, "_SIZE_GUARD", 900)
    small = [bytes(9)] * 10
    assert reps._first_anticommuting_pair(small, small, 5) is None
    with pytest.raises(ValueError, match="pair scan too large"):
        reps._first_anticommuting_pair(small, [bytes(9)] * 11, 5)


def reference_square_zero(p, d):
    """Every d x d matrix with X^2 = 0, in code order: int64 divmod digits
    of all p^(d d) codes, a block at a time, tested entry by entry."""
    import numpy as np

    total, block, kept = p ** (d * d), 1 << 17, []
    for lo in range(0, total, block):
        c = np.arange(lo, min(lo + block, total), dtype=np.int64)
        digits = np.empty((d * d, len(c)), dtype=np.int64)
        for q in range(d * d):
            c, digits[q] = np.divmod(c, p)
        M = digits.T.reshape(-1, d, d)
        kept.append(M[(np.einsum("nij,njk->nik", M, M) % p == 0).all(axis=(1, 2))])
    return np.concatenate(kept)


@pytest.mark.parametrize("p", [3, 5])
def test_grid_square_zero_equals_the_chunked_filter(p):
    import numpy as np

    got = reps._square_zero(p, 3)
    assert all(type(row) is bytes and len(row) == 9 for row in got)
    assert np.array_equal(from_rows(got, 3), reference_square_zero(p, 3))


@pytest.mark.parametrize("p", [3, 5])
def test_square_zero_count_matches_closed_form(p):
    import numpy as np

    # X^2 = 0 on F_p^3 forces rank X <= 1, so X = 0 or X = u v^T with
    # v.u = 0: p^3 - 1 choices of u, p^2 - 1 of v, and p - 1 pairs (u, v)
    # give the same matrix
    nilpotents = reps._square_zero(p, 3)
    assert len(nilpotents) == 1 + (p ** 3 - 1) * (p + 1) == {3: 105, 5: 745}[p]
    codes = from_rows(nilpotents, 3).reshape(len(nilpotents), 9) @ (p ** np.arange(9))
    assert (np.diff(codes) > 0).all()


def test_square_zero_lists_through_two_digit_lanes(monkeypatch):
    # one _linear_images call per point u of the projective plane, each
    # mapping the p^2 - 1 nonzero w in F_p^2: n = 2 digits, so every lane
    # sum is at most 2 (p - 1)^2 = 32 < 256 at p = 5
    seen = []

    def recording(matrix, rows, p):
        seen.append((matrix, rows, p))
        return images(matrix, rows, p)

    images = reps._linear_images
    monkeypatch.setattr(reps, "_linear_images", recording)
    for p, calls in ((3, 13), (5, 31)):
        seen.clear()
        reps._square_zero(p, 3)
        assert len(seen) == calls == (p ** 3 - 1) // (p - 1)
        for matrix, rows, q in seen:
            n = len(matrix[0])
            assert q == p and len(matrix) == 9 and n == 2
            assert n * (p - 1) ** 2 < 256
            assert sorted(rows) == [bytes(w) for w in itertools.product(range(p), repeat=2)
                                    if any(w)]


def brute_square_zero(p, d):
    """Every d x d matrix with X^2 = 0 mod p, in code order, by testing
    all p^(d d) digit rows."""
    r, kept = range(d), []
    for code in range(p ** (d * d)):
        row = bytes(code // p ** q % p for q in range(d * d))
        if all(sum(row[i * d + m] * row[m * d + k] for m in r) % p == 0
               for i in r for k in r):
            kept.append(row)
    return kept


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("d", [1, 2])
def test_small_square_zero_equals_the_brute_force_listing(d, p):
    assert reps._square_zero(p, d) == brute_square_zero(p, d)


def test_square_zero_refuses_size_4():
    # E_02 + E_13 squares to zero with rank 2, outside the u v^T form
    with pytest.raises(ValueError, match="d <= 3"):
        reps._square_zero(3, 4)


def test_h3_search_jobs_deterministic():
    assert h3_faithfulness_search(3, jobs=2) is None


def test_representation_json_round_trip():
    h3 = entry("h3").algebra
    rep = adjoint_representation(h3)
    data = representation_to_json(rep, "h3")
    again = representation_from_json(data, h3)
    assert check_representation(again) is None


def test_representation_shape_validation():
    h3 = entry("h3").algebra
    with pytest.raises(ValueError):
        Representation(h3, 3, [Matrix.zero(Q, 3, 3)] * 2)
    with pytest.raises(ValueError):
        Representation(h3, 3, [Matrix.zero(Q, 2, 3)] * 3)


# --- the adjoint laws follow from the triple-bracket law ---------------------

def assert_ad_identities_follow_acaa(A):
    """check_ad_identities returns None exactly when check_acaa does, and
    otherwise raises with its witness; the independent Matrix route finds
    an operator law failing exactly when the law fails.  Returns the
    reference's witness."""
    w = check_acaa(A)
    ref = reference_check_ad_identities(A)
    assert (ref is None) == (w is None)
    if w is None:
        assert check_ad_identities(A) is None
    else:
        with pytest.raises(ValueError, match=re.escape(
                f"precondition failed: triple-bracket law fails at {w}")):
            check_ad_identities(A)
    return ref


@KERNEL_SETTINGS
@given(skew_algebras())
def test_ad_identities_hold_exactly_when_acaa_holds(A):
    assert_ad_identities_follow_acaa(A)


@KERNEL_SETTINGS
@given(skew_algebras().filter(nonabelian_acaa))
def test_ad_identities_hold_on_nonabelian_acaa_tables(A):
    assert assert_ad_identities_follow_acaa(A) is None


def test_ad_identities_follow_acaa_on_sparse_tables():
    # sparse skew tables with two or three products mostly square to zero,
    # so the reference also reaches the anticommutation and double-bracket
    # laws; in T = ([e1, e2] = e3, [e3, e4] = e5), 2 ad e3 + [ad e1, ad e2]
    # sends e4 to 2 e5
    rng = random.Random(41)
    T = Algebra.from_products(Q, 5, {(0, 1): {2: 1}, (2, 3): {4: 1}}, skew=True)
    examples = [e.algebra for e in all_entries()] + [free_acaa(3).algebra, simple_lie_3(), T]
    for _ in range(300):
        F = rng.choice(FIELDS)
        pairs = rng.sample([(i, j) for i in range(5) for j in range(i + 1, 5)], rng.randint(2, 3))
        examples.append(Algebra.from_products(
            F, 5, {pair: {rng.randrange(5): rng.randint(1, 2)} for pair in pairs}, skew=True))
    laws = {w and w[0] for w in map(assert_ad_identities_follow_acaa, examples)}
    assert laws == {None, "square", "anticommutation", "double-bracket"}
    assert reference_check_ad_identities(simple_lie_3()) == ("square", (0,))
    assert reference_check_ad_identities(T) == ("double-bracket", (0, 1))


def test_ad_matrix_over_prime_fields():
    for F in FIELDS:
        A = Algebra.from_products(F, 3, {(0, 1): {2: 1}}, skew=True)
        m = ad_matrix(A, [F.from_int(2), F.one, F.zero])
        assert m == Matrix.build(F, [[0, 0, 0], [0, 0, 0], [-1, 2, 0]])


# --- the antiderivation scan against the field-element reference ------------

def random_map(A, rng, kind):
    """An endomorphism with fractional entries over Q: dense, sparse, ad x,
    or ad x with one entry moved (which moves the first witness)."""
    F, d = A.field, A.dim

    def entry_():
        return scalar(F, rng.randint(-3, 3), rng.randint(1, 4))
    if kind in ("dense", "sparse"):
        keep = 1.0 if kind == "dense" else 0.2
        return Matrix(F, [[entry_() if rng.random() < keep else F.zero for _ in range(d)]
                          for _ in range(d)])
    m = [list(row) for row in ad_matrix(A, [entry_() for _ in range(d)]).entries]
    if kind == "ad-moved":
        i, j = rng.randrange(d), rng.randrange(d)
        m[i][j] += scalar(F, rng.choice((-1, 1)), rng.randint(1, 3))
    return Matrix(F, m)


@KERNEL_SETTINGS
@given(st.one_of(skew_algebras(), plain_algebras()), st.integers(0, 2 ** 32),
       st.sampled_from(("dense", "sparse", "ad", "ad-moved")))
def test_weighted_antiderivation_witness_matches_field_reference(A, seed, kind):
    f = random_map(A, random.Random(seed), kind)
    for weight in (1, 2, 3):
        assert check_weighted_antiderivation(A, f, weight) \
            == reference_check_weighted_antiderivation(A, f, weight)


def test_weighted_antiderivation_witness_order_on_sparse_tables():
    # ad x is a weight-2 antiderivation on an ACAA; a moved entry makes it
    # fail at a pair that depends on where the entry sits
    rng = random.Random(43)
    witnesses = set()
    for _ in range(200):
        F = rng.choice(FIELDS)
        pairs = rng.sample([(i, j) for i in range(5) for j in range(i + 1, 5)], rng.randint(2, 4))
        A = Algebra.from_products(
            F, 5, {pair: {rng.randrange(5): rng.randint(1, 2)} for pair in pairs}, skew=True)
        f = random_map(A, rng, rng.choice(("ad", "ad-moved", "sparse")))
        for weight in (1, 2):
            w = check_weighted_antiderivation(A, f, weight)
            assert w == reference_check_weighted_antiderivation(A, f, weight)
            witnesses.add(w)
    assert None in witnesses and len(witnesses) > 10


# --- the representation scan against the Matrix-product reference -----------

REP_KINDS = ("adjoint", "scaled", "nilpotent", "elementary", "moved-adjoint",
             "moved-scaled", "moved-nilpotent")


def square_zero_matrix(F, n, rng):
    """A random u v^T with v . u = 0, so that it squares to zero."""
    u, v = ([scalar(F, rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(2))
    q = next((q for q, x in enumerate(u) if x), None)
    if q is not None:
        v[q] = v[q] - sum((a * b for a, b in zip(u, v)), F.zero) / u[q]
    return Matrix(F, [[a * b for b in v] for a in u])


def random_representation(A, rng, kind):
    """Images for an ACAA A, fractional over Q: the adjoint; the adjoint
    with each image scaled by a nonzero scalar (only the bracket law can
    fail); s_m N for one square-zero N, a representation when s vanishes on
    the derived algebra, as it does half of the time; multiples of
    off-diagonal matrix units (squares vanish, anticommutation mostly
    fails); or one of the first three with one entry of one image moved."""
    F, d = A.field, A.dim

    def entry_():
        return scalar(F, rng.randint(-3, 3), rng.randint(1, 4))
    base = kind.removeprefix("moved-")
    if base == "elementary":
        n = rng.randint(2, 4)
        imgs = []
        for _ in range(d):
            r, c = rng.sample(range(n), 2)
            imgs.append(Matrix(F, [[entry_() if (a, b) == (r, c) else F.zero for b in range(n)]
                                   for a in range(n)]))
    elif base == "nilpotent":
        n = rng.randint(1, 4)
        N = square_zero_matrix(F, n, rng)
        kernel = Matrix(F, [A.product(i, j) for i in range(d) for j in range(d)]).kernel_vectors()
        if kernel and rng.random() < 0.5:
            s = [sum((entry_() * v[m] for v in kernel), F.zero) for m in range(d)]
        else:
            s = [entry_() for _ in range(d)]
        imgs = [N.scale(c) for c in s]
    else:
        n, imgs = d, list(adjoint_representation(A).images)
        if base == "scaled":
            imgs = [m.scale(scalar(F, rng.choice((-2, -1, 2)), rng.randint(1, 3)))
                    for m in imgs]
    if kind.startswith("moved-"):
        a, r, c = rng.randrange(d), rng.randrange(n), rng.randrange(n)
        m = [list(row) for row in imgs[a].entries]
        m[r][c] += scalar(F, rng.choice((-1, 1)), rng.randint(1, 3))
        imgs[a] = Matrix(F, m)
    return Representation(A, n, imgs)


def assert_matches_matrix_reference(rep):
    w = check_representation(rep)
    assert w == reference_check_representation(rep)
    if w is None:
        flat = [[v for row in m.entries for v in row] for m in rep.images]
        n = rep.target_dim
        assert is_faithful(rep) == (span(rep.algebra.field, flat, n * n).dim == rep.algebra.dim)
    else:
        with pytest.raises(ValueError, match="not a representation"):
            is_faithful(rep)
    return w


@KERNEL_SETTINGS
@given(skew_algebras().filter(nonabelian_acaa), st.integers(0, 2 ** 32),
       st.sampled_from(REP_KINDS))
def test_representation_witness_matches_matrix_reference(A, seed, kind):
    assert_matches_matrix_reference(random_representation(A, random.Random(seed), kind))


def test_representation_witness_order_on_sparse_tables():
    # sparse 2-step tables, the catalog and free3 under every kind of image:
    # each law is the first witness somewhere.  free3 is not 2-step, so its
    # adjoint has X_i X_j != 0; in a fractional basis the bracket law there
    # holds only if the table scale lam is carried
    rng = random.Random(47)
    free3 = free_acaa(3).algebra
    examples = [e.algebra for e in all_entries()]
    examples += [free3, change_basis(free3, random_invertible_over(Q, 7, rng))]
    for _ in range(30):
        F = rng.choice(FIELDS)
        pairs = rng.sample([(i, j) for i in range(3) for j in range(i + 1, 3)], rng.randint(1, 3))
        examples.append(Algebra.from_products(
            F, 5, {pair: {rng.randrange(3, 5): rng.randint(1, 2)} for pair in pairs}, skew=True))
    laws = set()
    for A in examples:
        for kind in REP_KINDS:
            w = assert_matches_matrix_reference(random_representation(A, rng, kind))
            laws.add(w and w[0])
    assert laws == {None, "square", "anticommutation", "bracket"}
