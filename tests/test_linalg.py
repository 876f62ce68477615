import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acaa.fields import PrimeField, Q
from acaa.linalg import (Matrix, _from_ints, _int_rows, _int_scale, _rref, random_invertible,
                         random_matrix, rank_kernel, span, subspace_equal)


def test_identity_rank_kernel():
    rank, kernel = rank_kernel(Matrix.identity(Q, 3))
    assert rank == 3
    assert kernel.dim == 0


def test_zero_matrix_rank_kernel():
    rank, kernel = rank_kernel(Matrix.zero(Q, 2, 4))
    assert rank == 0
    assert kernel.dim == 4


def test_rank_kernel_eliminates_the_matrix_once():
    # the rank comes from rank-nullity, so only the kernel_vectors elimination
    # (and the canonical span of the kernel) runs
    from unittest import mock

    from acaa import linalg
    from acaa.free import free_acaa
    from acaa.reps import ad_matrix

    F = free_acaa(3)
    m = ad_matrix(F.algebra, F.generator(0))
    shapes = []

    def counted(field, rows):
        shapes.append((len(rows), len(rows[0]) if rows else 0))
        return _rref(field, rows)
    with mock.patch.object(linalg, "_rref", counted):
        rank, kernel = rank_kernel(m)
    assert (rank, kernel.dim) == (3, 4)
    assert shapes == [(7, 7), (4, 7)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((Q, PrimeField(3), PrimeField(5))), st.integers(0, 6),
       st.integers(0, 6), st.integers(0, 2 ** 32))
def test_rank_kernel_rank_is_the_pivot_count(field, nrows, ncols, seed):
    rng = random.Random(seed)
    m = Matrix(field, [[field.from_int(rng.choice((0, 0, 1, -2))) for _ in range(ncols)]
                       for _ in range(nrows)])
    rank, kernel = rank_kernel(m)
    assert rank == len(_rref(field, m.entries)[1])
    assert kernel.dim == m.ncols - rank


def test_from_ints_values_and_shared_objects():
    ns = (-7, -5, 0, 3, 5, 6, 13, -7, 5, 0, 3)
    for den in (1, 6):
        vec = _from_ints(Q, den)
        out = vec(ns)
        assert out == tuple(Fraction(n, den) for n in ns)
        assert out[0] is out[7] and out[4] is out[8] and out[3] is out[10]
        assert out[2] is Q.zero and out[9] is Q.zero
        assert vec([13, 0])[0] is out[6]
    for p in (3, 5):
        F = PrimeField(p)
        vec = _from_ints(F, 1)
        ns = (-7, -p, 0, p, 2 * p, p + 1, 3 * p + 2, -1, p + 1, -p, 1)
        out = vec(iter(ns))
        assert out == tuple(F.from_int(n) for n in ns)
        assert [n for n, v in zip(ns, out) if v is F.zero] == [n for n in ns if n % p == 0]
        assert out[5] is out[8] and out[1] is out[9]
        assert vec([-7])[0] is out[0]


def test_int_scale_and_int_rows_contract():
    # lam is the lcm of the denominators and to_int(x) == lam * x as an int,
    # zeros included; over F_p lam = 1 and to_int gives residues.  The
    # inputs are generators, which can be read only once.
    for ns, lam in (((3, 0, -5, 7, 0, -1), 1),
                    ((Fraction(1, 2), 0, Fraction(-2, 3), 4, Fraction(5, 6), -1), 6)):
        xs = [Fraction(n) for n in ns]
        got, to_int = _int_scale(Q, (x for x in xs))
        assert got == lam
        assert all(type(to_int(x)) is int and to_int(x) == lam * x for x in xs)
        vectors = [xs, [Q.zero] * 3, xs[::-1]]
        got, rows = _int_rows(Q, (v for v in vectors))
        assert got == lam
        assert rows == [tuple((k, lam * x) for k, x in enumerate(v) if x) for v in vectors]
    for p in (3, 5):
        F = PrimeField(p)
        vectors = [[F.from_int(n) for n in row]
                   for row in ((0, p, -1, 2), (-p, 0, 2 * p, 0), (4, 3 * p, 1, -2))]
        lam, to_int = _int_scale(F, (x for v in vectors for x in v))
        assert lam == 1
        assert all(to_int(x) == x.r and 0 <= to_int(x) < p for v in vectors for x in v)
        lam, rows = _int_rows(F, (v for v in vectors))
        assert lam == 1
        assert rows == [((2, p - 1), (3, 2)), (), ((0, 4 % p), (2, 1), (3, p - 2))]


def test_span_empty():
    assert span(Q, [], 3).dim == 0


def test_span_redundant_vectors():
    V = span(Q, [(Q.one, Q.zero), (Q.zero, Q.one), (Q.one, Q.one)], 2)
    assert V.dim == 2


def test_span_cyclic_orbit():
    vecs = [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]
    V = span(Q, [[Q.from_int(x) for x in v] for v in vecs], 3)
    assert V.dim == 2


def test_subspace_equal_scaling():
    a = span(Q, [(Q.one, Q.zero)], 2)
    b = span(Q, [(Q.from_int(2), Q.zero)], 2)
    c = span(Q, [(Q.zero, Q.one)], 2)
    assert subspace_equal(a, b)
    assert not subspace_equal(a, c)


def test_subspace_equal_ambient_mismatch():
    a = span(Q, [(Q.one, Q.zero)], 2)
    b = span(Q, [(Q.one, Q.zero, Q.zero)], 3)
    with pytest.raises(ValueError):
        subspace_equal(a, b)


def test_subspace_contains():
    V = span(Q, [[Q.from_int(x) for x in v] for v in ([1, 0, 1], [0, 1, 1])], 3)
    assert V.contains([Q.one, Q.one, Q.from_int(2)])
    assert not V.contains([Q.one, Q.one, Q.one])


@pytest.mark.parametrize("field", [Q, PrimeField(5)])
def test_rank_transpose_and_rank_nullity(field):
    rng = random.Random(42)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(field, nrows, ncols, rng)
        rank, kernel = rank_kernel(m)
        assert rank == m.transpose().rank()
        assert rank + kernel.dim == ncols
        for v in kernel.basis:
            assert not any(m.apply(v))


def test_echelon_canonicalization_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        vecs = [[Q.from_int(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)]
        V = span(Q, vecs, 4)
        again = span(Q, V.basis, 4)
        assert V == again


def test_inverse_round_trip():
    rng = random.Random(3)
    for field in (Q, PrimeField(7)):
        for n in (1, 2, 4):
            p = random_invertible(field, n, rng)
            assert p * p.inverse() == Matrix.identity(field, n)


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        Matrix.zero(Q, 2, 2).inverse()


def test_matrix_mixed_field_rejected():
    a = Matrix.identity(Q, 2)
    b = Matrix.identity(PrimeField(3), 2)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b


def test_matrix_apply():
    m = Matrix.build(Q, [[1, 2], [3, 4]])
    assert m.apply([Q.one, Q.one]) == (Q.from_int(3), Q.from_int(7))


def test_rank_over_f2():
    F2 = PrimeField(2)
    m = Matrix.build(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert m.rank() == 2


# --- _rref on the integer elimination against the Gauss-Jordan it replaced ---

def reference_rref(field, rows):
    """The former field-element Gauss-Jordan _rref, kept here only as a
    test oracle."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


RREF_FIELDS = (Q, PrimeField(3), PrimeField(5), PrimeField(7))


@st.composite
def matrices(draw):
    """Matrices over Q (fractional entries), F_3, F_5 and F_7 with up to 7
    rows and columns, of bounded rank, with some zero columns and rows."""
    field = draw(st.sampled_from(RREF_FIELDS))
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def entry():
        n = rng.randint(-4, 4)
        return Fraction(n, rng.randint(1, 5)) if field == Q else field.from_int(n)

    rank = rng.randint(0, min(nrows, ncols))
    basis = [[entry() for _ in range(ncols)] for _ in range(rank)]
    zero_cols = {c for c in range(ncols) if rng.random() < 0.2}
    rows = []
    for _ in range(nrows):
        row = [field.zero] * ncols
        for b in basis:
            w = entry()
            row = [x + w * y for x, y in zip(row, b)]
        rows.append([field.zero if c in zero_cols else x for c, x in enumerate(row)])
    return Matrix(field, rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_rref_rank_kernel_span_match_fraction_reference(m):
    rows, pivots = reference_rref(m.field, m.entries)
    assert _rref(m.field, m.entries) == (rows, pivots)
    assert m.rref() == (Matrix(m.field, rows), tuple(pivots))
    assert m.rank() == len(pivots)
    kernel = m.kernel_vectors()
    assert len(kernel) == m.ncols - len(pivots)
    assert all(not any(m.apply(v)) for v in kernel)
    if m.nrows:
        assert span(m.field, m.entries, m.ncols).basis == tuple(map(tuple, rows[:len(pivots)]))
    if m.nrows == m.ncols and len(pivots) == m.nrows:
        assert m * m.inverse() == Matrix.identity(m.field, m.nrows)


@pytest.mark.parametrize("field", RREF_FIELDS, ids=str)
def test_rref_edge_cases_match_fraction_reference(field):
    z, o, two = field.zero, field.one, field.from_int(2)
    cases = [
        [],                                    # no rows
        [[], []],                              # rows without columns
        [[z, z, z]],                           # one zero row
        [[z, o, z], [z, two, z]],              # zero columns, rank 1
        [[o, two, z], [two, o + o + o + o, z], [z, z, z]],  # rank deficient
        [[z, o], [o, z], [o, o]],              # more rows than columns
    ]
    for rows in cases:
        want = reference_rref(field, rows)
        assert _rref(field, rows) == want
        assert len(_rref(field, rows)[0]) == len(rows)
