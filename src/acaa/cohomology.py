"""Cochain spaces and differentials for the bracket complex.

C^1 is End(A); C^2 the skew-symmetric bilinear maps; C^3 the trilinear
maps symmetric in their first two arguments.  The differentials are

    d1(f)(u, v)    = f[u, v] - [u, f(v)] - [f(u), v]
    d2(phi)(x,y,z) = phi(x,[y,z]) + [x,phi(y,z)] - phi(y,[z,x]) - [y,phi(z,x)]

and d2 o d1 = 0 whenever the bracket satisfies the cyclic triple-bracket
law.  d3 is the six-term arity-4 map implemented exactly as displayed; no
claim d3 o d2 = 0 is made, callers can inspect the residual.

delta0 maps a to ad a.  This is a default choice of augmentation only:
d1(delta0(a))(u, v) = 3 [a, [u, v]], which does not vanish in general.

Bilinear cochains are tensors phi[i][j] -> coordinate vector, trilinear
ones psi[i][j][k] -> coordinate vector.

The differentials run on the integer kernel.  The structure constants come
from ``Algebra.int_table``, scaled by lam; the cochain is scaled to integers
by ``linalg._int_rows``, with factor mu.  Each output vector is a sum of
``algebra._mul_into`` terms.  The bracket [e_i, v] uses the plane
table[i].  A cochain with a vector in one slot uses the cochain's own sparse
integer rows as the plane.  Each differential is linear in c and linear in
the cochain, so the integer result is exactly lam * mu times the field
result.  It is converted back once per entry: n / (lam mu) over Q, the
residue of n over F_p (where lam = mu = 1), one shared value per distinct
n.  The skew test on C^2 reads the same integer rows, and the cyclic-sum
certificate sums integers, once per rotation orbit of (x, y, z).  d2 is
g - g o rot with g(x,y,z) = phi(x,[y,z]) + [x,phi(y,z)], rot(x,y,z) =
(y,z,x).  On a skew-marked algebra d1(f) and g(x, .) are skew and d2 is
symmetric in (x, y), so half of each is formed and mirrored.
``d2_after_d1`` hands the integers of d1(f) to d2 unconverted.
"""

from collections import namedtuple
from itertools import chain, combinations, combinations_with_replacement, product
from operator import itemgetter, neg, sub

from .algebra import (Algebra, Element, _mul_into, _nonzero, _skew_witness, check_acaa,
                      check_anticommutative, derived_cube_rows)
from .linalg import Matrix, _from_ints, _int_reduce, _int_rows, _int_scale, random_matrix
from .reps import _derivation_defect, ad_matrix


def _int_planes(A: Algebra, phi):
    """(mu, P): the bilinear cochain phi scaled to sparse integer rows by
    ``linalg._int_rows``, P[i][j] the row of phi(e_i, e_j)."""
    mu, rows = _int_rows(A.field, (v for row in phi for v in row))
    d = A.dim
    return mu, [rows[i * d:(i + 1) * d] for i in range(d)]


def is_skew(A: Algebra, phi) -> bool:
    """phi(e_i, e_i) = 0 and phi(e_i, e_j) = -phi(e_j, e_i), tested on the
    integer rows of phi by ``algebra._skew_witness``."""
    return _skew_witness(A.field.characteristic, _int_planes(A, phi)[1]) is None


def is_sym12(A: Algebra, psi) -> bool:
    return all(psi[i][j] == psi[j][i] for i in range(A.dim) for j in range(i + 1, A.dim))


def delta0(A: Algebra, a: Element) -> Matrix:
    """The default augmentation a -> ad a (see the module notes)."""
    return ad_matrix(A, a)


def _d1_ints(A: Algebra, f: Matrix):
    """(p, den, H), H[i][j] the ints of den * d1(f)(e_i, e_j): H_1 of
    ``reps._derivation_defect``.  On a skew-marked A, H_1 is skew, so only
    i < j is formed and H[j][i] is its negation."""
    p, den, h = _derivation_defect(A, f, 1)
    d, r = A.dim, range(A.dim)
    if A.symmetry != "skew":
        return p, den, [[h(i, j) for j in r] for i in r]
    H = [[[0] * d] * d for _ in r]
    for i, j in combinations(r, 2):
        H[i][j] = h(i, j)
        H[j][i] = list(map(neg, H[i][j]))
    return p, den, H


def delta1(A: Algebra, f: Matrix):
    """d1(f) as a skew bilinear tensor, ``_d1_ints`` converted back once
    per entry.  A must be anticommutative."""
    _, den, H = _d1_ints(A, f)
    vec = _from_ints(A.field, den)
    return tuple(tuple(map(vec, row)) for row in H)


def delta2(A: Algebra, phi):
    """d2(phi) as a trilinear tensor, symmetric in the first two slots."""
    mu, P = _int_planes(A, phi)  # P[i] is the plane of phi(e_i, .)
    if _skew_witness(A.field.characteristic, P) is not None:
        raise ValueError("cochain is not skew-symmetric")
    return _delta2_ints(A, P, mu)


def _delta2_ints(A: Algebra, P, mu):
    """d2 of the skew cochain whose sparse integer rows P[i][j] are mu times
    phi(e_i, e_j): each cell is G[i][j][k] - G[j][k][i], with G the integer
    vectors of g(x,y,z) = phi(x,[y,z]) + [x,phi(y,z)].  On a skew-marked A,
    g is skew in (y, z), so only j < k is formed, and the cell is symmetric
    in (i, j), so only i <= j is converted and the mirror shares its tuple.
    """
    _, lam, t = A.int_table()
    d, r = A.dim, range(A.dim)
    vec = _from_ints(A.field, lam * mu)

    def g(i, j, k):
        return _mul_into(_mul_into([0] * d, P[i], t[j][k]), t[i], P[j][k])
    if A.symmetry != "skew":
        G = [[[g(i, j, k) for k in r] for j in r] for i in r]
        return tuple(tuple(tuple(vec(map(sub, G[i][j][k], G[j][k][i])) for k in r)
                           for j in r) for i in r)
    G = [[[[0] * d] * d for _ in r] for _ in r]
    for i, (j, k) in product(r, combinations(r, 2)):
        G[i][j][k] = g(i, j, k)
        G[i][k][j] = list(map(neg, G[i][j][k]))
    out = [[None] * d for _ in r]
    for i, j in combinations_with_replacement(r, 2):
        out[i][j] = out[j][i] = tuple(vec(map(sub, G[i][j][k], G[j][k][i])) for k in r)
    return tuple(map(tuple, out))


def delta3(A: Algebra, psi):
    """The six-term arity-4 map applied to a C^3 cochain.

    omega(x1,x2,x3,x4) = psi(x1,x2,[x3,x4]) + psi(x1,[x3,x4],x2)
                       + psi(x2,[x3,x4],x1) + [x1, psi(x2,x3,x4)]
                       + [x1, psi(x2,x4,x3)] + [x1, psi(x4,x3,x2)]
    """
    if not is_sym12(A, psi):
        raise ValueError("cochain is not symmetric in its first two arguments")
    _, lam, t = A.int_table()
    d, r = A.dim, range(A.dim)
    mu, rows = _int_rows(A.field, (v for plane in psi for row in plane for v in row))
    rows = iter(rows)
    S = [[[next(rows) for _ in r] for _ in r] for _ in r]  # S[i][j] is psi(e_i, e_j, .)
    M = [[[S[i][m][j] for m in r] for j in r] for i in r]  # M[i][j] is psi(e_i, ., e_j)
    vec = _from_ints(A.field, lam * mu)

    def cell(i1, i2, i3, i4):
        acc = [0] * d
        br = t[i3][i4]
        if br:
            _mul_into(acc, S[i1][i2], br)
            _mul_into(acc, M[i1][i2], br)
            _mul_into(acc, M[i2][i1], br)
        for tail in (S[i2][i3][i4], S[i2][i4][i3], S[i4][i3][i2]):
            _mul_into(acc, t[i1], tail)
        return vec(acc)
    return tuple(tuple(tuple(tuple(cell(i1, i2, i3, i4) for i4 in r) for i3 in r)
                       for i2 in r) for i1 in r)


def check_cyclic_sum(A: Algebra, phi):
    """None, or the first triple where the cyclic sum of d2(phi) is nonzero.

    This certifies the code of ``delta2``, not the algebra: d2(phi) =
    g - g o rot with g(x,y,z) = phi(x,[y,z]) + [x,phi(y,z)] and
    rot(x,y,z) = (y,z,x), and the cyclic sum of any g - g o rot vanishes,
    for every bilinear product.  A nonzero sum means ``delta2`` is wrong.
    """
    w = check_anticommutative(A)
    if w is not None:
        raise ValueError(f"precondition failed: not anticommutative at basis pair {w}")
    psi = delta2(A, phi)
    return cyclic_sum_witness(A, psi)


def cyclic_sum_witness(A: Algebra, psi):
    """First triple where psi(x,y,z) + psi(y,z,x) + psi(z,x,y) != 0.

    The sum is taken on integers: psi is scaled by ``linalg._int_scale``
    (to residues over F_p, where the sum is reduced mod p).  It does not
    change when (x, y, z) is rotated, so it is computed once per rotation
    orbit, at the orbit's least triple in lex order.  The first failing
    triple in lex order is such a least triple: its orbit's least triple
    fails too and is not larger.  So the least triples, scanned in lex
    order, give the same first witness as a scan of all triples.

    On psi = d2(phi) the sum is zero for every bilinear product (see
    ``check_cyclic_sum``), so there a witness points at the code of d2.
    """
    p, d = A.field.characteristic, A.dim
    cells = [v for plane in psi for row in plane for v in row]
    to_int = _int_scale(A.field, chain.from_iterable(cells))[1]
    ints = [list(map(to_int, v)) for v in cells]

    def cell(i, j, k):
        return ints[(i * d + j) * d + k]
    for i in range(d):
        for j in range(i, d):
            for k in range(i, d):
                if (j, k, i) < (i, j, k) or (k, i, j) < (i, j, k):
                    continue  # not the least triple of its orbit
                total = map(sum, zip(cell(i, j, k), cell(j, k, i), cell(k, i, j)))
                if _nonzero(total, p):
                    return (i, j, k)
    return None


def d2_after_d1(A: Algebra, f: Matrix):
    """delta2(A, delta1(A, f)), with the ints of ``_d1_ints`` (mod p over
    F_p) handed to the kernel of ``delta2`` as its rows.  They pass the
    skew test of ``delta2`` unless A is skew-marked, where they are skew."""
    p, den, H = _d1_ints(A, f)
    P = [[tuple(filter(itemgetter(1), enumerate([c % p for c in n] if p else n)))
          for n in row] for row in H]
    if A.symmetry != "skew" and _skew_witness(p, P) is not None:
        raise ValueError("cochain is not skew-symmetric")
    return _delta2_ints(A, P, den)


def d3_after_d2(A: Algebra, phi):
    return delta3(A, delta2(A, phi))


def is_zero_tensor(t) -> bool:
    if isinstance(t, tuple):
        return all(is_zero_tensor(x) for x in t)
    return not t


class GradedAlgebra(namedtuple("GradedAlgebra", "algebra degrees")):
    """An algebra with a degree (1, 2 or 3) per basis vector.

    Degrees must be compatible with the product: whenever e_i e_j has a
    nonzero coordinate on e_k, deg(e_k) = deg(e_i) + deg(e_j).  The algebra
    must satisfy the cyclic triple-bracket law.
    """

    __slots__ = ()

    def __new__(cls, algebra, degrees):
        degrees = tuple(degrees)
        if len(degrees) != algebra.dim:
            raise ValueError("need one degree per basis vector")
        if any(d not in (1, 2, 3) for d in degrees):
            raise ValueError("degrees must be 1, 2 or 3")
        w = check_acaa(algebra)
        if w is not None:
            raise ValueError(f"triple-bracket law fails at {w}")
        for i, plane in enumerate(algebra.int_table()[2]):
            for j, row in enumerate(plane):
                for k, _ in row:
                    if degrees[k] != degrees[i] + degrees[j]:
                        raise ValueError(
                            f"product e_{i} e_{j} lands in degree"
                            f" {degrees[k]} != {degrees[i]} + {degrees[j]}")
        return super().__new__(cls, algebra, degrees)


def _unit_vectors(rows, ncols, p):
    """The i with e_i in the span of integer rows.  In Gauss-Jordan form
    every pivot column is zero outside its row, so e_i lies in the span
    exactly when some reduced row is nonzero only in column i."""
    supports = ([k for k, v in enumerate(row) if v] for row in _int_reduce(rows, ncols, p)[0])
    return {s[0] for s in supports if len(s) == 1}


def infer_grading(A: Algebra) -> GradedAlgebra:
    """Read a grading off the filtration by product length.

    Basis vectors outside the span of all products get degree 1, those in
    it but outside the span of length-3 products degree 2, the rest degree
    3.  Fails if the basis does not align with the filtration.
    """
    p = A.field.characteristic
    derived, cube = (_unit_vectors(rows, A.dim, p) for rows in derived_cube_rows(A))
    return GradedAlgebra(A, tuple(3 if i in cube else 2 if i in derived else 1
                                  for i in range(A.dim)))


def g_map(G: GradedAlgebra, x: int) -> Matrix:
    """The endomorphism g_X(e_j) = (-1)^(i+j) i j [X, e_j] for X = e_x of
    degree i and j the degree of e_j.
    """
    A = G.algebra
    if not 0 <= x < A.dim:
        raise ValueError("basis index out of range")
    i = G.degrees[x]
    zero = A.field.zero
    cols = []
    for jdx in range(A.dim):
        j = G.degrees[jdx]
        coef = A.field.from_int((1 if (i + j) % 2 == 0 else -1) * i * j)
        cols.append([coef * c if c else zero for c in A.tensor[x][jdx]])
    return Matrix(A.field, list(zip(*cols)))


def random_endomorphism(A: Algebra, rng) -> Matrix:
    return random_matrix(A.field, A.dim, A.dim, rng)


def random_skew_cochain(A: Algebra, rng):
    zero = A.field.zero
    phi = [[(zero,) * A.dim for _ in range(A.dim)] for _ in range(A.dim)]
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            vec = random_matrix(A.field, 1, A.dim, rng).entries[0]
            phi[i][j] = vec
            phi[j][i] = tuple(-v for v in vec)
    return tuple(tuple(row) for row in phi)
