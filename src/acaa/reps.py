"""Adjoint operators, operator identities and associative representations.

For an algebra satisfying the cyclic triple-bracket law the adjoint maps
anticommute pairwise, square to zero, and obey
2 ad[x, y] = -(ad x ad y - ad y ad x); ad x is a weight-2 anti-derivation.
The three operator laws follow from the law itself, so
``check_ad_identities`` checks the law, its precondition, and its
docstring carries the proof.
A representation sends each element to a square matrix with
rho([x, y]) = -rho(x) rho(y) = rho(y) rho(x).

``h3_faithfulness_search`` exhausts all pairs of 3x3 matrices over F_p
with X^2 = Y^2 = 0 and XY = -YX and confirms that XY = 0 for every such
pair, so no faithful triple of images exists for the 3-dimensional
Heisenberg algebra at that matrix size.  Conjugation maps such pairs to
such pairs, so the scan starts only from one matrix per GL(3, p)-orbit
(``_first_witness`` proves that the first witness is unchanged); the
orbits are walked along the conjugates by the three generators of
``catalog._gl_generators``.  The matrices are rows of byte digits.  The
square-zero ones are listed in closed form as u v^T with v.u = 0
(``_square_zero``), and that form also proves the theorem outright (see
``h3_faithfulness_search``).  The listing, conjugation and the pair
products are F_p-linear maps applied by ``catalog._linear_images``.
In characteristic 3 the law implies the Jacobi identity (the Jacobi sum
is 3 [x,[y,z]]), so at p = 3 every algebra satisfying the law is also a
Lie algebra.
"""

from itertools import product
from math import isqrt

from .algebra import _SIZE_GUARD, Algebra, Element, _mul_into, _nonzero, check_acaa
from .catalog import _gl_generators, _gl_order, _linear_images, _orbits
from .linalg import Matrix, _int_rows


def ad_matrix(A: Algebra, x) -> Matrix:
    """Matrix of y -> [x, y]; column j holds the coordinates of [x, e_j].

    The algebra is expected to be anticommutative.
    """
    if isinstance(x, Element) and x.algebra is not A:
        raise ValueError("element does not belong to the algebra")
    coords = (x if isinstance(x, Element) else A.element(x)).coords
    cols = [A.multiply_coords(coords, A.basis(j).coords) for j in range(A.dim)]
    return Matrix(A.field, list(zip(*cols)))


class Representation:
    """A linear map into End(K^target_dim), given by the basis images."""

    __slots__ = ("algebra", "target_dim", "images")

    def __init__(self, algebra: Algebra, target_dim: int, images):
        images = tuple(images)
        if len(images) != algebra.dim:
            raise ValueError("need one image matrix per basis vector")
        for m in images:
            if m.field != algebra.field:
                raise ValueError("image matrix over a different field")
            if m.shape != (target_dim, target_dim):
                raise ValueError("image matrix is not square of the target size")
        self.algebra = algebra
        self.target_dim = target_dim
        self.images = images

    def __repr__(self):
        return f"Representation({self.algebra!r} -> gl_{self.target_dim})"


def adjoint_representation(A: Algebra) -> Representation:
    return Representation(A, A.dim, [ad_matrix(A, A.basis(i)) for i in range(A.dim)])


def check_ad_identities(A: Algebra):
    """None when the adjoint operator laws (ad x)^2 = 0,
    ad x ad y = -ad y ad x and 2 ad[x, y] = -(ad x ad y - ad y ad x) hold;
    raises ValueError when the triple-bracket law, which implies them,
    fails.

    Proof.  ``check_acaa`` requires anticommutativity, refuses
    characteristic 2 and certifies [x,[y,z]] + [z,[y,x]] = 0 on basis
    triples.  The expression is trilinear, so it holds for all x, y, z,
    and with anticommutativity it reads J: [x,[y,z]] = [z,[x,y]].  Applied
    to z, J gives
      square: [x,[x,z]] = [z,[x,x]] = 0;
      anticommutation: [x,[y,z]] + [y,[x,z]] = [z,[x,y]] + [z,[y,x]] = 0;
      double bracket: 2[[x,y],z] + [x,[y,z]] - [y,[x,z]]
        = -2[z,[x,y]] + [z,[x,y]] + [z,[x,y]] = 0.
    """
    w = check_acaa(A)
    if w is not None:
        raise ValueError(f"precondition failed: triple-bracket law fails at {w}")
    return None


def _derivation_defect(A: Algebra, f: Matrix, w: int):
    """(p, den, h) with h(i, j) the ints den * H_w(e_i, e_j), where

    H_w(u, v) = w f(uv) - u f(v) - f(u) v,

    on ``Algebra.int_table`` (lam) with f scaled to integers (mu) by
    ``linalg._int_rows``.  Each term is linear in c and in f, so the integer
    vector is den = lam * mu times the field one (den = 1 over F_p, where
    callers reduce mod p).  H_1 is d1(f); f is a derivation when it vanishes.
    """
    if f.field != A.field or f.shape != (A.dim, A.dim):
        raise ValueError("endomorphism has wrong shape or field")
    p, lam, t = A.int_table()
    d = A.dim
    mu, images = _int_rows(A.field, zip(*f.entries))  # images[k] = f(e_k)
    cols = [[t[m][k] for m in range(d)] for k in range(d)]

    def h(i, j):
        acc = _mul_into([0] * d, images, t[i][j], w)
        _mul_into(acc, t[i], images[j], -1)
        return _mul_into(acc, cols[j], images[i], -1)
    return p, lam * mu, h


def check_weighted_antiderivation(A: Algebra, f: Matrix, weight: int):
    """None, or the first pair (i, j) violating
    weight * f(e_i e_j) + e_i f(e_j) + f(e_i) e_j = 0.

    The sum is -H_(-weight)(e_i, e_j) of ``_derivation_defect``.
    """
    if weight < 1:
        raise ValueError("weight must be a positive integer")
    p, _, h = _derivation_defect(A, f, -weight)
    r = range(A.dim)
    return next(((i, j) for i in r for j in r if _nonzero(h(i, j), p)), None)


def check_representation(rep: Representation):
    """Verify the representation axiom on all basis pairs.

    Checks rho(e_i)^2 = 0 for every i, then for each pair (i, j) in order
    rho(e_i) rho(e_j) = -rho(e_j) rho(e_i) ("anticommutation") and
    rho([e_i, e_j]) = -rho(e_i) rho(e_j) ("bracket").  The source algebra
    must satisfy the triple-bracket law.

    A law on operators holds when it holds on every e_k.  The images X_m
    are scaled together to integers by ``linalg._int_rows`` (factor mu),
    and column k of X_m is the sparse integer row planes[m][k], so that
    X_i X_j e_k is ``_mul_into(acc, planes[i], planes[j][k])``.  The first
    two laws are homogeneous of degree 2 in the images.  The bracket law is
    not: rho([e_i, e_j]) = sum_m c_ijm X_m is of degree 1 in the images and
    in c.  With c scaled by lam (``Algebra.int_table``), the integer vector
    mu * sum_m (lam c_ijm) (mu X_m) e_k + lam (mu X_i) (mu X_j) e_k is
    lam mu^2 times the field one, so it vanishes (mod p over F_p, where
    lam = mu = 1) exactly when the law holds at e_k.
    """
    A = rep.algebra
    w = check_acaa(A)
    if w is not None:
        raise ValueError(f"precondition failed: triple-bracket law fails at {w}")
    p, lam, t = A.int_table()
    n, r, s = rep.target_dim, range(A.dim), range(rep.target_dim)
    mu, cols = _int_rows(A.field, (col for m in rep.images for col in zip(*m.entries)))
    planes = [cols[m * n:(m + 1) * n] for m in r]
    at = [[planes[m][k] for m in r] for k in s]  # at[k][m] is X_m e_k
    for i in r:
        if any(_nonzero(_mul_into([0] * n, planes[i], planes[i][k]), p) for k in s):
            return ("square", (i,))
    for i in r:
        for j in r:
            ij = [_mul_into([0] * n, planes[i], planes[j][k]) for k in s]
            if any(_nonzero(_mul_into(v[:], planes[j], planes[i][k]), p)
                   for k, v in enumerate(ij)):
                return ("anticommutation", (i, j))
            if any(_nonzero(_mul_into([lam * x for x in v], at[k], t[i][j], mu), p)
                   for k, v in enumerate(ij)):
                return ("bracket", (i, j))
    return None


def _independent(rep: Representation) -> bool:
    """True iff the basis images are linearly independent."""
    rows = [[v for row in m.entries for v in row] for m in rep.images]
    return Matrix(rep.algebra.field, rows).rank() == rep.algebra.dim


def is_faithful(rep: Representation) -> bool:
    """True iff rep is a representation (see ``check_representation``)
    whose basis images are linearly independent; raises otherwise."""
    w = check_representation(rep)
    if w is not None:
        raise ValueError(f"not a representation: {w[0]} fails at {w[1]}")
    return _independent(rep)


def h3_faithfulness_search(p: int, d: int = 3, jobs: int = 1):
    """Exhaust pairs (X, Y) of d x d matrices over F_p with X^2 = Y^2 = 0
    and XY = -YX, verifying XY = 0 for each.

    Returns None when the search is exhausted without a counterexample,
    otherwise the offending pair as integer matrices.  Only d = 3 and
    p in {3, 5} are supported.  The square-zero matrices are listed in
    closed form by ``_square_zero`` (745 of them at p = 5), and the pairs
    are scanned from one matrix per GL(d, p)-conjugation orbit only
    (``_first_witness``): there are 2 orbits, so 2 x 745 pairs at p = 5.
    ``jobs`` has no effect; it is still accepted because the benchmark's
    oracle workload passes ``jobs=1`` (ROADMAP item 5).

    Theorem: h3 has no faithful 3x3 representation over any field of
    characteristic != 2.  Proof.  A 3x3 matrix with X^2 = 0 has rank at
    most 1 (see ``_square_zero``), so X = u v^T with v^T u = 0 and
    Y = a b^T with b^T a = 0, or one of them is 0.  Then XY = (v^T a) u b^T
    and YX = (b^T u) a v^T.  If XY = -YX != 0, both are nonzero and have
    the same image, the line of u and the line of a, so a is a multiple of
    u and v^T a = 0, so XY = 0 after all.  A faithful representation of h3
    ([e_0, e_1] = e_2) would need rho(e_2) = -XY != 0 for X = rho(e_0),
    Y = rho(e_1).  The exhaustive scan at p = 3 and 5 is a second route to
    this theorem over those two fields.
    """
    if d != 3:
        raise ValueError("the search is specific to 3x3 matrices")
    if p not in (3, 5):
        raise ValueError("p must be 3 or 5")

    nilpotents = _square_zero(p, d)
    found = _first_witness(nilpotents, p)
    if found is None:
        return None
    return tuple(tuple(tuple(nilpotents[i][r * d:(r + 1) * d]) for r in range(d))
                 for i in found)


def _square_zero(p, d):
    """Every d x d matrix X over F_p with X^2 = 0, for d <= 3, in code
    order, as digit rows of d^2 bytes (entry (i, k) is digit i d + k, of
    weight p^(i d + k)).

    Proof that the list is complete and without repeats.  X^2 = 0 puts
    Im X inside Ker X, so rank X <= d - rank X, rank X <= d/2 < 2.  So a
    nonzero X has rank 1, X = u v^T with u, v != 0, and the form is unique
    once the first nonzero entry u_j of u is 1 (the columns of X span the
    line of u, and u fixes v).  X^2 = u (v.u) v^T = (v.u) X, so X^2 = 0
    exactly when v.u = 0, that is v_j = -sum_(k != j) u_k v_k: the
    admissible v are v = sum_(k != j) w_k (e_k - u_k e_j) with w != 0.
    For each of the (p^d - 1)/(p - 1) points u, ``catalog._linear_images``
    maps every nonzero w in F_p^(d-1) through the d^2 x (d - 1) matrix of
    w -> u v^T: row (i, k) is u_i times row k of V_u, the d x (d - 1)
    matrix with columns e_m - u_m e_j, m != j.  At d = 4 the rank-2 matrix
    E_02 + E_13 squares to zero, so larger d raise ValueError.
    """
    if d > 3:
        raise ValueError("the rank-1 form covers d <= 3 only; at d = 4,"
                         " E_02 + E_13 squares to zero with rank 2")
    r = range(d)
    nonzero = [bytes(w) for w in product(range(p), repeat=d - 1) if any(w)]
    rows = [bytes(d * d)]
    for j in r:
        for tail in product(range(p), repeat=d - 1 - j):
            u = (0,) * j + (1,) + tail
            V = [[int(k == m) - u[m] * (k == j) for m in r if m != j] for k in r]
            rows += _linear_images([[ui * x for x in V[k]] for ui in u for k in r],
                                   nonzero, p)
    return sorted(rows, key=lambda row: row[::-1])


def _first_witness(mats, p):
    """The first (a, b) in lexicographic order with mats[a] mats[b] != 0 and
    mats[a] mats[b] = -mats[b] mats[a] mod p, for odd p, or None; mats is
    a set of d x d matrices, digit rows in code order, closed under
    conjugation by GL(d, p).

    Only the least member of each conjugation orbit is scanned as a, against
    every b.  Proof.  (g X g^-1)(g Y g^-1) = g XY g^-1, so conjugation by g
    maps witnesses to witnesses, and g^-1 maps them back: X has a witness
    exactly when g X g^-1 does, so having one is constant on an orbit, and
    the least a with a witness is the least member of its orbit.  Its first
    b comes from the scan over all of mats, and b > a: the witnesses are
    symmetric, as XY = -YX != 0 gives YX = -XY != 0, so a witness (a, b)
    with b < a would make b a lesser index with a witness; and a = b is
    never one, as X X = -X X gives 2 X^2 = 0, so X^2 = 0 for odd p.

    The orbits come from ``catalog._orbits``, one walk per orbit along the
    conjugates of mats by the three generators of
    ``catalog._gl_generators``, X -> g X g^-1 by ``_two_sided``; each root
    is the least member of its orbit, and a conjugate outside mats raises
    RuntimeError.
    """
    d = isqrt(len(mats[0]))
    images = [_linear_images(_two_sided(g, ginv), mats, p)
              for g, ginv in _gl_generators(d, p)]
    roots = _orbits(mats, images, _gl_order(d, p))
    least = [a for a, root in enumerate(roots) if a == root]
    found = _first_anticommuting_pair([mats[a] for a in least], mats, p)
    return None if found is None else (least[found[0]], found[1])


def _two_sided(A, B):
    """The matrix of Y -> A Y B on d x d digit rows: entry (b, e) of Y
    moves to entry (a, c) with weight A[a][b] B[e][c]."""
    r = range(len(A))
    return [[A[a][b] * B[e][c] for b in r for e in r] for a in r for c in r]


def _first_anticommuting_pair(rows, cols, p):
    """The first (a, b) in lexicographic order with rows[a] cols[b] != 0 and
    rows[a] cols[b] = -cols[b] rows[a] mod p, or None; the matrices are
    d x d digit rows.

    For each X = rows[a], ``catalog._linear_images`` applies the F_p-linear
    map Y -> XY + YX to every column matrix, and then Y -> XY to those where
    it vanishes.  A scan of more than ``algebra._SIZE_GUARD`` cells
    (len(rows) len(cols) d^2) is refused with ValueError before it starts;
    the guard bounds the scan's time, as only the products of one X are
    held at a time.
    """
    d = isqrt(len(cols[0]))
    cells = len(rows) * len(cols) * d * d
    if cells > _SIZE_GUARD:
        raise ValueError(f"pair scan too large ({cells} > {_SIZE_GUARD} cells)")
    r, zero = range(d), bytes(d * d)
    eye = [[int(i == k) for k in r] for i in r]
    for a, row in enumerate(rows):
        X = [row[i * d:(i + 1) * d] for i in r]
        xy = _two_sided(X, eye)
        anti = [[u + v for u, v in zip(s, t)] for s, t in zip(xy, _two_sided(eye, X))]
        hits = [b for b, y in enumerate(_linear_images(anti, cols, p)) if y == zero]
        for b, y in zip(hits, _linear_images(xy, [cols[b] for b in hits], p)):
            if y != zero:
                return a, b
    return None
