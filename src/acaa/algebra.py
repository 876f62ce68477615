"""Structure-constant algebras over exact fields.

An algebra is a tensor c[i][j][k] with e_i * e_j = sum_k c[i][j][k] e_k.
This module holds product evaluation, polarization, the identity checkers
(anticommutativity, the cyclic triple-bracket law, Jacobi, the general
12-term quadratic family, rho-associativity, admissibility) and the
isomorphism-invariant fingerprint, all on the integer view
``Algebra.int_table``; the quadratic laws are presets of one basis-triple
scan, ``check_quadratic_identity`` (``check_acaa`` runs it on the triples
with i < k only).

Checkers return None when the identity holds, otherwise the first
violating tuple of basis indices in lexicographic order.
"""

from collections import namedtuple
from itertools import repeat
from math import gcd
from operator import floordiv, itemgetter, mod

from .linalg import (Matrix, _from_ints, _int_rank, _int_reduce, _int_rows, _int_scale,
                     random_matrix)

# Order of the twelve degree-3 monomials in the general quadratic identity:
# first the left-bracketed products (x_a x_b) x_c, then the right-bracketed
# x_a (x_b x_c), with (a, b, c) running through TRIPLE_PERMS in both blocks.
TRIPLE_PERMS = ((1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2))

# Most cells a dense tensor may hold: dim <= 215 for an algebra; it also
# bounds the time of the h3 pair scan (reps), counted in product cells.
_SIZE_GUARD = 10_000_000


def perm_sign(seq) -> int:
    """Signature of a sequence of distinct comparable items."""
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _mul_into(acc, plane, vec, w=1):
    """acc += w * sum of c * plane[m] over the pairs (m, c) of a sparse
    vector, plane being sparse integer rows; returns acc.  With
    plane = table[i] (see ``Algebra.int_table``) this adds w e_i * vec, with
    plane = [table[m][k] for m] it adds w vec * e_k."""
    for m, c in vec:
        c *= w
        for n, c2 in plane[m]:
            acc[n] += c * c2
    return acc


def _sparse(vec):
    """The (index, value) pairs of the nonzero entries of a dense vector,
    the form ``_mul_into`` reads."""
    return [(k, v) for k, v in enumerate(vec) if v]


class Algebra:
    """A finite-dimensional bilinear product held as structure constants.

    ``symmetry="skew"`` promises an anticommutative tensor; that promise is
    validated at construction time.
    """

    __slots__ = ("field", "dim", "tensor", "labels", "symmetry", "name", "_int")

    def __init__(self, field, dim, tensor, labels=None, symmetry="none", name=None):
        tensor = tuple(tuple(tuple(row) for row in plane) for plane in tensor)
        if len(tensor) != dim or any(len(p) != dim for p in tensor) or any(
                len(r) != dim for p in tensor for r in p):
            raise ValueError("tensor shape does not match dimension")
        if symmetry not in ("none", "skew"):
            raise ValueError(f"unknown symmetry hint {symmetry!r}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("label count does not match dimension")
        self.field = field
        self.dim = dim
        self.tensor = tensor
        self.labels = labels
        self.symmetry = symmetry
        self.name = name
        self._int = None  # built on first use, see int_table
        self._check_skew_hint()

    def _check_skew_hint(self):
        if self.symmetry == "skew":
            w = check_anticommutative(self)
            if w is not None:
                raise ValueError(f"tensor marked skew but fails at basis pair {w}")

    @classmethod
    def _from_int_rows(cls, field, ints, den, symmetry):
        """The algebra with e_a e_b = ints[a][b] / den, ints[a][b] a list of
        d ints (over F_p den = 1 and the ints are read mod p).  Its
        ``int_table`` is built from the ints, scaled as ``int_table`` would
        scale the Fractions: over Q, with g = gcd(den, all ints),
        lam = |den| / g and x / den becomes sign(den) x / g.  The skew hint
        is validated on that table."""
        p = field.characteristic
        if p:
            lam, op, arg = 1, mod, p
        else:
            g = gcd(den, *(n for plane in ints for row in plane for n in row))
            lam, op, arg = abs(den) // g, floordiv, (1 if den > 0 else -1) * g
        vec = _from_ints(field, den)
        A = cls.__new__(cls)
        A.field, A.dim, A.labels, A.symmetry, A.name = field, len(ints), None, symmetry, None
        A.tensor = tuple(tuple(map(vec, plane)) for plane in ints)
        nonzero = itemgetter(1)  # of a (k, c) pair
        A._int = (p, lam, tuple(tuple(tuple(filter(nonzero, enumerate(map(op, row, repeat(arg)))))
                                      for row in plane) for plane in ints))
        A._check_skew_hint()
        return A

    @classmethod
    def from_products(cls, field, dim, products, labels=None, skew=False, name=None):
        """Build from a sparse table {(i, j): {k: value}}.

        With ``skew=True`` only pairs i < j may appear; the flipped products
        and the zero diagonal are filled in automatically.  A dense tensor
        of more than ``_SIZE_GUARD`` cells (dim > 215) is refused.
        """
        if dim ** 3 > _SIZE_GUARD:
            raise ValueError(f"dimension {dim} exceeds the size guard"
                             f" ({dim ** 3} > {_SIZE_GUARD} tensor cells)")
        zero = field.zero
        tensor = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), row in products.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product index ({i}, {j}) out of range")
            if skew and i >= j:
                raise ValueError(f"skew table must only list pairs i < j, got ({i}, {j})")
            for k, v in row.items():
                k = int(k)
                if not 0 <= k < dim:
                    raise ValueError(f"coordinate index {k} out of range")
                c = field.coerce(v)
                tensor[i][j][k] = c
                if skew:
                    tensor[j][i][k] = -c
        return cls(field, dim, tensor, labels=labels,
                   symmetry="skew" if skew else "none", name=name)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i + 1}"

    def product(self, i: int, j: int):
        """Coordinates of e_i * e_j."""
        return self.tensor[i][j]

    def int_table(self):
        """The structure constants as Python ints (built on first use).

        Returns (p, lam, table) with table[i][j] = ((k, c), ...) over the
        nonzero coordinates of e_i * e_j.  Over F_p, p is the characteristic,
        lam = 1 and the c are residues that callers reduce mod p.  Over Q,
        p = 0 and every constant is scaled by lam, the lcm of the
        denominators.  The map x -> lam x is an isomorphism from (A, lam c)
        to (A, c), and every law and span taken from the table is
        homogeneous in c (a double bracket scales by lam^2), so the scaled
        table gives the same verdicts, the same first witnesses and the same
        fingerprint.
        """
        if self._int is None:
            d = self.dim
            lam, rows = _int_rows(self.field, (row for plane in self.tensor for row in plane))
            self._int = (self.field.characteristic, lam,
                         tuple(tuple(rows[i * d:(i + 1) * d]) for i in range(d)))
        return self._int

    def multiply_coords(self, x, y):
        """Coordinates of x * y, in field arithmetic on ``tensor``.  This is
        the Element route; it does not read ``int_table``."""
        acc = [self.field.zero] * self.dim
        for xi, plane in zip(x, self.tensor):
            if not xi:
                continue
            for yj, row in zip(y, plane):
                if not yj:
                    continue
                s = xi * yj
                for k, c in enumerate(row):
                    if c:
                        acc[k] = acc[k] + s * c
        return tuple(acc)

    def basis(self, i: int) -> "Element":
        zero, one = self.field.zero, self.field.one
        return Element(self, tuple(one if k == i else zero for k in range(self.dim)))

    def element(self, coords) -> "Element":
        coords = tuple(self.field.coerce(v) for v in coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate count does not match dimension")
        return Element(self, coords)

    def zero_element(self) -> "Element":
        return Element(self, (self.field.zero,) * self.dim)

    def multiply(self, x: "Element", y: "Element") -> "Element":
        if x.algebra is not self or y.algebra is not self:
            raise ValueError("elements do not belong to this algebra")
        return Element(self, self.multiply_coords(x.coords, y.coords))

    def __eq__(self, other):
        return (isinstance(other, Algebra) and other.field == self.field
                and other.dim == self.dim and other.tensor == self.tensor)

    def __hash__(self):
        return hash((self.field, self.dim))

    def __repr__(self):
        name = self.name or "algebra"
        return f"Algebra({name}, dim {self.dim} over {self.field})"


class Element:
    """A coordinate vector attached to its algebra."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def _same_algebra(self, other):
        if not isinstance(other, Element) or other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        self._same_algebra(other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._same_algebra(other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Element(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar):
        scalar = self.algebra.field.coerce(scalar)
        return Element(self.algebra, tuple(scalar * a for a in self.coords))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        return (isinstance(other, Element) and other.algebra is self.algebra
                and other.coords == self.coords)

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            lbl = self.algebra.label(i)
            terms.append(lbl if c == self.algebra.field.one else f"{c}*{lbl}")
        return " + ".join(terms) if terms else "0"


class QuadIdentityCoeffs(namedtuple("QuadIdentityCoeffs", "a b")):
    """Coefficients (a_1..a_6, b_1..b_6) of the 12-term quadratic identity.

    a_i weight the left-bracketed monomials (x_a x_b) x_c and b_i the
    right-bracketed x_a (x_b x_c), both in TRIPLE_PERMS order.  Entries are
    field elements or ints.
    """

    __slots__ = ()

    def __new__(cls, a, b):
        if len(a) != 6 or len(b) != 6:
            raise ValueError("need exactly six left and six right coefficients")
        return super().__new__(cls, a, b)

    @classmethod
    def build(cls, field, a, b):
        return cls(tuple(field.coerce(v) for v in a), tuple(field.coerce(v) for v in b))


def jacobi_coeffs(field) -> QuadIdentityCoeffs:
    """x1(x2x3) + x2(x3x1) + x3(x1x2) = 0."""
    return QuadIdentityCoeffs.build(field, (0,) * 6, (1, 0, 0, 0, 1, 1))


def acaa_coeffs(field) -> QuadIdentityCoeffs:
    """x1(x2x3) - x2(x3x1) = 0, the cyclic triple-bracket law."""
    return QuadIdentityCoeffs.build(field, (0,) * 6, (1, 0, 0, 0, -1, 0))


def antiassociativity_coeffs(field) -> QuadIdentityCoeffs:
    """(x1x2)x3 + x1(x2x3) = 0."""
    return QuadIdentityCoeffs.build(field, (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))


def quadratic_identity_value(A: Algebra, coeffs: QuadIdentityCoeffs, x, y, z) -> Element:
    """Evaluate the 12-term sum at elements (x, y, z)."""
    xs = (x, y, z)
    total = A.zero_element()
    for idx, (a, b, c) in enumerate(TRIPLE_PERMS):
        ca = coeffs.a[idx]
        if ca:
            total = total + ca * ((xs[a - 1] * xs[b - 1]) * xs[c - 1])
        cb = coeffs.b[idx]
        if cb:
            total = total + cb * (xs[a - 1] * (xs[b - 1] * xs[c - 1]))
    return total


def _nonzero(vec, p):
    """True when the integer vector is nonzero in the field of characteristic
    p (0 for Q)."""
    return any(v % p for v in vec) if p else any(vec)


def _skew_witness(p, planes):
    """None, or the first pair (i, j) where the sparse integer rows
    planes[i][j] and planes[j][i] do not cancel (mod p when p > 0), a
    nonzero planes[i][i] failing at (i, i).  The rows hold no zero entry
    (over F_p residues in [1, p)), so a row vanishes exactly when it is
    empty.  A pair fails in both orders, so only j >= i is scanned; the
    first witness is the same."""
    for i, plane in enumerate(planes):
        if plane[i]:
            return (i, i)
        for j in range(i + 1, len(planes)):
            if plane[j] != tuple((k, -c % p if p else -c) for k, c in planes[j][i]):
                return (i, j)
    return None


def check_anticommutative(A: Algebra):
    """None, or the first basis pair (i, j) violating x*y = -y*x, read from
    ``Algebra.int_table`` (the law is homogeneous in c)."""
    p, _, t = A.int_table()
    return _skew_witness(p, t)


def check_quadratic_identity(A: Algebra, coeffs: QuadIdentityCoeffs):
    """None, or the first basis triple where the 12-term sum is nonzero.

    Multilinearity makes checking on basis triples sufficient.  The sum is
    taken on ``Algebra.int_table`` with the coefficients scaled to integers
    in the same way (it is linear in them and homogeneous of degree 2 in
    c); each nonzero coefficient is one ``_mul_into``.  The other quadratic
    laws are presets of this scan.
    """
    r = range(A.dim)
    return _first_failing_triple(A, coeffs, ((i, j, k) for i in r for j in r for k in r))


def _first_failing_triple(A, coeffs, triples):
    """The basis-triple scan of ``check_quadratic_identity`` and
    ``check_acaa``: None, or the first of ``triples`` where the 12-term sum
    is nonzero.

    When A^3 = 0 no triple is scanned: each of the twelve monomials
    (x_a x_b) x_c and x_a (x_b x_c) lies in (A*A)*A + A*(A*A), which the
    cube rows of ``derived_cube_rows`` span, so if every cube row vanishes
    (mod p over F_p) every monomial does, and the sum is zero on every
    triple whatever the coefficients.  Otherwise the scan runs and gives
    the same first witness."""
    vals = [A.field.coerce(v) for v in coeffs.a + coeffs.b]
    p, _, t = A.int_table()
    if not any(_nonzero(row, p) for row in derived_cube_rows(A)[1]):
        return None
    to_int = _int_scale(A.field, vals)[1]
    d = A.dim
    cols = [[t[m][k] for m in range(d)] for k in range(d)]
    # a term (w, planes, m, a, b) adds w x_m (x_a x_b) through the rows t,
    # or w (x_a x_b) x_m through cols
    terms = [(w, cols, c - 1, a - 1, b - 1) if n < 6 else (w, t, a - 1, b - 1, c - 1)
             for n, ((a, b, c), w) in enumerate(zip(TRIPLE_PERMS * 2, map(to_int, vals))) if w]

    def nonzero(*xs):
        acc = [0] * d
        for w, planes, m, a, b in terms:
            _mul_into(acc, planes[xs[m]], t[xs[a]][xs[b]], w)
        return _nonzero(acc, p)
    return next((x for x in triples if nonzero(*x)), None)


def check_acaa(A: Algebra):
    """None, or the first triple (i, j, k) violating the linearized law
    [e_i, [e_j, e_k]] + [e_k, [e_j, e_i]] = 0.

    Requires an anticommutative algebra (a ``"skew"`` one was checked when
    built) over a field of characteristic different from 2; under those
    hypotheses the linearized law is equivalent to [x, [y, x]] = 0 for all
    elements.  It is x1 (x2 x3) + x3 (x2 x1), the right-bracketed (1, 2, 3)
    and (3, 2, 1) of TRIPLE_PERMS: a = 0, b = (1, 0, 1, 0, 0, 0).  It is
    homogeneous in c, so the scaled ``Algebra.int_table`` gives the same
    verdicts.  An algebra with A^3 = 0, as is every catalog entry but
    free3, passes on its cube rows alone (``_first_failing_triple``).

    Only the triples with i < k are scanned, in lexicographic order, and
    the first witness is that of the scan over all d^3 triples: the first
    failing triple of the full scan has i < k.  The check at (i, j, k) is
    symmetric in i and k, so if (i, j, k) with i > k fails, so does
    (k, j, i), which comes first.  At i = k the check is
    2 [e_i, [e_j, e_i]]: for j = i it vanishes, as [e_i, e_i] = 0, and for
    j != i it is -2 [e_i, [e_i, e_j]], -2 times the check at
    (min(i, j), i, max(i, j)), whose other half holds [e_i, e_i]; in
    characteristic other than 2 the two fail together, and that triple
    comes first.  ``catalog._scan`` writes the oracle's equations on the
    same reduction.
    """
    if A.field.characteristic == 2:
        raise ValueError("the linearized check is not valid in characteristic 2")
    w = None if A.symmetry == "skew" else check_anticommutative(A)
    if w is not None:
        raise ValueError(f"precondition failed: not anticommutative at basis pair {w}")
    d = A.dim
    return _first_failing_triple(A, QuadIdentityCoeffs((0,) * 6, (1, 0, 1, 0, 0, 0)),
                                 ((i, j, k) for i in range(d) for j in range(d)
                                  for k in range(i + 1, d)))


def polarize(A: Algebra):
    """Split the product into its antisymmetric and symmetric parts.

    Returns (minus, plus) with minus[i][j] = c[i][j] - c[j][i] (carrying the
    skew hint) and plus[i][j] = c[i][j] + c[j][i].
    """
    t = A.tensor
    minus = [[[a - b for a, b in zip(t[i][j], t[j][i])] for j in range(A.dim)]
             for i in range(A.dim)]
    plus = [[[a + b for a, b in zip(t[i][j], t[j][i])] for j in range(A.dim)]
            for i in range(A.dim)]
    return (Algebra(A.field, A.dim, minus, labels=A.labels, symmetry="skew"),
            Algebra(A.field, A.dim, plus, labels=A.labels))


def commutator_algebra(B: Algebra) -> Algebra:
    """The bracket [x, y] = x*y - y*x as a new (skew) algebra: the
    antisymmetric part of ``polarize``."""
    minus, _ = polarize(B)
    minus.name = f"[{B.name},.]" if B.name else None
    return minus


def rho(B: Algebra, x: Element, y: Element, z: Element) -> Element:
    """(x*y)*z - z*(x*y)."""
    xy = x * y
    return xy * z - z * xy


def check_rho_associative(B: Algebra):
    """None, or the first basis triple with (e_i e_j) e_k != e_k (e_i e_j).

    rho(x1, x2, x3) = (x1 x2) x3 - x3 (x1 x2) is the left-bracketed monomial
    (1, 2, 3) of TRIPLE_PERMS minus the right-bracketed (3, 1, 2):
    a = (1, 0, 0, 0, 0, 0), b = (0, 0, 0, 0, 0, -1).  It is homogeneous in
    c, so the scaled ``Algebra.int_table`` gives the same verdicts.
    """
    return check_quadratic_identity(B, QuadIdentityCoeffs((1, 0, 0, 0, 0, 0),
                                                          (0, 0, 0, 0, 0, -1)))


def check_acaa_admissible(B: Algebra):
    """None, or the first basis triple violating the admissibility identity

    rho(x,y,z) - rho(y,x,z) + rho(x,z,y) - rho(z,x,y) = 0,

    which holds for all triples exactly when the commutator bracket of B
    satisfies the cyclic triple-bracket law.  With (x, y, z) = (x1, x2, x3)
    the four rho terms contribute the left-bracketed monomials +(1, 2, 3),
    -(2, 1, 3), +(1, 3, 2), -(3, 1, 2) and the right-bracketed -(3, 1, 2),
    +(3, 2, 1), -(2, 1, 3), +(2, 3, 1); in TRIPLE_PERMS order that is
    a = (1, -1, 0, 1, 0, -1), b = (0, -1, 1, 0, 1, -1).  It is homogeneous in
    c, so the scaled ``Algebra.int_table`` gives the same verdicts.
    """
    return check_quadratic_identity(B, QuadIdentityCoeffs((1, -1, 0, 1, 0, -1),
                                                          (0, -1, 1, 0, 1, -1)))


class Fingerprint(namedtuple("Fingerprint", "dim derived_dim ann_dim cube_dim")):
    """Isomorphism invariants: (dim, derived dim, annihilator dim, cube dim)."""

    __slots__ = ()


def derived_cube_rows(A: Algebra):
    """Integer spanning rows of the derived space A*A and of the cube space
    (A*A)*A + A*(A*A), scaled as in ``Algebra.int_table``.  The derived
    rows are the nonzero products e_i e_j reduced by ``_int_reduce`` (mod p
    over F_p), a basis of A*A; the cube rows are x e_k and e_k x for each
    derived row x and every k, which span the cube space by bilinearity.
    For a skew table e_j e_i = -e_i e_j and x e_k = -e_k x, so only the
    products with i < j and the rows e_k x are formed.  So there are
    rank <= d derived rows and at most 2 d rank cube rows.  Returns
    (derived, cubes)."""
    p, _, t = A.int_table()
    d = A.dim
    skew = A.symmetry == "skew"
    products = []
    for i, plane in enumerate(t):
        for u in plane[i + 1:] if skew else plane:
            if u:
                row = [0] * d
                for k, c in u:
                    row[k] = c
                products.append(row)
    derived = _int_reduce(products, d, p)[0]
    # x e_k through the columns of t, e_k x through its rows
    planes = (t,) if skew else ([[t[m][k] for m in range(d)] for k in range(d)], t)
    cubes = [_mul_into([0] * d, plane[k], x)
             for x in map(_sparse, derived) for k in range(d) for plane in planes]
    return derived, cubes


def fingerprint(A: Algebra) -> Fingerprint:
    """The dimensions of A, of A*A, of the annihilator and of the cube
    space, ranked on ``Algebra.int_table`` (mod p over F_p).  x is in the
    annihilator iff x e_j = 0 and e_j x = 0 for every j: the kernel of the
    d^2 rows (c[i][j][k])_i and the d^2 rows (c[j][i][k])_i, of which a
    skew table needs only the first.  Its rank is that of the transpose,
    d rows with row i the flattened c[i][j][k] over (j, k), followed for a
    plain table by the flattened c[j][i][k]."""
    d = A.dim
    p, _, t = A.int_table()
    derived, cubes = derived_cube_rows(A)
    planes = (t,) if A.symmetry == "skew" else (t, tuple(zip(*t)))  # zip(*t)[i][j] = t[j][i]
    width = len(planes) * d * d
    ann_rows = []
    for i in range(d):
        row = [0] * width
        for n, u in enumerate(u for plane in planes for u in plane[i]):
            for k, c in u:
                row[n * d + k] = c
        ann_rows.append(row)
    return Fingerprint(d, len(derived), d - _int_rank(ann_rows, width, p),
                       _int_rank(cubes, d, p))


def direct_sum(A: Algebra, B: Algebra) -> Algebra:
    """Block sum; cross products between the summands vanish."""
    if A.field != B.field:
        raise ValueError("direct sum over different fields")
    d = A.dim + B.dim
    zero = A.field.zero
    left, right, row0 = (zero,) * A.dim, (zero,) * B.dim, (zero,) * d
    tensor = [[row + right for row in plane] + [row0] * B.dim for plane in A.tensor]
    tensor += [[row0] * A.dim + [left + row for row in plane] for plane in B.tensor]
    labels = None
    if A.labels and B.labels:
        labels = A.labels + B.labels
    symmetry = "skew" if A.symmetry == "skew" and B.symmetry == "skew" else "none"
    name = f"{A.name}+{B.name}" if A.name and B.name else None
    return Algebra(A.field, d, tensor, labels=labels, symmetry=symmetry, name=name)


def change_basis(A: Algebra, P: Matrix) -> Algebra:
    """Rewrite the tensor in the basis whose vectors are the columns of P.

    The new constants are P^-1 c(P e_a, P e_b).  In integers: with M = mu P
    and lam c integral (``Algebra.int_table``), U holds the source's n
    nonzero products e_i e_j (i < j if skew) as columns, and fraction-free
    elimination of [M | U] solves for them: det M^-1 U.  As
    (M e_a)(M e_b) is their sum weighted by M[i][a] M[j][b] (skew: the
    minor M[i][a] M[j][b] - M[j][a] M[i][b]), each new product is one
    ``_mul_into`` over the n solved vectors, det * mu * lam times the
    result, which ``Algebra._from_int_rows`` divides out.  For a skew
    source only a < b is formed; the products with a > b are the negatives
    and the diagonal is zero.  The work per new product grows with n, so
    dense sources (n near d^2) would be cheaper with M inverted and applied
    to each new product instead.
    """
    if P.field != A.field or P.shape != (A.dim, A.dim):
        raise ValueError("change of basis matrix has wrong shape or field")
    p, lam, t = A.int_table()
    d = A.dim
    mu, to_int = _int_scale(A.field, (x for row in P.entries for x in row))
    M = [list(map(to_int, row)) for row in P.entries]
    skew = A.symmetry == "skew"
    pairs = [(i, j) for i in range(d) for j in range(i + 1 if skew else 0, d) if t[i][j]]
    U = [[0] * len(pairs) for _ in range(d)]
    for q, (i, j) in enumerate(pairs):
        for k, c in t[i][j]:
            U[k][q] = c
    rows, pivots, det = _int_reduce([row + u for row, u in zip(M, U)], d, p)
    if pivots != list(range(d)):
        raise ValueError("matrix is singular")
    solved = [_sparse(col) for col in zip(*(row[d:] for row in rows))]
    ints = [[[0] * d] * d for _ in range(d)]
    for a in range(d):
        for b in range(a + 1 if skew else 0, d):
            weights = [(q, w) for q, (i, j) in enumerate(pairs)
                       if (w := M[i][a] * M[j][b] - M[j][a] * M[i][b] if skew
                           else M[i][a] * M[j][b])]
            x = ints[a][b] = _mul_into([0] * d, solved, weights)
            if skew:
                ints[b][a] = [-v for v in x]
    return Algebra._from_int_rows(A.field, ints, det * mu * lam, A.symmetry)


def random_element(A: Algebra, rng) -> Element:
    return A.element(random_matrix(A.field, 1, A.dim, rng).entries[0])
