"""Dense exact matrices, reduced echelon forms and canonical subspaces.

Entries are field elements (`Fraction` or `FpElement`).  Elimination has
one routine, ``_int_reduce``, on rows scaled to Python ints (Bareiss over
Q, residues mod p over F_p), so rank, kernel and span computations are
exact.  A subspace is always stored through its reduced row-echelon
basis, which makes subspace equality a syntactic comparison.
"""

from fractions import Fraction
from math import lcm
from operator import attrgetter, itemgetter


def _int_scale(field, values):
    """(lam, to_int) with to_int(x) = lam * x as an int and lam the lcm of
    the denominators of values over Q, read once (zeros may be among them);
    over F_p lam = 1 and to_int(x) is the residue of x."""
    if field.characteristic:
        return 1, attrgetter("r")
    lam = lcm(*map(attrgetter("denominator"), values))
    if lam == 1:
        return 1, attrgetter("numerator")
    return lam, lambda x: x.numerator * (lam // x.denominator)


class _Values(dict):
    """n -> its field value, made by ``make`` on the first lookup of n."""

    __slots__ = ("make",)

    def __missing__(self, n):
        v = self[n] = self.make(n)
        return v


def _from_ints(field, den):
    """The way back from ``_int_scale``: an int vector n -> the field vector
    n / den over Q, and over F_p (den = 1) the residues of n.  Each distinct
    n is converted once per converter and its value shared (values are
    immutable); every n that is 0 (mod p) gives the field's shared zero."""
    p, zero = field.characteristic, field.zero
    values = _Values({0: zero})
    values.make = (lambda n: field.from_int(n) if n % p else zero) if p else (
        lambda n: Fraction(n, den))
    return lambda ints: tuple(map(values.__getitem__, ints))


def _int_rows(field, vectors):
    """(lam, rows): the coordinate vectors scaled to integers together, as
    in ``_int_scale``, each row as its sparse (index, int) pairs; an entry
    is dropped when its int is 0 (over F_p, when it is 0 mod p)."""
    vectors = list(vectors)
    lam, to_int = _int_scale(field, (x for v in vectors for x in v))
    return lam, [tuple(filter(itemgetter(1), enumerate(map(to_int, v)))) for v in vectors]


def _int_reduce(rows, ncols, p):
    """Gauss-Jordan elimination of integer rows: (rows, pivots, det).

    With p > 0 it works mod p and leaves the reduced echelon form (every
    pivot 1, so det = 1).  With p = 0 it is Bareiss's fraction-free elimination (Math. Comp. 22,
    1968) in its Gauss-Jordan form: each step maps every other row to
    (a * row - b * pivot row) // prev, with a the new pivot, b the row's
    entry in the pivot column and prev the previous pivot.  Every entry is
    then a minor of the input, so each division is exact; every pivot row
    ends with det, the last pivot, in its pivot column.  Zero rows are
    dropped; pivots are the pivot columns.
    """
    rows = [row for row in ([v % p for v in r] if p else list(r) for r in rows) if any(row)]
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        if p:
            inv = pow(top[c], -1, p)
            top = rows[r] = [x * inv % p for x in top]
        a = top[c]
        for i, row in enumerate(rows):
            b = row[c]
            if i == r or (p and not b):
                continue
            if p:
                rows[i] = [(x - b * y) % p for x, y in zip(row, top)]
            else:
                rows[i] = [(a * x - b * y) // prev for x, y in zip(row, top)]
        prev = a
        pivots.append(c)
        rows[r + 1:] = [row for row in rows[r + 1:] if any(row)]
    return rows, pivots, prev


def _int_rank(rows, ncols, p):
    """Rank of integer rows over Q (p = 0) or over F_p."""
    return len(_int_reduce(rows, ncols, p)[1])


def _rref(field, rows):
    """Reduced row echelon form of a list of row lists.  Returns (rows, pivots).

    The rows are scaled to integers and reduced by ``_int_reduce``; over Q
    the pivot rows are then divided by det, their common pivot value.  The
    zero rows come back at the bottom.
    """
    p = field.characteristic
    ncols = len(rows[0]) if rows else 0
    to_int = _int_scale(field, (x for row in rows for x in row))[1]
    out, pivots, det = _int_reduce([list(map(to_int, row)) for row in rows], ncols, p)
    vec = _from_ints(field, det)
    out = [list(vec(row)) for row in out]
    return out + [[field.zero] * ncols for _ in range(len(rows) - len(out))], pivots


class Matrix:
    """Immutable dense matrix over one exact field."""

    __slots__ = ("field", "entries", "nrows", "ncols")

    def __init__(self, field, entries):
        entries = tuple(tuple(row) for row in entries)
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise ValueError("ragged rows")
        self.field = field
        self.entries = entries
        self.nrows = len(entries)
        self.ncols = len(entries[0]) if entries else 0

    @classmethod
    def build(cls, field, rows):
        """Construct while coercing ints / literals into field elements."""
        return cls(field, [[field.coerce(v) for v in row] for row in rows])

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def _same_field(self, other):
        if self.field != other.field:
            raise ValueError("matrices over different fields")

    def __add__(self, other):
        self._same_field(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix(self.field, [[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_field(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix(self.field, [[a - b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.field, [[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        self._same_field(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        zero = self.field.zero
        out = []
        for row in self.entries:
            acc = [zero] * other.ncols
            for k, a in enumerate(row):
                if not a:
                    continue
                orow = other.entries[k]
                acc = [s + a * b for s, b in zip(acc, orow)]
            out.append(acc)
        return Matrix(self.field, out)

    def scale(self, scalar):
        scalar = self.field.coerce(scalar)
        return Matrix(self.field, [[scalar * a for a in row] for row in self.entries])

    def apply(self, vec):
        """Matrix-vector product, vec given as a sequence of field elements."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        zero = self.field.zero
        out = []
        for row in self.entries:
            s = zero
            for a, v in zip(row, vec):
                if a and v:
                    s = s + a * v
            out.append(s)
        return tuple(out)

    def transpose(self):
        return Matrix(self.field, list(zip(*self.entries)) if self.entries else [])

    def rank(self) -> int:
        _, pivots = _rref(self.field, self.entries)
        return len(pivots)

    def kernel_vectors(self):
        """A basis of the right kernel (one vector per free column)."""
        rows, pivots = _rref(self.field, self.entries)
        zero, one = self.field.zero, self.field.one
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = [zero] * self.ncols
            v[free] = one
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][free]
            basis.append(tuple(v))
        return basis

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        ident = Matrix.identity(self.field, n)
        aug = [list(r) + list(i) for r, i in zip(self.entries, ident.entries)]
        rows, pivots = _rref(self.field, aug)
        if list(pivots) != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(self.field, [row[n:] for row in rows])

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.entries == self.entries)

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"Matrix({self.field}, [{body}])"


class Subspace:
    """A linear subspace held through its canonical reduced-echelon basis."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field, ambient_dim, basis_rows):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(r) for r in basis_rows)
        if any(len(r) != ambient_dim for r in self.basis):
            raise ValueError("basis vector length differs from ambient dimension")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        return span(self.field, self.basis + (tuple(vec),), self.ambient_dim).dim == self.dim

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.field == self.field
                and other.ambient_dim == self.ambient_dim and other.basis == self.basis)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim} over {self.field})"


def span(field, vectors, ambient_dim) -> Subspace:
    """Linear hull of the given row vectors, in canonical echelon form."""
    vectors = [tuple(v) for v in vectors]
    for v in vectors:
        if len(v) != ambient_dim:
            raise ValueError(f"vector of length {len(v)} in ambient dimension {ambient_dim}")
    if not vectors:
        return Subspace(field, ambient_dim, [])
    rows, pivots = _rref(field, vectors)
    return Subspace(field, ambient_dim, rows[:len(pivots)])


def random_matrix(field, nrows, ncols, rng) -> Matrix:
    """Seeded random matrix with integer entries drawn from -3..3."""
    return Matrix(field, [[field.from_int(rng.randint(-3, 3)) for _ in range(ncols)]
                          for _ in range(nrows)])


def random_invertible(field, n, rng) -> Matrix:
    """Seeded random invertible matrix (resampled until full rank)."""
    while True:
        m = random_matrix(field, n, n, rng)
        if m.rank() == n:
            return m
