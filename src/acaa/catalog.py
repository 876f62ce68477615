"""Named small algebras, fingerprint recognition, and the mod-p oracle.

The classification lists cover dimensions 2..5, where every algebra
satisfying the cyclic triple-bracket law is one of the catalog entries up
to isomorphism.  ``enumerate_finite`` re-derives the dimension-2 and -3
statements over F_3 and F_5 exhaustively: it finds every anticommutative
tensor that satisfies the linearized law, and counts GL(n, p)-orbits on
the survivors by closing them under three generating matrices
(``_gl_generators``, by one walk along the images in ``_orbits``); no
group table is built.  ``_scan`` writes the law as quadratic equations
in the tensor's base-p digits, and ``_staged_filter`` solves them digit
by digit, least significant first: each partial tensor is dropped as
soon as an equation whose digits are all set fails; at dimension 3 and
p = 5 at most 1,125 partial tensors are alive, not 5^9 codes.  The
points are bytes, one digit per 8-bit lane, and every F_p-linear map on
them (the tensor action, and in ``reps`` conjugation and the pair scan)
goes through ``_linear_images``, which forms each image coordinate of
all the points in one integer sum, one point per lane; p <= 5 keeps
every lane below 256.
``reps.h3_faithfulness_search`` shares ``_linear_images`` for its
square-zero matrices, listed in closed form as u v^T, and ``_orbits`` with
the generators acting by conjugation, so that its pair scan starts from
one matrix per orbit.

In characteristic 3 the law implies the Jacobi identity: with
[x,[y,z]] = [z,[x,y]], the Jacobi sum is 3 [x,[y,z]] = 0.  So every
algebra counted at p = 3 is also a Lie algebra, and free3 is a non-Lie
example only in characteristic other than 3.
"""

from collections import Counter, namedtuple
from functools import cache
from itertools import combinations

from .algebra import Algebra, Fingerprint, check_acaa, fingerprint
from .fields import Q
from .free import free_acaa


CatalogEntry = namedtuple("CatalogEntry", "name algebra fingerprint description")

# name, dim, skew products (None: the algebra is free_acaa(3)), fingerprint,
# description; in order, the classification lists of dimensions 2..5, then
# the extras n6 and free3
_TABLE = (
    ("abelian2", 2, {}, (2, 0, 2, 0), "2-dimensional abelian algebra"),
    ("abelian3", 3, {}, (3, 0, 3, 0), "3-dimensional abelian algebra"),
    ("h3", 3, {(0, 1): {2: 1}}, (3, 1, 1, 0), "3-dimensional Heisenberg algebra"),
    ("abelian4", 4, {}, (4, 0, 4, 0), "4-dimensional abelian algebra"),
    ("h3+K", 4, {(0, 1): {2: 1}}, (4, 1, 2, 0),
     "Heisenberg algebra plus a 1-dimensional abelian summand"),
    ("abelian5", 5, {}, (5, 0, 5, 0), "5-dimensional abelian algebra"),
    ("h3+K2", 5, {(0, 1): {2: 1}}, (5, 1, 3, 0),
     "Heisenberg algebra plus a 2-dimensional abelian summand"),
    ("L5", 5, {(0, 1): {2: 1}, (0, 3): {4: 1}}, (5, 2, 2, 0),
     "5-dimensional 2-step nilpotent Lie algebra with 2-dimensional"
     " derived subalgebra"),
    ("h5", 5, {(0, 1): {4: 1}, (2, 3): {4: 1}}, (5, 1, 1, 0),
     "5-dimensional Heisenberg algebra"),
    ("n6", 6, {(0, 1): {3: 1}, (0, 2): {4: 1}, (1, 2): {5: 1}}, (6, 3, 3, 0),
     "free 2-step nilpotent Lie algebra on 3 generators"),
    ("free3", 7, None, (7, 4, 1, 1),
     "free anticommutative antiassociative algebra on 3 generators"),
)


@cache
def _entries() -> dict:
    """The table's entries by name, in table order, built on first use."""
    return {name: CatalogEntry(
                name, free_acaa(3).algebra if products is None else
                Algebra.from_products(Q, dim, products, skew=True, name=name),
                Fingerprint(*fp), desc)
            for name, dim, products, fp, desc in _TABLE}


def catalog(dim: int) -> list:
    """The complete classification list for dimension 2..5."""
    if not 2 <= dim <= 5:
        raise ValueError(f"no classification list for dimension {dim};"
                         f" extra entries are exposed by name")
    return [e for e in _entries().values() if e.algebra.dim == dim]


def all_entries() -> list:
    """Every named entry: the classification lists plus n6 and free3."""
    return list(_entries().values())


def entry(name: str) -> CatalogEntry:
    entries = _entries()
    if name not in entries:
        raise ValueError(f"unknown catalog entry {name!r}")
    return entries[name]


def recognize(A: Algebra) -> str:
    """Catalog name of A, matched by fingerprint.

    Only dimensions 2..5 over Q are supported, and A must satisfy the
    cyclic triple-bracket law.  "unknown" would contradict the completeness
    of the classification.
    """
    if A.field != Q:
        raise ValueError("recognition works over Q only")
    if not 2 <= A.dim <= 5:
        raise ValueError("recognition covers dimensions 2..5 only")
    w = check_acaa(A)
    if w is not None:
        raise ValueError(f"algebra fails the triple-bracket law at {w}")
    fp = fingerprint(A)
    return next((e.name for e in catalog(A.dim) if e.fingerprint == fp), "unknown")


# --- exhaustive enumeration over F_p ---------------------------------------

def _staged_filter(equations, n, p):
    """The points of F_p^n where every equation vanishes mod p, as one
    row-major bytes buffer of n-digit rows in code order (digit q has
    weight p^q).

    An equation is a list of terms (sign, a, b) standing for
    sign * x_a * x_b.  The digits are set least significant first; each
    step repeats the live partial points p times, appends the new digit as
    the most significant, and drops every point that fails an equation
    whose digits are now all set, so the points stay in code order and an
    equation is tested once, on the points that passed the steps before it.

    The live points are byte columns, lane j of a column holding point j's
    digit.  Read as integers, (x_a << 3) | x_b holds 8 x_a + x_b in each
    lane, one ``bytes.translate`` maps it to the term mod p, and the terms
    add lane by lane; a second translate sets bit 7 where a sum is nonzero
    mod p, and deleting the lanes with bit 7 set compacts each column.
    Digits below 8 and equation sums below 256 keep every lane in its byte;
    inputs that would break either raise ValueError.
    """
    if p > 8 or any(len(eq) * (p - 1) > 255 for eq in equations):
        raise ValueError(f"equations mod {p} overflow the 8-bit digit lanes")
    due = [[] for _ in range(n)]
    for eq in equations:
        due[max(max(a, b) for _, a, b in eq)].append(eq)
    term = {sign: bytes(sign * (x >> 3) * (x & 7) % p for x in range(256)) for sign in (1, -1)}
    fails, marked = bytes(128 * (v % p != 0) for v in range(256)), bytes(range(128, 256))
    cols, live = [], 1
    for s in range(n):
        cols = [c * p for c in cols] + [b"".join(bytes((v,)) * live for v in range(p))]
        live *= p
        if not due[s]:
            continue
        lanes = [int.from_bytes(c, "little") for c in cols]
        drop = 0
        for terms in due[s]:
            acc = sum(int.from_bytes(((lanes[a] << 3) | lanes[b]).to_bytes(live, "little")
                                     .translate(term[sign]), "little")
                      for sign, a, b in terms)
            drop |= int.from_bytes(acc.to_bytes(live, "little").translate(fails), "little")
        cols = [(x | drop).to_bytes(live, "little").translate(None, marked) for x in lanes]
        live = len(cols[0])
    rows = bytearray(live * n)
    for q, col in enumerate(cols):
        rows[q::n] = col
    return bytes(rows)


@cache
def _residues(p):
    """The byte table v -> v mod p that reduces the lanes of
    ``_linear_images``, built once per p."""
    return bytes(v % p for v in range(256))


def _linear_images(matrix, rows, p):
    """The images of the digit rows x under the F_p-linear map
    y = matrix x, each as a bytes row of digits.

    Digit q of every row, read as one integer X_q in base 256, holds one
    row per byte lane, so sum_q (matrix[k][q] mod p) X_q holds coordinate k
    of every image in its lanes, each at most n (p - 1)^2 for n digits;
    n (p - 1)^2 >= 256 would carry into the next lane and raises
    ValueError.
    """
    n, m = len(matrix[0]), len(matrix)
    if n * (p - 1) ** 2 > 255:
        raise ValueError(f"{n} digits mod {p} overflow the 8-bit lanes")
    flat, count = b"".join(rows), len(rows)
    X = [int.from_bytes(flat[q::n], "little") for q in range(n)]
    mod_p = _residues(p)
    images = bytearray(count * m)
    for k, weights in enumerate(matrix):
        lanes = sum(w % p * x for w, x in zip(weights, X))
        images[k::m] = lanes.to_bytes(count, "little").translate(mod_p)
    images = bytes(images)
    return [images[i:i + m] for i in range(0, len(images), m)]


def _gl_order(dim, p):
    """|GL(dim, p)| = prod_i (p^dim - p^i)."""
    order = 1
    for i in range(dim):
        order *= p ** dim - p ** i
    return order


def _gl_generators(dim, p):
    """Three generators of GL(dim, p), each paired with its inverse: the
    cyclic permutation s with s e_i = e_(i+1 mod dim) (inverse: its
    transpose), the transvection I + E_01 (inverse: I + (p - 1) E_01) and
    diag(g, 1, ..., 1) with g the least primitive root mod p.

    Proof.  s E_ij s^-1 = E_(i+1, j+1), indices mod dim, so conjugating
    I + E_01 by s^k gives every I + E_(k, k+1).  For distinct i, j, k, with
    x = E_ij and y = E_jk, x^2 = y^2 = yx = 0 and xy = E_ik with
    xyx = xyy = 0, so the commutator (I + x)(I + y)(I - x)(I - y) is
    I + E_ik; by induction on m, the commutator of I + E_(i, i+m-1) and
    I + E_(i+m-1, i+m) gives I + E_(i, i+m) for 1 < m < dim, which is
    every I + E_ij with i != j.
    Row reduction by the moves "add t times row j to row i", which are
    left multiplications by I + t E_ij = (I + E_ij)^t (E_ij^2 = 0), takes
    any invertible matrix to diag(d, 1, ..., 1) with d its determinant; so
    the I + E_ij generate SL(dim, p).  The determinant map GL -> F_p^x
    splits by d -> diag(d, 1, ..., 1), and g generates F_p^x, so adding
    diag(g, 1, ..., 1) generates all of GL(dim, p).  In a finite group
    every inverse is a positive power, so the closure of a point under the
    generators alone is its whole orbit.
    """
    root = next(g for g in range(1, p)
                if len({pow(g, k, p) for k in range(1, p)}) == p - 1)

    def unit(i, j, v):  # the identity with entry (i, j) set to v
        return [[v if (a, b) == (i, j) else int(a == b) for b in range(dim)]
                for a in range(dim)]
    cycle = [[int(a == (b + 1) % dim) for b in range(dim)] for a in range(dim)]
    return [(cycle, [list(col) for col in zip(*cycle)]),
            (unit(0, 1, 1), unit(0, 1, p - 1)),
            (unit(0, 0, root), unit(0, 0, pow(root, p - 2, p)))]


def _orbits(points, images, order):
    """The least index of each point's orbit, for the distinct points of a
    finite set and a group of the given order acting on it.

    ``images`` holds, for each generator of the group, the images of the
    points in order.  Every image is mapped back to an index by a dict
    first; then, for each index in order that no walk has reached, one
    stack walk follows the images under every generator and gives each
    point it reaches that index as root.  In a finite group every inverse
    is a positive power, so a walk reaches exactly its start's orbit, and
    an index no earlier walk reached is the least of its orbit.  An image
    outside the points means the set is not closed under the action, and
    each orbit size must divide the group order (orbit-stabilizer); either
    failure raises RuntimeError.
    """
    index = {x: i for i, x in enumerate(points)}
    steps = [list(map(index.get, image)) for image in images]
    if any(None in step for step in steps):
        raise RuntimeError("orbit left the filtered set; the set is not closed"
                           " under the group")
    n = len(points)
    roots = [None] * n
    for start in range(n):
        if roots[start] is None:
            roots[start], stack = start, [start]
            while stack:
                x = stack.pop()
                for step in steps:
                    y = step[x]
                    if roots[y] is None:
                        roots[y] = start
                        stack.append(y)
    sizes = sorted(Counter(roots).values())
    if any(order % s for s in sizes):
        raise RuntimeError(f"orbit sizes {sizes} fail orbit-stabilizer for"
                           f" {n} points and a group of order {order}")
    return roots


def _tensor_images(survivors, dim, p):
    """The images c -> g^-1 c(g x, g y) of the survivor digit rows under
    each generator g of ``_gl_generators``, by ``_linear_images``.

    Digit s dim + m of a tensor is coordinate m of the bracket of pair s.
    The bracket of the new basis pair t = (a, b) collects the old pair
    brackets through the 2x2 minors of g, then returns to new coordinates
    by g^-1, so digit s dim + m moves to digit t dim + k with weight
    minors[s][t] ginv[k][m].
    """
    pairs = list(combinations(range(dim), 2))
    r, q = range(dim), range(len(pairs))
    images = []
    for g, ginv in _gl_generators(dim, p):
        minors = [[g[i][a] * g[j][b] - g[j][a] * g[i][b] for a, b in pairs]
                  for i, j in pairs]
        action = [[minors[s][t] * ginv[k][m] for s in q for m in r] for t in q for k in r]
        images.append(_linear_images(action, survivors, p))
    return images


def _scan(dim, p):
    """The skew tensors over F_p that satisfy the linearized law, as digit
    rows in code order.  Digit q dim + r is coordinate r of the bracket of
    pair q, and a basis bracket [e_a, e_m] is a signed pair index, or
    nothing when a = m.  Coordinate r of check (i, j, k), i < k,
    [e_i,[e_j,e_k]] + [e_k,[e_j,e_i]] = 0, is one equation; for odd p the
    triples with i >= k add nothing (proof: ``algebra.check_acaa``)."""
    pairs = list(combinations(range(dim), 2))
    bracket = {}
    for q, (a, m) in enumerate(pairs):
        bracket[a, m], bracket[m, a] = (1, q), (-1, q)
    n = len(pairs) * dim
    equations = []
    for i, k in pairs:
        for j in range(dim):
            terms = []  # (sign, q1 dim + m, q2 dim), awaiting coordinate r
            for outer, inner in ((i, (j, k)), (k, (j, i))):
                if inner not in bracket:
                    continue
                s1, q1 = bracket[inner]
                for m in range(dim):
                    if m != outer:
                        s2, q2 = bracket[outer, m]
                        terms.append((s1 * s2, q1 * dim + m, q2 * dim))
            equations += [[(sign, a, b + r) for sign, a, b in terms] for r in range(dim)]
    rows = _staged_filter(equations, n, p)
    return [rows[i:i + n] for i in range(0, len(rows), n)]


def enumerate_finite(dim: int, p: int, jobs: int = 1):
    """Count anticommutative tensors over F_p satisfying the linearized
    triple-bracket law, and their isomorphism classes under GL(dim, p).

    Returns (acaa_count, iso_class_count).  ``jobs`` has no effect: the
    staged filter holds at most 1,125 partial tensors, so there is nothing
    to split.  It is still accepted because the benchmark's oracle workload
    passes ``jobs=1`` (ROADMAP item 5).
    """
    if dim not in (2, 3):
        raise ValueError("enumeration supports dimensions 2 and 3 only")
    # the odd primes at most 5; p <= 5 keeps the 8-bit lanes of
    # _staged_filter and _linear_images in range: 9 (p - 1)^2 <= 144 < 256
    if p not in (3, 5):
        raise ValueError("p must be an odd prime at most 5")
    survivors = _scan(dim, p)
    roots = _orbits(survivors, _tensor_images(survivors, dim, p), _gl_order(dim, p))
    return len(survivors), len(set(roots))
