"""Arity-3 monomial spaces for a binary product and the signed pairing.

The full space has twelve monomials: the left-bracketed (x_a x_b) x_c and
the right-bracketed x_a (x_b x_c) over all permutations of {1,2,3}.  The
inner product is diagonal there: +sign(sigma) on left-bracketed monomials,
-sign(sigma) on right-bracketed ones, all cross pairings zero.

For an anticommutative product the three cyclically independent monomials
(x1 x2) x3, (x2 x3) x1, (x3 x1) x2 span the quotient.  The dual relations
pair these cyclically, (x1 x2) x3 + (x2 x3) x1 and its rotations, and the
rank-3 computation here shows they force every triple product to vanish,
which is why the dual arity dimensions collapse to (1, 1, 0, ...).
"""

from collections import namedtuple

from .algebra import TRIPLE_PERMS, perm_sign
from .fields import Q
from .linalg import Matrix, Subspace, rank_kernel


class MonomialSpace(namedtuple("MonomialSpace", "variant labels")):
    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.labels)


def monomial_space(variant: str) -> MonomialSpace:
    """The labelled basis for variant "full12" or "skew3"."""
    if variant == "full12":
        left = tuple(f"(x{a} x{b}) x{c}" for a, b, c in TRIPLE_PERMS)
        right = tuple(f"x{a} (x{b} x{c})" for a, b, c in TRIPLE_PERMS)
        return MonomialSpace(variant, left + right)
    if variant == "skew3":
        return MonomialSpace(variant, ("(x1 x2) x3", "(x2 x3) x1", "(x3 x1) x2"))
    raise ValueError(f"unknown monomial space variant {variant!r}")


def acaa_dims(count: int = 8) -> list:
    """Arity dimensions (1, 1, 1, 0, ...): one product up to sign in
    arities 2 and 3, nothing from arity 4 on."""
    if count < 1:
        raise ValueError("count must be positive")
    return [1 if n <= 3 else 0 for n in range(1, count + 1)]


def dual_dims(count: int = 8) -> list:
    """Arity dimensions (1, 1, 0, ...) of the dual: its algebras are
    2-step nilpotent Lie algebras."""
    if count < 1:
        raise ValueError("count must be positive")
    return [1 if n <= 2 else 0 for n in range(1, count + 1)]


def pairing_matrix() -> Matrix:
    """The diagonal 12 x 12 inner-product matrix on the full monomial space."""
    diag = [perm_sign(p) for p in TRIPLE_PERMS] + [-perm_sign(p) for p in TRIPLE_PERMS]
    n = len(diag)
    zero = Q.zero
    rows = [[Q.from_int(diag[i]) if i == j else zero for j in range(n)]
            for i in range(n)]
    return Matrix(Q, rows)


def orthogonal_complement(V: Subspace) -> Subspace:
    """{w : <w, v> = 0 for all v in V} under the signed pairing.

    The pairing is nondegenerate, so dim V + dim V_perp = 12.
    """
    if V.ambient_dim != 12:
        raise ValueError("the pairing lives on the 12-dimensional monomial space")
    if V.field != Q:
        raise ValueError("the pairing is defined over Q")
    pairing = pairing_matrix()
    if V.dim == 0:
        return Subspace(Q, 12, Matrix.identity(Q, 12).entries)
    rows = [pairing.apply(v) for v in V.basis]
    _, kernel = rank_kernel(Matrix(Q, rows))
    return kernel


def cyclic_relation_matrix(field=Q) -> Matrix:
    """Coefficients of the relations m1+m2, m2+m3, m3+m1 on the skew basis."""
    return Matrix.build(field, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])


def dual_relations_force_nilpotency() -> bool:
    """True: the three cyclic relations have rank 3 over Q, so they force
    (x_i x_j) x_k = 0 identically."""
    return cyclic_relation_matrix(Q).rank() == 3
