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
"""

from dataclasses import dataclass

from .algebra import (Algebra, Element, check_acaa, check_anticommutative,
                      derived_cube_rows)
from .linalg import Matrix, random_matrix, span
from .reps import ad_matrix


def zero_cochain2(A: Algebra):
    z = (A.field.zero,) * A.dim
    return tuple(tuple(z for _ in range(A.dim)) for _ in range(A.dim))


def is_skew(A: Algebra, phi) -> bool:
    for i in range(A.dim):
        if any(phi[i][i]):
            return False
        for j in range(i + 1, A.dim):
            if any(a + b for a, b in zip(phi[i][j], phi[j][i])):
                return False
    return True


def is_sym12(A: Algebra, psi) -> bool:
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            for k in range(A.dim):
                if psi[i][j][k] != psi[j][i][k]:
                    return False
    return True


def _require_skew(A, phi):
    if not is_skew(A, phi):
        raise ValueError("cochain is not skew-symmetric")


def _bracket_vec(A, i, vec, sign=1):
    """sign * [e_i, vec] for a coordinate vector."""
    zero = A.field.zero
    acc = [zero] * A.dim
    for m, vm in enumerate(vec):
        if not vm:
            continue
        for k, c in A.nonzero(i, m):
            t = vm * c
            acc[k] = acc[k] + t if sign > 0 else acc[k] - t
    return acc


def _phi_apply(A, phi, i, vec):
    """phi(e_i, vec) for a coordinate vector in the second slot."""
    zero = A.field.zero
    acc = [zero] * A.dim
    for m, vm in enumerate(vec):
        if not vm:
            continue
        row = phi[i][m]
        for k, c in enumerate(row):
            if c:
                acc[k] = acc[k] + vm * c
    return acc


def delta0(A: Algebra, a: Element) -> Matrix:
    """The default augmentation a -> ad a (see the module notes)."""
    return ad_matrix(A, a)


def delta1(A: Algebra, f: Matrix):
    """d1(f) as a skew bilinear tensor.  A must be anticommutative."""
    if f.field != A.field or f.shape != (A.dim, A.dim):
        raise ValueError("endomorphism has wrong shape or field")
    one, zero = A.field.one, A.field.zero
    f_basis = [f.apply([one if m == i else zero for m in range(A.dim)])
               for i in range(A.dim)]
    out = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            acc = list(f.apply(A.product(i, j)))
            for k, v in enumerate(_bracket_vec(A, i, f_basis[j])):
                acc[k] = acc[k] - v
            fei_ej = A.multiply_coords(f_basis[i],
                                       [one if m == j else zero for m in range(A.dim)])
            for k, v in enumerate(fei_ej):
                acc[k] = acc[k] - v
            row.append(tuple(acc))
        out.append(tuple(row))
    return tuple(out)


def delta2(A: Algebra, phi):
    """d2(phi) as a trilinear tensor, symmetric in the first two slots."""
    _require_skew(A, phi)
    out = []
    for i in range(A.dim):
        plane = []
        for j in range(A.dim):
            row = []
            for k in range(A.dim):
                acc = _phi_apply(A, phi, i, A.product(j, k))
                for m, v in enumerate(_bracket_vec(A, i, phi[j][k])):
                    acc[m] = acc[m] + v
                for m, v in enumerate(_phi_apply(A, phi, j, A.product(k, i))):
                    acc[m] = acc[m] - v
                for m, v in enumerate(_bracket_vec(A, j, phi[k][i])):
                    acc[m] = acc[m] - v
                row.append(tuple(acc))
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def delta3(A: Algebra, psi):
    """The six-term arity-4 map applied to a C^3 cochain.

    omega(x1,x2,x3,x4) = psi(x1,x2,[x3,x4]) + psi(x1,[x3,x4],x2)
                       + psi(x2,[x3,x4],x1) + [x1, psi(x2,x3,x4)]
                       + [x1, psi(x2,x4,x3)] + [x1, psi(x4,x3,x2)]
    """
    if not is_sym12(A, psi):
        raise ValueError("cochain is not symmetric in its first two arguments")

    def psi_line(i, j, vec, slot):
        # psi with vec substituted in the given slot, basis vectors elsewhere
        zero = A.field.zero
        acc = [zero] * A.dim
        for m, vm in enumerate(vec):
            if not vm:
                continue
            if slot == 2:
                row = psi[i][j][m]
            else:
                row = psi[i][m][j]
            for k, c in enumerate(row):
                if c:
                    acc[k] = acc[k] + vm * c
        return acc

    out = []
    for i1 in range(A.dim):
        cube = []
        for i2 in range(A.dim):
            plane = []
            for i3 in range(A.dim):
                row = []
                for i4 in range(A.dim):
                    br34 = A.product(i3, i4)
                    acc = psi_line(i1, i2, br34, 2)
                    for m, v in enumerate(psi_line(i1, i2, br34, 1)):
                        acc[m] = acc[m] + v
                    for m, v in enumerate(psi_line(i2, i1, br34, 1)):
                        acc[m] = acc[m] + v
                    for tail in (psi[i2][i3][i4], psi[i2][i4][i3], psi[i4][i3][i2]):
                        for m, v in enumerate(_bracket_vec(A, i1, tail)):
                            acc[m] = acc[m] + v
                    row.append(tuple(acc))
                plane.append(tuple(row))
            cube.append(tuple(plane))
        out.append(tuple(cube))
    return tuple(out)


def check_cyclic_sum(A: Algebra, phi):
    """None, or the first triple where the cyclic sum of d2(phi) is nonzero."""
    w = check_anticommutative(A)
    if w is not None:
        raise ValueError(f"precondition failed: not anticommutative at {w}")
    psi = delta2(A, phi)
    return cyclic_sum_witness(A, psi)


def cyclic_sum_witness(A: Algebra, psi):
    """First triple where psi(x,y,z) + psi(y,z,x) + psi(z,x,y) != 0."""
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                total = [a + b + c for a, b, c in
                         zip(psi[i][j][k], psi[j][k][i], psi[k][i][j])]
                if any(total):
                    return (i, j, k)
    return None


def d2_after_d1(A: Algebra, f: Matrix):
    return delta2(A, delta1(A, f))


def d3_after_d2(A: Algebra, phi):
    return delta3(A, delta2(A, phi))


def is_zero_tensor(t) -> bool:
    if isinstance(t, tuple):
        return all(is_zero_tensor(x) for x in t)
    return not t


@dataclass(frozen=True)
class GradedAlgebra:
    """An algebra with a degree (1, 2 or 3) per basis vector.

    Degrees must be compatible with the product: whenever e_i e_j has a
    nonzero coordinate on e_k, deg(e_k) = deg(e_i) + deg(e_j).  The algebra
    must satisfy the cyclic triple-bracket law.
    """

    algebra: Algebra
    degrees: tuple

    def __post_init__(self):
        A = self.algebra
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if len(self.degrees) != A.dim:
            raise ValueError("need one degree per basis vector")
        if any(d not in (1, 2, 3) for d in self.degrees):
            raise ValueError("degrees must be 1, 2 or 3")
        w = check_acaa(A)
        if w is not None:
            raise ValueError(f"triple-bracket law fails at {w}")
        for i in range(A.dim):
            for j in range(A.dim):
                for k, _ in A.nonzero(i, j):
                    if self.degrees[k] != self.degrees[i] + self.degrees[j]:
                        raise ValueError(
                            f"product e_{i} e_{j} lands in degree"
                            f" {self.degrees[k]} != {self.degrees[i]} + {self.degrees[j]}")


def infer_grading(A: Algebra) -> GradedAlgebra:
    """Read a grading off the filtration by product length.

    Basis vectors outside the span of all products get degree 1, those in
    it but outside the span of length-3 products degree 2, the rest degree
    3.  Fails if the basis does not align with the filtration.
    """
    d = A.dim
    derived, cube = (span(A.field, [[A.field.from_int(v) for v in row] for row in rows], d)
                     for rows in derived_cube_rows(A))
    degrees = []
    for i in range(d):
        e = [A.field.one if m == i else A.field.zero for m in range(d)]
        if cube.contains(e):
            degrees.append(3)
        elif derived.contains(e):
            degrees.append(2)
        else:
            degrees.append(1)
    return GradedAlgebra(A, tuple(degrees))


def g_map(G: GradedAlgebra, x: int) -> Matrix:
    """The endomorphism g_X(e_j) = (-1)^(i+j) i j [X, e_j] for X = e_x of
    degree i and j the degree of e_j.
    """
    A = G.algebra
    if not 0 <= x < A.dim:
        raise ValueError("basis index out of range")
    i = G.degrees[x]
    zero, one = A.field.zero, A.field.one
    cols = []
    for jdx in range(A.dim):
        j = G.degrees[jdx]
        coef = A.field.from_int((1 if (i + j) % 2 == 0 else -1) * i * j)
        col = [zero] * A.dim
        for k, c in A.nonzero(x, jdx):
            col[k] = coef * c
        cols.append(col)
    return Matrix(A.field, list(zip(*cols)))


def random_endomorphism(A: Algebra, rng, lo=-3, hi=3) -> Matrix:
    return random_matrix(A.field, A.dim, A.dim, rng, lo, hi)


def random_skew_cochain(A: Algebra, rng, lo=-3, hi=3):
    zero = A.field.zero
    phi = [[(zero,) * A.dim for _ in range(A.dim)] for _ in range(A.dim)]
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            vec = tuple(A.field.from_int(rng.randint(lo, hi)) for _ in range(A.dim))
            phi[i][j] = vec
            phi[j][i] = tuple(-v for v in vec)
    return tuple(tuple(row) for row in phi)
