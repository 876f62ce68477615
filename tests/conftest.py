"""Shared algebra builders and hypothesis strategies for the test suite."""

import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from acaa.algebra import Algebra, check_acaa
from acaa.fields import PrimeField, Q
from acaa.linalg import Matrix
from acaa.reps import ad_matrix


def upper_triangular_2x2() -> Algebra:
    """Associative algebra on E11, E12, E22 (2x2 upper triangular matrices)."""
    products = {
        (0, 0): {0: 1},   # E11 E11 = E11
        (0, 1): {1: 1},   # E11 E12 = E12
        (1, 2): {1: 1},   # E12 E22 = E12
        (2, 2): {2: 1},   # E22 E22 = E22
    }
    return Algebra.from_products(Q, 3, products, labels=("E11", "E12", "E22"),
                                 name="ut2")


def full_matrix_2x2() -> Algebra:
    """Associative algebra on E11, E12, E21, E22 (all 2x2 matrices)."""
    basis = ((0, 0), (0, 1), (1, 0), (1, 1))
    index = {b: i for i, b in enumerate(basis)}
    products = {}
    for i, (a, b) in enumerate(basis):
        for j, (c, d) in enumerate(basis):
            if b == c:
                products[(i, j)] = {index[(a, d)]: 1}
    return Algebra.from_products(Q, 4, products,
                                 labels=("E11", "E12", "E21", "E22"), name="gl2")


def simple_lie_3() -> Algebra:
    """[e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2 (the cross product)."""
    return Algebra.from_products(Q, 3,
                                 {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
                                 skew=True, name="cross")


def seven_dim_table() -> Algebra:
    """The 7-dimensional anticommutative algebra with [e1,e2]=e4,
    [e1,e3]=e5, [e2,e3]=e6, [e1,e6]=-[e2,e5]=[e3,e4]=e7."""
    products = {
        (0, 1): {3: 1},
        (0, 2): {4: 1},
        (1, 2): {5: 1},
        (0, 5): {6: 1},
        (1, 4): {6: -1},
        (2, 3): {6: 1},
    }
    return Algebra.from_products(Q, 7, products, skew=True, name="acaa7")


def commutative_2() -> Algebra:
    """Commutative (and associative) 2-dimensional algebra e1*e1 = e1, cross
    terms symmetric."""
    return Algebra.from_products(Q, 2, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                        (1, 0): {1: 1}})


@pytest.fixture
def ut2():
    return upper_triangular_2x2()


@pytest.fixture
def gl2():
    return full_matrix_2x2()


# --- random tables for the equal-witness tests -------------------------------

def reference_change_basis(A, P):
    """The former field-element change of basis, kept as a test oracle."""
    pinv = P.inverse()
    d = A.dim
    cols = [tuple(P.entries[i][a] for i in range(d)) for a in range(d)]
    tensor = [[list(pinv.apply(A.multiply_coords(cols[a], cols[b]))) for b in range(d)]
              for a in range(d)]
    return Algebra(A.field, d, tensor, symmetry=A.symmetry)


FIELDS = (Q, PrimeField(3), PrimeField(5))


def scalar(field, draw_int, den):
    """A field element from an integer and a positive denominator (the
    denominator is ignored over F_p)."""
    if field == Q:
        return Fraction(draw_int, den)
    return field.from_int(draw_int)


@st.composite
def skew_algebras(draw, max_dim=5):
    """Random anticommutative algebras over Q (fractional entries), F_3 and
    F_5, of four kinds: 2-step nilpotent ones (the first s basis vectors
    bracket into the span of the others, which is central), so satisfying
    the cyclic law, seen in a random basis; the same with s >= 2 and a
    nonzero bracket, so never abelian (random skew forms into a central
    block); a 2-step one with one product perturbed, which moves the first
    witness away from the start; and plain random tables, which mostly
    fail early."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(("two-step", "central", "perturbed", "random")))
    d = draw(st.integers(3 if kind == "central" else 2, max_dim))
    density = draw(st.sampled_from((0.2, 0.5, 1.0)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    s = d if kind == "random" else rng.randint(2 if kind == "central" else 1, d - 1)
    targets = range(d) if kind == "random" else range(s, d)
    products = {}
    for i in range(s):
        for j in range(i + 1, s):
            products[(i, j)] = {k: scalar(field, rng.randint(-4, 4), rng.randint(1, 6))
                                for k in targets if rng.random() < density}
    if kind == "central":
        products[(0, 1)][s] = scalar(field, rng.choice((-2, -1, 1, 2)), rng.randint(1, 6))
    A = Algebra.from_products(field, d, products, skew=True)
    if kind == "random":
        return A
    A = reference_change_basis(A, random_invertible_over(field, d, rng))
    if kind == "perturbed":
        t = [[list(row) for row in plane] for plane in A.tensor]
        i, j = sorted(rng.sample(range(d), 2))
        k = rng.randrange(d)
        x = scalar(field, rng.choice((-1, 1)), rng.randint(1, 3))
        t[i][j][k], t[j][i][k] = t[i][j][k] + x, t[j][i][k] - x
        A = Algebra(field, d, t, symmetry="skew")
    return A


def nonabelian_acaa(A):
    """A filter for ``skew_algebras``: many of the ACAA tables it draws are
    abelian (all those of dimension 2), which meet fewer laws and give no
    witness to move."""
    return any(any(row) for plane in A.tensor for row in plane) and check_acaa(A) is None


@st.composite
def plain_algebras(draw, max_dim=4):
    """Random algebras without symmetry over Q, F_3 and F_5."""
    field = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, max_dim))
    density = draw(st.sampled_from((0.1, 0.3, 0.7)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    zero = field.zero
    tensor = [[[scalar(field, rng.randint(-3, 3), rng.randint(1, 4))
                if rng.random() < density else zero for _ in range(d)]
               for _ in range(d)] for _ in range(d)]
    return Algebra(field, d, tensor)


def random_invertible_over(field, d, rng):
    """A random invertible matrix with entries like those of
    ``random_invertible``, fractional over Q."""
    while True:
        P = Matrix(field, [[scalar(field, rng.randint(-3, 3), rng.randint(1, 3))
                            for _ in range(d)] for _ in range(d)])
        if P.rank() == d:
            return P


KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# --- the former field-element cochain maps, kept as test oracles --------------

def _reference_bracket_vec(A, i, vec):
    """[e_i, vec] for a coordinate vector."""
    acc = [A.field.zero] * A.dim
    for m, vm in enumerate(vec):
        if not vm:
            continue
        for k, c in enumerate(A.tensor[i][m]):
            if c:
                acc[k] = acc[k] + vm * c
    return acc


def _reference_phi_apply(A, phi, i, vec):
    """phi(e_i, vec) for a coordinate vector in the second slot."""
    acc = [A.field.zero] * A.dim
    for m, vm in enumerate(vec):
        if not vm:
            continue
        for k, c in enumerate(phi[i][m]):
            if c:
                acc[k] = acc[k] + vm * c
    return acc


def _basis_vec(A, i):
    return [A.field.one if m == i else A.field.zero for m in range(A.dim)]


def reference_delta1(A, f):
    """The former field-element d1(f)(u, v) = f[u, v] - [u, f(v)] - [f(u), v]."""
    f_basis = [f.apply(_basis_vec(A, i)) for i in range(A.dim)]
    out = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            acc = list(f.apply(A.product(i, j)))
            for k, v in enumerate(_reference_bracket_vec(A, i, f_basis[j])):
                acc[k] = acc[k] - v
            for k, v in enumerate(A.multiply_coords(f_basis[i], _basis_vec(A, j))):
                acc[k] = acc[k] - v
            row.append(tuple(acc))
        out.append(tuple(row))
    return tuple(out)


def reference_delta2(A, phi):
    """The former field-element d2(phi)(x, y, z)
    = phi(x,[y,z]) + [x,phi(y,z)] - phi(y,[z,x]) - [y,phi(z,x)]."""
    out = []
    for i in range(A.dim):
        plane = []
        for j in range(A.dim):
            row = []
            for k in range(A.dim):
                acc = _reference_phi_apply(A, phi, i, A.product(j, k))
                for m, v in enumerate(_reference_bracket_vec(A, i, phi[j][k])):
                    acc[m] = acc[m] + v
                for m, v in enumerate(_reference_phi_apply(A, phi, j, A.product(k, i))):
                    acc[m] = acc[m] - v
                for m, v in enumerate(_reference_bracket_vec(A, j, phi[k][i])):
                    acc[m] = acc[m] - v
                row.append(tuple(acc))
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def reference_delta3(A, psi):
    """The former field-element six-term arity-4 map."""
    def psi_line(i, j, vec, slot):
        # psi with vec substituted in the given slot, basis vectors elsewhere
        acc = [A.field.zero] * A.dim
        for m, vm in enumerate(vec):
            if not vm:
                continue
            row = psi[i][j][m] if slot == 2 else psi[i][m][j]
            for k, c in enumerate(row):
                if c:
                    acc[k] = acc[k] + vm * c
        return acc

    d = A.dim
    out = []
    for i1 in range(d):
        cube = []
        for i2 in range(d):
            plane = []
            for i3 in range(d):
                row = []
                for i4 in range(d):
                    br34 = A.product(i3, i4)
                    acc = psi_line(i1, i2, br34, 2)
                    for m, v in enumerate(psi_line(i1, i2, br34, 1)):
                        acc[m] = acc[m] + v
                    for m, v in enumerate(psi_line(i2, i1, br34, 1)):
                        acc[m] = acc[m] + v
                    for tail in (psi[i2][i3][i4], psi[i2][i4][i3], psi[i4][i3][i2]):
                        for m, v in enumerate(_reference_bracket_vec(A, i1, tail)):
                            acc[m] = acc[m] + v
                    row.append(tuple(acc))
                plane.append(tuple(row))
            cube.append(tuple(plane))
        out.append(tuple(cube))
    return tuple(out)


def reference_check_weighted_antiderivation(A, f, weight):
    """The former field-element scan for the first pair (i, j) with
    weight * f(e_i e_j) + e_i f(e_j) + f(e_i) e_j != 0."""
    k = A.field.from_int(weight)
    f_basis = [f.apply(_basis_vec(A, i)) for i in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            v = [k * t for t in f.apply(A.product(i, j))]
            left = A.multiply_coords(_basis_vec(A, i), f_basis[j])
            right = A.multiply_coords(f_basis[i], _basis_vec(A, j))
            if any(a + b + c for a, b, c in zip(v, left, right)):
                return (i, j)
    return None


def reference_check_ad_identities(A):
    """The former Matrix-product scan of the adjoint operator laws, without
    the triple-bracket precondition: (ad e_i)^2 = 0 first, then for each
    pair ad e_i ad e_j + ad e_j ad e_i = 0 ("anticommutation") before
    2 ad[e_i, e_j] + ad e_i ad e_j - ad e_j ad e_i = 0 ("double-bracket")."""
    ads = [ad_matrix(A, A.basis(i)) for i in range(A.dim)]
    two = A.field.from_int(2)
    for i in range(A.dim):
        if not (ads[i] * ads[i]).is_zero():
            return ("square", (i,))
    for i in range(A.dim):
        for j in range(A.dim):
            ij = ads[i] * ads[j]
            ji = ads[j] * ads[i]
            if not (ij + ji).is_zero():
                return ("anticommutation", (i, j))
            ad_bracket = ad_matrix(A, A.element(A.product(i, j)))
            if not (ad_bracket.scale(two) + ij - ji).is_zero():
                return ("double-bracket", (i, j))
    return None


def reference_check_representation(rep):
    """The former ``Matrix``-product check of the representation axiom: the
    squares first, then for each pair anticommutation before bracket."""
    A = rep.algebra
    w = check_acaa(A)
    if w is not None:
        raise ValueError(f"precondition failed: triple-bracket law fails at {w}")
    imgs = rep.images

    def image(coords):
        acc = Matrix.zero(A.field, rep.target_dim, rep.target_dim)
        for i, c in enumerate(coords):
            if c:
                acc = acc + imgs[i].scale(c)
        return acc
    for i in range(A.dim):
        if not (imgs[i] * imgs[i]).is_zero():
            return ("square", (i,))
    for i in range(A.dim):
        for j in range(A.dim):
            ij = imgs[i] * imgs[j]
            if not (ij + imgs[j] * imgs[i]).is_zero():
                return ("anticommutation", (i, j))
            if not (image(A.product(i, j)) + ij).is_zero():
                return ("bracket", (i, j))
    return None


def reference_is_skew(A, phi):
    """The former field-element skew test: phi(e_i, e_i) = 0 and
    phi(e_i, e_j) + phi(e_j, e_i) = 0."""
    for i in range(A.dim):
        if any(phi[i][i]):
            return False
        for j in range(i + 1, A.dim):
            if any(a + b for a, b in zip(phi[i][j], phi[j][i])):
                return False
    return True


def reference_cyclic_sum_witness(A, psi):
    """The former field-element scan over all triples for the first one where
    psi(x,y,z) + psi(y,z,x) + psi(z,x,y) != 0."""
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                total = [a + b + c for a, b, c in
                         zip(psi[i][j][k], psi[j][k][i], psi[k][i][j])]
                if any(total):
                    return (i, j, k)
    return None
