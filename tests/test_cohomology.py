import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acaa.algebra import (Algebra, change_basis, check_acaa, derived_cube_rows,
                          random_element)
from acaa.catalog import all_entries, entry
from acaa.cohomology import (GradedAlgebra, check_cyclic_sum, cyclic_sum_witness,
                             d2_after_d1, d3_after_d2, delta0, delta1, delta2,
                             delta3, g_map, infer_grading, is_skew, is_sym12,
                             is_zero_tensor, random_endomorphism,
                             random_skew_cochain)
from acaa.fields import PrimeField, Q
from acaa.free import free_acaa
from acaa.linalg import Matrix, span
from acaa.reps import ad_matrix

from conftest import (FIELDS, KERNEL_SETTINGS, plain_algebras, random_invertible_over,
                      reference_cyclic_sum_witness, reference_delta1, reference_delta2,
                      reference_delta3, reference_is_skew, scalar, simple_lie_3,
                      skew_algebras, upper_triangular_2x2)


def bracket_cochain(A):
    return tuple(tuple(A.product(i, j) for j in range(A.dim)) for i in range(A.dim))


def test_delta1_of_identity_is_minus_bracket():
    h3 = entry("h3").algebra
    d = delta1(h3, Matrix.identity(Q, 3))
    for i in range(3):
        for j in range(3):
            assert d[i][j] == tuple(-c for c in h3.product(i, j))


def test_delta1_of_zero_is_zero():
    h3 = entry("h3").algebra
    assert is_zero_tensor(delta1(h3, Matrix.zero(Q, 3, 3)))


def test_delta1_lands_in_skew_cochains():
    rng = random.Random(31)
    for e in all_entries():
        A = e.algebra
        for _ in range(5):
            assert is_skew(A, delta1(A, random_endomorphism(A, rng)))


def test_d2_after_d1_vanishes():
    rng = random.Random(37)
    for e in all_entries():
        A = e.algebra
        for _ in range(10):
            f = random_endomorphism(A, rng)
            assert is_zero_tensor(d2_after_d1(A, f)), e.name


def test_delta2_of_bracket_on_h3_is_zero():
    h3 = entry("h3").algebra
    assert is_zero_tensor(delta2(h3, bracket_cochain(h3)))


def test_delta2_of_zero_is_zero():
    h3 = entry("h3").algebra
    zero = ((Q.zero,) * 3,) * 3
    assert is_zero_tensor(delta2(h3, (zero,) * 3))


def test_delta2_lands_in_c3_and_cyclic_sum_vanishes():
    rng = random.Random(41)
    for e in all_entries():
        A = e.algebra
        for _ in range(10):
            phi = random_skew_cochain(A, rng)
            psi = delta2(A, phi)
            assert is_sym12(A, psi)
            assert cyclic_sum_witness(A, psi) is None
            assert check_cyclic_sum(A, phi) is None


def test_check_cyclic_sum_names_its_precondition_as_check_acaa_does():
    A = upper_triangular_2x2()
    message = "precondition failed: not anticommutative at basis pair (0, 0)"
    with pytest.raises(ValueError) as exc:
        check_cyclic_sum(A, random_skew_cochain(A, random.Random(0)))
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        check_acaa(A)
    assert str(exc.value) == message


def random_table(field, d, rng, skew):
    """Random structure constants in [-3, 3], skew or with no symmetry."""
    products = {(i, j): {k: field.from_int(rng.randint(-3, 3)) for k in range(d)}
                for i in range(d) for j in range(i + 1 if skew else 0, d)}
    return Algebra.from_products(field, d, products, skew=skew)


@pytest.mark.parametrize("field", (Q, PrimeField(5)), ids=("Q", "F5"))
def test_cyclic_sum_of_d2_vanishes_for_every_product(field):
    # d2(phi) = g - g o rot with g(x,y,z) = phi(x,[y,z]) + [x,phi(y,z)], so
    # its cyclic sum is zero whatever the product: the certificate checks
    # the code of d2, not the algebra
    so3 = Algebra.from_products(field, 3, {(0, 1): {2: field.one}, (1, 2): {0: field.one},
                                           (0, 2): {1: -field.one}}, skew=True)
    rng = random.Random(23)
    failing = 0
    for _ in range(5):
        phi = random_skew_cochain(so3, rng)
        assert check_cyclic_sum(so3, phi) is None
    for d in (2, 3, 4):
        for _ in range(4):
            skew = random_table(field, d, rng, skew=True)
            failing += check_acaa(skew) is not None
            assert check_cyclic_sum(skew, random_skew_cochain(skew, rng)) is None
            plain = random_table(field, d, rng, skew=False)
            phi = random_skew_cochain(plain, rng)
            assert cyclic_sum_witness(plain, delta2(plain, phi)) is None
    assert check_acaa(so3) is not None and failing >= 8


def test_delta2_rejects_non_skew_input():
    h3 = entry("h3").algebra
    bad = tuple(tuple((Q.one,) * 3 for _ in range(3)) for _ in range(3))
    with pytest.raises(ValueError):
        delta2(h3, bad)


def test_delta1_of_ad_is_triple_bracket():
    rng = random.Random(43)
    for e in all_entries():
        A = e.algebra
        for _ in range(5):
            a = random_element(A, rng)
            d = delta1(A, ad_matrix(A, a))
            for i in range(A.dim):
                for j in range(A.dim):
                    expected = 3 * (a * (A.basis(i) * A.basis(j)))
                    assert d[i][j] == expected.coords
            if e.fingerprint.cube_dim == 0:
                assert is_zero_tensor(d)


def test_delta0_composite_is_not_zero_in_general():
    F = free_acaa(3)
    A = F.algebra
    d = delta1(A, delta0(A, F.generator(0)))
    assert not is_zero_tensor(d)
    # d(X2, X3) = 3 [X1, [X2, X3]] = 3 X123
    assert d[1][2] == (3 * F.monomial((0, 1, 2))).coords


def test_delta3_of_zero_is_zero():
    h3 = entry("h3").algebra
    zero3 = tuple(tuple(tuple((Q.zero,) * 3 for _ in range(3)) for _ in range(3))
                  for _ in range(3))
    assert is_zero_tensor(delta3(h3, zero3))


def test_delta3_composite_on_h3_vanishes():
    h3 = entry("h3").algebra
    rng = random.Random(47)
    for _ in range(10):
        phi = random_skew_cochain(h3, rng)
        assert is_zero_tensor(d3_after_d2(h3, phi))


def test_delta3_composite_on_free3_reports_residual():
    # the composite is only reported, never asserted zero; record the shape
    fa = free_acaa(3).algebra
    rng = random.Random(53)
    phi = random_skew_cochain(fa, rng)
    omega = d3_after_d2(fa, phi)
    assert len(omega) == fa.dim
    assert len(omega[0][0][0][0]) == fa.dim


def test_delta3_is_nonzero_on_generic_c3_input():
    fa = free_acaa(3).algebra
    rng = random.Random(59)
    d = fa.dim
    psi = [[[None] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            for k in range(d):
                vec = tuple(Q.from_int(rng.randint(-3, 3)) for _ in range(d))
                psi[i][j][k] = vec
                psi[j][i][k] = vec
    psi = tuple(tuple(tuple(r) for r in plane) for plane in psi)
    assert not is_zero_tensor(delta3(fa, psi))


def test_delta3_rejects_asymmetric_input():
    h3 = entry("h3").algebra
    rng = random.Random(61)
    d = h3.dim
    psi = [[[tuple(Q.from_int(rng.randint(-2, 2)) for _ in range(d))
             for _ in range(d)] for _ in range(d)] for _ in range(d)]
    psi[0][1][0] = (Q.one, Q.zero, Q.zero)
    psi[1][0][0] = (Q.zero, Q.one, Q.zero)
    with pytest.raises(ValueError):
        delta3(h3, tuple(tuple(tuple(r) for r in p) for p in psi))


def test_g_map_values_on_free3():
    F = free_acaa(3)
    G = GradedAlgebra(F.algebra, F.degrees)
    g1 = g_map(G, 0)   # X1, degree 1
    assert tuple(g1.apply(F.generator(1).coords)) == F.monomial((0, 1)).coords
    g12 = g_map(G, 3)  # X12, degree 2
    assert all(v == Q.zero for v in g12.apply(F.monomial((0, 2)).coords))


def test_delta1_of_g_map_vanishes_on_degree_one_pairs():
    for n in (1, 2, 3):
        F = free_acaa(n)
        G = GradedAlgebra(F.algebra, F.degrees)
        for x in range(F.dim):
            d = delta1(F.algebra, g_map(G, x))
            for i in range(F.dim):
                for j in range(F.dim):
                    if G.degrees[i] == 1 and G.degrees[j] == 1:
                        assert not any(d[i][j]), (n, x, i, j)


def test_graded_algebra_validation():
    F = free_acaa(3)
    with pytest.raises(ValueError):
        GradedAlgebra(F.algebra, (1,) * 7)        # product lands in wrong degree
    with pytest.raises(ValueError):
        GradedAlgebra(F.algebra, (1, 1, 1, 2, 2, 2, 4))
    with pytest.raises(ValueError):
        GradedAlgebra(simple_lie_3(), (1, 1, 2))  # not acaa


def test_infer_grading():
    F = free_acaa(3)
    assert infer_grading(F.algebra).degrees == F.degrees
    assert infer_grading(entry("h3").algebra).degrees == (1, 1, 2)
    assert infer_grading(entry("abelian3").algebra).degrees == (1, 1, 1)


def test_d2_after_d1_kernel_is_the_full_endomorphism_space():
    # the composite, flattened to a matrix on End(h3), has full kernel
    from acaa.linalg import Matrix, span

    h3 = entry("h3").algebra
    d = h3.dim
    columns = []
    for a in range(d):
        for b in range(d):
            basis_endo = Matrix.build(Q, [[1 if (i, j) == (a, b) else 0
                                           for j in range(d)] for i in range(d)])
            psi = d2_after_d1(h3, basis_endo)
            columns.append([psi[i][j][k][m] for i in range(d) for j in range(d)
                            for k in range(d) for m in range(d)])
    composite = Matrix(Q, list(zip(*columns)))
    kernel = span(Q, composite.kernel_vectors(), d * d)
    full = span(Q, Matrix.identity(Q, d * d).entries, d * d)
    assert kernel == full


def test_random_cochains_are_seeded():
    h3 = entry("h3").algebra
    a = random_skew_cochain(h3, random.Random(9))
    b = random_skew_cochain(h3, random.Random(9))
    assert a == b
    assert is_skew(h3, a)


# --- the integer differentials against the field-element references ----------

def random_cochains(A, rng, density=1.0):
    """A random endomorphism, skew C^2 cochain and C^3 cochain symmetric in
    its first two slots, with fractional entries over Q."""
    F, d = A.field, A.dim

    def vec():
        return tuple(scalar(F, rng.randint(-3, 3), rng.randint(1, 4))
                     if rng.random() < density else F.zero for _ in range(d))
    f = Matrix(F, [vec() for _ in range(d)])
    phi = [[(F.zero,) * d] * d for _ in range(d)]
    psi = [[[None] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            if j > i:
                phi[i][j] = vec()
                phi[j][i] = tuple(-v for v in phi[i][j])
            for k in range(d):
                psi[i][j][k] = psi[j][i][k] = vec()
    return f, phi, psi


@st.composite
def algebras_with_cochains(draw):
    """A skew or plain random algebra (see conftest) with random cochains of
    varying density."""
    A = draw(st.one_of(skew_algebras(), plain_algebras()))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return (A,) + random_cochains(A, rng, draw(st.sampled_from((0.2, 0.6, 1.0))))


def first_nonzero_cell(t):
    """The first (i, j, k) with a nonzero vector, as the d2d1 CLI check reports it."""
    r = range(len(t))
    return next(((i, j, k) for i in r for j in r for k in r if any(t[i][j][k])), None)


@KERNEL_SETTINGS
@given(algebras_with_cochains())
def test_differentials_match_field_element_references(data):
    A, f, phi, psi = data
    assert delta1(A, f) == reference_delta1(A, f)
    assert delta2(A, phi) == reference_delta2(A, phi)
    assert delta3(A, psi) == reference_delta3(A, psi)
    d1 = reference_delta1(A, f)
    if is_skew(A, d1):
        dd = d2_after_d1(A, f)
        assert dd == reference_delta2(A, d1)
        assert first_nonzero_cell(dd) == first_nonzero_cell(reference_delta2(A, d1))
    else:
        with pytest.raises(ValueError, match="skew"):
            d2_after_d1(A, f)


def test_differentials_match_references_on_named_algebras():
    # ints, fractions and residues: the catalog, free3 over Q and F_5 and
    # basis-changed copies with fractional constants
    rng = random.Random(71)
    algebras = [e.algebra for e in all_entries()]
    algebras += [free_acaa(3).algebra, free_acaa(3, PrimeField(5)).algebra, simple_lie_3()]
    algebras += [change_basis(entry(name).algebra, random_invertible_over(Q, dim, rng))
                 for name, dim in (("h3+K", 4), ("h5", 5), ("L5", 5))]
    # a milder change of basis keeps the reference d3 on dimension 7 quick
    shear = Matrix.build(Q, [[Fraction(1, 2) if j == i + 1 else int(i == j) for j in range(7)]
                             for i in range(7)])
    algebras.append(change_basis(free_acaa(3).algebra, shear))
    for A in algebras:
        f, phi, psi = random_cochains(A, rng, 0.6 if A.dim < 6 else 0.15)
        assert delta1(A, f) == reference_delta1(A, f)
        assert d2_after_d1(A, f) == reference_delta2(A, reference_delta1(A, f))
        assert delta2(A, phi) == reference_delta2(A, phi)
        assert delta3(A, psi) == reference_delta3(A, psi)


def assert_half_equals_full(A, f, phi):
    """The differentials on the skew-marked A equal those on the same tensor
    without the hint, where every cell is computed; returns d2(d1 f)."""
    B = Algebra(A.field, A.dim, A.tensor)
    assert A.symmetry == "skew" and B.symmetry == "none"
    assert delta1(A, f) == delta1(B, f)
    for half, full in ((delta2(A, phi), delta2(B, phi)), (d2_after_d1(A, f), d2_after_d1(B, f))):
        assert half == full
        assert first_nonzero_cell(half) == first_nonzero_cell(full)
    return half


@KERNEL_SETTINGS
@given(skew_algebras(), st.integers(0, 2 ** 32), st.sampled_from((0.2, 0.6, 1.0)))
def test_skew_half_matches_the_full_scan(A, seed, density):
    # a skew-marked algebra computes half of each tensor and mirrors it;
    # the unmarked copy of the same tensor computes every cell
    f, phi, _ = random_cochains(A, random.Random(seed), density)
    assert_half_equals_full(A, f, phi)


def test_skew_half_matches_the_full_scan_on_the_cross_product():
    # so(3) fails the ACAA law, so d2 o d1 is nonzero there
    rng = random.Random(29)
    for F in FIELDS:
        A = Algebra.from_products(F, 3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
                                  skew=True)
        nonzero = 0
        for _ in range(10):
            f, phi, _ = random_cochains(A, rng)
            nonzero += first_nonzero_cell(assert_half_equals_full(A, f, phi)) is not None
        assert nonzero >= 8


def test_d2_after_d1_fails_on_the_cross_product_algebra():
    # a Lie algebra, not an ACAA: d2 o d1 need not vanish, over Q and F_5
    for F in (Q, PrimeField(5)):
        A = Algebra.from_products(F, 3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
                                  skew=True)
        f = Matrix.build(F, [[1, 0, 0], [0, 2, 0], [0, 0, 0]])
        dd = d2_after_d1(A, f)
        assert first_nonzero_cell(dd) is not None
        assert dd == reference_delta2(A, reference_delta1(A, f))


# --- infer_grading against the Subspace.contains route -----------------------

def reference_grading(A):
    """The degrees the former Subspace.contains route read off the
    filtration, and the GradedAlgebra error they give, if any."""
    derived, cube = (span(A.field, [[A.field.from_int(v) for v in row] for row in rows], A.dim)
                     for rows in derived_cube_rows(A))
    degrees = []
    for i in range(A.dim):
        e = A.basis(i).coords
        degrees.append(3 if cube.contains(e) else 2 if derived.contains(e) else 1)
    return grading_outcome(lambda: GradedAlgebra(A, tuple(degrees)))


def grading_outcome(build):
    try:
        return build().degrees
    except ValueError as exc:
        return str(exc)


def test_infer_grading_matches_subspace_route():
    rng = random.Random(73)
    algebras = [free_acaa(n, F).algebra for n in range(1, 6) for F in (Q, PrimeField(5))]
    algebras += [e.algebra for e in all_entries()]
    # in a random basis the filtration no longer fits the basis
    algebras += [change_basis(B, random_invertible_over(B.field, B.dim, rng))
                 for B in algebras[:6] + [entry("h5").algebra, entry("n6").algebra]]
    errors = 0
    for A in algebras:
        got = grading_outcome(lambda: infer_grading(A))
        assert got == reference_grading(A), A
        errors += isinstance(got, str)
    assert 0 < errors < len(algebras)


@KERNEL_SETTINGS
@given(skew_algebras())
def test_infer_grading_matches_subspace_route_on_random_tables(A):
    assert grading_outcome(lambda: infer_grading(A)) == reference_grading(A)


# --- the integer cyclic-sum scan and skew test against the field-element loops ---

def zero_algebra(field, d):
    return Algebra(field, d, [[[field.zero] * d for _ in range(d)] for _ in range(d)])


def freeze(cells, d):
    """A nested tuple tensor from a dict (i, j, ...) -> coordinate list."""
    def build(prefix):
        if len(prefix) == len(next(iter(cells))):
            return tuple(cells[prefix])
        return tuple(build(prefix + (i,)) for i in range(d))
    return build(())


def rotations(t):
    i, j, k = t
    return [(i, j, k), (j, k, i), (k, i, j)]


def random_trilinear(field, d, kind, rng, density):
    """A trilinear cochain as a dict (i, j, k) -> coordinate list.

    random: entries drawn with the given density (fractional over Q), which
    mostly fail early.  The other kinds start from chi - chi o rot, whose
    cyclic sums all vanish.  perturbed: one entry moved, which puts the
    witness anywhere.  planted: one orbit gets a nonzero entry at a rotation
    that is not its least triple, and another orbit gets entries whose
    residues sum to p (over Q: fractions summing to 0), which is no witness.
    """
    r = range(d)

    def value():
        return (scalar(field, rng.randint(-3, 3), rng.randint(1, 4))
                if rng.random() < density else field.zero)
    triples = [(i, j, k) for i in r for j in r for k in r]
    chi = {t: [value() for _ in r] for t in triples}
    if kind == "random":
        return chi
    psi = {t: [a - b for a, b in zip(chi[t], chi[rotations(t)[1]])] for t in triples}
    nonzero = [n for n in range(-2, 3) if field.from_int(n)]
    if kind == "perturbed":
        t, m = rng.choice(triples), rng.randrange(d)
        psi[t][m] += scalar(field, rng.choice(nonzero), rng.randint(1, 3))
    elif kind == "planted" and d > 1:
        spread = [t for t in triples if len(set(t)) > 1]
        t, m = rng.choice(spread), rng.randrange(d)
        psi[rng.choice(sorted(rotations(t))[1:])][m] += field.one
        t, m = rng.choice(spread), rng.randrange(d)
        p = field.characteristic
        a, b = (rng.randint(1, p - 1), rng.randint(1, p - 1)) if p else (
            Fraction(rng.randint(1, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), 3))
        for u, x in zip(rotations(t), (a, b, -a - b)):
            psi[u][m] += field.from_int(x) if p else x
    return psi


@KERNEL_SETTINGS
@given(st.sampled_from(FIELDS), st.integers(1, 4),
       st.sampled_from(("random", "balanced", "perturbed", "planted")),
       st.sampled_from((0.1, 0.5, 1.0)), st.integers(0, 2 ** 32))
def test_cyclic_sum_witness_matches_the_field_element_scan(field, d, kind, density, seed):
    psi = freeze(random_trilinear(field, d, kind, random.Random(seed), density), d)
    A = zero_algebra(field, d)
    assert cyclic_sum_witness(A, psi) == reference_cyclic_sum_witness(A, psi)


def test_cyclic_sum_witness_spread_over_many_inputs():
    # the seeded inputs reach many different witnesses as well as None
    rng = random.Random(83)
    seen = set()
    for _ in range(300):
        field, d = rng.choice(FIELDS), rng.randint(2, 4)
        kind = rng.choice(("balanced", "perturbed", "planted"))
        psi = freeze(random_trilinear(field, d, kind, rng, rng.choice((0.1, 0.5))), d)
        A = zero_algebra(field, d)
        w = cyclic_sum_witness(A, psi)
        assert w == reference_cyclic_sum_witness(A, psi)
        seen.add(w)
    assert None in seen and len(seen) > 15


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cyclic_sum_witness_is_the_least_rotation(field):
    # one nonzero orbit planted at (2, 0, 1), a later rotation of (0, 1, 2);
    # an earlier orbit whose entries sum to p (to 0 over Q) is no witness
    d = 3
    cells = {(i, j, k): [field.zero] * d for i in range(d) for j in range(d) for k in range(d)}
    cells[2, 0, 1][1] = field.from_int(2)
    p = field.characteristic or 7
    for t, x in zip(rotations((0, 0, 1)), (1, 1, p - 2)):
        cells[t][0] = field.from_int(x)
    if not field.characteristic:
        cells[0, 0, 1][0] = cells[0, 0, 1][0] - 7
    psi, A = freeze(cells, d), zero_algebra(field, d)
    assert cyclic_sum_witness(A, psi) == (0, 1, 2) == reference_cyclic_sum_witness(A, psi)


def random_bilinear(field, d, kind, rng):
    """A bilinear cochain as a dict (i, j) -> coordinate list: skew, skew with
    one entry moved on one side only, or skew with a nonzero diagonal entry.
    Over F_p some pairs are written as residues a and p - a."""
    p = field.characteristic
    phi = {(i, i): [field.zero] * d for i in range(d)}
    for i in range(d):
        for j in range(i + 1, d):
            phi[i, j] = [scalar(field, rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)]
            phi[j, i] = [-v for v in phi[i, j]]
            if p and rng.random() < 0.5:
                a = rng.randint(1, p - 1)
                phi[i, j][0], phi[j, i][0] = field.from_int(a), field.from_int(p - a)
    x = scalar(field, rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
    if kind == "perturbed" and d > 1:
        i, j = rng.sample(range(d), 2)
        phi[i, j][rng.randrange(d)] += x
    elif kind == "diagonal":
        phi[(rng.randrange(d),) * 2][rng.randrange(d)] = x
    return phi


@KERNEL_SETTINGS
@given(skew_algebras(max_dim=4), st.sampled_from(("skew", "perturbed", "diagonal")),
       st.integers(0, 2 ** 32))
def test_skew_test_matches_the_field_element_loop(A, kind, seed):
    phi = freeze(random_bilinear(A.field, A.dim, kind, random.Random(seed)), A.dim)
    skew = reference_is_skew(A, phi)
    assert is_skew(A, phi) == skew
    assert skew == (kind == "skew")
    if skew:
        assert delta2(A, phi) == reference_delta2(A, phi)
    else:
        with pytest.raises(ValueError, match="^cochain is not skew-symmetric$"):
            delta2(A, phi)


def test_skew_pair_of_residues_summing_to_p():
    F = PrimeField(5)
    A = zero_algebra(F, 2)
    zero = (F.zero, F.zero)
    phi = ((zero, (F.from_int(2), F.from_int(1))), ((F.from_int(3), F.from_int(4)), zero))
    assert is_skew(A, phi) and reference_is_skew(A, phi)
    assert is_zero_tensor(delta2(A, phi))
    bad = ((zero, (F.from_int(2), F.from_int(1))), ((F.from_int(3), F.from_int(3)), zero))
    assert not is_skew(A, bad) and not reference_is_skew(A, bad)
