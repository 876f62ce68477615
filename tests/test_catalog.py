import random
import types
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from acaa.algebra import (change_basis, check_acaa, check_quadratic_identity,
                          fingerprint, jacobi_coeffs)
from acaa.catalog import (_gl_generators, _gl_order, _linear_images, _orbits, _scan,
                          _staged_filter, _tensor_images, all_entries, catalog,
                          entry, enumerate_finite, recognize)
from acaa.fields import PrimeField, Q
from acaa.linalg import random_invertible
from acaa.reps import _square_zero

from conftest import simple_lie_3


def gl_order(dim, p):
    order = 1
    for k in range(dim):
        order *= p ** dim - p ** k
    return order


def test_catalog_sizes():
    assert [e.name for e in catalog(2)] == ["abelian2"]
    assert [e.name for e in catalog(3)] == ["abelian3", "h3"]
    assert [e.name for e in catalog(4)] == ["abelian4", "h3+K"]
    assert [e.name for e in catalog(5)] == ["abelian5", "h3+K2", "L5", "h5"]


def test_catalog_rejects_unsupported_dim():
    for dim in (0, 1, 6, 7):
        with pytest.raises(ValueError, match=f"no classification list for dimension {dim};"):
            catalog(dim)


def test_extras_exposed_by_name():
    assert entry("free3").algebra.dim == 7
    assert entry("n6").algebra.dim == 6
    with pytest.raises(ValueError):
        entry("nope")


def test_every_entry_is_acaa_with_expected_fingerprint():
    for e in all_entries():
        assert check_acaa(e.algebra) is None, e.name
        assert fingerprint(e.algebra) == e.fingerprint, e.name


def test_fingerprints_distinct_within_dimension():
    by_dim = {}
    for e in all_entries():
        by_dim.setdefault(e.algebra.dim, []).append(e.fingerprint.as_tuple())
    for dim, fps in by_dim.items():
        assert len(set(fps)) == len(fps), dim


def test_lie_entries_satisfy_jacobi_free3_does_not():
    for e in all_entries():
        w = check_quadratic_identity(e.algebra, jacobi_coeffs(Q))
        if e.name == "free3":
            assert w is not None
            assert e.fingerprint.cube_dim == 1
        else:
            assert w is None
            assert e.fingerprint.cube_dim == 0


def test_recognize_after_seeded_basis_changes():
    rng = random.Random(1729)
    for dim in (2, 3, 4, 5):
        for e in catalog(dim):
            for _ in range(10):
                P = random_invertible(Q, e.algebra.dim, rng)
                assert recognize(change_basis(e.algebra, P)) == e.name


def test_recognize_direct_sums():
    from acaa.algebra import Algebra, direct_sum

    h3 = entry("h3").algebra
    K = Algebra.from_products(Q, 1, {}, skew=True)
    assert recognize(direct_sum(h3, K)) == "h3+K"
    assert recognize(direct_sum(direct_sum(h3, K), K)) == "h3+K2"
    assert recognize(entry("abelian4").algebra) == "abelian4"


def test_recognize_preconditions():
    with pytest.raises(ValueError):
        recognize(entry("n6").algebra)          # dim 6 not covered
    with pytest.raises(ValueError):
        recognize(simple_lie_3())               # not acaa
    from acaa.algebra import Algebra

    mod5 = Algebra.from_products(PrimeField(5), 3, {(0, 1): {2: 1}}, skew=True)
    with pytest.raises(ValueError):
        recognize(mod5)                         # wrong field


def test_enumerate_dim2():
    assert enumerate_finite(2, 3) == (1, 1)
    assert enumerate_finite(2, 5) == (1, 1)


def test_enumerate_dim3_mod3_matches_orbit_counting():
    acaa_count, classes = enumerate_finite(3, 3)
    assert classes == 2
    # the nonabelian class is one GL-orbit; its stabilizer is the
    # automorphism group of the Heisenberg algebra, of order |GL(2,p)| p^2
    expected = 1 + gl_order(3, 3) // (gl_order(2, 3) * 9)
    assert acaa_count == expected == 27


def test_enumerate_dim3_mod5():
    assert enumerate_finite(3, 5) == (125, 2)


def reference_decode(codes, count, p):
    # the former int64 divmod decode
    out = np.empty((count, len(codes)), dtype=np.int64)
    c = np.asarray(codes, dtype=np.int64)
    for q in range(count):
        c, out[q] = np.divmod(c, p)
    return out.T


def as_array(buffer, n):
    """A row-major buffer of n-digit rows as an int8 array of shape (rows, n)."""
    assert len(buffer) % n == 0
    return np.frombuffer(buffer, dtype=np.int8).reshape(-1, n)


def encode(rows, p):
    """The int64 codes of a list of digit rows, digit q of weight p^q."""
    n = len(rows[0])
    return as_array(b"".join(rows), n).astype(np.int64) @ p ** np.arange(n, dtype=np.int64)


def assert_decode_matches_divmod(rows, codes, count, p):
    assert rows.dtype == np.int8 and rows.shape == (len(codes), count)
    assert np.array_equal(rows, reference_decode(codes, count, p))


def test_decode_is_int8_and_matches_divmod_on_all_of_f3_9():
    # with no equations the filter keeps every point, in code order, as one
    # row-major buffer of 9-digit rows
    rows = _staged_filter([], 9, 3)
    assert type(rows) is bytes and len(rows) == 9 * 3 ** 9
    assert_decode_matches_divmod(as_array(rows, 9), np.arange(3 ** 9, dtype=np.int64), 9, 3)


def test_decode_matches_divmod_on_random_codes_mod5():
    rng = np.random.default_rng(7)
    codes = np.concatenate([rng.integers(0, 5 ** 9, 50000), [0, 5 ** 9 - 1]])
    assert_decode_matches_divmod(as_array(_staged_filter([], 9, 5), 9)[codes], codes, 9, 5)


def test_decode_matches_divmod_on_non_contiguous_survivor_codes():
    # the filter sets each new digit as the most significant, so its points
    # come out in code order, with gaps where tensors were dropped
    survivors = _scan(3, 5)
    assert all(type(row) is bytes and len(row) == 9 for row in survivors)
    codes = encode(survivors, 5)
    assert len(survivors) == 125 and (np.diff(codes) > 0).all() and (np.diff(codes) > 1).any()
    assert_decode_matches_divmod(as_array(b"".join(survivors), 9), codes, 9, 5)
    codes = np.arange(5 ** 9, dtype=np.int64)[::997]
    rows = [r.astype(np.int8).tobytes() for r in reference_decode(codes, 9, 5)]
    assert np.array_equal(encode(rows, 5), codes)


def reference_acaa_mask(C, dim, p, pairs):
    # every basis-triple check on every tensor, in int64, with no staging
    C = C.astype(np.int64)
    n = C.shape[0]
    pair_index = {pr: q for q, pr in enumerate(pairs)}

    def basis_bracket(i, m):
        if i == m:
            return None
        if i < m:
            return 1, pair_index[(i, m)]
        return -1, pair_index[(m, i)]

    ok = np.ones(n, dtype=bool)
    for i in range(dim):
        for k in range(i, dim):
            for j in range(dim):
                acc = np.zeros((n, dim), dtype=np.int64)
                for outer, inner_pair in ((i, (j, k)), (k, (j, i))):
                    b1 = basis_bracket(*inner_pair)
                    if b1 is None:
                        continue
                    s1, q1 = b1
                    for m in range(dim):
                        b2 = basis_bracket(outer, m)
                        if b2 is None:
                            continue
                        s2, q2 = b2
                        term = C[:, q1, m, None] * C[:, q2, :]
                        if s1 * s2 > 0:
                            acc += term
                        else:
                            acc -= term
                ok &= (acc % p == 0).all(axis=1)
    return ok


def assert_scan_matches_reference(codes, survivors, dim, p):
    """The codes among ``codes`` that the reference keeps are exactly those
    in ``survivors``; returns how many there are."""
    pairs = list(combinations(range(dim), 2))
    C = reference_decode(codes, len(pairs) * dim, p).reshape(len(codes), len(pairs), dim)
    want = reference_acaa_mask(C, dim, p, pairs)
    assert np.array_equal(np.isin(codes, survivors), want)
    return int(want.sum())


@pytest.mark.parametrize("dim,p", [(2, 3), (2, 5), (3, 3)])
def test_staged_mask_matches_reference_on_whole_space(dim, p):
    total = p ** (dim * (dim * (dim - 1) // 2))
    survivors = encode(_scan(dim, p), p)
    assert (np.diff(survivors) > 0).all()
    kept = assert_scan_matches_reference(np.arange(total, dtype=np.int64), survivors, dim, p)
    assert kept == len(survivors) == (1 if dim == 2 else p ** 3)


def omega_z_codes(p):
    """Codes of the tensors omega (x) z over F_p^3: omega a skew form, read
    as its values on the pairs (0,1), (0,2), (1,2), and z in its radical,
    found by trying every vector."""
    codes = set()
    for w in np.ndindex(p, p, p):
        form = np.zeros((3, 3), dtype=np.int64)
        for (i, j), v in zip(combinations(range(3), 2), w):
            form[i, j], form[j, i] = v, -v
        for z in np.ndindex(p, p, p):
            if (form @ np.array(z) % p == 0).all():
                digits = [w[q] * z[r] % p for q in range(3) for r in range(3)]
                codes.add(sum(x * p ** e for e, x in enumerate(digits)))
    return sorted(codes)


def test_staged_mask_matches_reference_on_random_mod5_chunks():
    rng = np.random.default_rng(11)
    total = 5 ** 9
    survivors = encode(_scan(3, 5), 5)
    for _ in range(3):
        lo = int(rng.integers(0, total - 4096))
        assert_scan_matches_reference(np.arange(lo, lo + 4096, dtype=np.int64),
                                      survivors, 3, 5)
    # every survivor, and the all-(p - 1) tensor, which has the largest
    # products
    assert assert_scan_matches_reference(survivors, survivors, 3, 5) == len(survivors)
    assert assert_scan_matches_reference(np.array([total - 1]), survivors, 3, 5) == 0
    # the survivors are the p^3 tensors omega (x) z
    assert survivors.tolist() == omega_z_codes(5)
    assert len(survivors) == 5 ** 3


@pytest.mark.parametrize("dim", [2, 3])
def test_scan_equations_keep_lane_sums_below_256(monkeypatch, dim):
    # each term reads its two digits as one lane 8 x_a + x_b, so digits stay
    # below 8; each term adds at most p - 1 to its equation's lane, so the
    # sum stays below 256: here at most 4 * 4 = 16 for p <= 5
    import acaa.catalog as m

    seen = []

    def recording(equations, n, p):
        seen.append((list(equations), n, p))
        return filter_(equations, n, p)

    filter_ = m._staged_filter
    monkeypatch.setattr(m, "_staged_filter", recording)
    for p in (3, 5):
        assert enumerate_finite(dim, p) == ((1, 1) if dim == 2 else (p ** 3, 2))
    assert [p for _, _, p in seen] == [3, 5]
    for equations, n, p in seen:
        assert len(equations) == dim * len(list(combinations(range(dim), 2))) * dim
        for eq in equations:
            assert 0 < len(eq) <= 2 * (dim - 1)
            assert all(sign in (1, -1) and 0 <= a < n and 0 <= b < n for sign, a, b in eq)
            assert p - 1 < 8 and len(eq) * (p - 1) < 256


def test_staged_filter_refuses_digits_or_sums_that_overflow_a_lane():
    # a digit of 8 or more spills out of its 3 bits of the term lane
    with pytest.raises(ValueError, match="overflow the 8-bit digit lanes"):
        _staged_filter([[(1, 0, 1)]], 2, 11)
    # 42 terms of at most 6 sum to 252 < 256; 43 would reach 258
    eq = [(1, 0, 1)] * 41 + [(-1, 0, 0)]
    kept = _staged_filter([eq], 2, 7)
    assert as_array(kept, 2).tolist() == [[a, b] for b in range(7) for a in range(7)
                                          if (41 * a * b - a * a) % 7 == 0]
    with pytest.raises(ValueError, match="overflow the 8-bit digit lanes"):
        _staged_filter([eq + [(1, 1, 1)]], 2, 7)
    # and 64 terms of at most 4 reach 256 exactly
    with pytest.raises(ValueError, match="overflow the 8-bit digit lanes"):
        _staged_filter([[(1, 0, 1)] * 64], 2, 5)


def random_equation(rng, n):
    """1-4 signed terms over the digits of F_p^n: any digits, only the upper
    half of them, or only the last one."""
    digits = rng.choice((range(n), range(n // 2, n), [n - 1]))
    return [(rng.choice((1, -1)), rng.choice(digits), rng.choice(digits))
            for _ in range(rng.randint(1, 4))]


def test_staged_filter_matches_brute_force_on_random_systems():
    # every point of F_p^n listed by itertools.product, last digit slowest,
    # so that reversing each tuple gives the rows in code order
    rng = random.Random(24)
    for _ in range(300):
        p, n = rng.choice((3, 5, 7)), rng.randint(1, 5)
        equations = [random_equation(rng, n) for _ in range(rng.randint(0, 4))]
        points = (x[::-1] for x in product(range(p), repeat=n))
        want = b"".join(bytes(x) for x in points
                        if all(sum(s * x[a] * x[b] for s, a, b in eq) % p == 0
                               for eq in equations))
        assert _staged_filter(equations, n, p) == want, (p, n, equations)


@pytest.mark.parametrize("n,m,p", [(9, 9, 3), (9, 9, 5), (9, 3, 5), (15, 4, 5), (7, 7, 7),
                                   (4, 4, 7)])
def test_linear_images_match_the_integer_matrix_product(n, m, p):
    # every lane of an image sums at most n (p - 1)^2 < 256: 144 at (9, 5),
    # 240 at (15, 5) and 252 at (7, 7), the all-(p - 1) matrix and digits
    # included
    rng = np.random.default_rng(31 * n + p)
    X = np.concatenate([rng.integers(0, p, size=(300, n)), np.full((1, n), p - 1)])
    for M in (rng.integers(-2 * p, 2 * p, size=(m, n)), np.full((m, n), p - 1)):
        got = _linear_images(M.tolist(), [bytes(x.tolist()) for x in X], p)
        assert np.array_equal(as_array(b"".join(got), m), (X @ M.T) % p)


def test_linear_images_refuse_lanes_of_256_or_more():
    # n (p - 1)^2 = 9 * 36 = 324, 8 * 36 = 288 and 16 * 16 = 256 would carry
    # into the next lane
    for n, p in ((9, 7), (8, 7), (3, 11), (16, 5)):
        with pytest.raises(ValueError, match="overflow the 8-bit lanes"):
            _linear_images([[1] * n], [bytes(n)], p)


def test_enumerate_parameter_validation():
    with pytest.raises(ValueError):
        enumerate_finite(4, 3)
    with pytest.raises(ValueError):
        enumerate_finite(3, 2)
    with pytest.raises(ValueError):
        enumerate_finite(3, 7)


def test_enumerate_jobs_partition_is_deterministic():
    assert enumerate_finite(3, 3, jobs=3) == enumerate_finite(3, 3)


@pytest.mark.parametrize("dim,p,order", [(2, 3, 48), (2, 5, 480), (3, 3, 11232)])
def test_generators_close_to_all_of_gl(dim, p, order):
    # certificate for the generating set: the closure of the identity under
    # the generators is the whole group, counted by the product formula
    gens = [(np.array(g), np.array(ginv)) for g, ginv in _gl_generators(dim, p)]
    identity = np.eye(dim, dtype=np.int64)
    for g, ginv in gens:
        assert ((g @ ginv) % p == identity).all()
    seen = {identity.tobytes()}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g, _ in gens:
                h = (g @ m) % p
                if h.tobytes() not in seen:
                    seen.add(h.tobytes())
                    nxt.append(h)
        frontier = nxt
    assert len(seen) == order == gl_order(dim, p) == _gl_order(dim, p)


def matmul_mod(A, B, p):
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]


@pytest.mark.parametrize("dim,p", [(2, 3), (2, 5), (3, 3), (3, 5)])
def test_generators_express_every_transvection_and_the_diagonal(dim, p):
    # certificate at every (dim, p) the oracle serves, (3, 5) included,
    # where closing all of GL is too costly: every I + E_ij (i != j) is a
    # word in the three generators, and diag(g, 1, ..., 1) is one of them;
    # those matrices generate GL (row reduction, and the determinant split)
    (s, s_inv), (t, t_inv), (d, d_inv) = gens = _gl_generators(dim, p)
    eye = [[int(a == b) for b in range(dim)] for a in range(dim)]
    for g, ginv in gens:
        assert matmul_mod(g, ginv, p) == matmul_mod(ginv, g, p) == eye

    def word(*mats):
        out = eye
        for m in mats:
            out = matmul_mod(out, m, p)
        return out

    # each word is kept with its inverse, itself a word
    words, pair = {}, (t, t_inv)
    for k in range(dim):  # s^k (I + E_01) s^-k
        words[(k, (k + 1) % dim)] = pair
        pair = word(s, pair[0], s_inv), word(s, pair[1], s_inv)
    for m in range(2, dim):  # commutators of I + E_(i, i+m-1) and I + E_(i+m-1, i+m)
        for i in range(dim):
            h, j = (i + m - 1) % dim, (i + m) % dim
            (x, x_inv), (y, y_inv) = words[(i, h)], words[(h, j)]
            words[(i, j)] = word(x, y, x_inv, y_inv), word(y, x, y_inv, x_inv)
    assert sorted(words) == [(i, j) for i in range(dim) for j in range(dim) if i != j]
    for (i, j), (w, w_inv) in words.items():
        assert w == [[int(a == b) + ((a, b) == (i, j)) for b in range(dim)] for a in range(dim)]
        assert matmul_mod(w, w_inv, p) == eye
    root = d[0][0]
    assert d == [[root if a == b == 0 else int(a == b) for b in range(dim)] for a in range(dim)]
    assert len({pow(root, k, p) for k in range(1, p)}) == p - 1
    assert all(len({pow(g, k, p) for k in range(1, p)}) < p - 1 for g in range(1, root))


def orbit_case(kind, p):
    """Points and their images under each generator: the (3, p) survivors
    under the tensor action, or the 3x3 square-zero matrices under
    conjugation, formed in int64 matrix products."""
    if kind == "tensors":
        points = _scan(3, p)
        return points, _tensor_images(points, 3, p)
    points = _square_zero(p, 3)
    M = as_array(b"".join(points), 9).astype(np.int64).reshape(-1, 3, 3)
    return points, [[m.astype(np.uint8).tobytes()
                     for m in (np.array(g) @ M @ np.array(ginv) % p).reshape(-1, 9)]
                    for g, ginv in _gl_generators(3, p)]


@pytest.mark.parametrize("kind", ["tensors", "square_zero"])
@pytest.mark.parametrize("p", [3, 5])
def test_orbits_match_undirected_components(kind, p):
    # second route: join each point to its images and preimages under every
    # generator, label the undirected components, and root each point at the
    # least index of its component
    points, images = orbit_case(kind, p)
    index = {x: i for i, x in enumerate(points)}
    neighbours = [[] for _ in points]
    for image in images:
        for a, y in enumerate(image):
            b = index[y]
            neighbours[a].append(b)
            neighbours[b].append(a)
    # each component is labelled by its greatest index, then mapped to its least
    label = [None] * len(points)
    for start in reversed(range(len(points))):
        if label[start] is None:
            label[start], stack = start, [start]
            while stack:
                for b in neighbours[stack.pop()]:
                    if label[b] is None:
                        label[b] = start
                        stack.append(b)
    least = {}
    for i, c in enumerate(label):
        least.setdefault(c, i)
    want = [least[label[i]] for i in range(len(points))]
    assert _orbits(points, images, _gl_order(3, p)) == want


@pytest.mark.parametrize("dim,p", [(2, 5), (3, 3), (3, 5)])
def test_tensor_images_match_the_bilinear_action(dim, p):
    # g^-1 c(g e_a, g e_b) expanded over the full skew tensor, against the
    # action's matrix of 2x2 minors, on random tensors
    pairs = list(combinations(range(dim), 2))
    rng = np.random.default_rng(dim * p)
    C = rng.integers(0, p, size=(200, len(pairs), dim))
    T = np.zeros((200, dim, dim, dim), dtype=np.int64)
    for q, (i, j) in enumerate(pairs):
        T[:, i, j], T[:, j, i] = C[:, q], -C[:, q]
    rows = [bytes(c.ravel().tolist()) for c in C]
    firsts, seconds = [a for a, _ in pairs], [b for _, b in pairs]
    for (g, ginv), images in zip(_gl_generators(dim, p), _tensor_images(rows, dim, p)):
        full = np.einsum("ia,jb,nijm,km->nabk", g, g, T, ginv) % p
        got = as_array(b"".join(images), len(pairs) * dim).reshape(200, len(pairs), dim)
        assert np.array_equal(got, full[:, firsts, seconds])


@pytest.mark.parametrize("p", [3, 5])
def test_enumerate_dim3_orbit_sizes(p):
    survivors = _scan(3, p)
    roots = _orbits(survivors, _tensor_images(survivors, 3, p), _gl_order(3, p))
    assert sorted(Counter(roots).values()) == [1, p ** 3 - 1]
    # each root is the least index of its orbit
    assert sorted(set(roots)) == [0, 1] and all(r <= i for i, r in enumerate(roots))


def test_orbit_closure_rejects_a_set_that_is_not_gl_invariant():
    survivors = _scan(3, 3)
    with pytest.raises(RuntimeError, match="orbit left the filtered set"):
        _orbits(survivors[:-1], _tensor_images(survivors[:-1], 3, 3), _gl_order(3, 3))


def test_orbits_reject_a_size_that_does_not_divide_the_group_order():
    survivors = _scan(3, 3)
    images = _tensor_images(survivors, 3, 3)
    # orbit sizes 1 and 26; 26 divides |GL(3, 3)| = 11,232 but not 11,231
    assert len(set(_orbits(survivors, images, 11232))) == 2
    with pytest.raises(RuntimeError, match="fail orbit-stabilizer"):
        _orbits(survivors, images, 11231)


def test_package_attribute_catalog_is_the_module():
    import acaa.catalog as m

    assert isinstance(m, types.ModuleType)
    assert m.catalog(2)[0].name == "abelian2"
