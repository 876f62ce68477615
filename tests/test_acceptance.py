"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every numeric claim is
exact (Fraction or residue equality); the time budgets are asserted too.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from acaa.algebra import (change_basis, check_acaa, check_quadratic_identity,
                          fingerprint, jacobi_coeffs, quadratic_identity_value,
                          random_element)
from acaa.catalog import all_entries, catalog, entry, enumerate_finite, recognize
from acaa.cohomology import (GradedAlgebra, cyclic_sum_witness, d2_after_d1,
                             delta1, delta2, g_map, is_sym12, is_zero_tensor,
                             random_endomorphism, random_skew_cochain)
from acaa.fields import Q
from acaa.free import free_acaa
from acaa.linalg import random_invertible
from acaa.operad import (cyclic_relation_matrix, dual_relations_force_nilpotency,
                         pairing_matrix)
from acaa.reps import (ad_matrix, adjoint_representation, check_ad_identities,
                       check_representation, check_weighted_antiderivation,
                       h3_faithfulness_search, is_faithful)
from acaa.series import (acaa_generating_series, dual_generating_series,
                         koszul_residual, minimal_model_series)

from conftest import reference_check_ad_identities, seven_dim_table


@contextmanager
def criterion(num, desc, budget):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({desc}): FAIL ({time.monotonic() - start:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({desc}): {status} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_01_minimal_model_series():
    with criterion(1, "minimal-model series", 1.0):
        u = minimal_model_series(6)
        assert u.coeffs == (Fraction(-1), Fraction(1, 2), Fraction(-1, 3),
                            Fraction(5, 24), Fraction(-1, 12), Fraction(-7, 144))


def test_criterion_02_koszul_residual():
    with criterion(2, "non-Koszulity residual", 1.0):
        res = koszul_residual(acaa_generating_series(6),
                              dual_generating_series(6), 6)
        assert not res.is_zero()
        assert res.coeff(2) == Fraction(1)


def test_criterion_03_free_algebra_dimensions():
    with criterion(3, "free-algebra dimensions", 1.0):
        dims = []
        for n in range(1, 6):
            F = free_acaa(n)
            dims.append(F.dim)
            assert check_acaa(F.algebra) is None
        assert dims == [1, 3, 7, 14, 25]


def test_criterion_04_classification_oracle():
    with criterion(4, "mod-p classification oracle", 60.0):
        assert enumerate_finite(2, 3)[1] == 1
        assert enumerate_finite(3, 3)[1] == 2
        assert enumerate_finite(3, 5)[1] == 2


def test_criterion_05_catalog_integrity():
    with criterion(5, "catalog integrity and recognition", 30.0):
        expected = {
            "abelian2": (2, 0, 2, 0), "abelian3": (3, 0, 3, 0),
            "h3": (3, 1, 1, 0), "abelian4": (4, 0, 4, 0),
            "h3+K": (4, 1, 2, 0), "abelian5": (5, 0, 5, 0),
            "h3+K2": (5, 1, 3, 0), "L5": (5, 2, 2, 0), "h5": (5, 1, 1, 0),
        }
        for e in all_entries():
            assert check_acaa(e.algebra) is None, e.name
            assert fingerprint(e.algebra) == e.fingerprint, e.name
        by_dim = {}
        for e in all_entries():
            by_dim.setdefault(e.algebra.dim, []).append(e.fingerprint.as_tuple())
        for fps in by_dim.values():
            assert len(set(fps)) == len(fps)
        rng = random.Random(20240817)
        for dim in (2, 3, 4, 5):
            for e in catalog(dim):
                assert e.fingerprint.as_tuple() == expected[e.name]
                for _ in range(50):
                    P = random_invertible(Q, e.algebra.dim, rng)
                    assert recognize(change_basis(e.algebra, P)) == e.name, e.name


def test_criterion_06_non_lie_example():
    with criterion(6, "free(3) is a non-Lie example", 1.0):
        F = free_acaa(3)
        assert check_acaa(F.algebra) is None
        assert check_quadratic_identity(F.algebra, jacobi_coeffs(Q)) == (0, 1, 2)
        value = quadratic_identity_value(F.algebra, jacobi_coeffs(Q),
                                         F.generator(0), F.generator(1),
                                         F.generator(2))
        assert value == 3 * F.monomial((0, 1, 2))
        assert F.algebra.tensor == seven_dim_table().tensor


def test_criterion_07_operator_identities():
    with criterion(7, "adjoint operator identities", 5.0):
        rng = random.Random(7001)
        for e in all_entries():
            A = e.algebra
            assert check_ad_identities(A) is None, e.name
            assert reference_check_ad_identities(A) is None, e.name
            for _ in range(20):
                x = random_element(A, rng)
                adx = ad_matrix(A, x)
                assert (adx * adx).is_zero()
                assert check_weighted_antiderivation(A, adx, 2) is None


def test_criterion_08_representation_axiom():
    with criterion(8, "representation axiom and h3 search", 120.0):
        for e in all_entries():
            rep = adjoint_representation(e.algebra)
            assert check_representation(rep) is None, e.name
        assert is_faithful(adjoint_representation(entry("h3").algebra)) is False
        assert is_faithful(adjoint_representation(entry("free3").algebra)) is False
        assert h3_faithfulness_search(3, 3) is None
        assert h3_faithfulness_search(5, 3) is None


def test_criterion_09_cohomology():
    with criterion(9, "cochain differential laws", 30.0):
        rng = random.Random(9001)
        for e in all_entries():
            A = e.algebra
            for _ in range(50):
                f = random_endomorphism(A, rng)
                assert is_zero_tensor(d2_after_d1(A, f)), e.name
            for _ in range(50):
                phi = random_skew_cochain(A, rng)
                psi = delta2(A, phi)
                assert is_sym12(A, psi), e.name
                assert cyclic_sum_witness(A, psi) is None, e.name
        for n in (1, 2, 3):
            F = free_acaa(n)
            G = GradedAlgebra(F.algebra, F.degrees)
            for x in range(F.dim):
                d = delta1(F.algebra, g_map(G, x))
                for i in range(F.dim):
                    for j in range(F.dim):
                        if G.degrees[i] == 1 and G.degrees[j] == 1:
                            assert not any(d[i][j])


def test_criterion_10_dual_operad_nilpotency():
    with criterion(10, "dual relations and pairing matrix", 1.0):
        assert cyclic_relation_matrix(Q).rank() == 3
        assert dual_relations_force_nilpotency()
        P = pairing_matrix()
        expected_diag = [1, -1, -1, -1, 1, 1, -1, 1, 1, 1, -1, -1]
        for i in range(12):
            for j in range(12):
                want = Q.from_int(expected_diag[i]) if i == j else Q.zero
                assert P.entries[i][j] == want
