from fractions import Fraction

import pytest

from acaa.fields import FpElement, PrimeField, Q, field_from_json, field_to_json, is_prime


def test_rational_parse_and_format():
    assert Q.parse("3/4") == Fraction(3, 4)
    assert Q.parse("-5") == Fraction(-5)
    assert Q.to_json(Fraction(-1, 3)) == "-1/3"
    assert Q.to_json(Fraction(7)) == "7"


def test_rational_is_exact():
    x = Fraction(1, 3)
    assert 3 * x == 1
    assert (x + x + x).denominator == 1


def test_prime_field_arithmetic():
    F5 = PrimeField(5)
    a, b = F5.from_int(3), F5.from_int(4)
    assert (a + b).r == 2
    assert (a * b).r == 2
    assert (a - b).r == 4
    assert (-a).r == 2
    assert (a / b).r == (3 * pow(4, 3, 5)) % 5
    assert (b / b) == F5.one


def test_prime_field_rejects_mixed_moduli():
    a = PrimeField(3).from_int(1)
    b = PrimeField(5).from_int(1)
    with pytest.raises(ValueError):
        a + b


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-3, 10 ** 4) if is_prime(n)] == [
        n for n in range(-3, 10 ** 4) if trial(n)]


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers, and the least strong pseudoprime to every prime
    # base up to 37, which base 41 exposes
    for n in (561, 1105, 1729, 2465, 2821, 6601, 318665857834031151167461):
        assert not is_prime(n), n
    for n in (10 ** 18 + 3, 2 ** 61 - 1, 2 ** 31 - 1):
        assert is_prime(n), n


def test_is_prime_refuses_beyond_its_exact_range():
    from acaa.fields import PRIME_LIMIT

    assert not is_prime(PRIME_LIMIT - 1)
    with pytest.raises(ValueError):
        is_prime(PRIME_LIMIT)
    with pytest.raises(ValueError):
        field_from_json({"type": "Fp", "p": 2 ** 89 - 1})
    assert field_from_json({"type": "Fp", "p": 10 ** 18 + 3}).p == 10 ** 18 + 3


def test_characteristic():
    assert Q.characteristic == 0
    assert PrimeField(7).characteristic == 7


def test_field_json_round_trip():
    assert field_from_json(field_to_json(Q)) == Q
    assert field_from_json(field_to_json(PrimeField(5))) == PrimeField(5)


def test_fp_division_by_zero():
    F3 = PrimeField(3)
    with pytest.raises(ZeroDivisionError):
        F3.one / F3.zero


def test_fp_element_bool_and_eq():
    F3 = PrimeField(3)
    assert not F3.zero
    assert F3.from_int(4) == F3.one
    assert FpElement(3, -1).r == 2


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_fp_arithmetic_matches_int_arithmetic_mod_p(p):
    from acaa.algebra import Algebra

    F = PrimeField(p)
    for a in range(-p, 2 * p):
        for b in range(-p, 2 * p):
            x, y = F.from_int(a), F.from_int(b)
            assert (x + y).r == (a + b) % p
            assert (x - y).r == (a - b) % p
            assert (x * y).r == (a * b) % p
            if b % p:
                assert ((x / y) * y).r == a % p
    # an operand that is not an FpElement gets its own reflected method
    A = Algebra.from_products(F, 2, {(0, 1): {0: 1}}, skew=True)
    v = A.element([1, p - 1])
    for a in range(p):
        c = F.from_int(a)
        assert (c * v).coords == (v * c).coords == (c, F.from_int(-a))
    with pytest.raises(TypeError):
        F.one + 1
    with pytest.raises(ValueError):
        F.one * PrimeField(11).one


def test_rational_coerce_refuses_division_by_zero():
    assert Q.coerce("-3/4") == Fraction(-3, 4)
    with pytest.raises(ValueError, match="divides by zero"):
        Q.coerce("1/0")
