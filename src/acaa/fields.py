"""Exact scalars: arbitrary-precision rationals and prime-field residues.

Every scalar in the workbench is either a ``fractions.Fraction`` (over Q)
or an ``FpElement`` (over F_p).  Field objects construct, coerce and
serialize their elements; nothing here ever rounds.
"""

from fractions import Fraction


# Miller-Rabin with the prime bases up to 41 decides primality exactly for
# every n below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for n >= PRIME_LIMIT, where
    these bases no longer decide primality."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"{n} is beyond the exact primality test (n < {PRIME_LIMIT})")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """A residue in [0, p).  Mixing moduli is an error, never a coercion; an
    operand that is not an FpElement gets NotImplemented, so that its own
    reflected method runs (an Element scales itself)."""

    __slots__ = ("p", "r")

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r % p

    def _same_field(self, other):
        if other.p != self.p:
            raise ValueError(f"cannot combine F_{self.p} value with {other!r}")
        return other

    def __add__(self, other):
        if not isinstance(other, FpElement):
            return NotImplemented
        return FpElement(self.p, self.r + self._same_field(other).r)

    def __sub__(self, other):
        if not isinstance(other, FpElement):
            return NotImplemented
        return FpElement(self.p, self.r - self._same_field(other).r)

    def __mul__(self, other):
        if not isinstance(other, FpElement):
            return NotImplemented
        return FpElement(self.p, self.r * self._same_field(other).r)

    def __truediv__(self, other):
        if not isinstance(other, FpElement):
            return NotImplemented
        self._same_field(other)
        if other.r == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.p, self.r * pow(other.r, self.p - 2, self.p))

    def __neg__(self):
        return FpElement(self.p, -self.r)

    def __eq__(self, other):
        return isinstance(other, FpElement) and other.p == self.p and other.r == self.r

    def __hash__(self):
        return hash((self.p, self.r))

    def __bool__(self):
        return self.r != 0

    def __repr__(self):
        return f"FpElement({self.p}, {self.r})"

    def __str__(self):
        return str(self.r)


class RationalField:
    """The rationals.  Elements are ``Fraction`` values in lowest terms."""

    kind = "Q"
    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, v) -> Fraction:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, (int, str)):
            return self.parse(v)
        raise ValueError(f"cannot coerce {v!r} into Q")

    def parse(self, v) -> Fraction:
        """Read a serialized value: a string like ``"-3/4"`` or ``"5"``.
        JSON ``true``/``false`` are refused, though ``bool`` is an ``int``."""
        if isinstance(v, (str, int)) and not isinstance(v, bool):
            try:
                return Fraction(v)
            except ZeroDivisionError:
                raise ValueError(f"rational literal {v!r} divides by zero") from None
        raise ValueError(f"bad rational literal {v!r}")

    def to_json(self, x: Fraction):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p for a prime p.  Elements are ``FpElement`` residues."""

    kind = "Fp"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = FpElement(p, 0)
        self.one = FpElement(p, 1)

    @property
    def characteristic(self) -> int:
        return self.p

    def from_int(self, n: int) -> FpElement:
        return FpElement(self.p, n)

    def coerce(self, v) -> FpElement:
        if isinstance(v, FpElement):
            if v.p != self.p:
                raise ValueError(f"value from F_{v.p} used in F_{self.p}")
            return v
        if isinstance(v, (int, str)):
            return FpElement(self.p, int(v))
        raise ValueError(f"cannot coerce {v!r} into F_{self.p}")

    def parse(self, v) -> FpElement:
        """Read a serialized value: an integer in [0, p), not a bool."""
        if isinstance(v, int) and not isinstance(v, bool) and 0 <= v < self.p:
            return FpElement(self.p, v)
        raise ValueError(f"bad F_{self.p} literal {v!r}")

    def to_json(self, x: FpElement) -> int:
        return x.r

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


Q = RationalField()


def field_to_json(field) -> dict:
    if field == Q:
        return {"type": "Q"}
    return {"type": "Fp", "p": field.p}


def field_from_json(data: dict):
    if data.get("type") == "Q":
        return Q
    if data.get("type") == "Fp":
        p = data.get("p")
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValueError(f"F_p field description needs an integer \"p\", got {p!r}")
        return PrimeField(p)
    raise ValueError(f"unknown field description {data!r}")
