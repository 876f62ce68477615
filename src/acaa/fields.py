"""Exact scalars: arbitrary-precision rationals and prime-field residues.

Every scalar in the workbench is either a ``fractions.Fraction`` (over Q)
or an ``FpElement`` (over F_p).  Field objects construct, coerce and
serialize their elements; nothing here ever rounds.
"""

from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FpElement:
    """A residue in [0, p).  Mixing moduli is an error, never a coercion."""

    __slots__ = ("p", "r")

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r % p

    def _same_field(self, other):
        if not isinstance(other, FpElement) or other.p != self.p:
            raise ValueError(f"cannot combine F_{self.p} value with {other!r}")
        return other

    def __add__(self, other):
        return FpElement(self.p, self.r + self._same_field(other).r)

    def __sub__(self, other):
        return FpElement(self.p, self.r - self._same_field(other).r)

    def __mul__(self, other):
        return FpElement(self.p, self.r * self._same_field(other).r)

    def __truediv__(self, other):
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
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            return Fraction(v)
        raise ValueError(f"cannot coerce {v!r} into Q")

    def parse(self, v) -> Fraction:
        """Read a serialized value: a string like ``"-3/4"`` or ``"5"``."""
        if isinstance(v, (str, int)):
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
        if isinstance(v, int):
            return FpElement(self.p, v)
        if isinstance(v, str):
            return FpElement(self.p, int(v))
        raise ValueError(f"cannot coerce {v!r} into F_{self.p}")

    def parse(self, v) -> FpElement:
        """Read a serialized value: an integer in [0, p)."""
        if isinstance(v, int) and 0 <= v < self.p:
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
