"""Truncated formal power series over exact rationals.

A series has no constant term and carries coefficients c_1 .. c_N for a
fixed truncation order N.  Composition and compositional inversion are
exact.  ``koszul_residual`` is not a Koszulity test (see there); on these
signed series a Koszul pair P, P! satisfies g_P(g_P!(t)) = t.
"""

from fractions import Fraction
from math import factorial

from .operad import acaa_dims, dual_dims


class TruncatedSeries:
    """c_1 t + c_2 t^2 + ... + c_N t^N with exact rational coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 1:
            raise ValueError("order must be at least 1")
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > order:
            raise ValueError("more coefficients than the truncation order")
        coeffs += [Fraction(0)] * (order - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, order: int):
        return cls(order)

    @classmethod
    def t(cls, order: int):
        return cls(order, [1])

    def coeff(self, n: int) -> Fraction:
        """Coefficient of t^n (1-based)."""
        if not 1 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside truncation order")
        return self.coeffs[n - 1]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(order, self.coeffs[:order])

    def __add__(self, other):
        order = min(self.order, other.order)
        return TruncatedSeries(order, [a + b for a, b in
                                       zip(self.coeffs[:order], other.coeffs[:order])])

    def __sub__(self, other):
        order = min(self.order, other.order)
        return TruncatedSeries(order, [a - b for a, b in
                                       zip(self.coeffs[:order], other.coeffs[:order])])

    def __neg__(self):
        return TruncatedSeries(self.order, [-a for a in self.coeffs])

    def scale(self, scalar) -> "TruncatedSeries":
        scalar = Fraction(scalar)
        return TruncatedSeries(self.order, [scalar * a for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        order = min(self.order, other.order)
        out = [Fraction(0)] * order
        for i, a in enumerate(self.coeffs[:order], start=1):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[:order], start=1):
                if i + j > order:
                    break
                if b:
                    out[i + j - 1] += a * b
        return TruncatedSeries(order, out)

    __rmul__ = scale

    def compose(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """self(other(t)), truncated at the smaller order."""
        order = min(self.order, other.order)
        g = other.truncate(order)
        result = TruncatedSeries.zero(order)
        power = g
        for k in range(1, order + 1):
            c = self.coeffs[k - 1]
            if c:
                result = result + power.scale(c)
            if k < order:
                power = power * g
        return result

    def compositional_inverse(self) -> "TruncatedSeries":
        """The series u with self(u(t)) = t up to the truncation order."""
        c1 = self.coeffs[0]
        if not c1:
            raise ValueError("series with zero linear term has no compositional inverse")
        inv = [1 / c1]
        for n in range(2, self.order + 1):
            u = TruncatedSeries(n, inv + [0])
            residue = self.truncate(n).compose(u).coeff(n)
            inv.append(-residue / c1)
        return TruncatedSeries(self.order, inv)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and other.order == self.order
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        terms = []
        for n, c in enumerate(self.coeffs, start=1):
            if c:
                terms.append(f"({c})t^{n}")
        body = " + ".join(terms) if terms else "0"
        return f"TruncatedSeries[{body} + O(t^{self.order + 1})]"


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    return f.compose(g)


def compositional_inverse(f: TruncatedSeries) -> TruncatedSeries:
    return f.compositional_inverse()


def generating_series(dims, order: int) -> TruncatedSeries:
    """Sum of (-1)^n dims[n-1] / n! t^n for an operad's arity dimensions."""
    coeffs = []
    for n in range(1, order + 1):
        d = dims[n - 1] if n - 1 < len(dims) else 0
        coeffs.append(Fraction((-1) ** n * d, factorial(n)))
    return TruncatedSeries(order, coeffs)


def acaa_generating_series(order: int = 6) -> TruncatedSeries:
    """-t + t^2/2 - t^3/6, from arity dimensions (1, 1, 1, 0, ...)."""
    return generating_series(acaa_dims(order), order)


def dual_generating_series(order: int = 6) -> TruncatedSeries:
    """-t + t^2/2, from arity dimensions (1, 1, 0, ...)."""
    return generating_series(dual_dims(order), order)


def minimal_model_series(order: int = 6, negated_convention: bool = False) -> TruncatedSeries:
    """Generating series of the minimal model.

    The default is the direct compositional inverse u of the generating
    series g (g(u(t)) = t), which reproduces the known coefficients
    -1, 1/2, -1/3, 5/24, -1/12, -7/144.  With ``negated_convention`` the
    series m with g(-m(t)) = t is returned instead; the two differ by an
    overall sign.
    """
    u = acaa_generating_series(order).compositional_inverse()
    return -u if negated_convention else u


def koszul_residual(g_op: TruncatedSeries, g_dual: TruncatedSeries,
                    order: int, swap_roles: bool = False) -> TruncatedSeries:
    """g_dual(-g_op(-t)) - t, truncated at the given order.

    This certifies nothing about Koszulity: the series come signed from
    ``generating_series``, and the extra signs here make the t^2
    coefficient 1 for every pair with d_2 = 1 (Lie/Com gives
    (0, 1, 1, 1, 1, 1)).  ``swap_roles`` exchanges the two series.
    """
    if swap_roles:
        g_op, g_dual = g_dual, g_op
    if g_op.coeff(1) != -1 or g_dual.coeff(1) != -1:
        raise ValueError("generating series must start with -t")
    g_op = g_op.truncate(order) if g_op.order > order else g_op
    g_dual = g_dual.truncate(order) if g_dual.order > order else g_dual
    minus_t = TruncatedSeries(order, [-1])
    inner = -(g_op.compose(minus_t))
    return g_dual.compose(inner) - TruncatedSeries.t(order)
