"""Exact integer-coefficient polynomials in q and root-of-unity evaluation.

Polynomials are dense ascending coefficient tuples with no trailing zeros,
so the zero polynomial is the empty tuple.  All arithmetic is arbitrary
precision integer arithmetic; evaluation at a root of unity reduces modulo
the appropriate cyclotomic polynomial, so equality tests against integers
are exact and never touch floating point.

The module also provides the standard q-analogues ([a]_q, q-factorials,
q-binomials), their closed-form values at roots of unity, and the hook-style
product formula for the generating function of bounded-height plane
partitions over a built-in minuscule poset.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb, gcd, isqrt, prod
from operator import sub

from .errors import ExactnessError, ParameterError, UnsupportedPosetError, _Frozen, _integer
from .poset import Poset


def _stripped(coeffs: list) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class QPolynomial(_Frozen):
    """Integer polynomial in q, stored as an ascending coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # Exact integers only: a float or a boolean coefficient is refused, never converted.
        self._set(coeffs=_stripped([_integer(c) for c in coeffs]))

    @classmethod
    def _of(cls, coeffs: list) -> "QPolynomial":
        """A list of integers the library computed, wrapped without a check."""
        poly = object.__new__(cls)
        poly._set(coeffs=_stripped(coeffs))
        return poly

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "QPolynomial":
        exponent = _integer(exponent)
        if exponent < 0:
            raise ParameterError("exponent must be nonnegative")
        return cls([0] * exponent + [coeff])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPolynomial._of([other])
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial._of(out)

    def __neg__(self):
        return QPolynomial._of([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPolynomial._of([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPolynomial._of(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        val = 0
        for c in reversed(self.coeffs):
            val = val * x + c
        return val

    def divmod(self, divisor: "QPolynomial") -> tuple["QPolynomial", "QPolynomial"]:
        """Polynomial division staying in integers; quotient steps must divide exactly.

        Each step subtracts the divisor's nonzero terms only: a cyclotomic
        divisor is mostly zeros (the 144th has 3 nonzero terms of 49).
        """
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        top = len(dcs) - 1
        lead = dcs[top]
        terms = [(j, dc) for j, dc in enumerate(dcs) if dc]
        qlen = len(rem) - top
        if qlen <= 0:
            return QPolynomial(), QPolynomial._of(rem)
        quot = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            c = rem[i + top]
            if c == 0:
                continue
            step, r = divmod(c, lead)
            if r:
                raise ExactnessError("integer polynomial division step is not exact")
            quot[i] = step
            for j, dc in terms:
                rem[i + j] -= step * dc
        return QPolynomial._of(quot), QPolynomial._of(rem)

    def exact_div(self, divisor: "QPolynomial") -> "QPolynomial":
        quot, rem = self.divmod(divisor)
        if rem:
            raise ExactnessError("polynomial division left a nonzero remainder")
        return quot

    def __repr__(self):
        if not self.coeffs:
            return "QPolynomial(0)"
        terms = []
        for e, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if e == 0 else (f"{c}*q^{e}" if c != 1 else f"q^{e}"))
        return "QPolynomial(" + " + ".join(terms) + ")"


def q_int(a: int) -> QPolynomial:
    """[a]_q = 1 + q + ... + q^(a-1)."""
    a = _integer(a)
    if a < 0:
        raise ParameterError("q-integer index must be nonnegative")
    return QPolynomial([1] * a)


def _q_quotient(numer, denom) -> QPolynomial:
    """prod (1 - q^a) over a in numer, divided by prod (1 - q^b) over b in denom.

    Factors on both sides cancel first.  Each numerator factor is then
    multiplied in by one shift-and-subtract, and right after it one pending
    denominator factor 1 - q^b with b | a is divided out: it divides 1 - q^a,
    so the partial quotient stays a polynomial, near its final degree.  The
    factors left over are divided out at the end; when the whole denominator
    divides the numerator, each of those divisions is exact too.  A division
    whose top b coefficients are not all zero is not exact and raises.
    """
    numer, denom = Counter(numer), Counter(denom)
    shared = numer & denom
    numer -= shared
    denom -= shared
    coeffs = [1]
    for a in sorted(numer.elements()):
        pad = [0] * a
        coeffs = list(map(sub, coeffs + pad, pad + coeffs))
        b = max((b for b, left in denom.items() if left and a % b == 0), default=0)
        if b:
            _divide_out(coeffs, b)
            denom[b] -= 1
    for b in denom.elements():
        _divide_out(coeffs, b)
    return QPolynomial._of(coeffs)


def _divide_out(coeffs: list, b: int) -> None:
    # In place: coeffs / (1 - q^b) as b strided prefix sums, the recurrence
    # c[i] += c[i - b]; exact only when the top b coefficients come out zero.
    for r in range(min(b, len(coeffs))):
        coeffs[r::b] = accumulate(coeffs[r::b])
    if any(coeffs[-b:]):
        raise ExactnessError(f"the q-product does not divide exactly by 1 - q^{b}")
    del coeffs[-b:]


def q_factorial(a: int) -> QPolynomial:
    """[a]_q! = prod (1 - q^i) / (1 - q)^a over 1 <= i <= a."""
    a = _integer(a)
    if a < 0:
        raise ParameterError("q-factorial index must be nonnegative")
    return _q_quotient(range(1, a + 1), [1] * a)


def q_binomial(i: int, j: int) -> QPolynomial:
    """Gaussian binomial coefficient; zero when j > i, and q_binomial(i, j)(1) = C(i, j)."""
    i, j = _integer(i), _integer(j)
    if i < 0 or j < 0:
        raise ParameterError("q-binomial arguments must be nonnegative")
    if j > i:
        return QPolynomial.zero()
    j = min(j, i - j)
    return _q_quotient(range(i - j + 1, i + 1), range(1, j + 1))


def _divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending: those up to isqrt(n) by trial division, then their cofactors."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _mobius(n: int) -> int:
    mu = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    if n > 1:
        mu = -mu
    return mu


def cyclotomic(n: int) -> QPolynomial:
    """n-th cyclotomic polynomial: q - 1 for n = 1, else prod (1 - q^d)^mu(n/d) over d | n."""
    n = _integer(n)
    if n < 1:
        raise ParameterError("cyclotomic index must be >= 1")
    return _cyclotomic(n)


@cache
def _cyclotomic(n: int) -> QPolynomial:
    if n == 1:
        return QPolynomial((-1, 1))
    mu = {d: _mobius(n // d) for d in _divisors(n)}
    return _q_quotient([d for d in mu if mu[d] == 1], [d for d in mu if mu[d] == -1])


@dataclass(frozen=True)
class RootOfUnityValue:
    """Value of a polynomial at zeta^exponent for zeta a primitive order-th root of unity.

    zeta^exponent is itself a primitive root of order primitive_order, and the
    value is stored as a residue modulo that cyclotomic polynomial, so the
    value is an integer exactly when the residue is constant.
    """

    order: int
    exponent: int
    primitive_order: int
    residue: tuple[int, ...]

    @property
    def is_integer(self) -> bool:
        return len(self.residue) <= 1

    @property
    def value(self) -> int | None:
        if not self.is_integer:
            return None
        return self.residue[0] if self.residue else 0

    def equals_int(self, m: int) -> bool:
        return self.is_integer and self.value == m


def eval_at_root(f: QPolynomial, n: int, d: int) -> RootOfUnityValue:
    """Evaluate f at zeta^d, zeta a primitive n-th root of unity, exactly.

    zeta^d is a primitive root of order n' = n / gcd(n, d); fold exponents
    modulo n' and reduce modulo the n'-th cyclotomic polynomial.
    """
    n, d = _integer(n), _integer(d)
    if n < 1:
        raise ParameterError("root order must be >= 1")
    np = n // gcd(n, d % n or n)
    coeffs = f.coeffs
    folded = [sum(coeffs[r::np]) for r in range(min(np, len(coeffs)))]
    _, rem = QPolynomial._of(folded).divmod(cyclotomic(np))
    return RootOfUnityValue(n, d, np, rem.coeffs)


def is_zero_at_primitive_root(f: QPolynomial, n: int) -> bool:
    """True iff f vanishes at a primitive n-th root of unity, i.e. the n-th cyclotomic divides f."""
    return not eval_at_root(f, n, 1).residue


def q_binomial_at_root(i: int, j: int, d: int) -> int:
    """q_binomial(i, j) at a primitive (i/d)-th power of a primitive i-th root of unity.

    Requires d | i; the value is C(i/d, j/d) when d | j and 0 otherwise,
    which also covers j > i through a vanishing binomial.
    """
    i, j, d = _integer(i), _integer(j), _integer(d)
    if i < 1 or j < 0 or d < 1:
        raise ParameterError("arguments must be positive (j may be zero)")
    if i % d:
        raise ParameterError(f"d = {d} must divide i = {i}")
    if j % d:
        return 0
    return comb(i // d, j // d)


def q_ratio_limit(n1: int, n2: int, n: int, d: int) -> Fraction:
    """Limit of [n1]_q / [n2]_q as q approaches a primitive d-th root of unity.

    Defined when n1 and n2 are congruent mod d: the limit is n1/n2 when both
    are divisible by d and 1 otherwise.
    """
    n1, n2, n, d = _integer(n1), _integer(n2), _integer(n), _integer(d)
    if d < 1 or n < 1 or n % d:
        raise ParameterError("d must be a positive divisor of the order n")
    if n1 < 1 or n2 < 1:
        raise ParameterError("q-integer indices must be positive")
    if (n1 - n2) % d:
        raise ParameterError(f"[{n1}]_q / [{n2}]_q at a primitive {d}-th root: indices differ mod {d}")
    if n1 % d == 0:
        return Fraction(n1, n2)
    return Fraction(1)


def _hook_factors(poset: Poset, k: int) -> tuple[list[int], list[int]]:
    """The exponents of the hook product for plane partitions of height at most k:
    numerator h_x + k and denominator h_x over element heights h_x = rank(x) + 1,
    factors shared by both sides cancelled.  Only the built-in minuscule families
    are accepted.
    """
    if poset.family is None:
        raise UnsupportedPosetError("the product formula is only asserted for built-in minuscule posets")
    k = _integer(k)
    if k < 0:
        raise ParameterError("height bound must be nonnegative")
    heights = Counter(r + 1 for r in poset.rank)
    numer = Counter({h + k: c for h, c in heights.items()})
    shared = numer & heights
    return sorted((numer - shared).elements()), sorted((heights - shared).elements())


def plane_partition_gf(poset: Poset, k: int) -> QPolynomial:
    """Generating function counting plane partitions of height at most k by size.

    Uses the hook-style product over element heights h_x = rank(x) + 1:
    prod (1 - q^(h_x + k)) / prod (1 - q^(h_x)), as one exact quotient.
    Only the built-in minuscule families are accepted.
    """
    return _q_quotient(*_hook_factors(poset, k))


def _factor_residue(numer, denom, order: int) -> tuple[int, ...] | None:
    """Residue, as eval_at_root gives it, of prod (1 - q^a) / prod (1 - q^b) over a in
    numer and b in denom at a primitive order-th root of unity zeta, read from the
    factors alone; None when they cannot decide it.

    The quotient must be a polynomial.  1 - zeta^a vanishes exactly when order
    divides a, and otherwise depends on a mod order only.  More vanishing factors above than below make the value 0.  With as many
    on each side, and the other factors equal mod order as multisets, those cancel
    and each vanishing pair (1 - q^a) / (1 - q^b) tends to a / b (q_ratio_limit),
    so the value is the integer prod a / prod b over the vanishing factors.
    """
    top = [a for a in numer if a % order == 0]
    bottom = [b for b in denom if b % order == 0]
    if len(top) > len(bottom):
        return ()
    if sorted(a % order for a in numer) != sorted(b % order for b in denom):
        return None
    value, left = divmod(prod(top), prod(bottom))
    if left:
        raise ExactnessError(f"the q-product's value at a primitive {order}-th root is not an integer")
    return (value,)
