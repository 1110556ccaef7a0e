"""Exact arithmetic over Q, Q[t], and Q(t).

Every value is immutable and every operation is exact: rationals are
`fractions.Fraction`, polynomials are dense coefficient tuples (lowest degree
first), and rational functions are reduced numerator/denominator pairs with a
monic denominator.  Nothing here ever rounds.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable
from fractions import Fraction
from math import gcd as _int_gcd, isqrt, lcm, prod

_RAT_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


class CheckError(Exception):
    """A mathematical check failed: the command line exits 1 on any subclass."""


class ExactMathError(CheckError, ArithmeticError):
    """Base error for exact-arithmetic violations (division by zero, bad degree...)."""


class Record:
    """Base of the package's record classes, whose fields are their
    `__slots__`: a record equals another of its class with equal fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


def rat_to_str(q: Fraction) -> str:
    """Serialize a rational as the decimal string "num/den" ("n" when den == 1)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_from_str(s: str) -> Fraction:
    """Parse a rational in the one form rat_to_str writes, "n" or "n/d" in
    decimal digits with an optional leading minus; any other string, or a
    zero denominator, raises ValueError, and a non-string raises TypeError."""
    if not isinstance(s, str):
        raise TypeError(f"a rational must be a string such as \"3/4\", not {type(s).__name__}")
    if not _RAT_RE.fullmatch(s):
        raise ValueError(f"not a rational of the form n or n/d: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def _as_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def eval_form(coeffs, a: int, b: int, degree: int) -> int:
    """sum_i c_i a^i b^(degree - i) by Horner, exactly over the integers."""
    acc = 0
    bp = 1
    for i in range(len(coeffs) - 1, -1, -1):
        acc = acc * a + coeffs[i] * bp
        bp *= b
    return acc * b ** (degree - (len(coeffs) - 1))


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over Q, coefficients lowest degree first.

    The zero polynomial has empty coefficients and degree -1.  Trailing zero
    coefficients are trimmed on construction, so equality is structural.
    The coefficients cleared to integers are computed on first use and kept.
    """

    __slots__ = ("coeffs", "_int_form")

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        cs = [_as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_int_form", None)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        return (UniPoly, (self.coeffs,))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ExactMathError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly([other])
        return NotImplemented

    def __hash__(self):
        return hash(("UniPoly", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "UniPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return UniPoly(
            a + b
            for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0))
        )

    def __sub__(self, other) -> "UniPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return UniPoly(
            a - b
            for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0))
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly(c * other for c in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        da, a = self._cleared()
        db, b = other._cleared()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        den = da * db
        return UniPoly(Fraction(c, den) for c in out)

    __radd__ = __add__
    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly([other])
        return NotImplemented

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ExactMathError("negative polynomial power; use RatFunc")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ExactMathError("polynomial division by zero")
        rem = list(self.coeffs)
        d, lc, oc = other.degree, other.leading(), other.coeffs
        q = [Fraction(0)] * max(0, len(rem) - d)
        for shift in range(len(rem) - 1 - d, -1, -1):
            q[shift] = factor = rem[shift + d] / lc
            if factor:
                for i in range(d):
                    rem[shift + i] -= factor * oc[i]
        return UniPoly(q), UniPoly(rem[:d])

    def __mod__(self, other) -> "UniPoly":
        return divmod(self, other)[1]

    def __truediv__(self, other) -> "UniPoly":
        """Exact division; raises if the remainder is nonzero or other is zero."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ExactMathError("inexact polynomial division")
        return q

    # -- field-flavored helpers ---------------------------------------------

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ExactMathError("zero polynomial cannot be made monic")
        lc = self.leading()
        return self if lc == 1 else UniPoly(c / lc for c in self.coeffs)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd (gcd(0, 0) is 0), proved by a prime or found by Euclid.

        Both inputs are cleared to Z[t] and reduced mod a prime p that divides
        neither leading coefficient, so deg gcd_Q <= deg gcd_p.  Degree 0 mod
        p proves the gcd is 1.  Otherwise each coefficient of the monic gcd
        mod p is rebuilt as a fraction, and a candidate that divides both
        inputs is gcd_Q: it divides gcd_Q, has at least its degree, and both
        are monic.  When no prime gives a proved candidate, Euclid over Q
        decides.
        """
        if self.is_zero() or other.is_zero():
            rest = other if self.is_zero() else self
            return rest if rest.is_zero() else rest.monic()
        if self.is_constant() or other.is_constant():
            return ONE
        a, b = self._cleared()[1], other._cleared()[1]
        for p, bound in _GCD_PRIMES:
            if a[-1] % p == 0 or b[-1] % p == 0:
                continue
            g = _gcd_mod_p([c % p for c in a], [c % p for c in b], p)
            if len(g) == 1:
                return ONE
            coeffs = [_rational_lift(c, p, bound) for c in g]
            if None in coeffs:
                continue
            candidate = UniPoly(coeffs)
            prim = candidate._cleared()[1]
            if _divides_z(prim, a) and _divides_z(prim, b):
                return candidate
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __call__(self, x):
        """Evaluate at a rational x exactly, or compose with a RatFunc x."""
        if isinstance(x, RatFunc):
            return compose(self, x)
        x = _as_rat(x)
        return Fraction(*self._at(x.numerator, x.denominator))

    def _cleared(self) -> tuple[int, tuple[int, ...]]:
        """(L, (L*c for c in coeffs)) with L the least common denominator,
        computed once per polynomial."""
        cleared = self._int_form
        if cleared is None:
            den = lcm(*{c.denominator for c in self.coeffs})
            cleared = den, tuple(c.numerator * (den // c.denominator) for c in self.coeffs)
            object.__setattr__(self, "_int_form", cleared)
        return cleared

    def _at(self, a: int, b: int) -> tuple[int, int]:
        """(N, M) with N/M the value at a/b for b > 0: N is the form of the
        coefficients cleared to their common denominator L, evaluated at
        (a, b), and M = L * b^degree."""
        if not self.coeffs:
            return 0, 1
        den, ints = self._cleared()
        return eval_form(ints, a, b, self.degree), den * b ** self.degree

    def eval_homog(self, p: "UniPoly", q: "UniPoly", n: int) -> "UniPoly":
        """Homogenized evaluation sum_i c_i p^i q^(n-i) for n >= degree."""
        if n < self.degree:
            raise ExactMathError("homogenization degree below polynomial degree")
        if self.is_zero():
            return ZERO
        # Horner in p, carrying the running power of q
        acc = UniPoly([self.leading()])
        q_pow = ONE
        for c in reversed(self.coeffs[:-1]):
            q_pow = q_pow * q
            acc = acc * p + q_pow * c
        return acc * q ** (n - self.degree)

    def content_and_primitive(self) -> tuple[Fraction, "UniPoly"]:
        """Write self = c * prim with prim in Z[t], content 1, positive leading coeff."""
        if self.is_zero():
            return Fraction(0), ZERO
        den_lcm, ints = self._cleared()
        g = _int_gcd(*ints)
        sign = -1 if ints[-1] < 0 else 1
        prim = UniPoly(v // (sign * g) for v in ints)
        return Fraction(sign * g, den_lcm), prim

    def is_squarefree(self) -> bool:
        return self.is_constant() or self.gcd(self.derivative()).is_constant()

    def is_even(self) -> bool:
        """True when only even-degree coefficients are present."""
        return all(c == 0 for i, c in enumerate(self.coeffs) if i % 2 == 1)

    def substitute_power(self, m: int) -> "UniPoly":
        """Return p(t^m)."""
        out = [Fraction(0)] * (m * self.degree + 1) if not self.is_zero() else []
        for i, c in enumerate(self.coeffs):
            out[m * i] = c
        return UniPoly(out)

    # -- display -------------------------------------------------------------

    def to_str(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = " - " if c < 0 else (" + " if parts else "")
            mag = abs(c)
            if i == 0:
                body = rat_to_str(mag)
            else:
                t = var if i == 1 else f"{var}^{i}"
                body = t if mag == 1 else f"{rat_to_str(mag)}*{t}"
            if not parts and c < 0:
                sign = "-"
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return f"UniPoly('{self.to_str()}')"


ZERO = UniPoly()
ONE = UniPoly([1])
T = UniPoly([0, 1])

# The gcd's primes, each with its reconstruction bound isqrt(p / 2): a result
# mod p rebuilds every fraction whose numerator and denominator are at most
# the bound.  The 127-bit prime settles most pairs cheaply; monic gcds of the
# families' polynomials reach 93-bit coefficients, which the 521-bit one
# rebuilds.
_GCD_PRIMES = tuple((p, isqrt(p // 2)) for p in (2 ** 127 - 1, 2 ** 521 - 1))


def _gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd in F_p[t] of two coefficient lists (lowest degree first,
    leading coefficients nonzero mod p), which it consumes."""
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        db = len(b) - 1
        while len(a) > db:
            c = a.pop()
            if c:
                shift = len(a) - db
                for i in range(db):
                    a[shift + i] = (a[shift + i] - c * b[i]) % p
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return a


def _rational_lift(r: int, p: int, bound: int) -> Fraction | None:
    """The fraction n/d with n = d*r mod p and |n|, d <= bound, or None
    (Wang's rational reconstruction by the half-extended Euclid)."""
    r0, r1, s0, s1 = p, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def _divides_z(g: list[int], a: list[int]) -> bool:
    """True when g divides a in Z[t], by long division that stops at the
    first leading coefficient g's does not divide.  For a primitive g this is
    division in Q[t] too (Gauss's lemma)."""
    rem = list(a)
    dg = len(g) - 1
    lc = g[-1]
    for shift in range(len(rem) - 1 - dg, -1, -1):
        q, r = divmod(rem[shift + dg], lc)
        if r:
            return False
        if q:
            for i in range(dg):
                rem[shift + i] -= q * g[i]
    return not any(rem[:dg])


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Quotient of two polynomials over Q, reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        if isinstance(num, (int, Fraction)):
            num = UniPoly([num])
        if den.is_zero():
            raise ExactMathError("rational function with zero denominator")
        g = num.gcd(den)
        if not g.is_constant():
            num, den = num / g, den / g
        lc = den.leading()
        if lc != 1:
            num = num * (Fraction(1) / lc)
            den = den * (Fraction(1) / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    def __reduce__(self):
        return (RatFunc, (self.num, self.den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    # -- field operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc(UniPoly([other]))
        if isinstance(other, UniPoly):
            return RatFunc(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ExactMathError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    # -- evaluation / substitution -------------------------------------------

    def evaluate(self, x: int | Fraction) -> Fraction:
        """Evaluate at a rational point; raises on a pole."""
        x = _as_rat(x)
        d, d_den = self.den._at(x.numerator, x.denominator)
        if d == 0:
            raise ExactMathError(f"pole of rational function at {rat_to_str(x)}")
        n, n_den = self.num._at(x.numerator, x.denominator)
        return Fraction(n * d_den, n_den * d)

    def compose(self, inner: "RatFunc") -> "RatFunc":
        """Substitute another rational function for the variable."""
        inner = self._coerce(inner)
        d = max(self.num.degree, self.den.degree, 0)
        p, q = inner.num, inner.den
        return RatFunc(self.num.eval_homog(p, q, d), self.den.eval_homog(p, q, d))

    def sign_normalized(self) -> "RatFunc":
        """Return self or -self, whichever has a positive leading numerator
        coefficient (zero is returned as is)."""
        if not self.is_zero() and self.num.leading() < 0:
            return -self
        return self

    def to_str(self, var: str = "t") -> str:
        if self.den == ONE:
            return self.num.to_str(var)
        return f"({self.num.to_str(var)})/({self.den.to_str(var)})"

    def __repr__(self):
        return f"RatFunc('{self.to_str()}')"


def compose(f: UniPoly, h) -> RatFunc:
    """f(h(t)) as a reduced rational function, for h in Q(t) (or Q[t], Q)."""
    return RatFunc(f).compose(h)


# ---------------------------------------------------------------------------
# Squarefree structure
# ---------------------------------------------------------------------------


def squarefree_decompose(p: UniPoly) -> tuple[Fraction, list[tuple[UniPoly, int]]]:
    """Yun decomposition p = content * prod f_i^(m_i), f_i monic, squarefree, coprime.

    Returns (content, [(f_i, m_i)...]) with the trivial factors omitted.  The
    result is not re-expanded here: `square_class`, its one caller in the
    library, re-expands its own k * j^2, which proves this equation too.
    """
    if p.is_zero():
        raise ExactMathError("zero polynomial has no squarefree decomposition")
    content = p.leading()
    if p.is_constant():
        return content, []
    mp = p.monic()
    factors: list[tuple[UniPoly, int]] = []
    g = mp.gcd(mp.derivative())
    b = mp / g
    c = mp.derivative() / g
    d = c - b.derivative()
    i = 1
    while not b.is_constant():
        a = b.gcd(d)
        if not a.is_constant():
            factors.append((a, i))
        b = b / a
        c = d / a
        d = c - b.derivative()
        i += 1
    return content, factors


def square_class(r: RatFunc) -> tuple[UniPoly, RatFunc]:
    """Split r = k * j^2 with k a canonical squarefree polynomial representative.

    k has integer coefficients, squarefree integer content, and carries the
    sign of the square class; j is sign-normalized with positive leading
    numerator coefficient.  The identity k * j^2 == r is checked exactly.
    """
    if r.is_zero():
        raise ExactMathError("square class of zero is undefined")
    p = r.num * r.den
    content, factors = squarefree_decompose(p)
    k0 = ONE
    s = ONE
    for f, m in factors:
        if m % 2 == 1:
            k0 = k0 * f
        s = s * f ** (m // 2)
    c2, prim = k0.content_and_primitive()
    c = content * c2
    d_int = squarefree_part_int(c.numerator * c.denominator)
    w = rational_sqrt(c / d_int)  # a square by construction
    k = prim * d_int
    j = (RatFunc(s, r.den) * w).sign_normalized()
    if RatFunc(k) * j * j != r:
        raise ExactMathError("square-class decomposition failed re-expansion check")
    return k, j


def ratfunc_sqrt(r: RatFunc) -> RatFunc:
    """Exact square root of a rational function which is a perfect square."""
    k, j = square_class(r)
    if k != ONE:
        raise ExactMathError("rational function is not a perfect square")
    return j


def discriminant_cubic(f: UniPoly) -> Fraction:
    """Discriminant of a monic cubic; zero exactly when f has a repeated root."""
    if f.degree != 3:
        raise ExactMathError("discriminant_cubic requires degree 3")
    if f.leading() != 1:
        raise ExactMathError("discriminant_cubic requires a monic cubic")
    p, q, r = f.coeff(2), f.coeff(1), f.coeff(0)
    return (
        18 * p * q * r - 4 * p ** 3 * r + p ** 2 * q ** 2 - 4 * q ** 3 - 27 * r ** 2
    )


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact nonnegative square root of a rational, or None if not a square."""
    q = _as_rat(q)
    if q < 0:
        return None
    a, b = q.numerator, q.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


# ---------------------------------------------------------------------------
# Integer factorization and squarefree parts
# ---------------------------------------------------------------------------


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
    return [i for i, f in enumerate(flags) if f]


# factorize divides out every prime up to this bound by trial division.
SMALL_PRIME_BOUND = 4096
_SMALL_PRIMES = _sieve(SMALL_PRIME_BOUND)
_PRIME_CHUNKS = [
    (block, prod(block)) for block in (_SMALL_PRIMES[i : i + 64] for i in range(0, len(_SMALL_PRIMES), 64))
]

# Deterministic Miller-Rabin witnesses: the first k primes decide primality
# below psi_k, the least strong pseudoprime to all of them (Jaeschke, Math.
# Comp. 61, 1993; Sorenson and Webster, Math. Comp. 86, 2017).  Each n takes
# the first tier whose bound exceeds it; the thirteen bases decide everything
# below psi_13 = 3.317e24, and the extended set is used above that as a
# safety margin for oversized inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXTRA = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
_MR_TIERS = (
    (3_215_031_751, 4),  # psi_4
    (2_152_302_898_747, 5),  # psi_5
    (3_474_749_660_383, 6),  # psi_6
    (341_550_071_728_321, 8),  # psi_7 = psi_8
    (3_825_123_056_546_413_051, 11),  # psi_9 = psi_10 = psi_11
    (318_665_857_834_031_151_167_461, 12),  # psi_12
    (_MR_PROVEN_BOUND, 13),  # psi_13
)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below 3.317e24 (4 to 13
    bases by the size of n)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:20]:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = next((_MR_WITNESSES[:k] for bound, k in _MR_TIERS if n < bound), _MR_WITNESSES + _MR_EXTRA)
    for a in witnesses:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Brent's cycle variant of Pollard rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in itertools.count(1):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = _int_gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = _int_gcd(x - ys, n)
        if g != n:
            return g
        # cycle degenerated; retry with the next polynomial constant


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent} (n must be nonzero)."""
    if n == 0:
        raise ExactMathError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    # batched trial division: one gcd per block of small primes
    for block, block_prod in _PRIME_CHUNKS:
        if n == 1:
            break
        g = _int_gcd(n, block_prod)
        if g > 1:
            for p in block:
                if g % p == 0:
                    while n % p == 0:
                        out[p] = out.get(p, 0) + 1
                        n //= p
                    g //= p
                    if g == 1:
                        break
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        # m has no prime factor <= SMALL_PRIME_BOUND, so m < (SMALL_PRIME_BOUND + 1)^2 is prime
        if m < (SMALL_PRIME_BOUND + 1) ** 2 or is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        f = _brent_rho(m)
        stack.extend((f, m // f))
    return out


def squarefree_part_int(n: int) -> int:
    """The unique squarefree D with n = D * v^2 and sign(D) = sign(n)."""
    if n == 0:
        raise ExactMathError("squarefree part of zero is undefined")
    sign = -1 if n < 0 else 1
    d = 1
    for p, e in factorize(n).items():
        if e % 2 == 1:
            d *= p
    return sign * d


def is_squarefree_int(n: int) -> bool:
    return n != 0 and squarefree_part_int(n) == n
