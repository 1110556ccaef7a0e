"""The gcd in Q[t] and what is built on it: results pinned by sha256 over
seeded inputs, and edge cases checked against a Euclid-over-Fraction oracle."""

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import upoly
from twistlab import exactmath
from twistlab.catalog import FamilySpec, build
from twistlab.exactmath import ONE, T, ZERO, RatFunc, UniPoly, square_class, squarefree_decompose


def _rand_poly(rng: random.Random, degree: int, height: int = 9) -> UniPoly:
    coeffs = [Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(degree)]
    return UniPoly(coeffs + [Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))])


def _family_polys() -> list[UniPoly]:
    """g and the coordinate numerators and denominators of thm4_2a at a = 3/4,
    whose coefficients reach 90+ bits."""
    fam = build(FamilySpec.make("thm4_2a", {"a": Fraction(3, 4)}))
    polys = [fam.g]
    for pt in fam.points:
        polys += [pt.x.num, pt.x.den, pt.y.num, pt.y.den]
    return polys


def _digest_lines() -> list[str]:
    rng = random.Random(1971)
    lines = []
    # gcds of seeded pairs with a planted common factor, constants included
    for _ in range(160):
        g, p, q = (_rand_poly(rng, rng.randint(0, 4)) for _ in range(3))
        lines.append(f"gcd {(g * p).gcd(g * q)!r}")
    # gcds and unreduced quotients of the family's polynomials
    fam = _family_polys()
    for _ in range(60):
        a, b, c = (rng.choice(fam) for _ in range(3))
        lines.append(f"gcd {(a * b).gcd(a * c)!r}")
        lines.append(f"ratfunc {RatFunc(a * b, a * c * UniPoly([rng.randint(1, 5)]))!r}")
    # squarefree decompositions with repeated factors
    for _ in range(40):
        p, q = _rand_poly(rng, rng.randint(1, 3)), _rand_poly(rng, rng.randint(1, 3))
        content, factors = squarefree_decompose(p * p * q * p * q * q * q)
        lines.append(f"sqf {content} {factors!r}")
    # square classes of unreduced rational functions, seeded and from the family
    for _ in range(40):
        p, q, r = (_rand_poly(rng, rng.randint(0, 3)) for _ in range(3))
        lines.append(f"square_class {square_class(RatFunc(p * p * r * q, q * q * q * r))!r}")
    for _ in range(20):
        a, b = rng.choice(fam), rng.choice(fam)
        lines.append(f"square_class {square_class(RatFunc(a * a * b, b * fam[0]))!r}")
    return lines


# sha256 of the newline-joined lines of _digest_lines()
DIGEST = "08d3866e1fb64cc811f1c7eee881397573e3089b6a9c833454034864f177f234"


def test_gcd_square_class_digest():
    lines = _digest_lines()
    assert len(lines) == 380
    assert max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in _family_polys()[0].coeffs) >= 90
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST


# -- edge cases against Euclid over Fraction ------------------------------------


def _oracle_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by Euclid on Fraction coefficient lists, apart from UniPoly's arithmetic."""
    x, y = list(a.coeffs), list(b.coeffs)
    while y:
        while len(x) >= len(y):
            c = x[-1] / y[-1]
            shift = len(x) - len(y)
            for i, v in enumerate(y):
                x[shift + i] -= c * v
            while x and x[-1] == 0:
                x.pop()
        x, y = y, x
    return UniPoly(c / x[-1] for c in x)


P1, BOUND1 = exactmath._GCD_PRIMES[0]
P2, BOUND2 = exactmath._GCD_PRIMES[1]


@pytest.fixture
def primes_tried(monkeypatch):
    """The primes the gcd reduces mod, in order."""
    tried = []
    real = exactmath._gcd_mod_p

    def spy(a, b, p):
        tried.append(p)
        return real(a, b, p)

    monkeypatch.setattr(exactmath, "_gcd_mod_p", spy)
    return tried


def test_gcd_matches_oracle_on_seeded_pairs():
    rng = random.Random(1989)
    for _ in range(200):
        g, p, q = (_rand_poly(rng, rng.randint(0, 3), rng.choice((9, 2 ** 40, 2 ** 90))) for _ in range(3))
        a, b = g * p, g * q
        assert a.gcd(b) == _oracle_gcd(a, b) == b.gcd(a)


def test_gcd_with_zero_or_constant():
    p = upoly(2, 0, 4)
    assert p.gcd(ZERO) == ZERO.gcd(p) == upoly(Fraction(1, 2), 0, 1)
    assert ZERO.gcd(ZERO) == ZERO
    assert p.gcd(upoly(Fraction(-3, 7))) == upoly(5).gcd(p) == ONE


def test_gcd_skips_a_prime_dividing_a_leading_coefficient(primes_tried):
    common = upoly(1, P1)
    a, b = common * upoly(2, 1), common * upoly(-3, 1)
    assert a.gcd(b) == _oracle_gcd(a, b) == upoly(Fraction(1, P1), 1)
    assert primes_tried == [P2]


def test_gcd_prime_dividing_a_denominator(primes_tried):
    # t/p + 1 clears to t + p, which is t mod p: the first prime sees the
    # common root 0, its candidate t divides neither input, and the second
    # prime proves t + p
    common = upoly(1, Fraction(1, P1))
    a, b = common * upoly(2, 1), common * upoly(-3, 1)
    assert a.gcd(b) == _oracle_gcd(a, b) == upoly(P1, 1)
    assert primes_tried == [P1, P2]


def test_gcd_coprime_over_q_with_a_common_root_mod_p(primes_tried):
    a, b = T, upoly(-P1, 1)
    assert a.gcd(b) == _oracle_gcd(a, b) == ONE
    assert primes_tried == [P1, P2]


def test_gcd_coefficients_past_the_first_bound(primes_tried):
    big = Fraction(2 ** 70 + 1, 3 ** 40)
    assert big.numerator > BOUND1 and big.numerator < BOUND2
    common = upoly(big, 1, 1)
    a, b = common * upoly(2, 1), common * upoly(-3, 1, 5)
    assert a.gcd(b) == _oracle_gcd(a, b) == common
    assert primes_tried == [P1, P2]


def test_gcd_family_coefficients_need_the_second_prime(primes_tried):
    g = _family_polys()[0]
    primes_tried.clear()
    a, b = g * upoly(1, 1), g * upoly(-1, 2, 1)
    assert a.gcd(b) == _oracle_gcd(a, b) == g.monic()
    assert primes_tried == [P1, P2]


def test_gcd_falls_back_to_euclid(monkeypatch, primes_tried):
    # t - p1*p2 shares the root 0 with t mod both primes, so no candidate is
    # proved and Euclid decides
    divisions = []
    real = UniPoly.__divmod__

    def spy(self, other):
        divisions.append((self, other))
        return real(self, other)

    monkeypatch.setattr(UniPoly, "__divmod__", spy)
    a, b = T, upoly(-P1 * P2, 1)
    assert a.gcd(b) == _oracle_gcd(a, b) == ONE
    assert primes_tried == [P1, P2]
    assert divisions
    # and past both bounds: a common factor no prime rebuilds
    divisions.clear()
    common = upoly(Fraction(2 ** 300 + 1, 3), 1)
    a, b = common * upoly(2, 1), common * upoly(-3, 1)
    assert a.gcd(b) == _oracle_gcd(a, b) == common
    assert divisions
