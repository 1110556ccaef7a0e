"""Exact arithmetic: polynomials, rational functions, square classes, integers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import same_square_class, upoly
from twistlab import exactmath
from twistlab.certify import SieveVerdict
from twistlab.curves import CubicCurve, CurveError
from twistlab.densitylab import DensityReport
from twistlab.exactmath import (
    ONE,
    T,
    ZERO,
    ExactMathError,
    RatFunc,
    UniPoly,
    compose,
    discriminant_cubic,
    factorize,
    is_probable_prime,
    is_squarefree_int,
    rat_from_str,
    rat_to_str,
    ratfunc_sqrt,
    rational_sqrt,
    square_class,
    squarefree_decompose,
    squarefree_part_int,
)

small_rats = st.fractions(min_value=-20, max_value=20, max_denominator=12)
polys = st.lists(small_rats, min_size=0, max_size=8).map(UniPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


# -- basic ring operations ---------------------------------------------------


def test_gcd_common_factor():
    assert upoly(-1, 0, 1).gcd(upoly(-1, 1)) == upoly(-1, 1)


def test_difference_of_squares():
    assert upoly(1, 0, 1) * upoly(-1, 0, 1) == upoly(-1, 0, 0, 0, 1)


def test_exact_division():
    q, r = divmod(upoly(0, -1, 0, 1), T)
    assert q == upoly(-1, 0, 1)
    assert r.is_zero()


def test_division_by_zero_poly():
    with pytest.raises(ExactMathError):
        divmod(T, ZERO)


@settings(max_examples=200, deadline=None)
@given(polys, nonzero_polys)
def test_divmod_round_trip(p, q):
    quot, rem = divmod(p, q)
    assert q * quot + rem == p
    assert rem.is_zero() or rem.degree < q.degree


@settings(max_examples=100, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_gcd_is_monic():
    p = upoly(-2, 0, 2)  # 2(t^2 - 1)
    q = upoly(-6, 6)  # 6(t - 1)
    assert p.gcd(q) == upoly(-1, 1)


# -- representation: integer coefficients over one denominator ---------------


def _is_canonical(p):
    return p.den > 0 and math.gcd(p.den, *p.ints) == 1 and p.ints[-1:] != (0,) and all(type(c) is int for c in p.ints)


def test_one_polynomial_has_one_form_whatever_builds_it():
    # t^2/2 - 2/9 = (t/2 + 1/3)(t - 2/3) = (-4 + 9 t^2) / 18
    F = Fraction
    target = UniPoly([F(-2, 9), 0, F(1, 2)])
    c, prim = (target * -36).content_and_primitive()
    assert (c, prim) == (-2, UniPoly([-4, 0, 9]))
    routes = [
        UniPoly([-4, 0, 9], 18),
        UniPoly([8, 0, -18], -36),
        UniPoly([F(1, 3), F(1, 2)]) * UniPoly([F(-2, 3), 1]),
        UniPoly([F(-2, 9), F(1, 4)]) + UniPoly([0, F(-1, 4), F(1, 2), F(1, 3)]) - UniPoly([0, 0, 0, F(1, 3)]),
        UniPoly([4, 0, -9]).monic() * F(1, 2),
        prim * F(1, 18),
    ]
    assert target.ints == (-4, 0, 9) and target.den == 18
    for p in routes:
        assert p == target and hash(p) == hash(target), p
    assert target.coeffs == (F(-2, 9), F(0), F(1, 2))
    with pytest.raises(TypeError):
        UniPoly([1, 0.5])


@settings(max_examples=150, deadline=None)
@given(st.lists(small_rats, max_size=8), nonzero_polys)
def test_every_operation_returns_the_canonical_form(cs, q):
    p = UniPoly(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    assert p.coeffs == tuple(cs) and all(type(c) is Fraction for c in p.coeffs)
    results = [p, -p, p + q, p - q, p * q, p * Fraction(-3, 4), *divmod(p, q), q.monic(), q.derivative()]
    results += [p.substitute_power(3), q.content_and_primitive()[1], p.gcd(q)]
    assert all(_is_canonical(r) for r in results)


def _fraction_long_division(a, b):
    """Quotient and remainder of coefficient lists (lowest degree first) by
    schoolbook long division over Q."""
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        quot[shift] = f = rem[shift + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
    return quot, rem[: len(b) - 1]


@settings(max_examples=200, deadline=None)
@given(st.lists(small_rats, max_size=9), st.lists(st.integers(-9, 9), min_size=1, max_size=4), st.integers(-9, -2))
def test_pseudo_division_matches_fraction_long_division(a, low, lc):
    # integer divisors, neither monic nor with a positive leading coefficient
    divisor = [*low, lc]
    want_q, want_r = _fraction_long_division(a, [Fraction(c) for c in divisor])
    q, r = divmod(UniPoly(a), UniPoly(divisor))
    assert (q, r) == (UniPoly(want_q), UniPoly(want_r))
    assert _is_canonical(q) and _is_canonical(r)


# -- composition --------------------------------------------------------------


def test_compose_identity():
    f = upoly(0, -1, 0, 1)
    assert compose(f, RatFunc(T)) == RatFunc(f)


def test_compose_moebius_denominator():
    # f = t^3 - t at (t-1)/(3t+1): equals -8 f(t) / (3t+1)^3
    f = upoly(0, -1, 0, 1)
    h = RatFunc(upoly(-1, 1), upoly(1, 3))
    got = compose(f, h)
    assert got * RatFunc(upoly(1, 3) ** 3) == RatFunc(f * -8)
    assert got.den == (upoly(1, 3) ** 3).monic()


def test_compose_reciprocal():
    assert compose(upoly(0, 0, 1), RatFunc(ONE, T)) == RatFunc(ONE, upoly(0, 0, 1))


def test_ratfunc_compose_chain():
    inner = RatFunc(upoly(1, 1), upoly(0, 1))  # (t+1)/t
    outer = RatFunc(upoly(0, 1), upoly(1, 1))  # t/(t+1)
    chained = outer.compose(inner)
    # t/(t+1) at (t+1)/t is (t+1)/(2t+1)
    assert chained == RatFunc(upoly(1, 1), upoly(1, 2))


def test_evaluation_is_exact():
    p = upoly(Fraction(1, 2), 0, 3)
    assert p(Fraction(-2, 3)) == Fraction(1, 2) + 3 * Fraction(4, 9)
    assert p(0) == Fraction(1, 2) and ZERO(Fraction(5, 7)) == 0
    assert exactmath.eval_form([1, 2, 3], 2, 5, 4) == 5 ** 4 + 2 * 2 * 5 ** 3 + 3 * 4 * 5 ** 2
    with pytest.raises(TypeError):
        UniPoly([1, 2])(0.5)  # a float would round


# -- squarefree structure ------------------------------------------------------


def test_squarefree_decompose_basic():
    p = upoly(-1, 1) ** 2 * upoly(2, 1)
    content, factors = squarefree_decompose(p)
    assert content == 1
    assert sorted(factors, key=lambda fm: fm[1]) == [(upoly(2, 1), 1), (upoly(-1, 1), 2)]


def test_squarefree_decompose_constant():
    content, factors = squarefree_decompose(upoly(5))
    assert content == 5 and factors == []


def test_squarefree_decompose_zero_rejected():
    with pytest.raises(ExactMathError):
        squarefree_decompose(ZERO)


def test_cor3_2_g_is_squarefree():
    # display polynomial at (a, b) = (1, 2): -ab (u^2+b^2)(u^4 + 2b^2u^2 - a^2bu^2 + b^4)
    g = upoly(4, 0, 1) * upoly(16, 0, 6, 0, 1) * -2
    _, factors = squarefree_decompose(g)
    assert all(mult == 1 for _, mult in factors)
    assert g.gcd(g.derivative()).is_constant()  # independent oracle


def test_square_class_explicit_square():
    k, j = square_class(RatFunc(upoly(1, 1) ** 2 * upoly(2, 1)))
    assert k == upoly(2, 1)
    assert j == RatFunc(upoly(1, 1))


def test_square_class_constant():
    k, j = square_class(RatFunc(upoly(4)))
    assert k == ONE and j == RatFunc(upoly(2))


def test_square_class_zero_rejected():
    with pytest.raises(ExactMathError):
        square_class(RatFunc(ZERO))


def test_square_class_of_twist_quotient():
    # f(h)/f for f = t^3 - t, h = (t-1)/(3t+1) has square class -(6t+2);
    # the sign is forced: the quotient is negative at t = 2.
    f = upoly(0, -1, 0, 1)
    h = RatFunc(upoly(-1, 1), upoly(1, 3))
    ratio = compose(f, h) / RatFunc(f)
    k, j = square_class(ratio)
    assert k == upoly(-2, -6)
    assert RatFunc(k) * j * j == ratio
    assert ratio.evaluate(Fraction(2)) < 0
    assert same_square_class(RatFunc(k), RatFunc(upoly(2, 6))) is False


def test_square_class_reexpansion_catches_a_wrong_decomposition(monkeypatch):
    # square_class's own re-expansion is the one check of Yun's output
    real = exactmath.squarefree_decompose

    def drop_last_factor(p):
        content, factors = real(p)
        return content, factors[:-1]

    monkeypatch.setattr(exactmath, "squarefree_decompose", drop_last_factor)
    with pytest.raises(ExactMathError, match="re-expansion"):
        square_class(RatFunc(upoly(1, 1) ** 2 * upoly(2, 1)))


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_square_class_reexpansion(p, q, r):
    value = RatFunc(p * p * r, q * q)
    k, j = square_class(value)
    assert RatFunc(k) * j * j == value
    assert k.is_squarefree()
    c, prim = k.content_and_primitive()
    assert c.denominator == 1 and is_squarefree_int(c.numerator)


# -- discriminants -------------------------------------------------------------


def _sylvester_resultant_cubic(f: UniPoly) -> Fraction:
    # 5x5 Sylvester determinant of (f, f') by fraction-free-ish Gaussian elimination
    fp = f.derivative()
    a = [f.coeff(i) for i in (3, 2, 1, 0)]
    b = [fp.coeff(i) for i in (2, 1, 0)]
    rows = [
        a + [Fraction(0)],
        [Fraction(0)] + a,
        b + [Fraction(0), Fraction(0)],
        [Fraction(0)] + b + [Fraction(0)],
        [Fraction(0), Fraction(0)] + b,
    ]
    det = Fraction(1)
    n = 5
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def test_discriminant_three_rational_roots():
    assert discriminant_cubic(upoly(0, -1, 0, 1)) == 4


def test_discriminant_triple_root():
    assert discriminant_cubic(upoly(0, 0, 0, 1)) == 0


def test_discriminant_against_resultant_oracle():
    # x^3 + (b^2/4c) x^2 + b x + c at b=3, c=1
    f = upoly(1, 3, Fraction(9, 4), 1)
    disc = discriminant_cubic(f)
    assert disc == -_sylvester_resultant_cubic(f)
    assert disc != 0  # consistent with b^3 != 54 c^2
    assert discriminant_cubic(upoly(0, -1, 0, 1)) == -_sylvester_resultant_cubic(upoly(0, -1, 0, 1))


def test_discriminant_wrong_degree():
    with pytest.raises(ExactMathError):
        discriminant_cubic(upoly(1, 1))
    with pytest.raises(ExactMathError):
        discriminant_cubic(upoly(0, 0, 0, 2))


# -- integers -------------------------------------------------------------------


def _trial_division_sf(n: int) -> int:
    sign = -1 if n < 0 else 1
    n = abs(n)
    d = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            d *= p
        p += 1
    return sign * d * n


def test_squarefree_part_examples():
    assert squarefree_part_int(12) == 3
    assert squarefree_part_int(-18) == -2
    assert squarefree_part_int(-29274) == _trial_division_sf(-29274) == -29274
    assert squarefree_part_int(1) == 1
    with pytest.raises(ExactMathError):
        squarefree_part_int(0)


def test_squarefree_part_reconstruction():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(2, 10 ** 9) * rng.choice([1, -1])
        d = squarefree_part_int(n)
        v2 = n // d
        assert d * v2 == n and v2 > 0
        root = rational_sqrt(Fraction(v2))
        assert root is not None  # v2 is a perfect square
        assert is_squarefree_int(d)


def test_squarefree_part_matches_oracle_window():
    for n in range(1, 20000):
        assert squarefree_part_int(n) == _trial_division_sf(n)
        assert squarefree_part_int(-n) == -_trial_division_sf(n)


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * p * q) == {p: 2, q: 1}
    assert squarefree_part_int(p * p * q) == q


def test_factorize_settles_small_cofactors_without_miller_rabin(monkeypatch):
    # after trial division by every prime <= 4096, a cofactor below 4097^2 is prime
    calls = []

    def counted(n):
        calls.append(n)
        return is_probable_prime(n)

    monkeypatch.setattr(exactmath, "is_probable_prime", counted)
    for n in (257 * 257, 257 * 263, 4093 * 4099, 4099, 4111, 10 ** 6 + 3, 4097 * 4097 - 1):
        factors = factorize(n)
        assert math.prod(p ** e for p, e in factors.items()) == n
        assert all(is_probable_prime(p) for p in factors)
    assert factorize(4093 * 4099) == {4093: 1, 4099: 1}
    assert calls == []
    assert factorize(4099 * 4099) == {4099: 2}
    assert factorize(4099 * 4111) == {4099: 1, 4111: 1}
    assert factorize(4099 * 4111 * 7) == {7: 1, 4099: 1, 4111: 1}


def test_primality():
    assert is_probable_prime(2) and is_probable_prime(10 ** 9 + 7)
    assert not is_probable_prime(1) and not is_probable_prime(561)  # Carmichael


def test_miller_rabin_psi12():
    # psi_12, the least strong pseudoprime to the first twelve prime bases
    psi12 = 318665857834031151167461
    assert not is_probable_prime(psi12)
    assert factorize(psi12) == {399165290221: 1, 798330580441: 1}


# psi_k for each base count k that is_probable_prime uses below psi_13
PSI = {
    4: 3_215_031_751,
    5: 2_152_302_898_747,
    6: 3_474_749_660_383,
    8: 341_550_071_728_321,
    11: 3_825_123_056_546_413_051,
    12: 318_665_857_834_031_151_167_461,
}


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_miller_rabin_tiers_are_tight():
    bases = exactmath._MR_WITNESSES
    assert [k for _, k in exactmath._MR_TIERS][:-1] == list(PSI)
    assert [bound for bound, _ in exactmath._MR_TIERS][:-1] == list(PSI.values())
    for k, psi in PSI.items():
        # psi_k fools the first k bases, so n = psi_k needs the next tier
        assert all(_strong_probable_prime(psi, a) for a in bases[:k]), k
        assert not _strong_probable_prime(psi, bases[k]), k
        assert not is_probable_prime(psi), k
        assert math.prod(p ** e for p, e in factorize(psi).items()) == psi
    assert not is_probable_prime(exactmath._MR_PROVEN_BOUND)


def test_primality_across_tiers():
    rng = random.Random(2017)
    # near each tier bound the tier's bases agree with all twenty-five
    all_bases = exactmath._MR_WITNESSES + exactmath._MR_EXTRA
    for bound, _ in exactmath._MR_TIERS:
        for n in range(bound - 400, bound + 400):
            if n % 2 and n % 3 and n % 5 and n % 7:
                assert is_probable_prime(n) == all(_strong_probable_prime(n, a) for a in all_bases)
    for _ in range(200):
        n = rng.randrange(10 ** 6, 10 ** 7)
        assert is_probable_prime(n) == all(n % q for q in range(2, math.isqrt(n) + 1))


def test_ratfunc_sqrt():
    square = RatFunc(upoly(1, 2, 1), upoly(0, 0, 9))
    assert ratfunc_sqrt(square) == RatFunc(upoly(1, 1), upoly(0, 3))
    with pytest.raises(ExactMathError):
        ratfunc_sqrt(RatFunc(upoly(0, 1)))


def test_rat_string_round_trip():
    for s in ("3/4", "-29274", "0", "22/7"):
        assert rat_to_str(rat_from_str(s)) == s
    for bad in ("1/0", "zebra", "1e3", "1.5", " 3/4", "1_000"):
        with pytest.raises(ValueError):
            rat_from_str(bad)
    for not_a_string in (3, 0.1, True, None, ["3/4"]):
        with pytest.raises(TypeError):
            rat_from_str(not_a_string)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(49, 64)) == Fraction(7, 8)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None


# -- records -------------------------------------------------------------------


def test_records_share_one_constructor():
    v = SieveVerdict(True, 2, 3, (11, 13), 17)
    assert v == SieveVerdict(True, 2, ell=3, torsion_prime=17, primes_used=(11, 13))
    bad_calls = [
        ((True, 2, 3, (11, 13)), {}, "missing required argument 'torsion_prime'"),
        ((True, 2, 3, (11, 13), 17), {"p": 5}, "unexpected keyword argument 'p'"),
        ((True, 2, 3, (11, 13), 17), {"rank": 2}, "multiple values for argument 'rank'"),
        ((True, 2, 3, (11, 13), 17, None), {}, "takes 5 arguments but 6 were given"),
    ]
    for args, kwargs, message in bad_calls:
        with pytest.raises(TypeError, match=f"^SieveVerdict\\(\\) .*{message}"):
            SieveVerdict(*args, **kwargs)

    report = DensityReport("f", 4, 1, (1000,), (3,), {})
    assert (report.certified_counts, report.certifications, report.fit) == (None, None, None)
    fitted = report._replace(fit=(0.5, 1.0, 0.0))
    assert type(fitted) is DensityReport and fitted is not report
    assert fitted.fit == (0.5, 1.0, 0.0) and report.fit is None
    assert fitted != report and fitted._replace(fit=None) == report

    curve = CubicCurve(upoly(0, -1, 0, 1))
    with pytest.raises(CurveError, match="singular"):
        curve._replace(f=upoly(0, 0, 0, 1))
    assert curve.f == upoly(0, -1, 0, 1)
