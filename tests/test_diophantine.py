from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import pytest

from lowdisc.algebra import FixedPointReal, fixedpoint_sqrt, golden_ratio_frac
from lowdisc.diophantine import (
    PhiSpec,
    cf_rational,
    cf_surd,
    largest_quotient_2k_sqrt2,
    littlewood_scan,
    moser_scan,
    scan_report_csv,
    schmidt_count,
    zaremba_scan,
)
from lowdisc.errors import PrecisionError, ValidationError


# -- rational continued fractions ------------------------------------------------


def test_cf_rational_examples():
    assert cf_rational(0, 5).quotients == (0,)
    assert cf_rational(2, 5).quotients == (0, 2, 2)
    assert cf_rational(3, 5).quotients == (0, 1, 1, 2)
    assert cf_rational(1, 2).quotients == (0, 2)
    with pytest.raises(ValidationError):
        cf_rational(1, 0)


def test_cf_rational_round_trip_and_canonical_form():
    for n in range(2, 121):
        for a in range(1, n):
            if gcd(a, n) != 1:
                continue
            cf = cf_rational(a, n)
            assert cf.value() == Fraction(a, n)
            assert cf.quotients[-1] >= 2 or len(cf.quotients) == 1


# -- quadratic surds ----------------------------------------------------------------


def test_cf_surd_examples():
    two = cf_surd(2)
    assert two.preperiod == (1,) and two.period == (2,)
    eight = cf_surd(8)
    assert eight.preperiod == (2,) and eight.period == (1, 4)
    assert eight.largest_quotient == 4
    thirty_two = cf_surd(32)
    assert thirty_two.preperiod == (5,) and thirty_two.period == (1, 1, 1, 10)
    assert thirty_two.largest_quotient == 10
    with pytest.raises(ValidationError):
        cf_surd(16)
    with pytest.raises(ValidationError):
        cf_surd(1)


def test_cf_surd_convergents_approximate_the_root():
    for d in range(2, 101):
        if isqrt(d) ** 2 == d:
            continue
        cf = cf_surd(d)
        base = len(cf.preperiod)
        for j in range(1, 4):
            conv = cf.convergent(base + j * len(cf.period))
            p, q = conv.numerator, conv.denominator
            # |sqrt(d) - p/q| < 1/q^2  <=>  (pq - 1)^2 < q^4 d < (pq + 1)^2
            assert (p * q - 1) ** 2 < q**4 * d < (p * q + 1) ** 2


def test_cf_surd_matches_numeric_expansion():
    # independent check: run the Euclidean expansion on a 300-bit scaled root
    for d in (2, 8, 32, 50, 73):
        cf = cf_surd(d)
        width = 300
        x, y = isqrt(d << (2 * width)), 1 << width
        numeric = []
        for _ in range(12):
            q, r = divmod(x, y)
            numeric.append(q)
            if not r:
                break
            x, y = y, r
        assert cf.quotient_prefix(12) == tuple(numeric[:12])


def test_largest_quotient_2k_sqrt2():
    assert largest_quotient_2k_sqrt2(0) == 2
    assert largest_quotient_2k_sqrt2(1) == 4
    assert largest_quotient_2k_sqrt2(2) == 10


# -- Zaremba / Moser -------------------------------------------------------------------


def test_zaremba_examples():
    assert zaremba_scan(2) == (2, 1)
    stat, witness = zaremba_scan(5)
    assert stat == 2 and witness in (2, 3)
    assert zaremba_scan(6) == (5, 5)  # 1/6 = [0;6], 5/6 = [0;1,5]


def test_zaremba_witness_reverifies():
    for n in (7, 30, 97, 210):
        stat, witness = zaremba_scan(n)
        assert gcd(witness, n) == 1
        assert max(cf_rational(witness, n).tail) == stat
        assert stat >= 1


def test_moser_bounded_by_zaremba_witness():
    for n in range(2, 61):
        s_min, moser_witness = moser_scan(n)
        assert gcd(moser_witness, n) == 1
        assert sum(cf_rational(moser_witness, n).tail) == s_min
        a_min, zaremba_witness = zaremba_scan(n)
        zaremba_tail = cf_rational(zaremba_witness, n).tail
        assert s_min <= a_min * len(zaremba_tail)


def _reference_scans(n):
    """Both scans by the definition: (stat, a) minimized over a coprime to n."""
    tails = [(cf_rational(a, n).tail, a) for a in range(1, n) if gcd(a, n) == 1]
    return min((max(t), a) for t, a in tails), min((sum(t), a) for t, a in tails)


def test_scans_match_reference():
    # the pruned scans stop an expansion once it ties the best, and Moser
    # visits only a <= n/2; both must still return the smallest witness
    for n in [*range(2, 401), 997, 1000, 1024, 2310]:
        assert (zaremba_scan(n), moser_scan(n)) == _reference_scans(n), n


# -- Schmidt-type counting ------------------------------------------------------------


def test_schmidt_count_examples():
    res = schmidt_count(2, (1,), 5, PhiSpec("constant", Fraction(1, 2)))
    assert (res.count, res.main_term, res.residual) == (3, Fraction(5, 2), Fraction(1, 2))
    zero = schmidt_count(2, (1,), 5, PhiSpec("constant", Fraction(0)))
    assert zero.count == 0 and zero.main_term == 0
    full = schmidt_count(2, (1, 2), 5, PhiSpec("constant", Fraction(1)))
    assert full.count == 25 and full.residual == 0


def test_schmidt_count_monotone_in_c_and_h():
    prev = -1
    for num in range(0, 9):
        res = schmidt_count(2, (2, 3), 7, PhiSpec("constant", Fraction(num, 8)))
        assert res.count >= prev
        prev = res.count
    prev = -1
    for h in range(1, 5):
        res = schmidt_count(h, (2, 3), 7, PhiSpec("constant", Fraction(3, 8)))
        assert res.count >= prev
        prev = res.count


def test_schmidt_product_weight_and_clamping():
    res = schmidt_count(2, (1,), 5, PhiSpec("product", Fraction(3, 2)))
    # clamp keeps every weight within [0, 1]
    assert 0 <= res.main_term <= 5
    spec = PhiSpec("product", Fraction(1, 2))
    assert spec((2,)) == Fraction(1, 4)
    assert spec((0,)) == Fraction(1, 2)
    with pytest.raises(ValidationError):
        PhiSpec("gaussian", Fraction(1, 2))
    assert PhiSpec.parse("constant:1/2") == PhiSpec("constant", Fraction(1, 2))
    with pytest.raises(ValidationError):
        PhiSpec.parse("constant")


# -- Littlewood ----------------------------------------------------------------------


def test_littlewood_rational_alphas():
    half = FixedPointReal.from_fraction(Fraction(1, 2), 64)
    res = littlewood_scan(half, half, 10)
    assert res.min_value == 0 and res.argmin == 2

    third = FixedPointReal.from_fraction(Fraction(1, 3), 64)
    quarter = FixedPointReal.from_fraction(Fraction(1, 4), 64)
    res = littlewood_scan(third, quarter, 12)
    assert res.min_value == 0
    assert res.argmin == 4  # ||4 * 1/4|| = 0 already; smallest witness wins
    # 1/3 is not dyadic, so the carrier is truncated and the bound reflects it
    assert res.per_coordinate_error == Fraction(12, 1 << 64)


def test_littlewood_sqrt_pair_regression():
    res = littlewood_scan(fixedpoint_sqrt(2, 128), fixedpoint_sqrt(3, 128), 10**4)
    assert res.min_value > 0
    assert res.argmin == 41
    assert float(res.min_value) == 0.009956782247828014
    assert res.per_coordinate_error == Fraction(10**4, 1 << 128)


def test_littlewood_running_minimum_is_nonincreasing():
    a, b = fixedpoint_sqrt(2, 96), fixedpoint_sqrt(3, 96)
    prev = None
    for n_max in (10, 50, 200, 1000):
        res = littlewood_scan(a, b, n_max)
        if prev is not None:
            assert res.min_value <= prev
        prev = res.min_value


def littlewood_reference(alpha, beta, n_max):
    """Minimum and first argmin of n ||n a|| ||n b|| over 2^w, by the
    definition: one product per n, min of the two distances."""
    one = 1 << alpha.width

    def dist(x):
        return min(x % one, one - x % one)

    return min((n * dist(n * alpha.frac_bits) * dist(n * beta.frac_bits), n) for n in range(1, n_max + 1))


@pytest.mark.parametrize(
    "alpha, beta",
    [
        (fixedpoint_sqrt(2, 128), fixedpoint_sqrt(3, 128)),
        (golden_ratio_frac(96), fixedpoint_sqrt(7, 96)),
        # dyadic and truncated rationals: zero products and ties between n
        (FixedPointReal.from_fraction(Fraction(3, 8), 64), FixedPointReal.from_fraction(Fraction(1, 3), 64)),
    ],
)
def test_littlewood_running_residues_match_definition(alpha, beta):
    one = 1 << alpha.width
    for n_max in (1, 2, 7, 100, 2000):
        res = littlewood_scan(alpha, beta, n_max)
        value, argmin = littlewood_reference(alpha, beta, n_max)
        assert (res.min_value, res.argmin) == (Fraction(value, one * one), argmin)


def test_littlewood_guards():
    with pytest.raises(ValidationError):
        littlewood_scan(fixedpoint_sqrt(2, 64), fixedpoint_sqrt(3, 128), 10)
    with pytest.raises(PrecisionError):
        littlewood_scan(fixedpoint_sqrt(2, 40), fixedpoint_sqrt(3, 40), 10**4)


# -- CSV ----------------------------------------------------------------------------


def test_scan_report_csv_shape():
    text = scan_report_csv(("N", "stat", "witness"), [(2, 2, 1), (3, 2, 2)])
    assert text == "N,stat,witness\n2,2,1\n3,2,2\n"
