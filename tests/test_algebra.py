from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import pytest

from lowdisc.algebra import (
    FixedPointReal,
    GenMatrix,
    LaurentSeries,
    check_index_budget,
    digits_of,
    fixedpoint_sqrt,
    golden_ratio_frac,
    is_prime,
    laurent_frac_eval,
    laurent_mul_poly,
    mat_vec_mod_q,
    poly_deg,
    poly_divmod,
    poly_gcd,
)
from lowdisc.errors import PrecisionError, TruncationError, ValidationError


# -- prime moduli -----------------------------------------------------------


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9, 15])
def test_composite_modulus_rejected(q: int) -> None:
    assert not is_prime(q)
    with pytest.raises(ValidationError):
        GenMatrix.identity(q)


# -- polynomials --------------------------------------------------------------


def test_poly_basics() -> None:
    assert poly_deg(()) == -1
    assert poly_deg((1, 1, 0)) == 1
    q, r = poly_divmod((0, 0, 1), (1, 1, 1), 2)  # x^2 = 1*(x^2+x+1) + (x+1)
    assert q == (1,)
    assert r == (1, 1)
    assert poly_gcd((1, 1), (1, 0, 1), 2) == (1, 1)  # x^2+1 = (x+1)^2 over Z_2
    assert poly_gcd((1,), (1, 1, 1), 2) == (1,)
    with pytest.raises(ValidationError):
        poly_divmod((1,), (), 3)


# -- generating matrices ------------------------------------------------------


def test_mat_vec_identity_and_zero() -> None:
    ident = GenMatrix.identity(2)
    assert mat_vec_mod_q(ident, (1, 1, 0), 3) == (1, 1, 0)
    ones = GenMatrix.ones_first_row(3)
    assert mat_vec_mod_q(ones, (0, 0, 0, 0), 4) == (0, 0, 0, 0)
    assert mat_vec_mod_q(ident, (), 4) == (0, 0, 0, 0)


def test_mat_vec_ones_first_row_base3() -> None:
    ones = GenMatrix.ones_first_row(3)
    assert digits_of(4, 3) == (1, 1)
    assert mat_vec_mod_q(ones, digits_of(4, 3), 2) == (2, 1)


def test_mat_vec_rejects_bad_digits() -> None:
    ident = GenMatrix.identity(3)
    with pytest.raises(ValidationError):
        mat_vec_mod_q(ident, (3,), 2)
    with pytest.raises(ValidationError):
        mat_vec_mod_q(ident, (1,), 0)


def test_mat_vec_prefix_consistency() -> None:
    rng = random.Random(915)
    for q in (2, 3, 5):
        mat = GenMatrix.random_uniform(q, 24, seed=7)
        for _ in range(20):
            digits = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 10)))
            long = mat_vec_mod_q(mat, digits, 12)
            short = mat_vec_mod_q(mat, digits, 5)
            assert long[:5] == short


def test_mat_vec_padding_independence_for_finite_rows() -> None:
    mat = GenMatrix.random_finite_rows(3, 16, seed=3)
    digits = (1, 2, 0, 1)
    padded = digits + (0,) * 10
    assert mat_vec_mod_q(mat, digits, 8) == mat_vec_mod_q(mat, padded, 8)


def test_matrix_determinism_and_caps() -> None:
    a = GenMatrix.random_uniform(5, 8, seed=11)
    b = GenMatrix.random_uniform(5, 8, seed=11)
    assert a.row_prefix(3, 8) == b.row_prefix(3, 8)
    assert a.row_prefix(3, 8)[:4] == a.row_prefix(3, 4)
    with pytest.raises(ValidationError):
        a.row_prefix(8, 2)
    with pytest.raises(ValidationError):
        a.row_prefix(0, 9)


def test_from_rows_extends_with_zeros() -> None:
    mat = GenMatrix.from_rows(2, [(1, 1), (0, 1)])
    assert mat.row_prefix(0, 4) == (1, 1, 0, 0)
    assert mat.row_prefix(5, 3) == (0, 0, 0)


def test_stored_entries_are_checked_at_construction() -> None:
    with pytest.raises(ValidationError, match=r"matrix entry 2 outside \[0, 2\)"):
        GenMatrix(2, "rows:2", ((2,),))
    with pytest.raises(ValidationError, match=r"matrix entry -1 outside \[0, 3\)"):
        GenMatrix(3, "random(size=2,seed=0)", ((0, 1), (-1, 2)), (2, 2))


# -- Laurent series -----------------------------------------------------------


def x_pow(q: int, k: int) -> LaurentSeries:
    return LaurentSeries.make(q, k, (1,))


def test_laurent_mul_examples() -> None:
    f = x_pow(2, 1)
    assert laurent_mul_poly(f, (1,)) == f
    shifted = laurent_mul_poly(f, (0, 1))  # multiply by x
    assert shifted.omega == 0 and shifted.coeffs == (1,)

    g = LaurentSeries.make(3, 1, (1, 1))  # x^-1 + x^-2
    prod = laurent_mul_poly(g, (0, 2))  # times 2x
    assert prod.omega == 0 and prod.coeffs == (2, 2)  # 2 + 2 x^-1


def test_laurent_frac_eval_examples() -> None:
    assert laurent_frac_eval(LaurentSeries.zero(2), 5) == 0
    f = LaurentSeries.make(2, 1, (1, 0, 1))  # x^-1 + x^-3
    assert laurent_frac_eval(f, 3) == Fraction(5, 8)
    g = LaurentSeries.make(3, 0, (2, 2, 1))  # 2 + 2x^-1 + x^-2
    assert laurent_frac_eval(g, 2) == Fraction(7, 9)


def test_laurent_frac_eval_truncation_guard() -> None:
    f = LaurentSeries.make(2, 1, (1, 0, 1))
    with pytest.raises(TruncationError):
        laurent_frac_eval(f, 4)
    with pytest.raises(ValidationError):
        laurent_frac_eval(f, 0)
    deep = LaurentSeries.make(2, 5, (1,))
    assert laurent_frac_eval(deep, 3) == 0  # digits 1..3 of x^-5 are all zero


def test_laurent_frac_eval_range_and_denominator() -> None:
    rng = random.Random(4160)
    for _ in range(60):
        q = rng.choice([2, 3, 5])
        omega = rng.randrange(-2, 4)
        coeffs = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(rng.randrange(0, 6))]
        f = LaurentSeries.make(q, omega, coeffs)
        top = f.known_top
        if f.is_zero or top < 1:
            continue
        val = laurent_frac_eval(f, top)
        assert 0 <= val < 1
        assert (q**top) % val.denominator == 0


def test_laurent_from_rational_long_division() -> None:
    # 1 / (x^2 + x + 1) over Z_2 repeats the digit block (0, 1, 1).
    f = LaurentSeries.from_rational(2, (1,), (1, 1, 1), depth=6)
    assert f.omega == 2
    assert f.coeffs == (1, 1, 0, 1, 1)
    assert LaurentSeries.from_rational(3, (), (1, 1), depth=4).is_zero
    with pytest.raises(ValidationError):
        LaurentSeries.from_rational(2, (1, 1, 1), (1, 1), depth=4)


def test_laurent_make_normalizes_leading_zeros() -> None:
    f = LaurentSeries.make(2, 1, (0, 0, 1, 1))
    assert f.omega == 3 and f.coeffs == (1, 1)
    assert LaurentSeries.make(2, 1, (0, 0)).is_zero
    with pytest.raises(ValidationError):
        LaurentSeries(2, 1, (0, 1))


# -- fixed point --------------------------------------------------------------


def test_fixedpoint_sqrt_examples() -> None:
    four = fixedpoint_sqrt(4, 8)
    assert four.integer_part == 2 and four.frac_bits == 0 and four.exact

    two = fixedpoint_sqrt(2, 4)
    assert two.integer_part == 1 and two.frac_bits == 6 and not two.exact

    w64 = fixedpoint_sqrt(2, 64)
    w128 = fixedpoint_sqrt(2, 128)
    assert w64.scaled == w128.scaled >> 64


def test_fixedpoint_sqrt_bracketing_invariant() -> None:
    for d in (2, 3, 5, 8, 50):
        for width in (4, 16, 64):
            fp = fixedpoint_sqrt(d, width)
            s = fp.scaled
            assert s * s <= d << (2 * width) < (s + 1) * (s + 1)


def test_fixedpoint_from_fraction() -> None:
    fp = FixedPointReal.from_fraction(Fraction(1, 4), 8)
    assert fp.exact and fp.frac_bits == 64
    assert fp.value == Fraction(1, 4)
    inexact = FixedPointReal.from_fraction(Fraction(1, 3), 8)
    assert not inexact.exact
    with pytest.raises(ValidationError):
        FixedPointReal.from_fraction(Fraction(-1, 2), 8)


def test_golden_ratio_frac() -> None:
    g = golden_ratio_frac(64)
    expected = (isqrt(5 << 128) - (1 << 64)) >> 1
    assert g.frac_bits == expected
    assert g.integer_part == 0
    assert Fraction(0, 1) < g.value < 1


def test_index_budget() -> None:
    alpha = fixedpoint_sqrt(2, 64)
    check_index_budget(alpha, 5)
    with pytest.raises(PrecisionError):
        check_index_budget(alpha, 1 << 40)
    exact = FixedPointReal.from_fraction(Fraction(1, 4), 8)
    check_index_budget(exact, 1 << 40)  # exact values are unconstrained
