"""Exact arithmetic substrate: prime fields, generating matrices over Z_q,
truncated formal Laurent series, and fixed-point carriers for irrationals.

Conventions used throughout the package:

* Elements of Z_q are plain ints in ``[0, q)``.
* Polynomials over Z_q are tuples of coefficients in ascending order,
  ``(c0, c1, ...)`` for ``c0 + c1*x + ...``, trimmed so the last entry is
  nonzero (the zero polynomial is the empty tuple).
* A Laurent series ``a_w x^-w + a_(w+1) x^-(w+1) + ...`` is stored as its
  leading exponent ``omega`` (= w) and the known coefficient window
  ``a_omega .. a_known_top``.  Exponents below ``omega`` are zero by
  definition; exponents above the window are *unknown*, not zero, and
  asking for them raises :class:`~lowdisc.errors.TruncationError`.
* A fixed-point real stores ``floor(frac(x) * 2^W)`` plus the integer part,
  so every derived quantity carries an explicit error budget of ``2^-W``.
  Values constructed from data that is exactly representable set
  ``exact=True`` and are treated as error-free.

The value classes here are frozen dataclasses that check their fields once,
when built; a generating matrix is data too, its rows stored or named by rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING

from .errors import PrecisionError, TruncationError, ValidationError

if TYPE_CHECKING:  # numpy is imported inside the functions that build arrays
    import numpy as np

__all__ = [
    "FixedPointReal",
    "GenMatrix",
    "LaurentSeries",
    "digits_of",
    "fixedpoint_sqrt",
    "golden_ratio_frac",
    "int_array",
    "is_prime",
    "laurent_frac_eval",
    "laurent_mul_poly",
    "mat_vec_mod_q",
    "poly_deg",
    "poly_divmod",
    "poly_gcd",
    "poly_trim",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_prime(q: int) -> None:
    if not isinstance(q, int) or not is_prime(q):
        raise ValidationError(f"modulus must be a prime >= 2, got {q!r}")


def digits_of(n: int, q: int) -> tuple[int, ...]:
    """Base-q digits of ``n``, least significant first; ``()`` for zero."""
    if n < 0:
        raise ValidationError("digit expansion requires a nonnegative integer")
    out = []
    while n:
        n, r = divmod(n, q)
        out.append(r)
    return tuple(out)


def int_array(values, bound: int) -> np.ndarray:
    """An integer array of ``values`` that stays exact below ``bound``.

    ``bound`` must exceed the magnitude of every value and of every result
    the caller computes from them: the array is int64 when ``bound <= 2^63``
    and holds Python ints (dtype object) otherwise.
    """
    import numpy as np

    if bound > 1 << 63:
        return np.asarray(values, dtype=object)
    if isinstance(values, range):
        return np.arange(values.start, values.stop, values.step, dtype=np.int64)
    return np.asarray(values, dtype=np.int64)


# ---------------------------------------------------------------------------
# Polynomials over Z_q (ascending coefficient tuples)
# ---------------------------------------------------------------------------


def poly_trim(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_deg(coeffs) -> int:
    """Degree of a trimmed polynomial; -1 for the zero polynomial."""
    return len(poly_trim(coeffs)) - 1


def _check_poly(coeffs, q: int) -> tuple[int, ...]:
    cs = tuple(coeffs)
    for c in cs:
        if not isinstance(c, int) or not 0 <= c < q:
            raise ValidationError(f"polynomial coefficient {c!r} outside [0, {q})")
    return poly_trim(cs)


def poly_divmod(a, b, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a = list(_check_poly(a, q))
    b = _check_poly(b, q)
    if not b:
        raise ValidationError("polynomial division by zero")
    inv_lead = pow(b[-1], q - 2, q)
    quot = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        c = (a[-1] * inv_lead) % q
        quot[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % q
        while a and a[-1] == 0:
            a.pop()
    return poly_trim(quot), tuple(a)


def poly_gcd(a, b, q: int) -> tuple[int, ...]:
    """Monic gcd of two polynomials over Z_q."""
    a = _check_poly(a, q)
    b = _check_poly(b, q)
    while b:
        _, r = poly_divmod(a, b, q)
        a, b = b, r
    if a:
        inv = pow(a[-1], q - 2, q)
        a = tuple((c * inv) % q for c in a)
    return a


# ---------------------------------------------------------------------------
# Generating matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenMatrix:
    """An N x N generating matrix over Z_q, held as data.

    Row and column indices are 0-based; row ``r`` produces the coefficient
    of ``q^-(r+1)`` in the generated point, and the digit products read a
    matrix only through :meth:`row_prefix`.  ``label`` is the matrix's spec
    token.  The tokens ``identity`` and ``onesrow`` name rules, whose rows
    are infinite; every other matrix reads its stored ``rows``, as zero past
    each row's end and below the last row.  A randomly sampled matrix sets
    ``cap`` to its sampled ``(rows, columns)`` (columns ``None`` if its rows
    are finite) and raises beyond it rather than inventing entries.
    """

    q: int
    label: str
    rows: tuple[tuple[int, ...], ...] = ()
    cap: tuple[int, int | None] | None = None

    def __post_init__(self) -> None:
        for row in self.rows:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < self.q:
                    raise ValidationError(f"matrix entry {v!r} outside [0, {self.q})")
        _check_prime(self.q)

    def row_prefix(self, r: int, m: int) -> tuple[int, ...]:
        """First ``m`` entries of row ``r``; deterministic."""
        if m < 1:
            return ()
        if r < 0:
            raise ValidationError("matrix indices must be nonnegative")
        if self.label in ("identity", "onesrow"):
            if r == 0 and self.label == "onesrow":
                return (1,) * m
            return tuple(int(c == r) for c in range(m))
        if self.cap is not None:
            max_rows, max_cols = self.cap
            if r >= max_rows:
                raise ValidationError(
                    f"matrix {self.label!r} is capped at {max_rows} rows; row {r} undefined"
                )
            if max_cols is not None and m > max_cols:
                raise ValidationError(
                    f"matrix {self.label!r} is capped at {max_cols} columns; column {max_cols} undefined"
                )
        row = self.rows[r] if r < len(self.rows) else ()
        return row[:m] + (0,) * (m - len(row))

    # -- named constructions -------------------------------------------------

    @classmethod
    def identity(cls, q: int) -> "GenMatrix":
        return cls(q, "identity")

    @classmethod
    def ones_first_row(cls, q: int) -> "GenMatrix":
        """First row all ones, the shifted identity below it.

        The first generated digit is the digit sum of n mod q; digit r >= 1
        copies the r-th input digit.  Row 0 is not finite.
        """
        return cls(q, "onesrow")

    @classmethod
    def from_rows(cls, q: int, rows) -> "GenMatrix":
        stored = tuple(tuple(int(v) for v in row) for row in rows)
        body = ".".join("".join(str(v) for v in row) for row in stored)
        return cls(q, f"rows:{'unprintable' if q > 7 else body}", stored)

    @classmethod
    def random_uniform(cls, q: int, size: int, seed: int) -> "GenMatrix":
        """An i.i.d. uniform matrix over Z_q, sampled down to a size cap.

        Entries beyond the cap are undefined (queries raise) because
        inventing them would silently change the sampled object.
        """
        _check_prime(q)
        if size < 1:
            raise ValidationError("matrix size must be >= 1")
        rng = random.Random(f"uniform:{q}:{size}:{seed}")
        stored = tuple(tuple(rng.randrange(q) for _ in range(size)) for _ in range(size))
        return cls(q, f"random(size={size},seed={seed})", stored, (size, size))

    @classmethod
    def random_finite_rows(
        cls, q: int, size: int, seed: int, rho: Fraction = Fraction(1, 2)
    ) -> "GenMatrix":
        """A random finite-row matrix, sampled down to a row cap.

        Row lengths are geometric with continuation probability ``1 - rho``,
        the last entry of each row is forced nonzero, remaining entries are
        uniform.  This sampler is an explicit convention, not a canonical
        measure on finite-row matrices.
        """
        _check_prime(q)
        if size < 1:
            raise ValidationError("matrix size must be >= 1")
        rho = Fraction(rho)
        if not 0 < rho < 1:
            raise ValidationError("rho must be strictly between 0 and 1")
        rng = random.Random(f"finite-rows:{q}:{size}:{seed}:{rho}")
        rows = []
        for _ in range(size):
            length = 1
            while rng.random() >= rho:
                length += 1
            row = [rng.randrange(q) for _ in range(length - 1)]
            row.append(rng.randrange(1, q))
            rows.append(tuple(row))
        return cls(q, f"finiterandom(size={size},seed={seed},rho={rho})", tuple(rows), (size, None))


def mat_vec_mod_q(mat: GenMatrix, digits, depth: int) -> tuple[int, ...]:
    """First ``depth`` coordinates of ``mat @ digits`` over Z_q.

    ``digits`` is a digit vector with finitely many nonzero entries; trailing
    zeros never change the result, so callers may pad freely.
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    ds = tuple(digits)
    q = mat.q
    for d in ds:
        if not isinstance(d, int) or not 0 <= d < q:
            raise ValidationError(f"digit {d!r} outside [0, {q})")
    while ds and ds[-1] == 0:
        ds = ds[:-1]
    m = len(ds)
    out = []
    for r in range(depth):
        if m == 0:
            out.append(0)
            continue
        row = mat.row_prefix(r, m)
        acc = 0
        for e, d in zip(row, ds):
            if d and e:
                acc += e * d
        out.append(acc % q)
    return tuple(out)


# ---------------------------------------------------------------------------
# Truncated formal Laurent series over Z_q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated Laurent series ``sum_{k>=omega} a_k x^-k`` over Z_q.

    ``coeffs`` holds ``a_omega .. a_known_top`` with ``a_omega != 0``;
    the zero series is ``coeffs == ()``.  Constructing a window of explicit
    zeros asserts that the series *is* zero (the sources in this package
    always know their coefficients exactly on the window they expose).
    """

    q: int
    omega: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_prime(self.q)
        for c in self.coeffs:
            if not isinstance(c, int) or not 0 <= c < self.q:
                raise ValidationError(f"coefficient {c!r} outside [0, {self.q})")
        if self.coeffs and self.coeffs[0] == 0:
            raise ValidationError("leading coefficient must be nonzero (use make())")

    @classmethod
    def make(cls, q: int, omega: int, coeffs) -> "LaurentSeries":
        """Build a series, trimming known-zero leading coefficients."""
        cs = list(coeffs)
        while cs and cs[0] == 0:
            cs.pop(0)
            omega += 1
        if not cs:
            return cls(q, 0, ())
        return cls(q, omega, tuple(cs))

    @classmethod
    def zero(cls, q: int) -> "LaurentSeries":
        return cls(q, 0, ())

    @classmethod
    def from_rational(cls, q: int, num, den, depth: int) -> "LaurentSeries":
        """Expansion of ``num/den`` (polynomials over Z_q) with all
        coefficients up to exponent ``depth`` known.

        Requires ``deg num < deg den`` so the expansion has no polynomial
        part; this is the only shape the package needs.
        """
        if depth < 1:
            raise ValidationError("expansion depth must be >= 1")
        num = _check_poly(num, q)
        den = _check_poly(den, q)
        if not den:
            raise ValidationError("denominator polynomial is zero")
        if not num:
            return cls.zero(q)
        if poly_deg(num) >= poly_deg(den):
            raise ValidationError("numerator degree must be below denominator degree")
        coeffs = []
        rem = num
        for _ in range(depth):
            shifted = (0,) + rem
            quot, rem = poly_divmod(shifted, den, q)
            coeffs.append(quot[0] if quot else 0)
        return cls.make(q, 1, coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def known_top(self) -> int:
        """Largest exponent k with a_k known; meaningless for zero."""
        return self.omega + len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if self.is_zero:
            return 0
        if k < self.omega:
            return 0
        if k > self.known_top:
            raise TruncationError(
                f"coefficient of x^-{k} beyond the known window (top {self.known_top})"
            )
        return self.coeffs[k - self.omega]


def laurent_mul_poly(f: LaurentSeries, poly) -> LaurentSeries:
    """Multiply a Laurent series by a polynomial over the same Z_q.

    The window length is preserved; the leading exponent drops by deg(poly).
    """
    q = f.q
    p = _check_poly(poly, q)
    if f.is_zero or not p:
        return LaurentSeries.zero(q)
    r = len(p) - 1
    n = len(f.coeffs)
    out = []
    for i in range(n):
        acc = 0
        for j in range(max(0, r - i), r + 1):
            acc += p[j] * f.coeffs[i + j - r]
        out.append(acc % q)
    return LaurentSeries.make(q, f.omega - r, out)


def laurent_frac_eval(f: LaurentSeries, precision: int) -> Fraction:
    """Evaluate the fractional part of ``f`` at x = q to ``precision`` digits.

    Keeps terms with exponents in ``[max(1, omega), precision]`` and returns
    the exact rational; the result is in [0, 1) with denominator dividing
    ``q**precision``.
    """
    if precision < 1:
        raise ValidationError("precision must be >= 1")
    if f.is_zero:
        return Fraction(0)
    if precision > f.known_top:
        raise TruncationError(
            f"requested {precision} digits but the series window ends at {f.known_top}"
        )
    acc = 0
    for k in range(1, precision + 1):
        acc = acc * f.q + f.coefficient(k)
    return Fraction(acc, f.q**precision)


# ---------------------------------------------------------------------------
# Fixed-point reals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointReal:
    """Nonnegative real carried as ``integer_part + frac_bits / 2^width``.

    The stored value is a floor of the true value, so the representation
    error is in ``[0, 2^-width)``; ``exact`` marks values that are exactly
    representable and therefore error-free.  ``label`` remembers how the
    value was built so sequence descriptions can be serialized.
    """

    width: int
    frac_bits: int
    integer_part: int = 0
    exact: bool = False
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValidationError("width must be >= 1")
        if not 0 <= self.frac_bits < (1 << self.width):
            raise ValidationError("fractional bits outside [0, 2^width)")
        if self.integer_part < 0:
            raise ValidationError("negative values are not supported")

    @classmethod
    def sqrt(cls, d: int, width: int) -> "FixedPointReal":
        """Floor of ``sqrt(d) * 2^width`` via integer square root."""
        if d < 0:
            raise ValidationError("square root of a negative integer")
        if width < 1:
            raise ValidationError("width must be >= 1")
        s = isqrt(d << (2 * width))
        return cls(
            width=width,
            frac_bits=s & ((1 << width) - 1),
            integer_part=s >> width,
            exact=s * s == d << (2 * width),
            label=f"sqrt{d}",
        )

    @classmethod
    def from_fraction(cls, value: Fraction, width: int) -> "FixedPointReal":
        value = Fraction(value)
        if value < 0:
            raise ValidationError("negative values are not supported")
        if width < 1:
            raise ValidationError("width must be >= 1")
        scaled = (value.numerator << width) // value.denominator
        return cls(
            width=width,
            frac_bits=scaled & ((1 << width) - 1),
            integer_part=scaled >> width,
            exact=scaled * value.denominator == value.numerator << width,
            label=str(value),
        )

    @property
    def scaled(self) -> int:
        """The full scaled integer ``floor(x * 2^width)``."""
        return (self.integer_part << self.width) + self.frac_bits

    @property
    def value(self) -> Fraction:
        return Fraction(self.scaled, 1 << self.width)

    @property
    def frac_value(self) -> Fraction:
        return Fraction(self.frac_bits, 1 << self.width)


def fixedpoint_sqrt(d: int, width: int) -> FixedPointReal:
    return FixedPointReal.sqrt(d, width)


def golden_ratio_frac(width: int) -> FixedPointReal:
    """Fractional part of the golden ratio, (sqrt(5) - 1) / 2, at ``width``."""
    if width < 1:
        raise ValidationError("width must be >= 1")
    bits = (isqrt(5 << (2 * width)) - (1 << width)) >> 1
    return FixedPointReal(width=width, frac_bits=bits, integer_part=0, exact=False, label="golden")


# How many clean fractional bits a non-exact fixed-point carrier must keep
# after the index-n error amplification n * 2^-W.
MIN_CLEAR_BITS = 32


def check_index_budget(alpha: FixedPointReal, n: int) -> None:
    """Reject indices whose amplified error would eat into ``MIN_CLEAR_BITS``.

    Exactly represented values carry no error and pass unconditionally.
    """
    if alpha.exact or n == 0:
        return
    if n >= 1 << max(0, alpha.width - MIN_CLEAR_BITS):
        raise PrecisionError(
            f"index {n} too large for width {alpha.width} "
            f"(needs {MIN_CLEAR_BITS} clean fractional bits)"
        )
