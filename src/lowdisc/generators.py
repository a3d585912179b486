"""Point-sequence families on the unit cube and their hybrids.

Every family is described by an immutable spec object (the configuration
currency of the whole package: the CLI, the experiment harness, and the
emission format all speak specs).  A spec knows its dimension and generates
points in batches only: ``spec.batch(indices)`` returns :class:`Columns`,
one integer numerator column per axis over a denominator known from the spec
(2^W for Kronecker, q^L for digital, b^k for Halton with k the digit count
of the last index, N for lattice and Hammersley sets).  A column is an int64
array when its scale is at most 2^63 and a list of Python ints above, so a
one-dimensional run on wide integers never loads numpy.  :class:`Columns` is
the one point batch of the package: generators, point files and kernels all
hand it over.  :func:`stream` materializes an index range as a
:class:`PointSet`, which is :class:`Columns` plus its provenance (``spec``
and ``start``); a single point n is ``stream(spec, n, 1)``.  Index origin is
n = 0 for every family.

Halton, digital, digital Kronecker and rational-net columns share one digit
product, through the identity, a generating matrix, or the Hankel matrix
a_(r+c+1) of the Laurent coefficients of f.  It runs a chunk of indices at a
time and folds output digits into int64 words: no batch-wide digit matrix.

Coordinates come in two representations and never mix inside one point set:

* exact rationals for Halton, digital, lattice, rational-function, and
  power-ratio constructions;
* fixed-point fractional parts over 2^W for Kronecker-type constructions.

A hybrid whose halves disagree coerces the exact side into the fixed-point
width of the other side (never the reverse) and records the coercion in the
representation tag, so a hybrid point set has one uniform error budget.
The tag (:class:`ReprTag`) is the only record of how a batch stores its
points: a fixed-point or coerced tag means the batch is a rounding of the
ideal points, and a discrepancy of it certifies the represented points only.

All points are pure functions of (spec, n): disjoint index ranges may be
generated concurrently and concatenate to the same result as one sequential
pass.  A batch that fails raises what its first failing index raises alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

from .algebra import (
    FixedPointReal,
    GenMatrix,
    LaurentSeries,
    check_index_budget,
    digits_of,
    int_array,
    poly_deg,
    poly_gcd,
)
from .errors import LowdiscError, TruncationError, ValidationError

__all__ = [
    "Columns",
    "Digital",
    "DigitSumFiltered",
    "DigitalKronecker",
    "Halton",
    "Hammersley",
    "Hybrid",
    "Kronecker",
    "Lattice",
    "PointSet",
    "PowerRatio",
    "RationalNet",
    "ReprTag",
    "SequenceSpec",
    "digitsum_filtered_index",
    "int_column",
    "int_list",
    "lattice_point_set",
    "radical_inverse",
    "stream",
]


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReprTag:
    """How the coordinates of a point (set) are represented: exact rationals
    when ``width`` is None, else fixed point over 2^width; ``coerced`` when
    they are a rounding of the ideal points (a hybrid that floored an exact
    half, a point file written in fixed point or decimals)."""

    width: int | None = None
    coerced: bool = False

    def __post_init__(self) -> None:
        if self.width is not None and self.width < 1:
            raise ValidationError(f"fixed-point width must be >= 1, got {self.width}")

    def as_text(self) -> str:
        if self.width is None:
            return "exact"
        return f"fixedpoint({self.width})" + ("+coerced" if self.coerced else "")


EXACT = ReprTag()


def int_column(values, bound: int):
    """The column of ``values``, all in ``[0, bound)``: an int64 array when
    ``bound <= 2^63``, else a list of Python ints (``values`` itself when it
    is a list)."""
    if bound <= 1 << 63:
        return int_array(values, bound)
    if isinstance(values, list):
        return values
    return values.tolist() if hasattr(values, "tolist") else list(values)


def int_list(column) -> list[int]:
    """The values of a column as Python ints: a list column itself, not a copy."""
    return column if isinstance(column, list) else column.tolist()


@dataclass(frozen=True, eq=False)
class Columns:
    """A batch of points, one integer column per axis.

    Coordinate j of point i is ``columns[j][i] / scales[j]``.  A column is
    an int64 array when its scale is at most 2^63, else a list of Python ints
    (see :func:`int_column`; :func:`int_list` reads either as Python ints).
    The tag decides what a discrepancy of the batch certifies; ``rows()``
    is a ``Fraction`` view built on demand.
    """

    columns: tuple
    scales: tuple[int, ...]
    tag: ReprTag

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.scales) or len({len(c) for c in self.columns}) > 1:
            raise ValidationError("columns need one scale each and one common length")

    @classmethod
    def from_ratios(cls, axes, tag: ReprTag) -> "Columns":
        """Columns of per-axis ``(numerators, denominators)`` lists, each axis over
        the lcm of its distinct denominators; the numerators are rescaled in place,
        and a wide axis keeps the list itself as its column."""
        columns, scales = [], []
        for nums, dens in axes:
            scale = lcm(*set(dens))
            for i, den in enumerate(dens):
                if den != scale:
                    nums[i] *= scale // den
            columns.append(int_column(nums, scale))
            scales.append(scale)
        return cls(tuple(columns), tuple(scales), tag)

    @property
    def count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def dim(self) -> int:
        return len(self.columns)

    def rows(self) -> list[tuple[Fraction, ...]]:
        fractions = (map(Fraction, int_list(c), repeat(s)) for c, s in zip(self.columns, self.scales))
        return list(zip(*fractions))

    def head(self, n: int) -> "Columns":
        """The first n points, of the same class: this batch itself for n = count,
        else arrays are shared and lists copied."""
        if not 0 <= n <= self.count:
            raise ValidationError(f"prefix of {n} points from a set of {self.count}")
        return self if n == self.count else replace(self, columns=tuple(c[:n] for c in self.columns))


@dataclass(frozen=True, eq=False, kw_only=True)
class PointSet(Columns):
    """The points of ``spec`` at indices ``start .. start + count - 1``."""

    spec: "SequenceSpec"
    start: int

    # An attribute of PointSet itself: perfbench/tracing.py wraps
    # ``vars(PointSet)["rows"]`` to count Fraction views of generated points.
    rows = Columns.rows


# ---------------------------------------------------------------------------
# Elementary constructions
# ---------------------------------------------------------------------------


def radical_inverse(n: int, base: int) -> Fraction:
    """Digit reversal of n in the given base, mapped into [0, 1)."""
    if base < 2:
        raise ValidationError("radical inverse needs base >= 2")
    if n < 0:
        raise ValidationError("radical inverse needs n >= 0")
    rev, scale = 0, 1
    while n:
        n, d = divmod(n, base)
        rev = rev * base + d
        scale *= base
    return Fraction(rev, scale)


def digitsum_filtered_index(k: int) -> int:
    """The k-th nonnegative integer whose binary digit sum is even.

    Exactly one of 2k, 2k+1 has even digit sum, and the pairs partition the
    integers in order, so the k-th such integer is 2k or 2k + 1.
    """
    if k < 0:
        raise ValidationError("index must be nonnegative")
    m = 2 * k
    return m if m.bit_count() % 2 == 0 else m + 1


# Indices per chunk of the digit arithmetic: a chunk holds its m input digits
# and a few int64 vectors of its length.  Generating C1's 46,656 points
# (x86-64, 2 vCPUs) took 45, 23, 21 and 19 ms in chunks of 2^10, 2^12, 2^14
# and 2^16 indices, at traced peaks of 1.3, 2.1, 5.3 and 8.6 MB.
_CHUNK = 1 << 12


def _digit_column(indices, q: int, m: int, matrix):
    """The column of numerators over q^L of the digit vectors of the indices.

    The first m base-q digits of n (least significant first) are mapped
    through ``matrix`` (L rows of m entries over Z_q) and read back as
    base-q digits, most significant first.  Each output digit is folded in
    by Horner's rule into an int64 word of g digits (q^g < 2^63); words are
    joined in Python ints past 2^63.
    """
    import numpy as np

    idx = int_array(indices, (indices[-1] if indices else 0) + 1)
    depth = len(matrix)
    g = max(1, len(digits_of((1 << 63) - 1, q)) - 1)  # the most digits with q^g < 2^63
    out = np.zeros(len(idx), dtype=np.int64 if depth <= g else object)
    for s in range(0, len(idx), _CHUNK):
        chunk = idx[s : s + _CHUNK]
        # input digits, least significant first; a row's digit sum is below m q^2
        digits = np.empty((m, len(chunk)), dtype=np.int64 if m * q * q < 1 << 63 else object)
        for c in range(m):
            digits[c], chunk = chunk % q, chunk // q
        for r0 in range(0, depth, g):
            word = 0
            for r in range(r0, min(r0 + g, depth)):
                terms = [(c, e) for c, e in enumerate(matrix[r]) if e]
                if len(terms) == 1 and terms[0][1] == 1:  # a unit row copies its input digit
                    word = word * q + digits[terms[0][0]]
                else:
                    word = word * q + sum(digits[c] if e == 1 else e * digits[c] for c, e in terms) % q
            out[s : s + _CHUNK] = out[s : s + _CHUNK] * q ** min(g, depth - r0) + word
    return int_column(out, q**depth)


def _hankel_column(indices, f: LaurentSeries, depth: int):
    """Numerators over q^depth of {n(x) f(x)} at x = q: output digit r is
    sum_c n_c a_(r+c+1), the Hankel matrix of the coefficients a_k of f."""
    q = f.q
    m = len(digits_of(indices[-1] if indices else 0, q))
    if m and not f.is_zero and depth + m - 1 > f.known_top:
        raise TruncationError(
            f"requested {depth} digits but the series window ends at {f.known_top - m + 1}"
        )
    hankel = [[f.coefficient(r + c + 1) for c in range(m)] for r in range(depth)]
    return _digit_column(indices, q, m, hankel)


def _check_range(indices, size: int, what: str) -> None:
    if indices and not (indices[0] >= 0 and indices[-1] < size):
        bad = indices[0] if indices[0] < 0 else indices[-1]
        raise ValidationError(f"{what} {bad} outside [0, {size})")


# ---------------------------------------------------------------------------
# Sequence specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kronecker:
    """({n a_1}, ..., {n a_d}) for fixed-point carriers a_j of common width."""

    alphas: tuple[FixedPointReal, ...]

    def __post_init__(self) -> None:
        if not self.alphas:
            raise ValidationError("at least one alpha required")
        w = self.alphas[0].width
        for a in self.alphas:
            if not isinstance(a, FixedPointReal):
                raise ValidationError("alphas must be FixedPointReal values")
            if a.width != w:
                raise ValidationError("alphas must share one width")

    @property
    def dim(self) -> int:
        return len(self.alphas)

    @property
    def width(self) -> int:
        return self.alphas[0].width

    def batch(self, indices) -> Columns:
        """n a_j mod 2^W in Python ints, over 2^W."""
        if indices and indices[0] < 0:
            raise ValidationError("index must be nonnegative")
        if indices:  # the budget only shrinks as n grows
            for a in self.alphas:
                check_index_budget(a, indices[-1])
        w = self.width
        mask = (1 << w) - 1
        columns = tuple(int_column([(n * a.frac_bits) & mask for n in indices], 1 << w) for a in self.alphas)
        return Columns(columns, (1 << w,) * self.dim, ReprTag(w))


@dataclass(frozen=True)
class Halton:
    """Coordinate j is the radical inverse of n in base b_j."""

    bases: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bases:
            raise ValidationError("at least one base required")
        for b in self.bases:
            if not isinstance(b, int) or b < 2:
                raise ValidationError(f"base {b!r} must be an integer >= 2")
        for i in range(len(self.bases)):
            for j in range(i + 1, len(self.bases)):
                if gcd(self.bases[i], self.bases[j]) != 1:
                    raise ValidationError(
                        f"bases {self.bases[i]} and {self.bases[j]} are not coprime"
                    )

    @property
    def dim(self) -> int:
        return len(self.bases)

    def batch(self, indices) -> Columns:
        """Radical inverses over b^k, k the digit count of the last index."""
        if indices and indices[0] < 0:
            raise ValidationError("radical inverse needs n >= 0")
        top = indices[-1] if indices else 0
        ks = [len(digits_of(top, b)) for b in self.bases]
        columns = tuple(_digit_column(indices, b, k, [[int(r == c) for c in range(k)] for r in range(k)])
                        for b, k in zip(self.bases, ks))
        return Columns(columns, tuple(b**k for b, k in zip(self.bases, ks)), EXACT)


@dataclass(frozen=True)
class Digital:
    """Digit vectors of n mapped through generating matrices over Z_q.

    Points are exact rationals truncated at ``precision`` digits; all
    discrepancy statements downstream are about these represented points.
    """

    q: int
    matrices: tuple[GenMatrix, ...]
    precision: int

    def __post_init__(self) -> None:
        if not self.matrices:
            raise ValidationError("at least one generating matrix required")
        for m in self.matrices:
            if m.q != self.q:
                raise ValidationError("matrix modulus differs from the sequence base")
        if self.precision < 1:
            raise ValidationError("precision must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.matrices)

    def batch(self, indices) -> Columns:
        """One digit-matrix product mod q per chunk of indices, over q^L."""
        if indices and indices[0] < 0:
            raise ValidationError("index must be nonnegative")
        q, depth = self.q, self.precision
        m = len(digits_of(indices[-1] if indices else 0, q))
        columns = tuple(
            _digit_column(indices, q, m, [mat.row_prefix(r, m) for r in range(depth)])
            for mat in self.matrices
        )
        return Columns(columns, (q**depth,) * self.dim, EXACT)


@dataclass(frozen=True)
class DigitalKronecker:
    """Fractional parts of n(x) * f_j(x) in Z_q((1/x)), evaluated at x = q."""

    q: int
    series: tuple[LaurentSeries, ...]
    precision: int

    def __post_init__(self) -> None:
        if not self.series:
            raise ValidationError("at least one series required")
        for s in self.series:
            if s.q != self.q:
                raise ValidationError("series modulus differs from the sequence base")
        if self.precision < 1:
            raise ValidationError("precision must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.series)

    def batch(self, indices) -> Columns:
        """One Hankel digit product per series, over q^L."""
        if indices and indices[0] < 0:
            raise ValidationError("index must be nonnegative")
        columns = tuple(_hankel_column(indices, f, self.precision) for f in self.series)
        return Columns(columns, (self.q**self.precision,) * self.dim, EXACT)


@dataclass(frozen=True)
class Lattice:
    """The N-point set with coordinate j equal to {n * a_j / N}."""

    size: int
    gens: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValidationError("lattice size must be >= 1")
        if not self.gens:
            raise ValidationError("at least one generator required")
        for g in self.gens:
            if not isinstance(g, int) or not 0 <= g < self.size:
                raise ValidationError(f"generator {g!r} outside [0, {self.size})")

    @property
    def dim(self) -> int:
        return len(self.gens)

    def batch(self, indices) -> Columns:
        _check_range(indices, self.size, "lattice index")
        idx = int_array(indices, self.size * self.size)
        columns = tuple(int_column(idx * g % self.size, self.size) for g in self.gens)
        return Columns(columns, (self.size,) * self.dim, EXACT)


@dataclass(frozen=True)
class RationalNet:
    """The q^t-point net {n(x) g_j(x) / f(x)} evaluated at x = q.

    ``modulus`` is f with deg f = t >= 1; every numerator g_j satisfies
    deg g_j < t and gcd(g_j, f) = 1.  Points are exact rationals with
    denominator dividing q^t.
    """

    q: int
    modulus: tuple[int, ...]
    numerators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        t = poly_deg(self.modulus)
        if t < 1:
            raise ValidationError("modulus polynomial must have degree >= 1")
        if not self.numerators:
            raise ValidationError("at least one numerator required")
        for g in self.numerators:
            if poly_deg(g) >= t:
                raise ValidationError("numerator degree must be below the modulus degree")
            if poly_gcd(g, self.modulus, self.q) != (1,):
                raise ValidationError("numerator must be coprime to the modulus")

    @property
    def degree(self) -> int:
        return poly_deg(self.modulus)

    @property
    def size(self) -> int:
        return self.q**self.degree

    @property
    def dim(self) -> int:
        return len(self.numerators)

    def batch(self, indices) -> Columns:
        """The digital Kronecker columns of g_j / f at precision t, over q^t;
        2t known coefficients cover every index below q^t."""
        _check_range(indices, self.size, "net index")
        q, t = self.q, self.degree
        columns = tuple(
            _hankel_column(indices, LaurentSeries.from_rational(q, g, self.modulus, 2 * t), t)
            for g in self.numerators
        )
        return Columns(columns, (self.size,) * self.dim, EXACT)


@dataclass(frozen=True)
class Hammersley:
    """n/N prepended to the first N points of a Halton sequence."""

    size: int
    bases: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValidationError("point count must be >= 1")
        Halton(self.bases)  # reuse base validation

    @property
    def dim(self) -> int:
        return len(self.bases) + 1

    def batch(self, indices) -> Columns:
        _check_range(indices, self.size, "index")
        tail = Halton(self.bases).batch(indices)
        first = int_column(indices, self.size)
        return Columns((first,) + tail.columns, (self.size,) + tail.scales, EXACT)


@dataclass(frozen=True)
class PowerRatio:
    """The exact fractional parts of (p/r)^n, kept as big rationals.

    Floating point loses this sequence entirely beyond n of about 50, so
    everything stays integral: {p^n / r^n} = (p^n mod r^n) / r^n.
    """

    p: int
    r: int

    def __post_init__(self) -> None:
        if not (self.p > self.r >= 2):
            raise ValidationError("need p > r >= 2")
        if gcd(self.p, self.r) != 1:
            raise ValidationError("p and r must be coprime")

    @property
    def dim(self) -> int:
        return 1

    def batch(self, indices) -> Columns:
        """Numerators ``(p^n mod r^n) r^(m - n)`` over ``r^m``, m the last index.

        They come from one recurrence: ``p^n r^(m - n) = F_n r^m + y_n`` with
        y_n the numerator, and multiplying by p/r steps n to n + 1.  A step
        multiplies and divides by p and r and takes one quotient by r^m that
        is at most p, so it costs time linear in the size of the numbers,
        where a modular power per index does not.  Every n from the first
        index to m is stepped through and the requested ones are kept.
        """
        if indices and indices[0] < 0:
            raise ValidationError("index must be nonnegative")
        p, r = self.p, self.r
        m = indices[-1] if indices else 0
        scale, column = r**m, []
        if indices:
            n = indices[0]
            f, y = divmod(p**n * r ** (m - n), scale)
            shift = r ** max(m - 1, 0)
            for want in indices:
                while n < want:  # F_n p = a r + b; r divides y_n since n < m
                    a, b = divmod(f * p, r)
                    carry, y = divmod(b * shift + y * p // r, scale)
                    f, n = a + carry, n + 1
                column.append(y)
        return Columns((int_column(column, scale),), (scale,), EXACT)


@dataclass(frozen=True)
class DigitSumFiltered:
    """The inner sequence evaluated along indices with even binary digit sum."""

    inner: "SequenceSpec"

    @property
    def dim(self) -> int:
        return self.inner.dim

    def batch(self, indices) -> Columns:
        return self.inner.batch([digitsum_filtered_index(k) for k in indices])


@dataclass(frozen=True)
class Hybrid:
    """Coordinate-wise concatenation of two sequences at the same index."""

    left: "SequenceSpec"
    right: "SequenceSpec"

    @property
    def dim(self) -> int:
        return self.left.dim + self.right.dim

    def batch(self, indices) -> Columns:
        return _combine(self.left.batch(indices), self.right.batch(indices))


SequenceSpec = (
    Kronecker
    | Halton
    | Digital
    | DigitalKronecker
    | Lattice
    | RationalNet
    | Hammersley
    | PowerRatio
    | DigitSumFiltered
    | Hybrid
)


def _coerce(batch: Columns, width: int) -> Columns:
    """Floor an exact batch onto the grid 2^-width, ``(num << width) // den``;
    fixed-point batches pass."""
    if batch.tag.width:
        return batch
    one = 1 << width
    columns = tuple(int_column([(v << width) // den for v in int_list(col)], one)
                    for col, den in zip(batch.columns, batch.scales))
    return Columns(columns, (one,) * len(columns), ReprTag(width, coerced=True))


def _combine(a: Columns, b: Columns) -> Columns:
    """Concatenate two batches.  Fixed-point halves must share one width; an
    exact half beside a fixed-point one is coerced to that width, and the
    result is coerced when either half is."""
    width = a.tag.width or b.tag.width
    if b.tag.width not in (None, width):
        raise ValidationError(f"cannot combine fixed-point halves of widths {a.tag.width} and {b.tag.width}")
    if width:
        a, b = _coerce(a, width), _coerce(b, width)
    return Columns(a.columns + b.columns, a.scales + b.scales, ReprTag(width, a.tag.coerced or b.tag.coerced))


# ---------------------------------------------------------------------------
# Streaming
# ---------------------------------------------------------------------------


def lattice_point_set(size: int, gens) -> PointSet:
    spec = Lattice(size, tuple(gens))
    return stream(spec, 0, size)


def stream(spec: SequenceSpec, start: int, count: int) -> PointSet:
    """Materialize ``count`` points of the sequence starting at ``start``."""
    if start < 0 or count < 0:
        raise ValidationError("start and count must be nonnegative")
    indices = range(start, start + count)
    try:
        batch = spec.batch(indices)
    except LowdiscError:
        for n in indices:  # raise what the first failing index raises alone
            spec.batch((n,))
        raise
    return PointSet(batch.columns, batch.scales, batch.tag, spec=spec, start=start)
