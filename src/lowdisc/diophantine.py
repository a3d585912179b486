"""Continued fractions and the counting scans built on them.

Rational expansions are Euclidean and canonical: the last partial quotient
is >= 2 unless the value is an integer, which removes the trailing
``[..., a]`` vs ``[..., a-1, 1]`` ambiguity.  Quotient statistics (largest
quotient, quotient sum) always exclude the leading integer term, which is 0
for every proper fraction a/N.

Quadratic surds use the integer recurrence
``m' = d*a - m``, ``d' = (D - m'^2) / d``, ``a' = floor((a0 + m') / d')``
with all arithmetic integral; the expansion is periodic and the period is
detected at the first repeated (m, d) state, which classical bounds
(0 < m <= sqrt(D), 0 < d <= 2 sqrt(D)) guarantee to exist.

The Zaremba and Moser scans run Euclid's algorithm inline on the pair
(n, a) and build no :class:`RationalCF`.  Residues are visited in increasing
order and a tie keeps the smaller witness, so an expansion is abandoned as
soon as its running maximum (Zaremba) or running sum (Moser) reaches the best
statistic so far: it can no longer win.  A residue that is not coprime to n
ends Euclid at a gcd above 1 and is skipped.  The Moser scan stops at
a = n/2: for a < n/2 the quotients of (n - a)/n are ``[0; 1, q1 - 1, q2, ...]``
where those of a/n are ``[0; q1, q2, ...]``, the same sum at a larger
residue.  (The largest quotient can drop under that map, so the Zaremba scan
visits every residue.)

Scans over moduli or indices are independent per item and therefore safe to
partition across workers; everything here is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .algebra import FixedPointReal, check_index_budget
from .errors import ValidationError

__all__ = [
    "LittlewoodResult",
    "PhiSpec",
    "RationalCF",
    "SchmidtCount",
    "SurdCF",
    "cf_rational",
    "cf_surd",
    "largest_quotient_2k_sqrt2",
    "littlewood_scan",
    "moser_scan",
    "scan_report_csv",
    "schmidt_count",
    "zaremba_scan",
]


@dataclass(frozen=True)
class RationalCF:
    """Canonical continued fraction of a rational in [0, 1) or beyond."""

    quotients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.quotients:
            raise ValidationError("a continued fraction has at least its integer term")
        if self.quotients[0] < 0 or any(q < 1 for q in self.quotients[1:]):
            raise ValidationError("partial quotients after the leading term must be >= 1")

    def value(self) -> Fraction:
        acc = Fraction(self.quotients[-1])
        for q in reversed(self.quotients[:-1]):
            acc = q + 1 / acc
        return acc

    @property
    def tail(self) -> tuple[int, ...]:
        """Quotients after the leading integer term."""
        return self.quotients[1:]


@dataclass(frozen=True)
class SurdCF:
    """Periodic continued fraction of sqrt(D): preperiod then repeating period.

    The preperiod starts with the integer part; for pure square roots it is
    just that single term, but the state tracker supports longer preperiods.
    """

    d: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.preperiod or not self.period:
            raise ValidationError("surd expansions need a preperiod head and a period")

    def quotient_prefix(self, count: int) -> tuple[int, ...]:
        out = list(self.preperiod)
        while len(out) < count:
            out.extend(self.period)
        return tuple(out[:count])

    def convergent(self, terms: int) -> Fraction:
        qs = self.quotient_prefix(terms)
        h_prev, h = 1, qs[0]
        k_prev, k = 0, 1
        for a in qs[1:]:
            h, h_prev = a * h + h_prev, h
            k, k_prev = a * k + k_prev, k
        return Fraction(h, k)

    @property
    def largest_quotient(self) -> int:
        """Largest partial quotient, leading integer term excluded."""
        return max(self.preperiod[1:] + self.period)


def cf_rational(a: int, n: int) -> RationalCF:
    """Euclidean continued fraction of a/n in canonical form."""
    if n <= 0:
        raise ValidationError("denominator must be positive")
    if a < 0:
        raise ValidationError("numerator must be nonnegative")
    quotients = []
    x, y = a, n
    while y:
        q, r = divmod(x, y)
        quotients.append(q)
        x, y = y, r
    return RationalCF(tuple(quotients))


def cf_surd(d: int) -> SurdCF:
    """Exact periodic continued fraction of sqrt(d), d not a perfect square."""
    if d < 2:
        raise ValidationError("need d >= 2")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise ValidationError(f"{d} is a perfect square; its root is rational")
    quotients = [a0]
    seen: dict[tuple[int, int], int] = {}
    m, den = 0, 1
    i = 1
    while True:
        m = den * quotients[-1] - m
        den = (d - m * m) // den
        state = (m, den)
        if state in seen:
            j = seen[state]
            return SurdCF(d, tuple(quotients[:j]), tuple(quotients[j:]))
        seen[state] = i
        quotients.append((a0 + m) // den)
        i += 1


def largest_quotient_2k_sqrt2(k: int) -> int:
    """Largest partial quotient of 2^k * sqrt(2) = sqrt(2^(2k+1))."""
    if k < 0:
        raise ValidationError("k must be >= 0")
    return cf_surd(2 ** (2 * k + 1)).largest_quotient


# ---------------------------------------------------------------------------
# Zaremba / Moser scans
# ---------------------------------------------------------------------------


def zaremba_scan(n: int) -> tuple[int, int]:
    """Minimum over residues a coprime to n of the largest partial quotient
    of a/n, with the smallest witnessing a."""
    if n < 2:
        raise ValidationError("need n >= 2")
    best, witness = n, 1  # 1/n = [0; n]
    for a in range(2, n):
        x, y, top = n, a, 0
        while y:
            q = x // y
            if q > top:
                top = q
                if top >= best:
                    break
            x, y = y, x - q * y
        else:
            if x == 1:  # gcd(a, n) = 1
                best, witness = top, a
    return best, witness


def moser_scan(n: int) -> tuple[int, int]:
    """Minimum over residues a coprime to n of the partial-quotient sum of
    a/n, with the smallest witnessing a."""
    if n < 2:
        raise ValidationError("need n >= 2")
    best, witness = n, 1  # 1/n = [0; n]
    for a in range(2, n // 2 + 1):
        x, y, total = n, a, 0
        while y:
            q = x // y
            total += q
            if total >= best:
                break
            x, y = y, x - q * y
        else:
            if x == 1:  # gcd(a, n) = 1
                best, witness = total, a
    return best, witness


# ---------------------------------------------------------------------------
# Counting with weight functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiSpec:
    """A named weight family: ``constant`` c or ``product``
    c * prod_j 1/max(1, |n_j|); values are clamped to [0, 1]."""

    family: str
    c: Fraction

    def __post_init__(self) -> None:
        if self.family not in ("constant", "product"):
            raise ValidationError(f"unknown weight family {self.family!r}")

    def __call__(self, index: tuple[int, ...]) -> Fraction:
        v = self.c
        if self.family == "product":
            for nj in index:
                v /= max(1, abs(nj))
        return min(max(v, Fraction(0)), Fraction(1))

    @classmethod
    def parse(cls, text: str) -> "PhiSpec":
        family, _, c = text.partition(":")
        if not c:
            raise ValidationError("weight spec must look like constant:1/2 or product:1/3")
        try:
            return cls(family, Fraction(c))
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"bad weight constant {c!r}") from None


@dataclass(frozen=True)
class SchmidtCount:
    count: int
    main_term: Fraction
    residual: Fraction


def schmidt_count(h: int, gens, n: int, phi: PhiSpec) -> SchmidtCount:
    """Count index vectors in [-h, h]^d whose lattice fractional part
    {sum_j n_j * a_j / n} falls below the weight, against the weight's own
    mass over the same box."""
    if h < 1:
        raise ValidationError("h must be >= 1")
    if n < 1:
        raise ValidationError("modulus must be >= 1")
    gens = tuple(int(g) for g in gens)
    if not gens:
        raise ValidationError("at least one generator required")
    count = 0
    main = Fraction(0)
    for index in itertools.product(range(-h, h + 1), repeat=len(gens)):
        weight = phi(index)
        main += weight
        frac = Fraction(sum(nj * a for nj, a in zip(index, gens)) % n, n)
        if frac < weight:
            count += 1
    return SchmidtCount(count=count, main_term=main, residual=count - main)


# ---------------------------------------------------------------------------
# Littlewood scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LittlewoodResult:
    min_value: Fraction
    argmin: int
    per_coordinate_error: Fraction


def littlewood_scan(alpha: FixedPointReal, beta: FixedPointReal, n_max: int) -> LittlewoodResult:
    """Minimum of n * ||n alpha|| * ||n beta|| over 1 <= n <= n_max on the
    represented values, with the per-coordinate fixed-point error bound."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if alpha.width != beta.width:
        raise ValidationError("alpha and beta must share one width")
    w = alpha.width
    mask = (1 << w) - 1
    half = 1 << w
    for carrier in (alpha, beta):
        check_index_budget(carrier, n_max)
    sa, sb = alpha.frac_bits, beta.frac_bits
    fa = fb = 0  # n alpha and n beta mod 1, as running residues over 2^w
    best: tuple[int, int] | None = None
    for n in range(1, n_max + 1):
        fa = (fa + sa) & mask
        fb = (fb + sb) & mask
        da = fa if fa <= half - fa else half - fa
        db = fb if fb <= half - fb else half - fb
        val = n * da * db
        if best is None or val < best[0]:
            best = (val, n)
    err = Fraction(0) if alpha.exact and beta.exact else Fraction(n_max, half)
    return LittlewoodResult(
        min_value=Fraction(best[0], half * half), argmin=best[1], per_coordinate_error=err
    )


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def scan_report_csv(header: tuple[str, ...], rows) -> str:
    """One row per parameter value, comma-separated, deterministic."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
