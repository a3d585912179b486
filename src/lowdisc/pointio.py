"""Serialization: sequence-spec strings and the point emission format.

A spec string is ``family:key=value,...``; list values are ``|``-separated,
nested specs are parenthesized.  Examples::

    halton:bases=2|3
    kronecker:width=192,alphas=sqrt2|golden|7/16
    digital:q=3,L=26,matrices=onesrow|identity
    digital-kronecker:q=2,L=4,series=1/1.1.1
    rational-net:q=2,f=1.1.1,gs=1|1.1
    lattice:N=5,gens=1|2
    hammersley:N=4,bases=2
    power-ratio:p=3,r=2
    digitsum:inner=(kronecker:width=128,alphas=sqrt2)
    hybrid:left=(halton:bases=2),right=(kronecker:width=192,alphas=sqrt2)

Polynomials are dot-separated coefficient lists in ascending order
(``1.1.1`` is 1 + x + x^2).  Laurent series are either ``g/f`` (expanded to
``depth`` exponents, default 2L) or an explicit window ``omega@c.c.c``.
Matrix tokens are ``identity``, ``onesrow``, ``random(size=..,seed=..)``,
``finiterandom(size=..,seed=..,rho=p/q)``, or ``rows:110.011`` (one digit
string per row, bases up to 7; an empty string is a zero row).  Alpha
tokens are ``sqrtD``, ``golden``, any rational such as ``7/16``, or raw
fractional bits ``bits:0x...``.

The point emission format is one header line followed by one point per
line, coordinates tab-separated, either exact ``p/q`` strings or decimals
with an explicit digit count::

    # spec=halton:bases=2|3 dim=2 repr=exact start=0 count=4 format=frac
    0	0
    1/2	1/3

:func:`read_points` returns the points as :class:`~lowdisc.generators.Columns`
whose tag says what they are: exact when the header reads ``repr=exact`` and
``format=frac``, otherwise ``coerced``, a rounding of the ideal points (the
same tag a hybrid that coerced one half carries).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd

from .algebra import FixedPointReal, GenMatrix, LaurentSeries, golden_ratio_frac
from .errors import ValidationError
from .generators import (
    Columns,
    Digital,
    DigitSumFiltered,
    DigitalKronecker,
    Halton,
    Hammersley,
    Hybrid,
    Kronecker,
    Lattice,
    PointSet,
    PowerRatio,
    RationalNet,
    ReprTag,
    SequenceSpec,
    int_list,
)

__all__ = [
    "ReadPoints",
    "format_coordinate",
    "parse_alpha",
    "parse_spec",
    "point_header",
    "read_points",
    "spec_to_string",
    "write_points",
]

DEFAULT_WIDTH = 128


def _split_top(text: str, sep: str) -> list[str]:
    """Split on ``sep`` at parenthesis depth zero."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValidationError(f"unbalanced parentheses in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValidationError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


def _parse_args(text: str) -> dict[str, str]:
    args: dict[str, str] = {}
    if not text:
        return args
    for item in _split_top(text, ","):
        if "=" not in item:
            raise ValidationError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key in args:
            raise ValidationError(f"duplicate key {key!r}")
        args[key] = value.strip()
    return args


def _need(args: dict[str, str], key: str, family: str) -> str:
    if key not in args:
        raise ValidationError(f"{family} spec needs {key}=...")
    return args.pop(key)  # what is left in args was never read


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{what}: {text!r} is not an integer") from None


def _poly(token: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in token.split("."))
    except ValueError:
        raise ValidationError(f"{what} must be dot-separated digits, got {token!r}") from None


def parse_alpha(token: str, width: int) -> FixedPointReal:
    if token.startswith("sqrt"):
        return FixedPointReal.sqrt(_int(token[4:], "sqrt argument"), width)
    if token == "golden":
        return golden_ratio_frac(width)
    if token.startswith("bits:"):
        try:
            bits = int(token[5:], 16)
        except ValueError:
            raise ValidationError(f"bad bits token {token!r}") from None
        return FixedPointReal(width=width, frac_bits=bits)
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse alpha token {token!r}") from None
    return FixedPointReal.from_fraction(value, width)


def _alpha_token(alpha: FixedPointReal) -> str:
    return alpha.label or f"bits:{alpha.frac_bits:#x}"


def _parse_matrix(token: str, q: int) -> GenMatrix:
    if token == "identity":
        return GenMatrix.identity(q)
    if token == "onesrow":
        return GenMatrix.ones_first_row(q)
    if token.startswith("rows:"):
        parts = token[5:].split(".") if token[5:] else []  # an empty part is a zero row; "rows:" has no rows
        return GenMatrix.from_rows(q, [tuple(_int(c, "rows entry") for c in part) for part in parts])
    for name, builder in (
        ("random", GenMatrix.random_uniform),
        ("finiterandom", GenMatrix.random_finite_rows),
    ):
        if token.startswith(name + "(") and token.endswith(")"):
            kv = _parse_args(token[len(name) + 1 : -1])
            kwargs = {key: _int(_need(kv, key, name), f"{name} {key}") for key in ("size", "seed")}
            if name == "finiterandom" and "rho" in kv:
                try:
                    kwargs["rho"] = Fraction(kv["rho"])
                except (ValueError, ZeroDivisionError):
                    raise ValidationError(f"{name} rho must be a fraction, got {kv['rho']!r}") from None
            unknown = sorted(set(kv) - set(kwargs))
            if unknown:
                raise ValidationError(f"unknown matrix arguments {unknown}")
            return builder(q, **kwargs)
    raise ValidationError(f"unknown matrix token {token!r}")


def _matrix_token(mat: GenMatrix) -> str:
    label = mat.label
    ok = label in ("identity", "onesrow") or label.startswith(("random(", "finiterandom(", "rows:"))
    if not ok or label == "rows:unprintable":
        raise ValidationError(f"matrix {label!r} has no serializable form")
    return label


def _parse_series(token: str, q: int, depth: int) -> LaurentSeries:
    if "/" in token:
        num, den = token.split("/", 1)
        return LaurentSeries.from_rational(q, _poly(num, "numerator"), _poly(den, "denominator"), depth)
    if "@" in token:
        omega, coeffs = token.split("@", 1)
        return LaurentSeries.make(q, _int(omega, "leading exponent"), _poly(coeffs, "coefficients"))
    raise ValidationError(f"series token {token!r} must be g/f or omega@coeffs")


def _series_token(s: LaurentSeries) -> str:
    if s.is_zero:
        return "0@0"
    return f"{s.omega}@" + ".".join(str(c) for c in s.coeffs)


def parse_spec(text: str) -> SequenceSpec:
    """Parse a spec string (see the module docstring for the grammar).  A key
    that its family does not take is refused, at every nesting level."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    family, _, argtext = text.partition(":")
    family = family.strip()
    args = _parse_args(argtext)
    spec = _build_spec(family, args)  # takes out each key it reads
    if args:
        raise ValidationError(f"{family} spec takes no key {next(iter(args))!r}")
    return spec


def _build_spec(family: str, args: dict[str, str]) -> SequenceSpec:
    def ints(key: str) -> tuple[int, ...]:
        return tuple(_int(v, key) for v in _split_top(_need(args, key, family), "|"))

    if family == "halton":
        return Halton(ints("bases"))
    if family == "kronecker":
        width = _int(args.pop("width", str(DEFAULT_WIDTH)), "width")
        tokens = _split_top(_need(args, "alphas", family), "|")
        return Kronecker(tuple(parse_alpha(t, width) for t in tokens))
    if family == "digital":
        q = _int(_need(args, "q", family), "q")
        precision = _int(_need(args, "L", family), "L")
        mats = tuple(_parse_matrix(t, q) for t in _split_top(_need(args, "matrices", family), "|"))
        return Digital(q, mats, precision)
    if family == "digital-kronecker":
        q = _int(_need(args, "q", family), "q")
        precision = _int(_need(args, "L", family), "L")
        depth = _int(args.pop("depth", str(2 * precision)), "depth")
        series = tuple(
            _parse_series(t, q, depth) for t in _split_top(_need(args, "series", family), "|")
        )
        return DigitalKronecker(q, series, precision)
    if family == "lattice":
        return Lattice(_int(_need(args, "N", family), "N"), ints("gens"))
    if family == "rational-net":
        q = _int(_need(args, "q", family), "q")
        f = _poly(_need(args, "f", family), "modulus")
        gs = tuple(_poly(t, "numerator") for t in _split_top(_need(args, "gs", family), "|"))
        return RationalNet(q, f, gs)
    if family == "hammersley":
        return Hammersley(_int(_need(args, "N", family), "N"), ints("bases"))
    if family == "power-ratio":
        return PowerRatio(_int(_need(args, "p", family), "p"), _int(_need(args, "r", family), "r"))
    if family == "digitsum":
        return DigitSumFiltered(parse_spec(_need(args, "inner", family)))
    if family == "hybrid":
        return Hybrid(parse_spec(_need(args, "left", family)), parse_spec(_need(args, "right", family)))
    raise ValidationError(f"unknown sequence family {family!r}")


def spec_to_string(spec: SequenceSpec) -> str:
    """Canonical, re-parseable spec string."""
    if isinstance(spec, Halton):
        return "halton:bases=" + "|".join(str(b) for b in spec.bases)
    if isinstance(spec, Kronecker):
        alphas = "|".join(_alpha_token(a) for a in spec.alphas)
        return f"kronecker:width={spec.width},alphas={alphas}"
    if isinstance(spec, Digital):
        mats = "|".join(_matrix_token(m) for m in spec.matrices)
        return f"digital:q={spec.q},L={spec.precision},matrices={mats}"
    if isinstance(spec, DigitalKronecker):
        series = "|".join(_series_token(s) for s in spec.series)
        return f"digital-kronecker:q={spec.q},L={spec.precision},series={series}"
    if isinstance(spec, Lattice):
        return f"lattice:N={spec.size},gens=" + "|".join(str(g) for g in spec.gens)
    if isinstance(spec, RationalNet):
        f = ".".join(str(c) for c in spec.modulus)
        gs = "|".join(".".join(str(c) for c in g) for g in spec.numerators)
        return f"rational-net:q={spec.q},f={f},gs={gs}"
    if isinstance(spec, Hammersley):
        return f"hammersley:N={spec.size},bases=" + "|".join(str(b) for b in spec.bases)
    if isinstance(spec, PowerRatio):
        return f"power-ratio:p={spec.p},r={spec.r}"
    if isinstance(spec, DigitSumFiltered):
        return f"digitsum:inner=({spec_to_string(spec.inner)})"
    if isinstance(spec, Hybrid):
        return f"hybrid:left=({spec_to_string(spec.left)}),right=({spec_to_string(spec.right)})"
    raise ValidationError(f"cannot serialize spec {spec!r}")


# ---------------------------------------------------------------------------
# Point files
# ---------------------------------------------------------------------------


def format_coordinate(value: Fraction, decimal: int | None) -> str:
    """Render a coordinate as ``p/q`` or as a decimal with ``decimal`` digits
    after the point, rounded down (floor), so a value in [0, 1) never prints
    as ``1.0...`` and a ``gen --decimal`` file reads back."""
    return _format_ratio(value.numerator, value.denominator, decimal)


def _format_ratio(num: int, den: int, decimal: int | None) -> str:
    """:func:`format_coordinate` of ``num / den``."""
    if decimal is None:
        if den & (den - 1):
            g = gcd(num, den)
        else:  # a power of two: the gcd is the numerator's lowest set bit
            g = min(num & -num, den) if num else den
        return f"{num // g}/{den // g}" if g != den else str(num // g)
    if decimal < 1:
        raise ValidationError("decimal digit count must be >= 1")
    scale = 10**decimal
    scaled = num * scale // den
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // scale}.{scaled % scale:0{decimal}d}"


def point_header(points: PointSet, decimal: int | None = None) -> str:
    """The header line of a point file; raises for an unserializable spec or decimal < 1."""
    if decimal is not None and decimal < 1:
        raise ValidationError("decimal digit count must be >= 1")
    fmt = "frac" if decimal is None else f"dec{decimal}"
    return (
        f"# spec={spec_to_string(points.spec)} dim={points.dim} repr={points.tag.as_text()}"
        f" start={points.start} count={points.count} format={fmt}\n"
    )


def write_points(points: PointSet, fh, decimal: int | None = None) -> None:
    fh.write(point_header(points, decimal))
    for r0 in range(0, points.count, 1 << 12):  # Python ints for one slice of rows at a time
        texts = [
            map(_format_ratio, int_list(c[r0 : r0 + (1 << 12)]), repeat(s), repeat(decimal))
            for c, s in zip(points.columns, points.scales)
        ]
        fh.writelines("\t".join(row) + "\n" for row in zip(*texts))


@dataclass(frozen=True)
class ReadPoints:
    """The points of a file as integer :class:`~lowdisc.generators.Columns`,
    plus its header."""

    columns: Columns
    header: dict[str, str]

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The points as ``Fraction`` tuples, built on demand."""
        return tuple(self.columns.rows())


def _ratio(token: str) -> tuple[int, int]:
    """Numerator and denominator of a coordinate token.  ``p/q`` and
    ``digits.digits`` are read as integers (the latter over 10^digits);
    any other spelling is parsed by ``Fraction``."""
    num, slash, den = token.partition("/")
    if slash:
        if num.isdigit() and den.isdigit() and (q := int(den)):
            return int(num), q
    else:
        whole, dot, digits = token.partition(".")
        if whole.isdigit() and (digits.isdigit() or not dot):
            return int(whole + digits), 10 ** len(digits)
    value = Fraction(token)
    return value.numerator, value.denominator


def read_points(fh) -> ReadPoints:
    """Read a point file (see the module docstring) into integer columns,
    each axis over the lcm of its distinct denominators.

    A file that stores a rounding of the ideal points (a fixed-point ``repr``
    or a decimal ``format``) comes back tagged ``coerced``, so a discrepancy
    of it certifies the represented points only.  A header's ``dim`` and
    ``count``, where given, must match the rows, so a truncated file is refused.
    A header key given twice is refused.
    """
    header: dict[str, str] = {}
    axes: list = []  # per axis: numerators, denominators, one shared object per denominator
    for lineno, raw in enumerate(fh, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            for item in line[1:].split():
                if "=" in item:
                    k, v = item.split("=", 1)
                    if k in header:
                        raise ValidationError(f"line {lineno}: duplicate header key {k!r}")
                    header[k] = v
            continue
        try:
            coords = list(map(_ratio, line.split("\t")))
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"line {lineno}: cannot parse coordinates {line!r}") from None
        if not axes:
            axes = [([], [], {}) for _ in range(_int(header["dim"], "dim") if "dim" in header else len(coords))]
        if len(coords) != len(axes):
            raise ValidationError(f"line {lineno}: expected {len(axes)} coordinates, got {len(coords)}")
        for (num, den), (nums, dens, shared) in zip(coords, axes):
            if not 0 <= num < den:
                raise ValidationError(f"line {lineno}: coordinate {Fraction(num, den)} outside [0, 1)")
            nums.append(num)
            dens.append(shared.setdefault(den, den))
    count = len(axes[0][0]) if axes else 0
    if "count" in header and _int(header["count"], "count") != count:
        raise ValidationError(f"the header says count={header['count']} but the file has {count} points")
    tag = ReprTag(coerced=header.get("repr", "exact") != "exact" or header.get("format", "frac") != "frac")
    return ReadPoints(Columns.from_ratios(((nums, dens) for nums, dens, _ in axes), tag), header)
