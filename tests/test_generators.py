from __future__ import annotations

import importlib
import io
import itertools
import pkgutil
import random
from fractions import Fraction
from math import isqrt

import pytest

from lowdisc.algebra import (
    FixedPointReal,
    GenMatrix,
    LaurentSeries,
    fixedpoint_sqrt,
)
from lowdisc.discrepancy import brute_force_oracle, compute_discrepancy
from lowdisc.errors import PrecisionError, TruncationError, ValidationError
from lowdisc.generators import (
    Digital,
    DigitSumFiltered,
    DigitalKronecker,
    Halton,
    Hammersley,
    Hybrid,
    Kronecker,
    Lattice,
    PowerRatio,
    RationalNet,
    digitsum_filtered_index,
    lattice_point_set,
    radical_inverse,
    stream,
)
from lowdisc.pointio import parse_spec, read_points, spec_to_string, write_points


def row(spec, n: int) -> tuple[Fraction, ...]:
    """Point n of a sequence, as exact rationals."""
    return stream(spec, n, 1).rows()[0]


def radical_inverse_by_definition(n: int, base: int) -> Fraction:
    total = Fraction(0)
    i = 0
    while n:
        n, d = divmod(n, base)
        total += Fraction(d, base ** (i + 1))
        i += 1
    return total


# -- radical inverse ----------------------------------------------------------


@pytest.mark.parametrize(
    "n,base,expected",
    [(0, 2, Fraction(0)), (3, 2, Fraction(3, 4)), (3, 3, Fraction(1, 9)), (5, 2, Fraction(5, 8))],
)
def test_radical_inverse_examples(n, base, expected):
    assert radical_inverse(n, base) == expected
    assert radical_inverse_by_definition(n, base) == expected


def test_radical_inverse_matches_definition_randomized():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randrange(0, 1 << 20)
        b = rng.choice([2, 3, 5, 7, 10])
        assert radical_inverse(n, b) == radical_inverse_by_definition(n, b)


def test_radical_inverse_validation():
    with pytest.raises(ValidationError):
        radical_inverse(3, 1)
    with pytest.raises(ValidationError):
        radical_inverse(-1, 2)


# -- Kronecker ----------------------------------------------------------------


def test_kronecker_examples():
    sqrt2 = fixedpoint_sqrt(2, 64)
    assert row(Kronecker((sqrt2,)), 0) == (Fraction(0),)

    quarter = FixedPointReal.from_fraction(Fraction(1, 4), 8)
    assert row(Kronecker((quarter,)), 2) == (Fraction(1, 2),)

    (x,) = row(Kronecker((sqrt2,)), 5)
    assert x == Fraction((5 * sqrt2.frac_bits) % (1 << 64), 1 << 64)
    ref = Fraction((5 * fixedpoint_sqrt(2, 256).frac_bits) % (1 << 256), 1 << 256)
    assert abs(x - ref) <= Fraction(5, 1 << 64)


def test_kronecker_exact_rational_reproduces_fractional_parts():
    alpha = FixedPointReal.from_fraction(Fraction(3, 8), 16)
    assert stream(Kronecker((alpha,)), 0, 200).rows() == [(Fraction(3 * n, 8) % 1,) for n in range(200)]


def test_kronecker_budget_and_width_checks():
    sqrt2 = fixedpoint_sqrt(2, 40)
    with pytest.raises(PrecisionError):
        stream(Kronecker((sqrt2,)), 1 << 20, 1)
    with pytest.raises(ValidationError):
        Kronecker((fixedpoint_sqrt(2, 64), fixedpoint_sqrt(3, 128)))


# -- digital ------------------------------------------------------------------


def test_digital_examples():
    ident = GenMatrix.identity(2)
    assert row(Digital(2, (ident,), 8), 3) == (Fraction(3, 4),)
    assert row(Digital(2, (ident,), 8), 0) == (Fraction(0),)
    ones = GenMatrix.ones_first_row(3)
    assert row(Digital(3, (ones,), 2), 4) == (Fraction(7, 9),)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_digital_identity_equals_radical_inverse(q):
    spec = Digital(q, (GenMatrix.identity(q),), precision=10)
    count = min(q**10, 2000)
    assert stream(spec, 0, count).rows() == [(radical_inverse(n, q),) for n in range(count)]


# -- digital Kronecker ----------------------------------------------------------


def test_digital_kronecker_examples():
    f = LaurentSeries.make(2, 1, (1, 0, 0))  # x^-1, window down to x^-3
    spec = DigitalKronecker(2, (f,), precision=2)
    assert row(spec, 0) == (Fraction(0),)
    assert row(spec, 3) == (Fraction(1, 2),)  # {(1+x) x^-1} = x^-1


def test_digital_kronecker_truncation_guard():
    f = LaurentSeries.make(2, 1, (1,))
    spec = DigitalKronecker(2, (f,), precision=1)
    assert row(spec, 1) == (Fraction(1, 2),)
    with pytest.raises(TruncationError):
        row(spec, 2)  # multiplying by x shifts the window above the request


# -- rational net ---------------------------------------------------------------


def test_rational_net_examples():
    assert row(RationalNet(2, (0, 1), ((1,),)), 0) == (Fraction(0),)
    assert row(RationalNet(2, (0, 1), ((1,),)), 1) == (Fraction(1, 2),)
    assert row(RationalNet(2, (1, 1, 1), ((1,),)), 1) == (Fraction(1, 4),)


def test_rational_net_validation():
    with pytest.raises(ValidationError):
        RationalNet(2, (1, 1), ((1, 1),))  # numerator degree too large
    with pytest.raises(ValidationError):
        RationalNet(2, (1, 1), ())
    with pytest.raises(ValidationError):
        RationalNet(2, (0, 0, 1), ((0, 1),))  # gcd(x, x^2) != 1
    with pytest.raises(ValidationError):
        row(RationalNet(2, (0, 1), ((1,),)), 4)  # index beyond q^t


def power_modulus_point(q: int, g, t: int, n: int) -> Fraction:
    """Point n of ``RationalNet(q, x^t, (g,))`` in closed form: n(x) g(x)
    mod x^t, coefficients mod q, read at x = q, over q^t."""
    digits = [n // q**i % q for i in range(t)]
    coeffs = [sum(digits[i] * g[c - i] for i in range(c + 1)) % q for c in range(t)]
    return Fraction(sum(c * q**i for i, c in enumerate(coeffs)), q**t)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_rational_net_matches_digital_kronecker_for_power_modulus(t):
    modulus = (0,) * t + (1,)  # x^t
    for q in (2, 3) if t <= 5 else (2,):
        for g in itertools.product(range(q), repeat=t):
            if g[0] == 0:  # g(0) != 0 keeps gcd(g, x^t) = 1
                continue
            net = stream(RationalNet(q, modulus, (g,)), 0, q**t).rows()
            assert net == [(power_modulus_point(q, g, t, n),) for n in range(q**t)]
            series = LaurentSeries.from_rational(q, g, modulus, depth=2 * t)
            dk = DigitalKronecker(q, (series,), precision=t)
            assert net == stream(dk, 0, q**t).rows()


# -- lattice --------------------------------------------------------------------


def test_lattice_examples():
    ps = lattice_point_set(5, (1, 2))
    assert ps.rows()[3] == (Fraction(3, 5), Fraction(1, 5))
    assert ps.rows() == [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 5), Fraction(2, 5)),
        (Fraction(2, 5), Fraction(4, 5)),
        (Fraction(3, 5), Fraction(1, 5)),
        (Fraction(4, 5), Fraction(3, 5)),
    ]
    single = lattice_point_set(1, (0,))
    assert single.count == 1
    assert single.rows()[0] == (Fraction(0),)


def test_lattice_first_coordinate_and_validation():
    ps = lattice_point_set(7, (1, 3))
    for n, p in enumerate(ps.rows()):
        assert p[0] == Fraction(n, 7)
    assert ps.count == 7
    with pytest.raises(ValidationError):
        Lattice(5, (5,))
    with pytest.raises(ValidationError):
        row(Lattice(5, (1,)), 5)


# -- power ratio ------------------------------------------------------------------


def test_power_ratio_examples():
    assert row(PowerRatio(3, 2), 0) == (Fraction(0),)
    assert row(PowerRatio(3, 2), 2) == (Fraction(1, 4),)
    assert row(PowerRatio(3, 2), 5) == (Fraction(19, 32),)
    with pytest.raises(ValidationError):
        PowerRatio(2, 3)
    with pytest.raises(ValidationError):
        PowerRatio(9, 3)


# -- digit-sum filter ----------------------------------------------------------------


def test_digitsum_filtered_index_examples():
    assert digitsum_filtered_index(0) == 0
    assert digitsum_filtered_index(1) == 3
    assert digitsum_filtered_index(4) == 9
    assert [digitsum_filtered_index(k) for k in range(5)] == [0, 3, 5, 6, 9]


def test_digitsum_filtered_index_matches_brute_force():
    brute = [n for n in range(1 << 16) if bin(n).count("1") % 2 == 0]
    fast = [digitsum_filtered_index(k) for k in range(len(brute))]
    assert fast == brute
    assert all(a < b for a, b in zip(fast, fast[1:]))


# -- hybrids, Hammersley, streaming ------------------------------------------------


def test_hybrid_concatenation_and_coercion():
    spec = Hybrid(Halton((2,)), Kronecker((fixedpoint_sqrt(2, 128),)))
    p1 = stream(spec, 1, 1)
    assert p1.tag.width == 128 and p1.tag.coerced
    assert p1.rows()[0][0] == Fraction(1, 2)  # dyadic rational coerced exactly
    assert p1.rows()[0][1] == fixedpoint_sqrt(2, 128).frac_value


def test_hybrid_exact_pair_stays_exact():
    spec = Hybrid(Halton((2,)), Halton((3,)))
    p = stream(spec, 5, 1)
    assert p.tag.width is None and not p.tag.coerced
    assert p.rows()[0] == (Fraction(5, 8), Fraction(7, 9))


def test_hybrid_width_mismatch_rejected():
    left = Kronecker((fixedpoint_sqrt(2, 64),))
    right = Kronecker((fixedpoint_sqrt(3, 128),))
    with pytest.raises(ValidationError):
        row(Hybrid(left, right), 1)


def test_hybrid_digital_pair_dimension():
    spec = Hybrid(
        Digital(3, (GenMatrix.ones_first_row(3),), 8),
        Digital(2, (GenMatrix.identity(2),), 8),
    )
    assert spec.dim == 2
    assert row(spec, 0) == (Fraction(0), Fraction(0))


def test_hammersley_full_set():
    ps = stream(Hammersley(4, (2,)), 0, 4)
    assert ps.rows() == [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 4), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 4)),
        (Fraction(3, 4), Fraction(3, 4)),
    ]
    with pytest.raises(ValidationError):
        row(Hammersley(4, (2,)), 4)


@pytest.mark.parametrize(
    "spec",
    [
        Halton((2, 3)),
        Kronecker((fixedpoint_sqrt(2, 96),)),
        DigitSumFiltered(Halton((2,))),
        Hybrid(Halton((2,)), Kronecker((fixedpoint_sqrt(2, 96),))),
        PowerRatio(3, 2),
    ],
)
def test_stream_index_stability(spec):
    whole = stream(spec, 0, 24)
    first = stream(spec, 0, 10)
    rest = stream(spec, 10, 14)
    assert whole.rows() == first.rows() + rest.rows()
    assert whole.tag == first.tag == rest.tag


def test_stream_coordinates_stay_in_unit_interval():
    specs = [
        Halton((2, 5)),
        Digital(3, (GenMatrix.random_uniform(3, 12, seed=4),), 10),
        Kronecker((fixedpoint_sqrt(5, 80),)),
    ]
    for spec in specs:
        for p in stream(spec, 0, 64).rows():
            for c in p:
                assert 0 <= c < 1


# -- spec strings and point files -----------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "halton:bases=2|3",
        "kronecker:width=96,alphas=sqrt2|golden|7/16",
        "digital:q=3,L=12,matrices=onesrow|identity",
        "digital:q=3,L=6,matrices=random(size=8,seed=3)|finiterandom(size=8,seed=5,rho=1/2)",
        "digital:q=3,L=12,matrices=onesrow|identity|random(size=12,seed=4)|finiterandom(size=12,seed=5,rho=1/3)"
        "|rows:12..021",
        "digital-kronecker:q=2,L=2,series=1@1.0.1",
        "digital-kronecker:q=2,L=2,depth=8,series=1/1.1.1",
        "lattice:N=5,gens=1|2",
        "rational-net:q=2,f=1.1.1,gs=1|1.1",
        "hammersley:N=8,bases=2",
        "power-ratio:p=3,r=2",
        "digitsum:inner=(kronecker:width=96,alphas=sqrt2)",
        "hybrid:left=(halton:bases=2),right=(kronecker:width=96,alphas=sqrt2)",
    ],
)
def test_spec_string_round_trip(text):
    spec = parse_spec(text)
    canonical = spec_to_string(spec)
    again = parse_spec(canonical)
    assert spec_to_string(again) == canonical
    assert again == spec
    assert stream(spec, 0, 4).rows() == stream(again, 0, 4).rows()


def test_rows_token_reads_an_empty_part_as_a_zero_row():
    spec = Digital(2, (GenMatrix.from_rows(2, [(), (1,)]),), 4)
    text = spec_to_string(spec)
    assert text == "digital:q=2,L=4,matrices=rows:.1"
    assert [p[0] for p in stream(parse_spec(text), 0, 4).rows()] == [0, Fraction(1, 4), 0, Fraction(1, 4)]
    assert parse_spec("digital:q=2,L=4,matrices=rows:1..1").matrices[0].rows == ((1,), (), (1,))


def test_parse_spec_errors():
    for bad in [
        "nosuch:bases=2",
        "halton:bases=2|4|6",
        "halton:",
        "lattice:N=5",
        "digital:q=4,L=3,matrices=identity",
        "hybrid:left=(halton:bases=2",
    ]:
        with pytest.raises(ValidationError):
            parse_spec(bad)


def test_point_file_round_trip_exact():
    ps = stream(Halton((2, 3)), 0, 8)
    buf = io.StringIO()
    write_points(ps, buf)
    buf.seek(0)
    back = read_points(buf)
    assert back.rows == tuple(tuple(r) for r in ps.rows())
    assert back.header["spec"] == "halton:bases=2|3"
    assert back.header["repr"] == "exact"
    assert not back.columns.tag.coerced


def test_frac_rendering_reduces_like_fraction():
    # power-of-two scales reduce by the numerator's lowest set bit, others by gcd
    from lowdisc.pointio import _format_ratio

    rng = random.Random(11)
    for den in (1, 2, 1 << 64, 1 << 192, 3, 10**6, 3 << 20):
        nums = [0, 1, -1, den - 1, den, -den, 2 * den]
        nums += [rng.randrange(-4 * den, 4 * den) for _ in range(40)]
        nums += [(rng.randrange(den) >> k) << k for k in range(0, 200, 7)]
        for num in nums:
            assert _format_ratio(num, den, None) == str(Fraction(num, den))
    ps = stream(parse_spec("kronecker:width=192,alphas=sqrt2|golden|3/8"), 0, 64)
    buf = io.StringIO()
    write_points(ps, buf)
    lines = buf.getvalue().splitlines()[1:]
    assert lines == ["\t".join(map(str, row)) for row in ps.rows()]


def test_point_file_decimal_format():
    ps = stream(Halton((2,)), 0, 4)
    buf = io.StringIO()
    write_points(ps, buf, decimal=6)
    text = buf.getvalue()
    assert "format=dec6" in text
    assert "0.500000" in text
    buf.seek(0)
    back = read_points(buf)
    assert back.columns.tag.coerced
    assert back.rows[2] == (Fraction(1, 4),)


def test_point_file_fixedpoint_header():
    ps = stream(Hybrid(Halton((2,)), Kronecker((fixedpoint_sqrt(2, 96),))), 0, 3)
    buf = io.StringIO()
    write_points(ps, buf)
    assert "repr=fixedpoint(96)+coerced" in buf.getvalue()
    buf.seek(0)
    assert read_points(buf).columns.tag.coerced


@pytest.mark.parametrize(
    "spec, count, decimal, mode",
    [
        (Halton((2, 3)), 8, None, "exact"),
        (Hybrid(Halton((2,)), Kronecker((fixedpoint_sqrt(2, 96),))), 6, None, "exact-represented"),
        (Halton((2,)), 8, 6, "exact-represented"),
    ],
)
def test_read_back_columns_certify_what_the_file_stores(spec, count, decimal, mode):
    # a library caller gets the mode from the columns alone, as disc does
    buf = io.StringIO()
    write_points(stream(spec, 0, count), buf, decimal=decimal)
    buf.seek(0)
    back = read_points(buf)
    result = compute_discrepancy(back.columns)
    assert result.mode == mode
    assert brute_force_oracle(back.columns) == brute_force_oracle(back.rows) == result.value


def test_read_points_validation():
    with pytest.raises(ValidationError):
        read_points(io.StringIO("1/2\t1/3\n1/2\n"))
    with pytest.raises(ValidationError):
        read_points(io.StringIO("3/2\n"))
    with pytest.raises(ValidationError):
        read_points(io.StringIO("zebra\n"))


def test_read_points_noncanonical_spellings():
    back = read_points(io.StringIO("2/4\t0.5\n 1/3\t0.250\n0\t3/9\n"))
    f = Fraction
    assert back.rows == ((f(1, 2), f(1, 2)), (f(1, 3), f(1, 4)), (f(0), f(1, 3)))


@pytest.mark.parametrize(
    "bad, message",
    [
        ("1", "coordinate 1 outside"),
        ("1.00", "coordinate 1 outside"),
        ("-1/3", "coordinate -1/3 outside"),
        ("1/x", "cannot parse"),
        ("1/0", "cannot parse"),
        ("1/2\t1/3", "expected 1 coordinates, got 2"),
    ],
)
def test_read_points_errors_name_the_line(bad, message):
    text = f"# dim=1\n1/2\n\n{bad}\n1/4\n"
    with pytest.raises(ValidationError, match=f"^line 4: {message}"):
        read_points(io.StringIO(text))


def test_read_points_checks_the_header_against_the_rows():
    full = "# spec=halton:bases=2|3 dim=2 count=4\n0\t0\n1/2\t1/3\n1/4\t2/3\n3/4\t1/9\n"
    assert read_points(io.StringIO(full)).columns.count == 4
    truncated = "\n".join(full.splitlines()[:3]) + "\n"
    with pytest.raises(ValidationError, match="^the header says count=4 but the file has 2 points$"):
        read_points(io.StringIO(truncated))
    # the header's dim sets the width of every line, the first included
    with pytest.raises(ValidationError, match="^line 2: expected 2 coordinates, got 1"):
        read_points(io.StringIO("# dim=2 count=1\n1/2\n"))
    # a bad line is reported before the count is checked
    with pytest.raises(ValidationError, match="^line 3: coordinate 1 outside"):
        read_points(io.StringIO("# dim=1 count=9\n1/2\n1\n"))
    # a file without those keys reads as it does without a header
    assert read_points(io.StringIO("# spec=halton:bases=2\n1/2\n1/4\n")).columns.count == 2


def test_isqrt_reference_for_sqrt_tokens():
    spec = parse_spec("kronecker:width=64,alphas=sqrt2")
    alpha = spec.alphas[0]
    assert alpha.scaled == isqrt(2 << 128)


# -- package exports --------------------------------------------------------------------


def test_every_exported_name_exists():
    import lowdisc

    for info in pkgutil.iter_modules(lowdisc.__path__):
        module = importlib.import_module(f"lowdisc.{info.name}")
        stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not stale, f"lowdisc.{info.name}.__all__ names missing attributes: {stale}"
