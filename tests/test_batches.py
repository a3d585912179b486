"""Columnar batches against independent per-point constructions, prefix
reuse in scaling tables, and the integer 1D closed forms."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

import lowdisc.experiments as experiments
import lowdisc.generators as generators
from lowdisc.algebra import (
    FixedPointReal,
    GenMatrix,
    LaurentSeries,
    check_index_budget,
    digits_of,
    fixedpoint_sqrt,
    golden_ratio_frac,
    laurent_frac_eval,
    laurent_mul_poly,
    mat_vec_mod_q,
)
from lowdisc.discrepancy import (
    brute_force_oracle,
    compute_discrepancy,
    extreme_disc_1d,
    star_disc_1d,
    star_disc_exact,
)
from lowdisc.errors import PrecisionError, TruncationError, ValidationError
from lowdisc.experiments import ExperimentPlan, run_scaling, scaling_csv
from lowdisc.generators import (
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
    digitsum_filtered_index,
    int_list,
    radical_inverse,
    stream,
)

EXACT = ReprTag()


class Ref(NamedTuple):
    """One reference point: its coordinates and its tag."""

    coords: tuple
    tag: ReprTag


def _series_digits(f: LaurentSeries, n: int, depth: int) -> Fraction:
    return laurent_frac_eval(laurent_mul_poly(f, digits_of(n, f.q)), depth)


def reference_point(spec, n: int) -> Ref:
    """Point n built one coordinate at a time from the algebra primitives,
    sharing no code with the batch path."""
    if isinstance(spec, Halton):
        return Ref(tuple(radical_inverse(n, b) for b in spec.bases), EXACT)
    if isinstance(spec, Kronecker):
        w = spec.width
        for a in spec.alphas:
            check_index_budget(a, n)
        coords = tuple(Fraction(n * a.frac_bits % (1 << w), 1 << w) for a in spec.alphas)
        return Ref(coords, ReprTag(w))
    if isinstance(spec, Digital):
        coords = []
        for mat in spec.matrices:
            acc = 0
            for v in mat_vec_mod_q(mat, digits_of(n, spec.q), spec.precision):
                acc = acc * spec.q + v
            coords.append(Fraction(acc, spec.q**spec.precision))
        return Ref(tuple(coords), EXACT)
    if isinstance(spec, DigitalKronecker):
        if n < 0:
            raise ValidationError("index must be nonnegative")
        return Ref(tuple(_series_digits(f, n, spec.precision) for f in spec.series), EXACT)
    if isinstance(spec, RationalNet):
        if not 0 <= n < spec.size:
            raise ValidationError(f"net index {n} outside [0, {spec.size})")
        t = spec.degree
        series = (LaurentSeries.from_rational(spec.q, g, spec.modulus, 2 * t) for g in spec.numerators)
        return Ref(tuple(_series_digits(f, n, t) for f in series), EXACT)
    if isinstance(spec, Lattice):
        return Ref(tuple(Fraction(n * g % spec.size, spec.size) for g in spec.gens), EXACT)
    if isinstance(spec, Hammersley):
        tail = tuple(radical_inverse(n, b) for b in spec.bases)
        return Ref((Fraction(n, spec.size),) + tail, EXACT)
    if isinstance(spec, PowerRatio):
        return Ref((Fraction(spec.p**n, spec.r**n) % 1,), EXACT)
    if isinstance(spec, DigitSumFiltered):
        return reference_point(spec.inner, digitsum_filtered_index(n))
    if isinstance(spec, Hybrid):
        a, b = reference_point(spec.left, n), reference_point(spec.right, n)
        coerced = a.tag.coerced or b.tag.coerced
        if a.tag.width == b.tag.width:
            return Ref(a.coords + b.coords, ReprTag(a.tag.width, coerced))
        w = a.tag.width or b.tag.width

        def fixed(p):
            if p.tag.width:
                return p.coords
            return tuple(FixedPointReal.from_fraction(c, w).frac_value for c in p.coords)

        return Ref(fixed(a) + fixed(b), ReprTag(w, coerced=True))
    raise TypeError(f"no reference for {spec!r}")


def _as_refs(ps: PointSet) -> list[Ref]:
    return [Ref(row, ps.tag) for row in ps.rows()]


ONES3 = GenMatrix.ones_first_row(3)
ID2 = GenMatrix.identity(2)
FAMILIES = {
    "halton": Halton((2, 3, 5)),
    "kronecker": Kronecker((fixedpoint_sqrt(2, 96), golden_ratio_frac(96))),
    "kronecker-exact-alpha": Kronecker((FixedPointReal.from_fraction(Fraction(3, 8), 8),)),
    "digital": Digital(3, (ONES3, GenMatrix.identity(3)), 12),
    "digital-random": Digital(
        3, (GenMatrix.random_uniform(3, 12, seed=4), GenMatrix.random_finite_rows(3, 12, seed=5)), 10
    ),
    "digital-past-int64": Digital(2, (ID2, GenMatrix.from_rows(2, [(1, 1), (0, 1, 1)])), 70),
    "digital-kronecker": DigitalKronecker(2, (LaurentSeries.from_rational(2, (1,), (1, 1, 1), 40),), 16),
    "digital-kronecker-window": DigitalKronecker(
        3, (LaurentSeries.make(3, -1, (2, 0, 1, 1, 2, 0, 2, 1, 1, 0, 2, 2, 1)), LaurentSeries.zero(3)), 5
    ),
    "lattice": Lattice(89, (1, 55)),
    "rational-net": RationalNet(2, (1, 1, 0, 0, 0, 0, 1), ((1,), (1, 1))),
    "hammersley": Hammersley(60, (2, 3)),
    "power-ratio": PowerRatio(3, 2),
    "digitsum-kronecker": DigitSumFiltered(Kronecker((fixedpoint_sqrt(2, 128),))),
    "digitsum-halton": DigitSumFiltered(Halton((3,))),
    "hybrid-exact-left": Hybrid(Halton((3,)), Kronecker((fixedpoint_sqrt(2, 96),))),
    "hybrid-exact-right": Hybrid(Kronecker((fixedpoint_sqrt(3, 80),)), Halton((3, 5))),
    "hybrid-exact-pair": Hybrid(Digital(3, (ONES3,), 26), Digital(2, (ID2,), 32)),
    "hybrid-fixed-pair": Hybrid(Kronecker((fixedpoint_sqrt(2, 96),)), Kronecker((golden_ratio_frac(96),))),
    "hybrid-nested": Hybrid(Hybrid(Halton((2,)), Kronecker((fixedpoint_sqrt(5, 64),))), Lattice(40, (7,))),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("start,count", [(0, 1), (0, 37), (5, 30)])
def test_batch_equals_per_index(name, start, count):
    spec = FAMILIES[name]
    ps = stream(spec, start, count)
    want = [reference_point(spec, n) for n in range(start, start + count)]
    assert _as_refs(ps) == want
    assert [r for n in range(start, start + count) for r in _as_refs(stream(spec, n, 1))] == want
    assert ps.dim == spec.dim


def test_batch_exact_past_int64():
    """Numerators over q^L >= 2^63, and indices past 2^63, stay exact."""
    deep = Digital(3, (ONES3,), 45)
    deep_dk = DigitalKronecker(3, (LaurentSeries.from_rational(3, (1, 2), (2, 0, 1, 1), 120),), 45)
    far = Halton((2, 3))
    for spec, start in ((deep, 1000), (FAMILIES["digital-past-int64"], 3), (deep_dk, 1000), (far, 2**70)):
        ps = stream(spec, start, 12)
        assert all(isinstance(c, list) and all(type(v) is int for v in c) for c in ps.columns)
        assert _as_refs(ps) == [reference_point(spec, n) for n in range(start, start + 12)]


@pytest.mark.parametrize("count", [2**14 - 1, 2**14, 2**14 + 1])
def test_digit_column_matches_mat_vec_reference_across_chunks(count):
    """Whole and partial chunks, with q^L past 2^63, against mat_vec_mod_q."""
    q, depth = 3, 41  # 3^41 > 2^63
    m = len(digits_of(count - 1, q))
    series = LaurentSeries.from_rational(q, (1, 2), (2, 0, 1, 1), depth + m + 1)
    hankel = [[series.coefficient(r + c + 1) for c in range(m)] for r in range(depth)]
    matrices = {
        "identity": GenMatrix.identity(q),
        "random": GenMatrix.random_uniform(q, depth, seed=7),
        "hankel": GenMatrix.from_rows(q, hankel),
    }
    edges = range(0, count + 1, generators._CHUNK)
    checked = {*range(0, count, 97), *(n for e in edges for n in range(e - 2, e + 2) if 0 <= n < count)}
    for name, mat in matrices.items():
        column = generators._digit_column(range(count), q, m, [mat.row_prefix(r, m) for r in range(depth)])
        assert len(column) == count and isinstance(column, list)
        for n in sorted(checked):
            want = 0
            for v in mat_vec_mod_q(mat, digits_of(n, q), depth):
                want = want * q + v
            assert column[n] == want, (name, n)


def power_ratio_numerators(p: int, r: int, indices) -> list[int]:
    """``(p^n mod r^n) r^(m - n)`` per index, one modular power each."""
    m = indices[-1]
    return [pow(p, n, r**n) * r ** (m - n) for n in indices]


@pytest.mark.parametrize("p,r", [(3, 2), (5, 3), (7, 4), (10, 7), (1000, 3)])
def test_power_ratio_recurrence_matches_modular_powers(p, r):
    spec = PowerRatio(p, r)
    cases = [range(0, 70), range(1, 2), range(23, 90), (0,), (1,), (57,), [2, 3, 9, 10, 31], [0, 5, 6, 7, 64]]
    for indices in cases:
        batch = spec.batch(indices)
        assert batch.scales == (r ** indices[-1],)
        assert int_list(batch.columns[0]) == power_ratio_numerators(p, r, list(indices))
    for ks in (range(0, 40), range(9, 33), [4]):
        batch = DigitSumFiltered(spec).batch(ks)
        assert int_list(batch.columns[0]) == power_ratio_numerators(p, r, [digitsum_filtered_index(k) for k in ks])


def test_columns_check_their_shape():
    with pytest.raises(ValidationError):
        Columns((np.arange(3), np.arange(2)), (4, 4), EXACT)
    with pytest.raises(ValidationError):
        Columns((np.arange(3),), (4, 4), EXACT)
    batch = Columns.from_ratios([([1, 1], [2, 3]), ([0, 3], [1, 4])], EXACT)
    assert (batch.count, batch.dim, batch.scales) == (2, 2, (6, 4))
    assert batch.rows() == [(Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(3, 4))]
    assert batch.head(1).rows() == [(Fraction(1, 2), Fraction(0))]
    assert batch.head(2) is batch  # a whole-batch prefix copies no list column


def test_hybrid_coercion_flags_and_mode():
    spec = FAMILIES["hybrid-exact-left"]
    ps = stream(spec, 0, 4)
    assert ps.tag.as_text() == "fixedpoint(96)+coerced"
    assert compute_discrepancy(ps).mode == "exact-represented"
    assert compute_discrepancy(stream(FAMILIES["hybrid-exact-pair"], 0, 9)).mode == "exact"


@pytest.mark.parametrize("name,tag,text", [
    ("hybrid-fixed-pair", ReprTag(96), "fixedpoint(96)"),  # equal widths: nothing is coerced
    ("hybrid-nested", ReprTag(64, coerced=True), "fixedpoint(64)+coerced"),  # the flag survives nesting
])
def test_hybrid_tag_header_and_mode(name, tag, text):
    ps = stream(FAMILIES[name], 0, 9)
    assert (ps.tag, ps.tag.as_text(), compute_discrepancy(ps).mode) == (tag, text, "exact-represented")
    with pytest.raises(ValidationError, match="width must be >= 1, got 0"):
        ReprTag(0)


def _same_error(exc_type, batch_call, point_call) -> None:
    with pytest.raises(exc_type) as batch_err:
        batch_call()
    with pytest.raises(exc_type) as point_err:
        point_call()
    assert type(batch_err.value) is type(point_err.value)
    assert str(batch_err.value) == str(point_err.value)


def test_batch_raises_what_the_first_failing_index_raises():
    # columns beyond the 4x4 cap: index 81 is the first with five base-3 digits
    capped = Digital(3, (GenMatrix.random_uniform(3, 4, seed=1),), 4)
    assert stream(capped, 70, 11).count == 11
    _same_error(ValidationError, lambda: stream(capped, 70, 20), lambda: reference_point(capped, 81))
    # rows beyond the cap: every index but 0 fails, on a row before any column
    shallow = Digital(3, (GenMatrix.random_uniform(3, 4, seed=1),), 6)
    _same_error(ValidationError, lambda: stream(shallow, 0, 100), lambda: reference_point(shallow, 1))
    # fixed-point budget of width 40: indices from 2^8 on
    narrow = Kronecker((fixedpoint_sqrt(2, 40),))
    _same_error(PrecisionError, lambda: stream(narrow, 200, 100), lambda: reference_point(narrow, 256))
    hybrid = Hybrid(Halton((2,)), narrow)
    _same_error(PrecisionError, lambda: stream(hybrid, 0, 300), lambda: reference_point(hybrid, 256))
    filtered = DigitSumFiltered(narrow)
    first = next(k for k in range(200) if digitsum_filtered_index(k) >= 256)
    _same_error(PrecisionError, lambda: stream(filtered, 100, 50), lambda: reference_point(filtered, first))
    _same_error(ValidationError, lambda: stream(Lattice(5, (1, 2)), 3, 4), lambda: Lattice(5, (1, 2)).batch((5,)))
    # the known window x^-1 .. x^-6 holds L + m - 1 = 6 digits: indices below 16 (m <= 4) pass
    window = DigitalKronecker(2, (LaurentSeries.make(2, 1, (1, 0, 1, 1, 0, 1)),), 3)
    assert stream(window, 10, 6).count == 6
    _same_error(TruncationError, lambda: stream(window, 10, 20), lambda: reference_point(window, 16))
    shifted = Hybrid(Halton((3,)), DigitalKronecker(2, (LaurentSeries.make(2, 3, (1, 1, 0, 1)),), 2))
    _same_error(TruncationError, lambda: stream(shifted, 1, 40), lambda: reference_point(shifted, 32))


# -- scaling tables read prefixes ---------------------------------------------------


def _stream_calls(monkeypatch) -> list[tuple[int, int]]:
    calls = []

    def counting(spec, start, count):
        calls.append((start, count))
        return stream(spec, start, count)

    monkeypatch.setattr(experiments, "stream", counting)
    return calls


@pytest.mark.parametrize(
    "spec,schedule,streamed",
    [
        (Hybrid(Halton((2,)), Kronecker((fixedpoint_sqrt(2, 96),))), (8, 16, 64), [(0, 64)]),
        (Hybrid(Hammersley(21, (2,)), Lattice(21, (5,))), (8, 13, 21), [(0, 8), (0, 13), (0, 21)]),
    ],
)
def test_run_scaling_prefix_matches_per_row_streaming(monkeypatch, spec, schedule, streamed):
    calls = _stream_calls(monkeypatch)
    rows = run_scaling(ExperimentPlan(spec=spec, schedule=schedule))
    assert calls == streamed
    for row in rows:
        own = experiments._resize(spec, row.n)
        assert row.result == compute_discrepancy(stream(own, 0, row.n))


def test_run_scaling_failing_prefix_falls_back_to_rows():
    spec = Kronecker((fixedpoint_sqrt(2, 40),))
    rows = run_scaling(ExperimentPlan(spec=spec, schedule=(16, 64, 1024)))
    assert [r.n for r in rows if r.result is not None] == [16, 64]
    assert rows[2].error == "index 256 too large for width 40 (needs 32 clean fractional bits)"
    assert rows[1].result == compute_discrepancy(stream(spec, 0, 64))
    text = scaling_csv(rows)
    assert text.splitlines()[-1].startswith("1024,,,,,,,,index 256")


# -- integer closed forms in 1D -------------------------------------------------------


def _check_1d(points) -> None:
    assert star_disc_1d(points).value == brute_force_oracle(points, "star")
    assert extreme_disc_1d(points).value == brute_force_oracle(points, "extreme")


def test_1d_closed_forms_match_oracle_on_mixed_denominators():
    rng = random.Random(1729)
    t = Fraction(1, 2**80)
    for _ in range(80):
        n = rng.randrange(1, 9)
        rows = [(Fraction(rng.randrange(den), den),) for den in (rng.choice((2, 3, 7, 12, 2**70)) for _ in range(n))]
        _check_1d(rows)
        _check_1d([(x + t,) if rng.random() < 0.5 else (x,) for (x,) in rows])
        _check_1d([(str(x),) for (x,) in rows])


def test_1d_closed_forms_match_oracle_on_point_sets():
    exact_alpha = Kronecker((FixedPointReal.from_fraction(Fraction(3, 8), 8),))  # many ties
    for spec in (exact_alpha, Kronecker((fixedpoint_sqrt(2, 64),)), PowerRatio(3, 2), Halton((3,))):
        for start in (0, 3, 11):
            for count in (1, 5, 8):
                ps = stream(spec, start, count)
                _check_1d(ps)
                assert star_disc_1d(ps).mode == ("exact" if ps.tag.width is None else "exact-represented")
    # a coerced column: base-3 radical inverses floored onto 2^-12
    wide = Hybrid(Halton((3,)), Kronecker((FixedPointReal.from_fraction(Fraction(1, 4), 12),)))
    for start in (0, 4, 9):
        b = wide.batch(range(start, start + 8))
        ps = PointSet(b.columns[:1], b.scales[:1], b.tag, spec=Halton((3,)), start=start)
        _check_1d(ps)
        assert star_disc_1d(ps).mode == "exact-represented"
        assert ps.rows() != stream(Halton((3,)), start, 8).rows()  # coercion moved the points
        assert star_disc_exact(stream(wide, start, 8)).value == brute_force_oracle(stream(wide, start, 8))
