from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from lowdisc import discrepancy
from lowdisc.discrepancy import (
    DiscrepancyResult,
    brute_force_oracle,
    compute_discrepancy,
    extreme_disc_1d,
    extreme_disc_grid,
    star_disc_1d,
    star_disc_2d_sweep,
    star_disc_bracket,
    star_disc_exact,
)
from lowdisc.errors import BudgetError, ValidationError
from lowdisc.experiments import preset
from lowdisc.generators import Columns, Halton, Hammersley, Hybrid, Kronecker, Lattice, ReprTag, int_column, stream
from lowdisc.algebra import fixedpoint_sqrt, int_array


def rand_rows(rng: random.Random, n: int, d: int, dens=(3, 4, 5, 8, 16)):
    return [
        tuple(Fraction(rng.randrange(0, den), den) for den in (rng.choice(dens) for _ in range(d)))
        for _ in range(n)
    ]


def lattice_max(rows, k: int) -> Fraction:
    """Maximum of the discrepancy function over the corners {0..k}^d / k."""
    n = len(rows)
    best = Fraction(0)
    for corner in itertools.product([Fraction(i, k) for i in range(k + 1)], repeat=len(rows[0])):
        vol = math.prod(corner)
        a_lt = sum(all(x < b for x, b in zip(p, corner)) for p in rows)
        a_le = sum(all(x <= b for x, b in zip(p, corner)) for p in rows)
        best = max(best, vol - Fraction(a_lt, n), Fraction(a_le, n) - vol)
    return best


def cell_bound_max(rows, k: int) -> Fraction:
    """The largest bound ``max(vol(b) - closed(a)/N, closed(b)/N - vol(a))``
    over the lattice cells (a/k, b/k], b = a + 1, by direct counting."""
    n, best = len(rows), Fraction(0)
    for a in itertools.product(range(k), repeat=len(rows[0])):
        low, up = [Fraction(i, k) for i in a], [Fraction(i + 1, k) for i in a]
        within = [sum(all(x <= c for x, c in zip(p, corner)) for p in rows) for corner in (low, up)]
        best = max(best, math.prod(up) - Fraction(within[0], n), Fraction(within[1], n) - math.prod(low))
    return best


def lattice_bracket(points, k: int) -> DiscrepancyResult:
    """``star_disc_bracket`` stopped after its lattice pass, never finished:
    ``[lo, hi]`` is the lattice maximum and the largest cell bound."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discrepancy, "_finish_bracket", lambda *args: None)
        return star_disc_bracket(points, k)


# -- 1D formulas ---------------------------------------------------------------


def test_star_1d_examples():
    eq = [(Fraction(i, 6),) for i in range(6)]
    assert star_disc_1d(eq).value == Fraction(1, 6)
    assert star_disc_1d([(Fraction(1, 2),)]).value == Fraction(1, 2)
    vdc4 = [(Fraction(0),), (Fraction(1, 2),), (Fraction(1, 4),), (Fraction(3, 4),)]
    assert star_disc_1d(vdc4).value == Fraction(1, 4)
    assert star_disc_1d(vdc4).value == brute_force_oracle(vdc4, "star")


def test_extreme_1d_examples():
    eq = [(Fraction(i, 5),) for i in range(5)]
    assert extreme_disc_1d(eq).value == Fraction(1, 5)
    assert extreme_disc_1d(eq).value == brute_force_oracle(eq, "extreme")
    vdc4 = [(Fraction(0),), (Fraction(1, 2),), (Fraction(1, 4),), (Fraction(3, 4),)]
    assert extreme_disc_1d(vdc4).value == Fraction(1, 4)
    two = [(Fraction(0),), (Fraction(1, 2),)]
    assert extreme_disc_1d(two).value == Fraction(1, 2)
    assert brute_force_oracle(two, "extreme") == Fraction(1, 2)
    assert extreme_disc_grid(two).value == Fraction(1, 2)


def test_1d_rejects_empty_and_wrong_dim():
    with pytest.raises(ValidationError):
        star_disc_1d([])
    with pytest.raises(ValidationError):
        extreme_disc_1d([])
    with pytest.raises(ValidationError):
        star_disc_1d([(Fraction(1, 2), Fraction(1, 2))])


def test_star_1d_at_least_half_over_n():
    rng = random.Random(5)
    for _ in range(50):
        rows = rand_rows(rng, rng.randrange(1, 20), 1)
        r = star_disc_1d(rows)
        assert r.value >= Fraction(1, 2 * len(rows))


# -- exact 2D / general-d ---------------------------------------------------------


def test_star_exact_worked_examples():
    single = [(Fraction(1, 2), Fraction(1, 2))]
    assert star_disc_exact(single).value == Fraction(3, 4)
    assert star_disc_2d_sweep(single).value == Fraction(3, 4)

    origin = [(Fraction(0), Fraction(0))]
    assert star_disc_exact(origin).value == 1

    # All four points sit at the corners {0, 1/2}^2: the box just beyond
    # (1/2, 1/2) holds every point at volume 1/4, so the supremum is 3/4.
    grid22 = [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2)),
    ]
    assert brute_force_oracle(grid22, "star") == Fraction(3, 4)
    assert star_disc_exact(grid22).value == Fraction(3, 4)
    assert star_disc_2d_sweep(grid22).value == Fraction(3, 4)


def test_sweep_matches_exact_on_hammersley():
    ps = stream(Hammersley(4, (2,)), 0, 4)
    assert star_disc_2d_sweep(ps).value == star_disc_exact(ps).value


def test_star_algorithms_agree_with_oracle_randomized():
    rng = random.Random(314)
    for _ in range(60):
        rows = rand_rows(rng, rng.randrange(1, 9), 1)
        assert star_disc_1d(rows).value == brute_force_oracle(rows, "star")
        assert extreme_disc_1d(rows).value == brute_force_oracle(rows, "extreme")
    for _ in range(40):
        rows = rand_rows(rng, rng.randrange(1, 9), 2)
        want = brute_force_oracle(rows, "star")
        assert star_disc_exact(rows).value == want
        assert star_disc_2d_sweep(rows).value == want
    for _ in range(20):
        rows = rand_rows(rng, rng.randrange(1, 7), 3)
        assert star_disc_exact(rows).value == brute_force_oracle(rows, "star")
    # Coordinates 2^-80 apart share one double, so only the exact recheck
    # tells their corners apart.  On the first two sets neither the first
    # float maximum nor the cells tied with it in floats hold the true maximum.
    t = Fraction(1, 2**80)
    f = Fraction
    near_ties = [
        [(f(5, 6) - t, f(3, 5) - t), (f(1, 2) + 2 * t, f(4, 5) - t),
         (f(0), f(1, 3) + t), (f(7, 10) + 2 * t, f(1, 3))],
        [(f(4, 5) - t, f(1, 7) - t, f(1, 2) - t), (f(1, 3) + 2 * t, f(5, 6) - 2 * t, f(0))],
    ]
    for d in (2, 3):
        for _ in range(30):
            rows = rand_rows(rng, rng.randrange(1, 9 if d == 2 else 7), d)
            shifted = [tuple(x + rng.randrange(-2, 3) * t if x else x for x in row) for row in rows]
            near_ties.append(shifted)
    for rows in near_ties:
        want = brute_force_oracle(rows, "star")
        assert star_disc_exact(rows).value == want
        if len(rows[0]) == 2:
            assert star_disc_2d_sweep(rows).value == want
        for k in (2, 3, 5, 8) if len(rows[0]) == 2 else (3,):
            assert lattice_bracket(rows, k).lo == lattice_max(rows, k)
            bracket = star_disc_bracket(rows, k)  # exact when it finishes, so lo == want == hi
            assert bracket.lo <= want <= bracket.hi


def test_extreme_grid_agrees_with_oracle_randomized():
    rng = random.Random(2718)
    for _ in range(25):
        rows = rand_rows(rng, rng.randrange(1, 7), 2)
        assert extreme_disc_grid(rows).value == brute_force_oracle(rows, "extreme")
    for _ in range(6):
        rows = rand_rows(rng, rng.randrange(1, 4), 3)
        assert extreme_disc_grid(rows).value == brute_force_oracle(rows, "extreme")


def test_extreme_grid_near_ties_match_oracle():
    # As for the star kernel: coordinates 2^-80 apart share one double, so
    # only the exact recheck separates their boxes.  On the two crafted sets
    # the box of the true maximum reads below the float maximum.
    t = Fraction(1, 2**80)
    f = Fraction
    near_ties = [
        [(f(5, 7) - t, f(2, 5) - t), (f(0), f(0))],
        [(f(0), f(0)), (f(1, 2) + t, f(2, 3))],
    ]
    rng = random.Random(1618)
    for d, n_max, count in ((2, 9, 20), (3, 4, 6)):
        for _ in range(count):
            rows = rand_rows(rng, rng.randrange(1, n_max), d, dens=(3, 5, 6, 7, 10))
            near_ties.append([tuple(x + rng.randrange(-2, 3) * t if x else x for x in row) for row in rows])
    for rows in near_ties:
        assert extreme_disc_grid(rows).value == brute_force_oracle(rows, "extreme")


def test_star_extreme_ordering_invariants():
    rng = random.Random(99)
    for _ in range(30):
        d = rng.choice([1, 2])
        rows = rand_rows(rng, rng.randrange(1, 8), d)
        star = star_disc_exact(rows).value if d == 2 else star_disc_1d(rows).value
        extreme = (
            extreme_disc_grid(rows).value if d == 2 else extreme_disc_1d(rows).value
        )
        assert 0 <= star <= extreme <= 1
        assert extreme <= 2**d * star


def test_sweep_python_fallback_matches_numpy_path():
    rng = random.Random(41)
    for _ in range(15):
        rows = rand_rows(rng, rng.randrange(1, 9), 2)
        fast = star_disc_2d_sweep(rows).value
        # huge-denominator twin forces the big-int path
        shift = Fraction(1, 2**70)
        rows_big = [(x + shift - shift, y) for x, y in rows]  # same values
        assert star_disc_2d_sweep(rows_big).value == fast
    big = [(Fraction(1, 2**40), Fraction(1, 3**25)), (Fraction(1, 2), Fraction(1, 3))]
    assert star_disc_2d_sweep(big).value == star_disc_exact(big).value


def as_object_arrays(points: Columns) -> Columns:
    """The same points with every column held in an object array."""
    import numpy as np

    return Columns(tuple(np.array(c, dtype=object) for c in points.columns), points.scales, points.tag)


def test_kernels_read_list_columns():
    """Columns over scales past 2^63 are lists; every kernel in d >= 2 agrees
    with the oracle on them and with the same columns held in arrays."""
    rng = random.Random(53)
    for _ in range(30):
        d, n = rng.choice((2, 2, 3)), rng.randrange(1, 9)
        scales = tuple(rng.choice((2**70, 3**45, 2**192)) for _ in range(d))
        columns = []
        for s in scales:
            pool = [rng.randrange(s) for _ in range(rng.randrange(1, 9))] + [0, s // 2]
            columns.append([rng.choice(pool) for _ in range(n)])
        points = Columns(tuple(columns), scales, ReprTag())
        arrays = as_object_arrays(points)
        exact = star_disc_exact(points)
        assert exact.value == brute_force_oracle(points) and exact == star_disc_exact(arrays)
        k = rng.choice((2, 5, 8))
        bracket = star_disc_bracket(points, k)
        assert bracket == star_disc_bracket(arrays, k) and bracket.lo <= exact.value <= bracket.hi
        assert lattice_bracket(points, k).lo == lattice_max(points.rows(), k)
        if d == 2:
            assert star_disc_2d_sweep(points) == exact
            extreme = extreme_disc_grid(points)
            assert extreme.value == brute_force_oracle(points, "extreme") and extreme == extreme_disc_grid(arrays)


def test_op9_prefixes_from_lists_and_arrays_agree():
    points = stream(preset("op9-vdc-sqrt2").spec, 0, 1024)
    assert all(isinstance(c, list) for c in points.columns)
    arrays = as_object_arrays(points)
    for n in (16, 128, 1024):
        assert star_disc_2d_sweep(points.head(n)) == star_disc_2d_sweep(arrays.head(n))
        assert star_disc_bracket(points.head(n), 64) == star_disc_bracket(arrays.head(n), 64)


# -- brackets -----------------------------------------------------------------------


def test_bracket_indices_on_wide_scales_and_lattice_lines():
    """Columns over 2^192, 3^41, 2^63 and 10^12, with coordinates on, just
    below and just above the lattice lines i/k, against the lattice maximum."""
    rng = random.Random(31)
    for scales in ((2**192, 3**41), (2**63, 10**12)):
        for _ in range(12):
            k, n = rng.choice((2, 3, 5, 8)), rng.randrange(1, 9)
            columns = []
            for s in scales:
                near = [i * s // k + t for i in range(k) for t in (-1, 0, 1)]
                near += [-(-i * s // k) for i in range(k)]
                values = [min(max(rng.choice(near), 0), s - 1) if rng.random() < 0.8 else rng.randrange(s)
                          for _ in range(n)]
                columns.append(int_array(values, s))
            points = Columns(tuple(columns), scales, ReprTag())
            assert lattice_bracket(points, k).lo == lattice_max(points.rows(), k)
            bracket = star_disc_bracket(points, k)
            assert bracket.lo <= brute_force_oracle(points) <= bracket.hi


def test_ties_across_one_row_blocks(monkeypatch):
    """A point at the origin makes the closed side tie on the whole first
    row of every grid.  With one axis-0 row per block, each block's ties are
    reduced to an exact maximum at once, and the values do not change."""
    sets = [stream(Hammersley(n, (2,)), 0, n) for n in (5, 8)]
    sets.append(stream(Hybrid(Hammersley(8, (2,)), Lattice(8, (3,))), 0, 8))
    wide = stream(Hybrid(Hammersley(233, (2,)), Lattice(233, (144,))), 0, 233)

    def values(points):
        out = [star_disc_exact(points).value] + [lattice_bracket(points, k).lo for k in (2, 4, 16)]
        out += [star_disc_bracket(points, k) for k in (2, 4, 16)]
        return out + [extreme_disc_grid(points).value] if points.dim == 2 else out

    default = [values(p) for p in sets] + [star_disc_bracket(wide, 32)]
    monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", 1)
    assert [values(p) for p in sets] + [star_disc_bracket(wide, 32)] == default
    for points, got in zip(sets, default):
        assert got[0] == brute_force_oracle(points, "star")
        assert got[1:4] == [lattice_max(points.rows(), k) for k in (2, 4, 16)]
        assert all(r.lo <= got[0] <= r.hi for r in got[4:7])
        if points.dim == 2:
            assert got[7] == brute_force_oracle(points, "extreme")
    assert default[-1].lo <= star_disc_exact(wide).value <= default[-1].hi


def test_bracket_contains_exact_value():
    eq = [(Fraction(i, 5),) for i in range(5)]
    br = star_disc_bracket(eq, 5)
    assert br.lo <= Fraction(1, 5) <= br.hi

    single = [(Fraction(1, 2), Fraction(1, 2))]
    br = star_disc_bracket(single, 4)
    assert br.lo >= Fraction(1, 2)
    assert br.lo <= Fraction(3, 4) <= br.hi


def test_bracket_hi_is_the_largest_cell_bound():
    """An unfinished bracket's hi is the largest cell bound, no more than
    lo + d/k; a finished one is the exact value."""
    rng = random.Random(97)
    for d, ks in ((1, (2, 3, 8)), (2, (2, 3, 5)), (3, (2, 3))):
        for _ in range(6):
            rows = rand_rows(rng, rng.randrange(1, 9 if d < 3 else 6), d)
            exact = brute_force_oracle(rows)
            for k in ks:
                lattice = lattice_bracket(rows, k)
                assert lattice.hi == max(lattice_max(rows, k), cell_bound_max(rows, k)) <= lattice.lo + Fraction(d, k)
                bracket = star_disc_bracket(rows, k)
                assert bracket == lattice if bracket.resolution else bracket.value == exact


def test_finishing_counts_the_slab_points_it_walks():
    """Points on ten values per axis, as from a file of two decimals: the
    cells that can beat lo hold at most 121 critical corners, far below the
    65^2 lattice corners, but each cell's slabs hold 2N/10 points.  At
    N = 100 they fit the budget and the bracket finishes; at N = 20,000 they
    do not, and it stays bracketed."""
    rng = random.Random(5)
    for n, finishes in ((100, True), (20000, False)):
        columns = tuple(int_array([2 * rng.randrange(10) + 1 for _ in range(n)], 20) for _ in range(2))
        points = Columns(columns, (20, 20), ReprTag())
        exact = star_disc_exact(points).value
        r = star_disc_bracket(points, 64)
        assert (r.resolution is None) == finishes
        assert r.lo <= exact <= r.hi


def test_bracket_refinement_is_monotone():
    rng = random.Random(7)
    rows = rand_rows(rng, 6, 2)
    exact = star_disc_exact(rows).value
    prev_lo = Fraction(0)
    prev_width = Fraction(2)
    for j in range(2, 8):
        br = star_disc_bracket(rows, 2**j)
        assert br.lo <= exact <= br.hi
        assert br.lo >= prev_lo
        assert br.hi - br.lo <= prev_width
        prev_lo, prev_width = br.lo, br.hi - br.lo


def test_bracket_validation_and_budget():
    rows = [(Fraction(1, 2), Fraction(1, 2))]
    with pytest.raises(ValidationError):
        star_disc_bracket(rows, 1)
    with pytest.raises(BudgetError):
        star_disc_bracket(rows, 2**14, work_budget=1000)


def test_budget_errors_for_exact_paths():
    rng = random.Random(11)
    rows = rand_rows(rng, 8, 3)
    with pytest.raises(BudgetError):
        star_disc_exact(rows, work_budget=10)
    with pytest.raises(BudgetError):
        star_disc_2d_sweep(rand_rows(rng, 8, 2), work_budget=10)
    with pytest.raises(BudgetError):
        extreme_disc_grid(rows, work_budget=10)


def critical_cells(rows) -> int:
    """Corners of the critical grid: each axis's distinct values plus 1."""
    return math.prod(len({r[j] for r in rows} | {1}) for j in range(len(rows[0])))


def pair_cells(rows) -> int:
    """Corner pairs of the extreme grid: a lower corner from an axis's values
    plus 0, an upper corner from its values plus 1, lower <= upper."""
    cells = 1
    for j in range(len(rows[0])):
        values = {r[j] for r in rows}
        cells *= sum(lo <= up for lo in values | {0} for up in values | {1})
    return cells


def test_every_kernel_is_budgeted_by_the_cells_of_its_grid():
    rng = random.Random(31)
    rows2, rows3 = rand_rows(rng, 12, 2), rand_rows(rng, 9, 3)
    on_zero = [(Fraction(0), Fraction(1, 3)), (Fraction(1, 2), Fraction(2, 3)), (Fraction(1, 4), Fraction(0))]
    cases = [
        (star_disc_exact, rows3, critical_cells(rows3)),
        (star_disc_2d_sweep, rows2, critical_cells(rows2)),
        (extreme_disc_grid, rows3, pair_cells(rows3)),
        (extreme_disc_grid, on_zero, pair_cells(on_zero)),
        (lambda rows, work_budget: star_disc_bracket(rows, 6, work_budget=work_budget), rows3, 7**3),
    ]
    for kernel, rows, cells in cases:
        kernel(rows, work_budget=cells)  # runs at exactly its cell count
        with pytest.raises(BudgetError, match=f" has {cells} cells, beyond the budget of {cells - 1}$"):
            kernel(rows, work_budget=cells - 1)


def test_auto_is_exact_while_n_to_the_d_fits_the_cap(monkeypatch):
    spec = Halton((2, 3, 5))
    for n in (48, 215):
        points = stream(spec, 0, n)
        assert compute_discrepancy(points) == star_disc_exact(points)
    # past the cap auto brackets at k = 214 (215^3 <= 10^7 < 216^3); the bracket finishes:
    # 1,144 critical corners are left of its 9,938,375
    points = stream(spec, 0, 216)
    assert compute_discrepancy(points) == star_disc_bracket(points, 214) == star_disc_exact(points)
    # with finishing off the route shows: the sweep at N = 215, a bracket at k = 214 from N = 216
    monkeypatch.setattr(discrepancy, "_finish_bracket", lambda *args: None)
    below = stream(spec, 0, 215)
    assert compute_discrepancy(below) == star_disc_exact(below)
    assert compute_discrepancy(points).resolution == 214


def test_auto_3d_finishes_the_bracket_past_the_cap():
    """Halton(2, 3, 5) at N = 300: auto brackets at k = 214, and 54,336 of
    the 9,938,375 lattice corners are left, so it finishes at the value of
    the 301^3-corner sweep."""
    value = Fraction(641, 20000)
    assert compute_discrepancy(stream(Halton((2, 3, 5)), 0, 300)) == DiscrepancyResult("star", 300, 3, value, value)


def test_auto_2d_switches_to_the_bracket_past_n_3162():
    spec = Halton((2, 3))
    points = stream(spec, 0, 3162)
    assert compute_discrepancy(points) == star_disc_2d_sweep(points)
    r = compute_discrepancy(stream(spec, 0, 3163))
    assert r.mode == "bracketed" and r.resolution == 512


def test_auto_sweeps_a_tie_heavy_set_past_n_3162(monkeypatch):
    """4,000 points on 100 values per axis, one in each hundredth, as from a
    file of two decimals: N^2 is past AUTO_EXACT_CAP but the critical grid
    has at most 101^2 corners, so auto sweeps it, on int64 and list columns
    alike.  Finishing is off, so a bracket would show."""
    monkeypatch.setattr(discrepancy, "_finish_bracket", lambda *args: None)
    rng = random.Random(23)
    for scale in (100, 2**70 + 3):
        pools = [[v * (scale // 100) + rng.randrange(scale // 100) for v in range(100)] for _ in range(2)]
        columns = tuple(int_column([rng.choice(pool) for _ in range(4000)], scale) for pool in pools)
        points = Columns(columns, (scale, scale), ReprTag())
        assert compute_discrepancy(points) == star_disc_exact(points)


def test_auto_caps_the_bracket_resolution_in_every_dimension(monkeypatch):
    """auto brackets at the largest k up to the asked one whose (k + 1)^d
    lattice fits AUTO_EXACT_CAP, in 2D as in 3D: at a cap of 10^4 that is 99
    in 2D and 20 in 3D.  Finishing is off, so the resolution shows."""
    monkeypatch.setattr(discrepancy, "AUTO_EXACT_CAP", 10**4)
    monkeypatch.setattr(discrepancy, "_finish_bracket", lambda *args: None)
    for spec, n, cap, k in ((Halton((2, 3)), 101, 99, 50), (Halton((2, 3, 5)), 30, 20, 8)):
        points = stream(spec, 0, n)
        assert compute_discrepancy(points).resolution == cap
        assert compute_discrepancy(points, k=k).resolution == k


def test_auto_extreme_runs_the_pair_grid_under_the_budget():
    points = stream(Halton((2, 3)), 0, 57)  # N^2d = 10556001, past AUTO_EXACT_CAP
    assert compute_discrepancy(points, kind="extreme") == extreme_disc_grid(points)
    with pytest.raises(BudgetError, match="corner-pair grid"):
        compute_discrepancy(points, kind="extreme", work_budget=1000)


def test_oracle_size_guard():
    rng = random.Random(13)
    with pytest.raises(ValidationError):
        brute_force_oracle(rand_rows(rng, 9, 1))
    with pytest.raises(ValidationError):
        brute_force_oracle(rand_rows(rng, 4, 4))


# -- perturbation contract -----------------------------------------------------------


def test_perturbation_contract_small():
    rng = random.Random(400)
    eps = Fraction(1, 2**20)
    for _ in range(20):
        n = rng.randrange(1, 17)
        base = [
            (Fraction(rng.randrange(0, 2**10), 2**10), Fraction(rng.randrange(0, 2**10), 2**10))
            for _ in range(n)
        ]
        pert = []
        for x, y in base:
            dx = Fraction(rng.randrange(-64, 65), 2**26)
            dy = Fraction(rng.randrange(-64, 65), 2**26)
            pert.append((min(max(x + dx, 0), Fraction(2**26 - 1, 2**26)),
                         min(max(y + dy, 0), Fraction(2**26 - 1, 2**26))))
        a = star_disc_2d_sweep(base).value
        b = star_disc_2d_sweep(pert).value
        assert abs(a - b) <= 2 * 2 * eps


# -- dispatcher and result objects ------------------------------------------------------


def test_compute_dispatcher_routes():
    eq = [(Fraction(i, 4),) for i in range(4)]
    assert compute_discrepancy(eq).value == Fraction(1, 4)
    rows2 = [(Fraction(1, 2), Fraction(1, 2))]
    assert compute_discrepancy(rows2).value == Fraction(3, 4)
    r = compute_discrepancy(rows2, algo="bracket", k=8)
    assert r == star_disc_bracket(rows2, 8) and r.value == Fraction(3, 4)  # finished
    with pytest.raises(ValidationError):
        compute_discrepancy(eq, kind="extreme", algo="bracket")
    with pytest.raises(ValidationError):
        compute_discrepancy(eq, algo="nosuch")
    with pytest.raises(ValidationError):
        compute_discrepancy(rows2, kind="extreme", algo="2d")
    assert compute_discrepancy(eq, kind="extreme").value == Fraction(1, 4)
    # boxes shrinking onto the single point carry mass 1 at vanishing volume
    assert compute_discrepancy(rows2, kind="extreme").value == 1
    assert brute_force_oracle(rows2, "extreme") == 1


def test_requests_are_checked_once_the_dimension_is_known():
    eq = [(Fraction(i, 4),) for i in range(4)]
    rows2 = [(Fraction(1, 2), Fraction(1, 2))]
    refused = [
        (rows2, {"algo": "grid", "k": 1}, "algo 'grid' runs no bracket"),
        (rows2, {"algo": "2d", "k": 8}, "algo '2d' runs no bracket"),
        (eq, {"k": 8}, "auto runs the exact closed form in d = 1"),
        (eq, {"algo": "1d", "k": 8}, "algo '1d' runs no bracket"),
        (rows2, {"kind": "extreme", "k": 8}, "the extreme kind has no bracket"),
        (rows2, {"algo": "bracket", "k": 1}, "bracket resolution must be >= 2"),
        (rows2, {"kind": "weird"}, "unknown discrepancy kind 'weird'"),
        (rows2, {"work_budget": 0}, "work budget must be >= 1"),
        (eq, {"work_budget": -5}, "work budget must be >= 1"),
        (rows2, {"algo": "1d"}, "algo '1d' needs 1-dimensional points, got d = 2"),
        (eq, {"algo": "2d"}, "algo '2d' needs 2-dimensional points, got d = 1"),
        ([(0, 0, 0)], {"algo": "2d"}, "algo '2d' needs 2-dimensional points, got d = 3"),
        (rows2, {"kind": "extreme", "algo": "1d"}, "algo '1d' needs 1-dimensional points"),
    ]
    for points, request, message in refused:
        with pytest.raises(ValidationError, match=message):
            compute_discrepancy(points, **request)
    # an explicit bracket runs in d = 1, and here finishes; auto takes k in d >= 2 and here runs exact
    assert compute_discrepancy(eq, algo="bracket", k=8) == star_disc_bracket(eq, 8) == star_disc_1d(eq)
    assert compute_discrepancy(rows2, k=2).value == Fraction(3, 4)
    with pytest.raises(ValidationError, match="empty point set"):
        compute_discrepancy([], k=8)


@pytest.mark.parametrize(
    "points, message",
    [
        ([(Fraction(1, 2), Fraction(5, 4)), (0, 0)], r"coordinate 5/4 outside \[0, 1\)"),
        ([(0,), (0, 0)], "points of mixed dimension"),
    ],
)
def test_points_out_of_range_or_of_mixed_dimension_are_refused(points, message):
    with pytest.raises(ValidationError, match=message):
        compute_discrepancy(points)


def test_compute_auto_falls_back_to_bracket(monkeypatch):
    monkeypatch.setattr(discrepancy, "AUTO_EXACT_CAP", 100)
    rng = random.Random(21)
    rows = rand_rows(rng, 40, 2, dens=(64,))
    r = compute_discrepancy(rows, k=64)
    assert r.mode == "bracketed"
    exact = star_disc_2d_sweep(rows).value
    assert r.lo <= exact <= r.hi


def test_mode_reflects_representation():
    exact_ps = stream(Halton((2, 3)), 0, 16)
    assert compute_discrepancy(exact_ps).mode == "exact"
    fp_ps = stream(Kronecker((fixedpoint_sqrt(2, 96),)), 0, 16)
    assert compute_discrepancy(fp_ps).mode == "exact-represented"


def test_result_json_shape():
    eq = [(Fraction(i, 4),) for i in range(4)]
    r = compute_discrepancy(eq)
    data = json.loads(r.to_json())
    assert data == {
        "kind": "star",
        "mode": "exact",
        "N": 4,
        "d": 1,
        "value": "1/4",
        "resolution": None,
    }
    br = compute_discrepancy(stream(Halton((2, 3)), 0, 16), algo="bracket", k=4)
    data = json.loads(br.to_json())
    assert data["mode"] == "bracketed"
    assert data["value"] == ["3/16", "7/16"]
    assert data["resolution"] == 4


def test_result_invariants_enforced():
    with pytest.raises(ValidationError):
        DiscrepancyResult("star", 4, 1, Fraction(3, 2), Fraction(3, 2))
    with pytest.raises(ValidationError):
        DiscrepancyResult("star", 4, 1, Fraction(0), Fraction(1), resolution=4)
    with pytest.raises(ValidationError):  # an exact result is one point
        DiscrepancyResult("star", 4, 1, Fraction(1, 4), Fraction(1, 2))


def test_result_refuses_an_unknown_kind():
    with pytest.raises(ValidationError, match="unknown discrepancy kind 'nosuch'"):
        DiscrepancyResult("nosuch", 4, 1, Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize(
    "result, mode, value, midpoint, half_width, text",
    [
        (DiscrepancyResult("star", 4, 1, Fraction(1, 4), Fraction(1, 4)), "exact", Fraction(1, 4),
         Fraction(1, 4), 0, '{"N": 4, "d": 1, "kind": "star", "mode": "exact", "resolution": null, "value": "1/4"}'),
        (DiscrepancyResult("extreme", 16, 2, Fraction(3, 8), Fraction(3, 8), represented=True),
         "exact-represented", Fraction(3, 8), Fraction(3, 8), 0,
         '{"N": 16, "d": 2, "kind": "extreme", "mode": "exact-represented", "resolution": null, "value": "3/8"}'),
        (DiscrepancyResult("star", 9, 2, Fraction(1, 3), Fraction(1, 2), 8, True), "bracketed", None,
         Fraction(5, 12), Fraction(1, 12),
         '{"N": 9, "d": 2, "kind": "star", "mode": "bracketed", "resolution": 8, "value": ["1/3", "1/2"]}'),
    ],
    ids=["exact", "exact-represented", "bracketed"],
)
def test_result_derives_mode_and_value(result, mode, value, midpoint, half_width, text):
    assert (result.mode, result.value, result.midpoint, result.half_width) == (mode, value, midpoint, half_width)
    assert result.to_json() == text


def test_brackets_keep_the_representation(tmp_path):
    from lowdisc.cli import main
    from lowdisc.pointio import read_points

    op9 = stream(preset("op9-vdc-sqrt2").spec, 0, 300)
    assert star_disc_bracket(op9, 64).represented is True
    path = tmp_path / "p.tsv"
    assert main(["gen", "--spec", "halton:bases=2|3", "--count", "300", "--decimal", "6", "--out", str(path)]) == 0
    with open(path, encoding="utf-8") as fh:
        assert star_disc_bracket(read_points(fh).columns, 64).represented is True
    halton = star_disc_bracket(stream(Halton((2, 3)), 0, 300), 64)
    assert (halton.represented, halton.mode) == (False, "bracketed")
