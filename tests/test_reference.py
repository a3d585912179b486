"""An independent mid-size reference for the star discrepancy, and
metamorphic relations the exact kernels must keep.

``brute_force_oracle`` stops at N = 8.  The reference here counts the
closed and open boxes at every corner of a grid (the critical corners, or
the bracket lattice {0..k}^d / k) with an einsum of per-axis 0/1 indicator
matrices and takes the maximum in Python ints: no ranks, no prefix sums and
no floats, so it shares no code with ``_star_kernel`` or the bracket.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from lowdisc import discrepancy
from lowdisc.discrepancy import compute_discrepancy, star_disc_2d_sweep, star_disc_bracket, star_disc_exact
from lowdisc.experiments import preset
from lowdisc.generators import EXACT, Columns, Halton, int_column, int_list, stream


def reference_max(columns, scales, corners, units) -> Fraction:
    """The maximum of ``vol - open/N`` and ``closed/N - vol`` over the grid
    of ``corners``, the numerators ``corners[j]`` over ``units[j]`` on axis
    j, for the points ``columns[j][i] / scales[j]``: ``N V - open U`` and
    ``closed U - N V`` over ``N U``, where V is the product of a corner's
    numerators and U that of the units."""
    n, d = len(columns[0]), len(columns)
    closed, open_ = [], []
    for col, scale, cs, unit in zip(columns, scales, corners, units):
        xs = np.array(int_list(col), dtype=object) * unit  # x <= c iff x_num unit <= c_num scale
        cs = np.array(cs, dtype=object) * scale
        closed.append((xs[None, :] <= cs[:, None]).astype(np.int64))
        open_.append((xs[None, :] < cs[:, None]).astype(np.int64))
    axes = "abcdefgh"[:d]
    subscripts = ",".join(a + "p" for a in axes) + "->" + axes
    c_closed = np.einsum(subscripts, *closed).astype(object)
    c_open = np.einsum(subscripts, *open_).astype(object)
    nvol = n * reduce(np.multiply.outer, [np.array(cs, dtype=object) for cs in corners])
    u = math.prod(units)
    return Fraction(max((nvol - c_open * u).max(), (c_closed * u - nvol).max()), n * u)


def reference_star(columns, scales) -> Fraction:
    """D* of the points ``columns[j][i] / scales[j]``: the maximum over every
    critical corner, each axis's distinct values plus its scale."""
    corners = [sorted(set(int_list(col))) + [scale] for col, scale in zip(columns, scales)]
    return reference_max(columns, scales, corners, scales)


def reference_lattice(columns, scales, k: int) -> Fraction:
    """The maximum over the bracket lattice {0..k}^d / k."""
    return reference_max(columns, scales, [range(k + 1)] * len(columns), [k] * len(columns))


def exact_columns(values, scales) -> Columns:
    """Exact columns of per-axis value lists over ``scales``."""
    return Columns(tuple(int_column(v, s) for v, s in zip(values, scales)), tuple(scales), EXACT)


def lattice_set(rng: random.Random, n: int, scales, k: int) -> Columns:
    """n points whose coordinates mostly sit at 0, on or next to a lattice
    line i/k, or in the last cell ((k - 1)/k, 1)."""
    values = []
    for s in scales:
        pool = [0, s - 1, s - 2] + [i * s // k + t for i in range(1, k) for t in (-1, 0, 1)]
        pool = [v for v in pool if 0 <= v < s]
        values.append([rng.choice(pool) if rng.random() < 0.7 else rng.randrange(s) for _ in range(n)])
    return exact_columns(values, scales)


def random_set(rng: random.Random, n: int, scales) -> Columns:
    """n points over ``scales``; on wide axes a third of the values come from
    a small pool that holds 0, so ties and the origin occur there too."""
    values = []
    for s in scales:
        pool = [0] + [rng.randrange(s) for _ in range(3)]
        values.append([rng.choice(pool) if rng.random() < 1 / 3 else rng.randrange(s) for _ in range(n)])
    return exact_columns(values, scales)


def switch_scales(n: int, d: int, side: int) -> tuple[int, ...]:
    """Scales whose product S puts ``N S`` just below (``side = -1``) or just
    above (``side = +1``) 2^63, where the kernel's exact recheck leaves int64."""
    head = (1 << 20,) * (d - 1)
    return head + ((1 << 63) // (n * math.prod(head)) + side,)


CASES = {  # name: (largest N, scales)
    "ties-2d": (64, (8, 30)),
    "ties-3d": (32, (8, 30, 8)),
    "wide-2d": (64, (2**70 + 3,) * 2),
    "wide-2d-128": (128, (2**70 + 3,) * 2),
    "wide-3d": (24, (2**70 + 3,) * 3),
    "below-switch-2d": (64, switch_scales(64, 2, -1)),
    "above-switch-2d": (64, switch_scales(64, 2, +1)),
    "below-switch-3d": (32, switch_scales(32, 3, -1)),
    "above-switch-3d": (32, switch_scales(32, 3, +1)),
}


def case_sets(name: str, count: int = 3) -> list[Columns]:
    n, scales = CASES[name]
    rng = random.Random(name)
    return [random_set(rng, rng.randrange(n // 2, n + 1), scales) for _ in range(count)]


def test_switch_scales_straddle_int64():
    for n, d in ((64, 2), (32, 3)):
        assert n * math.prod(switch_scales(n, d, -1)) < 1 << 63 < n * math.prod(switch_scales(n, d, +1))


def test_reference_matches_the_oracle_on_small_sets():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.choice((1, 2, 3))
        points = random_set(rng, rng.randrange(1, 9), [rng.choice((4, 7, 2**70 + 3)) for _ in range(d)])
        assert reference_star(points.columns, points.scales) == discrepancy.brute_force_oracle(points)


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("name", CASES)
def test_exact_routes_match_the_reference(name, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", block)
    for points in case_sets(name):
        want = reference_star(points.columns, points.scales)
        assert star_disc_exact(points).value == want
        assert compute_discrepancy(points).value == want
        if points.dim == 2:
            assert star_disc_2d_sweep(points).value == want


def lattice_bracket(points, k: int):
    """``star_disc_bracket`` stopped after its lattice pass, never finished."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discrepancy, "_finish_bracket", lambda *args: None)
        return star_disc_bracket(points, k)


@pytest.mark.parametrize("name", CASES)
def test_brackets_contain_the_reference(name):
    """Each bracket keeps the lattice maximum as the lo of its lattice pass,
    and finishes at the reference value or contains it."""
    for points in case_sets(name, count=2):
        want = reference_star(points.columns, points.scales)
        for k in (2, 5, 16):
            lattice = lattice_bracket(points, k)
            assert lattice.lo == reference_lattice(points.columns, points.scales, k)
            assert lattice.lo <= want <= lattice.hi
            r = star_disc_bracket(points, k)
            assert r == lattice if r.resolution else r.value == want


# (queued cells, cells per block, corners per batch): the defaults, then the queue
# evaluated at every block, blocks of one axis-0 row, and a batch per cell
FINISH_PATHS = [None, (0, None, None), (0, 1, 1), (None, 7, 3)]


@pytest.mark.parametrize("path", FINISH_PATHS,
                         ids=["default", "evaluated-per-block", "one-row-blocks", "small-batches"])
def test_finished_brackets_match_the_reference(path, monkeypatch):
    """Seeded d = 2 and d = 3 sets over tie-heavy scales, 2^70 + 3 and a
    scale on every lattice line, with coordinates at 0, on and next to the
    lines i/k and in the last cell, at every k from 2 to 16.  A bracket that
    gives up after evaluating some cells keeps its lattice pass's result."""
    for name, value in zip(("_QUEUED_CELLS", "_BLOCK_CELLS", "_CORNER_BATCH"), path or ()):
        if value is not None:
            monkeypatch.setattr(discrepancy, name, value)
    evaluations = 0
    nvol = discrepancy._ExactMax.nvol  # only the evaluation of cells calls it

    def counted(*args):
        nonlocal evaluations
        evaluations += 1
        return nvol(*args)

    monkeypatch.setattr(discrepancy._ExactMax, "nvol", counted)
    rng = random.Random(f"finish-{path}")
    finished = wasted = 0
    for k in range(2, 17):
        for scales in ((8, 30), (2**70 + 3, 720720), (720720, 8, 2**70 + 3)):
            for _ in range(2):
                points = lattice_set(rng, rng.randrange(1, 24 if len(scales) == 2 else 12), scales, k)
                want = reference_star(points.columns, points.scales)
                before = evaluations
                r = star_disc_bracket(points, k)
                assert r.lo <= want <= r.hi
                finished += r.resolution is None
                if r.resolution is not None:
                    wasted += evaluations > before
                    assert r == lattice_bracket(points, k)
    assert finished >= 40  # of 90: the finishing itself is checked, not only containment
    if path == (0, 1, 1):  # evaluated one-row blocks, then gave up: none of that work leaks into the bracket
        assert wasted >= 1


@pytest.mark.parametrize("spec, n, k", [(preset("hammersley-lattice").spec, 233, 128), (Halton((2, 3, 5)), 648, 214)],
                         ids=["hammersley-lattice", "halton-2-3-5"])
def test_finishing_batches_hold_at_most_the_cap(spec, n, k, monkeypatch):
    """A batch of more than one box holds at most ``_CORNER_BATCH`` padded
    corners and slab points.  The box shapes of these sets vary: batches
    cut on real corners instead held up to 6,514 and 11,914."""
    points = stream(spec, 0, n)
    batches = []
    nvol = discrepancy._ExactMax.nvol

    def recorded(self, index):
        batches.append(index)
        return nvol(self, index)

    monkeypatch.setattr(discrepancy._ExactMax, "nvol", recorded)
    assert star_disc_bracket(points, k).resolution is None
    scale, columns = points.scales, [int_list(col) for col in points.columns]
    corners = [sorted(set(col)) + [s] for col, s in zip(columns, scale)]
    slab = [np.bincount([-(-x * k // s) for x in col], minlength=k + 1) for col, s in zip(columns, scale)]
    several = 0
    for index in batches:
        shape = np.broadcast_shapes(*(i.shape for i in index))
        if shape[0] == 1:
            continue
        several += 1
        # a box's cell a_j holds its first corner c_j, a_j/k < c_j <= (a_j + 1)/k; its slab, ceil(x_j k) = a_j + 1
        points_in_slabs = sum(int(slab[j][-(-corners[j][c] * k // scale[j])]) for j, i in enumerate(index)
                              for c in i.reshape(shape[0], -1)[:, 0].tolist())
        assert math.prod(shape) + points_in_slabs <= discrepancy._CORNER_BATCH
    assert several >= 3


def full_prefix_counts(index, shape):
    """The closed counts of the whole padded grid, by ``np.add.at`` and one
    cumsum per axis: entry i + 1 on axis j counts the points whose index is
    at most i there."""
    grid = np.zeros([m + 1 for m in shape], dtype=np.int64)
    np.add.at(grid, tuple((index + 1).T), 1)
    for axis in range(len(shape)):
        grid = grid.cumsum(axis=axis)
    return grid


def blocks_by(suffix: bool, index, shape):
    """Every ``(r0, block)`` of ``_prefix_counts``, each block built the dense
    way or by suffix increments."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discrepancy, "_sums_by_suffix", lambda index, shape: suffix)
        return list(discrepancy._prefix_counts(index, shape))


@pytest.mark.parametrize("block", [None, 1, 7])
def test_both_block_builders_yield_the_prefix_counts(block, monkeypatch):
    """Random index arrays in d = 1..4, each axis drawing from a few values
    that hold its first and last index, so points tie and rows stay empty:
    both ways of building a block yield the same int64 blocks, and each is
    its rows of the whole grid's prefix counts."""
    if block is not None:
        monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(block)
    for d in (1, 2, 3, 4):
        for _ in range(12):
            shape = tuple(int(m) for m in rng.integers(1, 8, d))
            pools = [np.unique(np.concatenate(([0, m - 1], rng.integers(0, m, 2)))) for m in shape]
            n = int(rng.integers(1, 40))
            index = np.stack([rng.choice(p, n) for p in pools], axis=1)
            want = full_prefix_counts(index, shape)
            dense, suffix = blocks_by(False, index, shape), blocks_by(True, index, shape)
            assert [r0 for r0, _ in dense] == [r0 for r0, _ in suffix]
            assert dense[0][0] == 0 and dense[-1][0] + len(dense[-1][1]) - 1 == shape[0]
            for (r0, a), (_, b) in zip(dense, suffix):
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b) and np.array_equal(a, want[r0:r0 + len(a)])


@pytest.mark.parametrize("suffix", [False, True], ids=["dense-blocks", "suffix-blocks"])
def test_reference_routes_on_each_block_builder(suffix, monkeypatch):
    """The exact routes, the brackets and the finished brackets checked
    above, with every block built one way."""
    monkeypatch.setattr(discrepancy, "_sums_by_suffix", lambda index, shape: suffix)
    for name in CASES:
        for block in (None, 1, 7):
            with pytest.MonkeyPatch.context() as patch:
                test_exact_routes_match_the_reference(name, block, patch)
        test_brackets_contain_the_reference(name)
    for path in FINISH_PATHS:
        with pytest.MonkeyPatch.context() as patch:
            test_finished_brackets_match_the_reference(path, patch)


def test_a_finished_bracket_matches_the_sweep_on_c1():
    """C1 at N = 7776 finishes at k = 512 (116,455 critical corners of the
    263,169 lattice corners survive) and equals the 0.65 s sweep."""
    points = stream(preset("c1-counterexample").spec, 0, 7776)
    assert star_disc_bracket(points, 512) == star_disc_exact(points)


def _permute_points(points: Columns, rng: random.Random) -> Columns:
    order = rng.sample(range(points.count), points.count)
    return exact_columns([[v[i] for i in order] for v in map(int_list, points.columns)], points.scales)


def _permute_axes(points: Columns, rng: random.Random) -> Columns:
    order = rng.sample(range(points.dim), points.dim)
    return exact_columns([points.columns[j] for j in order], [points.scales[j] for j in order])


def _duplicate(points: Columns, rng: random.Random) -> Columns:
    return exact_columns([int_list(c) * 2 for c in points.columns], points.scales)


def _rescale(points: Columns, rng: random.Random) -> Columns:
    """The same rationals over scales c times larger; c = 2^40 + 1 puts N S
    past 2^63 for every set here, so the exact recheck runs on Python ints."""
    c = (1 << 40) + 1
    return exact_columns([[v * c for v in int_list(col)] for col in points.columns], [s * c for s in points.scales])


RELATIONS = [_permute_points, _permute_axes, _duplicate, _rescale]


@pytest.mark.parametrize("relation", RELATIONS, ids=[f.__name__.strip("_") for f in RELATIONS])
def test_metamorphic_relations_keep_the_star_discrepancy(relation):
    rng = random.Random(relation.__name__)
    sets = [p for name in ("ties-2d", "ties-3d", "wide-2d", "below-switch-2d") for p in case_sets(name, count=1)]
    sets += [stream(preset(name).spec, 0, 200) for name in ("op9-vdc-sqrt2", "halton-2-3", "c1-counterexample")]
    for points in sets:
        want = reference_star(points.columns, points.scales)
        assert star_disc_exact(points).value == want
        assert star_disc_exact(relation(points, rng)).value == want


BRACKET_RELATIONS = [_permute_points, _permute_axes, _rescale]


@pytest.mark.parametrize("relation", BRACKET_RELATIONS, ids=[f.__name__.strip("_") for f in BRACKET_RELATIONS])
def test_metamorphic_relations_keep_the_bracket(relation):
    """A bracket at k = 4, 16 and 64 keeps its lo, hi and resolution under
    each relation, on seeded sets, 200-point preset prefixes and the 233
    points of hammersley-lattice in d = 3: 24 brackets, 7 of them finished.
    Duplication is left out: it doubles the slab points a finishing bracket
    counts against its lattice, so it may change whether a bracket
    finishes (it does for one of these 24), though both results contain D*."""
    rng = random.Random(relation.__name__)
    sets = [p for name in ("ties-2d", "ties-3d", "wide-2d", "below-switch-2d") for p in case_sets(name, count=1)]
    sets += [stream(preset(name).spec, 0, 200) for name in ("op9-vdc-sqrt2", "halton-2-3", "c1-counterexample")]
    sets.append(stream(preset("hammersley-lattice").spec, 0, 233))
    for points in sets:
        moved = relation(points, rng)
        for k in (4, 16, 64):
            r, s = star_disc_bracket(points, k), star_disc_bracket(moved, k)
            assert (s.lo, s.hi, s.resolution) == (r.lo, r.hi, r.resolution)
