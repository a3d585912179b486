"""An independent mid-size reference for the star discrepancy, and
metamorphic relations the exact kernels must keep.

``brute_force_oracle`` stops at N = 8.  The reference here counts the
closed and open boxes at every critical corner with an einsum of per-axis
0/1 indicator matrices and takes the maximum in Python ints: no ranks, no
prefix sums and no floats, so it shares no code with ``_star_kernel``.
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
from lowdisc.generators import EXACT, Columns, int_column, int_list, stream


def reference_star(columns, scales) -> Fraction:
    """D* of the points ``columns[j][i] / scales[j]``: the maximum over every
    corner (each axis's distinct values plus its scale) of ``N V - open S``
    and ``closed S - N V``, over ``N S``, where V is the product of the
    corner's integer coordinates and S that of the scales."""
    n, d = len(columns[0]), len(columns)
    closed, open_, corners = [], [], []
    for col, scale in zip(columns, scales):
        xs = np.array(int_list(col), dtype=object)
        cs = np.array(sorted(set(xs.tolist())) + [scale], dtype=object)
        closed.append((xs[None, :] <= cs[:, None]).astype(np.int64))
        open_.append((xs[None, :] < cs[:, None]).astype(np.int64))
        corners.append(cs)
    axes = "abcdefgh"[:d]
    subscripts = ",".join(a + "p" for a in axes) + "->" + axes
    c_closed = np.einsum(subscripts, *closed).astype(object)
    c_open = np.einsum(subscripts, *open_).astype(object)
    nvol = n * reduce(np.multiply.outer, corners)
    s = math.prod(scales)
    return Fraction(max((nvol - c_open * s).max(), (c_closed * s - nvol).max()), n * s)


def exact_columns(values, scales) -> Columns:
    """Exact columns of per-axis value lists over ``scales``."""
    return Columns(tuple(int_column(v, s) for v, s in zip(values, scales)), tuple(scales), EXACT)


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


@pytest.mark.parametrize("name", CASES)
def test_brackets_contain_the_reference(name):
    for points in case_sets(name, count=2):
        want = reference_star(points.columns, points.scales)
        for k in (2, 5, 16):
            r = star_disc_bracket(points, k)
            assert r.lo <= want <= r.hi


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
    sets.append(stream(preset("op9-vdc-sqrt2").spec, 0, 200))
    for points in sets:
        want = reference_star(points.columns, points.scales)
        assert star_disc_exact(points).value == want
        assert star_disc_exact(relation(points, rng)).value == want
