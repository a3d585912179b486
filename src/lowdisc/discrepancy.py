"""Exact and bracketed discrepancy of finite point sets in [0, 1)^d.

Box convention:  the supremum defining the (star) discrepancy ranges over
half-open boxes, and it need not be attained.  Every exact algorithm here
therefore evaluates candidate corners twice, once with strict counting
(the box [0, b) itself) and once with closed counting (the limit of boxes
shrinking onto b from above); the maximum over both is the exact supremum.
This double count is the single most delicate correctness decision in the
package and is pinned by :func:`brute_force_oracle`.

Star discrepancy, exact or bracketed, in any dimension runs on one kernel
(``_star_kernel``); :func:`star_disc_exact`, :func:`star_disc_2d_sweep`
and :func:`star_disc_bracket` differ only in the corner grid they hand it.

* Rank compression: each axis keeps only its candidate corner values (the
  distinct coordinates plus 1, or the lattice i/k of a bracket), and each
  point becomes two indices per axis, the first corner at or above it
  (closed counting) and the last corner at or below it (strict counting);
  a bracket finds them by binary search, forming no per-point products.
* Blocked prefix sums: the counts at every corner are prefix sums of a
  histogram over rank space (Dobkin, Eppstein and Mitchell, ACM TOG 15(4),
  1996), summed one block of axis-0 rows at a time with a copy of the last
  row carried over, so besides O(N d) index words memory holds one block.
  A block is summed densely (a histogram, then one cumsum per axis) or, on
  grids with few points per row, built row by row: a copy of the row before
  plus 1 on each of its points' suffix boxes.  The way is chosen once per
  call by an exact count of the cells each touches, with a measured cost
  per point and per call (``_sums_by_suffix``).
* Float filter, exact recheck: a block is evaluated in float64 under an
  error bound E derived beside the code, and its cells within 2E of the
  float maximum so far are rechecked at once in integer arithmetic, keeping
  only the exact maximum (the filter-then-exact pattern of Shewchuk, DCG 18,
  1997).  Floats prune; no floating point decides a maximum.

A bracket request may come back exact.  The kernel on the lattice corners
gives the lattice maximum ``lo``.  No corner inside a cell ``(a/k, b/k]``,
b = a + 1, exceeds ``max(vol(b) - closed(a)/N, closed(b)/N - vol(a))``
(Thiemard, J. Complexity 17, 2001), so only the cells whose bound can
reach ``lo`` hold critical corners that may beat it.  One pass over the
lattice's closed prefix counts finds them and evaluates them, on the same
float filter and exact recheck.  If they and the points of the cells'
slabs number at most (k + 1)^d, it returns the exact value.  Otherwise
``hi`` is the largest cell bound, which is the kernel once more with every
closed lattice index one less, and is tighter than ``lo`` plus d/k.

The extreme kind in d >= 2 (:func:`extreme_disc_grid`) runs the same
filter and recheck over every lower/upper corner pair, counting each box by
2^d-term inclusion-exclusion over one closed prefix-count array.

Every algorithm reads a :class:`~lowdisc.generators.Columns` batch: integer
columns over per-axis scales, each an int64 array when its scale is at most
2^63 and a list of Python ints above.  A generated
:class:`~lowdisc.generators.PointSet` or a read-back point file is one
already; rows of ``Fraction``-like values are converted once, as exact
columns.  The 1D kinds use exact closed forms on the numerators sorted as
Python ints, and load no numpy for list columns.  The kernels in d >= 2 turn
a list column into an object array where they index it: the exact kernels
once, in ``_critical_grid``; a bracket once in ``_lattice_indices``, and a
bracket that finishes cells again, for the points' ranks, in
``_finish_bracket``.

Results say what they certify.  Each is an enclosure ``[lo, hi]``: one
point when exact, at most d/k wide when bracketed at resolution k.  Its
``represented`` flag is set, by the batch's representation tag alone, for
fixed-point or coerced points (fixed-point carriers, hybrids that coerced a
half, point files written in fixed point or decimals), whose enclosure holds
for the represented points.  The reported mode follows from the two:
``exact``, ``exact-represented`` or ``bracketed``.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import TYPE_CHECKING

from .algebra import int_array
from .errors import BudgetError, ValidationError
from .generators import EXACT, Columns
from .pointio import format_coordinate

if TYPE_CHECKING:  # numpy is imported inside the functions that build arrays
    import numpy as np

__all__ = [
    "DiscrepancyResult",
    "brute_force_oracle",
    "check_request",
    "compute_discrepancy",
    "extreme_disc_1d",
    "extreme_disc_grid",
    "star_disc_1d",
    "star_disc_2d_sweep",
    "star_disc_bracket",
    "star_disc_exact",
]

# Work is counted in cells of the grid a kernel visits: corners of the
# critical grid, corner pairs of the extreme grid, lattice corners of a
# bracket.  ``auto`` runs the star kind exact while the product of its
# axes' distinct coordinate counts is at most AUTO_EXACT_CAP, and brackets
# at a resolution whose lattice fits it.
DEFAULT_WORK_BUDGET = 10**8
AUTO_EXACT_CAP = 10**7

# The algorithms compute_discrepancy routes to, and its bracket resolution.
ALGORITHMS = ("auto", "1d", "2d", "grid", "bracket")
DEFAULT_BRACKET_K = 512


def _check_cells(grid: str, cells: int, budget: int) -> None:
    """Refuse a grid of more than ``budget`` cells before anything is built."""
    if cells > budget:
        raise BudgetError(f"{grid} has {cells} cells, beyond the budget of {budget}")


@dataclass(frozen=True)
class DiscrepancyResult:
    """A certified enclosure ``lo <= D <= hi``: exact, with ``lo == hi``, when
    ``resolution`` is None, else a bracket at most ``dim / resolution`` wide.
    ``represented`` marks fixed-point or coerced points, for which it holds as
    represented.  ``mode`` and ``value`` derive from these fields."""

    kind: str  # "star" | "extreme"
    n: int
    dim: int
    lo: Fraction
    hi: Fraction
    resolution: int | None = None
    represented: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("star", "extreme"):
            raise ValidationError(f"unknown discrepancy kind {self.kind!r}")
        width = 0 if self.resolution is None else Fraction(self.dim, self.resolution)
        if not 0 <= self.lo <= self.hi <= 1 or self.hi - self.lo > width:
            raise ValidationError(f"[{self.lo}, {self.hi}] is no enclosure in [0, 1] of width at most {width}")

    @property
    def mode(self) -> str:
        if self.resolution is not None:
            return "bracketed"
        return "exact-represented" if self.represented else "exact"

    @property
    def value(self) -> Fraction | None:  # None for a bracket
        return self.lo if self.resolution is None else None

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def half_width(self) -> Fraction:
        return (self.hi - self.lo) / 2

    def to_json(self, decimal: int | None = None) -> str:
        ends = [format_coordinate(v, decimal) for v in (self.lo, self.hi)]
        return json.dumps({"kind": self.kind, "mode": self.mode, "N": self.n, "d": self.dim,
                           "value": ends[0] if self.resolution is None else ends,
                           "resolution": self.resolution}, sort_keys=True)


# ---------------------------------------------------------------------------
# Input normalization
# ---------------------------------------------------------------------------


def _as_columns(points) -> Columns:
    """A :class:`Columns` as it is; rows of anything ``Fraction`` accepts as
    exact columns, each axis over the lcm of its denominators."""
    if isinstance(points, Columns):
        return points
    rows = [tuple(map(Fraction, row)) for row in points]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError("points of mixed dimension")
    axes = (([c.numerator for c in axis], [c.denominator for c in axis]) for axis in zip(*rows))
    return Columns.from_ratios(axes, EXACT)


def _normalize(points) -> tuple[tuple, tuple[int, ...], bool]:
    """Integer columns, per-axis scales and whether the points are
    represented, after a range check: coordinate j of point i is
    ``columns[j][i] / scales[j]``.  This is the one place a representation
    tag is read: any tag but an exact, uncoerced one marks them represented."""
    batch = _as_columns(points)
    if batch.count == 0:
        raise ValidationError("empty point set")
    for col, scale in zip(batch.columns, batch.scales):
        lo, hi = (min(col), max(col)) if isinstance(col, list) else (int(col.min()), int(col.max()))
        if lo < 0 or hi >= scale:
            raise ValidationError(f"coordinate {Fraction(lo if lo < 0 else hi, scale)} outside [0, 1)")
    return batch.columns, batch.scales, batch.tag != EXACT


# ---------------------------------------------------------------------------
# One-dimensional closed forms
# ---------------------------------------------------------------------------


def _sorted_1d(points, name: str) -> tuple[list[int], int, bool]:
    """The numerators of one-dimensional points sorted as Python ints, their
    scale and ``represented`` flag.  A list column is sorted by ``sorted``, which
    loads no numpy; an array by ``np.sort``, ten times faster on 2^16 int64 values."""
    columns, scales, represented = _normalize(points)
    if len(columns) != 1:
        raise ValidationError(f"{name} needs one-dimensional points")
    col = columns[0]
    if isinstance(col, list):
        return sorted(col), scales[0], represented
    import numpy as np

    return np.sort(col).tolist(), scales[0], represented


def star_disc_1d(points) -> DiscrepancyResult:
    """Exact star discrepancy in dimension 1,
    ``1/(2N) + max_i |x_(i) - (2i-1)/(2N)|``, in integers: with sorted
    numerators a_i over the scale S it is
    ``(S + max_i |2N a_i - (2i-1) S|) / (2NS)``."""
    xs, s, represented = _sorted_1d(points, "star_disc_1d")
    n = len(xs)
    best = max(abs(2 * n * a - (2 * i - 1) * s) for i, a in enumerate(xs, start=1))
    value = Fraction(s + best, 2 * n * s)
    return DiscrepancyResult("star", n, 1, value, value, represented=represented)


def extreme_disc_1d(points) -> DiscrepancyResult:
    """Exact extreme discrepancy in dimension 1,
    ``1/N + max_i (i/N - x_(i)) - min_i (i/N - x_(i))``, in integers:
    ``(S + max_i (iS - N a_i) - min_i (iS - N a_i)) / (NS)``."""
    xs, s, represented = _sorted_1d(points, "extreme_disc_1d")
    n = len(xs)
    diffs = [i * s - n * a for i, a in enumerate(xs, start=1)]
    value = Fraction(s + max(diffs) - min(diffs), n * s)
    return DiscrepancyResult("extreme", n, 1, value, value, represented=represented)


# ---------------------------------------------------------------------------
# Rank-space star kernel
# ---------------------------------------------------------------------------

# Cells per block of the kernel.  Per process (ru_maxrss, x86-64, 2 vCPUs),
# 2^14 ran `disc` of 7,776 C1 points in 32.0 MB against 34.8 MB at 2^16, and
# kernel times from 2^13 to 2^16 were within noise of each other.  A block
# holds at least one axis-0 row.
_BLOCK_CELLS = 1 << 14

# A finishing bracket evaluates its queue once it holds over _QUEUED_CELLS cells
# (2^13 traced 2.6 MB, not 1.9, on 2,048 Halton(2,3) points at k=1024; 2^11 had
# op9 N=4096 evaluate 3,122 cells, then give up), in batches of _CORNER_BATCH
# corners and slab points or one cell, each holding ~30 arrays of that length.
_QUEUED_CELLS = 1 << 12
_CORNER_BATCH = 1 << 12


# A block is summed one of two ways, chosen once per call by _sums_by_suffix
# from a count of the work in cells, each about 2 ns of a dense pass (x86-64,
# 2 vCPUs, numpy 2.4: 1.95-2.6 ns over 2D to 4D grids of 10^5 to 4.2 x 10^6
# cells).  The suffix way costs, besides its row copies and suffix boxes,
# 3-4 us per point for the numpy calls of its Python loop and 8 us per call
# for the count itself: _SUFFIX_POINT_CELLS and _SUFFIX_CALL_CELLS in cells.
# Over the 327 calls of the presets, the benchmark's commands, d = 3 sweeps
# and brackets and 2D brackets up to k = 4096 (1.07 s when each call took the
# faster way), a point cost of 750 to 1,000 cells lost at most 0.3 ms.
_SUFFIX_POINT_CELLS = 1000
_SUFFIX_CALL_CELLS = 4000


def _sums_by_suffix(index, shape) -> bool:
    """Whether :func:`_prefix_counts` builds its rows by suffix increments:
    whether ``rows * row_cells + sum_p prod_{j >= 1} (m_j - index_pj)``
    (m_j = ``shape[j]``), the row copies and the suffix box of every point, plus
    ``_SUFFIX_CALL_CELLS + N * _SUFFIX_POINT_CELLS`` is below the dense
    way's ``(d + 1) * rows * row_cells``.  The count over the points is made
    only when the rest alone stays below."""
    import numpy as np

    n, d = index.shape
    cells = shape[0] * math.prod(m + 1 for m in shape[1:])
    fixed = cells + _SUFFIX_CALL_CELLS + n * _SUFFIX_POINT_CELLS
    if fixed >= (d + 1) * cells:
        return False
    boxes = int(np.subtract(shape[1:], index[:, 1:]).prod(axis=1).sum())  # a box fits a row: no overflow
    return fixed + boxes < (d + 1) * cells


def _prefix_counts(index, shape):
    """Yield ``(r0, block)`` for consecutive runs of axis-0 rows of the grid.

    ``block[a, b, ...]`` is the number of points whose index is at most
    ``(r0 + a - 1, b - 1, ...)`` on every axis, so index -1 reads 0 and
    ``block[0]`` repeats the last row of the previous block: a histogram over
    rank space, summed one block at a time with the last row carried over.

    A block is summed densely, as a histogram of its points (a ``bincount``)
    prefix-summed by one ``cumsum`` per axis, or, when :func:`_sums_by_suffix`
    finds it cheaper, built row by row: each row a copy of the row before
    it, plus 1 on the suffix box ``row[y:, z:, ...]`` (padded indices) of
    each of its points.  Both yield the same blocks; the suffix way pays
    for a point's whole box, so it serves grids with few points per row.
    """
    import numpy as np

    padded = tuple(m + 1 for m in shape)
    row = padded[1:]
    row_cells = math.prod(row)
    step = max(1, _BLOCK_CELLS // row_cells)
    flat = np.sort(np.ravel_multi_index(tuple((index + 1).T), padded))
    suffix = _sums_by_suffix(index, shape)
    carry = np.zeros(row, dtype=np.int64)
    for r0 in range(0, shape[0], step):
        r1 = min(r0 + step, shape[0])
        lo, hi = np.searchsorted(flat, ((r0 + 1) * row_cells, (r1 + 1) * row_cells))
        if suffix:
            block = np.empty((r1 - r0 + 1,) + row, dtype=np.int64)
            block[0] = carry
            built = 0
            at = np.unravel_index(flat[lo:hi] - r0 * row_cells, block.shape)
            for i, *box in zip(*(a.tolist() for a in at)):
                if i > built:
                    block[built + 1:i + 1] = block[built]
                    built = i
                block[(i, *(slice(y, None) for y in box))] += 1
            block[built + 1:] = block[built]
        else:
            block = np.bincount(flat[lo:hi] - r0 * row_cells, minlength=(r1 - r0 + 1) * row_cells)
            block = block.reshape((r1 - r0 + 1,) + row)
            for axis in range(1, len(padded)):
                np.cumsum(block[1:], axis=axis, out=block[1:])
            block[0] = carry
            # numpy's cumsum along axis 0 is slow on long rows: adding them one by one took 0.89-0.95
            # of its time on 2D k = 512 lattices of 4,096-46,656 points, 0.71-0.75 at k = 1024 (x86-64)
            if row_cells >= 512:
                for i in range(1, len(block)):
                    block[i] += block[i - 1]
            else:  # rows loop slower than the cumsum below about 300 cells (x86-64)
                np.cumsum(block, axis=0, out=block)
        carry = block[-1].copy()  # a view would keep the whole block alive
        yield r0, block


class _ExactMax:
    """Exact maximum of ``max(vol - open/N, closed/N - vol)`` over cells
    handed in batch by batch.

    Cell ``(i_0, ..., i_{d-1})`` has volume ``prod_j extents[j][i_j] / scales[j]``
    (each extent an integer in ``[0, scales[j]]``); a batch names its cells
    by per-axis index arrays that broadcast together.

    Floats only prune.  Both sides are evaluated scaled by N in float64.
    ``N vol`` costs d correctly rounded quotients ``e_j / s_j`` (the first
    one ``N e_0 / s_0``) and d - 1 products; counts below 2^53 are exact; one
    subtraction of terms in [0, N(1 + (2d - 1)u)] follows.  So a side is off
    by at most ``N (2d u + O(d^2 u^2)) < E = (2d + 1) u N``, ``u = 2^-53``
    (gradual underflow adds at most 2^-1074 per operation).  A cell whose
    float value is below ``F - 2E``, F the float maximum so far, is therefore
    below the cell that attains the true maximum; the spare ``2uN`` in 2E
    covers the rounding of ``F - 2E`` itself.  Each batch's other cells are
    rechecked at once in integer arithmetic from the exact extents and int64
    counts, so only an exact maximum is carried forward, however many tie.
    """

    def __init__(self, extents, scales, n: int) -> None:
        import numpy as np

        d = len(extents)
        self.n, self.total = n, math.prod(scales)
        self.axes = [np.array([e * w / s for e in es]) for es, s, w in zip(extents, scales, (n,) + (1,) * d)]
        self.extents = [int_array(es, n * self.total + 1) for es in extents]
        self.slack = (4 * d + 2) * 2.0**-53 * n  # 2E
        self.best, self.exact = -math.inf, 0

    def nvol(self, index):
        """``N vol`` in float64 at the cells ``index``."""
        return reduce(operator.mul, (a[i] for a, i in zip(self.axes, index)))

    @cached_property
    def _row(self):
        """The index and ``N vol`` factor of one axis-0 row: the product of the other axes."""
        import numpy as np

        rest = np.ix_(np.arange(1), *(np.arange(len(a)) for a in self.axes[1:]))[1:]
        return rest, reduce(np.multiply.outer, self.axes[1:], np.ones(()))

    def grid(self, rows: slice):
        """The index of the cells in the axis-0 ``rows`` of the grid, and their ``N vol``."""
        import numpy as np

        rest, row = self._row
        index = (np.arange(len(self.axes[0]))[rows].reshape((-1,) + (1,) * len(rest)),) + rest
        return index, np.multiply.outer(self.axes[0][rows], row)

    def add(self, index, nvol, c_open, c_closed) -> None:
        """Take in both sides of the cells ``index``, of float ``N vol``
        ``nvol``, from their open and closed counts."""
        import numpy as np

        for sign, count in ((1, c_open), (-1, c_closed)):
            value = nvol - count if sign == 1 else count - nvol
            top = float(value.max())
            if top >= self.best - self.slack:
                self.best = max(self.best, top)
                hit = np.unravel_index(np.flatnonzero(value >= self.best - self.slack), value.shape)
                cell = (np.broadcast_to(i, value.shape)[hit] for i in index)
                lam = reduce(np.multiply, (e[c] for e, c in zip(self.extents, cell)), self.n)
                counts = count[hit].astype(self.extents[0].dtype)
                self.exact = max(self.exact, int((sign * (lam - counts * self.total)).max()))
                del hit, lam, counts  # so that none is alive through the other side

    @property
    def value(self) -> Fraction:
        return Fraction(self.exact, self.n * self.total)


def _star_kernel(corners, scales, closed, lower) -> Fraction:
    """Exact maximum over the corner grid of ``max(vol - open/N, closed/N - vol)``.

    ``corners[j]`` lists the sorted corner values of axis j as integers in
    units of ``1/scales[j]``.  ``closed[p, j]`` is the index of the first
    corner of axis j with ``x_pj <= corner``, ``lower[p, j]`` that of the last
    with ``corner <= x_pj`` (-1 if none).  A point is in the closed (open) box
    of corner i when its closed index is at most i (lower index below i) on
    every axis: the open count at corner i is the lower count at i - 1, both
    read from the padded blocks of :func:`_prefix_counts`.
    """
    d, shape = len(corners), tuple(len(c) for c in corners)
    best = _ExactMax(corners, scales, closed.shape[0])
    counts = _prefix_counts(closed, shape)
    if lower is closed:  # critical grids: one histogram serves both
        hists = ((r0, h, h) for r0, h in counts)
    else:
        hists = ((r0, h, g) for (r0, h), (_, g) in zip(counts, _prefix_counts(lower, shape)))
    for r0, h, g in hists:
        best.add(*best.grid(slice(r0, r0 + len(h) - 1)), g[(slice(-1),) * d], h[(slice(1, None),) * d])
    return best.value


# ---------------------------------------------------------------------------
# Exact star discrepancy (critical grid)
# ---------------------------------------------------------------------------


def _critical_grid(columns, scales) -> tuple[list[list[int]], np.ndarray]:
    """Corners are each axis's distinct values plus the scale; a point's
    closed index is its rank among them (its open index is that plus one)."""
    import numpy as np

    corners, closed = [], []
    for col, scale in zip(columns, scales):
        values, rank = np.unique(int_array(col, scale), return_inverse=True)
        corners.append(values.tolist() + [scale])
        closed.append(rank)
    return corners, np.stack(closed, axis=1).astype(np.int64)


def _exact_star(columns, scales, represented: bool, work_budget: int) -> DiscrepancyResult:
    corners, closed = _critical_grid(columns, scales)
    _check_cells("critical grid", math.prod(len(c) for c in corners), work_budget)
    value = _star_kernel(corners, scales, closed, closed)
    return DiscrepancyResult("star", len(columns[0]), len(columns), value, value, represented=represented)


def star_disc_exact(points, *, work_budget: int = DEFAULT_WORK_BUDGET) -> DiscrepancyResult:
    """Exact star discrepancy over the critical corner grid.

    Candidate upper corners run over the per-axis coordinate values plus 1;
    each corner is evaluated with strict and closed counting.  A grid of
    more than ``work_budget`` corners is refused.
    """
    return _exact_star(*_normalize(points), work_budget)


def star_disc_2d_sweep(points, *, work_budget: int = DEFAULT_WORK_BUDGET) -> DiscrepancyResult:
    """Exact 2D star discrepancy: :func:`star_disc_exact` restricted to
    two-dimensional points."""
    columns, scales, represented = _normalize(points)
    if len(columns) != 2:
        raise ValidationError("star_disc_2d_sweep needs two-dimensional points")
    return _exact_star(columns, scales, represented, work_budget)


# ---------------------------------------------------------------------------
# Exact extreme discrepancy (corner pairs)
# ---------------------------------------------------------------------------


def _box_counts(prefix, bounds) -> np.ndarray:
    """Points in every product box, by 2^d-term inclusion-exclusion.

    ``prefix`` is a padded closed prefix-count array; ``bounds[j] = (hi, lo)``
    are index arrays into its axis j, and the count of a box is the sum over
    every choice of hi or lo per axis of its prefix entry, negated once per
    lo.  Boxes span the outer product of the bounds' entries.
    """
    import numpy as np

    total = 0
    for choice in itertools.product((0, 1), repeat=len(bounds)):
        term = prefix[np.ix_(*(b[c] for b, c in zip(bounds, choice)))]
        total = total - term if sum(choice) % 2 else total + term
    return total


def extreme_disc_grid(points, *, work_budget: int = DEFAULT_WORK_BUDGET) -> DiscrepancyResult:
    """Exact extreme discrepancy over lower/upper corner pairs.

    Lower corners run over the per-axis coordinate values plus 0, upper
    corners over the values plus 1; each box is evaluated with open and
    closed counting.  The pair grid is squared relative to the star case, so
    this is only affordable for small sets; a grid of more than
    ``work_budget`` pairs is refused.

    On the critical grid (corners ``c_0 < c_1 < ...`` of an axis), the
    count of ``x < c_i`` is the count of ``x <= c_{i-1}``, so one closed
    prefix-count array gives both: the closed box ``[c_l, c_u]`` spans
    prefix entries ``u`` and ``l - 1`` of each axis, the open box
    ``(c_l, c_u)`` entries ``u - 1`` and ``l`` (none when ``u = l``).
    """
    import numpy as np

    columns, scales, represented = _normalize(points)
    n, d = len(columns[0]), len(columns)
    corners, closed = _critical_grid(columns, scales)
    starts = []  # index of the first upper corner per axis
    for j, cs in enumerate(corners):
        starts.append(int(cs[0] != 0))  # 0 is a lower corner only, unless a point sits there
        if starts[j]:
            cs.insert(0, 0)
            closed[:, j] += 1
    # lower l < m - 1, upper u >= s, l <= u: all (l, u) less those with s <= u < l <= m - 2
    pair_count = math.prod((len(cs) - 1) * (len(cs) - s) - math.comb(len(cs) - 1 - s, 2)
                           for cs, s in zip(corners, starts))
    _check_cells("corner-pair grid", pair_count, work_budget)
    extents, closed_bounds, open_bounds = [], [], []
    for cs, s in zip(corners, starts):
        lo, up = np.triu_indices(len(cs))
        keep = (lo < len(cs) - 1) & (up >= s)
        lo, up = lo[keep], up[keep]
        extents.append([cs[u] - cs[l] for l, u in zip(lo.tolist(), up.tolist())])
        # padded prefix index i + 1 holds the count at corner i
        closed_bounds.append((up + 1, lo))
        open_bounds.append((np.maximum(up, lo + 1), lo + 1))
    shape = tuple(len(c) for c in corners)
    prefix = np.concatenate([h if r0 == 0 else h[1:] for r0, h in _prefix_counts(closed, shape)])
    step = max(1, _BLOCK_CELLS // math.prod(len(e) for e in extents[1:]))

    best = _ExactMax(extents, scales, n)
    for r0 in range(0, len(extents[0]), step):
        rows = slice(r0, r0 + step)
        c_open, c_closed = (
            _box_counts(prefix, [tuple(b[rows] for b in bounds[0]), *bounds[1:]])
            for bounds in (open_bounds, closed_bounds)
        )
        best.add(*best.grid(rows), c_open, c_closed)
    value = best.value
    return DiscrepancyResult("extreme", n, d, value, value, represented=represented)


# ---------------------------------------------------------------------------
# Bracketed star discrepancy on a uniform corner lattice
# ---------------------------------------------------------------------------


def _lattice_indices(columns, scales, k: int, lines):
    """The closed and lower index of every point on the lattice {0..k}/k,
    ceil(ak/s) and floor(ak/s) for a numerator a over the scale s.

    Corner i/k is at or above a/s iff a <= floor(is/k), the entry i < k of
    the axis's ``lines``, so the closed index counts the lines below a: a
    search in rank space, which forms no per-point products.  The lower
    index is one less unless a = ceil(is/k).
    """
    import numpy as np

    n, d = len(columns[0]), len(columns)
    closed, lower = np.empty((n, d), dtype=np.int64), np.empty((n, d), dtype=np.int64)
    for j, (col, s, edges) in enumerate(zip(columns, scales, lines)):
        col = int_array(col, s)
        closed[:, j] = np.searchsorted(edges, col)
        ceil = int_array([-(-i * s // k) for i in range(k + 1)], s + 1)
        lower[:, j] = closed[:, j] - (ceil[closed[:, j]] != col)
    return closed, lower


def _distinct(col, scale: int):
    """The sorted distinct values of a column, as an array: of a list column
    by sorting its set of Python ints (four times faster than ``np.unique``
    on objects), else by a sort (ten times faster than numpy 2's hashing
    ``np.unique`` on 46,656 int64 values)."""
    import numpy as np

    if isinstance(col, list):
        return int_array(sorted(set(col)), scale)
    values = np.sort(col)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _distinct_count(col) -> int:
    """The number of distinct values in a column; of a list column by its set, which sorts no Python ints."""
    return len(set(col)) if isinstance(col, list) else len(_distinct(col, 0))  # the scale serves lists only


def _finish_bracket(columns, scales, closed, k: int, lines, lo: Fraction):
    """The exact maximum over the critical corners inside the lattice cells
    where a side may exceed the lattice maximum ``lo``; or None when that
    costs more than the lattice: when the cells' corners and the points of
    their slabs number more than (k + 1)^d.  It sums the lattice's closed
    prefix counts block by block, and takes the cells of a block where the
    float bound of a side, ``N vol(a + 1) - closed(a)`` or
    ``closed(a + 1) - N vol(a)``, reaches ``cutoff``, ``N lo`` less 2E (E
    the error bound of :class:`_ExactMax`); it stops the pass when it gives
    up.  Each block's slab points are counted before its corners, and a
    block with no such cell is skipped first, so that a bracket whose slabs
    alone exceed the lattice sorts no column to find the corners.  The
    cells with a corner on every axis are queued with ``closed(a)`` and
    ``closed(a + 1)``, and the queue is evaluated whenever it holds more
    than ``_QUEUED_CELLS`` cells, and once at the end; a bracket that gives
    up drops what it evaluated.

    On axis j the cell ``(a_j/k, (a_j + 1)/k]`` holds the distinct
    coordinates in it, and the last cell the scale too.  A corner c in cell
    a counts the points of ``closed(a)``, which all lie below c, and those
    points of the cell's shell (within a + 1 on every axis but not within a)
    that lie below c.  The shell is drawn from the cell's d slabs, the
    points with ``x_j`` in ``(a_j/k, (a_j + 1)/k]``.

    Each side bounds a box of the cell's corners.  The open side at c is at
    most ``N vol(c) - closed(a)``, so on each axis the corners that stay
    below ``cutoff`` with the cell's largest corners on the other axes are
    dropped from below; the closed side at c is at most
    ``closed(a + 1) - N vol(c)``, so corners are dropped from above against
    the smallest ones.  The thresholds carry a relative margin of 2^-40,
    far above the float error of a product of d quotients.  A side that
    cannot reach ``cutoff`` anywhere in the cell empties its box, and both
    sides are evaluated on every box that is left.

    Boxes are sorted by shape and evaluated in batches of at most
    ``_CORNER_BATCH`` padded corners and slab points, or of one box, each
    batch on one closed-count grid padded to its largest box, as
    :func:`_prefix_counts` pads a block: entry i + 1 on axis j counts the
    points at or below the box's corner i, entry 0 those below the box.
    Each shell point is entered at its own entry, one cumsum per axis sums
    the grid, and ``closed(a)`` is added; corner i reads its closed count
    at entry i + 1 and its open count at entry i.  A padded corner re-reads
    the box's last corner, with the closed count there as both counts,
    which can only under-estimate.  So a bracket evaluates at most twice
    the real corners and points it counts, two boxes per cell, plus the
    padding.
    """
    import numpy as np

    n, d = closed.shape
    line = [np.bincount(closed[:, j], minlength=k + 1) for j in range(d)]  # the points of each closed index
    held = [np.append(l[1:k] > 0, True) for l in line]  # per axis, the cells with a corner: a slab point or the scale
    rank = order = bucket = best = None  # the evaluator, built at the first evaluation

    def slabs(cells):  # the points in the slabs of each cell
        return sum(l[a + 1] for l, a in zip(line, cells.T))

    def box(cells, base, c_up, sign):  # each cell's first corner and corners per axis for one side
        start = np.stack([f[a] for f, a in zip(first, cells.T)], axis=1)
        stop = start + np.stack([c[a] for c, a in zip(count, cells.T)], axis=1)
        edge = np.stack([a[i] for a, i in zip(best.axes, (stop - 1 if sign == 1 else start).T)], axis=1)
        need = (cutoff + base) * (1 - 2.0**-40) if sign == 1 else (c_up - cutoff) * (1 + 2.0**-40)
        for j in range(d):
            limit = need / reduce(operator.mul, (edge[:, i] for i in range(d) if i != j), 1.0)
            at = np.searchsorted(best.axes[j], limit, side="left" if sign == 1 else "right")
            if sign == 1:
                start[:, j] = np.clip(at, start[:, j], stop[:, j])
            else:
                stop[:, j] = np.clip(at, start[:, j], stop[:, j])
        return start, stop - start

    def corner_counts(cells, base, start, shape):  # the boxes' corners, padded to one shape, and closed counts
        top = shape.max(axis=0)
        dims = (len(cells), *(top + 1))
        owners, points = [], []
        for j in range(d):  # each shell point once, on the first axis where it lies in (a_j, a_j + 1]
            lo, hi = bucket[j][cells[:, j] + 1], bucket[j][cells[:, j] + 2]
            t = np.repeat(np.arange(len(cells)), hi - lo)
            p = order[j][np.arange(len(t)) + np.repeat(lo - np.cumsum(hi - lo) + (hi - lo), hi - lo)]
            inside = (closed[p] <= cells[t] + 1).all(axis=1) & (closed[p, :j] <= cells[t, :j]).all(axis=1)
            owners.append(t[inside])
            points.append(p[inside])
        t, p = np.concatenate(owners), np.concatenate(points)
        at = np.maximum(rank[p] - start[t] + 1, 0)  # each point's entry, 0 below the box
        inside = (at <= shape[t]).all(axis=1)  # past the box on an axis: below no corner of it
        grid = np.bincount(np.ravel_multi_index((t[inside], *at[inside].T), dims), minlength=math.prod(dims))
        grid = grid.reshape(dims)
        for axis in range(1, d + 1):
            np.cumsum(grid, axis=axis, out=grid)
        index = tuple(np.minimum(s[:, None] + np.arange(m), s[:, None] + c[:, None] - 1)  # padding: the last corner
                      .reshape((-1,) + (1,) * j + (m,) + (1,) * (d - 1 - j))
                      for j, (s, c, m) in enumerate(zip(start.T, shape.T, top)))
        return index, grid + base.reshape((-1,) + (1,) * d)

    def evaluate(queue):
        nonlocal rank, order, bucket, best
        if best is None:
            rank = np.stack([np.searchsorted(v, int_array(c, s)) for v, c, s in zip(distinct, columns, scales)], axis=1)
            order = [np.argsort(closed[:, j], kind="stable") for j in range(d)]  # the points by closed lattice index
            bucket = [np.concatenate(([0], np.cumsum(l))) for l in line]  # where each closed index starts in order
            best = _ExactMax([v.tolist() + [s] for v, s in zip(distinct, scales)], scales, n)
        cells, base, c_up = (np.concatenate(x) for x in zip(*queue))
        start, shape = (np.concatenate(x) for x in zip(*(box(cells, base, c_up, sign) for sign in (1, -1))))
        keep = np.flatnonzero(shape.prod(axis=1) > 0)
        keep = keep[np.lexsort(shape[keep].T)]  # by box shape, the last axis first
        cells, base, start, shape = np.tile(cells, (2, 1))[keep], np.tile(base, 2)[keep], start[keep], shape[keep]
        slab = np.cumsum(slabs(cells))
        a = 0
        while a < len(cells):  # greedily, the most boxes whose padded corners and slab points fit a batch
            run = shape[a:a + _CORNER_BATCH]  # no more fit: each holds a corner
            size = np.arange(1, len(run) + 1) * np.maximum.accumulate(run, axis=0).prod(axis=1)
            size += slab[a:a + len(run)] - (slab[a - 1] if a else 0)
            b = a + max(1, int(np.searchsorted(size, _CORNER_BATCH, side="right")))
            index, counts = corner_counts(cells[a:b], base[a:b], start[a:b], shape[a:b])
            best.add(index, best.nvol(index), counts[(slice(None),) + (slice(-1),) * d],
                     counts[(slice(None),) + (slice(1, None),) * d])
            a = b

    on_lattice = _ExactMax([range(k + 1)] * d, [k] * d, n)
    cutoff = float(n * lo) - on_lattice.slack
    points = corners = 0.0  # in float64: exact below 2^53, and past it over budget anyway
    distinct, queue, queued = None, [], 0
    for r0, block in _prefix_counts(closed, (k + 1,) * d):
        pad = int(r0 == 0)  # block row i holds lattice row r0 - 1 + i
        row, end = r0 - 1 + pad, r0 + len(block) - 2  # the cells (a, a + 1] with a_0 in [row, end)
        nvol = on_lattice.grid(slice(row, end + 1))[1]
        c_low = block[(slice(pad, -1),) + (slice(1, -1),) * (d - 1)]
        c_up = block[(slice(pad + 1, None),) + (slice(2, None),) * (d - 1)]
        upper = nvol[(slice(1, None),) * d] - c_low >= cutoff  # N vol(a + 1) - closed(a)
        lower = c_up - nvol[(slice(-1),) * d] >= cutoff  # closed(a + 1) - N vol(a)
        hit = (upper | lower) & reduce(np.logical_and.outer, [held[0][row:end], *held[1:]])
        hit = np.unravel_index(np.flatnonzero(hit), hit.shape)
        found = np.stack(hit, axis=1), c_low[hit], c_up[hit]
        found[0][:, 0] += row
        del block, nvol, c_low, c_up, upper, lower, hit  # so that none is alive through the last evaluation
        if not len(found[0]):
            continue
        points += float(slabs(found[0]).sum())
        if points > (k + 1) ** d:
            return None
        if distinct is None:
            distinct = [_distinct(col, s) for col, s in zip(columns, scales)]
            first, count = [], []  # per axis and cell, the index of its first corner and how many it holds
            for values, lattice in zip(distinct, lines):
                # the corners within i/k, for i < k, then every corner, the scale in the last cell
                edges = np.append(np.searchsorted(values, lattice, side="right"), len(values) + 1)
                first.append(edges[:-1])
                count.append(np.diff(edges))
        corners += float(reduce(operator.mul, (c[a].astype(float) for c, a in zip(count, found[0].T))).sum())
        if points + corners > (k + 1) ** d:
            return None
        queue.append(found)
        queued += len(found[0])
        if queued > _QUEUED_CELLS:
            evaluate(queue)
            queue, queued = [], 0
    if queued:
        evaluate(queue)
    return Fraction(0) if best is None else best.value


def star_disc_bracket(points, k: int, *, work_budget: int = DEFAULT_WORK_BUDGET) -> DiscrepancyResult:
    """Enclose the star discrepancy on the corner lattice {0..k}^d / k, and
    finish it exact when that costs at most the lattice.

    ``lo`` is the exact maximum of the discrepancy function over the
    lattice.  Every corner c in (0, 1]^d lies in one cell ``(a/k, b/k]``,
    b = a + 1 on every axis, where its open side ``vol(c) - open(c)/N`` is
    at most ``vol(b) - closed(a)/N`` (the points within a lie strictly below
    c) and its closed side ``closed(c)/N - vol(c)`` at most
    ``closed(b)/N - vol(a)``: together the cell bound of Thiemard (J.
    Complexity 17, 2001).  A corner on an axis value 0 counts no more than a
    lattice corner of volume 0.  So D* is at most ``hi``, the larger of
    ``lo`` and the largest cell bound, and ``hi`` is at most ``lo + d/k``.

    A side of a cell whose float bound reaches ``lo`` less 2E (E the error
    bound of :class:`_ExactMax`) may exceed ``lo`` at a corner inside, and
    :func:`_finish_bracket` evaluates those cells in one pass over the
    lattice's closed prefix counts.  If their critical corners and the
    points of their slabs, from which each box draws its shell, number at
    most (k + 1)^d, the result is exact: the larger of ``lo`` and their
    maximum.  Otherwise it is the bracket ``[lo, hi]`` at resolution k,
    whatever was evaluated before the count ran over.  A lattice of more
    than ``work_budget`` corners, (k + 1)^d, is refused, so the budget
    bounds the finishing too.

    Both ends come from :func:`_star_kernel` on the lattice corners, by the
    float filter and exact recheck of :class:`_ExactMax`: ``lo`` from the
    closed and lower indices; ``hi``, for a bracket that stays open, from
    the closed indices less one (clipped at 0, since :func:`_prefix_counts`
    counts no index -1 on axis 0) as closed and the closed indices as lower.
    Its open side at corner a + 1 is then ``N vol(a + 1) - closed(a)`` and
    its closed side at corner a is ``closed(a + 1) - N vol(a)``.  A corner
    with index 0 on an axis has an open side of at most 0, and one with
    index k a closed side at most that of the corner one step in, so the
    kernel's maximum is the largest cell bound.
    """
    columns, scales, represented = _normalize(points)
    if k < 2:
        raise ValidationError("bracket resolution must be >= 2")
    n, d = len(columns[0]), len(columns)
    _check_cells("bracket lattice", (k + 1) ** d, work_budget)
    lines = [int_array([i * s // k for i in range(k)], s) for s in scales]  # x <= i/k iff x's numerator <= these
    closed, lower = _lattice_indices(columns, scales, k, lines)
    lattice = [range(k + 1)] * d
    lo = _star_kernel(lattice, [k] * d, closed, lower)
    finished = _finish_bracket(columns, scales, closed, k, lines, lo)
    if finished is not None:
        lo = hi = max(lo, finished)
    else:  # the largest cell bound: the kernel with every closed index one less, in lower's buffer
        import numpy as np

        np.maximum(np.subtract(closed, 1, out=lower), 0, out=lower)
        hi = max(lo, _star_kernel(lattice, [k] * d, lower, closed))
    return DiscrepancyResult("star", n, d, lo, hi, None if lo == hi else k, represented)


# ---------------------------------------------------------------------------
# Brute-force oracle (test reference, deliberately naive)
# ---------------------------------------------------------------------------


def brute_force_oracle(points, kind: str = "star") -> Fraction:
    """Exhaustive reference value for tiny point sets (N <= 8, d <= 3).

    Enumerates boxes whose corner coordinates come from the point
    coordinates, their immediate successors in the sorted coordinate list,
    and {0, 1}; every box is evaluated with both strict and closed counting,
    which provably attains the supremum for half-open boxes.  Pure Fraction
    arithmetic, no shared machinery with the production algorithms.
    """
    rows = points.rows() if isinstance(points, Columns) else [tuple(map(Fraction, r)) for r in points]
    if not rows or any(len(r) != len(rows[0]) or not all(0 <= c < 1 for c in r) for r in rows):
        raise ValidationError("oracle needs a nonempty set of points in [0, 1)^d")
    n, d = len(rows), len(rows[0])
    if n > 8 or d > 3:
        raise ValidationError(f"oracle size-rejected: N={n}, d={d} beyond N<=8, d<=3")
    if kind not in ("star", "extreme"):
        raise ValidationError(f"unknown discrepancy kind {kind!r}")
    one = Fraction(1)
    zero = Fraction(0)
    axis_cands = []
    for j in range(d):
        uniq = sorted(set(r[j] for r in rows))
        succ = uniq[1:] + [one]
        axis_cands.append(sorted(set(uniq) | set(succ) | {zero, one}))
    best = Fraction(0)
    if kind == "star":
        for corner in itertools.product(*axis_cands):
            lam = one
            for b in corner:
                lam *= b
            a_lt = sum(1 for p in rows if all(x < b for x, b in zip(p, corner)))
            a_le = sum(1 for p in rows if all(x <= b for x, b in zip(p, corner)))
            best = max(best, lam - Fraction(a_lt, n), Fraction(a_le, n) - lam)
        return best
    pairs = [
        [(lo, up) for lo in cands for up in cands if lo <= up] for cands in axis_cands
    ]
    for combo in itertools.product(*pairs):
        lam = one
        for lo, up in combo:
            lam *= up - lo
        a_oo = sum(
            1 for p in rows if all(lo < x < up for x, (lo, up) in zip(p, combo))
        )
        a_cc = sum(
            1 for p in rows if all(lo <= x <= up for x, (lo, up) in zip(p, combo))
        )
        best = max(best, lam - Fraction(a_oo, n), Fraction(a_cc, n) - lam)
    return best


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def check_request(dim: int, kind: str = "star", algo: str = "auto", k: int | None = None,
                  work_budget: int = DEFAULT_WORK_BUDGET) -> None:
    """Refuse, with :class:`~lowdisc.errors.ValidationError`, a request that
    :func:`compute_discrepancy` could not run as asked on ``dim``-dimensional
    points: an unknown kind or algorithm, a star-only algorithm for the
    extreme kind, ``1d`` or ``2d`` in another dimension, a work budget
    below 1, or a bracket resolution ``k`` that no bracket would use (for
    the extreme kind, an algorithm other than ``auto`` or ``bracket``, or
    ``auto`` in d = 1, where it runs a closed form) or that is below 2.
    ``k = None`` means ``DEFAULT_BRACKET_K``."""
    if kind not in ("star", "extreme"):
        raise ValidationError(f"unknown discrepancy kind {kind!r}")
    if algo not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algo!r}; available: {', '.join(ALGORITHMS)}")
    if kind == "extreme" and algo in ("2d", "bracket"):
        raise ValidationError(f"algo {algo!r} computes the star kind only; the extreme kind has no bracket")
    if algo in ("1d", "2d") and algo != f"{dim}d":
        raise ValidationError(f"algo {algo!r} needs {algo[0]}-dimensional points, got d = {dim}")
    if work_budget < 1:
        raise ValidationError(f"work budget must be >= 1, got {work_budget}")
    if k is None:
        return
    if kind == "extreme":
        raise ValidationError("k sets a bracket resolution; the extreme kind has no bracket")
    if algo not in ("auto", "bracket"):
        raise ValidationError(f"k sets a bracket resolution; algo {algo!r} runs no bracket")
    if algo == "auto" and dim == 1:
        raise ValidationError("k sets a bracket resolution; auto runs the exact closed form in d = 1"
                              " (algo 'bracket' brackets there)")
    if k < 2:
        raise ValidationError("bracket resolution must be >= 2")


def compute_discrepancy(points, kind: str = "star", algo: str = "auto", k: int | None = None, *,
                        work_budget: int = DEFAULT_WORK_BUDGET) -> DiscrepancyResult:
    """Route a point set to a discrepancy algorithm, once
    :func:`check_request` has accepted the request for its dimension.

    ``auto`` uses the 1D closed forms in d = 1.  In d >= 2 it runs the
    extreme kind, which has no bracket, on the corner-pair grid, and the
    star kind on the exact kernel while N^d, or else the product of each
    axis's count of distinct coordinates, is at most ``AUTO_EXACT_CAP``;
    beyond that it brackets the star kind at the largest resolution up to
    ``k`` (``DEFAULT_BRACKET_K`` when None) whose lattice of (k + 1)^d
    corners fits the same cap.  A bracket, chosen here or asked for with
    ``bracket``, comes back exact when the critical corners of its cells
    that can beat the lattice maximum, with the points of their slabs,
    number at most (k + 1)^d (see :func:`star_disc_bracket`); otherwise
    its ``hi`` is the largest cell bound, at most the lattice maximum plus
    d/k.  Every kernel, chosen or explicit, refuses a grid of more than
    ``work_budget`` cells with :class:`~lowdisc.errors.BudgetError` instead
    of degrading.
    """
    points = _as_columns(points)
    n, d = points.count, points.dim
    check_request(d, kind, algo, k, work_budget)
    if algo == "1d" or (algo == "auto" and d == 1):
        return (star_disc_1d if kind == "star" else extreme_disc_1d)(points)

    if kind == "extreme":
        return extreme_disc_grid(points, work_budget=work_budget)

    k = DEFAULT_BRACKET_K if k is None else k
    if algo == "auto":
        if n**d <= AUTO_EXACT_CAP or math.prod(map(_distinct_count, points.columns)) <= AUTO_EXACT_CAP:
            algo = "2d" if d == 2 else "grid"
        else:
            side = int(AUTO_EXACT_CAP ** (1 / d)) + 1
            while side**d > AUTO_EXACT_CAP:  # the largest lattice side whose side^d fits
                side -= 1
            algo, k = "bracket", min(k, max(side - 1, 2))
    if algo == "2d":
        return star_disc_2d_sweep(points, work_budget=work_budget)
    if algo == "grid":
        return star_disc_exact(points, work_budget=work_budget)
    return star_disc_bracket(points, k, work_budget=work_budget)
