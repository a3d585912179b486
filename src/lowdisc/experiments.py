"""Experiment harness: discrepancy scaling tables and generating-vector
scans.  The exponent fits of :mod:`lowdisc.fit` are re-exported here.

Schedules default to geometric growth in N because every comparison of
interest is against polylog(N)/N laws; linear schedules waste budget.
Bracketed rows feed fits through their interval midpoint, and the interval
half-width is kept on the row so downstream consumers can weigh it.

Everything is deterministic: sampling is seed-pinned, rows are emitted in
schedule order regardless of evaluation order, and rerunning a plan
reproduces its table byte for byte.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import GenMatrix, fixedpoint_sqrt
from .discrepancy import DEFAULT_WORK_BUDGET, DiscrepancyResult, compute_discrepancy
from .errors import BudgetError, LowdiscError, ValidationError
from .fit import FitResult, fit_exponent
from .generators import (
    Digital,
    DigitSumFiltered,
    Halton,
    Hammersley,
    Hybrid,
    Kronecker,
    Lattice,
    PointSet,
    PowerRatio,
    SequenceSpec,
    lattice_point_set,
    stream,
)
from .pointio import format_coordinate, parse_alpha

__all__ = [
    "ExperimentPlan",
    "FitResult",
    "LatticeScanSummary",
    "ScalingRow",
    "fit_exponent",
    "lattice_scan",
    "lattice_scan_csv",
    "ln_bounds",
    "preset",
    "preset_names",
    "run_scaling",
    "scaling_csv",
]


def ln_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Certified rational bounds lo <= ln(n) <= hi.

    The float log is correctly rounded to well under 2^-40 relative error,
    so widening it by that factor on both sides gives a sound enclosure for
    exact comparisons against log laws.
    """
    if n < 2:
        raise ValidationError("ln bounds only for n >= 2")
    approx = Fraction(math.log(n))
    pad = approx / (1 << 40)
    return approx - pad, approx + pad


# ---------------------------------------------------------------------------
# Scaling studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentPlan:
    spec: SequenceSpec
    schedule: tuple[int, ...]
    kind: str = "star"
    algo: str = "auto"
    bracket_k: int = 512
    norm_exponent: float = 1.0

    def __post_init__(self) -> None:
        if not self.schedule:
            raise ValidationError("schedule must not be empty")
        if any(n < 1 for n in self.schedule):
            raise ValidationError("schedule entries must be >= 1")
        if any(a >= b for a, b in zip(self.schedule, self.schedule[1:])):
            raise ValidationError("schedule must be strictly increasing")
        if self.norm_exponent < 0:
            raise ValidationError("normalization exponent must be >= 0")
        if self.kind not in ("star", "extreme"):
            raise ValidationError(f"unknown discrepancy kind {self.kind!r}")


@dataclass(frozen=True)
class ScalingRow:
    n: int
    result: DiscrepancyResult | None
    normalized: float | None
    error: str | None = None


def _resize(spec: SequenceSpec, n: int) -> SequenceSpec:
    """Rebuild finite families at point count n; infinite families pass through."""
    if isinstance(spec, Lattice):
        return Lattice(n, spec.gens)
    if isinstance(spec, Hammersley):
        return Hammersley(n, spec.bases)
    if isinstance(spec, Hybrid):
        left, right = _resize(spec.left, n), _resize(spec.right, n)
        return spec if left is spec.left and right is spec.right else Hybrid(left, right)
    if isinstance(spec, DigitSumFiltered):
        inner = _resize(spec.inner, n)
        return spec if inner is spec.inner else DigitSumFiltered(inner)
    return spec


def _prefix(plan: ExperimentPlan) -> PointSet | None:
    """The first max(schedule) points of an infinite family, which serve
    every row; None for finite families, or when generating them fails (each
    row then generates its own points and reports its own failure)."""
    n = plan.schedule[-1]
    if _resize(plan.spec, n) is not plan.spec:
        return None
    try:
        return stream(plan.spec, 0, n)
    except LowdiscError:
        return None


def run_scaling(plan: ExperimentPlan) -> list[ScalingRow]:
    """One row per schedule entry: the discrepancy of the first N points and
    the normalized column N * D / (ln N)^p.  Per-row failures are recorded
    on the row and the run continues."""
    prefix = _prefix(plan)
    rows: list[ScalingRow] = []
    for n in plan.schedule:
        try:
            points = stream(_resize(plan.spec, n), 0, n) if prefix is None else prefix.head(n)
            result = compute_discrepancy(points, kind=plan.kind, algo=plan.algo, k=plan.bracket_k)
        except LowdiscError as exc:
            rows.append(ScalingRow(n=n, result=None, normalized=None, error=str(exc)))
            continue
        normalized = None
        if n >= 2:
            normalized = n * float(result.midpoint) / math.log(n) ** plan.norm_exponent
        rows.append(ScalingRow(n=n, result=result, normalized=normalized))
    return rows


def scaling_csv(rows: list[ScalingRow], decimal: int | None = None) -> str:
    """Delimited table for a scaling run; exact values by default."""

    def num(v: Fraction | None) -> str:
        return "" if v is None else format_coordinate(v, decimal)

    lines = ["N,kind,mode,value,lo,hi,halfwidth,normalized,error"]
    for row in rows:
        if row.result is None:
            lines.append(f"{row.n},,,,,,,,{row.error}")
            continue
        r = row.result
        norm = "" if row.normalized is None else f"{row.normalized:.12g}"
        if r.mode == "bracketed":
            lines.append(
                f"{row.n},{r.kind},{r.mode},,{num(r.lo)},{num(r.hi)},{num(r.half_width)},{norm},"
            )
        else:
            lines.append(f"{row.n},{r.kind},{r.mode},{num(r.value)},,,{num(Fraction(0))},{norm},")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Lattice generating-vector scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeScanSummary:
    size: int
    dim: int
    vectors: int
    quantiles: tuple[tuple[int, Fraction], ...]  # (percent, value)
    min_vector: tuple[int, ...]
    min_value: Fraction
    max_vector: tuple[int, ...]
    max_value: Fraction


QUANTILE_PERCENTS = (1, 10, 50, 90, 99)

# Most generating vectors a lattice scan evaluates, in either mode.
MAX_SCAN_VECTORS = 200_000


def lattice_scan(
    size: int,
    dim: int,
    mode: str = "exhaustive",
    *,
    count: int | None = None,
    seed: int | None = None,
) -> LatticeScanSummary:
    """Distribution of the star discrepancy over lattice generating vectors.

    ``exhaustive`` walks all size^dim vectors; ``sample`` draws ``count``
    vectors from a seeded generator.  Before evaluating any, both refuse more
    than ``MAX_SCAN_VECTORS`` vectors, or grids of up to (size + 1)^dim corners
    each past ``DEFAULT_WORK_BUDGET`` in all.  Dimension 2 uses the exact
    sweep, dimension 3 the exact corner grid.
    """
    if size < 1:
        raise ValidationError("size must be >= 1")
    if dim not in (2, 3):
        raise ValidationError("lattice scans support dimensions 2 and 3")
    if mode == "sample":
        if count is None or seed is None:
            raise ValidationError("sample mode needs count and seed")
        if count < 1:
            raise ValidationError("sample count must be >= 1")
    elif mode != "exhaustive":
        raise ValidationError(f"unknown scan mode {mode!r}")
    total = size**dim if mode == "exhaustive" else count
    if total > MAX_SCAN_VECTORS:
        raise BudgetError(f"{total} vectors exceed the cap of {MAX_SCAN_VECTORS}")
    if total * (size + 1) ** dim > DEFAULT_WORK_BUDGET:
        raise BudgetError(f"{total} grids of up to {(size + 1) ** dim} cells exceed {DEFAULT_WORK_BUDGET}")
    if mode == "exhaustive":
        vectors = itertools.product(range(size), repeat=dim)
    else:
        rng = random.Random(f"lattice-scan:{size}:{dim}:{seed}")
        vectors = [tuple(rng.randrange(size) for _ in range(dim)) for _ in range(count)]

    algo = "2d" if dim == 2 else "grid"
    evaluated: list[tuple[Fraction, tuple[int, ...]]] = []
    for gens in vectors:
        points = lattice_point_set(size, gens)
        value = compute_discrepancy(points, algo=algo).value
        evaluated.append((value, gens))
    values = sorted(v for v, _ in evaluated)
    m = len(values)
    quantiles = tuple((p, values[(p * (m - 1)) // 100]) for p in QUANTILE_PERCENTS)
    min_value, min_vector = min(evaluated)
    max_value, max_vector = max(evaluated)
    return LatticeScanSummary(
        size=size,
        dim=dim,
        vectors=m,
        quantiles=quantiles,
        min_vector=min_vector,
        min_value=min_value,
        max_vector=max_vector,
        max_value=max_value,
    )


def lattice_scan_csv(summary: LatticeScanSummary) -> str:
    lines = ["statistic,value,vector"]
    lines.append(f"vectors,{summary.vectors},")
    lines.append(f"min,{summary.min_value},{'|'.join(map(str, summary.min_vector))}")
    for percent, value in summary.quantiles:
        lines.append(f"p{percent},{value},")
    lines.append(f"max,{summary.max_value},{'|'.join(map(str, summary.max_vector))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _geometric(base: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(base**j for j in range(lo, hi + 1))


def _preset_op9(alpha: str, width: int | None) -> ExperimentPlan:
    del alpha
    w = width or 192
    spec = Hybrid(Halton((2,)), Kronecker((fixedpoint_sqrt(2, w),)))
    return ExperimentPlan(spec=spec, schedule=_geometric(2, 4, 14), norm_exponent=2.0)


def _preset_op12(alpha: str, width: int | None) -> ExperimentPlan:
    w = width or 128
    spec = DigitSumFiltered(Kronecker((parse_alpha(alpha, w),)))
    return ExperimentPlan(spec=spec, schedule=_geometric(2, 4, 14), norm_exponent=1.0)


def _preset_halton23(alpha: str, width: int | None) -> ExperimentPlan:
    del alpha, width
    return ExperimentPlan(spec=Halton((2, 3)), schedule=_geometric(2, 4, 12), norm_exponent=2.0)


def _preset_c1(alpha: str, width: int | None) -> ExperimentPlan:
    del alpha, width
    spec = Hybrid(
        Digital(3, (GenMatrix.ones_first_row(3),), precision=26),
        Digital(2, (GenMatrix.identity(2),), precision=32),
    )
    return ExperimentPlan(spec=spec, schedule=_geometric(6, 1, 6), norm_exponent=2.0)


def _preset_hammersley_lattice(alpha: str, width: int | None) -> ExperimentPlan:
    del alpha, width
    spec = Hybrid(Hammersley(233, (2,)), Lattice(233, (144,)))
    return ExperimentPlan(spec=spec, schedule=(233,), algo="bracket", bracket_k=128, norm_exponent=2.0)


def _preset_power32(alpha: str, width: int | None) -> ExperimentPlan:
    del alpha, width
    return ExperimentPlan(spec=PowerRatio(3, 2), schedule=_geometric(2, 4, 12), norm_exponent=1.0)


_PRESETS = {
    "op9-vdc-sqrt2": _preset_op9,
    "op12-digitsum-alpha": _preset_op12,
    "halton-2-3": _preset_halton23,
    "c1-counterexample": _preset_c1,
    "hammersley-lattice": _preset_hammersley_lattice,
    "power-3-2": _preset_power32,
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(
    name: str,
    *,
    alpha: str = "sqrt2",
    width: int | None = None,
    schedule: tuple[int, ...] | None = None,
    bracket_k: int | None = None,
) -> ExperimentPlan:
    """A ready-made plan for one of the named study objects.

    ``alpha`` feeds the digit-sum preset; ``schedule`` and ``bracket_k``
    override the defaults without changing the sequence itself.
    """
    if name not in _PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    plan = _PRESETS[name](alpha, width)
    if schedule is not None:
        plan = replace(plan, schedule=tuple(schedule))
    if bracket_k is not None:
        plan = replace(plan, bracket_k=bracket_k)
    return plan
