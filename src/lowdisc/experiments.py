"""Experiment harness: discrepancy scaling tables and generating-vector
scans.  The exponent fits of :mod:`lowdisc.fit` are re-exported here.

A plan comes from ``key = value`` settings through :func:`plan_from_settings`,
whether they are read from a plan file or are one of the presets: each
preset is a table entry with the settings a plan file would carry (a spec
string, a schedule, ``p``, and ``algo``/``k`` where they differ from the
defaults), so ``gen --spec`` with a preset's spec reproduces its points.

Schedules default to geometric growth in N because every comparison of
interest is against polylog(N)/N laws; linear schedules waste budget.
Bracketed rows feed fits through their interval midpoint; the interval is
kept on the row's result, and the table prints its ends and half-width.

Everything is deterministic: sampling is seed-pinned, rows are emitted in
schedule order regardless of evaluation order, and rerunning a plan
reproduces its table byte for byte.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .discrepancy import DEFAULT_WORK_BUDGET, DiscrepancyResult, check_request, compute_discrepancy
from .errors import BudgetError, LowdiscError, ValidationError
from .fit import FitResult, fit_exponent
from .generators import (
    DigitSumFiltered,
    Hammersley,
    Hybrid,
    Lattice,
    PointSet,
    SequenceSpec,
    lattice_point_set,
    stream,
)
from .pointio import DEFAULT_WIDTH, _int, format_coordinate, parse_alpha, parse_spec

__all__ = [
    "ExperimentPlan",
    "FitResult",
    "LatticeScanSummary",
    "ScalingRow",
    "fit_exponent",
    "lattice_scan",
    "lattice_scan_csv",
    "ln_bounds",
    "plan_from_settings",
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
    """The discrepancy of the first N points of ``spec`` for each N of
    ``schedule``.  The request of every row (``bracket_k`` None for the
    default) is checked before any row runs, by :func:`check_request`."""

    spec: SequenceSpec
    schedule: tuple[int, ...]
    kind: str = "star"
    algo: str = "auto"
    bracket_k: int | None = None
    norm_exponent: float = 1.0

    def __post_init__(self) -> None:
        if not self.schedule:
            raise ValidationError("schedule must not be empty")
        if any(n < 1 for n in self.schedule):
            raise ValidationError("schedule entries must be >= 1")
        if any(a >= b for a, b in zip(self.schedule, self.schedule[1:])):
            raise ValidationError("schedule must be strictly increasing")
        if not (math.isfinite(self.norm_exponent) and self.norm_exponent >= 0):
            raise ValidationError(f"normalization exponent must be finite and >= 0, got {self.norm_exponent}")
        check_request(self.spec.dim, self.kind, self.algo, self.bracket_k)


# The keys of a plan file.
PLAN_KEYS = ("spec", "schedule", "kind", "algo", "k", "p")


def plan_from_settings(settings: dict[str, str], where: str) -> ExperimentPlan:
    """The plan of ``key = value`` settings, as a plan file or a preset gives
    them: ``spec`` and ``schedule`` (comma- or blank-separated), and optionally
    ``kind``, ``algo``, ``k`` (the bracket resolution) and ``p`` (the
    exponent of ln N in the normalized column).  Any other key is refused.
    Errors name ``where`` and the key."""
    unknown = [key for key in settings if key not in PLAN_KEYS]
    if unknown:
        raise ValidationError(f"{where}: unknown plan key {unknown[0]!r}; plans take {', '.join(PLAN_KEYS)}")
    if "spec" not in settings or "schedule" not in settings:
        raise ValidationError("plan files need at least 'spec' and 'schedule'")
    options: dict = {key: settings[key] for key in ("kind", "algo") if key in settings}
    if "k" in settings:
        options["bracket_k"] = _int(settings["k"], f"{where}: k")
    if "p" in settings:
        try:
            options["norm_exponent"] = float(settings["p"])
        except ValueError:
            raise ValidationError(f"{where}: p: {settings['p']!r} is not a number") from None
    schedule = tuple(_int(v, f"{where}: schedule") for v in settings["schedule"].replace(",", " ").split())
    return ExperimentPlan(spec=parse_spec(settings["spec"]), schedule=schedule, **options)


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


def _csv_cell(text: str) -> str:
    """A CSV cell, quoted as RFC 4180 asks when it holds a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def scaling_csv(rows: list[ScalingRow], decimal: int | None = None) -> str:
    """Delimited table for a scaling run; exact values by default."""

    def num(v: Fraction | None) -> str:
        return "" if v is None else format_coordinate(v, decimal)

    lines = ["N,kind,mode,value,lo,hi,halfwidth,normalized,error"]
    for row in rows:
        r = row.result
        if r is None:
            cells = [row.n, "", "", "", "", "", "", "", row.error]
        else:
            ends = (None, None) if r.value is not None else (r.lo, r.hi)
            norm = "" if row.normalized is None else f"{row.normalized:.12g}"
            cells = [row.n, r.kind, r.mode, num(r.value), *map(num, ends), num(r.half_width), norm, ""]
        lines.append(",".join(_csv_cell(str(c)) for c in cells))
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

    ``exhaustive`` walks all size^dim vectors and takes no ``count`` or
    ``seed``; ``sample`` draws ``count`` vectors from a seeded generator.
    Before evaluating any, both refuse more than ``MAX_SCAN_VECTORS``
    vectors, or grids of up to (size + 1)^dim corners each past
    ``DEFAULT_WORK_BUDGET`` in all.  Dimension 2 uses the exact sweep,
    dimension 3 the exact corner grid.
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
    elif count is not None or seed is not None:
        raise ValidationError("exhaustive mode takes no count or seed")
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

# Each preset is the plan file with these settings, so ``gen --spec`` with its
# spec reproduces its points.  A ``{field}`` of a spec is filled from the
# ``preset`` keyword of that name, or else from its default in _FIELDS.
_PRESETS: dict[str, dict[str, str]] = {
    "op9-vdc-sqrt2": {"spec": "hybrid:left=(halton:bases=2),right=(kronecker:width={width},alphas=sqrt2)",
                      "schedule": "16,32,64,128,256,512,1024,2048,4096,8192,16384", "p": "2"},
    "op12-digitsum-alpha": {"spec": "digitsum:inner=(kronecker:width={width},alphas={alpha})",
                            "schedule": "16,32,64,128,256,512,1024,2048,4096,8192,16384", "p": "1"},
    "halton-2-3": {"spec": "halton:bases=2|3", "schedule": "16,32,64,128,256,512,1024,2048,4096", "p": "2"},
    "c1-counterexample": {
        "spec": "hybrid:left=(digital:q=3,L=26,matrices=onesrow),right=(digital:q=2,L=32,matrices=identity)",
        "schedule": "6,36,216,1296,7776,46656", "p": "2"},
    "hammersley-lattice": {"spec": "hybrid:left=(hammersley:N=233,bases=2),right=(lattice:N=233,gens=144)",
                           "schedule": "233", "p": "2", "algo": "bracket", "k": "128"},
    "power-3-2": {"spec": "power-ratio:p=3,r=2", "schedule": "16,32,64,128,256,512,1024,2048,4096", "p": "1"},
}
_FIELDS: dict[str, dict] = {
    "op9-vdc-sqrt2": {"width": 192},
    "op12-digitsum-alpha": {"alpha": "sqrt2", "width": DEFAULT_WIDTH},
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str, *, alpha: str | None = None, width: int | None = None) -> ExperimentPlan:
    """A ready-made plan for one of the named study objects.

    ``alpha`` (one alpha token) and ``width`` (bits, >= 1) fill the spec
    fields of the presets that have them, and are refused by the others.  A
    schedule or bracket resolution of one's own goes on the returned plan
    with :func:`dataclasses.replace`, which checks it as any plan is checked.
    """
    if name not in _PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    given = {key: value for key, value in (("alpha", alpha), ("width", width)) if value is not None}
    fields = _FIELDS.get(name, {})
    unused = [key for key in given if key not in fields]
    if unused:
        raise ValidationError(f"preset {name} takes no {' or '.join(unused)}")
    fields = {**fields, **given}
    if fields.get("width", 1) < 1:
        raise ValidationError(f"width must be >= 1, got {fields['width']}")
    if "alpha" in fields:
        parse_alpha(fields["alpha"], fields["width"])  # a token that parses cannot break the spec grammar
    return plan_from_settings(dict(_PRESETS[name], spec=_PRESETS[name]["spec"].format(**fields)), name)
