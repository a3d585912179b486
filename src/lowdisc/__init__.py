"""Point sequences on the unit cube, exact discrepancy, and diophantine scans.

The package splits into six parts:

* :mod:`lowdisc.algebra` - exact substrate (prime fields, generating
  matrices, truncated Laurent series, fixed-point reals);
* :mod:`lowdisc.generators` - the sequence families and their hybrids;
* :mod:`lowdisc.discrepancy` - exact and bracketed (star) discrepancy;
* :mod:`lowdisc.diophantine` - continued fractions and counting scans;
* :mod:`lowdisc.experiments` - scaling studies, vector scans, presets;
* :mod:`lowdisc.fit` - exponent fits of scaling tables.

:mod:`lowdisc.cli` exposes all of it as the ``lowdisc`` command.

Importing the package loads none of them.  Each name below, and each
submodule, is resolved on first access from the module that defines it
(PEP 562), so a caller pays only for the modules it uses; numpy is loaded
only by the code that builds arrays.
"""

from importlib import import_module as _import_module

# Submodule -> the names the package re-exports from it.
_EXPORTS = {
    "algebra": (
        "FixedPointReal",
        "GenMatrix",
        "LaurentSeries",
        "fixedpoint_sqrt",
        "golden_ratio_frac",
    ),
    "discrepancy": (
        "DiscrepancyResult",
        "brute_force_oracle",
        "compute_discrepancy",
        "extreme_disc_1d",
        "extreme_disc_grid",
        "star_disc_1d",
        "star_disc_2d_sweep",
        "star_disc_bracket",
        "star_disc_exact",
    ),
    "diophantine": (
        "PhiSpec",
        "cf_rational",
        "cf_surd",
        "largest_quotient_2k_sqrt2",
        "littlewood_scan",
        "moser_scan",
        "schmidt_count",
        "zaremba_scan",
    ),
    "errors": ("BudgetError", "LowdiscError", "PrecisionError", "TruncationError", "ValidationError"),
    "experiments": (
        "ExperimentPlan",
        "lattice_scan",
        "preset",
        "preset_names",
        "run_scaling",
    ),
    "fit": ("FitResult", "fit_exponent"),
    "generators": (
        "Digital",
        "DigitSumFiltered",
        "DigitalKronecker",
        "Halton",
        "Hammersley",
        "Hybrid",
        "Kronecker",
        "Lattice",
        "PointSet",
        "PowerRatio",
        "RationalNet",
        "digitsum_filtered_index",
        "lattice_point_set",
        "radical_inverse",
        "stream",
    ),
    "pointio": ("parse_spec", "read_points", "spec_to_string", "write_points"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS) + sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached in globals(): a name replaced in its home module (as a
    # tracer does) is seen here too, and restored with it.
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
