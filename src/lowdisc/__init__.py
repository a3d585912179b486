"""Point sequences on the unit cube, exact discrepancy, and diophantine scans.

The package splits into five parts:

* :mod:`lowdisc.algebra` - exact substrate (prime fields, generating
  matrices, truncated Laurent series, fixed-point reals);
* :mod:`lowdisc.generators` - the sequence families and their hybrids;
* :mod:`lowdisc.discrepancy` - exact and bracketed (star) discrepancy;
* :mod:`lowdisc.diophantine` - continued fractions and counting scans;
* :mod:`lowdisc.experiments` - scaling studies, fits, vector scans, presets.

:mod:`lowdisc.cli` exposes all of it as the ``lowdisc`` command.
"""

from .algebra import (
    Fq,
    FixedPointReal,
    GenMatrix,
    LaurentSeries,
    fixedpoint_sqrt,
    golden_ratio_frac,
)
from .discrepancy import (
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
from .diophantine import (
    PhiSpec,
    cf_rational,
    cf_surd,
    largest_quotient_2k_sqrt2,
    littlewood_scan,
    max_partial_quotient_of_real,
    moser_scan,
    running_max_quotient_2k_sqrt2,
    schmidt_count,
    zaremba_scan,
)
from .errors import BudgetError, LowdiscError, PrecisionError, TruncationError, ValidationError
from .experiments import (
    ExperimentPlan,
    FitResult,
    fit_exponent,
    lattice_scan,
    preset,
    preset_names,
    run_scaling,
)
from .generators import (
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
    digitsum_filtered_index,
    lattice_point_set,
    radical_inverse,
    stream,
)
from .pointio import parse_spec, read_points, spec_to_string, write_points

__version__ = "0.1.0"
