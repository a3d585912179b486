from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from lowdisc.algebra import GenMatrix, fixedpoint_sqrt
from lowdisc.discrepancy import DEFAULT_BRACKET_K, DEFAULT_WORK_BUDGET, star_disc_2d_sweep
from lowdisc.errors import BudgetError, ValidationError
from lowdisc.experiments import (
    _FIELDS,
    _PRESETS,
    MAX_SCAN_VECTORS,
    ExperimentPlan,
    ScalingRow,
    fit_exponent,
    lattice_scan,
    lattice_scan_csv,
    ln_bounds,
    plan_from_settings,
    preset,
    preset_names,
    run_scaling,
    scaling_csv,
)
from lowdisc.generators import (
    Digital,
    DigitSumFiltered,
    Halton,
    Hammersley,
    Hybrid,
    Kronecker,
    Lattice,
    PowerRatio,
    int_list,
    lattice_point_set,
    stream,
)
from lowdisc.pointio import parse_spec, spec_to_string


# frozen at first computation: exact star discrepancy of the base-2 radical
# inverse sequence at power-of-two counts (the prefix is exactly equidistant)
VDC_POWER_OF_TWO = [(1 << j, Fraction(1, 1 << j)) for j in range(1, 11)]

# frozen at first computation: fitted exponent along the extremal index
# subsequence (4^k - 1) / 3, where N * D* grows linearly in log N
VDC_EXTREMAL_EXPONENT = 0.7274071091006298


def test_ln_bounds_enclose():
    for n in (2, 3, 16, 1000, 1 << 20):
        lo, hi = ln_bounds(n)
        assert lo <= Fraction(math.log(n)) <= hi
        assert hi - lo < Fraction(1, 1 << 30)
    with pytest.raises(ValidationError):
        ln_bounds(1)


# -- plans and scaling runs -----------------------------------------------------


def test_plan_from_settings_defaults():
    plan = plan_from_settings({"spec": "halton:bases=2", "schedule": "16, 32"}, "f")
    assert plan == ExperimentPlan(spec=plan.spec, schedule=(16, 32))
    assert plan.bracket_k is None and DEFAULT_BRACKET_K == 512


def test_plan_from_settings_refuses_unknown_keys():
    settings = {"spec": "halton:bases=2", "schedule": "16, 32"}
    for key in ("alg", "K", "schedules"):
        with pytest.raises(ValidationError, match=f"^plan.cfg: unknown plan key '{key}'"):
            plan_from_settings({**settings, key: "bracket"}, "plan.cfg")
    plan = plan_from_settings({**settings, "kind": "star", "algo": "bracket", "k": "8", "p": "2"}, "f")
    assert (plan.algo, plan.bracket_k, plan.norm_exponent) == ("bracket", 8, 2.0)


def test_plan_from_settings_refuses_a_non_finite_exponent():
    """``p = nan`` read every normalized cell as nan, ``p = inf`` as 0."""
    settings = {"spec": "halton:bases=2|3", "schedule": "16,32,64"}
    for p in ("nan", "inf", "-inf", "1e999"):
        with pytest.raises(ValidationError, match="normalization exponent must be finite and >= 0"):
            plan_from_settings({**settings, "p": p}, "f")


def test_plan_validation():
    with pytest.raises(ValidationError):
        ExperimentPlan(spec=Halton((2,)), schedule=())
    with pytest.raises(ValidationError):
        ExperimentPlan(spec=Halton((2,)), schedule=(8, 8))
    with pytest.raises(ValidationError):
        ExperimentPlan(spec=Halton((2,)), schedule=(2, 4), norm_exponent=-1)
    with pytest.raises(ValidationError):
        ExperimentPlan(spec=Halton((2,)), schedule=(2, 4), kind="weird")
    with pytest.raises(ValidationError, match="unknown algorithm 'foo'"):
        ExperimentPlan(spec=Halton((2,)), schedule=(2, 4), algo="foo")
    with pytest.raises(ValidationError, match="bracket resolution"):
        ExperimentPlan(spec=Halton((2,)), schedule=(2, 4), algo="bracket", bracket_k=1)


def test_plan_refuses_a_bracket_resolution_no_row_would_use():
    refused = [
        ({"algo": "grid", "bracket_k": 8}, "algo 'grid' runs no bracket"),
        ({"kind": "extreme", "bracket_k": 8}, "the extreme kind has no bracket"),
        ({"kind": "extreme", "algo": "bracket"}, "computes the star kind only"),
        ({"bracket_k": 8}, "auto runs the exact closed form in d = 1"),
    ]
    for request, message in refused:
        with pytest.raises(ValidationError, match=message):
            ExperimentPlan(spec=Halton((2,)), schedule=(2, 4), **request)
    assert ExperimentPlan(spec=Halton((2,)), schedule=(2, 4), algo="bracket", bracket_k=8).bracket_k == 8
    assert ExperimentPlan(spec=Halton((2, 3)), schedule=(2, 4), bracket_k=8).bracket_k == 8


def test_run_scaling_vdc_fixture():
    plan = ExperimentPlan(
        spec=Halton((2,)), schedule=tuple(n for n, _ in VDC_POWER_OF_TWO), norm_exponent=1.0
    )
    rows = run_scaling(plan)
    assert [(r.n, r.result.value) for r in rows] == VDC_POWER_OF_TWO
    for r in rows:
        assert r.normalized is not None
        assert r.result.mode == "exact"
        if r.n >= 4:  # at N = 2 the column is 1/ln 2 ~ 1.44; below 1 from N = 4 on
            assert r.normalized < 1.0
    norms = [r.normalized for r in rows]
    assert norms == sorted(norms, reverse=True)


def test_run_scaling_diagonal_lattice_never_decays():
    plan = ExperimentPlan(spec=Lattice(2, (1, 1)), schedule=(4, 8, 16), norm_exponent=0.0)
    rows = run_scaling(plan)
    for r in rows:
        assert r.result.value >= Fraction(1, 4)
    assert rows[0].result.value == star_disc_2d_sweep(lattice_point_set(4, (1, 1))).value


def test_run_scaling_records_row_errors_and_continues():
    plan = ExperimentPlan(spec=Halton((2, 3)), schedule=(256, 512), kind="extreme")  # pair grids past 1e8
    rows = run_scaling(plan)
    assert all(r.result is None and "budget" in r.error.lower() for r in rows)
    mixed = ExperimentPlan(spec=Hammersley(8, (2,)), schedule=(4, 8, 16))
    rows = run_scaling(mixed)
    assert rows[0].result is not None and rows[1].result is not None
    assert rows[2].result is not None  # resize rebuilds the finite family at N=16


def test_scaling_csv_shape_and_determinism():
    plan = replace(preset("power-3-2"), schedule=(16, 32, 64))
    rows = run_scaling(plan)
    text1 = scaling_csv(rows)
    text2 = scaling_csv(run_scaling(plan))
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[0] == "N,kind,mode,value,lo,hi,halfwidth,normalized,error"
    assert len(lines) == 4
    assert lines[1].startswith("16,star,exact,")


# -- exponent fits ------------------------------------------------------------------


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_fit_recovers_planted_exponents(p):
    rows = [(n, math.log(n) ** p / n) for n in (16, 64, 256, 1024, 4096, 16384)]
    fit = fit_exponent(rows)
    assert abs(fit.exponent - p) < 1e-9
    assert fit.sample_count == 6


def test_fit_input_guards():
    with pytest.raises(ValidationError):
        fit_exponent([(16, 0.5), (32, 0.25)])
    with pytest.raises(ValidationError):
        fit_exponent([(16, 0.5), (16, 0.5), (16, 0.5)])
    with pytest.raises(ValidationError):
        fit_exponent([(4, 0.5), (8, 0.25), (12, 0.125)])  # all below N = 16


def test_fit_accepts_scaling_rows():
    plan = ExperimentPlan(spec=Halton((2,)), schedule=(16, 64, 256, 1024))
    fit = fit_exponent(run_scaling(plan))
    assert abs(fit.exponent) < 1e-9  # exactly 1/N along powers of two


def test_vdc_extremal_subsequence_fit_fixture():
    rows = []
    for k in range(2, 9):
        n = (4**k - 1) // 3
        from lowdisc.discrepancy import star_disc_1d

        rows.append((n, float(star_disc_1d(stream(Halton((2,)), 0, n)).value)))
    fit = fit_exponent(rows)
    assert 0.5 < fit.exponent < 1.5
    assert abs(fit.exponent - VDC_EXTREMAL_EXPONENT) < 1e-9


# -- Kronecker sqrt2 normalized bound --------------------------------------------------


def test_kronecker_sqrt2_normalized_bounded():
    from lowdisc.discrepancy import star_disc_1d

    alpha = fixedpoint_sqrt(2, 192)
    bound = Fraction(3)
    for j in range(4, 18):
        n = 1 << j
        value = star_disc_1d(stream(Kronecker((alpha,)), 0, n)).value
        _, ub = ln_bounds(n)
        assert n * value <= bound * ub  # N * D <= 3 * ln N, exactly certified


# -- lattice scans ------------------------------------------------------------------------


def test_lattice_scan_exhaustive_n5():
    summary = lattice_scan(5, 2)
    assert summary.vectors == 25
    best_direct = star_disc_2d_sweep(lattice_point_set(5, (1, 2))).value
    assert summary.min_value == best_direct
    assert summary.min_vector == (1, 2)
    assert summary.min_value <= summary.quantiles[0][1]
    assert summary.max_value == 1  # vectors containing 0 put all mass on a slab
    # witnesses re-verify
    assert star_disc_2d_sweep(lattice_point_set(5, summary.min_vector)).value == summary.min_value
    assert star_disc_2d_sweep(lattice_point_set(5, summary.max_vector)).value == summary.max_value


def test_lattice_scan_zero_generator_degenerate():
    for n in (2, 5, 9):
        value = star_disc_2d_sweep(lattice_point_set(n, (0, 1))).value
        assert value >= Fraction(1, 2)


def test_lattice_scan_sampling_is_seed_deterministic():
    a = lattice_scan(17, 2, "sample", count=25, seed=9)
    b = lattice_scan(17, 2, "sample", count=25, seed=9)
    assert a == b
    c = lattice_scan(17, 2, "sample", count=25, seed=10)
    assert a != c
    assert a.vectors == 25


def test_lattice_scan_guards():
    with pytest.raises(BudgetError):
        lattice_scan(100, 3)
    with pytest.raises(ValidationError):
        lattice_scan(5, 4)
    with pytest.raises(ValidationError):
        lattice_scan(5, 2, "sample")
    with pytest.raises(ValidationError, match="exhaustive"):
        lattice_scan(5, 2, count=3)
    with pytest.raises(ValidationError, match="exhaustive"):
        lattice_scan(5, 2, seed=3)


def _refuse_evaluation(*args):
    raise AssertionError("a vector past the scan cap was evaluated")


def test_lattice_scan_sample_count_is_capped(monkeypatch):
    # the cap is checked before any vector is drawn or evaluated
    monkeypatch.setattr("lowdisc.experiments.lattice_point_set", _refuse_evaluation)
    with pytest.raises(BudgetError, match=str(MAX_SCAN_VECTORS)):
        lattice_scan(5, 2, "sample", count=MAX_SCAN_VECTORS + 1, seed=1)


def test_lattice_scan_cost_is_capped(monkeypatch):
    # vectors x (N + 1)^d cells are checked against the work budget before any
    # vector is evaluated; the benchmark's scans stay well inside it
    monkeypatch.setattr("lowdisc.experiments.lattice_point_set", _refuse_evaluation)
    assert 58**3 <= MAX_SCAN_VECTORS < 58**3 * 59**3
    with pytest.raises(BudgetError, match=str(DEFAULT_WORK_BUDGET)):
        lattice_scan(58, 3)
    with pytest.raises(BudgetError, match=str(DEFAULT_WORK_BUDGET)):
        lattice_scan(99, 3, "sample", count=101, seed=1)
    monkeypatch.undo()
    assert lattice_scan(64, 2, "sample", count=200, seed=1).vectors == 200  # 845,000 cells
    assert lattice_scan(12, 3, "sample", count=20, seed=1).vectors == 20  # 43,940 cells


def test_lattice_scan_csv():
    text = lattice_scan_csv(lattice_scan(5, 2))
    lines = text.strip().split("\n")
    assert lines[0] == "statistic,value,vector"
    assert lines[1] == "vectors,25,"
    assert lines[2].startswith("min,9/25,1|2")
    assert lines[-1].startswith("max,1,")


# -- presets ------------------------------------------------------------------------------------


def test_preset_names_and_unknown():
    assert preset_names() == (
        "c1-counterexample",
        "halton-2-3",
        "hammersley-lattice",
        "op12-digitsum-alpha",
        "op9-vdc-sqrt2",
        "power-3-2",
    )
    with pytest.raises(ValidationError) as err:
        preset("nope")
    assert "halton-2-3" in str(err.value)


def test_preset_op9_shape():
    plan = preset("op9-vdc-sqrt2")
    assert isinstance(plan.spec, Hybrid)
    assert plan.spec.dim == 2
    assert stream(plan.spec, 0, 1).rows()[0] == (Fraction(0), Fraction(0))
    assert plan.spec.right.alphas[0].width == 192


def test_preset_c1_shape():
    plan = preset("c1-counterexample")
    assert plan.spec.dim == 2
    assert plan.spec.left.q == 3 and plan.spec.right.q == 2
    assert plan.schedule == (6, 36, 216, 1296, 7776, 46656)


def test_preset_power32_and_overrides():
    plan = replace(preset("power-3-2"), schedule=(16, 32))
    assert isinstance(plan.spec, PowerRatio)
    assert plan.spec.dim == 1
    assert plan.schedule == (16, 32) and plan.bracket_k is None
    with pytest.raises(ValidationError, match="auto runs the exact closed form in d = 1"):
        replace(plan, bracket_k=64)
    assert replace(preset("halton-2-3"), bracket_k=64).bracket_k == 64


def test_preset_op12_takes_alpha():
    plan = preset("op12-digitsum-alpha", alpha="golden", width=96)
    inner = plan.spec.inner
    assert inner.alphas[0].label == "golden" and inner.alphas[0].width == 96


def test_preset_specs_are_canonical():
    for name in preset_names():
        text = _PRESETS[name]["spec"].format(**_FIELDS.get(name, {}))
        assert spec_to_string(parse_spec(text)) == text
        assert spec_to_string(preset(name).spec) == text


# each preset's study object built from the generator classes, without the spec grammar
PRESET_OBJECTS = {
    "op9-vdc-sqrt2": Hybrid(Halton((2,)), Kronecker((fixedpoint_sqrt(2, 192),))),
    "op12-digitsum-alpha": DigitSumFiltered(Kronecker((fixedpoint_sqrt(2, 128),))),
    "halton-2-3": Halton((2, 3)),
    "c1-counterexample": Hybrid(
        Digital(3, (GenMatrix.ones_first_row(3),), precision=26),
        Digital(2, (GenMatrix.identity(2),), precision=32),
    ),
    "hammersley-lattice": Hybrid(Hammersley(233, (2,)), Lattice(233, (144,))),
    "power-3-2": PowerRatio(3, 2),
}


@pytest.mark.parametrize("name", sorted(PRESET_OBJECTS))
def test_preset_specs_generate_the_objects_points(name):
    n = min(preset(name).schedule[-1], 2048)
    got, want = stream(preset(name).spec, 0, n), stream(PRESET_OBJECTS[name], 0, n)
    assert got.tag == want.tag and got.scales == want.scales
    assert [int_list(c) for c in got.columns] == [int_list(c) for c in want.columns]


def test_preset_fields_are_checked_before_they_are_filled():
    with pytest.raises(ValidationError, match="width must be >= 1"):
        preset("op12-digitsum-alpha", width=0)
    with pytest.raises(ValidationError):
        preset("op12-digitsum-alpha", alpha="sqrt2|sqrt3")
    with pytest.raises(ValidationError, match="takes no alpha"):
        preset("halton-2-3", alpha="sqrt2")
    with pytest.raises(ValidationError, match="takes no width"):
        preset("c1-counterexample", width=64)
    assert preset("op9-vdc-sqrt2", width=64).spec.right.alphas[0].width == 64


def test_preset_hammersley_lattice():
    plan = preset("hammersley-lattice")
    assert plan.spec.dim == 3
    assert plan.algo == "bracket"
    rows = run_scaling(plan)
    # the k = 128 bracket finishes: inside its lattice bracket, and equal to the 234^3-corner sweep
    assert rows[0].result.mode == "exact" and rows[0].result.value == Fraction(276753, 6948992)
    assert Fraction(1112455, 30539776) <= rows[0].result.value <= Fraction(1828231, 30539776)
