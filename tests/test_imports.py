"""The package namespace and what each command loads.

``import lowdisc`` resolves its names lazily, and the CLI imports per
command, so a scan that builds no array never loads numpy.  These tests
bound the footprint by the modules loaded, not by time.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lowdisc

# The names ``lowdisc`` exported when its __init__ imported every submodule.
OLD_NAMESPACE = {
    "algebra": "FixedPointReal GenMatrix LaurentSeries fixedpoint_sqrt golden_ratio_frac",
    "discrepancy": "DiscrepancyResult brute_force_oracle compute_discrepancy extreme_disc_1d"
    " extreme_disc_grid star_disc_1d star_disc_2d_sweep star_disc_bracket star_disc_exact",
    "diophantine": "PhiSpec cf_rational cf_surd largest_quotient_2k_sqrt2 littlewood_scan"
    " moser_scan schmidt_count zaremba_scan",
    "errors": "BudgetError LowdiscError PrecisionError TruncationError ValidationError",
    "experiments": "ExperimentPlan FitResult fit_exponent lattice_scan preset preset_names run_scaling",
    "generators": "Digital DigitSumFiltered DigitalKronecker Halton Hammersley Hybrid Kronecker"
    " Lattice PointSet PowerRatio RationalNet digitsum_filtered_index lattice_point_set"
    " radical_inverse stream",
    "pointio": "parse_spec read_points spec_to_string write_points",
}
OLD_NAMES = {name: module for module, names in OLD_NAMESPACE.items() for name in names.split()}

SRC = str(Path(lowdisc.__file__).resolve().parents[1])

# Run in a fresh interpreter: the command's argv, then the loaded modules.
PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is not None:
    from lowdisc import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
else:
    import lowdisc
    code = 0
loaded = sorted(m for m in sys.modules if m == "lowdisc" or m.startswith("lowdisc."))
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "lowdisc": loaded}))
"""


def probe(argv, cwd) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], capture_output=True,
                          text=True, env=env, cwd=cwd, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_old_name_resolves_to_its_modules_object():
    for name, module in OLD_NAMES.items():
        assert name in lowdisc.__all__ and name in dir(lowdisc)
        home = getattr(lowdisc, module)
        assert home is sys.modules[f"lowdisc.{module}"]
        assert getattr(lowdisc, name) is getattr(home, name)
    for module in OLD_NAMESPACE:
        assert module in lowdisc.__all__ and module in dir(lowdisc)


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(lowdisc.__path__)))
def test_every_submodule_export_resolves(name):
    module = importlib.import_module(f"lowdisc.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_lazy_names_are_not_cached_in_the_package():
    # a cached name would outlive a replacement made in its home module
    assert lowdisc.Halton and lowdisc.compute_discrepancy
    assert "Halton" not in vars(lowdisc) and "compute_discrepancy" not in vars(lowdisc)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from lowdisc import *", namespace)
    for name, module in OLD_NAMES.items():
        assert namespace[name] is getattr(sys.modules[f"lowdisc.{module}"], name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(lowdisc, "no_such_name")
    assert not hasattr(lowdisc, "UnitPoint")


def assert_loads_only(argv, cwd, modules) -> None:
    """The command succeeds without numpy and loads ``modules`` beyond the
    package, its CLI and its errors."""
    result = probe(argv, cwd)
    assert result["code"] == 0
    assert not result["numpy"]
    assert result["lowdisc"] == sorted(["lowdisc", "lowdisc.cli", "lowdisc.errors", *modules])


# A scaling table for ``fit``.
TABLE = "N,value\n16,1/4\n32,1/8\n64,1/16\n"


def test_bare_import_loads_no_submodule(tmp_path):
    result = probe(None, tmp_path)
    assert result["lowdisc"] == ["lowdisc"]
    assert not result["numpy"]


SCANS = [
    ["cfrac", "--bl", "4"],
    ["zaremba", "--to", "50"],
    ["moser", "--to", "50"],
]


@pytest.mark.parametrize("argv", SCANS, ids=lambda a: a[0])
def test_diophantine_scans_load_only_diophantine_and_algebra(argv, tmp_path):
    assert_loads_only(argv, tmp_path, ["lowdisc.diophantine", "lowdisc.algebra"])


def test_fit_loads_only_fit(tmp_path):
    (tmp_path / "table.csv").write_text(TABLE, encoding="utf-8")
    assert_loads_only(["fit", "--in", "table.csv"], tmp_path, ["lowdisc.fit"])


@pytest.mark.parametrize(
    "argv",
    [
        ["littlewood", "--alpha", "sqrt2", "--beta", "sqrt3", "--nmax", "100"],
        ["schmidt", "--h", "3", "--gens", "3,5", "--N", "64", "--phi", "constant:1/2"],
        ["fit", "--in", "table.csv"],
        ["--help"],
    ],
    ids=lambda a: a[0].lstrip("-"),
)
def test_array_free_commands_do_not_load_numpy(argv, tmp_path):
    (tmp_path / "table.csv").write_text(TABLE, encoding="utf-8")
    result = probe(argv, tmp_path)
    assert result["code"] == 0
    assert not result["numpy"]


# Scales past 2^63 hold lists of Python ints, so 1D runs on them build no array
# (power-3-2 is over 2^(N-1), so its schedule needs an N past 64).
WIDE_1D = [
    ["experiment", "--preset", "power-3-2", "--schedule", "16,32,128"],
    ["experiment", "--preset", "op12-digitsum-alpha", "--schedule", "16,32,128"],
]


@pytest.mark.parametrize("argv", WIDE_1D, ids=lambda a: a[2])
def test_wide_1d_presets_do_not_load_numpy(argv, tmp_path):
    result = probe(argv, tmp_path)
    assert result["code"] == 0
    assert not result["numpy"]


def test_wide_1d_gen_and_disc_do_not_load_numpy(tmp_path):
    gen = probe(["gen", "--spec", "kronecker:width=192,alphas=sqrt2", "--count", "300", "--out", "k.tsv"], tmp_path)
    disc = probe(["disc", "--in", "k.tsv", "--out", "d.json"], tmp_path)
    assert (gen["code"], disc["code"]) == (0, 0)
    assert not gen["numpy"] and not disc["numpy"]
    assert json.loads((tmp_path / "d.json").read_text())["mode"] == "exact-represented"


def test_array_commands_still_load_numpy(tmp_path):
    # the probe sees numpy where it is used, so the assertions above are not vacuous
    result = probe(["gen", "--spec", "halton:bases=2|3", "--count", "4"], tmp_path)
    assert result["code"] == 0
    assert result["numpy"]
