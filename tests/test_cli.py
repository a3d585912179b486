from __future__ import annotations

import io
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from lowdisc.cli import main


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_gen_writes_points(tmp_path):
    target = tmp_path / "pts.tsv"
    code, _, _ = run_cli("gen", "--spec", "halton:bases=2|3", "--count", "4", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0].startswith("# spec=halton:bases=2|3 dim=2 repr=exact")
    assert lines[2] == "1/2\t1/3"


def test_gen_accepts_spec_file_and_decimal(tmp_path):
    spec_file = tmp_path / "spec.cfg"
    spec_file.write_text("# comment\nspec = halton:bases=2\n")
    code, out, _ = run_cli("gen", "--spec", str(spec_file), "--count", "3", "--decimal", "4")
    assert code == 0
    assert "0.5000" in out and "format=dec4" in out


def test_gen_decimal_file_reads_back_in_disc(tmp_path):
    # coordinates in [0.995, 1) must not be written as 1.00
    pts = tmp_path / "p.tsv"
    spec = "kronecker:width=128,alphas=sqrt2"
    gen = ("gen", "--spec", spec, "--count", "2000", "--decimal", "2", "--out", str(pts))
    assert run_cli(*gen)[0] == 0
    code, out, err = run_cli("disc", "--in", str(pts))
    assert code == 0, err
    assert json.loads(out)["N"] == 2000


def test_gen_disc_pipeline_matches_library(tmp_path):
    from lowdisc.discrepancy import star_disc_2d_sweep
    from lowdisc.generators import Halton, stream

    pts = tmp_path / "p.tsv"
    assert run_cli("gen", "--spec", "halton:bases=2|3", "--count", "32", "--out", str(pts))[0] == 0
    code, out, _ = run_cli("disc", "--in", str(pts))
    assert code == 0
    payload = json.loads(out)
    want = star_disc_2d_sweep(stream(Halton((2, 3)), 0, 32)).value
    assert Fraction(payload["value"]) == want
    assert payload["mode"] == "exact"
    assert payload["N"] == 32 and payload["d"] == 2


def _fraction_rows(text: str):
    """Reference reader: every coordinate token of a point file as a Fraction."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return tuple(tuple(Fraction(token) for token in line.split("\t")) for line in lines)


@pytest.mark.parametrize(
    "spec",
    [
        "halton:bases=3",
        "lattice:N=40,gens=1|7",
        "hammersley:N=40,bases=2|3",
        "kronecker:width=64,alphas=sqrt2",
        "kronecker:width=200,alphas=sqrt2|sqrt3|golden",
        "hybrid:left=(halton:bases=3),right=(kronecker:width=96,alphas=sqrt2)",
        "hybrid:left=(kronecker:width=80,alphas=sqrt5),right=(halton:bases=2|3)",
    ],
)
@pytest.mark.parametrize("decimal", [None, 9])
def test_point_files_read_back_as_columns(tmp_path, spec, decimal):
    from lowdisc.discrepancy import compute_discrepancy
    from lowdisc.pointio import read_points

    pts = tmp_path / "p.tsv"
    extra = () if decimal is None else ("--decimal", str(decimal))
    assert run_cli("gen", "--spec", spec, "--count", "40", "--out", str(pts), *extra)[0] == 0
    want = _fraction_rows(pts.read_text())
    with open(pts, encoding="utf-8") as fh:
        back = read_points(fh)
    assert back.rows == want and back.columns.dim == len(want[0])
    # disc reports what the per-token Fraction rows give
    code, out, err = run_cli("disc", "--in", str(pts))
    assert code == 0, err
    result = compute_discrepancy(want)
    mode = "exact-represented" if back.columns.tag.coerced else result.mode
    assert json.loads(out) == dict(json.loads(result.to_json()), mode=mode)


def test_gen_piped_into_disc_reads_stdin(tmp_path, monkeypatch):
    spec = "hybrid:left=(halton:bases=2),right=(kronecker:width=96,alphas=sqrt2)"
    pts = tmp_path / "p.tsv"
    assert run_cli("gen", "--spec", spec, "--count", "50", "--out", str(pts))[0] == 0
    code, text, _ = run_cli("gen", "--spec", spec, "--count", "50")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    piped = run_cli("disc", "--in", "-")
    assert piped == run_cli("disc", "--in", str(pts)) and piped[0] == 0


def test_bits_alpha_tokens_generate_and_round_trip():
    from lowdisc.pointio import parse_spec, spec_to_string

    spec = "kronecker:width=64,alphas=bits:0x6a09e667f3bcc908"
    code, out, _ = run_cli("gen", "--spec", spec, "--count", "3")
    assert code == 0
    lines = out.splitlines()
    header = dict(item.split("=", 1) for item in lines[0][1:].split())
    assert header["spec"] == spec and spec_to_string(parse_spec(header["spec"])) == spec
    alpha = Fraction(0x6A09E667F3BCC908, 1 << 64)
    assert [Fraction(t) for t in lines[1:]] == [Fraction(0), alpha, 2 * alpha]


def test_disc_marks_represented_points(tmp_path):
    pts = tmp_path / "p.tsv"
    run_cli("gen", "--spec", "kronecker:width=96,alphas=sqrt2", "--count", "16", "--out", str(pts))
    code, out, _ = run_cli("disc", "--in", str(pts))
    assert code == 0
    assert json.loads(out)["mode"] == "exact-represented"


def test_disc_bracket_and_budget_exit_codes(tmp_path):
    pts = tmp_path / "p.tsv"
    run_cli("gen", "--spec", "halton:bases=2|3", "--count", "64", "--out", str(pts))
    code, out, _ = run_cli("disc", "--in", str(pts), "--algo", "bracket", "--k", "32")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "bracketed" and payload["resolution"] == 32
    lo, hi = Fraction(payload["value"][0]), Fraction(payload["value"][1])
    assert hi - lo <= Fraction(2, 32)

    code, _, err = run_cli("disc", "--in", str(pts), "--algo", "2d", "--budget", "10")
    assert code == 3 and "budget" in err.lower()
    code, _, err = run_cli("disc", "--in", str(pts), "--algo", "bracket", "--k", "32", "--budget", "100")
    assert code == 3 and "bracket lattice has 1089 cells" in err
    # auto takes --k as the resolution of the bracket it may choose; 64 points in 2D run exact
    code, out, _ = run_cli("disc", "--in", str(pts), "--k", "2")
    assert code == 0 and json.loads(out)["mode"] == "exact"


def test_disc_brackets_one_dimensional_points_when_asked(tmp_path):
    pts = tmp_path / "p.tsv"
    run_cli("gen", "--spec", "halton:bases=2", "--count", "64", "--out", str(pts))
    code, out, _ = run_cli("disc", "--in", str(pts), "--algo", "bracket", "--k", "8")
    payload = json.loads(out)
    assert code == 0 and payload["mode"] == "bracketed" and payload["resolution"] == 8
    exact = Fraction(json.loads(run_cli("disc", "--in", str(pts))[1])["value"])
    assert Fraction(payload["value"][0]) <= exact <= Fraction(payload["value"][1])


@pytest.mark.parametrize(
    "spec, extra",
    [
        ("kronecker:width=192,alphas=sqrt2", ()),
        ("hybrid:left=(halton:bases=2),right=(kronecker:width=64,alphas=golden)", ("--decimal", "19")),
        ("digital:q=3,L=45,matrices=onesrow", ("--start", "7")),
    ],
)
def test_gen_to_stdout_equals_gen_to_file(tmp_path, spec, extra):
    target = tmp_path / "pts.tsv"
    code, out, _ = run_cli("gen", "--spec", spec, "--count", "300", *extra)
    assert code == 0
    assert run_cli("gen", "--spec", spec, "--count", "300", *extra, "--out", str(target))[0] == 0
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ("--spec", "lattice:N=5,gens=1|2", "--start", "3", "--count", "5"),  # generation fails
        ("--spec", "digital:q=11,L=2,matrices=rows:10.01", "--count", "3"),  # the header has no spec string
        ("--spec", "halton:bases=2", "--count", "3", "--decimal", "0"),  # rows cannot be formatted
    ],
    ids=["generation", "header", "decimal"],
)
def test_failing_gen_creates_no_file(tmp_path, argv):
    target = tmp_path / "pts.tsv"
    code, _, err = run_cli("gen", *argv, "--out", str(target))
    assert code == 2 and err.startswith("error: ")
    assert not target.exists()


def test_validation_exit_codes(tmp_path):
    code, _, err = run_cli("gen", "--spec", "halton:bases=2|4", "--count", "4")
    assert code == 2 and "coprime" in err
    missing = tmp_path / "nope.tsv"
    assert run_cli("disc", "--in", str(missing))[0] == 2
    code, _, err = run_cli("experiment", "--preset", "nonesuch")
    assert code == 2 and "available" in err


def test_a_missing_numpy_exits_2_where_a_command_needs_it(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # every import of numpy fails
    code, out, err = run_cli("gen", "--spec", "halton:bases=2", "--count", "4")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "numpy" in err and len(err.splitlines()) == 1
    code, out, _ = run_cli("cfrac", "--bl", "3")
    assert code == 0 and out.startswith("K,A_K,B_K")


PLAN = "spec = halton:bases=2\nschedule = 16,32\n"
POINTS = "# spec=halton:bases=2|3 dim=2\n0\t0\n1/2\t1/3\n"
POINTS_1D = "# spec=halton:bases=2 dim=1\n0\n1/2\n1/4\n"
DIGITAL = "digital:q=3,L=4,matrices="


@pytest.mark.parametrize(
    "argv, text, names",
    [
        (("cfrac", "--rational", "x/5"), None, "'x'"),
        (("schmidt", "--h", "2", "--gens", "3,a", "--N", "8", "--phi", "constant:1/2"), None, "--gens"),
        (("experiment", "--preset", "halton-2-3", "--schedule", "16,x"), None, "--schedule"),
        (("experiment", "--plan", "{file}"), PLAN + "k = abc\n", ": k:"),
        (("experiment", "--plan", "{file}"), PLAN + "p = abc\n", ": p:"),
        (("experiment", "--plan", "{file}"), "spec = halton:bases=2\nschedule = 16,x\n", ": schedule:"),
        (("fit", "--in", "{file}"), "n,value\n16,1/4\n", "no N column"),
        (("fit", "--in", "{file}"), "N,value\n16,1/4\nabc,1/8\n", "input:3:"),
        (("fit", "--in", "{file}"), "N,value\n16,x\n", "input:2:"),
        (("fit", "--in", "{file}"), "value,N\n1/4\n", "input:2:"),
        (("gen", "--spec", DIGITAL + "random(seed=1)", "--count", "4"), None, "random spec needs size"),
        (("gen", "--spec", DIGITAL + "finiterandom(size=4)", "--count", "4"), None, "finiterandom spec needs seed"),
        (("gen", "--spec", DIGITAL + "finiterandom(size=4,seed=1,rho=x)", "--count", "4"), None, "rho"),
        (("gen", "--spec", DIGITAL + "rows:1x", "--count", "4"), None, "rows entry"),
        (("cfrac", "--bl", "-1"), None, "L must be >= 0"),
        # flags a command would ignore, and plan settings it would fail every row on
        (("experiment", "--preset", "op12-digitsum-alpha", "--width", "0"), None, "width must be >= 1"),
        (("experiment", "--preset", "op12-digitsum-alpha", "--alpha", "sqrt2|sqrt3"), None, "sqrt argument"),
        (("experiment", "--preset", "halton-2-3", "--alpha", "zzz", "--width", "-3"), None, "takes no"),
        (("experiment", "--preset", "op9-vdc-sqrt2", "--alpha", "golden"), None, "takes no alpha"),
        (("experiment", "--plan", "{file}", "--alpha", "golden"), PLAN, "--alpha"),
        (("experiment", "--plan", "{file}", "--width", "64"), PLAN, "--width"),
        (("experiment", "--plan", "{file}"), PLAN + "algo = foo\n", "unknown algorithm 'foo'"),
        (("experiment", "--plan", "{file}"), PLAN + "algo = bracket\nk = 1\n", "bracket resolution"),
        (("experiment", "--plan", "{file}"), PLAN + "alg = bracket\n", "input: unknown plan key 'alg'"),
        (("disc", "--in", "{file}", "--algo", "2d", "--k", "1"), POINTS, "algo '2d' runs no bracket"),
        (("disc", "--in", "{file}", "--algo", "grid", "--k", "64"), POINTS, "algo 'grid' runs no bracket"),
        (("disc", "--in", "{file}", "--algo", "bracket", "--k", "1"), POINTS, "bracket resolution must be >= 2"),
        (("disc", "--in", "{file}", "--k", "1"), POINTS, "bracket resolution must be >= 2"),
        (("disc", "--in", "{file}", "--kind", "extreme", "--k", "8"), POINTS, "extreme kind has no bracket"),
        (("disc", "--in", "{file}", "--k", "8"), POINTS_1D, "auto runs the exact closed form in d = 1"),
        (("experiment", "--preset", "power-3-2", "--k", "64"), None, "auto runs the exact closed form in d = 1"),
        (("experiment", "--plan", "{file}"), PLAN + "algo = grid\nk = 8\n", "algo 'grid' runs no bracket"),
        (("disc", "--in", "{file}", "--budget", "0"), POINTS, "work budget must be >= 1, got 0"),
        (("disc", "--in", "{file}", "--budget", "-5"), POINTS_1D, "work budget must be >= 1, got -5"),
        (("experiment", "--plan", "{file}"), "spec = halton:bases=2|3|5\nschedule = 16,32\nalgo = 2d\n",
         "algo '2d' needs 2-dimensional points, got d = 3"),
        (("disc", "--in", "{file}", "--algo", "1d"), POINTS, "algo '1d' needs 1-dimensional points, got d = 2"),
        (("zaremba", "--to", "1"), None, "--to must be >= 2, got 1"),
        (("moser", "--to", "1"), None, "--to must be >= 2, got 1"),
        (("moser", "--to", "-3"), None, "--to must be >= 2, got -3"),
        (("scan-lattice", "--N", "5", "--d", "2", "--mode", "exhaustive", "--count", "3"), None, "count"),
        (("scan-lattice", "--N", "5", "--d", "2", "--seed", "3"), None, "seed"),
        # keys a spec family does not take, at any nesting level, and keys a file gives twice
        (("gen", "--spec", "kronecker:alphas=sqrt2,widht=64", "--count", "4"), None,
         "kronecker spec takes no key 'widht'"),
        (("gen", "--spec", "halton:bases=2,foo=3", "--count", "4"), None, "halton spec takes no key 'foo'"),
        (("gen", "--spec", "hybrid:left=(halton:bases=2),right=(kronecker:alphas=sqrt2,x=1)", "--count", "4"),
         None, "kronecker spec takes no key 'x'"),
        (("gen", "--spec", "digitsum:inner=(halton:bases=2),depth=3", "--count", "4"), None,
         "digitsum spec takes no key 'depth'"),
        (("experiment", "--plan", "{file}"), PLAN + "schedule = 16\n", "input:3: duplicate key 'schedule'"),
        (("gen", "--spec", "{file}", "--count", "4"), "spec = halton:bases=2\nspec = halton:bases=3\n",
         "input:2: duplicate key 'spec'"),
        (("gen", "--spec", "kronecker:width=64,alphas=bits:zz", "--count", "4"), None, "bad bits token 'bits:zz'"),
        (("disc", "--in", "{file}"), "# dim=2 count=3 count=2\n0\t0\n1/2\t1/2\n", "line 1: duplicate header key 'count'"),
        (("disc", "--in", "{file}"), "# dim=2 repr=exact repr=fixedpoint(8)\n0\t0\n", "line 1: duplicate header key 'repr'"),
    ],
    ids=["rational", "gens", "schedule", "plan-k", "plan-p", "plan-schedule", "fit-no-N", "fit-N",
         "fit-value", "fit-short-row", "random-size", "finiterandom-seed", "finiterandom-rho", "rows",
         "cfrac-bl", "op12-width-0", "op12-two-alphas", "halton-alpha-width", "op9-alpha", "plan-alpha",
         "plan-width", "plan-algo", "plan-k-1", "plan-unknown-key", "disc-2d-k", "disc-grid-k",
         "disc-bracket-k-1", "disc-auto-k-1", "disc-extreme-k", "disc-1d-k", "preset-1d-k", "plan-grid-k",
         "disc-budget-0", "disc-1d-budget", "plan-2d-on-3d", "disc-1d-on-2d", "zaremba-to-1", "moser-to-1",
         "moser-to-negative", "exhaustive-count", "exhaustive-seed", "spec-unknown-key", "halton-unknown-key",
         "nested-unknown-key", "digitsum-unknown-key", "plan-duplicate-key", "spec-file-duplicate-key",
         "bits-not-hex", "header-duplicate-count", "header-duplicate-repr"],
)
def test_malformed_numbers_exit_2(argv, text, names, tmp_path):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(*(a.replace("{file}", str(path)) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and names in err
    assert "Traceback" not in err


def test_cfrac_outputs():
    assert run_cli("cfrac", "--rational", "3/5") == (0, "3/5 = [0; 1, 1, 2]\n", "")
    assert run_cli("cfrac", "--rational", "0/5")[1] == "0/5 = [0]\n"
    assert run_cli("cfrac", "--surd", "8")[1] == "sqrt(8) = [2; (1, 4)]\n"
    assert run_cli("cfrac", "--a2k", "2")[1] == "A(2) = 10\n"
    code, out, _ = run_cli("cfrac", "--bl", "2")
    assert code == 0
    assert out == "K,A_K,B_K\n0,2,2\n1,4,4\n2,10,10\n"
    code, out, _ = run_cli("cfrac", "--bl", "7")
    rows = [tuple(map(int, line.split(","))) for line in out.splitlines()[1:]]
    assert [k for k, _, _ in rows] == list(range(8))
    assert [b for _, _, b in rows] == list(itertools.accumulate((a for _, a, _ in rows), max))
    assert run_cli("cfrac", "--surd", "16")[0] == 2


def test_zaremba_and_moser_tables():
    code, out, _ = run_cli("zaremba", "--to", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,min_max_quotient,witness"
    assert lines[1] == "2,2,1"
    assert lines[-1] == "6,5,5"
    code, out, _ = run_cli("moser", "--to", "4")
    assert code == 0
    assert out.startswith("N,min_quotient_sum,witness\n2,2,1\n")


def test_schmidt_command():
    code, out, _ = run_cli("schmidt", "--h", "2", "--gens", "1", "--N", "5", "--phi", "constant:1/2")
    assert code == 0
    assert out == "count=3\nmain_term=5/2\nresidual=1/2\n"
    code, _, err = run_cli("schmidt", "--h", "2", "--gens", "1", "--N", "5", "--phi", "blob:1")
    assert code == 2 and "weight" in err


def test_littlewood_command():
    code, out, _ = run_cli("littlewood", "--alpha", "1/2", "--beta", "1/2", "--nmax", "8")
    assert code == 0
    assert out == "min=0\nargmin=2\nerror_bound=0\n"
    code, _, err = run_cli(
        "littlewood", "--alpha", "sqrt2", "--beta", "sqrt3", "--nmax", "100000", "--width", "40"
    )
    assert code == 3


def test_scan_lattice_command():
    code, out, _ = run_cli("scan-lattice", "--N", "5", "--d", "2")
    assert code == 0
    assert out.startswith("statistic,value,vector\nvectors,25,\nmin,9/25,1|2\n")
    code, _, _ = run_cli("scan-lattice", "--N", "9", "--d", "2", "--mode", "sample",
                         "--count", "10", "--seed", "3")
    assert code == 0


def test_scan_lattice_sample_count_is_capped(monkeypatch):
    from lowdisc.experiments import MAX_SCAN_VECTORS

    def refuse(*args):
        raise AssertionError("a vector past the scan cap was evaluated")

    monkeypatch.setattr("lowdisc.experiments.lattice_point_set", refuse)
    code, _, err = run_cli("scan-lattice", "--N", "5", "--d", "2", "--mode", "sample",
                           "--count", str(MAX_SCAN_VECTORS + 1), "--seed", "1")
    assert code == 3
    assert err.startswith("budget exceeded:")


def test_scan_lattice_cost_is_capped_before_any_vector(monkeypatch):
    def refuse(*args):
        raise AssertionError("a vector past the cost cap was evaluated")

    monkeypatch.setattr("lowdisc.experiments.lattice_point_set", refuse)
    # 195,112 vectors pass the vector cap, but each 3D grid has up to 59^3 corners
    code, _, err = run_cli("scan-lattice", "--N", "58", "--d", "3")
    assert code == 3
    assert err.startswith("budget exceeded:")


def test_experiment_preset_and_fit_pipeline(tmp_path):
    table = tmp_path / "table.csv"
    code, _, _ = run_cli(
        "experiment", "--preset", "halton-2-3", "--schedule", "16,32,64,128,256",
        "--out", str(table),
    )
    assert code == 0
    text = table.read_text()
    assert text.startswith("N,kind,mode,value,lo,hi,halfwidth,normalized,error\n16,star,exact,29/144,")
    code, out, _ = run_cli("fit", "--in", str(table))
    assert code == 0
    assert out.startswith("exponent=") and "samples=5" in out


def test_fit_of_a_table_with_bracketed_rows_matches_the_library(tmp_path):
    from dataclasses import replace

    from lowdisc.experiments import fit_exponent, preset, run_scaling

    table = tmp_path / "table.csv"
    argv = ("experiment", "--preset", "halton-2-3", "--schedule", "1024,2048,4096", "--out", str(table))
    assert run_cli(*argv)[0] == 0
    assert [line.split(",")[2] for line in table.read_text().splitlines()[1:]] == ["exact", "exact", "bracketed"]
    fit = fit_exponent(run_scaling(replace(preset("halton-2-3"), schedule=(1024, 2048, 4096))))
    want = (f"exponent={fit.exponent:.12g}\nintercept={fit.intercept:.12g}\n"
            f"residual_norm={fit.residual_norm:.12g}\nsamples=3\n")
    assert run_cli("fit", "--in", str(table)) == (0, want, "")


def test_scaling_table_quotes_cells_that_need_it(tmp_path):
    import csv

    from lowdisc.experiments import ScalingRow, scaling_csv

    plan, table = tmp_path / "plan.cfg", tmp_path / "table.csv"
    plan.write_text("spec = rational-net:q=2,f=1.1.1,gs=1|1.1\nschedule = 2,4,8\n")
    assert run_cli("experiment", "--plan", str(plan), "--out", str(table))[0] == 0
    with open(table, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [9] * 4
    assert rows[3] == ["8"] + [""] * 7 + ["net index 4 outside [0, 4)"]
    code, out, err = run_cli("fit", "--in", str(table))
    assert (code, out, err) == (2, "", "error: need at least three rows with N >= 16 and positive values\n")
    text = scaling_csv([ScalingRow(n=5, result=None, normalized=None, error='a "b",\nc')])
    assert list(csv.reader(io.StringIO(text, newline="")))[1] == ["5"] + [""] * 7 + ['a "b",\nc']


def test_experiment_plan_file(tmp_path):
    plan = tmp_path / "plan.cfg"
    plan.write_text(
        "spec = power-ratio:p=3,r=2\nschedule = 16, 32, 64\nkind = star\nalgo = 1d\np = 1\n"
    )
    code, out, _ = run_cli("experiment", "--plan", str(plan))
    assert code == 0
    assert out.count("\n") == 4  # header + three rows


def test_disc_refuses_a_truncated_point_file(tmp_path):
    full, cut = tmp_path / "h.tsv", tmp_path / "h5.tsv"
    assert run_cli("gen", "--spec", "halton:bases=2|3", "--count", "8", "--out", str(full))[0] == 0
    cut.write_text("".join(full.read_text().splitlines(keepends=True)[:5]))
    code, out, err = run_cli("disc", "--in", str(cut))
    assert (code, out) == (2, "")
    assert err == "error: the header says count=8 but the file has 4 points\n"


def test_experiment_plan_applies_k_override(tmp_path):
    plan = tmp_path / "plan.cfg"
    plan.write_text("spec = halton:bases=2|3\nschedule = 16,32\nalgo = bracket\n")
    code, out, _ = run_cli("experiment", "--plan", str(plan), "--k", "4")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    # half widths at most d/2k = 1/4, and past the d/2k = 1/512 of the default k = 512
    assert [r[2] for r in rows] == ["bracketed"] * 2
    assert [r[6] for r in rows] == ["1/8", "3/16"]


def test_experiment_rejects_plan_without_schedule(tmp_path):
    plan = tmp_path / "plan.cfg"
    plan.write_text("spec = halton:bases=2\n")
    assert run_cli("experiment", "--plan", str(plan))[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--spec", "halton:bases=2|3", "--count", "24"),
        ("disc_pipeline",),
        ("cfrac", "--bl", "3"),
        ("zaremba", "--to", "40"),
        ("moser", "--to", "25"),
        ("schmidt", "--h", "2", "--gens", "1,2", "--N", "7", "--phi", "product:1/2"),
        ("littlewood", "--alpha", "sqrt2", "--beta", "sqrt3", "--nmax", "500"),
        ("scan-lattice", "--N", "7", "--d", "2", "--mode", "sample", "--count", "12", "--seed", "5"),
        ("experiment", "--preset", "power-3-2", "--schedule", "16,32,64"),
    ],
)
def test_commands_are_deterministic(argv, tmp_path):
    if argv == ("disc_pipeline",):
        pts = tmp_path / "p.tsv"
        run_cli("gen", "--spec", "halton:bases=2|3", "--count", "20", "--out", str(pts))
        argv = ("disc", "--in", str(pts), "--algo", "2d")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first == second
    assert first[0] == 0


def test_benchmark_tracer_still_wraps_the_program(tmp_path):
    # perfbench/tracing.py wraps names of the package (PointSet.rows among
    # them) and reads results by attribute; a refactor that moves one breaks
    # the traced benchmark run, so replay a small traced pass here.
    import importlib.util
    from pathlib import Path

    from lowdisc import cli

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pts, table = tmp_path / "p.tsv", tmp_path / "t.csv"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["gen", "--spec", "halton:bases=2|3", "--count", "16", "--out", str(pts)]) == 0
        assert cli.main(["disc", "--in", str(pts), "--algo", "grid", "--out", str(tmp_path / "d.json")]) == 0
        assert cli.main(["experiment", "--preset", "halton-2-3", "--schedule", "16,32", "--out", str(table)]) == 0
    finally:
        tracer.remove()
    import lowdisc

    # package names resolve from their modules at each access, so none outlives remove()
    assert (lowdisc.compute_discrepancy is lowdisc.discrepancy.compute_discrepancy
            and lowdisc.discrepancy.compute_discrepancy.__qualname__ == "compute_discrepancy")
    metrics = tracer.metrics()
    assert metrics["discrepancy.star_disc_exact.corners"] == 17 * 17
    assert metrics["pointio.read_points.rows"] == 16
    assert metrics["experiments.rows"] == 2


def _perfbench_module(name: str):
    """perfbench/NAME.py, loaded read-only by path (its dataclasses need it
    in ``sys.modules`` while it runs)."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def gate():
    yield from _perfbench_module("gate")


@pytest.fixture(scope="module")
def workloads():
    yield from _perfbench_module("workloads")


@pytest.mark.parametrize("name", ["c1-counterexample", "halton-2-3", "hammersley-lattice",
                                  "op12-digitsum-alpha", "op9-vdc-sqrt2", "power-3-2"])
def test_preset_tables_pass_the_benchmark_gate(gate, name):
    # the benchmark's exact-value gate, run in process: a changed exact row fails here too
    ref = gate.References().cli[f"experiment --preset {name}"]
    code, out, err = run_cli("experiment", "--preset", name)
    assert (code, err) == (ref["exit"], ref["stderr"])
    verdict = gate._check_table(ref["stdout"], out)
    assert verdict.status == "ok", verdict.message


def test_benchmark_point_files_pass_the_benchmark_gate(gate, workloads, tmp_path, monkeypatch):
    # every full-size gen and disc op of the benchmark, in process and in order, judged as the
    # benchmark judges it: pins its --algo bracket --k 1024 and --kind extreme --algo grid requests
    monkeypatch.chdir(tmp_path)
    (tmp_path / workloads.WORK_DIR).mkdir(parents=True)
    refs, state = gate.References(), gate.PassState()
    now_succeed = {"disc defect-rounding", "disc defect-auto3d"}  # recorded as failures, they run now
    ops = [op for op in workloads.command_ops(0, "full") if op.command in ("gen", "disc")]
    assert {op.name for op in ops} >= now_succeed | {"disc halton23 --algo bracket --k 1024"}
    for op in ops:
        code, out, err = run_cli(*op.argv)
        verdict = gate.check(refs, op, code, out, err, state)
        if op.name in now_succeed:
            assert (code, verdict.status) == (0, "unchecked"), (op.name, err)
        else:
            assert verdict.status == "ok", (op.name, verdict.message)
