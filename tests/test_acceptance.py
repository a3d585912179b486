"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them silently as ordinary tests.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

import pytest

from lowdisc.algebra import GenMatrix, LaurentSeries
from lowdisc.cli import main as cli_main
from lowdisc.diophantine import cf_rational, largest_quotient_2k_sqrt2, zaremba_scan
from lowdisc.discrepancy import (
    brute_force_oracle,
    extreme_disc_1d,
    star_disc_1d,
    star_disc_2d_sweep,
    star_disc_bracket,
    star_disc_exact,
)
from lowdisc.experiments import fit_exponent, ln_bounds, preset, run_scaling
from lowdisc.generators import (
    Digital,
    DigitalKronecker,
    Halton,
    RationalNet,
    radical_inverse,
    stream,
)


def _announce(tag: str, text: str) -> None:
    print(f"[acceptance] {tag} {text}: PASS")


def _random_rows(rng: random.Random, n: int, d: int):
    dens = (3, 4, 5, 7, 8, 16)
    return [
        tuple(Fraction(rng.randrange(0, den), den) for den in (rng.choice(dens) for _ in range(d)))
        for _ in range(n)
    ]


def test_a1_oracle_equivalence():
    rng = random.Random(0xA1)
    checked = 0
    for _ in range(200):
        rows = _random_rows(rng, rng.randrange(1, 9), 1)
        assert star_disc_1d(rows).value == brute_force_oracle(rows, "star")
        assert extreme_disc_1d(rows).value == brute_force_oracle(rows, "extreme")
        checked += 1
    for _ in range(100):
        rows = _random_rows(rng, rng.randrange(1, 9), 2)
        want = brute_force_oracle(rows, "star")
        assert star_disc_2d_sweep(rows).value == want
        assert star_disc_exact(rows).value == want
        checked += 1
    for _ in range(60):
        rows = _random_rows(rng, rng.randrange(1, 7), 3)
        assert star_disc_exact(rows).value == brute_force_oracle(rows, "star")
        checked += 1
    assert checked == 360
    _announce("A1", f"oracle equivalence on {checked} random point sets")


def test_a2_construction_identities():
    vdc = Digital(2, (GenMatrix.identity(2),), precision=28)
    assert stream(vdc, 0, 1 << 12).rows() == [(radical_inverse(n, 2),) for n in range(1 << 12)]

    q = 2
    pairs = 0
    for t in range(1, 7):
        modulus = (0,) * t + (1,)
        for gbits in range(1, 2**t, 2):  # g(0) = 1 keeps g coprime to x^t
            g = tuple((gbits >> i) & 1 for i in range(t))
            net = RationalNet(q, modulus, (g,))
            series = LaurentSeries.from_rational(q, g, modulus, depth=2 * t)
            dk = DigitalKronecker(q, (series,), precision=t)
            rows = stream(net, 0, q**t).rows()
            assert rows == stream(dk, 0, q**t).rows()
            # closed form: n(x) g(x) mod x^t, coefficients mod q, read at x = q, over q^t
            for n, (x,) in enumerate(rows):
                digits = [n // q**i % q for i in range(t)]
                coeffs = [sum(digits[i] * g[c - i] for i in range(c + 1)) % q for c in range(t)]
                assert x == Fraction(sum(c * q**i for i, c in enumerate(coeffs)), q**t)
            pairs += q**t
    _announce("A2", f"construction identities (4096 radical-inverse points, {pairs} net points)")


def test_a3_universal_lower_constant_for_vdc():
    bound = Fraction(6015, 100000)
    witnessed = False
    for j in range(1, 17):
        n = 1 << j
        value = star_disc_1d(stream(Halton((2,)), 0, n)).value
        _, ub = ln_bounds(n)
        if n * value >= bound * ub:  # certifies N * D / ln N >= bound
            witnessed = True
    assert witnessed
    _announce("A3", "van der Corput normalized star discrepancy exceeds 6015/100000")


# frozen at first computation; reruns must reproduce these exact rationals
HALTON23_FIXTURE = (
    (1 << 4, Fraction(29, 144)),
    (1 << 5, Fraction(5, 48)),
    (1 << 6, Fraction(5, 96)),
    (1 << 7, Fraction(95, 2592)),
    (1 << 8, Fraction(389, 20736)),
    (1 << 9, Fraction(1409, 124416)),
    (1 << 10, Fraction(7, 1024)),
    (1 << 11, Fraction(8221, 2239488)),
    (1 << 12, Fraction(16693, 8957952)),
)


def test_a4_halton23_low_discrepancy_fixture():
    for n, frozen in HALTON23_FIXTURE:
        value = star_disc_2d_sweep(stream(Halton((2, 3)), 0, n)).value
        assert value == frozen
        lb, _ = ln_bounds(n)
        assert n * value <= 5 * lb * lb  # N * D / (ln N)^2 <= 5, certified exactly
    _announce("A4", "base-(2,3) two-dimensional fixture matches and stays below 5/(ln N)^-2 law")


def test_a5_continued_fraction_fixtures():
    assert largest_quotient_2k_sqrt2(0) == 2
    assert largest_quotient_2k_sqrt2(1) == 4
    assert largest_quotient_2k_sqrt2(2) == 10
    count = 0
    for n in range(2, 501):
        for a in range(1, n):
            if gcd(a, n) != 1:
                continue
            cf = cf_rational(a, n)
            assert cf.value() == Fraction(a, n)
            count += 1
    _announce("A5", f"surd quotients 2/4/10 and {count} exact rational round-trips")


def test_a6_bounded_quotient_witness_to_1000():
    worst = 0
    for n in range(2, 1001):
        stat, witness = zaremba_scan(n)
        assert stat <= 5
        assert gcd(witness, n) == 1
        assert max(cf_rational(witness, n).tail) == stat
        worst = max(worst, stat)
    _announce("A6", f"every modulus to 1000 has a coprime witness with quotients <= {worst}")


def test_a7_counterexample_hybrid_uniformity():
    plan = preset("c1-counterexample")
    spec = plan.spec
    small = star_disc_bracket(stream(spec, 0, 6**3), 512)
    large = star_disc_bracket(stream(spec, 0, 6**6), 512)
    assert large.hi < small.lo  # disjoint intervals: discrepancy strictly decreased
    _announce(
        "A7",
        f"hybrid counterexample bracket at 6^6 [{float(large.lo):.5f}, {float(large.hi):.5f}] "
        f"sits below 6^3 [{float(small.lo):.5f}, {float(small.hi):.5f}]",
    )


def test_a8_perturbation_contract():
    rng = random.Random(0xA8)
    eps = Fraction(1, 1 << 20)
    top = Fraction((1 << 26) - 1, 1 << 26)
    for _ in range(100):
        n = rng.randrange(1, 65)
        base = [
            (Fraction(rng.randrange(0, 1 << 20), 1 << 20), Fraction(rng.randrange(0, 1 << 20), 1 << 20))
            for _ in range(n)
        ]
        pert = []
        for x, y in base:
            dx = Fraction(rng.randrange(-64, 65), 1 << 26)
            dy = Fraction(rng.randrange(-64, 65), 1 << 26)
            pert.append((min(max(x + dx, Fraction(0)), top), min(max(y + dy, Fraction(0)), top)))
        a = star_disc_2d_sweep(base).value
        b = star_disc_2d_sweep(pert).value
        assert abs(a - b) <= 2 * 2 * eps
    _announce("A8", "100 sup-norm perturbation pairs stay within 2 d eps")


def test_a9_fit_recovers_planted_exponents():
    for p in (0, 1, 2, 3):
        rows = [(n, math.log(n) ** p / n) for n in (16, 64, 256, 1024, 4096, 16384, 65536)]
        fit = fit_exponent(rows)
        assert abs(fit.exponent - p) < 1e-9
    _announce("A9", "planted exponents 0..3 recovered within 1e-9")


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_a10_cli_determinism(tmp_path):
    pts = tmp_path / "pts.tsv"
    assert _run_cli(["gen", "--spec", "halton:bases=2|3", "--count", "48", "--out", str(pts)])[0] == 0
    small = tmp_path / "small.tsv"
    assert _run_cli(["gen", "--spec", "halton:bases=2|3", "--count", "12", "--out", str(small)])[0] == 0
    table = tmp_path / "table.csv"
    assert (
        _run_cli(
            ["experiment", "--preset", "halton-2-3", "--schedule", "16,32,64", "--out", str(table)]
        )[0]
        == 0
    )
    plan = tmp_path / "plan.cfg"
    plan.write_text("spec = lattice:N=2,gens=1|1\nschedule = 8, 16\nalgo = 2d\np = 0\n")
    commands = [
        ["gen", "--spec", "halton:bases=2|3", "--count", "48"],
        ["gen", "--spec", "kronecker:width=96,alphas=sqrt2|golden", "--count", "16", "--decimal", "12"],
        ["disc", "--in", str(pts)],
        ["disc", "--in", str(pts), "--algo", "bracket", "--k", "64"],
        ["disc", "--in", str(small), "--kind", "extreme", "--algo", "grid"],
        ["scan-lattice", "--N", "6", "--d", "2"],
        ["scan-lattice", "--N", "11", "--d", "2", "--mode", "sample", "--count", "9", "--seed", "4"],
        ["cfrac", "--rational", "355/113"],
        ["cfrac", "--surd", "32"],
        ["cfrac", "--a2k", "3"],
        ["cfrac", "--bl", "4"],
        ["zaremba", "--to", "60"],
        ["moser", "--to", "40"],
        ["schmidt", "--h", "3", "--gens", "2,3", "--N", "11", "--phi", "product:1/2"],
        ["littlewood", "--alpha", "sqrt2", "--beta", "sqrt3", "--nmax", "2000"],
        ["experiment", "--preset", "op9-vdc-sqrt2", "--schedule", "16,64,256"],
        ["experiment", "--preset", "op12-digitsum-alpha", "--alpha", "golden", "--schedule", "16,64"],
        ["experiment", "--preset", "c1-counterexample", "--schedule", "36,216"],
        ["experiment", "--plan", str(plan)],
        ["fit", "--in", str(table)],
    ]
    for argv in commands:
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first[0] == 0, f"{argv} failed: {first[2]}"
        assert first == second, f"nondeterministic output for {argv}"
    _announce("A10", f"{len(commands)} CLI invocations byte-identical on rerun")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
