"""Command-line front end.

Numeric output is exact ``p/q`` by default; pass ``--decimal DIGITS`` where
offered to render decimals instead.  Exit codes: 0 success, 2 validation
error, an unreadable file or a missing numpy, 3 budget exceeded.  Every
command is deterministic given its flags (sampling commands take explicit
seeds).

The parser is built without loading any computational module: each command
handler imports what it uses, so ``cfrac``, ``zaremba`` and ``moser`` load
only :mod:`lowdisc.diophantine` and :mod:`lowdisc.algebra`, and numpy is
loaded only where arrays are built: by ``scan-lattice``, and by ``gen``,
``disc`` and ``experiment`` unless every point column is a list of Python
ints over a scale above 2^63 and no kernel in d >= 2 runs.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .errors import BudgetError, ValidationError

__all__ = ["main"]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_keyvalue_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{what}: {text!r} is not an integer") from None


def _ints(text: str, what: str) -> tuple[int, ...]:
    """The integers of a comma- or blank-separated list."""
    return tuple(_int(v, what) for v in text.replace(",", " ").split())


def _spec_from_arg(arg: str):
    from .pointio import parse_spec

    if os.path.exists(arg):
        cfg = _read_keyvalue_file(arg)
        if "spec" not in cfg:
            raise ValidationError(f"spec file {arg} has no 'spec' key")
        return parse_spec(cfg["spec"])
    return parse_spec(arg)


# -- subcommand bodies ---------------------------------------------------------


def _cmd_gen(args) -> None:
    from .generators import stream
    from .pointio import point_header, write_points

    points = stream(_spec_from_arg(args.spec), args.start, args.count)
    point_header(points, args.decimal)  # a header that cannot be written fails before --out exists
    if args.out is None:
        write_points(points, sys.stdout, decimal=args.decimal)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_points(points, fh, decimal=args.decimal)


def _cmd_disc(args) -> None:
    from .discrepancy import DEFAULT_WORK_BUDGET, compute_discrepancy
    from .pointio import read_points

    if args.infile == "-":
        data = read_points(sys.stdin)
    else:
        with open(args.infile, encoding="utf-8") as fh:
            data = read_points(fh)
    budget = DEFAULT_WORK_BUDGET if args.budget is None else args.budget
    result = compute_discrepancy(data.columns, kind=args.kind, algo=args.algo, k=args.k, work_budget=budget)
    _emit(result.to_json(decimal=args.decimal) + "\n", args.out)


def _cmd_scan_lattice(args) -> None:
    from .experiments import lattice_scan, lattice_scan_csv

    summary = lattice_scan(
        args.N, args.d, args.mode, count=args.count, seed=args.seed
    )
    _emit(lattice_scan_csv(summary), args.out)


def _cmd_cfrac(args) -> None:
    from .diophantine import cf_rational, cf_surd, largest_quotient_2k_sqrt2, scan_report_csv

    if args.rational is not None:
        parts = args.rational.split("/")
        if len(parts) != 2:
            raise ValidationError("--rational expects a/N")
        a, n = (_int(v, "--rational") for v in parts)
        cf = cf_rational(a, n)
        body = "; ".join([str(cf.quotients[0]), ", ".join(map(str, cf.tail))]).rstrip("; ")
        _emit(f"{a}/{n} = [{body}]\n", args.out)
    elif args.surd is not None:
        cf = cf_surd(args.surd)
        head = ", ".join(map(str, cf.preperiod[1:]))
        period = ", ".join(map(str, cf.period))
        middle = f"{head}, ({period})" if head else f"({period})"
        _emit(f"sqrt({args.surd}) = [{cf.preperiod[0]}; {middle}]\n", args.out)
    elif args.a2k is not None:
        _emit(f"A({args.a2k}) = {largest_quotient_2k_sqrt2(args.a2k)}\n", args.out)
    else:
        if args.bl < 0:
            raise ValidationError("L must be >= 0")
        quotients = [largest_quotient_2k_sqrt2(k) for k in range(args.bl + 1)]
        rows = zip(range(args.bl + 1), quotients, itertools.accumulate(quotients, max))
        _emit(scan_report_csv(("K", "A_K", "B_K"), rows), args.out)


def _cmd_quotient_scan(args) -> None:
    from . import diophantine

    if args.to < 2:
        raise ValidationError(f"--to must be >= 2, got {args.to}")
    scan = getattr(diophantine, args.scan)
    rows = [(n, *scan(n)) for n in range(2, args.to + 1)]
    _emit(diophantine.scan_report_csv(args.header, rows), args.out)


def _cmd_schmidt(args) -> None:
    from .diophantine import PhiSpec, schmidt_count
    from .pointio import format_coordinate

    res = schmidt_count(args.h, _ints(args.gens, "--gens"), args.N, PhiSpec.parse(args.phi))
    text = (
        f"count={res.count}\n"
        f"main_term={format_coordinate(res.main_term, args.decimal)}\n"
        f"residual={format_coordinate(res.residual, args.decimal)}\n"
    )
    _emit(text, args.out)


def _cmd_littlewood(args) -> None:
    from .diophantine import littlewood_scan
    from .pointio import DEFAULT_WIDTH, format_coordinate, parse_alpha

    width = DEFAULT_WIDTH if args.width is None else args.width
    alpha = parse_alpha(args.alpha, width)
    beta = parse_alpha(args.beta, width)
    res = littlewood_scan(alpha, beta, args.nmax)
    text = (
        f"min={format_coordinate(res.min_value, args.decimal)}\n"
        f"argmin={res.argmin}\n"
        f"error_bound={format_coordinate(res.per_coordinate_error, args.decimal)}\n"
    )
    _emit(text, args.out)


def _cmd_experiment(args) -> None:
    from dataclasses import replace

    from .experiments import plan_from_settings, preset, run_scaling, scaling_csv

    if args.plan is None:
        plan = preset(args.preset, alpha=args.alpha, width=args.width)
    elif args.alpha is not None or args.width is not None:
        raise ValidationError("--alpha and --width fill preset specs; a plan file states its spec")
    else:
        plan = plan_from_settings(_read_keyvalue_file(args.plan), args.plan)
    overrides: dict = {}
    if args.schedule is not None:
        overrides["schedule"] = _ints(args.schedule, "--schedule")
    if args.k is not None:
        overrides["bracket_k"] = args.k
    rows = run_scaling(replace(plan, **overrides))
    _emit(scaling_csv(rows, decimal=args.decimal), args.out)


def _cmd_fit(args) -> None:
    import csv
    from fractions import Fraction

    from .fit import fit_exponent

    with open(args.infile, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if "N" not in (reader.fieldnames or ()):
            raise ValidationError(f"{args.infile}: the table has no N column")
        pairs = []
        for row in reader:
            if row.get("error"):
                continue
            try:
                n = int(row["N"])
                ends = [row["value"]] * 2 if row.get("value") else [row.get("lo"), row.get("hi")]
                if all(ends):  # an exact value, or the midpoint of a bracket
                    pairs.append((n, float(sum(map(Fraction, ends)) / 2)))
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValidationError(
                    f"{args.infile}:{reader.line_num}: N must be an integer and value, lo, hi fractions"
                ) from None
    fit = fit_exponent(pairs)
    text = (
        f"exponent={fit.exponent:.12g}\n"
        f"intercept={fit.intercept:.12g}\n"
        f"residual_norm={fit.residual_norm:.12g}\n"
        f"samples={fit.sample_count}\n"
    )
    _emit(text, args.out)


# -- parser ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowdisc",
        description="Point sequences on the unit cube, their discrepancy, and diophantine scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit points of a sequence")
    p.add_argument("--spec", required=True, help="inline spec string or a key-value file")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--decimal", type=int, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("disc", help="discrepancy of a point file")
    p.add_argument("--in", dest="infile", required=True, help="point file, or - for stdin")
    p.add_argument("--kind", choices=("star", "extreme"), default="star")
    p.add_argument("--algo", choices=("auto", "1d", "2d", "grid", "bracket"), default="auto")
    p.add_argument("--k", type=int, default=None,
                   help="bracket resolution (>= 2) of the star kind, for --algo bracket or auto in d >= 2;"
                        " auto lowers a larger k, in any d, to the largest whose (k+1)^d lattice fits its cell cap"
                        " of 1e7 (3161 in 2D, 214 in 3D, 55 in 4D)")
    p.add_argument("--budget", type=int, default=None,
                   help="most grid cells (>= 1) a kernel may visit (corners, corner pairs or lattice points)")
    p.add_argument("--out")
    p.add_argument("--decimal", type=int, default=None)
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("scan-lattice", help="distribution of D* over generating vectors")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--count", type=int, default=None, help="sample mode only")
    p.add_argument("--seed", type=int, default=None, help="sample mode only")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scan_lattice)

    p = sub.add_parser("cfrac", help="continued fraction expansions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rational", help="a/N")
    group.add_argument("--surd", type=int, help="expand sqrt(D)")
    group.add_argument("--a2k", type=int, help="largest quotient of 2^K sqrt(2)")
    group.add_argument("--bl", type=int, help="table of running maxima up to L")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cfrac)

    p = sub.add_parser("zaremba", help="minimal largest partial quotient per modulus")
    p.add_argument("--to", type=int, required=True, help="largest modulus (>= 2)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_quotient_scan, scan="zaremba_scan",
                   header=("N", "min_max_quotient", "witness"))

    p = sub.add_parser("moser", help="minimal partial-quotient sum per modulus")
    p.add_argument("--to", type=int, required=True, help="largest modulus (>= 2)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_quotient_scan, scan="moser_scan",
                   header=("N", "min_quotient_sum", "witness"))

    p = sub.add_parser("schmidt", help="lattice fractional-part counting")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--gens", required=True, help="comma-separated generators")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--phi", required=True, help="constant:c or product:c")
    p.add_argument("--out")
    p.add_argument("--decimal", type=int, default=None)
    p.set_defaults(func=_cmd_schmidt)

    p = sub.add_parser("littlewood", help="minimum of n ||n a|| ||n b||")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--out")
    p.add_argument("--decimal", type=int, default=None)
    p.set_defaults(func=_cmd_littlewood)

    p = sub.add_parser("experiment", help="run a scaling study")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset")
    group.add_argument("--plan", help="key-value plan file")
    p.add_argument("--schedule", help="override schedule, comma-separated")
    p.add_argument("--alpha", help="alpha token for op12-digitsum-alpha")
    p.add_argument("--width", type=int, help="fixed-point bits for op9-vdc-sqrt2 and op12-digitsum-alpha")
    p.add_argument("--k", type=int, default=None, help="bracket resolution override")
    p.add_argument("--out")
    p.add_argument("--decimal", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("fit", help="fit the exponent of a scaling table")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: this command needs numpy, which could not be imported ({exc})", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
