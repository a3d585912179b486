"""Exact-value gate: every output of a benchmark op against the output the
seed code gave for the same op (recorded by ``record.py`` under ``ref/``).

* An exact value (``exact`` or ``exact-represented``) must match byte for
  byte.
* A bracketed reference ``[lo, hi]`` passes a new result that is exact and
  inside it, or a bracket that overlaps it, so tighter results pass.
* An op the seed failed on (exit code and message recorded) is a known
  failure while it fails the same way; once it succeeds its value has no
  reference and is reported as unchecked.
* A ``gen --decimal D`` file may differ from the recorded rendering by one
  unit in the last digit (a change of rounding mode).  A ``disc`` on such a
  file may then move by at most d * 10^-D, since moving every point by at
  most e in each coordinate moves the star discrepancy by at most d * e.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

EXACT_MODES = ("exact", "exact-represented")
REF_DIR = Path(__file__).resolve().parent / "ref"


@dataclass
class Verdict:
    status: str  # "ok" | "failed" | "known-failure" | "unchecked"
    message: str = ""
    exact: int = 0  # discrepancy results certified exact
    results: int = 0  # discrepancy results


@dataclass
class PassState:
    """What one pass learned that later ops of the same pass need: decimal
    files whose rendering differs from the recorded one, with their digits."""

    tolerated: dict[str, int] = field(default_factory=dict)


class References:
    def __init__(self, ref_dir: Path = REF_DIR) -> None:
        self.dir = Path(ref_dir)
        self.cli: dict = json.loads((self.dir / "cli.json").read_text())
        self.lattice: dict[str, str] = json.loads((self.dir / "lattice.json").read_text())

    def gz_lines(self, name: str) -> list[str]:
        with gzip.open(self.dir / name, "rt", encoding="utf-8") as fh:
            return fh.read().splitlines()


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def check(refs: References, op, rc: int, stdout: str, stderr: str, state: PassState) -> Verdict:
    """Judge one CLI op from its exit code and output."""
    if op.command == "scan-lattice":
        return _check_scan(refs, op, rc, stdout, stderr)
    ref = refs.cli.get(op.key)
    if ref is None:
        return Verdict("unchecked", "no recorded reference for this op")
    if ref["exit"] != 0:
        if rc == ref["exit"] and stderr == ref["stderr"]:
            return Verdict("known-failure", f"exit {rc}: {_last_line(stderr)}")
        if rc == 0:
            verdict = Verdict("unchecked", f"recorded exit {ref['exit']} now succeeds; no reference value")
            if op.command == "disc":
                verdict.results, verdict.exact = 1, int(json.loads(stdout)["mode"] in EXACT_MODES)
            return verdict
        return Verdict("failed", f"exit {rc} (recorded exit {ref['exit']}): {_last_line(stderr)}")
    if rc != 0:
        return Verdict("failed", f"exit {rc}: {_last_line(stderr)}")
    if op.command == "experiment":
        return _check_table(ref["stdout"], stdout)
    if op.command == "disc":
        return _check_disc(ref["stdout"], stdout, op, state)
    if op.command == "gen":
        return _check_gen_file(refs, ref, op, state)
    return _check_text(ref["stdout"], stdout)


def _check_text(expected: str, got: str) -> Verdict:
    if got == expected:
        return Verdict("ok")
    exp_lines, got_lines = expected.splitlines(), got.splitlines()
    for i, (a, b) in enumerate(zip(exp_lines, got_lines), start=1):
        if a != b:
            return Verdict("failed", f"line {i} is {b!r}, recorded {a!r}")
    return Verdict("failed", f"{len(got_lines)} lines, recorded {len(exp_lines)}")


def _value_error(ref_mode: str, ref_value, mode: str, value, tolerance: Fraction = Fraction(0)) -> str | None:
    """Why a new (mode, value) fails against a recorded one, or None.
    Exact values are Fractions, brackets are (lo, hi) pairs."""
    if ref_mode in EXACT_MODES:
        if mode not in EXACT_MODES:
            return f"recorded {ref_mode} {ref_value}, now {mode} {value}"
        if mode != ref_mode or abs(value - ref_value) > tolerance:
            return f"recorded {ref_mode} {ref_value}, now {mode} {value}"
        return None
    lo, hi = ref_value[0] - tolerance, ref_value[1] + tolerance
    if mode in EXACT_MODES:
        if lo <= value <= hi:
            return None
        return f"exact {value} outside recorded bracket [{lo}, {hi}]"
    new_lo, new_hi = value
    if new_lo <= hi and lo <= new_hi:
        return None
    return f"bracket [{new_lo}, {new_hi}] misses recorded bracket [{lo}, {hi}]"


def _table_rows(text: str) -> tuple[str, dict[str, tuple[str, list[str]]]]:
    lines = text.strip().splitlines()
    rows = {}
    for line in lines[1:]:
        cols = line.split(",", 8)
        rows[cols[0]] = (line, cols)
    return (lines[0] if lines else ""), rows


def _row_value(cols: list[str]):
    """(mode, value) of a scaling-table row; mode is '' for an error row."""
    mode = cols[2]
    if mode == "bracketed":
        return mode, (Fraction(cols[4]), Fraction(cols[5]))
    return mode, (Fraction(cols[3]) if mode else None)


def _check_table(expected: str, got: str) -> Verdict:
    ref_header, ref_rows = _table_rows(expected)
    header, rows = _table_rows(got)
    if header != ref_header:
        return Verdict("failed", f"header {header!r}, recorded {ref_header!r}")
    if list(rows) != list(ref_rows):
        return Verdict("failed", f"rows N={','.join(rows)}, recorded N={','.join(ref_rows)}")
    verdict = Verdict("ok")
    problems = []
    for n, (ref_line, ref_cols) in ref_rows.items():
        line, cols = rows[n]
        mode, value = _row_value(cols)
        if mode:
            verdict.results += 1
            verdict.exact += mode in EXACT_MODES
        ref_mode, ref_value = _row_value(ref_cols)
        if not ref_mode:
            if line != ref_line and mode:
                verdict.status = "unchecked"
                verdict.message = f"N={n}: recorded error row now has a value"
            elif line != ref_line:
                problems.append(f"N={n}: error {cols[8]!r}, recorded {ref_cols[8]!r}")
            continue
        if ref_mode in EXACT_MODES and line != ref_line:
            problems.append(f"N={n}: row {line!r}, recorded {ref_line!r}")
            continue
        if not mode:
            problems.append(f"N={n}: error {cols[8]!r}, recorded a {ref_mode} value")
            continue
        error = _value_error(ref_mode, ref_value, mode, value)
        if error:
            problems.append(f"N={n}: {error}")
    if problems:
        verdict.status, verdict.message = "failed", "; ".join(problems)
    return verdict


def _disc_value(payload: dict):
    value = payload["value"]
    if payload["mode"] == "bracketed":
        return payload["mode"], (Fraction(value[0]), Fraction(value[1]))
    return payload["mode"], Fraction(value)


def _check_disc(expected: str, got: str, op, state: PassState) -> Verdict:
    ref, new = json.loads(expected), json.loads(got)
    verdict = Verdict("ok", exact=int(new["mode"] in EXACT_MODES), results=1)
    path = op.option("--in")
    if path in state.tolerated:
        tolerance = Fraction(ref["d"], 10 ** state.tolerated[path])
        error = _value_error(*_disc_value(ref), *_disc_value(new), tolerance)
    elif got == expected:
        return verdict
    else:
        error = _value_error(*_disc_value(ref), *_disc_value(new))
        if error is None and ref["mode"] in EXACT_MODES:
            error = f"output {got.strip()}, recorded {expected.strip()}"
    if error:
        verdict.status, verdict.message = "failed", error
    return verdict


def _check_gen_file(refs: References, ref: dict, op, state: PassState) -> Verdict:
    path = op.option("--out")
    data = Path(path).read_bytes()
    if hashlib.sha256(data).hexdigest() == ref["sha256"]:
        return Verdict("ok")
    digits = op.option("--decimal")
    if digits is None:
        return Verdict("failed", f"{path} differs from the recorded file (sha256)")
    lines = data.decode().splitlines()
    recorded = refs.gz_lines(ref["gz"])
    if len(lines) != len(recorded) or lines[0] != recorded[0]:
        return Verdict("failed", f"{path}: header or line count differs from the recorded file")
    scale = 10 ** int(digits)
    for lineno, (a, b) in enumerate(zip(lines[1:], recorded[1:]), start=2):
        got, want = a.split("\t"), b.split("\t")
        if len(got) != len(want) or any(
            abs(Fraction(x) * scale - Fraction(y) * scale) > 1 for x, y in zip(got, want)
        ):
            return Verdict("failed", f"{path} line {lineno}: {a!r}, recorded {b!r}")
    state.tolerated[path] = int(digits)
    return Verdict("ok", f"{path} renders within one unit of the last digit of the recorded file")


def _check_scan(refs: References, op, rc: int, got: str, stderr: str) -> Verdict:
    """scan-lattice samples by its own seeded generator, so every reported
    value is checked against the recorded D* of its vector (min, max) or
    the recorded values of all vectors (quantiles)."""
    if rc != 0:
        return Verdict("failed", f"exit {rc}: {_last_line(stderr)}")
    size, dim, count = op.option("--N"), int(op.option("--d")), op.option("--count")
    prefix = f"{size}|"
    known = {k: Fraction(v) for k, v in refs.lattice.items()
             if k.startswith(prefix) and k.count("|") == dim}
    values = set(known.values())
    rows = [line.split(",") for line in got.strip().splitlines()[1:]]
    stats = {name: (value, vector) for name, value, vector in rows}
    problems = []
    if stats.get("vectors", ("",))[0] != count:
        problems.append(f"vectors={stats.get('vectors', ('?',))[0]}, expected {count}")
    order = []
    for name, (value, vector) in stats.items():
        if name == "vectors":
            continue
        value = Fraction(value)
        order.append(value)
        if vector:
            key = prefix + vector
            if key not in known:
                return Verdict("unchecked", f"no recorded value for vector {vector}")
            if known[key] != value:
                problems.append(f"{name}: D*({vector}) = {value}, recorded {known[key]}")
        elif value not in values:
            problems.append(f"{name}: {value} is no recorded D* of an N={size} lattice")
    if order != sorted(order):
        problems.append("statistics are not in increasing order")
    return Verdict("failed", "; ".join(problems)) if problems else Verdict("ok")
