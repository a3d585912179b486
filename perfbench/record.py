"""Record the reference outputs of the gate from the current sources.

    python3 perfbench/record.py

Runs every CLI op of the ``presets`` and ``commands`` workloads (both
sizes) in process and stores exit code, output and, for ``gen``, the
sha256 of the written file (plus the file itself for decimal renderings).
Stores the exact D* of every vector ``scan-lattice`` can sample.  The committed references
were recorded from the seed code; re-record only for a deliberate change
of output, and say so.
"""

from __future__ import annotations

import gzip
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

import gate
import run
import workloads


def record_cli(refs: dict, ops, gz_dir: Path) -> None:
    for op in ops:
        if op.command == "scan-lattice" or op.key in refs:
            continue  # scan-lattice is checked against the lattice table
        rc, out, err, _ = run.run_in_process(op)
        entry = {"exit": rc, "stdout": out, "stderr": err}
        if op.command == "gen" and rc == 0:
            data = Path(op.option("--out")).read_bytes()
            entry["sha256"] = hashlib.sha256(data).hexdigest()
            if op.option("--decimal"):
                entry["gz"] = f"gen-{entry['sha256'][:16]}.tsv.gz"
                with gzip.GzipFile(gz_dir / entry["gz"], "wb", mtime=0) as fh:
                    fh.write(data)
        refs[op.key] = entry
        print(f"exit {rc}  {op.key[:100]}", file=sys.stderr)


def record_lattices() -> dict[str, str]:
    from lowdisc.discrepancy import compute_discrepancy
    from lowdisc.generators import lattice_point_set

    table = {}
    vectors = []
    for size in workloads.SIZES:
        for scan in (op for op in workloads.command_ops(0, size) if op.command == "scan-lattice"):
            n, d = int(scan.option("--N")), int(scan.option("--d"))
            algo = "2d" if d == 2 else "grid"  # as lattice_scan chooses
            vectors += [(n, gens, algo) for gens in itertools.product(range(n), repeat=d)]
    for n, gens, algo in vectors:
        result = compute_discrepancy(lattice_point_set(n, gens), algo=algo)
        table[workloads.lattice_key(n, gens)] = str(result.value)
    return table


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    gate.REF_DIR.mkdir(exist_ok=True)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    refs: dict = {}
    for size in workloads.SIZES:
        record_cli(refs, workloads.preset_ops(0, size), gate.REF_DIR)
    Path(workloads.FIT_INPUT).write_text(refs["experiment --preset halton-2-3"]["stdout"])
    for size in workloads.SIZES:
        record_cli(refs, workloads.command_ops(0, size), gate.REF_DIR)
    (gate.REF_DIR / "cli.json").write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    table = record_lattices()
    (gate.REF_DIR / "lattice.json").write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(refs)} CLI ops and {len(table)} lattices in {gate.REF_DIR}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
