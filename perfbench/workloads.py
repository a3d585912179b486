"""Operation lists of the two benchmark workloads.

Every list is built from the workload seed alone and is the same on every
pass of a run.  The program only ever sees the generated argv.

* ``presets``: one op is one ``experiment --preset NAME`` table.
* ``commands``: one op is one CLI invocation; ``gen --out`` is followed by
  ``disc --in`` on the same file.  It keeps the two known failing ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("presets", "commands")
SIZES = ("full", "tiny")
WORK_DIR = ".perfbench/work"

PRESETS = (
    "halton-2-3",
    "op9-vdc-sqrt2",
    "power-3-2",
    "c1-counterexample",
    "op12-digitsum-alpha",
    "hammersley-lattice",
)
# Short schedules for the tiny size (the default schedules are the full size).
TINY_SCHEDULES = {
    "halton-2-3": "16,32",
    "op9-vdc-sqrt2": "16,32",
    "power-3-2": "16,32",
    "c1-counterexample": "6,36",
    "op12-digitsum-alpha": "16,32",
    "hammersley-lattice": None,
}

KRON192 = "kronecker:width=192,alphas=sqrt2"
HALTON23 = "halton:bases=2|3"
OP9 = "hybrid:left=(halton:bases=2),right=(kronecker:width=192,alphas=sqrt2)"
C1 = "hybrid:left=(digital:q=3,L=26,matrices=onesrow),right=(digital:q=2,L=32,matrices=identity)"
# ROADMAP defect (a): decimal rendering rounds half up and writes 1.00.
DEFECT_ROUNDING = "kronecker:width=128,alphas=sqrt2"
# ROADMAP defect (b): auto falls back to a 513^3-cell bracket in d=3.
DEFECT_AUTO3D = "halton:bases=2|3|5"

# Input of the ``fit`` op: the recorded halton-2-3 table, written in set-up.
FIT_INPUT = f"{WORK_DIR}/halton-2-3.csv"


@dataclass(frozen=True)
class Op:
    """One CLI invocation."""

    name: str
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        """Reference key: the argv."""
        return " ".join(self.argv)

    def option(self, flag: str) -> str | None:
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return None


def lattice_key(size: int, gens) -> str:
    return "|".join(str(v) for v in (size, *gens))


def preset_ops(seed: int, size: str) -> list[Op]:
    ops = []
    for name in PRESETS:
        argv = ["experiment", "--preset", name]
        if size == "tiny" and TINY_SCHEDULES[name]:
            argv += ["--schedule", TINY_SCHEDULES[name]]
        ops.append(Op(name=f"experiment {name}", argv=tuple(argv)))
    random.Random(f"presets:{seed}").shuffle(ops)
    return ops


def _pair(label: str, spec: str, count: int, gen_extra=(), discs=((),)) -> list[Op]:
    path = f"{WORK_DIR}/{label}-{count}.tsv"
    ops = [Op(f"gen {label}", ("gen", "--spec", spec, "--count", str(count), "--out", path, *gen_extra))]
    for extra in discs:
        suffix = " ".join(extra)
        ops.append(Op(f"disc {label}" + (f" {suffix}" if suffix else ""), ("disc", "--in", path, *extra)))
    return ops


def _scan(dim: int, size: int, count: int, seed: int) -> Op:
    """scan-lattice over sampled vectors: the exact 2D sweep in d=2, the
    critical grid in d=3."""
    argv = ("scan-lattice", "--N", str(size), "--d", str(dim), "--mode", "sample",
            "--count", str(count), "--seed", str(seed))
    return Op(f"scan-lattice d={dim}", argv)


def command_ops(seed: int, size: str) -> list[Op]:
    """Every CLI command but ``experiment``, in groups whose order the seed
    shuffles; a ``gen`` always precedes the ``disc`` ops that read its file."""
    tiny = size == "tiny"
    groups = [
        _pair("kron192", KRON192, 1024 if tiny else 2**15),
        _pair("halton23", HALTON23, 256 if tiny else 2048,
              discs=((), ("--algo", "bracket", "--k", "1024"))),
        _pair("op9", OP9, 64 if tiny else 1024),
        _pair("c1dec12", C1, 216 if tiny else 7776, gen_extra=("--decimal", "12")),
        _pair("halton23x16", HALTON23, 16, discs=(("--kind", "extreme", "--algo", "grid"),)),
        # The two known failures keep their reproducing sizes at every size.
        _pair("defect-rounding", DEFECT_ROUNDING, 2000, gen_extra=("--decimal", "2")),
        _pair("defect-auto3d", DEFECT_AUTO3D, 48),
        [_scan(2, 16 if tiny else 64, 20 if tiny else 200, seed)],
        [_scan(3, 6 if tiny else 12, 5 if tiny else 20, seed)],
        [Op("zaremba", ("zaremba", "--to", "100" if tiny else "1000"))],
        [Op("moser", ("moser", "--to", "100" if tiny else "1000"))],
        [Op("littlewood", ("littlewood", "--alpha", "sqrt2", "--beta", "sqrt3",
                           "--nmax", "1000" if tiny else "100000"))],
        [Op("cfrac", ("cfrac", "--bl", "4" if tiny else "12"))],
        [Op("schmidt", ("schmidt", "--h", "3" if tiny else "10", "--gens", "3,5", "--N", "64",
                        "--phi", "constant:1/2"))],
        [Op("fit", ("fit", "--in", FIT_INPUT))],
    ]
    random.Random(f"commands:{seed}").shuffle(groups)
    return [op for group in groups for op in group]


def build_ops(workload: str, seed: int, size: str) -> list[Op]:
    if workload == "presets":
        return preset_ops(seed, size)
    if workload == "commands":
        return command_ops(seed, size)
    raise ValueError(f"unknown workload {workload!r}")


# The cheap op each set-up runs once, untimed, to warm the file cache and
# the interpreter before the first timed op.
WARMUP = {
    "presets": Op("experiment hammersley-lattice", ("experiment", "--preset", "hammersley-lattice")),
    "commands": Op("cfrac", ("cfrac", "--bl", "12")),
}
