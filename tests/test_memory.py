"""Memory guards on the point pipeline, measured with tracemalloc.

tracemalloc counts Python objects and numpy buffers alike and does not
depend on the machine, so these bounds are deterministic.  Each bound sits
between what the pipeline holds by design (its output plus one bounded
chunk or block) and what a batch-wide digit matrix, a whole-file buffer or
per-point big-int temporaries would cost.
"""

from __future__ import annotations

import io
import math
import tracemalloc
from collections import deque
from contextlib import redirect_stdout

import pytest

from lowdisc import cli, discrepancy
from lowdisc.discrepancy import star_disc_bracket, star_disc_exact
from lowdisc.experiments import preset
from lowdisc.generators import Halton, stream

MB = 1 << 20


def traced_peak(fn):
    """``fn()`` and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_digital_generation_holds_its_columns_and_one_chunk():
    spec = preset("c1-counterexample").spec
    stream(spec, 0, 6)  # first-call set-up stays out of the measurement
    points, peak = traced_peak(lambda: stream(spec, 0, 6**6))
    columns = sum(c.nbytes for c in points.columns)
    assert columns < 1 * MB
    # batch-wide (N x digits) matrices took 11 MB here
    assert peak < 4 * MB


def test_gen_streams_its_rows_to_the_file(tmp_path):
    path = tmp_path / "kron192.tsv"
    argv = ["gen", "--spec", "kronecker:width=192,alphas=sqrt2", "--count", str(2**15), "--out", str(path)]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    # the 2^15 big-int numerators fit; a copy of the whole text does not
    assert peak < path.stat().st_size


def test_disc_of_a_wide_1d_file_holds_one_list_per_axis(tmp_path):
    small, path = tmp_path / "k64.tsv", tmp_path / "kron192.tsv"
    for target, count in ((small, 64), (path, 2**15)):
        argv = ["gen", "--spec", "kronecker:width=192,alphas=sqrt2", "--count", str(count), "--out", str(target)]
        assert cli.main(argv) == 0
    with redirect_stdout(io.StringIO()):
        cli.main(["disc", "--in", str(small)])  # first-call set-up stays out of the measurement
        code, peak = traced_peak(lambda: cli.main(["disc", "--in", str(path)]))
    assert code == 0
    # the read numerators as Python ints and their sort; object arrays took 2.54 MB
    assert peak < 2.54 * MB


def test_bracket_of_wide_columns_builds_no_per_point_ints():
    points = stream(preset("op9-vdc-sqrt2").spec, 0, 2**14)
    star_disc_bracket(points.head(64), 512)
    result, peak = traced_peak(lambda: star_disc_bracket(points, 512))
    assert result.lo is not None
    # index arrays and one kernel block; floor(x k) in 192-bit ints took 6 MB
    assert peak < 4 * MB


def test_a_finishing_bracket_holds_one_lattice_block_and_its_queue():
    points = stream(preset("hammersley-lattice").spec, 0, 233)
    star_disc_bracket(points.head(20), 128)
    result, peak = traced_peak(lambda: star_disc_bracket(points, 128))
    assert result.resolution is None
    # 2.21 MiB; a bracket that kept its lattice pass's last block and cell bounds alive beside the
    # queue took 2.67 MiB
    assert peak < 2.45 * MB


def test_an_open_bracket_finds_hi_in_the_lower_index_buffer():
    points = stream(preset("c1-counterexample").spec, 0, 6**6)
    star_disc_bracket(points.head(36), 512)
    result, peak = traced_peak(lambda: star_disc_bracket(points, 512))
    assert result.resolution == 512
    # 3.11 MiB; the bound pass beside the finishing took 3.36 MiB, and a fresh N x d index array
    # for the kernel of hi 3.72 MiB
    assert peak < 3.5 * MB


@pytest.mark.parametrize("route", ["hammersley-lattice-bracket", "halton-2-3-sweep"])
def test_suffix_blocks_hold_two_blocks_and_the_index_words(route, monkeypatch):
    """The first prefix-count pass of hammersley-lattice's bracket (233
    points, 130^2-cell rows) and of a 3,162-point Halton(2,3) sweep, whose
    blocks are built by suffix increments, holds the block it builds beside
    the one it yielded, the carried row, and the points' index words: the
    sorted flat indices and one block's coordinates, no Python ints of every
    point.  Measured: 688,552 B and 392,216 B; the sweep took 633,784 B with
    every point's coordinates kept as tuples of Python ints."""
    calls, real = [], discrepancy._prefix_counts
    monkeypatch.setattr(discrepancy, "_prefix_counts", lambda index, shape: calls.append((index.copy(), shape))
                        or real(index, shape))
    if route == "hammersley-lattice-bracket":
        star_disc_bracket(stream(preset("hammersley-lattice").spec, 0, 233), 128)
    else:
        star_disc_exact(stream(Halton((2, 3)), 0, 3162))
    monkeypatch.undo()
    index, shape = calls[0]
    assert discrepancy._sums_by_suffix(index, shape)
    deque(discrepancy._prefix_counts(index, shape), maxlen=0)  # first-call set-up stays out of the measurement
    _, peak = traced_peak(lambda: deque(discrepancy._prefix_counts(index, shape), maxlen=0))
    row = math.prod(m + 1 for m in shape[1:])
    block = (max(1, discrepancy._BLOCK_CELLS // row) + 1) * row
    assert peak < (2 * block + row) * 8 + 2 * index.nbytes + 64 * 1024
