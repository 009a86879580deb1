"""The work and the time of a trace job's two row kernels: the Gauss-Kronrod
panel sums (quadrature._panel_sums) and the output spelling (cli._spell).

Over the 100 trace jobs of the benchmark's seed-1 list it counts the
_panel_sums calls, their rows and the rows whose estimate took Python's
float ** (each sharpening's min(1.0, ratio ** 1.5) is one call of min in
the quadrature module), and the _spell calls, their values and the
distinct magnitudes they spelt.  It then prints the best of 7 timings, in
microseconds, of _panel_sums on a 400-row call of the first CSV trace job
and a 9-row call of the first CSV bvp job, and of cli._spell (with either
spelling), cli._csv and cli._json_with_rows on four tables: that trace
job's 400-sample table (799 rows, the branches share their turning
point), that bvp job's one row, the 49 rows of the first oracle job that
writes a table, run with 48 segments, and the 19 rows of the trace job
run with 10 samples.  On the last two, an oracle's and a trace's table of
about 100 values, it times cli._spell once more both ways, value by value
and through its sorted path, with cli._SORTED set to either side of the
table's size, and prints the ratio of the two.

    PYTHONPATH=src python tests/trace_costs.py

Timings drift with the machine's speed, so compare two trees by running
the script in each in turn, more than once.

The job list comes from ``perfbench/jobs.py``, loaded by file path through
job_manifest.py and only read.  pytest does not collect this file.
"""

from __future__ import annotations

import gc
import sys
import timeit
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import job_manifest  # noqa: E402
from span_costs import _patched, _wrapped  # noqa: E402

from radial_extremals import cli, quadrature  # noqa: E402

REPEATS = 7
ROWS = {"trace": 400, "bvp": 9}   # rows of the timed _panel_sums calls


def trace_counts(seed=1):
    """{"panel_sums": (calls, rows, rows through **), "spell": (calls,
    values, distinct magnitudes)} over the trace jobs of a seed's list,
    each of which must exit with code 0."""
    counts = {"panel_sums": [0, 0, 0], "spell": [0, 0, 0]}

    def panel_rows(fv, half, width):
        counts["panel_sums"][0] += 1
        counts["panel_sums"][1] += len(fv)

    def counted_min(*args):
        counts["panel_sums"][2] += 1
        return min(*args)

    def spell_counted(original):
        def spelt(values, spell):
            counts["spell"][0] += 1
            counts["spell"][1] += int(np.size(values))

            def each(mags):
                counts["spell"][2] += len(mags)
                return spell(mags)
            return original(values, each)
        return spelt

    with ExitStack() as stack:
        stack.enter_context(_wrapped(quadrature, "_panel_sums", panel_rows))
        stack.enter_context(_global(quadrature, "min", counted_min))
        stack.enter_context(_patched(cli, "_spell", spell_counted))
        for workload, index, argv in job_manifest.jobs(seed):
            if workload == "trace":
                code = job_manifest.run_job(argv)[0]
                assert code == 0, f"trace job {index} exited with {code}"
    return {key: tuple(value) for key, value in counts.items()}


@contextmanager
def _global(module, name, value):
    """Inside the block, module's code finds value under name before the
    builtins."""
    setattr(module, name, value)
    try:
        yield
    finally:
        delattr(module, name)


# the job of each workload whose calls and table are timed: the first one
# that writes a CSV, or for oracle a JSON or CSV one, which runs with 48
# segments
_TIMED = {"trace": lambda argv: argv[-1] == "csv",
          "bvp": lambda argv: argv[-1] == "csv",
          "oracle": lambda argv: argv[-1] != "svg"}
_TABLES = {"trace": "400-sample", "bvp": "1-row", "oracle": "49-row"}
# the trace job again with 10 samples, and the tables of about 100 values
# on which _spell is timed both ways
_SHORT_TRACE = "10-sample"
_BOTH_WAYS = ("49-row", _SHORT_TRACE)


def _captured(seed=1):
    """({rows: (fv, half, width)} of the first ROWS-row _panel_sums call of
    the timed trace and bvp jobs, {table name: (rows, CSV header, JSON
    record)} of the timed jobs' tables) for a seed's list."""
    calls, tables = {}, {}
    timed = {}
    for workload, _, argv in job_manifest.jobs(seed):
        if workload not in timed and _TIMED[workload](argv):
            timed[workload] = list(argv)
    segments = timed["oracle"].index("--segments") + 1
    timed["oracle"][segments] = "48"
    timed[_SHORT_TRACE] = list(timed["trace"])
    timed[_SHORT_TRACE][timed["trace"].index("--samples") + 1] = "10"
    for workload, argv in timed.items():
        def keep_call(fv, half, width):
            if len(fv) == ROWS.get(workload):
                calls.setdefault(len(fv), (np.array(fv), half.copy(),
                                           width.copy()))

        def keep_rows(*args):
            rows = np.array(args[-1], dtype=float)
            cols = rows.shape[1]
            record = {5: cli._SAMPLE_RECORD, 2: cli._VERTEX_RECORD}.get(
                cols, "    [" + ", ".join(["%s"] * cols) + "]")
            header = args[0] if len(args) == 2 else ",".join(["v"] * cols)
            tables.setdefault(_TABLES.get(workload, workload),
                              (rows, header, record))

        with ExitStack() as stack:
            stack.enter_context(_wrapped(quadrature, "_panel_sums",
                                         keep_call))
            for writer in ("_csv", "_json_with_rows"):
                stack.enter_context(_wrapped(cli, writer, keep_rows))
            code = job_manifest.run_job(argv)[0]
            assert code == 0, f"{workload} job {argv} exited with {code}"
    assert sorted(calls) == sorted(ROWS.values()), sorted(calls)
    return calls, tables


def _best_us(call, loops):
    """Best of REPEATS timings of call, in microseconds per call."""
    return 1e6 * min(timeit.repeat(call, number=loops,
                                   repeat=REPEATS)) / loops


def kernel_times(calls, tables):
    """{part: µs} of the _captured _panel_sums calls and writer tables."""
    times = {}
    gc.disable()
    try:
        for rows, args in calls.items():
            times[f"_panel_sums {rows} rows"] = _best_us(
                lambda: quadrature._panel_sums(*args), 20_000 // rows)
        for name, (rows, header, record) in tables.items():
            loops = 20_000 // rows.size + 1
            for part, call in (
                    ("_spell %.17g",
                     lambda: cli._spell(rows, cli._g17_spelling)),
                    ("_spell json",
                     lambda: cli._spell(rows, cli._json_spelling)),
                    ("_csv", lambda: cli._csv(header, rows)),
                    ("_json_with_rows",
                     lambda: cli._json_with_rows({"rows": []}, "rows",
                                                 record, rows))):
                times[f"{part} {name} {rows.shape}"] = _best_us(call, loops)
    finally:
        gc.enable()
    return times


def spell_paths(tables):
    """{part: (µs value by value, µs sorted)} of cli._spell with either
    spelling on the _captured tables of _BOTH_WAYS."""
    times = {}
    gc.disable()
    try:
        for name in _BOTH_WAYS:
            rows = tables[name][0]
            loops = 20_000 // rows.size + 1
            for spelling, spell in (("%.17g", cli._g17_spelling),
                                    ("json", cli._json_spelling)):
                both = []
                for switch in (rows.size + 1, 0):
                    with _patched(cli, "_SORTED", lambda _: switch):
                        both.append(_best_us(
                            lambda: cli._spell(rows, spell), loops))
                times[f"_spell {spelling} {name} {rows.shape}"] = \
                    tuple(both)
    finally:
        gc.enable()
    return times


def main() -> int:
    counts = trace_counts()
    calls, rows, powered = counts["panel_sums"]
    print("seed-1 trace jobs:")
    print(f"  _panel_sums: {calls:,} calls, {rows:,} rows, {powered:,} rows "
          "through Python's **")
    calls, values, distinct = counts["spell"]
    print(f"  _spell: {calls:,} calls, {values:,} values, {distinct:,} "
          "distinct magnitudes")
    calls, tables = _captured()
    print(f"best of {REPEATS}, µs per call:")
    for part, us in kernel_times(calls, tables).items():
        print(f"  {part}: {us:.1f}")
    print(f"best of {REPEATS}, µs per call, value by value and sorted:")
    for part, (direct, ranked) in spell_paths(tables).items():
        print(f"  {part}: {direct:.1f} and {ranked:.1f} "
              f"({direct / ranked:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
