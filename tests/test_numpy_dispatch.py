"""The row kernels and the derivative walk under numpy's other SIMD
dispatch.

numpy picks its SIMD loops by CPU when it is imported, and on a CPU with
AVX-512 its array **, exp and log and the sort that cli._spell uses run
loops that a CPU without it does not.  TestBatchedSums, TestSpell,
TestWriters and TestOneWalk run once more in a subprocess with those loops
switched off (NPY_DISABLE_CPU_FEATURES), so on such a CPU both kernels, the
CSV and JSON writers end to end and the expression walk's (v, q, v'') are
checked against their references under both dispatch paths.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath as umath

TESTS = Path(__file__).resolve().parent
# the AVX-512 dispatch targets of numpy 2.x that this CPU runs
AVX512 = [t for t in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
          if umath.__cpu_features__.get(t)]


def _run(*argv):
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)}
    return subprocess.run([sys.executable, *argv], env=env, cwd=TESTS.parent,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.skipif(not AVX512, reason="numpy runs no AVX-512 loops here, "
                    "so the suite itself runs the other dispatch path")
def test_row_kernels_match_their_references_without_avx512():
    probe = _run("-c", "from numpy._core import _multiarray_umath as u; "
                 "print(*(t for t in u.__cpu_dispatch__ "
                 "if u.__cpu_features__.get(t)))")
    assert probe.returncode == 0, probe.stderr
    assert not set(probe.stdout.split()) & set(AVX512), probe.stdout
    done = _run("-m", "pytest", "-q", "-p", "no:cacheprovider",
                f"{TESTS / 'test_quadrature.py'}::TestBatchedSums",
                f"{TESTS / 'test_cli.py'}::TestSpell",
                f"{TESTS / 'test_cli.py'}::TestWriters",
                f"{TESTS / 'test_weights.py'}::TestOneWalk")
    assert done.returncode == 0, done.stdout + done.stderr
