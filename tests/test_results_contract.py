"""The results contract: the reference command lines of
``tools/ref_outputs.py`` write the CSVs committed under
``tests/fixtures/reference/<command>/``, value by value within the bounds
below, and note in each manifest's ``warnings`` what the committed
``tests/fixtures/reference/warnings.json`` lists for that command, word
for word.

The tool runs in a subprocess, where it pins OpenBLAS to one thread before
numpy loads it, so the bits do not depend on how a product is split
between BLAS threads, nor, since every kernel pass and lane gives the same
bits on any worker count, on the CPUs the process may use.  A change that
moves results rewrites the fixtures in the same commit, from the
repository root:

    python3 tools/ref_outputs.py tests/fixtures/reference

(the manifests it writes beside the CSVs hold timings and are not kept;
their notes are, in warnings.json), and records the gaps
``tools/ref_gaps.py`` reports against the old ones.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "tests", "fixtures", "reference")
sys.path.insert(0, os.path.join(ROOT, "tools"))

from ref_gaps import csv_files, read, relative_gap  # noqa: E402

# Largest relative gap per CSV name, stated before measuring: rounding
# level for fields, summary, sweep, verify, minnaert and geometry; wider
# for the peak fit, which amplifies a change of its input by about 1e5
BOUNDS = {"peak.csv": 1e-7}
ROUNDING = 1e-11
# values below TINY on both sides (rounding residuals of identities that
# hold exactly, such as the Gauss identity's) are compared absolutely
TINY, TINY_GAP = 1e-12, 1e-13

COMMITTED = sorted(csv_files(REFERENCE))


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ref_outputs.py"),
         str(out)], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    return str(out)


def test_reference_commands_write_the_committed_csvs(written):
    assert len(COMMITTED) == 34
    assert sorted(csv_files(written)) == COMMITTED


@pytest.mark.parametrize("path", COMMITTED)
def test_reference_csv_within_its_bound(written, path):
    header, rows = read(os.path.join(REFERENCE, path))
    header_new, rows_new = read(os.path.join(written, path))
    assert header_new == header and len(rows_new) == len(rows)
    bound = BOUNDS.get(os.path.basename(path), ROUNDING)
    over = []
    for j, column in enumerate(header):
        old, new = [r[j] for r in rows], [r[j] for r in rows_new]
        try:
            pairs = [(float(a), float(b)) for a, b in zip(old, new)]
        except ValueError:
            assert new == old, column
            continue
        for i, (a, b) in enumerate(pairs):
            tiny = abs(a) < TINY and abs(b) < TINY
            gap = abs(a - b) if tiny else relative_gap(a, b)
            if gap > (TINY_GAP if tiny else bound):
                over.append(f"{column} row {i}: {a!r} -> {b!r} (gap "
                            f"{gap:.3g})")
    assert not over, "\n".join(over)


def test_reference_commands_write_the_committed_notes(written):
    with open(os.path.join(REFERENCE, "warnings.json"),
              encoding="ascii") as fh:
        committed = json.load(fh)
    with open(os.path.join(written, "warnings.json"), encoding="ascii") as fh:
        assert json.load(fh) == committed
    for name, notes in committed.items():
        with open(os.path.join(written, name, "manifest.json"),
                  encoding="ascii") as fh:
            assert json.load(fh)["warnings"] == notes, name
