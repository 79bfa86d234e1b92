"""Run the reference command lines and print the sha256 of every CSV.

Usage, from the repository root:

    python3 tools/ref_outputs.py OUT_DIR

Each command runs in-process through ``bubblebem.cli.main`` (the package is
imported from ./src) with OpenBLAS pinned to one thread, and writes into its
own subdirectory of OUT_DIR.  One ``sha256  path`` line is printed per CSV,
with paths relative to OUT_DIR, so two checkouts' outputs compare with
``diff``, and OUT_DIR/warnings.json maps each command that ran to the
``warnings`` of its manifest, the run notes.  The exit status is 1 if any
command fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

# one BLAS thread, set before numpy loads OpenBLAS, so the bits do not
# depend on how a product is split between threads
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEP_SUB1 = ["sweep", "--icosphere", "1,1", "--eps", "0.05",
              "--omega-grid", "1.5:1.9:0.05"]

# (subdirectory, command line without --out)
COMMANDS = (
    [(f"solve-sub2-{omega}-{method}",
      ["solve", "--icosphere", "1,2", "--eps", "0.05", "--omega", omega,
       "--method", method])
     for omega, method in (("1.3", "dilated"), ("1.7", "direct"),
                           ("1.75", "uniform"), ("1.3", "nonresonant"))]
    + [(f"solve-sub3-{method}",
        ["solve", "--icosphere", "1,3", "--eps", "0.05", "--omega", "1.6",
         "--method", method])
       for method in ("dilated", "direct")]
    # off the z axis, the symmetry axis of the far-field sample lattice
    + [(f"solve-sub2-1.6-{method}-oblique",
        ["solve", "--icosphere", "1,2", "--eps", "0.05", "--omega", "1.6",
         "--method", method, "--plane-wave=0.3,-0.5,0.8"])
       for method in ("dilated", "direct")]
    # a non-spherical mesh and a point-source incident field
    + [(f"solve-ellipsoid-sub2-1.3-{method}",
        ["solve", "--ellipsoid", "1,1.3,1.7,2", "--eps", "0.05",
         "--omega", "1.3", "--method", method])
       for method in ("dilated", "direct")]
    + [("solve-sub2-1.6-direct-point-source",
        ["solve", "--icosphere", "1,2", "--eps", "0.05", "--omega", "1.6",
         "--method", "direct", "--point-source=0,0,3"])]
    + [("sweep-sub2-dilated",
        ["sweep", "--icosphere", "1,2", "--eps", "0.05",
         "--omega-grid", "1.5:1.9:0.02"])]
    + [(f"sweep-sub1-{method}", SWEEP_SUB1 + ["--method", method])
       for method in ("direct", "uniform", "nonresonant")]
    + [("sweep-sub1-eps0.3-dilated",
        ["sweep", "--icosphere", "1,1", "--eps", "0.3",
         "--omega-grid", "1.0:2.0:0.5"])]
    + [("verify-sub2", ["verify", "--icosphere", "1,2"]),
       # off the default centre: the kernel samples' clearance and limit
       # move with it
       ("verify-sub2-off-centre",
        ["verify", "--icosphere", "1,2", "--center", "0.05,-0.02,0.03"]),
       ("minnaert-sub2", ["minnaert", "--icosphere", "1,2"]),
       ("geometry-ellipsoid", ["geometry", "--ellipsoid", "1,1.3,1.7,1"])]
)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    out_dir = os.path.abspath(argv[0])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bubblebem.cli import main as cli_main

    failed, notes = [], {}
    for name, argv_cmd in COMMANDS:
        target = os.path.join(out_dir, name)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv_cmd + ["--out", target])
        if code != 0:
            failed.append(f"{name}: exit {code}")
            continue
        with open(os.path.join(target, "manifest.json"),
                  encoding="ascii") as fh:
            notes[name] = json.load(fh)["warnings"]
        for fname in sorted(os.listdir(target)):
            if fname.endswith(".csv"):
                print(f"{sha256(os.path.join(target, fname))}  "
                      f"{name}/{fname}")
    with open(os.path.join(out_dir, "warnings.json"), "w",
              encoding="ascii") as fh:
        json.dump(notes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for line in failed:
        print(f"FAIL  {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
