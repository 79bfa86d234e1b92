"""The benchmark's workloads and the correctness gate run after each
iteration.

Each iteration runs one or more ``bubblebem`` CLI commands in-process.  The
gates use the acceptance-criteria tolerances unchanged:

* solve-sub3: both routes exit 0, the fitted monopole |A| is within 5 % of
  the Mie oracle (criterion 6) and the two routes' scattered fields agree
  to 1e-6 relative (criterion 5);
* sweep-sub2: no row errors, |A| within 10 % of the uniform formula outside
  the guard band, and the fitted peak within 0.1 of omega_M (criterion 8);
* verify-sub2: the command exits 0 and every gated check passes.

An operation is one route of a solve, one sweep row or the peak fit, or one
verify check.  Every failure counts against the operation it concerns.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

MIE_OK = 0.05          # criterion 6
ROUTES_AGREE = 1e-6    # criterion 5
UNIFORM_OK = 0.10      # criterion 8
PEAK_OK = 0.1          # criterion 8

EPS = 0.05
SOLVE_OMEGA = 1.6
MIE_ORDER = 14


@dataclass
class Outcome:
    """Gate result of one iteration."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    ref_gap: float = math.nan      # largest relative gap to the reference
    report: dict = field(default_factory=dict)   # printed, not gated


def plane_wave(seed: int) -> str:
    """Unit incidence direction drawn from the seed, as CLI text."""
    d = np.random.default_rng(seed).normal(size=3)
    d /= np.linalg.norm(d)
    return ",".join(repr(float(c)) for c in d)


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _quantities(path: str) -> dict:
    return {r["quantity"]: float(r["value"]) for r in _read_rows(path)}


def _mie_abs(omega: float) -> float:
    from bubblebem.mie import mie_monopole_amplitude, mie_solve
    return abs(mie_monopole_amplitude(mie_solve(1.0, EPS, omega, MIE_ORDER)))


def _rel_gap(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _gate_solve(results, ctx) -> Outcome:
    out = Outcome(attempted=len(results), failed=0)
    bad, fields, gaps = set(), {}, []
    reference = _mie_abs(SOLVE_OMEGA)
    for route, (code, outdir) in results.items():
        if code != 0:
            bad.add(route)
            out.problems.append(f"{route}: exit {code}")
            continue
        summary = _quantities(os.path.join(outdir, "summary.csv"))
        amp = complex(summary["re_amplitude"], summary["im_amplitude"])
        gap = _rel_gap(abs(amp), reference)
        gaps.append(gap)
        if not gap <= MIE_OK:
            bad.add(route)
            out.problems.append(f"{route}: Mie gap {gap:.3%} > {MIE_OK:.0%}")
        rows = _read_rows(os.path.join(outdir, "fields.csv"))
        fields[route] = np.array([complex(float(r["re_scattered"]),
                                          float(r["im_scattered"]))
                                  for r in rows])
    if len(fields) == 2:
        dil, dirc = fields["dilated"], fields["direct"]
        agree = float(np.abs(dil - dirc).max() / np.abs(dil).max())
        out.report["route_gap"] = agree
        if not agree <= ROUTES_AGREE:
            bad.update(fields)
            out.problems.append(f"routes differ by {agree:.2e} > "
                                f"{ROUTES_AGREE:g}")
    out.failed = len(bad)
    if gaps:
        out.ref_gap = out.report["mie_gap_max"] = max(gaps)
    return out


def _gate_sweep(results, ctx) -> Outcome:
    (code, outdir), = results.values()
    if code != 0:
        return Outcome(attempted=1, failed=1, problems=[f"exit {code}"])
    rows = _read_rows(os.path.join(outdir, "sweep.csv"))
    out = Outcome(attempted=len(rows) + 1, failed=0)
    gaps = []
    for r in rows:
        omega = float(r["omega"])
        amp = abs(complex(float(r["re_amplitude"]), float(r["im_amplitude"])))
        if not math.isfinite(amp):
            out.failed += 1
            out.problems.append(f"omega={omega}: row error")
            continue
        gaps.append(_rel_gap(amp, _mie_abs(omega)))
        if r["guard_band"] == "0":
            uniform = abs(complex(float(r["re_uniform"]),
                                  float(r["im_uniform"])))
            gap = _rel_gap(amp, uniform)
            if not gap <= UNIFORM_OK:
                out.failed += 1
                out.problems.append(f"omega={omega}: uniform gap {gap:.3%}")
    peak_path = os.path.join(outdir, "peak.csv")
    if os.path.exists(peak_path):
        err = abs(_quantities(peak_path)["omega_peak"] - ctx["omega_m"])
        out.report["peak_omega_err"] = err
        if not err <= PEAK_OK:
            out.failed += 1
            out.problems.append(f"peak {err:.3g} from omega_M")
    else:
        out.failed += 1
        out.problems.append("no peak fit")
    if gaps:
        out.ref_gap = out.report["mie_gap_max"] = max(gaps)
    return out


def _gate_verify(results, ctx) -> Outcome:
    (code, outdir), = results.values()
    path = os.path.join(outdir, "verify.csv")
    if code not in (0, 3) or not os.path.exists(path):
        return Outcome(attempted=1, failed=1, problems=[f"exit {code}"])
    rows = _read_rows(path)
    out = Outcome(attempted=len(rows), failed=0)
    for r in rows:
        if r["pass"] != "1":
            out.failed += 1
            out.problems.append(f"check {r['check']} failed: {r['value']}")
    if code != 0 and not out.failed:
        out.failed = 1
        out.problems.append(f"exit {code} with every check passing")
    checks = {r["check"]: float(r["value"]) for r in rows}
    out.ref_gap = max(checks["quadratic_coefficient_identity"],
                      checks["cubic_coefficient_identity"])
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    subdivisions: int     # of the unit icosphere every command uses
    why: str
    argvs: tuple          # (tag, argv without --out and --plane-wave)
    gate: object          # gate(results, ctx) -> Outcome; ``results`` maps
    #                       tag -> (exit code or error text, output dir)
    seeded: bool = True   # the seed picks the plane-wave direction

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        """(tag, argv without --out) for one iteration."""
        wave = [f"--plane-wave={plane_wave(seed)}"] if self.seeded else []
        mesh = ["--icosphere", f"1.0,{self.subdivisions}"]
        return [(tag, [argv[0], *mesh, *argv[1:], *wave])
                for tag, argv in self.argvs]


_SOLVE = ("solve", "--eps", str(EPS), "--omega", str(SOLVE_OMEGA))
WORKLOADS = {w.name: w for w in (
    Workload("solve-sub3", 3,
             "one dilated and one direct solve at n=1280: dense O(n^3) "
             "DN solve, matmul and LU dominate; no reuse across frequencies",
             tuple((m, (*_SOLVE, "--method", m))
                   for m in ("dilated", "direct")),
             _gate_solve),
    Workload("sweep-sub2", 2,
             "26 dilated solves around omega_M at n=320: 78 assemblies of "
             "one mesh, matrices fit in L2, LU cost negligible",
             (("sweep", ("sweep", "--eps", str(EPS),
                         "--omega-grid", "1.50:2.00:0.02",
                         "--method", "dilated")),),
             _gate_sweep),
    Workload("verify-sub2", 2,
             "identity suite at n=320: complex z=i, series-term operators, "
             "full inverses and S0^-1 operator norms",
             (("verify", ("verify",)),),
             _gate_verify, seeded=False),
)}
