"""Command-line front end: geometry reports, Minnaert data, field solves,
frequency sweeps, and the verification suite.

Configuration is flat ``key = value`` text with sections (read by
configparser); every flag mirrors a config key and wins over the file.
Each command writes its artifacts as CSV (17 significant digits, complex
values as re/im column pairs) plus a manifest with sha256 checksums;
re-running with --check verifies the artifacts against the manifest.

Exit codes: 0 pass, 1 usage error, 2 numerical guard tripped,
3 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import boundary_calculus as bc
from . import scattering as sc
from .layer_ops import BoundaryDensity, TRACE, assemble_double_layer
from .mesh import (MeshError, geometric_moments, load_mesh, make_ellipsoid,
                   make_icosphere)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_VERIFY = 3

OUTDIR_ENV = "BUBBLEBEM_OUTDIR"

DEFAULT_TOLERANCES = {
    "gauss": 1e-12,
    "coefficient_identity": 0.02,
    "expansion_ratio_low": 1.6,
    "expansion_ratio_high": 2.6,
    "kernel_rate_window": 0.2,
}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Everything one command needs; mirrors the config file and flags."""

    mesh_path: str | None = None
    icosphere: tuple[float, int] | None = None
    ellipsoid: tuple[float, float, float, int] | None = None
    eps: float = 0.05
    omega: float | None = None
    omega_grid: list[float] | None = None
    center: tuple[float, float, float] | None = None
    plane_wave: tuple[float, float, float] | None = (0.0, 0.0, 1.0)
    point_source: tuple[float, float, float] | None = None
    method: str = "dilated"
    output_dir: str = "."
    guard_constant: float = 1.0
    tolerances: dict = field(default_factory=dict)

    def validate(self, need_omega: bool) -> None:
        sources = [self.mesh_path is not None, self.icosphere is not None,
                   self.ellipsoid is not None]
        if sum(sources) > 1:
            raise UsageError("give only one mesh source (path, icosphere, "
                             "or ellipsoid)")
        if need_omega:
            if (self.omega is None) == (self.omega_grid is None):
                raise UsageError("exactly one of omega / omega-grid is required")
            if not 0 < self.eps < 1:
                raise UsageError(f"eps must be finite and lie in (0, 1), "
                                 f"got {self.eps}")
            if self.omega is not None and not (math.isfinite(self.omega)
                                               and self.omega > 0):
                raise UsageError(f"omega must be finite and positive, "
                                 f"got {self.omega}")
            grid = self.omega_grid
            if grid is not None and (
                    not grid or grid != sorted(grid)
                    or not all(math.isfinite(w) and w > 0 for w in grid)):
                raise UsageError("omega grid must be non-empty, finite, "
                                 f"positive and sorted, got {grid}")
        if self.plane_wave is not None and self.point_source is not None:
            raise UsageError("give only one incident wave")
        for name, value in self.tolerances.items():
            if value <= 0:
                raise UsageError(f"tolerance {name} must be positive, "
                                 f"got {value}")

    def build_mesh(self):
        if self.mesh_path is not None:
            return load_mesh(self.mesh_path)
        if self.ellipsoid is not None:
            a, b, c, sub = self.ellipsoid
            return make_ellipsoid((a, b, c), int(sub))
        radius, sub = self.icosphere if self.icosphere else (1.0, 3)
        return make_icosphere(radius, int(sub))

    def incident(self):
        if self.point_source is not None:
            return sc.PointSource(np.asarray(self.point_source))
        direction = self.plane_wave if self.plane_wave else (0.0, 0.0, 1.0)
        return sc.PlaneWave(np.asarray(direction))

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def echo(self) -> dict:
        return {
            "mesh_path": self.mesh_path,
            "icosphere": self.icosphere,
            "ellipsoid": self.ellipsoid,
            "eps": self.eps,
            "omega": self.omega,
            "omega_grid": self.omega_grid,
            "center": self.center,
            "plane_wave": self.plane_wave,
            "point_source": self.point_source,
            "method": self.method,
            "guard_constant": self.guard_constant,
            "tolerances": dict(self.tolerances),
        }


def _parse_floats(text: str, n: int | None = None) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"expected numbers, got {text!r}") from None
    if n is not None and len(values) != n:
        raise UsageError(f"expected {n} numbers, got {text!r}")
    return values


def _parse_mesh_spec(text: str, n: int) -> tuple:
    """Sizes followed by a subdivision level, e.g. 'R,SUB' or 'A,B,C,SUB'."""
    *sizes, sub = _parse_floats(text, n)
    if not all(math.isfinite(x) and x > 0 for x in sizes):
        raise UsageError(f"mesh sizes must be finite and positive, "
                         f"got {text!r}")
    if not (sub.is_integer() and sub >= 0):
        raise UsageError(f"subdivision must be a non-negative integer, "
                         f"got {text!r}")
    return (*sizes, int(sub))


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        start, stop, step = _parse_floats(text.replace(":", " "), 3)
        if not (math.isfinite(start) and math.isfinite(stop)
                and math.isfinite(step) and step != 0):
            raise UsageError(f"omega grid needs finite bounds and a finite "
                             f"nonzero step, got {text!r}")
        count = int(round((stop - start) / step)) + 1
        grid = [start + i * step for i in range(count)]
        return [w for w in grid if w <= stop + 1e-12]
    return list(_parse_floats(text))


def load_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = parser.read(path)
        if not read:
            raise UsageError(f"config file {path!r} not found")
        mesh = parser["mesh"] if parser.has_section("mesh") else {}
        if "path" in mesh:
            cfg.mesh_path = mesh["path"]
        if "icosphere" in mesh:
            cfg.icosphere = _parse_mesh_spec(mesh["icosphere"], 2)
        if "ellipsoid" in mesh:
            cfg.ellipsoid = _parse_mesh_spec(mesh["ellipsoid"], 4)
        prob = parser["problem"] if parser.has_section("problem") else {}
        if "eps" in prob:
            cfg.eps, = _parse_floats(prob["eps"], 1)
        if "omega" in prob:
            cfg.omega, = _parse_floats(prob["omega"], 1)
        if "omega_grid" in prob:
            cfg.omega_grid = _parse_grid(prob["omega_grid"])
        if "center" in prob:
            cfg.center = _parse_floats(prob["center"], 3)
        inc = parser["incident"] if parser.has_section("incident") else {}
        if "plane_wave" in inc:
            cfg.plane_wave = _parse_floats(inc["plane_wave"], 3)
        if "point_source" in inc:
            cfg.point_source = _parse_floats(inc["point_source"], 3)
            cfg.plane_wave = None
        run = parser["run"] if parser.has_section("run") else {}
        if "method" in run:
            cfg.method = run["method"]
        if "output_dir" in run:
            cfg.output_dir = run["output_dir"]
        if "guard_constant" in run:
            cfg.guard_constant, = _parse_floats(run["guard_constant"], 1)
        if parser.has_section("tolerances"):
            for key, value in parser["tolerances"].items():
                if key not in DEFAULT_TOLERANCES:
                    raise UsageError(f"unknown tolerance {key!r}")
                cfg.tolerances[key], = _parse_floats(value, 1)

    if args.mesh is not None:
        cfg.mesh_path = args.mesh
    if args.icosphere is not None:
        cfg.icosphere = _parse_mesh_spec(args.icosphere, 2)
        cfg.mesh_path = None
    if args.ellipsoid is not None:
        cfg.ellipsoid = _parse_mesh_spec(args.ellipsoid, 4)
        cfg.mesh_path = None
    if args.eps is not None:
        cfg.eps = args.eps
    if args.omega is not None:
        cfg.omega = args.omega
        cfg.omega_grid = None
    if args.omega_grid is not None:
        cfg.omega_grid = _parse_grid(args.omega_grid)
        cfg.omega = None
    if args.center is not None:
        cfg.center = _parse_floats(args.center, 3)
    if args.plane_wave is not None:
        cfg.plane_wave = _parse_floats(args.plane_wave, 3)
        cfg.point_source = None
    if args.point_source is not None:
        cfg.point_source = _parse_floats(args.point_source, 3)
        cfg.plane_wave = None
    if args.method is not None:
        cfg.method = args.method
    if args.out is not None:
        cfg.output_dir = args.out
    elif cfg.output_dir == "." and os.environ.get(OUTDIR_ENV):
        cfg.output_dir = os.environ[OUTDIR_ENV]
    if args.guard_constant is not None:
        cfg.guard_constant = args.guard_constant
    return cfg


# ----------------------------------------------------------------------------
# Artifact writing


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "nan"
    return f"{float(value):.17g}"


class ArtifactWriter:
    """Collects CSV artifacts and finalizes a checksummed manifest."""

    def __init__(self, outdir: str, command: str, config: RunConfig):
        self.outdir = outdir
        self.command = command
        self.config = config
        self.files: dict[str, str] = {}
        self.warnings: list[str] = []
        self.t0 = time.time()
        os.makedirs(outdir, exist_ok=True)

    def write_csv(self, name: str, header: list[str], rows) -> str:
        path = os.path.join(self.outdir, name)
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        payload = "\n".join(lines) + "\n"
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(payload)
        self.files[name] = hashlib.sha256(payload.encode("ascii")).hexdigest()
        return path

    def finalize(self) -> str:
        echo = self.config.echo()
        run_id = hashlib.sha256(
            json.dumps({"command": self.command, "config": echo},
                       sort_keys=True).encode("ascii")).hexdigest()[:16]
        manifest = {
            "run_id": run_id,
            "command": self.command,
            "config": echo,
            "artifacts": self.files,
            "timing_seconds": time.time() - self.t0,
            "warnings": self.warnings,
        }
        path = os.path.join(self.outdir, "manifest.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        return path


def check_manifest(outdir: str) -> list[str]:
    """Compare artifact checksums against the manifest; returns problems."""
    path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(path):
        return [f"no manifest at {path}"]
    with open(path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    problems = []
    for name, expected in manifest.get("artifacts", {}).items():
        fpath = os.path.join(outdir, name)
        if not os.path.exists(fpath):
            problems.append(f"missing artifact {name}")
            continue
        with open(fpath, "rb") as fh:
            actual = hashlib.sha256(fh.read()).hexdigest()
        if actual != expected:
            problems.append(f"checksum mismatch for {name}")
    return problems


# ----------------------------------------------------------------------------
# Commands


def cmd_geometry(cfg: RunConfig) -> int:
    mesh = cfg.build_mesh()
    area, volume, diameter = geometric_moments(mesh)
    writer = ArtifactWriter(cfg.output_dir, "geometry", cfg)
    writer.write_csv("geometry.csv",
                     ["quantity", "value"],
                     [("area", area), ("volume", volume),
                      ("diameter", diameter),
                      ("panels", mesh.n_panels),
                      ("vertices", len(mesh.vertices))])
    writer.finalize()
    print(f"area={area:.10g} volume={volume:.10g} diameter={diameter:.10g} "
          f"panels={mesh.n_panels}")
    return EXIT_OK


def cmd_minnaert(cfg: RunConfig) -> int:
    mesh = cfg.build_mesh()
    data = bc.spectral_data(mesh)
    q = data.q_eq.values
    writer = ArtifactWriter(cfg.output_dir, "minnaert", cfg)
    writer.write_csv("minnaert.csv",
                     ["quantity", "value"],
                     [("capacitance", data.capacitance),
                      ("minnaert_omega", data.minnaert_omega),
                      ("volume", mesh.volume),
                      ("equilibrium_density_min", q.min()),
                      ("equilibrium_density_max", q.max()),
                      ("equilibrium_density_mean", q.mean())])
    writer.finalize()
    print(f"capacitance={data.capacitance:.10g} "
          f"minnaert_omega={data.minnaert_omega:.10g}")
    return EXIT_OK


def _make_problem(cfg: RunConfig, mesh, omega: float) -> sc.ScatteringProblem:
    return sc.ScatteringProblem(mesh, cfg.eps, omega, cfg.incident(),
                                y0=None if cfg.center is None
                                else np.asarray(cfg.center),
                                guard_constant=cfg.guard_constant)


def cmd_solve(cfg: RunConfig) -> int:
    mesh = cfg.build_mesh()
    spectral = bc.spectral_data(mesh)
    problem = _make_problem(cfg, mesh, cfg.omega)
    points, _ = sc.far_field_points(problem)
    solver = {"direct": sc.scattered_field_direct,
              "dilated": sc.scattered_field_dilated,
              "uniform": sc.asymptotic_uniform,
              "nonresonant": sc.asymptotic_nonresonant}.get(cfg.method)
    if solver is None:
        raise UsageError(f"unknown method {cfg.method!r}")
    fld = solver(problem, points, spectral)
    writer = ArtifactWriter(cfg.output_dir, "solve", cfg)
    rows = [(p[0], p[1], p[2], ui.real, ui.imag, us.real, us.imag,
             ut.real, ut.imag)
            for p, ui, us, ut in zip(fld.points, fld.incident, fld.scattered,
                                     fld.total)]
    writer.write_csv("fields.csv",
                     ["x", "y", "z", "re_incident", "im_incident",
                      "re_scattered", "im_scattered", "re_total", "im_total"],
                     rows)
    writer.write_csv("summary.csv",
                     ["quantity", "value"],
                     [("re_amplitude", fld.amplitude.real),
                      ("im_amplitude", fld.amplitude.imag),
                      ("fit_residual", fld.fit_residual),
                      ("guard_band", problem.in_guard_band(spectral))])
    writer.warnings.extend(fld.warnings)
    if problem.in_guard_band(spectral):
        print(f"warning: omega within {cfg.guard_constant:g}*eps of the "
              "Minnaert frequency (quasi-resonant band)")
    writer.finalize()
    print(f"amplitude={fld.amplitude:.10g} residual={fld.fit_residual:.3g}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    mesh = cfg.build_mesh()
    spectral = bc.spectral_data(mesh)
    problem = _make_problem(cfg, mesh, cfg.omega_grid[0])
    sweep = sc.frequency_sweep(problem, cfg.omega_grid, cfg.method, spectral)
    writer = ArtifactWriter(cfg.output_dir, "sweep", cfg)
    rows = []
    for r in sweep.rows:
        amp = r.amplitude if r.amplitude is not None else complex("nan")
        nonres = (r.prediction_nonresonant
                  if r.prediction_nonresonant is not None else complex("nan"))
        rows.append((r.omega, amp.real, amp.imag,
                     r.abs2 if r.abs2 is not None else float("nan"),
                     r.prediction_uniform.real, r.prediction_uniform.imag,
                     nonres.real, nonres.imag,
                     r.prediction_resonant.real, r.prediction_resonant.imag,
                     r.guard_band))
        if r.error:
            writer.warnings.append(f"omega={r.omega}: {r.error}")
        if r.guard_band:
            writer.warnings.append(f"omega={r.omega}: quasi-resonant guard band")
    writer.write_csv("sweep.csv",
                     ["omega", "re_amplitude", "im_amplitude", "abs2",
                      "re_uniform", "im_uniform", "re_nonresonant",
                      "im_nonresonant", "re_resonant", "im_resonant",
                      "guard_band"],
                     rows)
    try:
        peak = sc.resonance_peak(sweep)
        writer.write_csv("peak.csv",
                         ["quantity", "value", "uncertainty"],
                         [("omega_peak", peak.omega_peak, peak.uncertainties[0]),
                          ("width", peak.width, peak.uncertainties[1]),
                          ("height", peak.height, peak.uncertainties[2])])
        print(f"peak omega={peak.omega_peak:.6g} width={peak.width:.6g} "
              f"height={peak.height:.6g}")
    except sc.FitError as exc:
        writer.warnings.append(f"peak fit skipped: {exc}")
        print(f"peak fit skipped: {exc}")
    writer.finalize()
    print(f"swept {len(sweep.rows)} frequencies with method={cfg.method}")
    return EXIT_OK


def verification_checks(cfg: RunConfig, mesh=None, k2_scale: float = 1.0):
    """The identity/expansion/kernel suite behind ``verify``.

    ``k2_scale`` rescales the quadratic series coefficient before the
    identity checks; anything but 1.0 is for mutation testing only.
    """
    if mesh is None:
        mesh = cfg.build_mesh()
    spectral = bc.spectral_data(mesh)
    checks = []

    k0 = assemble_double_layer(mesh, 0.0)
    ones = np.ones(mesh.n_panels)
    gauss = float(np.abs(0.5 * ones + k0.matrix.real @ ones).max())
    checks.append(("gauss_identity", gauss, cfg.tolerance("gauss"), "max<="))

    k2 = bc.k2_average(mesh, spectral) * k2_scale
    k3 = bc.k3_average(mesh, spectral)
    ratio = mesh.volume / spectral.capacitance
    tol = cfg.tolerance("coefficient_identity")
    quad_err = max(abs(w ** 2 * (k2 + ratio)) / abs(1.0 - w ** 2 * ratio)
                   for w in (0.5, 1.0, 2.0))
    checks.append(("quadratic_coefficient_identity", quad_err, tol, "max<="))
    cubic_err = abs(k3 + 1j * mesh.volume / (4 * np.pi)) \
        / (mesh.volume / (4 * np.pi))
    checks.append(("cubic_coefficient_identity", cubic_err, tol, "max<="))

    lo = cfg.tolerance("expansion_ratio_low")
    hi = cfg.tolerance("expansion_ratio_high")
    what = bc.k2_resonance_frequency(mesh, spectral)
    for name, omega in (("offres_expansion_ratio", 1.0),
                        ("res_expansion_ratio", what)):
        r_coarse = bc.expansion_residual(mesh, 0.04, omega, 0.7, spectral)
        r_fine = bc.expansion_residual(mesh, 0.02, omega, 0.7, spectral)
        checks.append((name, r_coarse.residual / r_fine.residual, (lo, hi),
                       "range"))

    x = np.array([1.2, 0.3, -0.4])
    y = np.array([-0.8, 0.9, 1.1])
    center = np.asarray(cfg.center) if cfg.center is not None \
        else np.zeros(3)
    glim = (4 * np.pi * sc.green_function(1j, (x - center)[None, :])[0]
            * sc.green_function(1j, (y - center)[None, :])[0])
    eps_list = (0.2, 0.1, 0.05)
    window = cfg.tolerance("kernel_rate_window")
    for name, omega, target, expected, informational in (
            ("krein_kernel_offres_rate", 1.0, 0.0, 1.0, False),
            ("krein_kernel_res_rate", what, glim, 0.5, True)):
        errs = []
        for eps in eps_list:
            prob = sc.ScatteringProblem(mesh, eps, omega, cfg.incident(),
                                        y0=center, validity_threshold=np.inf)
            k = sc.resolvent_correction_kernel(prob, 1j, x, y)
            errs.append(abs(k - target))
        logs = np.log(np.asarray(errs))
        slope, intercept = np.polyfit(np.log(eps_list), logs, 1)
        resid = logs - (slope * np.log(np.asarray(eps_list)) + intercept)
        stderr = float(np.sqrt(np.sum(resid ** 2) / 1)
                       / np.sqrt(np.sum((np.log(eps_list)
                                         - np.mean(np.log(eps_list))) ** 2)))
        if informational:
            # reported with its confidence interval, not gated
            checks.append((name, float(slope), (slope - 2 * stderr,
                                                slope + 2 * stderr), "report"))
        else:
            checks.append((name, float(slope),
                           (expected - window, expected + window), "range"))
    return checks


def cmd_verify(cfg: RunConfig) -> int:
    checks = verification_checks(cfg)
    writer = ArtifactWriter(cfg.output_dir, "verify", cfg)
    rows = []
    exit_code = EXIT_OK
    for name, value, threshold, mode in checks:
        if mode == "max<=":
            ok = value <= threshold
            detail = f"<= {threshold:g}"
            low, high = float("-inf"), threshold
        elif mode == "range":
            ok = threshold[0] <= value <= threshold[1]
            detail = f"in [{threshold[0]:g}, {threshold[1]:g}]"
            low, high = threshold
        else:  # report
            ok = True
            detail = f"CI [{threshold[0]:.3g}, {threshold[1]:.3g}]"
            low, high = threshold
        rows.append((name, value, low, high, ok))
        status = "pass" if ok else "FAIL"
        print(f"{status}  {name}: {value:.6g} ({detail})")
        if not ok:
            exit_code = EXIT_VERIFY
    writer.write_csv("verify.csv",
                     ["check", "value", "bound_low", "bound_high", "pass"],
                     rows)
    writer.finalize()
    return exit_code


# ----------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bubblebem",
        description="Boundary-element solver and resonance analyzer for "
                    "small high-contrast acoustic bubbles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("geometry", "area, volume, diameter and invariant checks"),
            ("minnaert", "capacitance, Minnaert frequency, equilibrium density"),
            ("solve", "scattered field at one frequency"),
            ("sweep", "amplitude sweep over a frequency grid plus peak fit"),
            ("verify", "identity/expansion/kernel verification suite")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="INI-style config file")
        p.add_argument("--mesh", default=None, help="OFF/OBJ mesh path")
        p.add_argument("--icosphere", default=None, metavar="R,SUB")
        p.add_argument("--ellipsoid", default=None, metavar="A,B,C,SUB")
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--omega", type=float, default=None)
        p.add_argument("--omega-grid", dest="omega_grid", default=None,
                       metavar="START:STOP:STEP")
        p.add_argument("--center", default=None, metavar="X,Y,Z")
        p.add_argument("--plane-wave", dest="plane_wave", default=None,
                       metavar="DX,DY,DZ")
        p.add_argument("--point-source", dest="point_source", default=None,
                       metavar="X,Y,Z")
        p.add_argument("--method", default=None,
                       choices=["direct", "dilated", "uniform", "nonresonant"])
        p.add_argument("--out", default=None, help="output directory "
                       f"(default . or ${OUTDIR_ENV})")
        p.add_argument("--guard-constant", dest="guard_constant", type=float,
                       default=None)
        p.add_argument("--check", action="store_true",
                       help="verify artifact checksums against the manifest "
                            "instead of running")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        if args.check:
            problems = check_manifest(cfg.output_dir)
            for p in problems:
                print(f"FAIL  {p}")
            if not problems:
                print(f"pass  artifacts in {cfg.output_dir} match the manifest")
            return EXIT_VERIFY if problems else EXIT_OK
        cfg.validate(need_omega=args.command in ("solve", "sweep"))
        if args.command == "sweep" and cfg.omega_grid is None:
            raise UsageError("sweep needs --omega-grid")
        if args.command == "solve" and cfg.omega is None:
            raise UsageError("solve needs --omega")
        handler = {"geometry": cmd_geometry, "minnaert": cmd_minnaert,
                   "solve": cmd_solve, "sweep": cmd_sweep,
                   "verify": cmd_verify}[args.command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = handler(cfg)
            for w in caught:
                print(f"warning: {w.message}")
        return code
    except (UsageError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except bc.NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
