"""Command-line front end: geometry reports, Minnaert data, field solves,
frequency sweeps, and the verification suite.

Configuration is flat ``key = value`` text with sections (read by
configparser).  Each setting is declared once, as a row of ``_SETTINGS``:
config section and key, flag, RunConfig field, parser and exclusive group.
Settings apply in order: defaults, then the config file, then the flags.
The exclusive groups are the mesh source (path / icosphere / ellipsoid),
the frequency (omega / omega_grid) and the incident wave (plane_wave /
point_source): a member that one source gives replaces the whole group,
and one source giving two members of a group is a usage error.
Each command writes its artifacts as CSV (17 significant digits, complex
values as re/im column pairs, a missing one nan in both) plus a manifest
with sha256 checksums; re-running with --check verifies the artifacts
against the manifest.

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
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import boundary_calculus as bc
from . import scattering as sc
from .boundary_calculus import _series_stack
from .layer_ops import (_check_clearance, _side_by_side,
                        assemble_double_layer)
from .mesh import MeshError, load_mesh, make_ellipsoid, make_icosphere

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_VERIFY = 3

OUTDIR_ENV = "BUBBLEBEM_OUTDIR"

# most points a START:STOP:STEP omega grid may expand to
_GRID_LIMIT = 10 ** 6

# the fixed acceptance windows of ``verify``
DEFAULT_TOLERANCES = {
    "gauss": 1e-12,
    "coefficient_identity": 0.02,
    "expansion_ratio_low": 1.6,
    "expansion_ratio_high": 2.6,
    "kernel_rate_window": 0.2,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports malformed command lines as UsageError (exit 1), not argparse's
    own exit status 2, which the CLI reserves for numerical guards."""

    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Everything one command needs: one field per row of ``_SETTINGS``."""

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

    def validate(self, need_omega: bool) -> None:
        if need_omega:
            try:
                sc.check_eps(self.eps)
                if self.omega is not None:
                    sc.check_omega(self.omega)
                if self.omega_grid is not None:
                    sc.check_grid(self.omega_grid)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        if self.method not in sc.METHODS:
            raise UsageError(f"unknown method {self.method!r}; choose from "
                             f"{', '.join(sc.METHODS)}")

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

    def echo(self) -> dict:
        """The settings that identify a run: every field but output_dir."""
        echo = asdict(self)
        del echo["output_dir"]
        return echo


def _parse_floats(text: str, n: int | None = None) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"expected numbers, got {text!r}") from None
    if n is not None and len(values) != n:
        raise UsageError(f"expected {n} numbers, got {text!r}")
    return values


def _parse_float(text: str) -> float:
    value, = _parse_floats(text, 1)
    return value


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
                and math.isfinite(step) and step > 0):
            raise UsageError(f"omega grid needs finite bounds and a finite "
                             f"positive step, got {text!r}")
        # the count comes first, as a float, so no list is built before it
        # is checked
        steps = (stop - start) / step
        if not (math.isfinite(steps) and steps + 1 <= _GRID_LIMIT):
            raise UsageError(f"omega grid {text!r} has more than "
                             f"{_GRID_LIMIT:d} points")
        count = int(round(steps)) + 1
        grid = [start + i * step for i in range(count)]
        return [w for w in grid if w <= stop + 1e-12]
    return list(_parse_floats(text))


class _Setting(NamedTuple):
    section: str
    key: str
    flag: str
    attr: str                       # RunConfig field
    parse: Callable[[str], object]
    group: str | None = None        # exclusive group
    metavar: str | None = None


_SETTINGS = (
    _Setting("mesh", "path", "--mesh", "mesh_path", str, "mesh", "PATH"),
    _Setting("mesh", "icosphere", "--icosphere", "icosphere",
             partial(_parse_mesh_spec, n=2), "mesh", "R,SUB"),
    _Setting("mesh", "ellipsoid", "--ellipsoid", "ellipsoid",
             partial(_parse_mesh_spec, n=4), "mesh", "A,B,C,SUB"),
    _Setting("problem", "eps", "--eps", "eps", _parse_float),
    _Setting("problem", "omega", "--omega", "omega", _parse_float,
             "frequency"),
    _Setting("problem", "omega_grid", "--omega-grid", "omega_grid",
             _parse_grid, "frequency", "START:STOP:STEP"),
    _Setting("problem", "center", "--center", "center",
             partial(_parse_floats, n=3), None, "X,Y,Z"),
    _Setting("incident", "plane_wave", "--plane-wave", "plane_wave",
             partial(_parse_floats, n=3), "incident", "DX,DY,DZ"),
    _Setting("incident", "point_source", "--point-source", "point_source",
             partial(_parse_floats, n=3), "incident", "X,Y,Z"),
    _Setting("run", "method", "--method", "method", str, None,
             "{" + ",".join(sc.METHODS) + "}"),
    _Setting("run", "output_dir", "--out", "output_dir", str, None, "DIR"),
    _Setting("run", "guard_constant", "--guard-constant", "guard_constant",
             _parse_float),
)


def _apply(cfg: RunConfig, given: list) -> None:
    """Apply one source's settings, given as (setting, name, text) triples.

    A member of an exclusive group replaces the whole group; two members
    of one group from the same source are a usage error.
    """
    named = {}
    for setting, name, text in given:
        if setting.group is not None:
            if setting.group in named:
                raise UsageError(f"give only one of {named[setting.group]} "
                                 f"and {name}")
            named[setting.group] = name
            for other in _SETTINGS:
                if other.group == setting.group:
                    setattr(cfg, other.attr, None)
        setattr(cfg, setting.attr, setting.parse(text))


def load_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    """Defaults (with $BUBBLEBEM_OUTDIR as the default output directory),
    then the config file at ``path``, then the flags.  A config file that
    is not UTF-8 INI, and a config key that no row of ``_SETTINGS``
    declares, are usage errors, and so is a path that cannot be read as a
    file, with the system's reason.  Values are taken literally: a ``%`` is
    not an interpolation."""
    cfg = RunConfig(output_dir=os.environ.get(OUTDIR_ENV) or ".")
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                           interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            # the reason alone: the exception's text repeats the path
            raise UsageError(f"config file {path!r}: {exc.strerror}") from None
        except (configparser.Error, UnicodeDecodeError) as exc:
            # configparser's messages span lines; the error line is one
            raise UsageError(f"config file {path!r}: "
                             f"{' '.join(str(exc).split())}") from None
        known = {(s.section, s.key) for s in _SETTINGS}
        # [DEFAULT] comes first and declares no setting, so a key there
        # fails before it shows up in every other section
        for section in parser:
            for key in parser[section]:
                if (section, key) not in known:
                    raise UsageError(f"unknown config key [{section}] {key}")
        _apply(cfg, [(s, f"[{s.section}] {s.key}", parser.get(s.section, s.key))
                     for s in _SETTINGS if parser.has_option(s.section, s.key)])
    _apply(cfg, [(s, s.flag, getattr(args, s.attr)) for s in _SETTINGS
                 if getattr(args, s.attr) is not None])
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
    """Collects CSV artifacts and warnings and finalizes a checksummed
    manifest.  The output directory is created on the first write."""

    def __init__(self, outdir: str, command: str, config: RunConfig):
        self.outdir = outdir
        self.command = command
        self.config = config
        self.files: dict[str, str] = {}
        self.warnings: list[str] = []
        self.t0 = time.time()

    def _path(self, name: str) -> str:
        os.makedirs(self.outdir, exist_ok=True)
        return os.path.join(self.outdir, name)

    def warn(self, note: str) -> None:
        """Record a note in the manifest and print it as a warning."""
        self.warnings.append(note)
        print(f"warning: {note}")

    def write_csv(self, name: str, header: list[str], rows) -> str:
        """Write one CSV artifact.  Each column pair re_X, im_X of the
        header takes one complex value of a row; a missing one (None) is
        nan in both columns."""
        path = self._path(name)
        pairs = [col.startswith("re_") for col in header
                 if not col.startswith("im_")]
        lines = [",".join(header)]
        for row in rows:
            cells = []
            for value, pair in zip(row, pairs, strict=True):
                if pair and value is None:
                    value = complex(math.nan, math.nan)
                cells += [value.real, value.imag] if pair else [value]
            lines.append(",".join(_fmt(v) for v in cells))
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
        path = self._path("manifest.json")
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


def cmd_geometry(cfg: RunConfig, writer: ArtifactWriter) -> int:
    mesh = cfg.build_mesh()
    writer.write_csv("geometry.csv",
                     ["quantity", "value"],
                     [("area", mesh.area), ("volume", mesh.volume),
                      ("diameter", mesh.diameter),
                      ("panels", mesh.n_panels),
                      ("vertices", len(mesh.vertices))])
    print(f"area={mesh.area:.10g} volume={mesh.volume:.10g} "
          f"diameter={mesh.diameter:.10g} panels={mesh.n_panels}")
    return EXIT_OK


def cmd_minnaert(cfg: RunConfig, writer: ArtifactWriter) -> int:
    mesh = cfg.build_mesh()
    data = bc.spectral_data(mesh)
    q = data.q_eq
    writer.write_csv("minnaert.csv",
                     ["quantity", "value"],
                     [("capacitance", data.capacitance),
                      ("minnaert_omega", data.minnaert_omega),
                      ("volume", mesh.volume),
                      ("equilibrium_density_min", q.min()),
                      ("equilibrium_density_max", q.max()),
                      ("equilibrium_density_mean", q.mean())])
    print(f"capacitance={data.capacitance:.10g} "
          f"minnaert_omega={data.minnaert_omega:.10g}")
    return EXIT_OK


def _make_problem(cfg: RunConfig, mesh, omega: float,
                  **given) -> sc.ScatteringProblem:
    """The problem ``cfg`` poses on ``mesh`` at ``omega``, with the fields
    in ``given`` in place of the configured ones.  The one place the CLI
    builds a problem, so that every physical-input rule of ``scattering``
    it breaks is a usage error."""
    given = {"eps": cfg.eps, "y0": cfg.center,
             "guard_constant": cfg.guard_constant, **given}
    try:
        return sc.ScatteringProblem(mesh, omega=omega,
                                    incident=cfg.incident(), **given)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_solve(cfg: RunConfig, writer: ArtifactWriter) -> int:
    mesh = cfg.build_mesh()
    problem = _make_problem(cfg, mesh, cfg.omega)
    spectral = bc.spectral_data(mesh)
    points, _ = sc.far_field_points(problem)
    fld = sc.scattered_field(problem, points, cfg.method, spectral)
    # how far the field on the fit sphere is from its monopole part
    # A G_omega(. - y0); exactly 0 for a closed form, which is that monopole,
    # and 0 for a field so small that that distance underflows to 0
    deviation = np.linalg.norm(fld.scattered - fld.amplitude
                               * sc.green_function(problem.omega,
                                                   points - problem.y0))
    misfit = deviation / np.linalg.norm(fld.scattered) if deviation else 0.0
    writer.write_csv("fields.csv",
                     ["x", "y", "z", "re_incident", "im_incident",
                      "re_scattered", "im_scattered", "re_total", "im_total"],
                     [(*p, ui, us, ut) for p, ui, us, ut in zip(
                         fld.points, fld.incident, fld.scattered, fld.total)])
    writer.write_csv("summary.csv",
                     ["quantity", "value"],
                     [("re_amplitude", fld.amplitude.real),
                      ("im_amplitude", fld.amplitude.imag),
                      ("fit_residual", misfit),
                      ("guard_band", problem.in_guard_band(spectral))])
    for note in fld.warnings:
        writer.warn(note)
    print(f"amplitude={fld.amplitude:.10g} residual={misfit:.3g}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, writer: ArtifactWriter) -> int:
    mesh = cfg.build_mesh()
    # built at the highest frequency, so that its validity warning covers
    # the whole grid, and at the lowest, so that every input rule holds on
    # all of it before any solve
    problem = _make_problem(cfg, mesh, cfg.omega_grid[-1])
    _make_problem(cfg, mesh, cfg.omega_grid[0], validity_threshold=np.inf)
    spectral = bc.spectral_data(mesh)
    sweep = sc.frequency_sweep(problem, cfg.omega_grid, cfg.method, spectral)
    for note in sweep.warnings:
        writer.warn(note)
    writer.warnings.extend(f"omega={r.omega}: {r.error}"
                           for r in sweep.rows if r.error)
    writer.write_csv("sweep.csv",
                     ["omega", "re_amplitude", "im_amplitude", "abs2",
                      "re_uniform", "im_uniform", "re_nonresonant",
                      "im_nonresonant", "re_resonant", "im_resonant",
                      "guard_band"],
                     [(r.omega, r.amplitude, r.abs2, r.prediction_uniform,
                       r.prediction_nonresonant, r.prediction_resonant,
                       r.guard_band) for r in sweep.rows])
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
        writer.warn(f"peak fit skipped: {exc}")
    print(f"swept {len(sweep.rows)} frequencies with method={cfg.method}")
    return EXIT_OK


def verification_checks(cfg: RunConfig):
    """The identity/expansion/kernel suite behind ``verify``: one
    (name, value, low, high, gated) row per check, the columns of
    verify.csv.  A gated check passes when low <= value <= high; the
    others are reported with a confidence interval [low, high].

    The ten contracted studies, four expansion residuals and then six
    resolvent kernels, are independent: each factors its own M S_w from
    the one series stack, which ``boundary_calculus._series_stack`` sizes
    from the (eps, omega, z) each study is handed.  The Gauss identity
    reads K_0 from that stack too, and assembles it exactly only when
    there is no stack.  The studies run as tasks of
    ``layer_ops._side_by_side``, side by side on the usable CPUs, with
    ``spectral``'s caches filled before they start; their values are read
    in task order, so the rows do not depend on the worker count.
    """
    mesh = cfg.build_mesh()
    x = np.array([1.2, 0.3, -0.4])
    y = np.array([-0.8, 0.9, 1.1])
    center = np.asarray(cfg.center) if cfg.center is not None \
        else np.zeros(3)
    eps_list = (0.2, 0.1, 0.05)
    # built before any solve: they apply every input rule, the
    # eps-dependent point-source check too
    offres = [_make_problem(cfg, mesh, 1.0, eps=eps, y0=center,
                            validity_threshold=np.inf) for eps in eps_list]
    # the kernel samples x, y must clear the contracted mesh at every eps
    # and differ from the center, the point-interaction kernel's rule; its
    # correction 4 pi (i/z) G_z(x - y0) G_z(y - y0) at z = i is the limit
    # the resonant kernels approach
    try:
        glim = (sc.point_perturbation_kernel(1j, center, x, y)
                - sc.green_function(1j, (x - y)[None, :])[0])
        for prob in offres:
            _check_clearance(mesh, prob.contract(np.stack([x, y])))
    except ValueError as exc:
        raise UsageError(f"center {center.tolist()} breaks the kernel "
                         f"samples x = {x.tolist()}, y = {y.tolist()}: "
                         f"{exc}") from None
    spectral = bc.spectral_data(mesh)
    what = bc.k2_resonance_frequency(spectral)
    res = [_make_problem(cfg, mesh, what, eps=eps, y0=center,
                         validity_threshold=np.inf) for eps in eps_list]
    # the studies as the (eps, omega, z) of each expansion residual and the
    # (problem, z) of each resolvent kernel; one series stack holds every
    # contracted operator of them all, and K_0, and is released when the
    # checks return; each fallback to exact assembly is a warning
    expansions = [(eps, omega, 0.7) for omega in (1.0, what)
                  for eps in (0.04, 0.02)]
    kernels = [(prob, 1j) for prob in (*offres, *res)]
    stack, notes = _series_stack(
        spectral,
        expansions + [(prob.eps, prob.omega, z) for prob, z in kernels])
    for note in notes:
        warnings.warn(note)

    # F order, the layout of an exact K_0, keeps the bits of k0 @ ones
    k0 = (assemble_double_layer(mesh, 0.0) if stack is None
          else np.asfortranarray(stack.double[0]))
    ones = np.ones(mesh.n_panels)
    gauss = float(np.abs(0.5 * ones + k0 @ ones).max())
    del k0
    k2 = spectral.k2_average()
    k3 = spectral.k3_average()
    ratio = mesh.volume / spectral.capacitance
    quad_err = max(abs(w ** 2 * (k2 + ratio)) / abs(1.0 - w ** 2 * ratio)
                   for w in (0.5, 1.0, 2.0))
    cubic_err = abs(k3 + 1j * mesh.volume / (4 * np.pi)) \
        / (mesh.volume / (4 * np.pi))
    tol = DEFAULT_TOLERANCES["coefficient_identity"]
    checks = [("gauss_identity", gauss, -math.inf, DEFAULT_TOLERANCES["gauss"],
               True),
              ("quadratic_coefficient_identity", quad_err, -math.inf, tol, True),
              ("cubic_coefficient_identity", cubic_err, -math.inf, tol, True)]

    lo = DEFAULT_TOLERANCES["expansion_ratio_low"]
    hi = DEFAULT_TOLERANCES["expansion_ratio_high"]
    # the averages are cached above; the Gram factor, which every
    # expansion residual reads, is cached here, before the studies share it
    spectral.gram_cholesky()
    studies = _side_by_side(
        [partial(bc.expansion_residual, spectral, *study, stack)
         for study in expansions]
        + [partial(sc.resolvent_correction_kernel, prob, z, x, y, stack)
           for prob, z in kernels], "study")
    for name, (r_coarse, r_fine) in zip(
            ("offres_expansion_ratio", "res_expansion_ratio"),
            (studies[0:2], studies[2:4])):
        checks.append((name, r_coarse / r_fine, lo, hi, True))

    window = DEFAULT_TOLERANCES["kernel_rate_window"]
    for name, kernels, target, expected, gated in (
            ("krein_kernel_offres_rate", studies[4:7], 0.0, 1.0, True),
            ("krein_kernel_res_rate", studies[7:10], glim, 0.5, False)):
        logs = np.log([abs(kernel - target) for kernel in kernels])
        # the covariance is scaled by the residual over len(eps_list) - 2,
        # the degrees of freedom a line leaves
        (slope, _), cov = np.polyfit(np.log(eps_list), logs, 1, cov=True)
        stderr = math.sqrt(cov[0, 0])
        # the resonant rate is reported with its confidence interval
        low, high = ((expected - window, expected + window) if gated
                     else (slope - 2 * stderr, slope + 2 * stderr))
        checks.append((name, float(slope), low, high, gated))
    return checks


def cmd_verify(cfg: RunConfig, writer: ArtifactWriter) -> int:
    checks = verification_checks(cfg)
    rows = []
    for name, value, low, high, gated in checks:
        ok = not gated or low <= value <= high
        rows.append((name, value, low, high, ok))
        bounds = (f"in [{low:g}, {high:g}]" if gated
                  else f"CI [{low:.3g}, {high:.3g}]")
        print(f"{'pass' if ok else 'FAIL'}  {name}: {value:.6g} ({bounds})")
    writer.write_csv("verify.csv",
                     ["check", "value", "bound_low", "bound_high", "pass"],
                     rows)
    return EXIT_OK if all(row[-1] for row in rows) else EXIT_VERIFY


# ----------------------------------------------------------------------------
# Entry point


_EPILOG = ("Settings apply in order: defaults, the --config file, the flags; "
           "each flag mirrors a config key. A mesh source, frequency or "
           "incident wave replaces the one an earlier source gave; giving "
           "two in one source is an error. --out defaults to . or "
           f"${OUTDIR_ENV}. A value with a leading minus needs the "
           "--flag=value form, e.g. --center=-1,0,0.")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        p = sub.add_parser(name, help=help_text, epilog=_EPILOG)
        p.add_argument("--config", default=None, help="INI-style config file")
        for setting in _SETTINGS:
            p.add_argument(setting.flag, dest=setting.attr,
                           metavar=setting.metavar)
        p.add_argument("--check", action="store_true",
                       help="verify artifact checksums against the manifest "
                            "instead of running")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
        writer = ArtifactWriter(cfg.output_dir, args.command, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = handler(cfg, writer)
        for w in caught:
            writer.warn(str(w.message))
        writer.finalize()
        return code
    except (UsageError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except bc.NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
