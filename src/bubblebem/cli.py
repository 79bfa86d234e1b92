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
with sha256 checksums and the run's notes; re-running with --check
verifies the artifacts against the manifest.  Every run note is a Python
warning, and ``main`` alone collects them: it prints each and records
them in the manifest in the order the run raised them.

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
from collections import namedtuple
from dataclasses import asdict, dataclass
from functools import cache, partial
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
        # STOP ends the grid when the count falls short of a whole number
        # by no more than the rounding of the bounds and the step, measured
        # in steps (half a step at most, where the bounds' floats are
        # coarser than that): the points are START + i STEP, and none lies
        # past STOP by more than that rounding
        steps += min(0.5, 4 * sys.float_info.epsilon
                     * (abs(start) + abs(stop)) / step)
        return [start + i * step for i in range(math.floor(steps) + 1)]
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
    """Collects CSV artifacts and finalizes a checksummed manifest.  The
    output directory is created on the first write."""

    def __init__(self, outdir: str, command: str, config: RunConfig):
        self.outdir = outdir
        self.command = command
        self.config = config
        self.files: dict[str, str] = {}
        self.t0 = time.perf_counter()

    def _path(self, name: str) -> str:
        os.makedirs(self.outdir, exist_ok=True)
        return os.path.join(self.outdir, name)

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

    def finalize(self, notes: list[str]) -> str:
        """Write the manifest, with the run's ``notes`` as its warnings."""
        echo = self.config.echo()
        run_id = hashlib.sha256(
            json.dumps({"command": self.command, "config": echo},
                       sort_keys=True).encode("ascii")).hexdigest()[:16]
        manifest = {
            "run_id": run_id,
            "command": self.command,
            "config": echo,
            "artifacts": self.files,
            "timing_seconds": time.perf_counter() - self.t0,
            "warnings": notes,
        }
        path = self._path("manifest.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        return path


def check_manifest(outdir: str) -> list[str]:
    """Compare artifact checksums against the manifest; returns problems.

    A manifest that cannot be read as ASCII JSON, is not an object or does
    not map artifact names to checksum strings is one problem, and so is
    each artifact name that is not a plain file name in ``outdir`` and
    each artifact that cannot be read as a file.
    """
    path = os.path.join(outdir, "manifest.json")
    try:
        with open(path, "r", encoding="ascii") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        return [f"no manifest at {path}"]
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: UnicodeDecodeError and json's JSONDecodeError; json
        # recurses once per level of nesting
        return [f"manifest {path} cannot be read as ASCII JSON: {exc}"]
    artifacts = isinstance(manifest, dict) and manifest.get("artifacts", {})
    if not (isinstance(artifacts, dict)
            and all(isinstance(v, str) for v in artifacts.values())):
        return [f"manifest {path} does not map artifact names to checksums"]
    problems = []
    for name, expected in artifacts.items():
        if (os.path.basename(name) != name or name in ("", ".", "..")
                or "\0" in name):
            problems.append(f"artifact name {name!r} is not a file name in "
                            f"{outdir}")
            continue
        try:
            with open(os.path.join(outdir, name), "rb") as fh:
                actual = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            problems.append(f"artifact {name} cannot be read: {exc.strerror}")
            continue
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
    guard_band = problem.in_guard_band(spectral)
    if guard_band:
        warnings.warn(f"omega within {problem.guard_constant:g}*eps of the "
                      "Minnaert frequency: quasi-resonant guard band")
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
                      ("guard_band", guard_band)])
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
    for r in sweep.rows:
        if r.error:
            warnings.warn(f"omega={r.omega}: {r.error}")
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
        warnings.warn(f"peak fit skipped: {exc}")
    print(f"swept {len(sweep.rows)} frequencies with method={cfg.method}")
    return EXIT_OK


# a check of ``verify`` that runs one study per eps: an expansion residual
# (kind "ratio") or a resolvent kernel ("rate"), at the omega given, or at
# the resonance centre for None, and z; a rate's window may be None, and
# the value is then reported with its confidence interval
_Study = namedtuple("_Study", "name kind eps omega z window")

# the study rows of verify.csv, in its order; README lists them as a table
_STUDIES = (
    _Study("offres_expansion_ratio", "ratio", (0.04, 0.02), 1.0, 0.7,
           (1.6, 2.6)),
    _Study("res_expansion_ratio", "ratio", (0.04, 0.02), None, 0.7,
           (1.6, 2.6)),
    _Study("krein_kernel_offres_rate", "rate", (0.2, 0.1, 0.05), 1.0, 1j,
           (0.8, 1.2)),
    _Study("krein_kernel_res_rate", "rate", (0.2, 0.1, 0.05), None, 1j,
           None),
)


def verification_checks(cfg: RunConfig):
    """The identity/expansion/kernel suite behind ``verify``: one
    (name, value, low, high, gated) row per check, the columns of
    verify.csv.  A gated check passes when low <= value <= high; the
    others are reported with a confidence interval [low, high].

    The Gauss, quadratic and cubic coefficient identities come first, then
    one row per entry of ``_STUDIES``: its name, kind, eps list, omega
    (fixed, or the centre ``k2_resonance_frequency`` gives), z and window
    (none: the value is reported with its 2-sigma interval).  A ratio
    divides the expansion residual at its first eps by that at its second;
    a rate fits log |kernel - limit| against log eps, with the resolvent
    kernel at the samples x = (1.2, 0.3, -0.4), y = (-0.8, 0.9, 1.1) and
    its limit 0 at a fixed omega, and at the centre the point-interaction
    correction 4 pi (i/z) G_z(x - y0) G_z(y - y0), read from
    ``point_perturbation_kernel``.  The kernel problems at a fixed omega
    are built, and the samples checked against them, before any solve.

    Each eps of a row is one contracted study.  The studies are
    independent: each factors its own M S_w from the one series stack,
    which ``boundary_calculus._series_stack`` sizes from the
    (eps, omega, z) each study is handed.  The Gauss identity reads K_0
    from that stack too, and assembles it exactly only when there is no
    stack.  The studies run as tasks of ``layer_ops._side_by_side``, side
    by side on the usable CPUs, with ``spectral``'s caches filled before
    they start; their values are read in task order, so the rows do not
    depend on the worker count.
    """
    mesh = cfg.build_mesh()
    x, y = samples = np.array([[1.2, 0.3, -0.4], [-0.8, 0.9, 1.1]])
    center = np.asarray(cfg.center or (0.0, 0.0, 0.0))

    def checked(rule, *args):
        # a rule of the kernel samples that the center breaks is a usage
        # error
        try:
            return rule(*args)
        except ValueError as exc:
            raise UsageError(f"center {center.tolist()} breaks the kernel "
                             f"samples x = {x.tolist()}, y = {y.tolist()}: "
                             f"{exc}") from None

    @cache
    def pose(eps, omega):
        # a kernel problem applies every input rule, the eps-dependent
        # point-source check too, and the samples must clear its contracted
        # mesh
        prob = _make_problem(cfg, mesh, omega, eps=eps, y0=center,
                             validity_threshold=np.inf)
        checked(_check_clearance, mesh, prob.contract(samples))
        return prob

    # each rate's limit; the point interaction's needs x, y off the center
    limits = {row: 0.0 if row.omega is not None else
              checked(sc.point_perturbation_kernel, row.z, center, x, y)
              - sc.green_function(row.z, (x - y)[None, :])[0]
              for row in _STUDIES if row.kind == "rate"}
    # the problems at a fixed omega are posed before any solve
    for row in limits:
        for eps in row.eps if row.omega is not None else ():
            pose(eps, row.omega)
    spectral = bc.spectral_data(mesh)
    centre = bc.k2_resonance_frequency(spectral)
    # each study as its row and the (eps, omega, z) it is handed
    studies = [(row, eps, centre if row.omega is None else row.omega, row.z)
               for row in _STUDIES for eps in row.eps]
    # one series stack holds every contracted operator of the studies, and
    # K_0, and is released when the checks return; each fallback to exact
    # assembly is a warning
    stack = _series_stack(spectral, [study[1:] for study in studies])

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
    # the identities' fixed windows
    checks = [("gauss_identity", gauss, -math.inf, 1e-12, True),
              ("quadratic_coefficient_identity", quad_err, -math.inf, 0.02,
               True),
              ("cubic_coefficient_identity", cubic_err, -math.inf, 0.02, True)]

    # the averages are cached above; the Gram factor, which every
    # expansion residual reads, is cached here, before the studies share it
    spectral.gram_cholesky()
    values = iter(_side_by_side([
        partial(bc.expansion_residual, spectral, eps, omega, z, stack)
        if row.kind == "ratio" else partial(sc.resolvent_correction_kernel,
                                            pose(eps, omega), z, x, y, stack)
        for row, eps, omega, z in studies], "study"))
    for row in _STUDIES:
        found = [next(values) for _ in row.eps]
        if row.kind == "ratio":
            checks.append((row.name, found[0] / found[1], *row.window, True))
            continue
        logs = np.log([abs(kernel - limits[row]) for kernel in found])
        slope = float(np.polyfit(np.log(row.eps), logs, 1)[0])
        if row.window is None:
            # 2 sigma, the covariance scaled by the residual over
            # len(eps) - 2, the degrees of freedom a line leaves
            half = 2 * math.sqrt(
                np.polyfit(np.log(row.eps), logs, 1, cov=True)[1][0, 0])
        window = row.window or (slope - half, slope + half)
        checks.append((row.name, slope, *window, row.window is not None))
    return checks


def cmd_verify(cfg: RunConfig, writer: ArtifactWriter) -> int:
    rows = []
    for name, value, low, high, gated in verification_checks(cfg):
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
        # every run note is a warning: printed and kept in the manifest in
        # the order the run raised them
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = handler(cfg, writer)
        notes = [str(w.message) for w in caught]
        for note in notes:
            print(f"warning: {note}")
        writer.finalize(notes)
        return code
    except (UsageError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except bc.NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
