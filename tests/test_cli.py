import contextlib
import errno
import io
import json
import math
import os
import pathlib
import tempfile
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblebem import boundary_calculus as bc
from bubblebem import layer_ops
from bubblebem import scattering as sc
from bubblebem.boundary_calculus import spectral_data
from bubblebem.cli import (EXIT_GUARD, EXIT_OK, EXIT_USAGE, EXIT_VERIFY,
                           RunConfig, main, verification_checks)
from bubblebem.mesh import make_icosphere
from reference import load_fixture, save_off


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_geometry_icosphere(tmp_path, capsys):
    assert run(tmp_path, "geometry", "--icosphere", "1.0,2") == EXIT_OK
    header, rows = read_csv(tmp_path / "geometry.csv")
    values = {r[0]: float(r[1]) for r in rows}
    assert values["volume"] == pytest.approx(4 * np.pi / 3, rel=5e-2)
    assert values["panels"] == 320


def test_geometry_cube_exact(tmp_path):
    from test_mesh import cube
    path = tmp_path / "cube.off"
    save_off(cube(), str(path))
    assert run(tmp_path, "geometry", "--mesh", str(path)) == EXIT_OK
    _, rows = read_csv(tmp_path / "geometry.csv")
    values = {r[0]: float(r[1]) for r in rows}
    assert values["volume"] == pytest.approx(1.0, abs=1e-14)


TETRA_OFF_FACES = "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"


@pytest.mark.parametrize("text", [
    "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 nan\n" + TETRA_OFF_FACES,
    "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 inf\n" + TETRA_OFF_FACES,
    "OFF\n4 4 0\n0 0 0\n1e200 0 0\n0 1e200 0\n0 0 1e200\n" + TETRA_OFF_FACES,
    "OFF\n-1 4 0\n",
    "OFF\n1000000000000 4 0\n0 0 0\n",
], ids=["open", "nan", "inf", "scaled-1e200", "negative-count",
        "huge-count"])
def test_geometry_broken_mesh_nonzero_exit(tmp_path, capsys, text):
    bad = tmp_path / "bad.off"
    bad.write_text(text)
    out = tmp_path / "out"
    for command in (["geometry"], ["solve", "--omega", "1.3"]):
        assert main([*command, "--mesh", str(bad),
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()   # a run that fails before writing leaves nothing


@pytest.mark.parametrize("name", ["missing.off", "folder.off", "binary.off",
                                  "mesh.stl"])
def test_unreadable_mesh_file_is_a_usage_error(tmp_path, capsys, name):
    path = tmp_path / name
    if name == "folder.off":
        path.mkdir()
    elif name == "binary.off":
        path.write_bytes(b"OFF\n\xff\n")
    elif name == "mesh.stl":
        path.write_text("solid mesh\nendsolid mesh\n")
    assert run(tmp_path, "geometry", "--mesh", str(path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_minnaert_values_and_scaling(tmp_path):
    assert run(tmp_path, "minnaert", "--icosphere", "1.0,2") == EXIT_OK
    _, rows = read_csv(tmp_path / "minnaert.csv")
    unit = {r[0]: float(r[1]) for r in rows}
    assert unit["capacitance"] == pytest.approx(4 * np.pi, rel=2e-2)
    assert unit["minnaert_omega"] == pytest.approx(np.sqrt(3), rel=1.5e-2)
    assert run(tmp_path, "minnaert", "--icosphere", "2.0,2") == EXIT_OK
    _, rows = read_csv(tmp_path / "minnaert.csv")
    double = {r[0]: float(r[1]) for r in rows}
    assert double["capacitance"] == pytest.approx(8 * np.pi, rel=2e-2)
    # exact discrete scaling of the assembled formulas
    assert double["minnaert_omega"] * 2 == pytest.approx(
        unit["minnaert_omega"], rel=1e-12)


def test_solve_method_equivalence(tmp_path):
    for method, sub in (("direct", "a"), ("dilated", "b")):
        out = tmp_path / sub
        assert main(["solve", "--icosphere", "1.0,1", "--eps", "0.05",
                     "--omega", "1.3", "--method", method,
                     "--out", str(out)]) == EXIT_OK
    _, rows_a = read_csv(tmp_path / "a" / "summary.csv")
    _, rows_b = read_csv(tmp_path / "b" / "summary.csv")
    a = {r[0]: float(r[1]) for r in rows_a}
    b = {r[0]: float(r[1]) for r in rows_b}
    amp_a = complex(a["re_amplitude"], a["im_amplitude"])
    amp_b = complex(b["re_amplitude"], b["im_amplitude"])
    assert abs(amp_a - amp_b) <= 1e-6 * abs(amp_b)


def test_solve_matches_stored_oracle_fixture(tmp_path):
    from conftest import FIXTURE_DIR
    record = load_fixture(os.path.join(FIXTURE_DIR,
                                       "mie_R1_eps0.05_w1.000000.json"))
    reference = -4j * np.pi * record["b"][0] / record["omega"]
    assert main(["solve", "--icosphere", "1.0,3", "--eps", "0.05",
                 "--omega", "1.0", "--method", "dilated", "--center", "0,0,0",
                 "--out", str(tmp_path)]) == EXIT_OK
    _, rows = read_csv(tmp_path / "summary.csv")
    values = {r[0]: float(r[1]) for r in rows}
    amp = complex(values["re_amplitude"], values["im_amplitude"])
    assert abs(amp) == pytest.approx(abs(reference), rel=5e-2)


@pytest.mark.parametrize("method", ["dilated", "uniform"])
def test_summary_fit_residual_is_the_monopole_misfit(tmp_path, method):
    # ||u_sc - A G_omega(. - y0)|| / ||u_sc|| on the fit sphere of
    # fields.csv: the l >= 1 part of a solve, 0 for a closed form
    assert run(tmp_path, "solve", "--icosphere", "1.0,1", "--eps", "0.05",
               "--omega", "1.3", "--method", method,
               "--center", "0,0,0") == EXIT_OK
    _, rows = read_csv(tmp_path / "summary.csv")
    values = {r[0]: float(r[1]) for r in rows}
    amplitude = complex(values["re_amplitude"], values["im_amplitude"])
    _, rows = read_csv(tmp_path / "fields.csv")
    fields = np.array(rows, dtype=float)
    scattered = fields[:, 5] + 1j * fields[:, 6]
    monopole = amplitude * sc.green_function(1.3, fields[:, :3])
    misfit = np.linalg.norm(scattered - monopole) / np.linalg.norm(scattered)
    if method == "uniform":
        assert values["fit_residual"] == 0.0
    else:
        assert values["fit_residual"] == pytest.approx(misfit, rel=1e-9)
        assert 1e-5 <= misfit <= 1e-2


def test_solve_guard_band_warning(tmp_path, capsys):
    assert main(["solve", "--icosphere", "1.0,1", "--eps", "0.05",
                 "--omega", "1.81", "--method", "uniform",
                 "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "quasi-resonant" in out


def test_sweep_uniform_columns_match(tmp_path):
    assert main(["sweep", "--icosphere", "1.0,1", "--eps", "0.05",
                 "--omega-grid", "1.5:1.9:0.05", "--method", "uniform",
                 "--out", str(tmp_path)]) == EXIT_OK
    header, rows = read_csv(tmp_path / "sweep.csv")
    i_re = header.index("re_amplitude")
    i_un = header.index("re_uniform")
    for row in rows:
        assert float(row[i_re]) == pytest.approx(float(row[i_un]), rel=1e-14)
    # guard band rows flagged
    i_guard = header.index("guard_band")
    i_w = header.index("omega")
    flagged = [float(r[i_w]) for r in rows if r[i_guard] == "1"]
    assert flagged  # the grid crosses the Minnaert frequency


def test_sweep_validity_warning_covers_the_highest_frequency(tmp_path,
                                                            capsys):
    # eps * omega * diameter is 0.6 at omega = 1.0 and 1.2 at omega = 2.0
    assert main(["sweep", "--icosphere", "1,1", "--eps", "0.3",
                 "--omega-grid", "1.0:2.0:0.5", "--method", "uniform",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert "exceeds the validity threshold" in capsys.readouterr().out
    with open(tmp_path / "manifest.json") as fh:
        recorded = json.load(fh)["warnings"]
    assert any("exceeds the validity threshold" in w for w in recorded)


def test_missing_complex_value_is_nan_in_both_columns(tmp_path):
    # the off-resonance formula is undefined at omega_M: that row fails
    wm = spectral_data(make_icosphere(1.0, 1)).minnaert_omega
    assert main(["sweep", "--icosphere", "1.0,1", "--method", "nonresonant",
                 "--omega-grid", f"1.5,{wm!r},1.9",
                 "--out", str(tmp_path)]) == EXIT_OK
    header, rows = read_csv(tmp_path / "sweep.csv")
    failed = dict(zip(header, rows[1]))
    for column in ("re_amplitude", "im_amplitude", "abs2",
                   "re_nonresonant", "im_nonresonant"):
        assert failed[column] == "nan", column
    assert all(v != "nan" for v in dict(zip(header, rows[0])).values())


def test_manifest_check_detects_tampering(tmp_path):
    assert run(tmp_path, "geometry", "--icosphere", "1.0,1") == EXIT_OK
    assert run(tmp_path, "geometry", "--icosphere", "1.0,1",
               "--check") == EXIT_OK
    with open(tmp_path / "geometry.csv", "a") as fh:
        fh.write("tampered,1\n")
    assert run(tmp_path, "geometry", "--icosphere", "1.0,1",
               "--check") == EXIT_VERIFY


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["solve", "--icosphere", "1.0,1", "--eps", "0.05",
                     "--omega", "1.3", "--method", "direct",
                     "--out", str(out)]) == EXIT_OK
    assert (out1 / "fields.csv").read_bytes() == (out2 / "fields.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


@settings(max_examples=8, deadline=None)
@given(mesh=st.sampled_from([("--icosphere", "1.0,1"),
                             ("--ellipsoid", "1,1.3,1.7,1")]),
       eps=st.floats(0.01, 0.1), omega=st.floats(0.5, 2.5),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda d: np.linalg.norm(d) > 0.1),
       method=st.sampled_from(sc.METHODS))
def test_solve_bytes_independent_of_worker_count(mesh, eps, omega, direction,
                                                 method):
    # the kernel pass's row blocks change no byte of a solve's CSVs: one
    # worker, two workers and a repeat of two, with chunks small enough
    # that every sub-1 pass makes several
    argv = ["solve", *mesh, "--eps", repr(eps), "--omega", repr(omega),
            "--plane-wave=" + ",".join(map(repr, direction)),
            "--method", method]
    outputs = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() \
            as mp:
        # 7 rows per chunk of a sub-1 mesh: 80 panels, 6 nodes each
        mp.setattr(layer_ops, "_CHUNK_PAIRS", 7 * 6 * 80)
        for k, workers in enumerate((1, 2, 2)):
            mp.setattr(layer_ops, "_worker_count",
                       lambda chunks, workers=workers: workers)
            out = os.path.join(tmp, str(k))
            assert main([*argv, "--out", out]) == EXIT_OK
            outputs.append([pathlib.Path(out, name).read_bytes()
                            for name in ("fields.csv", "summary.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("method", ["dilated", "direct"])
def test_sweep_bytes_independent_of_worker_count(tmp_path, method):
    # neither the kernel pass's row blocks nor the lockstep lanes change a
    # byte of a sweep's CSVs: one worker, two workers and a repeat of two.
    # The dilated sweep reads S and K from its series stack, the direct one
    # assembles them at every frequency
    argv = ["sweep", "--icosphere", "1.0,1", "--eps", "0.05",
            "--omega-grid", "1.5:1.9:0.05", "--method", method]
    outputs = []
    with pytest.MonkeyPatch.context() as mp:
        # 7 rows per chunk of a sub-1 mesh: 80 panels, 6 nodes each
        mp.setattr(layer_ops, "_CHUNK_PAIRS", 7 * 6 * 80)
        for k, workers in enumerate((1, 2, 2)):
            mp.setattr(layer_ops, "_worker_count",
                       lambda chunks, workers=workers: workers)
            out = tmp_path / str(k)
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            outputs.append([(out / name).read_bytes()
                            for name in ("sweep.csv", "peak.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


# the edge values a numeric field is drawn from, beside its ordinary ones
EDGE_VALUES = [0.0, 1e-300, -1e-300, 1e300, -1e300, math.nan, math.inf,
               -math.inf]


@st.composite
def any_argv(draw):
    """A command line of any command: a sub-0 or sub-1 mesh, the command's
    frequency, and any of the other numeric settings and the method.  One
    numeric field, if any, is given and takes edge values, each of its
    numbers an edge value or an ordinary one and at least one an edge
    value; the others take ordinary values, so that most draws reach past
    the input rules.  A START:STOP:STEP grid that the CLI accepts has at
    most 26 points."""
    edgy = draw(st.sampled_from(["mesh", "frequency", "eps", "center",
                                 "incident", "guard-constant", None]))

    def numbers(name, *ordinary, n=1):
        if name != edgy:
            values = draw(st.lists(st.sampled_from(ordinary), min_size=n,
                                   max_size=n))
        else:
            values = draw(st.lists(st.sampled_from(
                [*EDGE_VALUES, *ordinary]), min_size=n - 1, max_size=n - 1))
            values.insert(draw(st.integers(0, n - 1)),
                          draw(st.sampled_from(EDGE_VALUES)))
        return ",".join(map(repr, values))

    command = draw(st.sampled_from(["geometry", "minnaert", "solve", "sweep",
                                    "verify"]))
    mesh = draw(st.sampled_from(["icosphere", "ellipsoid"]))
    sizes = numbers("mesh", 1.0, 0.7, n=1 if mesh == "icosphere" else 3)
    argv = [command, f"--{mesh}={sizes},{draw(st.sampled_from([0, 1]))}"]
    if command == "solve":
        argv.append(f"--omega={numbers('frequency', 1.3, 1.75)}")
    if command == "sweep":
        grid = (numbers("frequency", 1.3, n=2) if draw(st.booleans())
                else ":".join(numbers("frequency", *ordinary) for ordinary
                              in ((0.5, 1.5), (2.5,), (0.1, 0.5))))
        argv.append(f"--omega-grid={grid}")
    incident = draw(st.sampled_from(["plane-wave", "point-source"]))
    if edgy == "incident" or draw(st.booleans()):
        argv.append(f"--{incident}={numbers('incident', 0.0, 3.0, n=3)}")
    for name, ordinary in (("eps", (0.05, 0.3)), ("center", (0.0, 0.2)),
                           ("guard-constant", (1.0,))):
        if edgy == name or draw(st.booleans()):
            argv.append(f"--{name}="
                        + numbers(name, *ordinary,
                                  n=3 if name == "center" else 1))
    if draw(st.booleans()):
        argv.append(f"--method={draw(st.sampled_from(sc.METHODS))}")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=any_argv())
def test_no_command_line_ends_in_a_traceback(argv):
    # every command line ends in one of the four exit codes, and a usage
    # error or a tripped guard says so on its first line; a solve that
    # exits 0 writes finite fields
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", tmp])
        if code == EXIT_OK and argv[0] == "solve":
            _, rows = read_csv(os.path.join(tmp, "fields.csv"))
            assert not any(math.isnan(float(v)) for row in rows
                           for v in row), argv
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_GUARD, EXIT_VERIFY)
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error:")
    if code == EXIT_GUARD:
        assert err.getvalue().startswith("numerical guard:")


def test_peak_outside_the_grid_is_a_manifest_warning(tmp_path, monkeypatch):
    # |A|^2 rising linearly from 1 to 2 over 1.5-2.0, row 24 raised to
    # 2.1: the Lorentzian's centre lands past the grid's upper end and
    # takes no vertex refinement.  The peak is written as fitted, and
    # flagged
    grid = np.round(np.linspace(1.5, 2.0, 26), 10)
    abs2 = np.linspace(1.0, 2.0, 26)
    abs2[24] = 2.1
    sweep = sc.SweepResult("uniform", 0.05, [
        sc.SweepRow(float(w), None, float(a), 0j, None, 0j, False)
        for w, a in zip(grid, abs2)])
    monkeypatch.setattr(sc, "frequency_sweep", lambda *args: sweep)
    assert run(tmp_path, "sweep", "--icosphere", "1.0,0", "--eps", "0.05",
               "--omega-grid", "1.5:2.0:0.02") == EXIT_OK
    _, rows = read_csv(tmp_path / "peak.csv")
    omega_peak = float(rows[0][1])
    assert omega_peak == pytest.approx(2.1265, abs=1e-4)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["warnings"] == [
        f"fitted peak omega={omega_peak:.6g} lies outside the swept grid "
        "[1.5, 2]"]


def test_usage_errors(tmp_path):
    # omega and omega-grid together
    assert main(["solve", "--icosphere", "1.0,1", "--eps", "0.05",
                 "--omega", "1.0", "--omega-grid", "1.0:1.2:0.1",
                 "--out", str(tmp_path)]) == EXIT_USAGE
    # sweep without a grid
    assert main(["sweep", "--icosphere", "1.0,1", "--eps", "0.05",
                 "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("command, bad", [
    ("solve", ["--eps", "2"]),
    ("solve", ["--eps", "nan"]),
    ("solve", ["--omega", "-1"]),
    ("solve", ["--omega", "nan"]),
    ("sweep", ["--omega-grid", "1:2:0"]),
    ("sweep", ["--omega-grid", "1.6,1.5"]),
    ("solve", ["--icosphere", "a,b"]),
    ("solve", ["--icosphere", "1.0,nan"]),
    ("solve", ["--eps", "abc"]),
    ("solve", ["--method", "bogus"]),
    ("solve", ["--nope"]),
    ("bogus", []),
    ("sweep", ["--config", "[problem]\nomega_grid = 1.5:1.9:0.1\n"
                           "[run]\nmethod = bogus\n"]),
    ("solve", ["--mesh", "m.off"]),
    ("solve", ["--plane-wave", "0,0,1", "--point-source", "0,0,3"]),
    ("solve", ["--config", "[incident]\nplane_wave = 0, 0, 1\n"
                           "point_source = 0, 0, 3\n"]),
    ("solve", ["--plane-wave=0,0,0"]),
    ("verify", ["--plane-wave=0,0,0"]),
    ("solve", ["--plane-wave=nan,0,1"]),
    ("solve", ["--center=nan,0,0"]),
    ("sweep", ["--omega-grid", "1.5:1.9:0.1", "--center=inf,0,0"]),
    ("verify", ["--center=nan,0,0"]),
    ("solve", ["--point-source=nan,0,0"]),
    ("solve", ["--point-source=0,0,0"]),
    ("verify", ["--point-source=0,0,0"]),
    ("solve", ["--guard-constant=-1"]),
    ("sweep", ["--omega-grid", "1.5:1.9:0.1", "--guard-constant=nan"]),
    ("sweep", ["--omega-grid", "2.0:1.5:-0.1"]),
    ("sweep", ["--omega-grid", "1.5:2.0:-0.1"]),
    ("verify", ["--center=1.2,0.3,-0.4"]),
    ("verify", ["--center=-0.8,0.9,1.1"]),
    ("verify", ["--center=1.2,0.3,-0.35"]),
    ("solve", ["--config", "[run]\nmetod = direct\n"]),
    ("solve", ["--config", "[bogus]\nx = 1\n"]),
    ("verify", ["--config", "[tolerances]\nexpansion_ratio_high = 5\n"]),
    ("solve", ["--config", "omega = 1.3\n"]),
    ("solve", ["--config", "[run]\nmethod = uniform\n[run]\n"]),
    ("solve", ["--config", "[run]\nmethod = uniform\nmethod = direct\n"]),
    ("solve", ["--config", b"[run]\nmethod = unif\xffrm\n"]),
    # its distance to the scatterer overflows, and its field is nan
    ("solve", ["--point-source=1e300,0,0"]),
    ("sweep", ["--omega-grid", "1.5:1.9:0.1", "--method", "dilated",
               "--point-source=1e300,0,0"]),
    ("verify", ["--point-source=0,0,1e300"]),
    # the fit sphere, of radius 10/omega, contracted by 1/eps, has a
    # squared radius past the largest float
    ("solve", ["--omega", "1e-300"]),
    # the center's distance to the mesh overflows, and so would the
    # monopole's
    ("solve", ["--center=1e300,0,0"]),
    ("sweep", ["--omega-grid", "1e-300,1.5", "--method", "dilated"]),
])
def test_bad_physical_input_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                             command, bad):
    # every command rejects its input before any solve
    def no_solve(mesh):
        raise AssertionError("spectral data computed before the input check")

    monkeypatch.setattr(bc, "spectral_data", no_solve)
    monkeypatch.chdir(tmp_path)
    save_off(make_icosphere(1.0, 0), "m.off")
    if bad[0:1] == ["--config"]:
        path = tmp_path / "run.ini"
        path.write_bytes(bad[1] if isinstance(bad[1], bytes)
                         else bad[1].encode())
        bad = ["--config", str(path)]
    args = [command, "--icosphere", "1.0,0", "--eps", "0.05"]
    if command == "solve" and "--omega" not in bad:
        args += ["--omega", "1.3"]
    if command == "sweep" and "--config" not in bad:
        args += ["--method", "uniform"]
    assert main([*args, *bad, "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("method", ["dilated", "direct", "uniform"])
def test_the_smallest_contracted_wavenumber_writes_finite_values(tmp_path,
                                                                 method):
    # at eps * omega just above the rule's bound the fit sphere's squared
    # distances are finite: the fields are finite, and the misfit, whose
    # norm underflows to 0 there, is 0
    omega = 1.1 * sc._CONTRACTED_MIN / 0.05
    assert run(tmp_path, "solve", "--icosphere", "1,0", "--eps", "0.05",
               "--omega", repr(omega), "--method", method) == EXIT_OK
    for name in ("fields.csv", "summary.csv"):
        _, rows = read_csv(tmp_path / name)
        assert all(math.isfinite(float(v)) for row in rows
                   for v in row[-1 if name == "summary.csv" else 0:])
    with pytest.raises(ValueError, match="eps \\* omega must be at least"):
        sc.ScatteringProblem(make_icosphere(1.0, 0), 0.05, 0.9 * omega,
                             sc.PlaneWave(np.array([0.0, 0.0, 1.0])))


@pytest.mark.parametrize("grid", ["1:1e300:1e-300", "1.5:1.6:1e-12"])
def test_an_oversized_omega_grid_is_a_usage_error(tmp_path, capsys, grid):
    # the count is checked as a float before any list is built: an
    # infinite count or one above 10^6 points ends in error:, at once
    start = time.perf_counter()
    code = main(["sweep", "--icosphere", "1,0", "--eps", "0.05",
                 f"--omega-grid={grid}", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: omega grid {grid!r} has "
                                       "more than 1000000 points\n")


@pytest.mark.parametrize("command, bad, check, value", [
    ("solve", ["--eps", "1.5"], "check_eps", 1.5),
    ("solve", ["--omega", "inf"], "check_omega", float("inf")),
    ("sweep", ["--omega-grid", "1.7,1.5"], "check_grid", [1.7, 1.5]),
    # 1/eps^2 overflows: the contrast is not a float
    ("solve", ["--eps", "1e-300"], "check_eps", 1e-300),
    ("sweep", ["--eps", "1e-160"], "check_eps", 1e-160),
    # omega^3 in the closed-form amplitudes overflows
    ("solve", ["--omega", "1e300"], "check_omega", 1e300),
    ("sweep", ["--omega-grid", "1.5,1e300"], "check_grid", [1.5, 1e300]),
])
def test_frequency_errors_are_the_scattering_rule(tmp_path, capsys, command,
                                                  bad, check, value):
    # the CLI reports the rule scattering owns, word for word, and stops
    # before any mesh is built
    with pytest.raises(ValueError) as rule:
        getattr(sc, check)(value)
    args = [command, "--mesh", str(tmp_path / "absent.off"), "--eps", "0.05"]
    args += ["--omega", "1.3"] if command == "solve" else []
    assert main([*args, *bad, "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {rule.value}\n"


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage:")
    if argv[0] == "solve":
        for flag in ("--config", "--mesh", "--icosphere", "--ellipsoid",
                     "--eps", "--omega", "--omega-grid", "--center",
                     "--plane-wave", "--point-source", "--method", "--out",
                     "--guard-constant", "--check"):
            assert flag in out
        # argparse may wrap the epilog at a hyphen
        assert "--center=-1,0,0." in "".join(out.split())


@pytest.mark.parametrize("name, errno_code", [
    ("folder", "EISDIR"), ("absent.ini", "ENOENT")])
def test_unreadable_config_path_names_the_cause(tmp_path, capsys, name,
                                                errno_code):
    # a --config path that cannot be read as a file is a usage error that
    # gives the system's reason: a directory is not reported as missing
    (tmp_path / "folder").mkdir()
    path = str(tmp_path / name)
    assert run(tmp_path, "geometry", "--icosphere", "1.0,0",
               "--config", path) == EXIT_USAGE
    reason = os.strerror(getattr(errno, errno_code))
    assert capsys.readouterr().err == (f"error: config file {path!r}: "
                                       f"{reason}\n")
    assert not (tmp_path / "geometry.csv").exists()


def test_flag_replaces_config_mesh_source(tmp_path, capsys):
    from test_mesh import cube
    mesh_path = tmp_path / "cube.off"
    save_off(cube(), str(mesh_path))
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[mesh]\nicosphere = 1.0, 1\n")
    assert run(tmp_path, "geometry", "--config", str(cfg_path),
               "--mesh", str(mesh_path)) == EXIT_OK
    _, rows = read_csv(tmp_path / "geometry.csv")
    assert {r[0]: r[1] for r in rows}["panels"] == "12"
    # two members of one group from the same source name both flags
    assert run(tmp_path, "geometry", "--mesh", str(mesh_path),
               "--icosphere", "1.0,0") == EXIT_USAGE
    assert "--mesh and --icosphere" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["dilated", "direct"])
def test_solve_route_guards_exit_code(tmp_path, monkeypatch, capsys, method):
    import bubblebem.boundary_calculus as bc
    from bubblebem.boundary_calculus import NumericalGuardError
    args = ["solve", "--icosphere", "1.0,0", "--eps", "0.05", "--omega", "1.3",
            "--method", method, "--out", str(tmp_path)]
    # a solve factors M only where GMRES is refused, as it is in one step
    monkeypatch.setattr(bc, "_SINGLE_STEPS", 1)
    original = bc._guarded_lu

    def trip_m(matrix, context, **kwargs):
        if context.startswith("contrast matrix M"):
            raise NumericalGuardError(f"{context}: tripped")
        return original(matrix, context, **kwargs)

    monkeypatch.setattr(bc, "_guarded_lu", trip_m)
    assert main(args) == EXIT_GUARD
    assert "contrast matrix M" in capsys.readouterr().err
    monkeypatch.setattr(bc, "_guarded_lu", original)
    monkeypatch.setattr(bc, "CONDITION_LIMIT", 1.0)
    assert main(args) == EXIT_GUARD


def test_config_file_round_trip(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        "[mesh]\n"
        "icosphere = 1.0, 1\n"
        "[problem]\n"
        "eps = 0.05\n"
        "omega = 1.3\n"
        "center = 0, 0, 0\n"
        "[incident]\n"
        "plane_wave = 0, 0, 1\n"
        "[run]\n"
        "method = uniform\n"
        f"output_dir = {tmp_path / 'a%b'}\n")
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_OK
    with open(tmp_path / "a%b" / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["config"]["method"] == "uniform"


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("BUBBLEBEM_OUTDIR", str(tmp_path / "envout"))
    assert main(["geometry", "--icosphere", "1.0,1"]) == EXIT_OK
    assert (tmp_path / "envout" / "geometry.csv").exists()


def test_config_output_dir_beats_environment_variable(tmp_path, monkeypatch):
    # defaults (with the environment variable), then the file, then the flags
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BUBBLEBEM_OUTDIR", str(tmp_path / "envout"))
    (tmp_path / "run.ini").write_text("[run]\noutput_dir = .\n")
    assert main(["geometry", "--icosphere", "1.0,1",
                 "--config", "run.ini"]) == EXIT_OK
    assert (tmp_path / "geometry.csv").exists()
    assert not (tmp_path / "envout").exists()


def test_negative_vector_value_in_equals_form(tmp_path):
    assert run(tmp_path, "geometry", "--icosphere", "1,0",
               "--center=-1,0,0") == EXIT_OK


def test_numerical_guard_exit_code(tmp_path, monkeypatch):
    import bubblebem.cli as cli_module
    from bubblebem.boundary_calculus import NumericalGuardError

    def tripped(cfg, writer):
        writer.write_csv("partial.csv", ["x"], [(1.0,)])
        raise NumericalGuardError("synthetic ill-conditioned factorization")

    monkeypatch.setattr(cli_module, "cmd_minnaert", tripped)
    assert main(["minnaert", "--icosphere", "1.0,1",
                 "--out", str(tmp_path)]) == EXIT_GUARD
    # a tripped run is not finalized: no manifest vouches for its output
    assert not (tmp_path / "manifest.json").exists()


def test_verify_suite_passes(tmp_path):
    assert run(tmp_path, "verify", "--icosphere", "1.0,2") == EXIT_OK
    header, rows = read_csv(tmp_path / "verify.csv")
    assert all(r[header.index("pass")] == "1" for r in rows)


def count_kernel_passes(monkeypatch):
    """Record (wavenumber, single, double) of every exact kernel pass, the
    order of every series stack built and of every row-sum pass of the
    series averages."""
    calls = {"exact": [], "stack": [], "sums": []}
    assemble, build = layer_ops._assemble_layers, bc.assemble_series_stack

    def exact(mesh, z, single, double):
        calls["exact"].append((z, single, double))
        return assemble(mesh, z, single, double)

    def stack(mesh, order):
        calls["stack"].append(order)
        return build(mesh, order)

    def sums(mesh, order, build=bc._double_term_row_sums):
        calls["sums"].append(order)
        return build(mesh, order)

    # every exact pass, whichever public assembler it is run through
    monkeypatch.setattr(layer_ops, "_assemble_layers", exact)
    monkeypatch.setattr(bc, "assemble_series_stack", stack)
    monkeypatch.setattr(bc, "_double_term_row_sums", sums)
    return calls


def test_verify_reads_every_contracted_operator_from_one_stack(
        tmp_path, monkeypatch):
    # S_0 (spectral_data) is the only exact pass; every contracted S and K,
    # and the Gauss identity's K_0, comes from one order-15 stack, beside
    # the one order-3 row-sum pass of the series averages
    calls = count_kernel_passes(monkeypatch)
    assert run(tmp_path / "stack", "verify", "--icosphere", "1.0,2") == EXIT_OK
    assert calls["exact"] == [(0, True, False)]
    assert (calls["stack"], calls["sums"]) == ([15], [3])
    manifest = json.loads((tmp_path / "stack" / "manifest.json").read_text())
    assert manifest["warnings"] == []

    # with no room for a stack, every contracted operator is assembled
    # exactly: 10 S and K pairs, S_0 and the 10 S_z, K_0; the results agree
    monkeypatch.setattr(bc, "SERIES_STACK_LIMIT", 0)
    for kind in calls.values():
        kind.clear()
    assert run(tmp_path / "exact", "verify", "--icosphere", "1.0,2") == EXIT_OK
    kinds = Counter((single, double) for _, single, double in calls["exact"])
    assert kinds == {(True, True): 10, (True, False): 11, (False, True): 1}
    assert (calls["stack"], calls["sums"]) == ([], [3])
    manifest = json.loads((tmp_path / "exact" / "manifest.json").read_text())
    assert len(manifest["warnings"]) == 1
    assert "above the limit" in manifest["warnings"][0]
    _, stacked = read_csv(tmp_path / "stack" / "verify.csv")
    _, exact = read_csv(tmp_path / "exact" / "verify.csv")
    assert [r[0] for r in stacked] == [r[0] for r in exact]
    a = np.array([[float(v) for v in r[1:]] for r in stacked])
    b = np.array([[float(v) for v in r[1:]] for r in exact])
    finite = np.isfinite(b)
    assert np.array_equal(a[~finite], b[~finite])
    a, b = a[finite], b[finite]
    assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(np.abs(a), np.abs(b)))


def test_verify_bytes_independent_of_worker_count(tmp_path):
    # the stack pass feeds every contracted operator of verify: neither its
    # row blocks nor the exact passes' change a byte of verify.csv
    outputs = []
    with pytest.MonkeyPatch.context() as mp:
        # 7 rows per chunk of a sub-1 mesh: 80 panels, 6 nodes each
        mp.setattr(layer_ops, "_CHUNK_PAIRS", 7 * 6 * 80)
        for k, workers in enumerate((1, 2, 2)):
            mp.setattr(layer_ops, "_worker_count",
                       lambda chunks, workers=workers: workers)
            out = tmp_path / str(k)
            # the sub-1 mesh is too coarse for the quadratic identity's
            # window, so the exit code is compared, not required to be 0
            code = main(["verify", "--icosphere", "1.0,1", "--out", str(out)])
            outputs.append((code, (out / "verify.csv").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("limit", [bc.SERIES_STACK_LIMIT, 0],
                         ids=["stack", "exact"])
def test_verify_studies_give_the_same_bytes_on_any_worker_count(
        tmp_path, monkeypatch, limit):
    # the ten studies run side by side on 1, 2 or 3 workers: verify.csv
    # and the manifest warnings are the same bytes.  With no room for a
    # stack (limit 0) each study also runs exact kernel passes, whose row
    # blocks then run inside the study's task
    monkeypatch.setattr(bc, "SERIES_STACK_LIMIT", limit)
    # 7 rows per chunk of a sub-1 mesh: 80 panels, 6 nodes each
    monkeypatch.setattr(layer_ops, "_CHUNK_PAIRS", 7 * 6 * 80)
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(layer_ops, "_worker_count",
                            lambda chunks, workers=workers: workers)
        out = tmp_path / str(workers)
        code = main(["verify", "--icosphere", "1.0,1", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        outputs.append((code, (out / "verify.csv").read_bytes(),
                        manifest["warnings"]))
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0][2]) == (limit == 0)


def test_verify_fills_each_spectral_cache_once(tmp_path, monkeypatch):
    # the studies share one SpectralData: side by side on two workers,
    # each verify run still takes one Cholesky factor of the Gram matrix
    # and one row-sum pass of the series averages.  Each call waits a
    # little, so that a second study reaching an empty cache meanwhile
    # would be counted
    calls = Counter()

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            time.sleep(0.05)
            return original(*args, **kwargs)
        return call

    for name in ("cholesky", "_double_term_row_sums"):
        monkeypatch.setattr(bc, name, counted(name, getattr(bc, name)))
    monkeypatch.setattr(layer_ops, "_worker_count",
                        lambda chunks: min(chunks, 2))
    for k in range(2):
        main(["verify", "--icosphere", "1.0,1",
              "--out", str(tmp_path / str(k))])
        assert calls == {"cholesky": k + 1, "_double_term_row_sums": k + 1}


def test_verify_mutation_fails(monkeypatch):
    # a sign error in the quadratic series coefficient must break the
    # capacitance/volume identity check; the resonance frequency derived from
    # that coefficient is pinned to its true value so the suite runs through
    import bubblebem.boundary_calculus as bc
    cfg = RunConfig(icosphere=(1.0, 1))
    resonance = bc.k2_resonance_frequency(bc.spectral_data(cfg.build_mesh()))
    k2_average = bc.SpectralData.k2_average
    monkeypatch.setattr(bc.SpectralData, "k2_average",
                        lambda self: -k2_average(self))
    monkeypatch.setattr(bc, "k2_resonance_frequency", lambda data: resonance)
    checks = verification_checks(cfg)
    by_name = {name: (value, high, gated)
               for name, value, low, high, gated in checks}
    value, bound, gated = by_name["quadratic_coefficient_identity"]
    assert gated and value > bound
