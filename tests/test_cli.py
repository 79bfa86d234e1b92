import json
import os

import numpy as np
import pytest

from bubblebem.cli import (EXIT_GUARD, EXIT_OK, EXIT_USAGE, EXIT_VERIFY,
                           RunConfig, UsageError, main, verification_checks)
from bubblebem.mesh import make_icosphere, save_off


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


def test_geometry_broken_mesh_nonzero_exit(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert run(tmp_path, "geometry", "--mesh", str(bad)) == EXIT_USAGE


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
    from bubblebem.mie import load_fixture
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
])
def test_bad_physical_input_is_a_usage_error(tmp_path, capsys, command, bad):
    args = [command, "--icosphere", "1.0,0", "--eps", "0.05"]
    if command == "solve" and "--omega" not in bad:
        args += ["--omega", "1.3"]
    if command == "sweep":
        args += ["--method", "uniform"]
    assert main([*args, *bad, "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("method", ["dilated", "direct"])
def test_solve_route_guards_exit_code(tmp_path, monkeypatch, capsys, method):
    import bubblebem.boundary_calculus as bc
    import bubblebem.scattering as sc
    from bubblebem.boundary_calculus import NumericalGuardError
    args = ["solve", "--icosphere", "1.0,0", "--eps", "0.05", "--omega", "1.3",
            "--method", method, "--out", str(tmp_path)]
    original = sc._guarded_lu

    def trip_m(matrix, context):
        if context.startswith("contrast matrix M"):
            raise NumericalGuardError(f"{context}: tripped")
        return original(matrix, context)

    monkeypatch.setattr(sc, "_guarded_lu", trip_m)
    assert main(args) == EXIT_GUARD
    assert "contrast matrix M" in capsys.readouterr().err
    monkeypatch.setattr(sc, "_guarded_lu", original)
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
        f"output_dir = {tmp_path}\n"
        "[tolerances]\n"
        "gauss = 1e-11\n")
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_OK
    with open(tmp_path / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["config"]["method"] == "uniform"
    assert manifest["config"]["tolerances"]["gauss"] == 1e-11


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("BUBBLEBEM_OUTDIR", str(tmp_path / "envout"))
    assert main(["geometry", "--icosphere", "1.0,1"]) == EXIT_OK
    assert (tmp_path / "envout" / "geometry.csv").exists()


def test_numerical_guard_exit_code(tmp_path, monkeypatch):
    import bubblebem.cli as cli_module
    from bubblebem.boundary_calculus import NumericalGuardError

    def tripped(cfg):
        raise NumericalGuardError("synthetic ill-conditioned factorization")

    monkeypatch.setattr(cli_module, "cmd_minnaert", tripped)
    assert main(["minnaert", "--icosphere", "1.0,1",
                 "--out", str(tmp_path)]) == EXIT_GUARD


def test_verify_suite_passes(tmp_path):
    assert run(tmp_path, "verify", "--icosphere", "1.0,2") == EXIT_OK
    header, rows = read_csv(tmp_path / "verify.csv")
    assert all(r[header.index("pass")] == "1" for r in rows)


def test_verify_mutation_fails():
    # a sign error in the quadratic series coefficient must break the
    # capacitance/volume identity check
    cfg = RunConfig(icosphere=(1.0, 1))
    checks = verification_checks(cfg, mesh=make_icosphere(1.0, 1),
                                 k2_scale=-1.0)
    by_name = {name: (value, bound, mode)
               for name, value, bound, mode in checks}
    value, bound, _ = by_name["quadratic_coefficient_identity"]
    assert value > bound
