"""Self-tests of the benchmark: tracing coverage, call counts that repeat
exactly, the correctness gates, and agreement with BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import os

import pytest

import run
from layertrace import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
run.import_package(ROOT)

import bubblebem  # noqa: E402
from bubblebem import boundary_calculus, cli, layer_ops, scattering  # noqa: E402

SOLVE = ["solve", "--icosphere", "1.0,2", "--eps", "0.05", "--omega", "1.6",
         "--method", "dilated"]


def traced_solve(out_dir):
    tracer = Tracer()
    with tracer.active(), tracer.span("bench.iteration") as root:
        code, text = run.run_command(cli, [*SOLVE, "--out", str(out_dir)])
    assert code == 0, text
    wall = tracer.spans[root][4] - tracer.spans[root][3]
    return tracer, root, run.layer_values(tracer, root, wall,
                                          {"solve": str(out_dir)})


def test_wrappers_cover_every_namespace():
    original = layer_ops.assemble_single_layer
    holders = (bubblebem, layer_ops, boundary_calculus, scattering)
    with Tracer().active():
        wrapped = layer_ops.assemble_single_layer
        assert wrapped is not original
        assert all(m.assemble_single_layer is wrapped for m in holders)
        assert cli.assemble_double_layer is bubblebem.assemble_double_layer
        assert cli.main.__wrapped__ is not None
    assert all(m.assemble_single_layer is original for m in holders)


def test_traced_sub2_dilated_solve_counts(tmp_path):
    tracer, root, (values, stats, counts) = traced_solve(tmp_path / "a")
    assert counts["per_kind"]["single"] == {"calls": 3, "distinct": 2}
    assert counts["per_kind"]["double"] == {"calls": 1, "distinct": 1}
    assert stats["boundary_calculus.dirichlet_to_neumann"]["calls"] == 1
    assert stats["layer_ops.eval_single_layer_potential"]["calls"] == 1
    assert stats["boundary_calculus.spectral_data"]["calls"] == 1
    assert values["layer_ops.assembly_distinct_ratio"] == 3 / 4
    n = 320
    assert values["layer_ops.kernel_pairs"] == (
        4 * 6 * n * n + 6 * n * values[
            "layer_ops.eval_single_layer_potential.points"])
    # self time never exceeds inclusive time; children sum into parents
    for st in stats.values():
        assert -1e-9 <= st["self_s"] <= st["s"] + 1e-9


def test_counts_repeat_exactly(tmp_path):
    first = traced_solve(tmp_path / "a")[2][0]
    second = traced_solve(tmp_path / "b")[2][0]
    exact = [name for name, unit, _ in run.PER_LAYER
             if unit not in ("s", "frac")
             or name == "layer_ops.assembly_distinct_ratio"]
    assert "cli.bytes_written" in exact and "layer_ops.kernel_pairs" in exact
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def _write(path, header, rows):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def test_solve_gate_counts_a_mie_miss_and_a_bad_exit(tmp_path):
    for route, amp in (("dilated", 2.8589), ("direct", 2.0)):
        d = tmp_path / route
        _write(str(d / "summary.csv"), ["quantity", "value"],
               [("re_amplitude", amp), ("im_amplitude", 1.234)])
        _write(str(d / "fields.csv"), ["re_scattered", "im_scattered"],
               [(1.0, 0.0)])
    results = {r: (0, str(tmp_path / r)) for r in ("dilated", "direct")}
    outcome = WORKLOADS["solve-sub3"].gate(results, {})
    assert (outcome.attempted, outcome.failed) == (2, 1)
    results["dilated"] = (2, str(tmp_path / "dilated"))
    assert WORKLOADS["solve-sub3"].gate(results, {}).failed == 2


def test_verify_gate_counts_failed_checks(tmp_path):
    _write(str(tmp_path / "verify.csv"),
           ["check", "value", "bound_low", "bound_high", "pass"],
           [("quadratic_coefficient_identity", 0.03, "-inf", 0.02, 0),
            ("cubic_coefficient_identity", 1e-16, "-inf", 0.02, 1)])
    outcome = WORKLOADS["verify-sub2"].gate(
        {"verify": (3, str(tmp_path))}, {})
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.ref_gap == 0.03


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("seed", [0, 7])
def test_plane_wave_is_a_unit_vector_from_the_seed(seed):
    (_, dilated), (_, direct) = WORKLOADS["solve-sub3"].commands(seed)
    text = dilated[-1]
    assert text == direct[-1] and text.startswith("--plane-wave=")
    d = [float(c) for c in text.split("=", 1)[1].split(",")]
    assert abs(sum(c * c for c in d) - 1.0) < 1e-12
