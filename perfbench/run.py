"""Benchmark of the bubblebem CLI: three closed-loop workloads, one client.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload solve-sub3 --seed 1 --seconds 35 --trace 0

Each iteration runs the workload's CLI command(s) in-process through
``bubblebem.cli.main``; the next iteration starts when the previous one has
finished.  After every iteration, outside the timed region, the outputs are
gated against the acceptance-criteria tolerances (see workloads.py).

With ``--trace 0`` the run reports the end-to-end metrics: the median set-up
time over several set-ups, the median iteration wall time over the passing
iterations, peak RSS, the share of operations that passed and the largest
relative gap to the workload's reference.  With ``--trace 1`` it alternates
untraced and traced iterations and reports per-layer metrics of one
iteration (see layertrace.py), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and print every metric by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

# One BLAS thread, set before numpy loads OpenBLAS.  On a 2-core host two
# threads made verify-sub2 slower (3.7 s against 3.2 s per iteration), spent
# twice the CPU time spinning and spread wider between runs.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

from workloads import WORKLOADS, Outcome  # noqa: E402
from layertrace import Tracer  # noqa: E402

SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0
MIN_ITERATIONS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better); the same names are listed in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
    ("ref_gap_max", "frac", "lower"),
)

# Per-layer metrics of one iteration.  Layers busy on every workload are
# reported in seconds; layers that only some workloads call are reported as
# their share of the traced iteration's wall time, which is 0 where the
# layer is not called.
_TIMED = (
    ("layer_ops.assemble_single_layer", "s"),
    ("layer_ops.assemble_double_layer", "s"),
    ("layer_ops.eval_single_layer_potential", "s"),
    ("boundary_calculus.spectral_data", "s"),
    ("boundary_calculus.dirichlet_to_neumann", "s"),
    ("boundary_calculus.dirichlet_to_neumann", "self_s"),
    ("mesh.make_icosphere", "s"),
    ("cli.main", "self_s"),
)
_CALLS = (
    "layer_ops.assemble_single_layer",
    "layer_ops.assemble_double_layer",
    "boundary_calculus.spectral_data",
    "boundary_calculus.dirichlet_to_neumann",
    "layer_ops.assemble_series_term",
)
_SHARES = (
    ("layer_ops.assemble_series_term", "share"),
    ("boundary_calculus.contrast_operator", "share"),
    ("boundary_calculus.contrast_operator", "self_share"),
    ("boundary_calculus.expansion_residual", "share"),
    ("boundary_calculus.expansion_residual", "self_share"),
    ("boundary_calculus.s0_operator_norm", "share"),
    ("scattering.resolvent_correction_kernel", "share"),
    ("scattering.resolvent_correction_kernel", "self_share"),
    ("scattering.scattered_field_dilated", "share"),
    ("scattering.scattered_field_dilated", "self_share"),
    ("scattering.scattered_field_direct", "share"),
    ("scattering.scattered_field_direct", "self_share"),
    ("scattering.fit_monopole", "share"),
    ("scattering.resonance_peak", "share"),
    ("scattering.frequency_sweep", "share"),
)
_COUNTS = (
    *((f"{layer}.calls", "count", "lower") for layer in _CALLS),
    ("layer_ops.eval_single_layer_potential.points", "count", "lower"),
    ("layer_ops.kernel_pairs", "pairs_computed", "lower"),
    ("layer_ops.assembly_distinct_ratio", "frac", "higher"),
    ("cli.bytes_written", "bytes", "lower"),
)
PER_LAYER = (
    *((f"{layer}.{stat}", "s", "lower") for layer, stat in _TIMED),
    *_COUNTS,
    *((f"{layer}.{stat}", "frac", "lower") for layer, stat in _SHARES),
    ("trace_overhead_frac", "frac", "lower"),
)
SERIES = ("layer_ops.assemble_series_term_S", "layer_ops.assemble_series_term_K")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------------------
# Environment


def _openblas_libraries() -> list[dict]:
    """Version and thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line and ".so" in line})
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for key, names, restype in (
                ("config", ("scipy_openblas_get_config64_",
                            "scipy_openblas_get_config",
                            "openblas_get_config64_", "openblas_get_config"),
                 ctypes.c_char_p),
                ("threads", ("scipy_openblas_get_num_threads64_",
                             "scipy_openblas_get_num_threads",
                             "openblas_get_num_threads64_",
                             "openblas_get_num_threads"), ctypes.c_int)):
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype, fn.argtypes = restype, []
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) \
                        else value
                    break
        libs.append(info)
    return libs


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError), \
            open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas": _openblas_libraries(),
            "thread_env": {k: os.environ[k] for k in THREAD_VARS
                           if k in os.environ},
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def check_threads(env: dict) -> None:
    """Refuse to run with more BLAS threads than cores."""
    nproc = env["nproc"]
    counts = [lib["threads"] for lib in env["blas"] if "threads" in lib]
    if not counts:
        counts = [int(v) for v in env["thread_env"].values() if v.isdigit()]
    if any(c > nproc for c in counts):
        fail(f"BLAS runs {max(counts)} threads on {nproc} cores")


# ----------------------------------------------------------------------------
# Running the workload


def run_command(cli, argv: list[str]):
    """One CLI command in-process; returns (exit code or error, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:   # the loop must go on; the failure is counted
            code = traceback.format_exc(limit=-3).strip()
    return code, buf.getvalue()


class Runner:
    def __init__(self, workload, seed: int, out_root: str):
        import bubblebem.boundary_calculus as bc
        import bubblebem.cli as cli
        import bubblebem.mesh as mesh
        self.workload = workload
        self.commands = workload.commands(seed)
        self.out_root = out_root
        self.cli, self.bc, self.mesh = cli, bc, mesh
        self.tracer = Tracer()
        self.ctx = {}
        self.outcomes: list[Outcome] = []

    def setup(self) -> float:
        """Build the workload's mesh and its spectral data; returns seconds."""
        t0 = time.perf_counter()
        m = self.mesh.make_icosphere(1.0, self.workload.subdivisions)
        spectral = self.bc.spectral_data(m)
        elapsed = time.perf_counter() - t0
        self.ctx["omega_m"] = spectral.minnaert_omega
        return elapsed

    def iteration(self, traced: bool):
        """Run, time and gate one iteration.

        Returns (wall seconds, gate outcome, root span id or None, output
        directory per command tag).
        """
        dirs = {tag: os.path.join(self.out_root, tag)
                for tag, _ in self.commands}
        for d in dirs.values():
            shutil.rmtree(d, ignore_errors=True)
        gc.collect()
        results, root = {}, None
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(self.tracer.active())
                root = stack.enter_context(self.tracer.span("bench.iteration"))
            t0 = time.perf_counter()
            for tag, argv in self.commands:
                code, _ = run_command(self.cli, [*argv, "--out", dirs[tag]])
                results[tag] = (code, dirs[tag])
            wall = time.perf_counter() - t0
        try:
            outcome = self.workload.gate(results, self.ctx)
        except Exception:   # unreadable output is a failed iteration
            outcome = Outcome(attempted=len(results), failed=len(results),
                              problems=[traceback.format_exc(limit=-2)])
        self.outcomes.append(outcome)
        for p in outcome.problems:
            print(f"gate: {p}")
        return wall, outcome, root, dirs

    def totals(self) -> tuple[int, int]:
        return (sum(o.attempted for o in self.outcomes),
                sum(o.failed for o in self.outcomes))


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_end_to_end(runner: Runner, seconds: float) -> dict:
    # Set-up times of a fresh process settle only after a while (the first
    # BLAS calls can be several times slower), so set-up repeats for a fixed
    # time as well as a fixed count.
    setups = []
    start = time.perf_counter()
    while (len(setups) < SETUP_MIN_REPS
           or time.perf_counter() - start < SETUP_MIN_SECONDS):
        setups.append(runner.setup())
    walls, failed_walls = [], []
    start = time.perf_counter()
    # Stop before an iteration that would end past the measuring time.
    while (len(walls) + len(failed_walls) < MIN_ITERATIONS
           or time.perf_counter() - start
           + _median(walls + failed_walls) <= seconds):
        wall, outcome, _, _ = runner.iteration(traced=False)
        (failed_walls if outcome.failed else walls).append(wall)
    attempted, failed = runner.totals()
    gaps = [o.ref_gap for o in runner.outcomes]
    metrics = {
        "setup_s": _median(setups),
        "wall_s": _median(walls or failed_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
        "ref_gap_max": max(gaps),
    }
    print(f"setup: {len(setups)} set-ups, min {min(setups):.4g} s, "
          f"max {max(setups):.4g} s")
    print(f"iterations: {len(walls)} passed, {len(failed_walls)} failed; "
          f"passing walls {[round(w, 3) for w in walls]} s")
    print(f"failed_frac = {failed / attempted:.6g} frac "
          f"({failed}/{attempted} operations)")
    for key, unit in (("mie_gap_max", "frac"), ("route_gap", "frac"),
                      ("peak_omega_err", "1/length")):
        values = [o.report[key] for o in runner.outcomes if key in o.report]
        if values:
            print(f"{key} = {max(values):.6g} {unit}")
    return metrics


def _bytes_written(dirs: dict) -> int:
    total = 0
    for d in dirs.values():
        with contextlib.suppress(OSError), \
                open(os.path.join(d, "manifest.json"), encoding="ascii") as fh:
            for name in json.load(fh).get("artifacts", {}):
                total += os.path.getsize(os.path.join(d, name))
    return total


def layer_values(tracer: Tracer, root: int, wall: float, dirs: dict):
    """Per-layer metrics of one traced iteration, with the layer stats and
    assembly counts they come from."""
    stats = tracer.layer_stats(root)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    series = [stats.get(name, empty) for name in SERIES]
    stats["layer_ops.assemble_series_term"] = {
        k: sum(s[k] for s in series) for k in empty}
    counts = tracer.assembly_counts(root)
    values = {f"{layer}.{stat}": stats.get(layer, empty)[stat]
              for layer, stat in _TIMED}
    values.update({f"{layer}.calls": stats.get(layer, empty)["calls"]
                   for layer in _CALLS})
    for layer, stat in _SHARES:
        st = stats.get(layer, empty)
        values[f"{layer}.{stat}"] = \
            (st["s"] if stat == "share" else st["self_s"]) / wall
    values["layer_ops.eval_single_layer_potential.points"] = \
        counts["potential_points"]
    values["layer_ops.kernel_pairs"] = counts["kernel_pairs"]
    values["layer_ops.assembly_distinct_ratio"] = \
        counts["distinct"] / counts["calls"] if counts["calls"] else 1.0
    values["cli.bytes_written"] = _bytes_written(dirs)
    return values, stats, counts


def print_layer_tables(runner: Runner, root: int) -> None:
    """Calls, inclusive and self time per layer, for each CLI command of
    one traced iteration."""
    tracer = runner.tracer
    commands = [s[0] for s in tracer.spans if s[1] == root]
    for (tag, _), sid in zip(runner.commands, commands):
        print(f"{'layers of ' + tag:58s} {'calls':>6s} {'s':>9s} "
              f"{'self_s':>9s} {'s/call':>9s}")
        stats = tracer.layer_stats(sid)
        for name, st in sorted(stats.items(), key=lambda kv: -kv[1]["s"]):
            print(f"{name:58s} {st['calls']:6d} {st['s']:9.4f} "
                  f"{st['self_s']:9.4f} {st['s'] / st['calls']:9.4f}")
        print(f"assemblies: "
              f"{json.dumps(tracer.assembly_counts(sid)['per_kind'])}")


def run_traced(runner: Runner, seconds: float, spans_path: str) -> dict:
    runner.setup()
    untraced, traced, per_iteration, last_root = [], [], [], None
    pattern = (False, True, True, False)
    start = time.perf_counter()
    i = 0
    while (time.perf_counter() - start < seconds
           or (not (untraced and traced) and i < 2 * len(pattern))):
        use_trace = pattern[i % len(pattern)]
        i += 1
        wall, outcome, root, dirs = runner.iteration(traced=use_trace)
        if outcome.failed:
            continue
        if use_trace:
            traced.append(wall)
            per_iteration.append(
                layer_values(runner.tracer, root, wall, dirs)[0])
            last_root = root
        else:
            untraced.append(wall)

    metrics = {}
    for name, unit, _ in PER_LAYER[:-1]:
        series = [v[name] for v in per_iteration]
        if unit in ("s", "frac"):
            metrics[name] = _median(series)
        else:
            if len(set(series)) > 1:
                print(f"warning: {name} differs between iterations: {series}")
            metrics[name] = series[0] if series else float("nan")
    metrics["trace_overhead_frac"] = \
        (_median(traced) - _median(untraced)) / _median(untraced)

    print(f"iterations: {len(untraced)} untraced "
          f"{[round(w, 3) for w in untraced]} s, {len(traced)} traced "
          f"{[round(w, 3) for w in traced]} s")
    if last_root is not None:
        print_layer_tables(runner, last_root)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump({"workload": runner.workload.name,
                   "spans": runner.tracer.dump()}, fh)
    print(f"spans: {len(runner.tracer.spans)} written to {spans_path}")
    return metrics


# ----------------------------------------------------------------------------
# Entry point


def import_package(root: str) -> None:
    """Import bubblebem from the checkout's src/, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bubblebem", "__init__.py")):
        fail(f"no bubblebem package under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import bubblebem
    if os.path.dirname(os.path.dirname(os.path.abspath(bubblebem.__file__))) \
            != os.path.abspath(src):
        fail(f"bubblebem imported from {bubblebem.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    import_package(root)
    env = environment()
    print(f"env: {json.dumps(env)}")
    check_threads(env)

    workload = WORKLOADS[args.workload]
    print(f"workload: {workload.name} (seed {args.seed}): {workload.why}")
    out_root = os.path.join(root, ".bench_out", f"{workload.name}-{os.getpid()}")
    runner = Runner(workload, args.seed, out_root)
    try:
        if args.trace:
            spans_path = os.path.join(
                root, ".bench_out", f"spans-{workload.name}-seed{args.seed}.json")
            metrics = run_traced(runner, args.seconds, spans_path)
            specs = PER_LAYER
        else:
            metrics = run_end_to_end(runner, args.seconds)
            specs = END_TO_END
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    attempted, failed = runner.totals()
    for name, unit, _ in specs:
        value = metrics[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
