"""Benchmark of bergman-lab's verification suite, run from the repository root.

    python3 perfbench/run.py --workload grid-float --seed 1 --seconds 25 --trace 0

Each run is one process.  It measures set-up in fresh processes, then runs
passes of the workload, each from an empty tower cache, until ``--seconds``
have passed (at least two passes).  Every pass must give the same report,
minus ``wall_ms``, as the first, and every check must pass apart from the
known float ``beurling`` defect (see ``workloads.known_defect``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
reference pass, then traced passes, and prints the per-layer metrics of
``spans.py``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_PROBES = 7
MIN_PASSES = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_ENV_VAR = "BERGMAN_LAB_THREADS"


def configure_threads() -> None:
    """Serial suite and one BLAS thread; must run before numpy loads.

    With two OpenBLAS threads the idle one spin-waits through the serial
    Python work, doubling CPU use, and the spread of ``grid-float`` runs
    on a shared 2-core host rose from 0.16 to 0.25 of the median.
    """
    os.environ.pop(THREADS_ENV_VAR, None)
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_package():
    """Import bergman_lab from this checkout's sources, never from elsewhere."""
    pkg = SRC / "bergman_lab"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no bergman_lab sources in {pkg}")
    sys.path.insert(0, str(SRC))
    import bergman_lab

    if Path(bergman_lab.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported bergman_lab from {bergman_lab.__file__}, not {pkg}")


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start until the package is imported and the workload generated."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.communicate()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit("perfbench: set-up probe failed")
    return samples


@dataclass
class Pass:
    wall_s: float
    entries: list
    canonical: str


def canonical(doc: dict) -> str:
    """Report JSON without the timing field, for comparing passes."""
    for e in doc["entries"]:
        e.pop("wall_ms", None)
    return json.dumps(doc, sort_keys=True)


def run_pass(groups: list, suite: bool, towers) -> Pass:
    """One pass from an empty tower cache, as a user's process would run it."""
    from bergman_lab import cli, verify

    towers.clear()
    if suite:
        t0 = time.perf_counter()
        report = verify.run_suite(groups[0])
        text = cli._report_json(report)
        wall = time.perf_counter() - t0
        return Pass(wall, report.entries, canonical(json.loads(text)))
    entries = []
    t0 = time.perf_counter()
    for i, group in enumerate(groups):
        if i:
            towers.clear()
        entries += [verify.run_check(spec) for spec in group]
    wall = time.perf_counter() - t0
    return Pass(wall, entries, canonical(verify.VerificationReport(entries).to_json_obj()))


@contextlib.contextmanager
def timing_checks(sink: list):
    """Time every ``verify.run_check`` call, whether the suite or the benchmark makes it."""
    from bergman_lab import verify

    orig = verify.run_check

    def timed(spec):
        t0 = time.perf_counter()
        try:
            return orig(spec)
        finally:
            sink.append(time.perf_counter() - t0)

    verify.run_check = timed
    try:
        yield
    finally:
        verify.run_check = orig


_EXC_NOTE = re.compile(r"^([A-Za-z_]\w*): ")


def exception_type(entry) -> str:
    """Exception type of an entry that raised (run_check notes it), else ''."""
    m = _EXC_NOTE.match(entry.note or "")
    return m.group(1) if m and entry.residual == float("inf") else ""


def failures(passes: list[Pass]):
    """(every failing check run, the unexpected ones, distinct failing specs)."""
    failing = [e for p in passes for e in p.entries if not e.passed]
    unexpected = [e for e in failing if exception_type(e) or not workloads.known_defect(e.spec)]
    distinct = {}
    for e in failing:
        distinct.setdefault(e.spec, e)
    return failing, unexpected, list(distinct.values())


def describe(entry) -> str:
    s = entry.spec
    kind = exception_type(entry) or "verdict FAIL"
    return (f"{s.name} N={s.N} alpha={s.alpha} D={s.D} residues={s.residues} "
            f"seed={s.seed} mode={s.mode.value}: {kind}")


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(TypeError, KeyError):  # older numpy has no dict mode
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {v: os.environ.get(v) for v in (THREADS_ENV_VAR,) + BLAS_VARS},
    }


def run_plain(groups, suite, towers, seconds):
    passes, latencies = [], []
    start = time.perf_counter()
    with timing_checks(latencies):
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(run_pass(groups, suite, towers))
    return passes, latencies


def run_traced(groups, suite, towers, seconds, out_path):
    import spans

    ref = run_pass(groups, suite, towers)
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    traced, per_pass = [], []
    start = time.perf_counter()
    try:
        while not traced or time.perf_counter() - start < seconds:
            before, t_before = rec.snapshot(), towers.totals()
            p = run_pass(groups, suite, towers)
            t_after = towers.totals()
            delta = (t_after[0] - t_before[0], t_after[1] - t_before[1])
            per_pass.append(spans.pass_metrics(before, rec.snapshot(), delta, p.wall_s))
            traced.append(p)
    finally:
        uninstall()
    span_count = rec.write(out_path)
    return ref, traced, per_pass, span_count


def per_layer_values(ref: Pass, traced: list[Pass], per_pass: list[dict]) -> dict:
    import spans

    # median_low keeps per-pass counts whole numbers
    values = {}
    for name in per_pass[0]["values"]:
        values[name] = statistics.median_low(p["values"][name] for p in per_pass)
    for name in per_pass[0]["ratios"]:
        num = sum(p["ratios"][name][0] for p in per_pass)
        base = sum(p["ratios"][name][1] for p in per_pass)
        values[name] = num / base if base else 0.0
    values["verify.run_check.errors"] = statistics.median_low(
        sum(1 for e in p.entries if exception_type(e)) for p in traced)
    values["verify.run_check.failed"] = statistics.median_low(
        sum(1 for e in p.entries if not e.passed) for p in traced)
    values["trace.overhead_ratio"] = statistics.median(p.wall_s for p in traced) / ref.wall_s
    units = {n: u for n, u, _b in spans.per_layer_metrics()}
    return {n: {"value": values[n], "unit": units[n]} for n, _u, _b in spans.per_layer_metrics()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    configure_threads()
    import_package()
    if args.setup_probe:
        workloads.make(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    from bergman_lab import verify

    import spans

    groups = workloads.make(args.workload, args.seed)
    suite = args.workload.startswith("grid-")
    towers = spans.TowerCounter(verify._tower_cached)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "checks_per_pass": sum(len(g) for g in groups), "machine": machine_info()}

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        out_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        ref, passes, per_pass, span_count = run_traced(groups, suite, towers, args.seconds, out_path)
        all_passes = [ref] + passes
        metrics = per_layer_values(ref, passes, per_pass)
        detail.update(traced_passes=len(passes), spans=span_count,
                      spans_file=str(out_path.relative_to(ROOT)),
                      untraced_wall_s=ref.wall_s, traced_wall_s=[p.wall_s for p in passes])
    else:
        passes, lat = run_plain(groups, suite, towers, args.seconds)
        all_passes = passes
        deciles = statistics.quantiles(lat, n=10)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(p.wall_s for p in passes), "unit": "s"},
            "check_ms_p50": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "check_ms_p90": {"value": deciles[-1] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        samples = {"setup_s": f"median of {len(setup)} fresh-process set-ups",
                   "wall_s": f"median of {len(passes)} passes",
                   "check_ms_p50": f"{len(lat)} checks",
                   "check_ms_p90": f"{len(lat)} checks, {sum(x > deciles[-1] for x in lat)} beyond p90",
                   "peak_rss_mb": "this process"}
        detail.update(passes=len(passes), pass_wall_s=[p.wall_s for p in passes],
                      setup_samples_s=setup, samples=samples)

    # in a traced run the first pass is the untraced reference
    stable = all(p.canonical == all_passes[0].canonical for p in all_passes)
    failing, unexpected, distinct = failures(all_passes)
    attempted = sum(len(p.entries) for p in all_passes)
    correct = stable and not unexpected
    detail.update(attempted=attempted, fail_ratio=len(failing) / attempted,
                  failed_checks=[describe(e) for e in distinct],
                  unexpected_failures=len(unexpected), reports_stable=stable, metrics=metrics)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(all_passes)} checks/pass={detail['checks_per_pass']}")
    for name, m in metrics.items():
        note = detail.get("samples", {}).get(name, "")
        print(f"  {name:<44} {m['value']:.6g} {m['unit']:<6} {note}")
    print(f"  {'fail_ratio':<44} {detail['fail_ratio']:.6g} ratio  "
          f"{len(failing)} of {attempted} check runs, {len(unexpected)} unexpected")
    for line in detail["failed_checks"]:
        print(f"  failed: {line}")
    if not stable:
        print("  ERROR: a pass's report differs from the first pass")
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(unexpected),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
