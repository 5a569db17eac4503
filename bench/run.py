"""Benchmark of the qoverpart verifier, one workload per verification route.

Run from the repository root:

    python3 bench/run.py --workload verify-all-40 --seed 1 --seconds 40 --trace 0

One run is this one interpreter.  It imports the program from ``src/`` and
calls ``qoverpart.cli.run(argv)`` in-process for each command of the
workload, writing each output to a scratch file that the correctness gate
(``gate.py``) then checks.  It repeats whole passes over the workload while
another pass fits in ``--seconds`` and reports medians over the passes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` and ``cpu_s`` per pass (cpu includes reaped pool workers), both
rescaled to a reference machine speed by ``speed.py``; ``peak_rss_mb`` of
this process; and ``setup_s``, the median over several fresh interpreters of
the time from start to ``import qoverpart`` plus the first
``registered_identity_ids()``, rescaled like the passes that follow it.
With ``--trace 1`` untraced and traced passes alternate and the line
reports the per-layer metrics of ``spans.py`` (times are medians over
traced passes; counters are exact and must repeat).

Every run also writes ``.bench_out/<workload>-seed<seed>-trace<t>.json``
with the machine record (Python version, CPU count, load average at start
and end), every pass, every failure and, when traced, the spans of the
first traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import spans
import workloads
from gate import Gate
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".bench_out"
SETUP_RUNS = 11
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import qoverpart; "
    "qoverpart.registered_identity_ids(); print(time.perf_counter())"
)


def load_program(root: Path):
    """The ``qoverpart.cli`` module of the checkout at ``root``."""
    src = root / "src"
    if not (src / "qoverpart" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qoverpart sources under {src}")
    sys.path.insert(0, str(src))
    from qoverpart import cli

    return cli


@contextmanager
def scratch_dir(root: Path):
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def machine_record() -> dict:
    try:
        with open("/proc/loadavg") as fh:
            loadavg = fh.read().split()[:3]
    except OSError:
        loadavg = None
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "loadavg": loadavg}


def cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_command(cli, argv, out_path: Path):
    """(exit code, output text, wall s, cpu s) of one in-process CLI call."""
    if out_path.exists():
        out_path.unlink()
    cpu0 = cpu_now()
    t0 = time.perf_counter()
    try:
        rc = cli.run([*argv, "--out", str(out_path)])
    except Exception as exc:  # a crash is a failed command, not a lost run
        traceback.print_exc()
        rc = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = cpu_now() - cpu0
    text = out_path.read_text() if out_path.exists() else ""
    return rc, text, wall, cpu


def setup_seconds(src: Path) -> float:
    """Median time from process start to a built registry, over fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(src)],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def measure(cli, gate: Gate, commands, seconds: float, trace: bool, out_path: Path) -> dict:
    """Run passes over ``commands`` while another pass fits in ``seconds``.

    Untraced passes of an untraced run carry a speed probe; a traced run
    alternates untraced and traced passes and has no probe.
    """
    passes, failures = [], []
    first_spans = None
    attempted = 0
    t_start = time.perf_counter()
    while True:
        tracer = spans.Tracer() if trace and len(passes) % 2 == 1 else None
        probe = None if trace else SpeedProbe()
        wall = cpu = 0.0
        with (spans.installed(tracer) if tracer else probe or nullcontext()):
            for argv in commands:
                rc, text, w, c = run_command(cli, argv, out_path)
                wall += w
                cpu += c
                attempted += 1
                why = gate.check(argv, rc, text)
                if why:
                    failures.append(f"{' '.join(argv)}: {why}")
        record = {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu}
        if probe:
            record["scale"] = probe.scale()
            record["probe_samples"] = len(probe.samples)
        if tracer:
            record["layers"] = spans.layer_metrics(tracer.spans)
            if first_spans is None:
                first_spans = tracer.spans
        passes.append(record)
        elapsed = time.perf_counter() - t_start
        if len(passes) >= (2 if trace else 1) and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    return {"passes": passes, "failures": failures, "attempted": attempted,
            "spans": first_spans}


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    """Reference-speed medians over passes and set-up time, and the peak RSS.

    Set-up runs just before the passes, so it takes the passes' median scale.
    """
    return {
        "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] * p["scale"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s * statistics.median(p["scale"] for p in passes),
    }


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    """Medians of traced times, exact counters, and any counter that varied."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics, varied = {}, []
    for name in spans.metric_units():
        values = [p["layers"][name] for p in traced]
        if spans.is_counter(name):
            if len(set(values)) > 1:
                varied.append(f"{name}: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_ratio"] = (
        metrics["trace.wall_s"] / statistics.median(p["wall_s"] for p in plain))
    return metrics, varied


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_program(ROOT)
        gate = Gate(ROOT)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load the program or the gate data: {exc}", file=sys.stderr)
        return 2
    machine = {"start": machine_record()}
    commands = workloads.commands(args.workload, args.seed)
    setup_s = None if args.trace else setup_seconds(ROOT / "src")
    with scratch_dir(ROOT) as tmp:
        run = measure(cli, gate, commands, args.seconds, bool(args.trace), tmp / "out")
    machine["end"] = machine_record()

    failed = len(run["failures"])
    failures = run["failures"]
    measured = {}
    if args.trace:
        metrics, varied = per_layer(run["passes"])
        failures = failures + [f"counter differs between traced passes: {v}" for v in varied]
        units = spans.metric_units()
    else:
        metrics = end_to_end(run["passes"], setup_s)
        units = END_TO_END_UNITS
        measured = {"wall_s": statistics.median(p["wall_s"] for p in run["passes"]),
                    "cpu_s": statistics.median(p["cpu_s"] for p in run["passes"]),
                    "setup_s": setup_s,
                    "scale": statistics.median(p["scale"] for p in run["passes"])}
    result = {
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "commands": commands,
              "passes": run["passes"], "failures": failures, "measured": measured,
              "ops_failed_ratio": failed / run["attempted"], "result": result,
              "spans": run["spans"]}
    detail_path = ROOT / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail) + "\n")

    print(json.dumps({"machine": machine, "measured": measured}))
    for why in failures:
        print(f"FAILED {why}")
    print(f"{len(run['passes'])} passes, {run['attempted']} commands, {failed} failed, "
          f"ops_failed_ratio {failed / run['attempted']}; detail in {detail_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
