"""Benchmark entry point: time one workload end to end, or trace it per layer.

Run from the repository root:

    python3 perfbench/run.py --workload deformed_grid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload deformed_grid --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload all --seed 1        # the three in turn

With --trace 0 the last line of standard output is a JSON object holding
every end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric.  Earlier lines print each metric by name with its unit,
the environment and any failed case.  The full result, spans included, is
written to perfbench/results/.

The package is imported from src/ (PYTHONPATH=src), GROTHENDIECK_THREADS is
cleared and PYTHONHASHSEED pinned.  setup_s is the median over several fresh
processes of the time from process start until the case list is ready; the
workload itself runs in one more fresh process, whose peak RSS is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from tracing import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
DEADLINE_S = 170  # the whole run, probes included, ends before this


def _env() -> dict:
    env = dict(os.environ)
    env.pop("GROTHENDIECK_THREADS", None)  # would change the identities path
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker_cmd(args, workload, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(args.seed), *extra]


def _setup_seconds(args, workload, env, deadline) -> list[float]:
    """Time from spawning a fresh worker until it has its case list ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(_worker_cmd(args, workload, "--setup-only"), cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = ""
            if select.select([proc.stdout], [], [], max(deadline - monotonic(), 1))[0]:
                line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.communicate(timeout=max(deadline - monotonic(), 1))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return samples


def _run_worker(args, workload, env, deadline) -> dict:
    proc = subprocess.Popen(
        _worker_cmd(args, workload, "--seconds", str(args.seconds), "--trace", str(args.trace)),
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload did not finish in time") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise RuntimeError(f"workload process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="grothpoly verification benchmark")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "grothpoly" / "__init__.py").is_file():
        print(f"error: no grothpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    return max(_run_one(spec, args, workload) for workload in names)


def _run_one(spec, args, workload) -> int:
    deadline = monotonic() + DEADLINE_S
    env = _env()
    try:
        setup = _setup_seconds(args, workload, env, deadline)
        res = _run_worker(args, workload, env, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    res["setup_s"] = statistics.median(setup)
    res["setup_samples_s"] = setup
    res["failed_share"] = res["failed"] / res["attempted"]
    res["cpu_count"] = os.cpu_count()
    if args.trace:
        values, wanted = res["per_layer"], spec["per_layer"]
    else:
        values, wanted = res, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(res, indent=1))

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {res['passes']}+{res['traced_passes']} traced  "
          f"cases/pass {res['cases_per_pass']}  commit {res['commit']}")
    print(f"python {sys.version.split()[0]}  cpus {res['cpu_count']}  "
          f"grothpoly from {res['grothpoly']}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        total_ms = sum(values[f"{layer}.self_ms"] for layer in LAYERS + ("bench",))
        print(f"  layer self times sum to {total_ms / 1000:.4f} s; "
              f"mean traced pass {res['traced_mean_wall_s']:.4f} s")
    else:
        print(f"  case_tail_ms is p{res['tail_percentile']:.1f} of "
              f"{res['cases_per_pass']} cases per pass; "
              f"failed_share {res['failed_share']:.4f} ratio "
              f"({res['failed']} of {res['attempted']})")
    for case, why, known in res["failures"]:
        print(f"  failed: {case}: {why}{'  [known defect: GM zero case]' if known else ''}")
    print(f"  full result: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["unexpected_failures"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
