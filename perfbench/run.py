"""Benchmark asymspec on one workload; the last stdout line is the result.

    python3 perfbench/run.py --workload spectrum-small --seed 1 --seconds 20 --trace 0

Run from the repository root. Every process is a fresh interpreter that
imports asymspec from ./src:

- SETUP_RUNS set-up-only children are timed from spawn to the moment the
  request list is ready; ``setup_s`` is the median over them and the
  measured child;
- the measured child runs the closed loop (worker.py). With ``--trace 0`` it
  reports ``requests_per_s`` and ``peak_rss_mb``; with ``--trace 1`` it runs
  the loop untraced and traced and reports the per-layer metrics.

The full record, with the machine it ran on, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("spectrum-small", "spectrum-large", "algebra")
SETUP_RUNS = 6
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start worker.py; return the process and its set-up time (spawn to READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, 10.0)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def summarize(child: dict, setups: list[float], trace: int) -> dict:
    """The result line: a run is correct only if no request raised or failed its check."""
    metrics = {"setup_s": (statistics.median(setups), "s")} if not trace else {}
    metrics.update({k: tuple(v) for k, v in child.pop("metrics").items()})
    return {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (ROOT / "src" / "asymspec" / "__init__.py").is_file():
        raise BenchError(f"no asymspec sources under {ROOT / 'src'}")
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_RUNS):
        proc, ready = spawn([*common, "--setup-only"])
        finish(proc, 30.0)
        setups.append(ready)
    proc, ready = spawn([*common, "--seconds", str(seconds), "--trace", str(trace)])
    setups.append(ready)
    child = json.loads(finish(proc, CHILD_TIMEOUT_S).strip().splitlines()[-1])

    result = summarize(child, setups, trace)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    spans = child.pop("spans", None)
    if spans is not None:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(spans))
    record = {"args": [workload, seed, seconds, trace], "setup_samples_s": setups, **child, "result": result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
