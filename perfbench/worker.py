"""One workload in one fresh interpreter; spawned by run.py.

Prints ``READY`` once the request list is built (run.py times set-up up to
that line), then, unless ``--setup-only``, runs the closed loop and prints
one JSON line with its counts and measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import asymspec  # noqa: E402

import workloads  # noqa: E402


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "machine": platform.machine(),
    }


def loop_record(res) -> dict:
    return {
        "attempted": res.attempted,
        "failed": res.failed,
        "wrong": res.wrong,
        "passes": res.passes,
        "busy_s": res.busy_s,
        "request_s": res.request_s,
        "requests_per_s": res.requests_per_s,
        "problems": res.problems[:20],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(asymspec.__file__).resolve().parents:
        print(f"asymspec imported from {asymspec.__file__}, not {src}", file=sys.stderr)
        return 2
    requests = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    from client import run_closed_loop
    from tracing import NullTracer, Tracer

    out = {"machine": machine_record()}
    untraced = run_closed_loop(requests, NullTracer(), args.seconds)
    out["untraced"] = loop_record(untraced)
    loops = [untraced]
    if args.trace:
        import layers

        tracer = Tracer()
        traced = run_closed_loop(requests, tracer, args.seconds)
        out["traced"] = loop_record(traced)
        loops.append(traced)
        tracer.source = "other"
        for other in workloads.WORKLOADS:
            if other != args.workload:
                res = run_closed_loop(workloads.build(other, args.seed), tracer, 0.0)
                out[f"other:{other}"] = loop_record(res)
                loops.append(res)
        tracer.source = "probe"
        layers.run_probes(tracer, args.seed)
        spans = tracer.to_records()
        metrics = layers.per_layer(spans, traced.passes)
        overhead = 100.0 * (untraced.requests_per_s / traced.requests_per_s - 1.0)
        metrics[layers.OVERHEAD[0]] = (overhead, layers.OVERHEAD[1])
        out["spans"] = spans
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "requests_per_s": (untraced.requests_per_s, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    out["attempted"] = sum(r.attempted for r in loops)
    out["failed"] = sum(r.failed for r in loops)
    out["wrong"] = sum(r.wrong for r in loops)
    out["metrics"] = metrics
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
