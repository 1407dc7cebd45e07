"""Reference figures that are too slow for a benchmark run.

    python3 perfbench/reference.py

Prints the cost of one resolvent evaluation at dims 16, 32 and 64
(``solve_inverse`` then ``operator_norm`` of the inverse, on lam I - S_h at
points of a 21-point region around a random family's spectrum; the same
probe as a traced run's ``linalg`` metrics, ``layers.probe_linalg``) and the
wall time of ``asymspec verify --seed 42``. A dim-64 spectrum request is
left out of the workloads: one 21 x 21 field makes 21 * 21 * 6 such
evaluations.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import asymspec as asp  # noqa: E402

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402


def eval_cost_us(dim: int, calls: int, seed: int = 1) -> float:
    """Mean time of one inverse plus one norm of the inverse, in us."""
    rng = np.random.default_rng(seed)
    spec = asp.random_family(dim, seed, 1.0 / np.sqrt(dim))
    tracer = Tracer()
    window = asp.geometric_grid().window_samples
    layers.probe_linalg(tracer, spec, layers.RANDOM_AXIS, layers.RANDOM_AXIS, window, calls, rng)
    return 1e6 * sum(s.duration / s.attrs["calls"] for s in tracer.spans)


def main() -> int:
    for dim, calls in ((16, 200), (32, 100), (64, 30)):
        print(f"resolvent evaluation, dim {dim}: {eval_cost_us(dim, calls):.0f} us (mean of {calls})")
    out = ROOT / "perfbench" / "results" / "verify"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "asymspec.cli", "verify", "--seed", "42", "--out", str(out)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    print(f"asymspec verify --seed 42: {time.perf_counter() - t0:.1f} s, exit {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
