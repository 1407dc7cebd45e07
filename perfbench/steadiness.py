"""Run two sets of benchmark runs on the same code and report how steady they are.

    python3 perfbench/steadiness.py [--first-seed N]

Each set runs every workload of BENCHMARK.json once per seed, for ten
seeds; every run has its own seed, counting up from --first-seed. For every
end-to-end metric and workload it prints, per set, the median and the
spread (interquartile distance over the median, from
statistics.quantiles(n=4)), then how much worse the second set's median is
than the first's, both against the metric's bound in BENCHMARK.json. It
exits 1 if a spread is above a third of its bound, a shift is above the
bound, or the share of failed operations differs between runs. The spread
of setup_s is reported but not held to the rule: set-up is a handful of
interpreter starts, and its steadiness is asked of the median shift only.
Raw values go to perfbench/results/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, last: float, better: str) -> float:
    """Share by which ``last`` is worse than ``first`` (negative: better)."""
    return (last - first) / first if better == "lower" else (first - last) / first


def one_run(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    raw: dict = {w: [[] for _ in range(SETS)] for w in names}
    seed = args.first_seed
    for s in range(SETS):
        for _ in range(RUNS):
            for w in names:
                res = one_run(bench, w, seed)
                raw[w][s].append({"seed": seed, **res})
                vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
                print(f"set {s + 1} {w} seed {seed}: {vals} failed {res['failed']}/{res['attempted']}", flush=True)
            seed += 1
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steadiness.json").write_text(json.dumps(raw, indent=1))

    ok = True
    print(f"\n{'workload':15} {'metric':15} {'bound':>6} " + " ".join(f"{'median' + str(s + 1):>10} {'spread' + str(s + 1):>8}" for s in range(SETS)) + f" {'shift':>7}")
    for w in names:
        shares = {r["failed"] / r["attempted"] for runs in raw[w] for r in runs}
        if len(shares) != 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
        for m in bench["end_to_end"]:
            sets = [[r["metrics"][m["name"]]["value"] for r in runs] for runs in raw[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            shift = worse_by(medians[0], medians[1], m["better"])
            flags = []
            if m["name"] != "setup_s" and max(spreads) > m["bound"] / 3:
                flags.append("SPREAD")
            if shift > m["bound"]:
                flags.append("SHIFT")
            ok = ok and not flags
            cells = " ".join(f"{md:10.4g} {sp:8.2%}" for md, sp in zip(medians, spreads))
            print(f"{w:15} {m['name']:15} {m['bound']:6.0%} {cells} {shift:7.2%} {' '.join(flags) or 'ok'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
