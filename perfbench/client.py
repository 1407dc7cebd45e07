"""The closed-loop client: one request at a time, whole passes only."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    passes: int = 0
    busy_s: float = 0.0
    # request_s[i]: the time of every completed run of request i, pass by pass.
    request_s: list[list[float]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def requests_per_s(self) -> float:
        """Requests of one pass over the sum of each request's slowest time.

        The shared 2-vCPU machine the bounds were set on switches between a
        loaded speed, which it holds most of the time and which repeats to a
        few percent between runs, and bursts up to 1.6x faster that come and
        go over seconds to minutes (perfbench/README.md). A request's slowest time over the passes reads the loaded
        speed unless a whole run falls in a burst; a median or a total reads
        how much of the run the bursts happened to cover.
        """
        slowest = [max(times) for times in self.request_s if times]
        return len(slowest) / sum(slowest)


def run_closed_loop(requests, tracer, seconds: float, clock=time.perf_counter) -> LoopResult:
    """Cycle through ``requests`` until a pass ends after ``seconds`` have elapsed.

    Each request is checked as it completes; a request that raises or fails
    its check counts as failed. ``busy_s`` is the time spent inside requests,
    so the client's own checks do not dilute the program's throughput.
    """
    res = LoopResult(request_s=[[] for _ in requests])
    start = clock()
    while True:
        for i, req in enumerate(requests):
            t0 = clock()
            try:
                out = req.run(tracer)
            except Exception as exc:  # a failing request is data, not a crash
                res.busy_s += clock() - t0
                res.attempted += 1
                res.failed += 1
                res.problems.append(f"{req.kind}: raised {exc!r}")
                continue
            elapsed = clock() - t0
            res.busy_s += elapsed
            res.request_s[i].append(elapsed)
            res.attempted += 1
            problems = req.check(out)
            if problems:
                res.failed += 1
                res.wrong += 1
                res.problems.extend(f"{req.kind}: {p}" for p in problems)
        res.passes += 1
        if clock() - start >= seconds:
            return res
