"""The benchmark's checks reject wrong answers, and its loop runs whole passes.

    python3 -m pytest perfbench/tests -q
"""

import json

import numpy as np
import pytest

import asymspec as asp
import checks
import run
import workloads
from client import LoopResult, run_closed_loop
from tracing import NullTracer, Tracer


@pytest.fixture(scope="module")
def two_point_run():
    rng = np.random.default_rng(5)
    req = workloads.spectrum_request(
        rng, workloads.two_point(), workloads.TWO_POINT_CENTER, 2.0, 21, asp.geometric_grid()
    )
    return req, req.run(NullTracer())


def algebra_request(kind: str, index: int = 0):
    return [r for r in workloads.algebra(3) if r.kind == kind][index]


def test_correct_spectrum_passes(two_point_run):
    req, out = two_point_run
    assert req.check(out) == []


def test_field_value_off_by_1e4_relative_is_rejected(two_point_run):
    req, (json_text, csv_text) = two_point_run
    iy, ix = req.samples[0]
    lines = csv_text.split("\n")
    row = 1 + iy * req.region.resolution + ix
    re_, im_, value = lines[row].split(",")
    lines[row] = f"{re_},{im_},{float(value) * (1 + 1e-4)!r}"
    problems = req.check((json_text, "\n".join(lines)))
    assert any(f"field[{iy},{ix}]" in p for p in problems)


def test_dropped_cluster_is_rejected(two_point_run):
    req, (json_text, csv_text) = two_point_run
    payload = json.loads(json_text)
    assert len(payload["clusters"]) == 2
    payload["clusters"].pop()
    problems = req.check((json.dumps(payload), csv_text))
    assert any("lies in no cluster" in p for p in problems)


def test_stray_cluster_is_rejected(two_point_run):
    req, (json_text, csv_text) = two_point_run
    payload = json.loads(json_text)
    payload["clusters"].append(
        {"centroid_re": -0.3, "centroid_im": 1.1, "radius": 0.0, "cell_count": 1}
    )
    problems = req.check((json.dumps(payload), csv_text))
    assert any("far from every eigenvalue" in p for p in problems)


def test_flipped_verdict_is_rejected():
    req = algebra_request("equiv")
    assert req.check({"result": "holds", "roots": []}) == []
    assert req.check({"result": "fails", "roots": []}) != []


def test_bracket_roots_must_equal_shift():
    req = algebra_request("qequiv", 1)
    out = req.run(NullTracer())
    assert out["result"] == "fails" and req.check(out) == []
    out["roots"][0][5] *= 1 + 1e-6
    assert req.check(out) != []


def test_expm_mismatch_is_rejected():
    req = algebra_request("contour")
    out = req.run(NullTracer())
    assert req.check(out) == []
    assert req.check([out[0] * (1 + 1e-6)]) != []


def test_series_and_identity_checks_pass_on_program_output():
    for kind in ("series", "identity", "image"):
        req = algebra_request(kind)
        assert req.check(req.run(NullTracer())) == []
    assert checks.check_residual(2e-9, 1.0, "x") != []


class FakeRequest:
    kind = "fake"

    def __init__(self, clock, cost, fail=False):
        self.clock, self.cost, self.fail = clock, cost, fail

    def run(self, tracer):
        self.clock.now += self.cost
        if self.fail:
            raise RuntimeError("boom")
        return "out"

    def check(self, output):
        return []


class FakeClock:
    now = 0.0

    def __call__(self):
        return self.now


def test_raising_request_makes_the_run_incorrect():
    clock = FakeClock()
    reqs = [FakeRequest(clock, 0.1), FakeRequest(clock, 0.1, fail=True)]
    res = run_closed_loop(reqs, NullTracer(), 0.0, clock=clock)
    assert (res.attempted, res.failed) == (2, 1)
    assert "boom" in res.problems[0]
    child = {"attempted": res.attempted, "failed": res.failed, "metrics": {}}
    result = run.summarize(child, [1.0], 0)
    assert result["correct"] is False and result["failed"] == 1


def test_loop_stops_only_at_the_end_of_a_whole_pass():
    clock = FakeClock()
    reqs = [FakeRequest(clock, 0.3) for _ in range(3)]
    res = run_closed_loop(reqs, NullTracer(), 1.0, clock=clock)
    assert res.passes == 2 and res.attempted == 6
    assert res.busy_s == pytest.approx(1.8)


def test_throughput_takes_each_requests_slowest_pass():
    res = LoopResult(passes=2, request_s=[[1.0, 2.0], [3.0, 1.0]])
    assert res.requests_per_s == pytest.approx(2 / 5)


def test_self_time_subtracts_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("parent"):
        clock.now += 1.0
        with tracer.span("child"):
            clock.now += 2.0
        clock.now += 0.5
    assert tracer.self_times() == pytest.approx([1.5, 2.0])
