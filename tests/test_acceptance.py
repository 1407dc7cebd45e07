"""End-to-end acceptance gate.

Each test consumes one property suite from the verification harness (run
once per session at seed 42) and reports a single pass/fail line. The last
two tests additionally pin the runtime budget of the spectrum scan and the
byte-level determinism of the CLI report.
"""

import json
import time

import pytest

from asymspec import cli, verification


@pytest.fixture(scope="session")
def suites():
    results = verification.run_all_suites(seed=42)
    return {r.name: r for r in results}


def check(num, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {num:02d} {result.name}: {status}")
    assert result.passed, f"criterion {num:02d} {result.name}: {result.details}"


def test_criterion_01_bracket_recurrence_and_composition(suites):
    check(1, suites["bracket_consistency"])


def test_criterion_02_commuting_collapse(suites):
    check(2, suites["commuting_collapse"])


def test_criterion_03_equivalence_relation_laws(suites):
    check(3, suites["equivalence_relation"])


def test_criterion_04_equivalence_implies_bracket_equivalence(suites):
    check(4, suites["equiv_implies_qequiv"])


def test_criterion_05_two_point_spectrum(suites):
    check(5, suites["spectrum_two_point"])


def test_criterion_05_two_point_spectrum_runtime():
    start = time.monotonic()
    (result,) = verification.run_all_suites(42, ("spectrum_two_point",))
    elapsed = time.monotonic() - start
    print(f"criterion 05 spectrum_two_point runtime: {elapsed:.1f}s (budget 60s)")
    assert result.passed
    assert elapsed < 60.0, f"spectrum scan took {elapsed:.1f}s, budget is 60s"


def test_criterion_06_perturbation_invariance(suites):
    check(6, suites["perturbation_invariance"])


def test_criterion_07_spectrum_transport_between_equivalent_families(suites):
    check(7, suites["qequiv_spectrum_transport"])


def test_criterion_08_spectral_mapping(suites):
    check(8, suites["spectral_mapping"])


def test_criterion_09_quasinilpotence_matches_spectrum_at_zero(suites):
    check(9, suites["quasinilpotent_spectrum"])


def test_criterion_10_functional_calculus_accuracy(suites):
    check(10, suites["funcalc_accuracy"])


def test_criterion_11_resolvent_identities(suites):
    check(11, suites["resolvent_identities"])


def test_criterion_12_verify_runs_are_byte_identical(tmp_path, capsys):
    blobs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = cli.main(["verify", "--seed", "42", "--out", str(out_dir)])
        assert code == 0
        blobs.append((out_dir / "verify_report.json").read_bytes())
    capsys.readouterr()
    identical = blobs[0] == blobs[1]
    print(f"criterion 12 verify_determinism: {'PASS' if identical else 'FAIL'}")
    assert identical, "two verify runs with the same seed produced different bytes"
    report = json.loads(blobs[0])
    assert report["all_passed"] is True
    assert len(report["suites"]) == len(verification.SUITE_NAMES)
