"""Command-line harness: dispatch, artifacts, exit codes, determinism."""

import json
import math

import pytest

from asymspec import cli


@pytest.fixture
def two_point(tmp_path):
    path = tmp_path / "two_point.json"
    path.write_text(
        json.dumps({"dim": 2, "node": {"kind": "diag_expr", "entries": ["1", "2+h"]}})
    )
    return str(path)


@pytest.fixture
def shift_block(tmp_path):
    path = tmp_path / "shift.json"
    path.write_text(
        json.dumps({"dim": 3, "node": {"kind": "jordan", "dim": 3, "eigenvalue": 0.5}})
    )
    return str(path)


@pytest.fixture
def scalar_half(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(
        json.dumps(
            {
                "dim": 3,
                "node": {
                    "kind": "constant",
                    "matrix": {
                        "dim": 3,
                        "re": [0.5, 0, 0, 0, 0.5, 0, 0, 0, 0.5],
                        "im": [0.0] * 9,
                    },
                },
            }
        )
    )
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_two_point_clusters_on_stdout(self, capsys, two_point):
        code, out, err = run(
            capsys,
            "spectrum",
            "--family",
            two_point,
            "--region-center",
            "1.5",
            "--region-half-width",
            "2",
            "--resolution",
            "41",
            "--epsilon",
            "1e-3",
        )
        assert code == 0
        report = json.loads(out)
        centroids = [c["centroid_re"] + 1j * c["centroid_im"] for c in report["clusters"]]
        assert len(centroids) == 2
        assert abs(centroids[0] - 1.0) <= 0.1
        assert abs(centroids[1] - 2.0) <= 0.1

    def test_default_flags_find_both_eigenvalues(self, capsys, two_point):
        # the default region's grid misses 1 and 2, so the default epsilon
        # has to cover the distance from an eigenvalue to its nearest point
        code, out, _ = run(capsys, "spectrum", "--family", two_point)
        assert code == 0
        report = json.loads(out)
        spacing = 2 * report["region"]["half_width"] / (report["region"]["resolution"] - 1)
        assert report["epsilon"] >= 0.75 * spacing
        centroids = [c["centroid_re"] + 1j * c["centroid_im"] for c in report["clusters"]]
        assert len(centroids) == 2
        assert abs(centroids[0] - 1.0) <= 2 * spacing
        assert abs(centroids[1] - 2.0) <= 2 * spacing

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_family_is_a_numerical_failure(self, capsys, tmp_path):
        huge = {"kind": "random", "dim": 2, "seed": 1, "scale": 1e200}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 2, "node": {"kind": "product", "children": [huge, huge]}}))
        code, _, err = run(capsys, "spectrum", "--family", str(path), "--epsilon", "0.1")
        assert code == 3
        assert json.loads(err)["kind"] == "TraceError"

    def test_artifacts_written_and_byte_stable(self, capsys, two_point, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        blobs = []
        for d in dirs:
            code, _, _ = run(
                capsys,
                "spectrum",
                "--family",
                two_point,
                "--region-center",
                "1.5",
                "--region-half-width",
                "2",
                "--resolution",
                "21",
                "--epsilon",
                "1e-3",
                "--out",
                str(d),
            )
            assert code == 0
            blobs.append(
                ((d / "spectrum.json").read_bytes(), (d / "field.csv").read_bytes())
            )
        assert blobs[0] == blobs[1]

    def test_sorted_keys_in_reports(self, capsys, two_point):
        code, out, _ = run(
            capsys,
            "spectrum",
            "--family",
            two_point,
            "--region-half-width",
            "3",
            "--resolution",
            "21",
        )
        assert code == 0
        report = json.loads(out)
        assert list(report) == sorted(report)


class TestFieldCommand:
    def test_row_count_matches_resolution(self, capsys, two_point):
        code, out, _ = run(
            capsys,
            "field",
            "--family",
            two_point,
            "--region-center",
            "1.5",
            "--region-half-width",
            "2",
            "--resolution",
            "21",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "re,im,value"
        assert len(lines) == 1 + 21 * 21


class TestVerdictCommands:
    def test_equiv_verdict_json(self, capsys, two_point, tmp_path):
        other = tmp_path / "shifted.json"
        other.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "node": {
                        "kind": "sum",
                        "children": [
                            {"kind": "diag_expr", "entries": ["1", "2+h"]},
                            {
                                "kind": "h_scaled",
                                "inner": {"kind": "random", "dim": 2, "seed": 5, "scale": 0.5},
                            },
                        ],
                    },
                }
            )
        )
        code, out, _ = run(capsys, "equiv", "--family", two_point, "--family2", str(other))
        assert code == 0
        verdict = json.loads(out)
        assert verdict["kind"] == "asymptotic_equiv"
        assert verdict["result"] == "holds"

    def test_qequiv_of_jordan_and_scalar(self, capsys, shift_block, scalar_half, tmp_path):
        code, out, _ = run(
            capsys,
            "qequiv",
            "--family",
            shift_block,
            "--family2",
            scalar_half,
            "--nmax",
            "12",
            "--out",
            str(tmp_path / "v"),
        )
        assert code == 0
        verdict = json.loads((tmp_path / "v" / "verdict.json").read_text())
        assert verdict["result"] == "holds"
        assert verdict["both_directions"] is True

    def test_qnil_fails_for_scalar(self, capsys, scalar_half):
        code, out, _ = run(capsys, "qnil", "--family", scalar_half, "--nmax", "12")
        assert code == 0
        assert json.loads(out)["result"] == "fails"


class TestFuncalcCommand:
    def test_report_maps_centroids(self, capsys, two_point):
        code, out, _ = run(
            capsys,
            "funcalc",
            "--family",
            two_point,
            "--expr",
            "z^2",
            "--contour-center",
            "1.5",
            "--contour-radius",
            "1.8",
            "--resolution",
            "41",
            "--region-half-width",
            "2",
        )
        assert code == 0
        report = json.loads(out)
        mapped = [
            entry["image"][0] + 1j * entry["image"][1]
            for entry in report["mapped_centroids"]
        ]
        assert len(mapped) == 2
        assert abs(mapped[0] - 1.0) <= 0.2
        assert abs(mapped[1] - 4.0) <= 0.2
        assert report["encloses_source_spectrum"] is True

    def test_non_enclosing_contour_is_numerical_error(self, capsys, two_point):
        code, out, err = run(
            capsys,
            "funcalc",
            "--family",
            two_point,
            "--expr",
            "z^2",
            "--contour-center",
            "1.5",
            "--contour-radius",
            "0.4",
            "--resolution",
            "41",
            "--region-half-width",
            "2",
        )
        assert code == 3
        assert json.loads(err) == {
            "error": "contour does not enclose every spectrum cluster with margin 0.95; "
            "widen the radius or recenter",
            "kind": "NonEnclosing",
        }
        assert out == ""


class TestSeriesCommand:
    def test_commuting_nilpotent_transport(self, capsys, tmp_path):
        target = tmp_path / "target.json"
        source = tmp_path / "source.json"
        source.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "node": {
                        "kind": "constant",
                        "matrix": {"dim": 2, "re": [0.5, 0, 0, 0.5], "im": [0.0] * 4},
                    },
                }
            )
        )
        target.write_text(
            json.dumps(
                {"dim": 2, "node": {"kind": "jordan", "dim": 2, "eigenvalue": {"re": 0.5, "im": 0.0}}}
            )
        )
        code, out, _ = run(
            capsys,
            "series",
            "--family",
            str(target),
            "--family2",
            str(source),
            "--at",
            "2",
            "--nmax",
            "6",
        )
        assert code == 0
        report = json.loads(out)
        assert report["defects_vanish"] is True
        assert report["left_defect"]["value"] <= 1e-9

    def test_point_in_spectrum_is_numerical_error(self, capsys, two_point):
        code, _, err = run(
            capsys,
            "series",
            "--family",
            two_point,
            "--family2",
            two_point,
            "--at",
            "1",
        )
        assert code == 3
        assert json.loads(err)["kind"] == "UnresolvedPoint"


class TestConfigErrors:
    def test_missing_family_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "qnil", "--family", str(tmp_path / "missing.json")
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["field"] == "--family"

    def test_unknown_node_kind_pointer(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "node": {"kind": "nope"}}))
        code, _, err = run(capsys, "qnil", "--family", str(bad))
        assert code == 2
        assert json.loads(err)["field"] == "/node/kind"

    def test_even_resolution_rejected(self, capsys, two_point):
        code, _, err = run(
            capsys,
            "field",
            "--family",
            two_point,
            "--resolution",
            "40",
            "--region-half-width",
            "2",
        )
        assert code == 2
        assert "odd" in json.loads(err)["error"]

    def test_bad_complex_literal(self, capsys, two_point):
        code, _, err = run(
            capsys,
            "spectrum",
            "--family",
            two_point,
            "--region-center",
            "1.5+*2i",
            "--region-half-width",
            "2",
            "--resolution",
            "21",
        )
        assert code == 2
        assert json.loads(err)["field"] == "--region-center"

    def test_funcalc_expr_with_h_rejected_before_any_sweep(self, capsys, two_point):
        code, out, err = run(
            capsys,
            "funcalc",
            "--family",
            two_point,
            "--expr",
            "z*h",
            "--contour-center",
            "0.5",
            "--contour-radius",
            "2.2",
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["field"] == "--expr"

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--expr", ["funcalc", "--family", "{family}", "--expr", "z^",
                        "--contour-center", "0.5", "--contour-radius", "2.2"]),
            ("--region-center", ["spectrum", "--family", "{family}", "--region-center",
                                 "1.5+*2i", "--region-half-width", "2", "--resolution", "21"]),
            ("--family", ["qnil", "--family", "{missing}"]),
            ("--family", ["qnil", "--family", "{not_json}"]),
        ],
        ids=["bad-expr", "bad-region-center", "missing-family", "non-json-family"],
    )
    def test_error_names_the_flag_once(self, capsys, two_point, tmp_path, flag, argv):
        not_json = tmp_path / "not_json.json"
        not_json.write_text("{")
        paths = {"family": two_point, "missing": str(tmp_path / "missing.json"),
                 "not_json": str(not_json)}
        code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        payload = json.loads(err)
        assert payload["field"] == flag
        assert payload["error"].count(flag) == 1

    def test_no_subcommand_prints_help(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_suite_name(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "not_a_suite")
        assert code == 2


class TestVerifyCommand:
    def test_single_suite_passes_and_reports(self, capsys, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        payloads = []
        for d in dirs:
            code, out, _ = run(
                capsys,
                "verify",
                "--suite",
                "commuting_collapse",
                "--seed",
                "42",
                "--out",
                str(d),
            )
            assert code == 0
            assert "suite commuting_collapse: PASS" in out
            assert "all suites passed" in out
            payloads.append((d / "verify_report.json").read_bytes())
        assert payloads[0] == payloads[1]
        report = json.loads(payloads[0])
        assert report["seed"] == 42
        assert report["all_passed"] is True
        assert [s["name"] for s in report["suites"]] == ["commuting_collapse"]
