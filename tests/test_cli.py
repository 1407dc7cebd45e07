"""Command-line harness: dispatch, artifacts, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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


SRC = str(Path(cli.__file__).resolve().parents[1])


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports asymspec from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_strict(capsys, *argv):
    """run, with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, *argv)


def constant(tmp_path, name, entries):
    """Write a constant square family with real row-major entries; return its path."""
    path = tmp_path / name
    dim = math.isqrt(len(entries))
    matrix = {"dim": dim, "re": entries, "im": [0.0] * len(entries)}
    path.write_text(json.dumps({"dim": dim, "node": {"kind": "constant", "matrix": matrix}}))
    return str(path)


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
        assert report["epsilon"] == 0.75 * spacing
        centroids = [c["centroid_re"] + 1j * c["centroid_im"] for c in report["clusters"]]
        assert len(centroids) == 2
        assert abs(centroids[0] - 1.0) <= 2 * spacing
        assert abs(centroids[1] - 2.0) <= 2 * spacing

    def test_overflowing_family_is_a_numerical_failure(self, capsys, tmp_path):
        # each factor is finite; their product overflows, with no warning
        huge = {"kind": "random", "dim": 2, "seed": 1, "scale": 1e200}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 2, "node": {"kind": "product", "children": [huge, huge]}}))
        code, _, err = run_strict(capsys, "spectrum", "--family", str(path), "--epsilon", "0.1")
        assert code == 3
        assert json.loads(err)["kind"] == "TraceError"

    def test_overflowing_shift_is_a_numerical_failure(self, capsys, tmp_path):
        matrix = {"dim": 1, "re": [1e308], "im": [0]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 1, "node": {"kind": "constant", "matrix": matrix}}))
        code, out, err = run(
            capsys,
            "spectrum",
            "--family",
            str(path),
            "--region-center=-1.5e308",
            "--region-half-width",
            "1e307",
            "--resolution",
            "21",
        )
        assert (code, out) == (3, "")
        (line,) = err.splitlines()
        assert json.loads(line)["kind"] == "UnresolvedPoint"

    def test_overflowing_default_region_is_a_numerical_failure(self, capsys, tmp_path):
        # the window norm of a constant with four entries 1e308 overflows;
        # no half-width was given, so this is no configuration error
        big = constant(tmp_path, "big2.json", [1e308] * 4)
        code, out, err = run_strict(capsys, "spectrum", "--family", big)
        assert (code, out) == (3, "")
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["kind"] == "UnresolvedPoint"
        assert "||S_h||" in error["error"] and "--region-half-width" in error["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum"],
            ["field"],
            ["funcalc", "--expr", "exp(z)", "--contour-center", "1", "--contour-radius", "0.5"],
        ],
    )
    def test_default_region_reads_the_window(self, capsys, tmp_path, argv):
        # exp(1000 h) overflows at h = 1 only, outside the tail window that
        # sizes the default region
        path = tmp_path / "steep.json"
        node = {"kind": "diag_expr", "entries": ["exp(1000*h)"]}
        path.write_text(json.dumps({"dim": 1, "node": node}))
        code, out, err = run_strict(capsys, argv[0], "--family", str(path), *argv[1:])
        assert code == 0 and err == "" and out

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

    @pytest.mark.parametrize("command", ["qnil", "qequiv"])
    def test_overflowing_bracket_norms_fail_without_warnings(self, capsys, tmp_path, command):
        # the powers of diag(1e20, 3e19) leave the float range at order 16,
        # but their n-th roots read the spectral radius 1e20
        argv = [command, "--family", constant(tmp_path, "big.json", [1e20, 0.0, 0.0, 3e19])]
        if command == "qequiv":
            argv += ["--family2", constant(tmp_path, "zero.json", [0.0] * 4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        verdict = json.loads(out)
        assert verdict["result"] == "fails"
        sequences = verdict["evidence_summary"]["root_sequences"]
        assert len(sequences) == (2 if command == "qequiv" else 1)
        for seq in sequences:
            assert len(seq["roots"]) == 24
            assert all(abs(r - 1e20) <= 1e-12 * 1e20 for r in seq["roots"])


    def test_evaluation_error_outside_the_window(self, capsys, tmp_path):
        # exp(1000 h) overflows at h = 1 only; qnil reads the window alone,
        # while equiv's default tolerance reads the family at h0 = 1
        path = tmp_path / "steep.json"
        node = {"kind": "diag_expr", "entries": ["exp(1000*h)"]}
        path.write_text(json.dumps({"dim": 1, "node": node}))
        code, out, err = run(capsys, "qnil", "--family", str(path))
        assert code == 0 and err == ""
        assert json.loads(out)["result"] == "fails"
        code, _, err = run(capsys, "equiv", "--family", str(path), "--family2", str(path))
        assert code == 3
        assert json.loads(err)["kind"] == "ExprError"

    def test_constant_pair_of_large_values_is_flat(self, capsys, tmp_path):
        # the window mean of 5e307 overflows; the trend must not depend on it
        big = constant(tmp_path, "c.json", [5e307])
        zero = constant(tmp_path, "zero.json", [0.0])
        code, out, err = run_strict(capsys, "equiv", "--family", big, "--family2", zero)
        assert code == 0 and err == ""
        assert json.loads(out)["evidence_summary"]["tail"]["trend"] == "flat"


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
        keys = ["contour", "expr", "mapped_centroids", "source_spectrum", "tail"]
        assert sorted(report) == keys
        for entry in report["tail"]:
            assert sorted(entry) == ["h", "matrix", "nodes", "quadrature_error"]
            # a square on a circle of radius 1.8 around eigenvalues within 0.5
            assert entry["nodes"] == 64
            assert 0.0 < entry["quadrature_error"] <= 1e-12

    @pytest.mark.parametrize("nodes, code", [("64", 3), ("256", 3), ("512", 0)])
    def test_unconverged_quadrature_is_numerical_error(self, capsys, tmp_path, nodes, code):
        # exp([[0.9, 1], [0, -0.3]]) on the unit circle needs 512 nodes
        path = tmp_path / "upper.json"
        matrix = {"dim": 2, "re": [0.9, 1, 0, -0.3], "im": [0, 0, 0, 0]}
        path.write_text(json.dumps({"dim": 2, "node": {"kind": "constant", "matrix": matrix}}))
        got, out, err = run(
            capsys,
            "funcalc",
            "--family",
            str(path),
            "--expr",
            "exp(z)",
            "--contour-center",
            "0",
            "--contour-radius",
            "1",
            "--nodes",
            nodes,
        )
        assert got == code
        if code == 3:
            assert out == ""
            assert json.loads(err)["kind"] == "QuadratureUnresolved"
            assert f"at the {nodes}-node cap" in json.loads(err)["error"]
        else:
            assert {entry["nodes"] for entry in json.loads(out)["tail"]} == {512}

    @pytest.mark.parametrize("nodes, code", [("128", 3), ("256", 0)])
    def test_mass_at_the_node_count_is_not_folded_away(self, capsys, tmp_path, nodes, code):
        # z^64 on the unit circle: level 64 reads T^64 + I and agrees with
        # level 32, so only the alias check sends it on to 256 nodes
        path = tmp_path / "quarter.json"
        matrix = {"dim": 1, "re": [0.25], "im": [0]}
        path.write_text(json.dumps({"dim": 1, "node": {"kind": "constant", "matrix": matrix}}))
        got, out, err = run(
            capsys,
            "funcalc",
            "--family",
            str(path),
            "--expr",
            "z^64",
            "--contour-center",
            "0",
            "--contour-radius",
            "1",
            "--nodes",
            nodes,
        )
        assert got == code
        if code == 3:
            assert json.loads(err)["kind"] == "QuadratureUnresolved"
        else:
            for entry in json.loads(out)["tail"]:
                assert entry["nodes"] == 256
                # 0.25^64 is about 3e-39
                assert max(map(abs, entry["matrix"]["re"] + entry["matrix"]["im"])) <= 1e-13

    @pytest.mark.parametrize(
        "entry, expr, radius, kind, message",
        [
            # 4^511 is finite in f, but the quadrature's sum overflows
            ("0", "(z^64)^7*z^63", "4", "QuadratureUnresolved", "overflows at 64 nodes"),
            ("0.1", "1/(z - 0.5)", "1", "QuadratureUnresolved", "may not be holomorphic"),
            ("0", "exp(z)", "800", "ExprError", "exp(800+0j) overflows"),
        ],
        ids=["overflowing-sum", "pole", "overflowing-f"],
    )
    def test_quadrature_failure_names_its_cause(
        self, capsys, tmp_path, entry, expr, radius, kind, message
    ):
        path = tmp_path / "scalar.json"
        matrix = {"dim": 1, "re": [float(entry)], "im": [0]}
        path.write_text(json.dumps({"dim": 1, "node": {"kind": "constant", "matrix": matrix}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, out, err = run(
                capsys,
                "funcalc",
                "--family",
                str(path),
                "--expr",
                expr,
                "--contour-center",
                "0",
                "--contour-radius",
                radius,
            )
        assert (got, out, caught) == (3, "", [])
        # the JSON diagnostic is all of stderr
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["kind"] == kind
        assert message in payload["error"]

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

    def test_converging_series_of_overflowing_brackets(self, capsys, tmp_path):
        # the brackets of diag(1e20, 3e19) against zero overflow at order 16,
        # but at lambda = 1e25 the summands shrink by 1e-5 an order
        big = constant(tmp_path, "big.json", [1e20, 0.0, 0.0, 3e19])
        zero = constant(tmp_path, "zero.json", [0.0] * 4)
        argv = ["series", "--family", big, "--family2", zero, "--at", "1e25", "--nmax", "20"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert json.loads(out)["defects_vanish"] is True

    def test_diverging_series_is_numerical_error(self, capsys, tmp_path):
        paths = []
        for name, value in [("big1.json", 1e200), ("zero1.json", 0.0)]:
            matrix = {"dim": 1, "re": [value], "im": [0.0]}
            paths.append(tmp_path / name)
            paths[-1].write_text(
                json.dumps({"dim": 1, "node": {"kind": "constant", "matrix": matrix}})
            )
        argv = ["series", "--family", str(paths[0]), "--family2", str(paths[1])]
        argv += ["--at", "1", "--nmax", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "the bracket series at lam=(1+0j) diverges: its partial sum of order 2 "
            "leaves the float range at h=6.103515625e-05",
            "kind": "UnresolvedPoint",
        }

    def test_overflowing_defect_products_read_inf_without_warnings(self, capsys, tmp_path):
        # (lam - 1e300) times the partial sum overflows at lam = 1e10
        big = constant(tmp_path, "b300.json", [1e300])
        zero = constant(tmp_path, "zero1.json", [0.0])
        argv = ["series", "--family", big, "--family2", zero, "--at", "1e10", "--nmax", "1"]
        code, out, err = run_strict(capsys, *argv)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["defects_vanish"] is False
        assert report["left_defect"]["value"] == report["right_defect"]["value"] == "inf"

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
            ("--region-center", ["spectrum", "--family", "{family}", "--region-center",
                                 "exp(1000)"]),
            ("--contour-center", ["funcalc", "--family", "{family}", "--expr", "z",
                                  "--contour-center", "(1e200)^2", "--contour-radius", "2.2"]),
            ("--region-center", ["spectrum", "--family", "{family}", "--region-center", "z"]),
            ("--region-center", ["spectrum", "--family", "{family}", "--region-center", "1/0"]),
            ("--contour-center", ["funcalc", "--family", "{family}", "--expr", "z",
                                  "--contour-center", "z", "--contour-radius", "2.2"]),
            ("--contour-center", ["funcalc", "--family", "{family}", "--expr", "z",
                                  "--contour-center", "1/0", "--contour-radius", "2.2"]),
            ("--at", ["series", "--family", "{family}", "--family2", "{family}",
                      "--at", "lambda"]),
            ("--family", ["qnil", "--family", "{missing}"]),
            ("--family", ["qnil", "--family", "{not_json}"]),
        ],
        ids=["bad-expr", "bad-region-center", "overflowing-region-center",
             "overflowing-contour-center", "unbound-region-center", "zero-division-region-center",
             "unbound-contour-center", "zero-division-contour-center", "unbound-at",
             "missing-family", "non-json-family"],
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

    @pytest.mark.parametrize(
        "flag, value, argv",
        [
            ("--region-center", "-0.5+1i", ["spectrum", "--family", "{family}",
                                            "--region-half-width", "2", "--resolution", "21"]),
            ("--contour-center", "-0.5+1i", ["funcalc", "--family", "{family}", "--expr", "z^2",
                                             "--contour-radius", "4", "--region-center", "1.5",
                                             "--region-half-width", "2", "--resolution", "21",
                                             "--epsilon", "1e-3"]),
            ("--at", "-1e3", ["series", "--family", "{family}", "--family2", "{family}"]),
        ],
        ids=["region-center", "contour-center", "at"],
    )
    def test_negative_complex_value_after_its_flag(self, capsys, two_point, flag, value, argv):
        # argparse alone reads "-0.5+1i" and "-1e3" as options, not values
        argv = [arg.format(family=two_point) for arg in argv]
        code, joined, _ = run(capsys, *argv, f"{flag}={value}")
        assert code == 0
        code, spaced, err = run(capsys, *argv, flag, value)
        assert code == 0 and err == ""
        assert spaced == joined

    @pytest.mark.parametrize(
        "node",
        [
            '{"kind": "jordan", "dim": 2, "eigenvalue": Infinity}',
            '{"kind": "constant", "matrix": {"dim": 2, "re": [1, 0, 0, 1], '
            '"im": [Infinity, 0, 0, 0]}}',
        ],
        ids=["jordan-eigenvalue", "constant-imaginary-part"],
    )
    def test_non_finite_family_entry_is_a_configuration_error(self, capsys, tmp_path, node):
        path = tmp_path / "inf.json"
        path.write_text(f'{{"dim": 2, "node": {node}}}')
        code, out, err = run_strict(capsys, "qnil", "--family", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"].endswith("matrix entries must be finite")

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


class TestRuntimeDependencies:
    def test_import_loads_no_scipy(self):
        out = run_python("import sys, asymspec; print('scipy' in sys.modules)").stdout
        assert out == "False\n"

    def test_spectrum_runs_without_scipy(self, capsys, two_point, tmp_path):
        # the README example, once here and once where scipy cannot be imported
        argv = ["spectrum", "--family", two_point, "--region-center", "1.5",
                "--region-half-width", "2", "--resolution", "41", "--epsilon", "1e-3"]
        assert cli.main([*argv, "--out", str(tmp_path / "here")]) == 0
        capsys.readouterr()
        blocked = [*argv, "--out", str(tmp_path / "blocked")]
        run_python(
            "import sys; sys.modules['scipy'] = None\n"
            f"from asymspec import cli; sys.exit(cli.main({blocked!r}))"
        )
        for name in ("spectrum.json", "field.csv"):
            here = (tmp_path / "here" / name).read_bytes()
            assert (tmp_path / "blocked" / name).read_bytes() == here
