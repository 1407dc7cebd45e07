"""The README's examples run as written, so documentation drift fails the tests."""

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import asymspec as asp
from asymspec import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def cli_example_block() -> str:
    (block,) = [b for b in fenced_blocks("sh") if "two_point.json" in b]
    return block


def cli_examples() -> list[list[str]]:
    """Each ``asymspec ...`` command of the CLI example block, as argv."""
    joined = cli_example_block().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("asymspec ")]


def printed_matrix(out: str) -> np.ndarray:
    """The one square complex array that numpy printed in ``out``."""
    (text,) = re.findall(r"^\[\[.*?\]\]$", out, flags=re.S | re.M)
    number = r"-?\d+\.\d*(?:e[-+]?\d+)?"
    entries = re.findall(rf"({number})\s*([-+])\s*(\d+\.\d*(?:e[-+]?\d+)?)j", text)
    values = [complex(float(re_), float(sign + im)) for re_, sign, im in entries]
    dim = math.isqrt(len(values))
    return np.array(values).reshape(dim, dim)


def test_quick_tour_runs(capsys):
    (tour,) = fenced_blocks("python")
    exec(compile(tour, "README quick tour", "exec"), {})
    out = capsys.readouterr().out
    assert "VerdictResult.HOLDS" in out
    # "diag(1, 2.25^2) up to quadrature error"
    assert np.abs(printed_matrix(out) - np.diag([1.0, 2.25**2])).max() <= 1e-8


def test_family_node_examples_load():
    (block,) = fenced_blocks("jsonc")
    inner = json.dumps({"kind": "diag_expr", "entries": ["1", "2+h"]})
    kinds = set()
    for line in block.splitlines():
        text = line.split("//")[0].strip()
        text = text.replace("NODE, ...", f"{inner}, {inner}").replace("NODE", inner)
        node = json.loads(text)
        spec = asp.family_from_dict({"dim": 2, "node": node})
        assert asp.family_eval(spec, 0.5).array.shape == (2, 2)
        kinds.add(node["kind"])
    assert kinds == {"constant", "jordan", "diag_expr", "h_scaled", "sum", "product", "random"}


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda argv: argv[0])
def test_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    heredoc = re.search(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", cli_example_block(), re.S | re.M)
    name, body = heredoc.groups()
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(body)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "spectrum":
        # "prints cluster centroids near 1 and 2"
        clusters = json.loads(out)["clusters"]
        centroids = [complex(c["centroid_re"], c["centroid_im"]) for c in clusters]
        assert centroids == pytest.approx([1.0, 2.0], abs=0.1)
    elif argv[0] == "funcalc":
        # "report includes mapped centroids near 1 and 4"
        mapped = json.loads(out)["mapped_centroids"]
        assert [complex(*m["image"]) for m in mapped] == pytest.approx([1.0, 4.0], abs=0.1)
