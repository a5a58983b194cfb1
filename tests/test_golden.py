"""Byte-identity of CLI outputs on fixed seeds against committed golden files.

The inputs live in `tests/golden/`: `two_block.json` (a two-block
graphon), `cherry.json` (a height-1 pattern), `multi.txt` (a 20-vertex
multigraph with multiplicities 1 to 3), `multi16.txt` (a 16-vertex
multigraph with multiplicities 1 to 3, small enough for the exact Cheeger
constant) and `double.txt` (a 40-vertex graph with every pair doubled, whose
rows all carry one multiplicity).  The graph that `gen` writes there is
the input of the later subcommands, so a regression shows up in the
subcommand that caused it.  At gamma = 0.9 the cleaning sweep of `decompose`
strips a set, which `decompose_strip.json` covers.  To regenerate after a
deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import os
from pathlib import Path

import pytest

from ustlocal.cli import main
from ustlocal.multigraph import read_edge_list, write_edge_list

GOLDEN = Path(__file__).parent / "golden"

# (golden file, argv); `gen` writes its own files and prints a summary
CASES = [
    ("gen.stdout", ["gen", "--graphon", "two_block.json", "--n", "60", "--seed", "17",
                    "--out", "gen.txt"]),
    ("ust.jsonl", ["ust", "--graph", "gen.txt", "--radius", "2", "--samples", "4",
                   "--seed", "5"]),
    ("ust_ab.jsonl", ["ust", "--graph", "gen.txt", "--radius", "1", "--samples", "2",
                      "--seed", "9", "--sampler", "aldous-broder"]),
    ("ust_multi.jsonl", ["ust", "--graph", "multi.txt", "--radius", "2", "--samples", "3",
                         "--seed", "2"]),
    ("ust_r3.jsonl", ["ust", "--graph", "gen.txt", "--radius", "3", "--samples", "3",
                      "--seed", "6"]),
    ("ust_r0.jsonl", ["ust", "--graph", "gen.txt", "--radius", "0", "--samples", "2",
                      "--seed", "8"]),
    ("branching_d1.csv", ["branching", "--graphon", "two_block.json", "--depth", "1",
                          "--samples", "20000", "--seed", "3"]),
    ("branching_d2.csv", ["branching", "--graphon", "two_block.json", "--depth", "2",
                          "--samples", "20000", "--seed", "4"]),
    ("branching_d3.csv", ["branching", "--graphon", "two_block.json", "--depth", "3",
                          "--samples", "20000", "--seed", "6"]),
    ("branching_d4.csv", ["branching", "--graphon", "two_block.json", "--depth", "4",
                          "--samples", "1000", "--seed", "8"]),
    ("count_trees.json", ["count-trees", "--graph", "gen.txt", "--graphon", "two_block.json"]),
    ("decompose.json", ["decompose", "--graph", "gen.txt", "--gamma", "0.3", "--eta", "0.3",
                        "--eps", "0.2"]),
    ("decompose_strip.json", ["decompose", "--graph", "gen.txt", "--gamma", "0.9",
                              "--eta", "0.3", "--eps", "0.5"]),
    ("freq.json", ["freq", "--pattern", "cherry.json", "--graph", "gen.txt",
                   "--decomp", "decompose.json", "--eps", "0.25"]),
    ("walk.json", ["walk", "--graph", "gen.txt"]),
    ("walk_multi16.json", ["walk", "--graph", "multi16.txt"]),
    ("ust_double.jsonl", ["ust", "--graph", "double.txt", "--radius", "2", "--samples", "3",
                          "--seed", "3"]),
    ("ust_double_ab.jsonl", ["ust", "--graph", "double.txt", "--radius", "2", "--samples", "3",
                             "--seed", "4", "--sampler", "aldous-broder"]),
    ("resistance.json", ["resistance", "--graph", "gen.txt", "--u", "0", "--v", "59"]),
    ("resistance_multi.json", ["resistance", "--graph", "multi.txt", "--u", "3", "--v", "17"]),
    ("extremal.json", ["extremal", "--k-max", "129"]),
]


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"ustlocal {' '.join(argv)} exited {code}"
    return out.getvalue()


@pytest.fixture
def golden_dir(monkeypatch):
    monkeypatch.chdir(GOLDEN)
    return GOLDEN


def test_gen_golden(tmp_path, monkeypatch):
    (tmp_path / "two_block.json").write_bytes((GOLDEN / "two_block.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    name, argv = CASES[0]
    assert _run(argv).encode() == (GOLDEN / name).read_bytes()
    for produced in ("gen.txt", "gen.txt.labels"):
        assert (tmp_path / produced).read_bytes() == (GOLDEN / produced).read_bytes()


@pytest.mark.parametrize("name,argv", CASES[1:], ids=[c[0] for c in CASES[1:]])
def test_subcommand_golden(golden_dir, name, argv):
    assert _run(argv).encode() == (golden_dir / name).read_bytes()


def test_edge_list_rewrite_golden(golden_dir, tmp_path):
    for name in ("gen.txt", "multi.txt"):
        write_edge_list(read_edge_list(name), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (golden_dir / name).read_bytes()


def test_ust_golden_across_threads(golden_dir):
    name, argv = CASES[1]
    assert _run(argv + ["--threads", "2"]).encode() == (golden_dir / name).read_bytes()


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in CASES:
        text = _run(argv)
        with open(name, "w", encoding="ascii") as fh:
            fh.write(text)
