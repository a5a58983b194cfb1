import json
import math
import subprocess
import sys

import pytest

from ustlocal import electric
from ustlocal.cli import main
from ustlocal.graphon import constant_graphon, save_graphon
from ustlocal.multigraph import complete_graph, write_edge_list
from ustlocal.trees import RootedTree


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ustlocal.cli", *args], capture_output=True, text=True
    )


@pytest.fixture
def workdir(tmp_path):
    save_graphon(constant_graphon(1.0), tmp_path / "const1.json")
    (tmp_path / "edge.json").write_text(RootedTree([-1, 0]).to_json())
    write_edge_list(complete_graph(8), tmp_path / "k8.txt")
    return tmp_path


def test_gen_writes_graph_and_labels(workdir):
    out = workdir / "g.txt"
    res = run_cli("gen", "--graphon", str(workdir / "const1.json"), "--n", "10",
                  "--seed", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.exists()
    labels = (workdir / "g.txt.labels").read_text().splitlines()
    assert len(labels) == 10


def test_ust_jsonl_schema(workdir):
    res = run_cli("ust", "--graph", str(workdir / "k8.txt"), "--samples", "3",
                  "--seed", "7", "--radius", "1")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) == {"sample", "radius", "degree_counts", "census"}
    assert sum(rec["census"].values()) == 8
    assert sum(int(k) * v for k, v in rec["degree_counts"].items()) == 14


def test_freq_graphon_value(workdir):
    res = run_cli("freq", "--pattern", str(workdir / "edge.json"),
                  "--graphon", str(workdir / "const1.json"))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["value"] == pytest.approx(math.exp(-1), abs=1e-12)


def test_freq_graph_trivial_decomposition(workdir):
    res = run_cli("freq", "--pattern", str(workdir / "edge.json"),
                  "--graph", str(workdir / "k8.txt"), "--alpha", "0.5", "--eps", "0.1")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["value"] == pytest.approx(math.exp(-1), abs=1e-12)
    assert payload["method"] == "backtrack"  # the evaluator used, not the request


def test_determinism_same_seed_same_bytes(workdir):
    args = ("ust", "--graph", str(workdir / "k8.txt"), "--samples", "5",
            "--seed", "11", "--radius", "1")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout


def test_determinism_across_threads(workdir):
    base = ("ust", "--graph", str(workdir / "k8.txt"), "--samples", "6",
            "--seed", "11", "--radius", "1")
    a = run_cli(*base, "--threads", "1")
    b = run_cli(*base, "--threads", "4")
    assert a.stdout == b.stdout


def test_count_trees_and_resistance(workdir):
    res = run_cli("count-trees", "--graph", str(workdir / "k8.txt"),
                  "--graphon", str(workdir / "const1.json"))
    payload = json.loads(res.stdout)
    assert payload["log_t"] == pytest.approx(6 * math.log(8), rel=1e-9)
    assert payload["graphon_rhs"] == pytest.approx(1.0)

    res = run_cli("resistance", "--graph", str(workdir / "k8.txt"), "--u", "0", "--v", "1")
    payload = json.loads(res.stdout)
    assert payload["r_eff"] == pytest.approx(2 / 8, abs=1e-12)


def test_count_trees_one_log_determinant(workdir, monkeypatch, capsys):
    calls = []
    real = electric.log_spanning_tree_count

    def counting(G):
        calls.append(G.n)
        return real(G)

    monkeypatch.setattr(electric, "log_spanning_tree_count", counting)
    code = main(["count-trees", "--graph", str(workdir / "k8.txt"),
                 "--graphon", str(workdir / "const1.json")])
    assert code == 0
    assert calls == [8]
    assert json.loads(capsys.readouterr().out)["graphon_rhs"] == pytest.approx(1.0)


def test_walk_schema(workdir):
    res = run_cli("walk", "--graph", str(workdir / "k8.txt"))
    payload = json.loads(res.stdout)
    assert set(payload) == {"phi_star", "exact", "lambda2", "gap", "mix_bound_eps"}
    assert payload["exact"] is True


def test_decompose_roundtrip(workdir):
    out = workdir / "dec.json"
    res = run_cli("decompose", "--graph", str(workdir / "k8.txt"), "--gamma", "0.5",
                  "--eta", "0.5", "--eps", "0.2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["verified"]["ok"] is True
    assert payload["labels"] == [1] * 8


def test_branching_census_csv(workdir):
    res = run_cli("branching", "--graphon", str(workdir / "const1.json"),
                  "--depth", "1", "--samples", "500", "--seed", "3")
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "code,count"
    total = sum(int(row.rsplit(",", 1)[1]) for row in lines[1:])
    assert total == 500


def test_extremal_table(workdir):
    res = run_cli("extremal", "--k-max", "4")
    payload = json.loads(res.stdout)
    assert payload["bounds"][0]["direction"] == "lower"
    for row in payload["optimizer"]:
        assert row["max"] == pytest.approx(row["closed_form"], abs=1e-8)


def test_config_file_with_flag_override(workdir):
    cfg = workdir / "run.ini"
    cfg.write_text(
        "[resistance]\n"
        f"graph = {workdir / 'k8.txt'}\n"
        "u = 0\n"
        "v = 1\n"
    )
    res = run_cli("resistance", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["v"] == 1
    res = run_cli("resistance", "--config", str(cfg), "--v", "2")
    assert json.loads(res.stdout)["v"] == 2


def test_error_exit_codes(workdir):
    # a missing required flag is a config error
    res = run_cli("freq", "--graphon", str(workdir / "const1.json"))
    assert res.returncode == 2
    err = json.loads(res.stderr)
    assert err["error"] == "ConfigParse"

    # loop in an edge list is a precondition error
    bad = workdir / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    res = run_cli("resistance", "--graph", str(bad), "--u", "0", "--v", "1")
    assert res.returncode == 3
    assert json.loads(res.stderr)["error"] == "LoopEdge"

    # exceeding the cut-norm block limit is a budget error
    disconnected = workdir / "disc.txt"
    disconnected.write_text("4 2\n0 1\n2 3\n")
    res = run_cli("count-trees", "--graph", str(disconnected))
    assert res.returncode == 3
    assert json.loads(res.stderr)["error"] == "GraphDisconnected"


def test_missing_file_is_config_error(workdir):
    res = run_cli("resistance", "--graph", str(workdir / "absent.txt"), "--u", "0", "--v", "1")
    assert res.returncode == 2


def test_budget_error_exit_code(workdir):
    # 2 blocks, 21-vertex chain pattern: 2^21 assignments exceed the cap
    two = workdir / "two.json"
    two.write_text(json.dumps({"mu": [0.5, 0.5], "W": [[1.0, 0.5], [0.5, 1.0]]}))
    chain = workdir / "chain.json"
    chain.write_text(json.dumps({"parent": [-1] + list(range(20))}))
    res = run_cli("freq", "--pattern", str(chain), "--graphon", str(two))
    assert res.returncode == 5
    assert json.loads(res.stderr)["error"] == "PatternTooLarge"


def test_cross_check_sampler_flag(workdir):
    res = run_cli("ust", "--graph", str(workdir / "k8.txt"), "--samples", "2",
                  "--seed", "5", "--sampler", "aldous-broder")
    assert res.returncode == 0, res.stderr
    rec = json.loads(res.stdout.strip().splitlines()[0])
    assert sum(rec["census"].values()) == 8


def test_freq_consumes_decomposition_file(workdir):
    dec_path = workdir / "dec.json"
    run_cli("decompose", "--graph", str(workdir / "k8.txt"), "--gamma", "0.5",
            "--eta", "0.5", "--eps", "0.2", "--out", str(dec_path))
    res = run_cli("freq", "--pattern", str(workdir / "edge.json"),
                  "--graph", str(workdir / "k8.txt"), "--decomp", str(dec_path),
                  "--alpha", "0.5", "--eps", "0.1")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["value"] == pytest.approx(math.exp(-1), abs=1e-12)


@pytest.mark.parametrize("text", ["2 1\n0 x\n", "n m\n0 1\n"])
def test_non_integer_edge_list_exit_code(workdir, capsys, text):
    bad = workdir / "bad.txt"
    bad.write_text(text)
    assert main(["resistance", "--graph", str(bad), "--u", "0", "--v", "1"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "VertexOutOfRange"


def test_negative_gen_size_exit_code(workdir, capsys):
    code = main(["gen", "--graphon", str(workdir / "const1.json"), "--n", "-3",
                 "--seed", "1", "--out", str(workdir / "neg.txt")])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "VertexOutOfRange"


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_ust_nonpositive_samples_exit_code(workdir, capsys, samples):
    code = main(["ust", "--graph", str(workdir / "k8.txt"), "--samples", samples,
                 "--seed", "1"])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterOutOfRange"


def test_ust_negative_seed_exit_code(workdir, capsys):
    code = main(["ust", "--graph", str(workdir / "k8.txt"), "--samples", "1",
                 "--seed", "-1"])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterOutOfRange"


def test_branching_negative_seed_exit_code(workdir, capsys):
    code = main(["branching", "--graphon", str(workdir / "const1.json"), "--depth", "1",
                 "--samples", "10", "--seed", "-3"])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterOutOfRange"


def _ust_config(workdir):
    cfg = workdir / "ust.ini"
    cfg.write_text(f"[ust]\ngraph = {workdir / 'k8.txt'}\nsamples = 3\nseed = 4\n")
    return cfg


def test_config_flag_wins_in_process(workdir, capsys):
    cfg = _ust_config(workdir)
    assert main(["ust", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert main(["ust", "--config", str(cfg), "--samples", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_config_flag_wins_in_equals_form(workdir, capsys):
    cfg = _ust_config(workdir)
    assert main(["ust", f"--config={cfg}", "--samples=2", "--seed=9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["sample"] for line in lines] == [0, 1]
    direct = main(["ust", "--graph", str(workdir / "k8.txt"), "--samples", "2",
                   "--seed", "9"])
    assert direct == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("line,detail", [
    ("colour = red", "unknown config key 'colour' in section [ust]"),
    ("radius = many", "bad value for 'radius': 'many'"),
    ("sampler = metropolis", "bad value for 'sampler': 'metropolis'"),
])
def test_config_bad_entries_exit_code(workdir, capsys, line, detail):
    cfg = _ust_config(workdir)
    cfg.write_text(cfg.read_text() + line + "\n")
    assert main(["ust", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ConfigParse", "detail": detail}


def test_config_duplicate_key_exit_code(workdir, capsys):
    cfg = _ust_config(workdir)
    cfg.write_text(cfg.read_text() + "samples = 5\n")
    assert main(["ust", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigParse"


def test_graphon_file_as_pattern_exit_code(workdir, capsys):
    graphon = str(workdir / "const1.json")
    assert main(["freq", "--pattern", graphon, "--graphon", graphon]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigParse"
    assert "'parent'" in err["detail"]


def test_edge_list_as_graphon_exit_code(workdir, capsys):
    graph = str(workdir / "k8.txt")
    assert main(["count-trees", "--graph", graph, "--graphon", graph]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigParse"


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"labels": [1, 1], "gamma": 0.5, "eta": 0.5}',
    '{"labels": [1, -1], "gamma": 0.5, "eta": 0.5, "eps": 0.1}',
    '{"labels": [[1, 1]], "gamma": 0.5, "eta": 0.5, "eps": 0.1}',
])
def test_malformed_decomposition_exit_code(workdir, capsys, text):
    dec = workdir / "dec.json"
    dec.write_text(text)
    code = main(["freq", "--pattern", str(workdir / "edge.json"),
                 "--graph", str(workdir / "k8.txt"), "--decomp", str(dec)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigParse"


@pytest.mark.parametrize("text", ['{"mu": 1.0, "W": [[1.0]]}', '{"mu": ["x"], "W": [[1.0]]}'])
def test_unusable_graphon_values_exit_code(workdir, capsys, text):
    graphon = workdir / "bad.json"
    graphon.write_text(text)
    assert main(["freq", "--pattern", str(workdir / "edge.json"), "--graphon", str(graphon)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigParse"


def test_zero_gen_size_exit_code(workdir, capsys):
    out = workdir / "zero.txt"
    code = main(["gen", "--graphon", str(workdir / "const1.json"), "--n", "0",
                 "--seed", "1", "--out", str(out)])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterOutOfRange"
    assert not out.exists()


@pytest.mark.parametrize("k_max", ["0", "-2"])
def test_extremal_nonpositive_k_max_exit_code(capsys, k_max):
    assert main(["extremal", "--k-max", k_max]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ParameterOutOfRange"


def test_walk_one_vertex_exit_code(tmp_path, capsys):
    one = tmp_path / "one.txt"
    one.write_text("1 0\n")
    assert main(["walk", "--graph", str(one)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidVertices"
