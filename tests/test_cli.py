import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from ustlocal import cli, electric
from ustlocal.cli import main
from ustlocal.graphon import constant_graphon, save_graphon
from ustlocal.multigraph import complete_graph, write_edge_list
from ustlocal.trees import RootedTree


GOLDEN = Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("edges, params, labels", [
    # a phase-1 side holds vertex 3 with no neighbour inside it
    ("0 2\n0 6\n1 5\n1 6\n2 4\n2 6\n2 7\n3 4\n4 5\n4 6\n5 7\n", ("0.5", "0.8", "0.5"),
     [1, 2, 1, 0, 1, 2, 1, 2]),
    # a side that is split again arrives in Fiedler order, not sorted
    ("0 1\n0 3\n0 4\n0 5\n1 2\n2 5\n", ("0.7", "0.6", "0.05"), [0] * 6),
])
def test_decompose_split_sides_exit_cleanly(workdir, edges, params, labels):
    graph = workdir / "g.txt"
    graph.write_text(f"{len(labels)} {edges.count(chr(10))}\n{edges}")
    gamma, eta, eps = params
    res = run_cli("decompose", "--graph", str(graph), "--gamma", gamma, "--eta", eta, "--eps", eps)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert json.loads(res.stdout)["labels"] == labels


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


def test_pattern_above_partition_lattice_limit_exit_code(workdir, capsys):
    write_edge_list(complete_graph(30), workdir / "k30.txt")
    star = workdir / "star13.json"
    star.write_text(RootedTree([-1] + [0] * 12).to_json())
    assert main(["freq", "--pattern", str(star), "--graph", str(workdir / "k30.txt")]) == 5
    assert json.loads(capsys.readouterr().err)["error"] == "PatternTooLarge"


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


@pytest.mark.parametrize("text,error", [
    ("4000000000 2\n3000000000 3000000001\n0 1\n", "VertexOutOfRange"),
    (f"3 2\n0 1 {2**62}\n1 0 {2**62}\n", "ParameterOutOfRange"),
    (f"3 2\n0 1 {2**62}\n1 2 {2**62}\n", "ParameterOutOfRange"),
], ids=["vertex-count", "multiplicity-sum", "total-multiplicity"])
def test_int64_overflow_edge_list_exit_code(workdir, capsys, text, error):
    bad = workdir / "big.txt"
    bad.write_text(text)
    assert main(["resistance", "--graph", str(bad), "--u", "0", "--v", "1"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == error


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


def test_count_trees_empty_graph_exit_code(workdir, capsys):
    empty = workdir / "empty.txt"
    empty.write_text("0 0\n")
    code = main(["count-trees", "--graph", str(empty)])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidVertices"


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
    ("sampler = wilson", "unknown config key 'sampler' in section [ust]"),
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


@pytest.mark.parametrize("text", [
    '{"mu": 1.0, "W": [[1.0]]}',
    '{"mu": ["x"], "W": [[1.0]]}',
    # a float64 cast read true as 1 and "1" as 1, and an integer past float range escaped
    '{"mu": [true], "W": [[true]]}',
    '{"mu": [1], "W": [["1"]]}',
    '{"mu": [1%s], "W": [[1]]}' % ("0" * 400),
])
def test_unusable_graphon_values_exit_code(workdir, capsys, text):
    graphon = workdir / "bad.json"
    graphon.write_text(text)
    assert main(["freq", "--pattern", str(workdir / "edge.json"), "--graphon", str(graphon)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigParse"


@pytest.mark.parametrize("parent", ["[-1, 0.5, 0.5]", '[-1, "0", "0"]', "[-1, true]"])
def test_non_integer_pattern_parent_exit_code(workdir, capsys, parent):
    # an int() cast read the first as the cherry and exited 0 with its value
    pattern = workdir / "bad.json"
    pattern.write_text(f'{{"parent": {parent}}}')
    assert main(["freq", "--pattern", str(pattern), "--graphon", str(workdir / "const1.json")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "InvalidVertices"


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


def test_extremal_k_max_14_matches_closed_form(capsys):
    # the maximum is about 7e8 at k = 14, so the closed-form check is relative
    assert main(["extremal", "--k-max", "14"]) == 0
    rows = json.loads(capsys.readouterr().out)["optimizer"]
    assert [row["k"] for row in rows] == list(range(2, 15))
    for row in rows:
        assert row["max"] == pytest.approx(row["closed_form"], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k_max", ["140", "146", "1000"])
def test_extremal_large_k_max_exit_code(capsys, k_max):
    assert main(["extremal", "--k-max", k_max]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NumericError"


def test_walk_one_vertex_exit_code(tmp_path, capsys):
    one = tmp_path / "one.txt"
    one.write_text("1 0\n")
    assert main(["walk", "--graph", str(one)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidVertices"


# every subcommand's options, required ones first, in the order they are reported
OPTIONS = {
    "gen": ("graphon", "n", "seed", "out"),
    "ust": ("graph", "samples", "seed", "radius", "threads", "out"),
    "freq": ("pattern", "graphon", "graph", "decomp", "alpha", "eps", "out"),
    "branching": ("graphon", "depth", "samples", "seed", "out"),
    "decompose": ("graph", "gamma", "eta", "eps", "out"),
    "count-trees": ("graph", "graphon", "out"),
    "resistance": ("graph", "u", "v", "out"),
    "walk": ("graph", "eps-mix", "out"),
    "extremal": ("k-max", "out"),
}
REQUIRED = {
    "gen": ("graphon", "n", "seed", "out"),
    "ust": ("graph", "samples", "seed"),
    "freq": ("pattern",),
    "branching": ("graphon", "depth", "samples", "seed"),
    "decompose": ("graph", "gamma", "eta"),
    "count-trees": ("graph",),
    "resistance": ("graph", "u", "v"),
    "walk": ("graph",),
    "extremal": (),
}
# flags that no subcommand takes any more: `ust --sampler` chose Aldous-Broder
RETIRED = ("sampler",)
ALL_FLAGS = sorted({flag for flags in OPTIONS.values() for flag in flags} | set(RETIRED))
FOREIGN = [(command, flag) for command in OPTIONS for flag in ALL_FLAGS
           if flag not in OPTIONS[command]]
# a value of the right type for every flag, so only the flag itself can be refused
VALUE = {"n": "5", "seed": "1", "samples": "2", "radius": "1", "threads": "1", "depth": "1",
         "u": "0", "v": "1", "k-max": "3", "sampler": "wilson", "alpha": "0.5", "eps": "0.1",
         "gamma": "0.5", "eta": "0.5", "eps-mix": "0.25"}


def test_option_table_is_the_contract():
    table = {command: tuple(options) for command, options in cli._OPTIONS.items()}
    assert table == OPTIONS
    required = {command: tuple(flag for flag, (_kind, default) in options.items()
                               if default is cli._REQUIRED)
                for command, options in cli._OPTIONS.items()}
    assert required == REQUIRED
    _parser, subcommands = cli._build_parser()
    settable = sum(len([a for a in p._actions if a.dest != "help"]) for p in subcommands.values())
    assert settable == 48  # each table row plus --config


@pytest.mark.parametrize("command,flag", FOREIGN, ids=[f"{c}-{f}" for c, f in FOREIGN])
def test_foreign_flag_exit_code(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{flag}", VALUE.get(flag, "x")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", FOREIGN, ids=[f"{c}-{f}" for c, f in FOREIGN])
def test_foreign_config_key_exit_code(tmp_path, capsys, command, flag):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{command}]\n{flag} = {VALUE.get(flag, 'x')}\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigParse", "detail": f"unknown config key '{flag}' in section [{command}]"}


@pytest.mark.parametrize("command,missing", [
    (command, i) for command, names in REQUIRED.items() for i in range(len(names))])
def test_missing_required_option_message(capsys, command, missing):
    given = [arg for flag in REQUIRED[command][:missing] for arg in (f"--{flag}", VALUE.get(flag, "x"))]
    assert main([command, *given]) == 2
    flag = REQUIRED[command][missing]
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigParse", "detail": f"--{flag} is required for '{command}'"}


def test_walk_rejects_samples(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["walk", "--graph", str(workdir / "k8.txt"), "--samples", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples 3" in capsys.readouterr().err
    res = run_cli("walk", "--graph", str(workdir / "k8.txt"), "--samples", "3")
    assert res.returncode == 2
    cfg = workdir / "walk.ini"
    cfg.write_text(f"[walk]\ngraph = {workdir / 'k8.txt'}\nsamples = 3\n")
    assert main(["walk", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigParse"


def test_decompose_eps_defaults(workdir):
    res = run_cli("decompose", "--graph", str(workdir / "k8.txt"), "--gamma", "0.5",
                  "--eta", "0.5")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["eps"] == 0.05


def test_non_finite_graphon_gen_exit_code(workdir, capsys):
    # Python's json reads NaN, so a NaN block measure reaches StepGraphon
    graphon = workdir / "nan.json"
    graphon.write_text('{"mu": [NaN, 1.0], "W": [[1.0, 1.0], [1.0, 1.0]]}')
    out = workdir / "nan.txt"
    code = main(["gen", "--graphon", str(graphon), "--n", "4", "--seed", "1", "--out", str(out)])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "MeasuresDontSumToOne"
    assert not out.exists()


@pytest.mark.parametrize("label", ["1.5", '"1"', "true"])
def test_non_integer_decomposition_labels_exit_code(workdir, capsys, label):
    # a cast to int64 would read these as 1 rather than refuse them
    dec = workdir / "dec.json"
    dec.write_text(f'{{"labels": [0, {label}, 1, 1, 1, 1, 1, 1], "gamma": 0.5, "eta": 0.5, "eps": 0.1}}')
    code = main(["freq", "--pattern", str(workdir / "edge.json"),
                 "--graph", str(workdir / "k8.txt"), "--decomp", str(dec)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigParse"


@pytest.mark.parametrize("params", ['"gamma": "0.5", "eta": 0.5, "eps": 0.1',
                                    '"gamma": 0.5, "eta": true, "eps": 0.1',
                                    '"gamma": 0.5, "eta": 0.5, "eps": null'])
def test_non_number_decomposition_parameters_exit_code(workdir, capsys, params):
    # a float cast read "0.5" as 0.5 and true as 1.0, and freq ran with them
    dec = workdir / "dec.json"
    dec.write_text(f'{{"labels": [1, 1, 1, 1, 1, 1, 1, 1], {params}}}')
    code = main(["freq", "--pattern", str(workdir / "edge.json"),
                 "--graph", str(workdir / "k8.txt"), "--decomp", str(dec)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigParse"


def _scipy_modules_after(code):
    """The scipy modules loaded in a fresh interpreter after running code."""
    probe = f"import sys\n{code}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip().splitlines()[-1]


def test_import_loads_no_sparse_graph_code():
    # the benchmark's setup time is this import: scipy.linalg loads on first use only,
    # and no other part of scipy loads at all (one more module-level import is the size
    # of the whole set-up time)
    for module in ("ustlocal", "ustlocal.cli"):
        assert _scipy_modules_after(f"import {module}") == "[]", module


def test_ust_command_loads_no_scipy(tmp_path):
    # sampling reads the graph, checks connectivity, walks and takes the census
    # in numpy alone
    graph = GOLDEN / "gen.txt"
    out = tmp_path / "ust.jsonl"
    code = ("from ustlocal import cli\n"
            f"assert cli.main(['ust', '--graph', {str(graph)!r}, '--samples', '2', '--seed', '5',"
            f" '--radius', '2', '--out', {str(out)!r}]) == 0")
    assert _scipy_modules_after(code) == "[]"
    assert len(out.read_text().splitlines()) == 2


def test_non_ascii_graph_file_is_config_error(workdir):
    # graph files are read as bytes; bytes that are not ASCII still exit 2
    bad = workdir / "nbsp.txt"
    bad.write_bytes("2 1\n0 1\n".encode("utf-8"))
    res = run_cli("count-trees", "--graph", str(bad))
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == "ConfigParse"
