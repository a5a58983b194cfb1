"""Experiment harness: config-driven runs with deterministic seeding.

Subcommands: gen | ust | freq | branching | decompose | count-trees |
resistance | walk | extremal.  A config file (INI key=value sections, one
section per subcommand) supplies defaults; explicit flags win.  Identical
(config, seed) pairs produce byte-identical output.  `ust` runs its samples
one after another in index order; --threads is accepted for old configs and
command lines but changes neither the output nor the speed (Wilson's walk
and the census hold the GIL, so a thread pool only added overhead).  Each
subcommand takes the options of its row in `_OPTIONS` and --config; any
other flag or config key is a config error.

Exit codes: 0 ok, 2 config, 3 precondition, 4 numeric, 5 budget.
"""
from __future__ import annotations

import argparse
import configparser
import ctypes
import json
import sys

import numpy as np

from . import branching, decompose, electric, extremal, freq, trees, ust, walk
from .errors import ConfigParse, ParameterOutOfRange, UstlocalError
from .graphon import load_graphon, sample_w_random_graph
from .multigraph import read_edge_list, write_edge_list
from .trees import RootedTree

_LIBC = ctypes.CDLL(None) if sys.platform == "linux" else None


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_pattern(path) -> RootedTree:
    with open(path, "r", encoding="ascii") as fh:
        return RootedTree.from_json(fh.read())


def _census_csv(census: dict[str, int]) -> str:
    lines = ["code,count"]
    for code in sorted(census):
        lines.append(f"{code},{census[code]}")
    return "\n".join(lines) + "\n"


# -- subcommand implementations --------------------------------------------------


def _cmd_gen(args) -> None:
    if args.n == 0:  # a negative n is the graph layer's VertexOutOfRange
        raise ParameterOutOfRange("n must be >= 1")
    g = load_graphon(args.graphon)
    G, labels = sample_w_random_graph(g, args.n, args.seed)
    write_edge_list(G, args.out)
    label_path = str(args.out) + ".labels"
    with open(label_path, "w", encoding="ascii") as fh:
        for v, blk in enumerate(labels):
            fh.write(f"{v} {int(blk)}\n")
    sys.stdout.write(
        _dump({"n": G.n, "edges": G.num_edges, "out": str(args.out), "labels": label_path}) + "\n"
    )


def _cmd_ust(args) -> None:
    if args.samples < 1:
        raise ParameterOutOfRange("samples must be >= 1")
    G = read_edge_list(args.graph)
    sampler = ust.aldous_broder_sample if args.sampler == "aldous-broder" else ust.wilson_sample

    def one(i: int) -> str:
        tree = sampler(G, _derive(args.seed, i))
        degs = trees.degree_counts(tree)
        census = trees.local_census(tree, args.radius)
        record = {
            "sample": i,
            "radius": args.radius,
            "degree_counts": {str(k): v for k, v in sorted(degs.items())},
            "census": dict(sorted(census.items())),
        }
        return _dump(record)

    lines = [one(i) for i in range(args.samples)]
    _emit("\n".join(lines) + "\n", args.out)


def _derive(seed: int, index: int) -> int:
    # replicate streams must not collide across seeds or indices
    return (int(seed) << 32) + index


def _cmd_freq(args) -> None:
    pattern = _load_pattern(args.pattern)
    if args.graphon is not None:
        g = load_graphon(args.graphon)
        report = freq.freq_graphon(pattern, g)
    elif args.graph is not None:
        G = read_edge_list(args.graph)
        if args.decomp is not None:
            with open(args.decomp, "r", encoding="ascii") as fh:
                dec = decompose.ExpanderDecomposition.from_json(fh.read())
        else:
            dec = decompose.trivial_decomposition(G)
        report = freq.freq_graph(pattern, G, dec, args.alpha, args.eps)
    else:
        raise ConfigParse("freq needs --graphon or --graph")
    payload = {
        "value": report.value,
        "stab": report.stab,
        "method": report.method,
        "tuple_count": report.tuple_count,
        "terms": {str(k): v for k, v in sorted(report.terms.items())},
    }
    _emit(_dump(payload) + "\n", args.out)


def _cmd_branching(args) -> None:
    g = load_graphon(args.graphon)
    law = branching.root_ball_distribution_mc(g, args.depth, args.samples, args.seed)
    census = {code: int(round(p * args.samples)) for code, (p, _se) in law.items()}
    _emit(_census_csv(census), args.out)


def _cmd_decompose(args) -> None:
    G = read_edge_list(args.graph)
    dec = decompose.expander_decompose(G, args.gamma, args.eta, args.eps)
    _emit(dec.to_json() + "\n", args.out)


def _cmd_count_trees(args) -> None:
    G = read_edge_list(args.graph)
    log_t = electric.log_spanning_tree_count(G)
    payload = {"log_t": log_t, "normalized": float(np.exp(log_t / G.n) / G.n)}
    if args.graphon is not None:
        payload["graphon_rhs"] = electric.graphon_tree_count_rhs(load_graphon(args.graphon))
    else:
        payload["graphon_rhs"] = None
    _emit(_dump(payload) + "\n", args.out)


def _cmd_resistance(args) -> None:
    G = read_edge_list(args.graph)
    r = electric.effective_resistance(G, args.u, args.v)
    _emit(_dump({"u": args.u, "v": args.v, "r_eff": r}) + "\n", args.out)


def _cmd_walk(args) -> None:
    G = read_edge_list(args.graph)
    profile = walk.spectral_profile(G)
    payload = {
        "phi_star": profile.cheeger,
        "exact": profile.cheeger_exact,
        "lambda2": profile.lambda2,
        "gap": profile.gap,
        "mix_bound_eps": profile.mixing_bound(args.eps_mix),
    }
    _emit(_dump(payload) + "\n", args.out)


def _cmd_extremal(args) -> None:
    k_max = args.k_max
    if k_max < 1:
        raise ParameterOutOfRange("k-max must be >= 1")
    bounds = []
    for k in range(1, k_max + 1):
        b = extremal.degree_density_bound(k)
        bounds.append({"k": b.k, "direction": b.direction, "value": b.value})
    optimizer = []
    for k in range(2, k_max + 1):
        got = extremal.optimize_lemma_max(k, tol=1e-8)
        optimizer.append({"k": k, "max": got, "closed_form": extremal.closed_form_max(k)})
    _emit(_dump({"bounds": bounds, "optimizer": optimizer}) + "\n", args.out)


_COMMANDS = {
    "gen": _cmd_gen,
    "ust": _cmd_ust,
    "freq": _cmd_freq,
    "branching": _cmd_branching,
    "decompose": _cmd_decompose,
    "count-trees": _cmd_count_trees,
    "resistance": _cmd_resistance,
    "walk": _cmd_walk,
    "extremal": _cmd_extremal,
}


# The options of each subcommand, flag -> (type, default); a tuple in place of
# the type lists the allowed strings.  Options whose default is _REQUIRED come
# first, in the order `_require` reports them.  Every subcommand also takes
# --config, which `_parse` reads.
_REQUIRED = object()
_OPTIONS = {
    "gen": {"graphon": (str, _REQUIRED), "n": (int, _REQUIRED), "seed": (int, _REQUIRED),
            "out": (str, _REQUIRED)},
    "ust": {"graph": (str, _REQUIRED), "samples": (int, _REQUIRED), "seed": (int, _REQUIRED),
            "radius": (int, 1), "sampler": (("wilson", "aldous-broder"), "wilson"),
            "threads": (int, None), "out": (str, None)},
    "freq": {"pattern": (str, _REQUIRED), "graphon": (str, None), "graph": (str, None),
             "decomp": (str, None), "alpha": (float, 0.001), "eps": (float, 0.05),
             "out": (str, None)},
    "branching": {"graphon": (str, _REQUIRED), "depth": (int, _REQUIRED),
                  "samples": (int, _REQUIRED), "seed": (int, _REQUIRED), "out": (str, None)},
    "decompose": {"graph": (str, _REQUIRED), "gamma": (float, _REQUIRED),
                  "eta": (float, _REQUIRED), "eps": (float, 0.05), "out": (str, None)},
    "count-trees": {"graph": (str, _REQUIRED), "graphon": (str, None), "out": (str, None)},
    "resistance": {"graph": (str, _REQUIRED), "u": (int, _REQUIRED), "v": (int, _REQUIRED),
                   "out": (str, None)},
    "walk": {"graph": (str, _REQUIRED), "eps-mix": (float, 0.25), "out": (str, None)},
    "extremal": {"k-max": (int, 8), "out": (str, None)},
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name."""
    parser = argparse.ArgumentParser(prog="ustlocal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _OPTIONS.items():
        # no abbreviations, so a flag outside the row (--graph) never reads as one in it (--graphon)
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", type=str, default=None)
        for flag, (kind, default) in options.items():
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(f"--{flag}", type=str if choices else kind, choices=choices,
                           default=None if default is _REQUIRED else default)
    return parser, sub.choices


def _config_defaults(path: str, command: str, sub: argparse.ArgumentParser) -> dict:
    """The [command] section of an INI file, typed by the subcommand's options."""
    config = configparser.ConfigParser()
    try:
        if not config.read(path):
            raise ConfigParse(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise ConfigParse(f"malformed config file {path}: {exc}") from exc
    if not config.has_section(command):
        return {}
    # argparse has no public accessor for a parser's options
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    defaults = {}
    for key, raw in config.items(command):
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigParse(f"unknown config key '{key}' in section [{command}]")
        try:
            value = action.type(raw) if action.type else raw
        except ValueError as exc:
            raise ConfigParse(f"bad value for '{key}': {raw!r}") from exc
        if action.choices is not None and value not in action.choices:
            raise ConfigParse(f"bad value for '{key}': {raw!r}")
        defaults[action.dest] = value
    return defaults


def _parse(argv) -> argparse.Namespace:
    """Parse argv; a --config section becomes the subcommand's defaults, so flags win."""
    parser, subcommands = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    sub = subcommands[args.command]
    sub.set_defaults(**_config_defaults(args.config, args.command, sub))
    return parser.parse_args(argv)


def _require(args) -> None:
    """ConfigParse for the first required option that neither a flag nor the config set."""
    for flag, (_kind, default) in _OPTIONS[args.command].items():
        if default is _REQUIRED and getattr(args, flag.replace("-", "_")) is None:
            raise ConfigParse(f"--{flag} is required for '{args.command}'")


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        _require(args)
        _COMMANDS[args.command](args)
    except UstlocalError as exc:
        sys.stderr.write(_dump({"error": type(exc).__name__, "detail": str(exc)}) + "\n")
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        # a file that is missing or unreadable, or input that is not ASCII text
        sys.stderr.write(_dump({"error": "ConfigParse", "detail": str(exc)}) + "\n")
        return 2
    except np.linalg.LinAlgError as exc:
        sys.stderr.write(_dump({"error": "NumericError", "detail": str(exc)}) + "\n")
        return 4
    finally:
        # glibc keeps a layout-dependent share of freed heap pages resident
        # (110 or 200 MB between commands at n = 2000): hand them back
        if hasattr(_LIBC, "malloc_trim"):
            _LIBC.malloc_trim(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
