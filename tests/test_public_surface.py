"""The names `ustlocal` exports, pinned as `test_option_table_is_the_contract`
pins the CLI: adding or removing a public name means editing a list here."""
import types

import ustlocal

EXPORTS = (
    "DegreeBound", "ExpanderDecomposition", "FreqReport", "GoodnessReport", "LaplacianSystem",
    "MultiGraph", "RootedTree", "SpanningTree", "StepGraphon", "WalkProfile",
    "ball", "big_parts", "closed_form_max", "complete_graph",
    "constant_graphon", "cross_edge_count", "cut_norm_step", "cycle_graph", "degree_counts",
    "degree_density_bound", "degree_profile_compare", "edge_ust_probability",
    "effective_resistance", "enumerate_rooted_trees", "expander_decompose", "freq_graph",
    "freq_graph_component", "freq_graphon", "freq_minus", "good_vertices",
    "hitting_before_return_exact", "hitting_before_return_mc", "kostochka_upper_check",
    "load_graphon", "local_census", "log_spanning_tree_count", "normalized_tree_count_vs_graphon",
    "optimize_lemma_max", "path_graph", "read_edge_list", "root_ball_distribution_mc",
    "root_degree_distribution", "sample_w_random_graph", "save_graphon", "sharpness_graph",
    "spectral_profile", "trivial_decomposition", "validate", "verify_decomposition",
    "wilson_sample", "write_edge_list",
)

MEMBERS = {
    ustlocal.MultiGraph: (
        "adjacency_lists", "adjacency_matrix", "build", "component_labels", "csr", "degrees",
        "edge_pairs", "edges", "exact_expansion", "from_arrays", "from_edge_list_text",
        "induced_subgraph", "is_connected", "is_simple", "max_multiplicity", "multiplicities",
        "multiplicity", "num_edges", "pair_count", "same_part_sums", "step_table",
        "to_edge_list_text",
    ),
    ustlocal.SpanningTree: ("adjacency", "edge_pairs", "edges", "from_parents", "rooted"),
}


def test_package_exports_are_the_contract():
    public = sorted(name for name, value in vars(ustlocal).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == sorted(EXPORTS)


def test_graph_and_tree_members_are_the_contract():
    for cls, members in MEMBERS.items():
        assert sorted(name for name in dir(cls) if not name.startswith("_")) == sorted(members)
