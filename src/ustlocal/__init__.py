"""Local statistics of uniform spanning trees on dense graphs."""

from .branching import root_ball_distribution_mc, root_degree_distribution
from .decompose import (
    ExpanderDecomposition,
    GoodnessReport,
    big_parts,
    expander_decompose,
    good_vertices,
    trivial_decomposition,
    verify_decomposition,
)
from .electric import (
    LaplacianSystem,
    edge_ust_probability,
    effective_resistance,
    kostochka_upper_check,
    log_spanning_tree_count,
    normalized_tree_count_vs_graphon,
)
from .extremal import (
    DegreeBound,
    closed_form_max,
    degree_density_bound,
    optimize_lemma_max,
    sharpness_graph,
)
from .freq import FreqReport, freq_graph, freq_graph_component, freq_graphon, freq_minus
from .graphon import (
    StepGraphon,
    constant_graphon,
    cut_norm_step,
    degree_profile_compare,
    load_graphon,
    sample_w_random_graph,
    save_graphon,
    validate,
)
from .multigraph import (
    MultiGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    read_edge_list,
    write_edge_list,
)
from .trees import (
    RootedTree,
    ball,
    cross_edge_count,
    degree_counts,
    enumerate_rooted_trees,
    local_census,
)
from .ust import SpanningTree, aldous_broder_sample, wilson_sample
from .walk import (
    WalkProfile,
    hitting_before_return_exact,
    hitting_before_return_mc,
    spectral_profile,
)

__version__ = "0.1.0"
