"""Social-graph substrate: data structure, weights, I/O, generators, metrics.

The central type is :class:`~repro.graph.social_graph.SocialGraph`, an
undirected friendship graph that carries a familiarity weight ``w(u, v)``
for every ordered pair of friends, matching the model of Sec. II-A of the
paper.  Everything else in the package produces, transforms or inspects
these graphs.
"""

from repro.graph.social_graph import SocialGraph
from repro.graph.compiled import (
    CompiledGraph,
    compile_graph,
    compute_csr_digest,
    read_snapshot_meta,
)
from repro.graph.stream_compiler import StreamCompileResult, compile_edge_list
from repro.graph.weights import (
    apply_degree_normalized_weights,
    apply_explicit_weights,
    apply_random_weights,
    apply_uniform_weights,
    validate_weights,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    forest_fire_graph,
    grid_graph,
    path_graph,
    planted_partition_graph,
    power_law_configuration_graph,
    star_graph,
    watts_strogatz_graph,
)
from repro.graph.datasets import (
    DATASET_NAMES,
    DatasetSpec,
    dataset_spec,
    load_dataset,
)
from repro.graph.io import (
    read_edge_list,
    read_snap_graph,
    write_edge_list,
    graph_to_dict,
    graph_from_dict,
)
from repro.graph.metrics import GraphStats, compute_stats, degree_histogram
from repro.graph.traversal import (
    bfs_distances,
    biconnected_components,
    block_cut_tree,
    connected_component,
    connected_components,
    shortest_path,
    vertex_disjoint_shortest_paths,
)

__all__ = [
    "SocialGraph",
    "CompiledGraph",
    "compile_graph",
    "compute_csr_digest",
    "read_snapshot_meta",
    "compile_edge_list",
    "StreamCompileResult",
    "apply_degree_normalized_weights",
    "apply_uniform_weights",
    "apply_random_weights",
    "apply_explicit_weights",
    "validate_weights",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "power_law_configuration_graph",
    "forest_fire_graph",
    "planted_partition_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "grid_graph",
    "DATASET_NAMES",
    "DatasetSpec",
    "dataset_spec",
    "load_dataset",
    "read_edge_list",
    "read_snap_graph",
    "write_edge_list",
    "graph_to_dict",
    "graph_from_dict",
    "GraphStats",
    "compute_stats",
    "degree_histogram",
    "bfs_distances",
    "shortest_path",
    "vertex_disjoint_shortest_paths",
    "connected_component",
    "connected_components",
    "biconnected_components",
    "block_cut_tree",
]
