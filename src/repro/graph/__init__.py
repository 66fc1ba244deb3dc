"""Graph substrate: graphs, generators, egonet features, datasets, threat model."""

from repro.graph.anomaly import inject_near_clique, inject_near_star, plant_anomalies
from repro.graph.datasets import (
    DATASET_NAMES,
    Dataset,
    dataset_statistics,
    load_dataset,
    sample_connected_subgraph,
)
from repro.graph.features import (
    egonet_features,
    egonet_features_bruteforce,
    egonet_features_tensor,
)
from repro.graph.generators import barabasi_albert, erdos_renyi, ring_lattice
from repro.graph.graph import Graph
from repro.graph.incremental import IncrementalEgonetFeatures
from repro.graph.io import (
    DATASET_FORMAT_VERSION,
    read_dataset,
    read_edge_list,
    write_dataset,
    write_edge_list,
)
from repro.graph.sparse import egonet_features_sparse, to_sparse
from repro.graph.threatmodel import Defender, Environment, ManInTheMiddleAttacker

__all__ = [
    "DATASET_FORMAT_VERSION",
    "DATASET_NAMES",
    "Dataset",
    "Defender",
    "Environment",
    "Graph",
    "IncrementalEgonetFeatures",
    "ManInTheMiddleAttacker",
    "barabasi_albert",
    "dataset_statistics",
    "egonet_features_sparse",
    "to_sparse",
    "egonet_features",
    "egonet_features_bruteforce",
    "egonet_features_tensor",
    "erdos_renyi",
    "inject_near_clique",
    "inject_near_star",
    "load_dataset",
    "plant_anomalies",
    "read_dataset",
    "read_edge_list",
    "ring_lattice",
    "sample_connected_subgraph",
    "write_dataset",
    "write_edge_list",
]
