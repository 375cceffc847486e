"""Cycle-level simulator of a many-core spiking network processor.

The package covers the full path from network description to per-flit mesh
traffic: building or loading a network, partitioning it under per-core memory
budgets, constructing per-core execution schedules and checking tables, and
simulating baseline single-address spike transmission against address-merged
multicast packets over a wormhole-routed 2D mesh.
"""

from .neurons import (AdexParams, IzhikevichParams, LifParams, NeuronState,
                      NumericError, rest_state, step_neuron)
from .graph import (ConvLayerSpec, SnnGraph, SpikeTrain, build_brunel,
                    build_conv_topology, load_graph,
                    quantize_weight, reference_simulate, save_binary,
                    save_text)
from .stimulus import StimulusSpec, build_stimulus
from .hilbert import hilbert_cells, hilbert_index
from .partition import (MemoryBudget, Partition, Placement, cluster_loads,
                        destination_objective, hsfc_order, initial_partition,
                        map_clusters, sss_refine)
from .schedule import build_checking_table, validate_schedule
from .artifact import (ArtifactError, CoreArtifact, DeploymentBundle,
                       build_bundle, load_bundle, save_bundle,
                       validate_placement)
from .core import (MODE_BASELINE, MODE_UNISPIKE, CoreState, CoreTiming,
                   SpikePacket)
from .noc import DeadlockError, MeshConfig, NocSim, PacketRecord, manhattan, xy_route
from .metrics import (EnergyCostTable, RedundancyProfile, RunReport,
                      TimestepRow, TrafficLedger, compare_reports,
                      emit_report, parse_report, redundancy_profile)
from .system import (ComparisonResult, RunResult, SystemConfig, deploy,
                     make_partition, run_comparison, run_experiment)
from .config import (ConfigError, ExperimentConfig, build_graph, load_config,
                     parse_config_text, render_config, to_system_config)

__version__ = "0.1.0"
