"""actplan: arena planning for layer-wise CNN inference with overlapping buffers.

Compute the smallest on-chip activation buffer that can host every
input/output pair of a convolution chain by letting consecutive layers'
regions overlap, verify the closed-form result against a brute-force
lifetime oracle, and prove plans by bit-exact execution inside a single
flat arena.
"""

from .errors import (
    ActplanError,
    ChainMismatchError,
    ClobberError,
    DimensionMismatchError,
    InvalidLayerError,
    NetworkFileError,
    SizeLimitError,
)
from .model import (
    LayerSpec,
    min_offset,
    paper_offset,
    read_pointer_at,
)
from .netfile import bundled_network_path, parse_network_file, parse_network_text
from .oracle import (
    OracleReport,
    execute_network_in_arena,
    execute_network_reference,
    lifetime_minima,
    seeded_test_vectors,
    verify_layer,
)
from .planner import (
    LayerPlan,
    MemoryPlan,
    NetworkSpec,
    packed_layers,
    plan_network,
    plan_with_offsets,
    tightest_layer,
)
from .report import plan_to_json, render_memory_map, render_plan_text
from .sweep import (
    ExecSummary,
    SweepBounds,
    SweepSummary,
    random_network,
    run_exec_sweep,
    run_layer_sweep,
    sweep_layer_configs,
)

__version__ = "0.1.0"

__all__ = [
    "ActplanError", "ChainMismatchError", "ClobberError", "DimensionMismatchError",
    "InvalidLayerError", "NetworkFileError", "SizeLimitError",
    "LayerSpec", "read_pointer_at", "paper_offset", "min_offset",
    "OracleReport", "lifetime_minima", "verify_layer",
    "execute_network_reference", "execute_network_in_arena", "seeded_test_vectors",
    "NetworkSpec", "LayerPlan", "MemoryPlan", "packed_layers", "plan_network",
    "plan_with_offsets", "tightest_layer",
    "parse_network_file", "parse_network_text", "bundled_network_path",
    "plan_to_json", "render_plan_text", "render_memory_map",
    "SweepBounds", "SweepSummary", "ExecSummary",
    "sweep_layer_configs", "run_layer_sweep", "random_network", "run_exec_sweep",
    "__version__",
]
