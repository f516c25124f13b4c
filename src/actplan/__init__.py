"""actplan: arena planning for layer-wise CNN inference with overlapping buffers.

Compute the smallest on-chip activation buffer that can host every
input/output pair of a convolution chain by letting consecutive layers'
regions overlap, verify the closed-form result against a brute-force
lifetime oracle, and prove plans by bit-exact execution inside a single
flat arena.
"""

from importlib import import_module

from .errors import (
    ActplanError,
    ChainMismatchError,
    ClobberError,
    DimensionMismatchError,
    InvalidLayerError,
    NetworkFileError,
    SizeLimitError,
)
from .model import LayerSpec, min_offset
from .netfile import bundled_network_path, parse_network_file, parse_network_text
from .planner import (
    LayerPlan,
    MemoryPlan,
    NetworkSpec,
    packed_layers,
    plan_network,
    plan_with_offsets,
    tightest_layer,
)
from .pointer import paper_offset, read_pointer_at
from .report import plan_to_json, render_memory_map, render_plan_text

# Where each name of the modules that compute with numpy, the oracle and the
# sweeps, lives.  They are imported on first use, so that ``import actplan``
# and planning do not load numpy.
_LAZY = {
    "OracleReport": "oracle", "lifetime_minima": "oracle", "verify_layer": "oracle",
    "execute_network_reference": "oracle", "execute_network_in_arena": "oracle",
    "check_plan": "oracle", "seeded_test_vectors": "oracle",
    "SweepBounds": "sweep", "SweepSummary": "sweep", "ExecSummary": "sweep",
    "sweep_layer_configs": "sweep", "run_layer_sweep": "sweep", "random_network": "sweep",
    "run_exec_sweep": "sweep",
}


def __getattr__(name):
    """Import a name of ``_LAZY`` from its module on first use and keep it here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return globals()[name]


__version__ = "0.1.0"

__all__ = [
    "ActplanError", "ChainMismatchError", "ClobberError", "DimensionMismatchError",
    "InvalidLayerError", "NetworkFileError", "SizeLimitError",
    "LayerSpec", "read_pointer_at", "paper_offset", "min_offset",
    "OracleReport", "lifetime_minima", "verify_layer",
    "execute_network_reference", "execute_network_in_arena", "check_plan",
    "seeded_test_vectors",
    "NetworkSpec", "LayerPlan", "MemoryPlan", "packed_layers", "plan_network",
    "plan_with_offsets", "tightest_layer",
    "parse_network_file", "parse_network_text", "bundled_network_path",
    "plan_to_json", "render_plan_text", "render_memory_map",
    "SweepBounds", "SweepSummary", "ExecSummary",
    "sweep_layer_configs", "run_layer_sweep", "random_network", "run_exec_sweep",
    "__version__",
]
