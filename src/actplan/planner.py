"""Whole-network planning: arena size, placements, baseline and savings.

Only two activation regions are ever live at once in layer-wise inference,
so a single circular arena sized for the worst layer pair can host the whole
network: each layer's output base sits ``d`` words below its input base
(modulo the arena), and the next layer inherits that output region as its
input.  The traditional baseline keeps the two regions disjoint, which costs
the worst-case sum of adjacent layer sizes instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ChainMismatchError, InvalidLayerError
from .model import min_offset


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered chain of layers, one datum per memory word.

    Consecutive layers must chain exactly: the output geometry of layer ``i``
    is the input geometry of layer ``i + 1``.
    """

    name: str
    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise InvalidLayerError("a network needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        for i in range(len(self.layers) - 1):
            cur, nxt = self.layers[i], self.layers[i + 1]
            for field, got, want in (
                ("x_in", nxt.x_in, cur.x_out),
                ("y_in", nxt.y_in, cur.y_out),
                ("c_in", nxt.c_in, cur.c_out),
            ):
                if got != want:
                    raise ChainMismatchError(
                        f"layers {i + 1} -> {i + 2}: {field}={got} does not match "
                        f"previous layer's output ({want})", i + 1
                    )


@dataclass(frozen=True)
class LayerPlan:
    """Placement of one layer's activations inside the arena, in words."""

    index: int
    m_in: int
    m_out: int
    d: int
    m_min_layer: int
    input_base: int
    output_base: int


@dataclass(frozen=True)
class MemoryPlan:
    """Arena plan for a whole network, with baseline and savings figures.

    ``packing`` is always 1: it stays only for the benchmark and the plan
    JSON, until ROADMAP item 1 deletes it together with their uses.
    """

    name: str
    packing: int
    arena_size: int
    layer_plans: tuple
    pingpong_size: int
    parameter_words: int
    savings_activations_pct: float
    savings_total_pct: float


def packed_layers(net: NetworkSpec) -> tuple:
    """The network's layers, unchanged: kept only for the benchmark, until
    ROADMAP item 1 deletes it together with the benchmark's calls."""
    return net.layers


def plan_network(net: NetworkSpec) -> MemoryPlan:
    """Minimal arena and per-layer placements for a network.

    The arena is the maximum over layers of the per-layer joint footprint
    ``max(m_in + d, m_out)``.  Output bases descend by each layer's offset
    modulo the arena; because the arena is at least ``m_in + d`` for every
    layer, the linear safety argument for a layer pair embeds unchanged in
    the circle.
    """
    return plan_with_offsets(net, [min_offset(layer) for layer in net.layers])


def plan_with_offsets(net: NetworkSpec, offsets, arena_size=None) -> MemoryPlan:
    """Plan with explicit per-layer offsets; :func:`plan_network` passes the
    minimal ones, validation and experiments pass others.

    Keeps the given ``arena_size`` if provided, so a deliberately corrupted
    offset can be replayed inside the original arena.
    """
    offsets = list(offsets)
    if len(offsets) != len(net.layers):
        raise InvalidLayerError(
            f"{len(offsets)} offsets for {len(net.layers)} layers"
        )
    for v in offsets if arena_size is None else [*offsets, arena_size]:
        if not isinstance(v, int) or isinstance(v, bool):  # LayerSpec's rule
            raise InvalidLayerError(f"offsets and arena_size must be integers, got {v!r}")
    if any(d < 0 for d in offsets):
        raise InvalidLayerError("offsets must be >= 0")
    if arena_size is not None and arena_size < 1:
        raise InvalidLayerError(f"arena_size must be >= 1, got {arena_size}")
    # the size properties are computed on each access: read them once
    m_ins = [layer.m_in for layer in net.layers]
    m_outs = [layer.m_out for layer in net.layers]
    m_mins = [m_in + d for m_in, d in zip(m_ins, offsets)]
    # A layer can emit more words than m_in + d spans (channel expansion,
    # windows over padding); the arena must still hold its full output.
    needed = max(max(m_mins), max(m_outs))
    size = needed if arena_size is None else arena_size

    plans = []
    base = 0
    for i, (m_in, m_out, d, mm) in enumerate(zip(m_ins, m_outs, offsets, m_mins)):
        out_base = (base - d) % size
        plans.append(
            LayerPlan(
                index=i,
                m_in=m_in,
                m_out=m_out,
                d=d,
                m_min_layer=mm,
                input_base=base,
                output_base=out_base,
            )
        )
        base = out_base

    # the disjoint baseline keeps each layer's input (with residual carries)
    # and output live at once; weights and biases take one word per parameter
    pingpong = max(m_in + m_out for m_in, m_out in zip(m_ins, m_outs))
    params = sum((l.block_cycles + 1) * l.c_out for l in net.layers)
    savings_act = (pingpong - size) / pingpong * 100.0
    savings_total = ((params + pingpong) - (params + size)) / (params + pingpong) * 100.0
    return MemoryPlan(
        name=net.name,
        packing=1,
        arena_size=size,
        layer_plans=tuple(plans),
        pingpong_size=pingpong,
        parameter_words=params,
        savings_activations_pct=savings_act,
        savings_total_pct=savings_total,
    )


def tightest_layer(plan: MemoryPlan) -> int:
    """Index of the first layer whose footprint ``max(m_in + d, m_out)`` is
    largest.

    In a plan from :func:`plan_network` that footprint equals the arena size,
    so this is the first layer that sets the arena.
    """
    return max(plan.layer_plans,
               key=lambda lp: (max(lp.m_min_layer, lp.m_out), -lp.index)).index
