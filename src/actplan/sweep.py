"""Exhaustive and randomized verification harnesses.

The layer sweep enumerates every square layer shape inside configurable
bounds (image edge, kernel, stride, padding, channels, depthwise variants)
and checks, one fixed-size slice at a time, the closed-form offset of each
against the brute-force lifetime minimum.  The network sweep draws seeded
random layer chains, executes them bit-exactly in a planned arena against
the two-buffer reference, and probes offset tightness by lowering each
layer below its lifetime minimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ClobberError
from .model import LayerSpec, min_offset
from .oracle import (
    check_plan,
    execute_network_in_arena,
    execute_network_reference,
    lifetime_minima,
    seeded_test_vectors,
)
from .planner import NetworkSpec, plan_network, plan_with_offsets


_SWEEP_SLICE = 1024  # layers verified per oracle batch in the layer sweep


@dataclass(frozen=True)
class SweepBounds:
    """Inclusive bounds of the exhaustive layer sweep.

    Image width and height vary independently; kernel, stride and padding
    are square (the hypothesis suite covers fully asymmetric shapes).
    ``packed`` is read by nothing: it stays only for the benchmark, until
    ROADMAP item 1 deletes it together with the benchmark's calls.
    """

    max_dim: int = 6
    max_kernel: int = 5
    max_stride: int = 2
    max_pad: int = 2
    max_channels: int = 3
    grouped: bool = True
    packed: bool = True


@dataclass
class SweepSummary:
    """Aggregated verdicts of one sweep run."""

    total: int = 0
    match: int = 0
    conservative: int = 0
    unsafe: int = 0
    max_gap: int = 0
    first_unsafe: LayerSpec | None = None
    first_conservative: LayerSpec | None = None

    def record(self, layer: LayerSpec, report) -> None:
        self._count(layer, report.gap)

    def _count(self, layer: LayerSpec, gap: int) -> None:
        self.total += 1
        if gap == 0:
            self.match += 1
        elif gap > 0:
            self.conservative += 1
            self.max_gap = max(self.max_gap, gap)
            if self.first_conservative is None:
                self.first_conservative = layer
        else:
            self.unsafe += 1
            if self.first_unsafe is None:
                self.first_unsafe = layer


def sweep_layer_configs(bounds: SweepBounds = SweepBounds()):
    """Yield every layer in the sweep domain, each once.

    Kernel, stride and padding vary slowest, then width, height, input and
    output channels and groups.  A row or column axis is its edge with the
    kernel, stride and padding, so consecutive layers share their axes and
    each ``_SWEEP_SLICE``-layer slice that :func:`run_layer_sweep` hands the
    oracle holds few distinct ones: the oracle builds each distinct axis's
    reads once per slice.  Grouped variants use ``groups == c_in``
    (depthwise) where it divides ``c_out``.
    """
    dims = range(1, bounds.max_dim + 1)
    channels = range(1, bounds.max_channels + 1)
    for k in range(1, bounds.max_kernel + 1):
        for s in range(1, bounds.max_stride + 1):
            for p in range(0, bounds.max_pad + 1):
                edges = [n for n in dims if k <= n + 2 * p]  # the kernel fits the padded edge
                for x_in in edges:
                    for y_in in edges:
                        for c_in in channels:
                            for c_out in channels:
                                yield LayerSpec(x_in, y_in, c_in, k, k, s, s, p, p, c_out)
                                if bounds.grouped and c_in > 1 and c_out % c_in == 0:
                                    yield LayerSpec(x_in, y_in, c_in, k, k, s, s, p, p, c_out, c_in)


def run_layer_sweep(bounds: SweepBounds = SweepBounds(),
                    cycle_cap: int | None = None) -> SweepSummary:
    """Verify the closed form against the oracle over the whole domain, in fixed-size batches.

    Each layer's gap, the closed form less the minimum floored at one word, is
    tallied as :meth:`SweepSummary.record` tallies a report's, without building one.
    ``cycle_cap`` is as in :func:`lifetime_minima`: only the benchmark passes one."""
    summary, configs = SweepSummary(), sweep_layer_configs(bounds)
    while batch := list(islice(configs, _SWEEP_SLICE)):
        for layer, raw in zip(batch, lifetime_minima(batch, cycle_cap)):
            summary._count(layer, min_offset(layer) - max(1, raw))
    return summary


def random_network(rng: random.Random) -> NetworkSpec:
    """A seeded random chain of 3..6 sweep-domain layers.

    The first input is at most 6x6 and every layer has at most 3 channels.
    """
    n_layers = rng.randint(3, 6)
    x = rng.randint(2, 6)
    y = rng.randint(2, 6)
    c = rng.randint(1, 3)
    layers = []
    for _ in range(n_layers):
        while True:
            k = rng.randint(1, 3)
            s = rng.randint(1, 2)
            p = rng.randint(0, 1)
            if k <= x + 2 * p and k <= y + 2 * p:
                break
        c_out = rng.randint(1, 3)
        groups = 1
        if c > 1 and c_out % c == 0 and rng.random() < 0.25:
            groups = c
        layer = LayerSpec(
            x_in=x, y_in=y, c_in=c, k_x=k, k_y=k, s_x=s, s_y=s,
            p_x=p, p_y=p, c_out=c_out, groups=groups,
        )
        layers.append(layer)
        x, y, c = layer.x_out, layer.y_out, layer.c_out
    return NetworkSpec(name=f"random-{n_layers}", layers=tuple(layers))


@dataclass
class ExecSummary:
    """Results of the randomized execution sweep."""

    networks: int = 0
    bit_exact: int = 0
    oracle_plan_bit_exact: int = 0
    tight_probes: int = 0
    tight_probe_clobbers: int = 0
    mismatches: list = field(default_factory=list)


def run_exec_sweep(seed: int = 0, count: int = 100) -> ExecSummary:
    """Execute ``count`` seeded random networks in-arena vs. the reference.

    Two probes per network besides plain bit-exactness of the plan:

    * the plan's offsets must be the brute-force ones floored at one word,
      as on every carry-free layer, so the run above proves that plan too,
    * for every layer whose brute-force offset is constraint-bound (not the
      one-word floor), lowering it alone in the plan's arena below that
      offset must clobber in :func:`check_plan`; this is the minimality
      witness for the oracle itself.

    The networks are drawn first, each from its own seed; one oracle call takes
    all their layers, so each distinct axis's reads are built once a sweep.
    """
    nets = [random_network(random.Random(seed + i)) for i in range(count)]
    minima = iter(lifetime_minima([layer for net in nets for layer in net.layers]))
    summary = ExecSummary()
    for i, net in enumerate(nets):
        raws = list(islice(minima, len(net.layers)))
        plan = plan_network(net)
        x, weights = seeded_test_vectors(net, seed=seed + i)
        ref = execute_network_reference(net, x, weights)
        got = execute_network_in_arena(net, plan, x, weights, checked=True)
        summary.networks += 1
        if np.array_equal(ref, got):
            summary.bit_exact += 1
        else:
            summary.mismatches.append(net)
            continue

        if [lp.d for lp in plan.layer_plans] == [max(1, raw) for raw in raws]:
            summary.oracle_plan_bit_exact += 1

        for li, raw in enumerate(raws):
            if raw < 1:
                continue  # floor-bound: even a zero offset never collides
            summary.tight_probes += 1
            # the layers before li just ran bit-exact
            alone = NetworkSpec(net.name, (net.layers[li],))
            try:
                check_plan(alone, plan_with_offsets(alone, [raw - 1], plan.arena_size))
            except ClobberError:
                summary.tight_probe_clobbers += 1
    return summary
