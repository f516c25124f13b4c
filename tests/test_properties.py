"""Property-based checks of the pointer model against the oracle, and of plan replays."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actplan import (
    ClobberError,
    LayerSpec,
    NetworkSpec,
    check_plan,
    execute_network_in_arena,
    execute_network_reference,
    lifetime_minima,
    min_offset,
    paper_offset,
    plan_network,
    plan_with_offsets,
    random_network,
    read_pointer_at,
    seeded_test_vectors,
    verify_layer,
)

import random

from actplan.model import axes
from actplan.oracle import _last_read_window
from actplan.sweep import _SWEEP_SLICE
from conftest import exhaustive, last_reading_windows, loop_nest_trace, paper_offset_reference


@st.composite
def layers(draw, max_dim=6, max_channels=3):
    x_in = draw(st.integers(1, max_dim))
    y_in = draw(st.integers(1, max_dim))
    p_x = draw(st.integers(0, 2))
    p_y = draw(st.integers(0, 2))
    k_x = draw(st.integers(1, min(5, x_in + 2 * p_x)))
    k_y = draw(st.integers(1, min(5, y_in + 2 * p_y)))
    s_x = draw(st.integers(1, 2))
    s_y = draw(st.integers(1, 2))
    c_in = draw(st.integers(1, max_channels))
    c_out = draw(st.integers(1, max_channels))
    groups = 1
    if c_in > 1 and c_out % c_in == 0 and draw(st.booleans()):
        groups = c_in
    return LayerSpec(x_in=x_in, y_in=y_in, c_in=c_in, k_x=k_x, k_y=k_y,
                     s_x=s_x, s_y=s_y, p_x=p_x, p_y=p_y, c_out=c_out, groups=groups)


def _padding(draw, k, edge):
    """A padding up to ``k + 2`` that lets a ``k``-tap kernel fit the padded edge."""
    return draw(st.integers(max(0, -(-(k - edge) // 2)), k + 2))


@st.composite
def full_scale_networks(draw):
    """Chains of 1..3 layers past what the executors run in tier-1: edges to
    640 (each axis its own), kernels to 11, strides to 6, padding to the
    kernel plus 2, up to 4 channels, any common divisor as groups and some
    residual carries."""
    x, y, c = draw(st.integers(1, 640)), draw(st.integers(1, 640)), draw(st.integers(1, 4))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        k_x, k_y = draw(st.integers(1, 11)), draw(st.integers(1, 11))
        p_x, p_y = _padding(draw, k_x, x), _padding(draw, k_y, y)
        c_out = draw(st.integers(1, 4))
        groups = draw(st.sampled_from([g for g in range(1, 5) if math.gcd(c, c_out) % g == 0]))
        carry = draw(st.sampled_from([0, 0, 1, draw(st.integers(2, 5000))]))
        layers.append(LayerSpec(x, y, c, k_x, k_y, draw(st.integers(1, 6)),
                                draw(st.integers(1, 6)), p_x, p_y, c_out, groups, carry))
        x, y, c = layers[-1].x_out, layers[-1].y_out, c_out
    return NetworkSpec("full-scale", tuple(layers))


@given(full_scale_networks())
@settings(max_examples=200, deadline=None)
def test_planned_networks_replay_and_each_offset_is_tight(net):
    # the plan replays without an early write, and every offset above the
    # one-word floor, one word short in the same arena, clobbers at its layer
    plan = plan_network(net)
    check_plan(net, plan)
    offsets = [lp.d for lp in plan.layer_plans]
    for i, d in enumerate(offsets):
        if d > 1:
            lowered = plan_with_offsets(net, offsets[:i] + [d - 1] + offsets[i + 1:],
                                        plan.arena_size)
            with pytest.raises(ClobberError) as exc:
                check_plan(net, lowered)
            assert exc.value.layer_index == i


@given(layers())
@settings(max_examples=200, deadline=None)
def test_read_frontier_monotone_without_side_correction(layer):
    # with window run-out at the right edge the pullback ticks one cycle
    # after each row start, so monotonicity only holds when it is zero
    if layer.x_out * layer.s_x > layer.x_in:
        return
    span = min(layer.m_out * layer.block_cycles + 2, 400)
    values = [read_pointer_at(t, layer) for t in range(span)]
    assert values == sorted(values)


@given(layers())
@settings(max_examples=200, deadline=None)
def test_clamp_at_start(layer):
    assert read_pointer_at(0, layer) == 0


@given(layers())
@settings(max_examples=200, deadline=None)
def test_block_start_is_the_weakest_point_of_each_block(layer):
    # the write pointer is flat within a block while the frontier never
    # falls below its block-start value, so sampling block starts suffices;
    # the pullback for right-edge run-out ticks one cycle into each row and
    # breaks this within the row's first block, which is why safety rests on
    # the lifetime comparison (below) rather than on dense-cycle sampling
    if layer.x_out * layer.s_x > layer.x_in:
        return
    if layer.m_out * layer.block_cycles > 600:
        return
    for k in range(layer.m_out):
        t0 = k * layer.block_cycles
        start_gap = read_pointer_at(t0, layer) - k
        for t in range(t0, t0 + layer.block_cycles):
            # block t // block_cycles writes output word t // block_cycles
            gap = read_pointer_at(t, layer) - t // layer.block_cycles
            assert gap >= start_gap


@given(layers())
@settings(max_examples=300, deadline=None)
def test_offset_search_matches_dense_block_scan(layer):
    assert paper_offset(layer) == paper_offset_reference(layer)


@given(layers())
@settings(max_examples=300, deadline=None)
def test_closed_form_is_never_below_the_lifetime_minimum(layer):
    # the safety core: an offset below the brute-force minimum would let the
    # output region destroy data a later window still reads; the separable
    # formula is exact, so it never spends a word more either
    assert min_offset(layer) == verify_layer(layer).d_oracle


@given(st.lists(layers(), min_size=1, max_size=5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_batched_offsets_equal_exhaustive_search(distinct, rng):
    # one batch of the layers repeated and shuffled, up to two sweep slices long
    want = [exhaustive(layer) for layer in distinct]
    picks = [rng.randrange(len(distinct)) for _ in range(rng.randint(1, 2 * _SWEEP_SLICE + 1))]
    batch = [distinct[i] for i in picks]
    assert lifetime_minima(batch) == [want[i] for i in picks]


@given(layers())
@settings(max_examples=200, deadline=None)
def test_last_read_window_is_shared_by_a_pixels_channels(layer):
    # the executor looks input word a up at pixel a // c_in; that is exact
    # only if, grouped or not, every channel of a pixel has the same last
    # reading window in the literal trace; the slot after the last pixel
    # marks every word above them as never read
    lrw = _last_read_window(*axes(layer))
    assert lrw.shape == (layer.y_in * layer.x_in + 1,)
    assert lrw[-1] == -1
    m_conv = layer.y_in * layer.x_in * layer.c_in
    assert last_reading_windows(layer) == [int(lrw[a // layer.c_in]) for a in range(m_conv)]


@given(layers())
@settings(max_examples=200, deadline=None)
def test_memory_bounds(layer):
    plan = plan_network(NetworkSpec("solo", (layer,)))
    m_min = plan.arena_size
    assert layer.m_in < m_min <= plan.pingpong_size
    assert layer.m_out <= m_min


@given(st.integers(1, 9), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_lockstep_offset(edge, c):
    # pointwise layers with c_in == c_out write word a only after the window
    # that reads word a, so one word suffices; the paper's pointer model,
    # whose frontier advances in chunks of c, asks for c
    layer = LayerSpec(x_in=edge, y_in=edge, c_in=c, k_x=1, k_y=1, s_x=1, s_y=1,
                      p_x=0, p_y=0, c_out=c)
    assert min_offset(layer) == 1
    assert paper_offset(layer) == c


@given(layers())
@settings(max_examples=150, deadline=None)
def test_trace_reads_stay_inside_the_input(layer):
    if layer.m_out * layer.block_cycles > 2000:
        return
    m_conv = layer.x_in * layer.y_in * layer.c_in
    reads, writes = loop_nest_trace(layer)
    assert all(0 <= addr < m_conv for _, addr in reads)
    assert len(writes) == layer.m_out


@given(layers())
@settings(max_examples=200, deadline=None)
def test_operations_are_pure(layer):
    assert min_offset(layer) == min_offset(layer)
    assert lifetime_minima([layer]) == lifetime_minima([layer])
    assert paper_offset(layer) == paper_offset(layer)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_network_plans_execute_bit_exact(seed):
    rng = random.Random(seed)
    net = random_network(rng)
    plan = plan_network(net)
    x, weights = seeded_test_vectors(net, seed=seed)
    ref = execute_network_reference(net, x, weights)
    got = execute_network_in_arena(net, plan, x, weights, checked=True)
    assert np.array_equal(ref, got)
