"""Network-level planning: arena size, placements, baseline, savings."""

import random
from fractions import Fraction

import numpy as np
import pytest

from actplan import (
    ChainMismatchError,
    InvalidLayerError,
    LayerSpec,
    NetworkSpec,
    execute_network_in_arena,
    execute_network_reference,
    min_offset,
    plan_network,
    plan_with_offsets,
    random_network,
    seeded_test_vectors,
    tightest_layer,
)

from conftest import square


def lockstep_pair(edge):
    layer = square(edge)
    return NetworkSpec("pair", (layer, layer))


class TestNetworkSpec:
    def test_chain_mismatch_names_layers(self):
        l1 = square(4, c_out=8)
        l2 = square(4, c_in=4, c_out=2)
        with pytest.raises(ChainMismatchError, match=r"layers 1 -> 2"):
            NetworkSpec("bad", (l1, l2))

    def test_spatial_chain_checked(self):
        l1 = square(4, k=3)  # 4 -> 2
        l2 = square(4)
        with pytest.raises(ChainMismatchError):
            NetworkSpec("bad", (l1, l2))

    def test_needs_layers(self):
        with pytest.raises(InvalidLayerError):
            NetworkSpec("empty", ())


class TestPlan:
    def test_single_lockstep_layer(self):
        net = NetworkSpec("id", (square(5),))
        plan = plan_network(net)
        assert plan.arena_size == 26
        assert plan.layer_plans[0].input_base == 0
        assert plan.layer_plans[0].output_base == 25

    def test_two_identical_padded_layers(self):
        layer = square(4, k=3, p=1)
        plan = plan_network(NetworkSpec("two", (layer, layer)))
        assert plan.arena_size == 21
        assert plan.pingpong_size == 32

    def test_bases_descend_and_chain(self):
        net = NetworkSpec("chain", (square(4, k=3, p=1, c_out=2),
                                    square(4, c_in=2, k=3, p=1, c_out=1),
                                    square(4, k=3, p=1, c_out=3)))
        plan = plan_network(net)
        size = plan.arena_size
        for prev, lp in zip(plan.layer_plans, plan.layer_plans[1:]):
            assert lp.input_base == prev.output_base
        for lp, layer in zip(plan.layer_plans, net.layers):
            assert lp.output_base == (lp.input_base - lp.d) % size
            assert 0 <= lp.output_base < size
            assert lp.d == min_offset(layer)
            assert lp.m_min_layer == lp.m_in + lp.d
            assert max(lp.m_min_layer, lp.m_out) <= size

    def test_arena_is_max_over_layers(self):
        layers = (square(4, k=3, p=1, c_out=2), square(4, c_in=2, k=3, p=1, c_out=1))
        both = plan_network(NetworkSpec("n", layers))
        assert both.arena_size == max(plan_network(NetworkSpec("one", (l,))).arena_size
                                      for l in layers)
        # dropping the non-maximal layer cannot grow the arena
        solo = plan_network(NetworkSpec("n1", layers[:1]))
        assert solo.arena_size <= both.arena_size

    def test_degenerate_padded_layer_arena_holds_output(self):
        # every window column of this layer overlaps padding; its output has
        # more words than input + offset spans, so the arena must widen to
        # the output size for the plan to execute at all
        layer = square(2, k=1, p=1)
        assert layer.m_out > layer.m_in + min_offset(layer)
        net = NetworkSpec("degen", (layer,))
        plan = plan_network(net)
        assert plan.arena_size == layer.m_out
        x, weights = seeded_test_vectors(net, seed=5)
        got = execute_network_in_arena(net, plan, x, weights, checked=True)
        assert np.array_equal(got, execute_network_reference(net, x, weights))

    def test_tightest_layer_is_first_largest_pair(self):
        assert tightest_layer(plan_network(lockstep_pair(3))) == 0
        net = NetworkSpec("grow", (square(4, k=3, p=1, c_out=2),
                                   square(4, c_in=2, k=3, p=1, c_out=1)))
        plan = plan_network(net)
        assert plan.layer_plans[1].m_min_layer > plan.layer_plans[0].m_min_layer
        assert tightest_layer(plan) == 1

    def test_tightest_layer_sets_the_arena(self):
        # the 60 output words of layer index 3, not the larger m_in + d (57)
        # of index 2, set the arena
        plan = plan_network(random_network(random.Random(95)))
        lp = plan.layer_plans[tightest_layer(plan)]
        assert max(lp.m_min_layer, lp.m_out) == plan.arena_size
        assert lp.index == 3

    def test_plan_with_offsets_validation(self):
        net = lockstep_pair(3)
        with pytest.raises(InvalidLayerError):
            plan_with_offsets(net, [1])
        with pytest.raises(InvalidLayerError):
            plan_with_offsets(net, [1, -1])
        for size in (0, -5):
            with pytest.raises(InvalidLayerError, match="arena_size must be >= 1"):
                plan_with_offsets(net, [1, 1], arena_size=size)
        # LayerSpec's rule: a float or a bool is no integer, even one equal to one
        for offsets, size in (([1, 2.5], None), ([True, 1], None), ([1, 1.0], None),
                              ([1, 1], 70.5), ([1, 1], True)):
            with pytest.raises(InvalidLayerError, match="must be integers"):
                plan_with_offsets(net, offsets, arena_size=size)


class TestBaselineAndParams:
    def test_pingpong_is_worst_adjacent_pair(self):
        # layer activations sized 4 -> 8 -> 2: pairs are 4+8 and 8+2
        l1 = LayerSpec(x_in=2, y_in=2, c_in=1, k_x=1, k_y=1, s_x=1, s_y=1,
                       p_x=0, p_y=0, c_out=2)
        l2 = LayerSpec(x_in=2, y_in=2, c_in=2, k_x=2, k_y=2, s_x=2, s_y=2,
                       p_x=0, p_y=0, c_out=2)
        net = NetworkSpec("n", (l1, l2))
        assert plan_network(net).pingpong_size == 12

    def test_two_equal_layers(self):
        assert plan_network(lockstep_pair(4)).pingpong_size == 32

    def test_carry_counts_in_baseline(self):
        layer = square(4, k=3, p=1, carry=6)
        assert plan_network(NetworkSpec("c", (layer,))).pingpong_size == 16 + 6 + 16

    def test_parameter_words(self):
        assert plan_network(NetworkSpec("a", (square(2),))).parameter_words == 2
        big = square(8, c_in=64, k=3, p=1, c_out=64)
        assert plan_network(NetworkSpec("b", (big,))).parameter_words == 9 * 64 * 64 + 64
        dw = square(8, c_in=64, k=3, p=1, c_out=64, groups=64)
        assert plan_network(NetworkSpec("c", (dw,))).parameter_words == 9 * 64 + 64


class TestSavings:
    def test_formulas(self):
        plan = plan_network(lockstep_pair(10))
        # two equal 100-word layers: arena 101, baseline 200
        assert plan.arena_size == 101
        assert plan.pingpong_size == 200
        assert plan.savings_activations_pct == pytest.approx(49.5)
        p, a, pp = plan.parameter_words, plan.arena_size, plan.pingpong_size
        expected_total = ((p + pp) - (p + a)) / (p + pp) * 100
        assert plan.savings_total_pct == pytest.approx(expected_total)

    @pytest.mark.parametrize("edge", [2, 10, 100])
    def test_lockstep_pair_approaches_half(self, edge):
        m = edge * edge
        plan = plan_network(lockstep_pair(edge))
        assert Fraction(plan.pingpong_size - plan.arena_size, plan.pingpong_size) \
            == Fraction(m - 1, 2 * m)

    def test_savings_bounded(self):
        for net in (lockstep_pair(4),
                    NetworkSpec("d", (square(2, k=1, p=1),)),
                    NetworkSpec("s", (square(6, c_in=2, k=3, p=1, c_out=2),))):
            plan = plan_network(net)
            assert 0 <= plan.savings_activations_pct < 50

