"""Brute-force lifetime oracle and the two executors."""

import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from actplan import (
    ClobberError,
    DimensionMismatchError,
    LayerSpec,
    NetworkSpec,
    SizeLimitError,
    SweepBounds,
    SweepSummary,
    bundled_network_path,
    execute_network_in_arena,
    execute_network_reference,
    lifetime_minima,
    min_offset,
    paper_offset,
    parse_network_file,
    plan_network,
    plan_with_offsets,
    random_network,
    read_pointer_at,
    run_layer_sweep,
    seeded_test_vectors,
    sweep_layer_configs,
    verify_layer,
)

from actplan.oracle import _last_read_window, _refuse_over_word_cap
from conftest import exhaustive, loop_nest_exec, loop_nest_trace, square


class TestTrace:
    """The literal loop nest that the oracle tests below compare against."""

    def test_identity_scan(self):
        reads, writes = loop_nest_trace(square(2))
        assert reads == ((0, 0), (1, 1), (2, 2), (3, 3))
        assert writes == ((0, 0), (1, 1), (2, 2), (3, 3))

    def test_corner_window_skips_padded_taps(self):
        reads, _ = loop_nest_trace(square(4, k=3, p=1))
        block0 = sorted(addr for k, addr in reads if k == 0)
        assert block0 == [0, 1, 4, 5]  # 4 of 9 taps in bounds

    def test_two_blocks_per_pixel(self):
        _, writes = loop_nest_trace(square(2, c_out=2))
        assert len(writes) == 8
        assert [k for k, _ in writes] == list(range(8))

    def test_reads_stay_in_bounds(self):
        for layer in (square(4, k=3, p=1), square(3, k=3, p=1, s=2),
                      square(2, k=1, p=1), square(5, c_in=3, k=2, p=1, c_out=2)):
            m_conv = layer.x_in * layer.y_in * layer.c_in
            reads, _ = loop_nest_trace(layer)
            assert all(0 <= addr < m_conv for _, addr in reads)
            blocks = [k for k, _ in reads]
            assert blocks == sorted(blocks)

    def test_depthwise_reads_own_group_only(self):
        reads, _ = loop_nest_trace(square(2, c_in=2, c_out=2, groups=2))
        for k, addr in reads:
            assert addr % 2 == k % 2  # channel c_out reads channel c_in == c_out


class TestBruteForceOffset:
    def test_lockstep(self):
        # no write ever lands on a word still to be read; the report floors
        # the minimum at one word
        assert lifetime_minima([square(edge) for edge in (1, 3, 6)]) == [0, 0, 0]
        assert verify_layer(square(3)).d_oracle == 1

    def test_channel_doubling(self):
        # the final window's own words may be overwritten once its last tap
        # is read: minimum 3, where the paper's pointer model asks for 5
        assert lifetime_minima([square(2, c_out=2)]) == [3]

    def test_same_padding_three_by_three(self):
        assert lifetime_minima([square(4, k=3, p=1)]) == [5]

    def test_matches_exhaustive_small_search(self):
        for layer in (square(2, c_out=2), square(4, k=3, p=1), square(3, c_in=2, c_out=2),
                      square(5, k=1, s=2, c_out=3), square(2, k=1, p=1),
                      square(4, c_in=2, k=3, p=1, c_out=2, groups=2)):
            assert lifetime_minima([layer]) == [exhaustive(layer)], layer

    # a full-scale dmcnn_vd middle layer: 1.5e10 MAC cycles
    BIG = LayerSpec(x_in=640, y_in=640, c_in=64, k_x=3, k_y=3, s_x=1, s_y=1,
                    p_x=1, p_y=1, c_out=64)

    def test_size_cap(self):
        # the MAC-cycle cap is opt-in: given one, the oracle refuses as it
        # always has; by default only the per-axis read bound applies
        cap = 4_000_000_000
        text = ("layer needs 15099494400 MAC cycles, above the brute-force cap of 4000000000; "
                "use the closed-form planner for layers this large")
        with pytest.raises(SizeLimitError) as exc:
            lifetime_minima([self.BIG], cycle_cap=cap)
        assert str(exc.value) == text
        dmcnn_vd = parse_network_file(bundled_network_path("dmcnn_vd"))
        assert dmcnn_vd.layers[1] == self.BIG
        with pytest.raises(SizeLimitError) as exc:
            verify_layer(self.BIG, cycle_cap=cap)
        assert str(exc.value) == text
        assert lifetime_minima([self.BIG]) == [41_024]

    def test_full_scale_layer_in_bounded_memory(self):
        # the oracle's scratch is a few int64 per (window, tap) read along
        # each axis, not one per input word
        tracemalloc.start()
        try:
            d, = lifetime_minima([self.BIG])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == min_offset(self.BIG) == 41_024
        assert peak < 2**20

    # 1.44e8 MAC cycles and 12,000 reads along each axis
    SQUARE = LayerSpec(x_in=4000, y_in=4000, c_in=1, k_x=3, k_y=3, s_x=1, s_y=1,
                       p_x=1, p_y=1, c_out=1)

    def test_large_layer_verifies_in_bounded_memory(self):
        tracemalloc.start()
        try:
            rep = verify_layer(self.SQUARE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.verdict, rep.d_oracle) == ("match", 4001)
        assert peak < 16 * 2**20

    def test_paper_offset_in_bounded_memory(self):
        tracemalloc.start()
        try:
            d = paper_offset(self.SQUARE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == 4001
        assert peak < 16 * 2**20

    def test_paper_offset_refuses_before_allocating(self):
        # 4.9e9 windows: within the oracle's bounds, but nearly three minutes
        # of pointer-model steps
        layer = LayerSpec(x_in=70_000, y_in=70_000, c_in=1, k_x=1, k_y=1, s_x=1, s_y=1,
                          p_x=0, p_y=0, c_out=1)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="4900000000 windows, above paper_offset's "
                                                     "bound of 4000000000"):
                paper_offset(layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_int64_bound_refuses(self):
        # 2**64 input words: the oracle's row coefficient x_in * c_in = 2**62
        # would wrap its int64 products
        deep = LayerSpec(x_in=4, y_in=4, c_in=2**60, k_x=1, k_y=1, s_x=1, s_y=1,
                         p_x=0, p_y=0, c_out=1)
        with pytest.raises(SizeLimitError, match="18446744073709551616 input or output words, "
                                                 "above the int64 bound of 4611686018427387904"):
            lifetime_minima([deep])
        with pytest.raises(SizeLimitError, match="int64 bound"):
            paper_offset(deep)
        # three windows only, but the side pullback per row is about 1.5 * 2**63 words
        far = LayerSpec(x_in=1, y_in=1, c_in=1, k_x=1, k_y=1, s_x=2**31, s_y=1,
                        p_x=2**31, p_y=0, c_out=1)
        assert verify_layer(far).verdict == "match"  # the oracle is exact here
        with pytest.raises(SizeLimitError, match="pointer model reaches 13835058053134680064, "
                                                 "above its int64 bound"):
            paper_offset(far)

    # 5e7 MAC cycles, under the default cap, but 50,331,648 reads along x
    ROW = LayerSpec(x_in=2**24, y_in=1, c_in=1, k_x=3, k_y=1, s_x=1, s_y=1,
                    p_x=1, p_y=0, c_out=1)

    # exactly 2**21 reads along x: building them takes about 66 MiB
    AT_BOUND = LayerSpec(x_in=2**21, y_in=1, c_in=1, k_x=1, k_y=1, s_x=1, s_y=1,
                         p_x=0, p_y=0, c_out=1)

    def test_scratch_at_the_axis_read_bound(self):
        # both axes at exactly the bound, k=2 and padding 1 so that the
        # first and last reads of each axis fall outside the image
        edge = 2**20 - 1
        layer = LayerSpec(x_in=edge, y_in=edge, c_in=1, k_x=2, k_y=2, s_x=1, s_y=1,
                          p_x=1, p_y=1, c_out=2)
        tracemalloc.start()
        try:
            d, = lifetime_minima([layer])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == min_offset(layer)
        assert peak < 128 * 2**20

    def test_axis_read_bound_refuses_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="50331648 .* bound of 2097152"):
                verify_layer(self.ROW)
            # a batch is checked whole before any layer's reads are built
            with pytest.raises(SizeLimitError, match="50331648 .* bound of 2097152"):
                lifetime_minima([self.AT_BOUND, square(3), self.ROW])
            with pytest.raises(SizeLimitError, match="bound of 2097152"):
                _last_read_window(self.ROW)  # the in-arena executor's table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestVerify:
    def test_match_verdicts(self):
        assert verify_layer(square(4)).verdict == "match"
        assert verify_layer(square(4, k=3, p=1)).verdict == "match"
        assert verify_layer(square(5, c_in=2, k=3, p=1, c_out=2)).verdict == "match"

    def test_conservative_verdict_with_gap(self):
        rep = verify_layer(square(2, c_out=2), closed_form_offset=5)
        assert rep.verdict == "closed_form_conservative"
        assert (rep.d_closed_form, rep.d_oracle, rep.gap) == (5, 3, 2)

    def test_forced_unsafe(self):
        layer = square(4, k=3, p=1)
        rep = verify_layer(layer, closed_form_offset=verify_layer(layer).d_oracle - 1)
        assert rep.verdict == "UNSAFE"

    def test_sweep_summary_records_each_verdict(self):
        # the lifetime minimum of this layer is 3
        layer = square(2, c_out=2)
        summary = SweepSummary()
        for d in (3, 5, 4, 2, 1):
            summary.record(layer, verify_layer(layer, closed_form_offset=d))
        assert (summary.total, summary.match, summary.conservative, summary.unsafe) == (5, 1, 2, 2)
        assert summary.max_gap == 2
        assert summary.first_conservative == summary.first_unsafe == layer

    def test_layer_sweep_memory_does_not_grow_with_the_domain(self):
        # the sweep verifies a slice of the domain at a time: the whole
        # default domain of 9,218 layers at once peaks near 4 MiB
        for bounds in (SweepBounds(), SweepBounds(max_dim=8)):
            tracemalloc.start()
            try:
                summary = run_layer_sweep(bounds)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert summary.total == sum(1 for _ in sweep_layer_configs(bounds))
            assert peak < 2 * 2**20, (bounds, peak)

    def test_layer_sweep_cycle_cap_is_opt_in(self):
        bounds = SweepBounds(max_dim=3)
        assert run_layer_sweep(bounds, cycle_cap=4_000_000_000) == run_layer_sweep(bounds)
        with pytest.raises(SizeLimitError, match="above the brute-force cap of 5;"):
            run_layer_sweep(bounds, cycle_cap=5)

    def test_read_frontier_matches_future_window_needs(self):
        # at t=45 the model's frontier (1) equals the lowest address any
        # later window reads, per the trace
        layer = square(4, k=3, p=1)
        reads, _ = loop_nest_trace(layer)
        future = min(addr for k, addr in reads if k > 5)
        assert read_pointer_at(45, layer) == future == 1


def identity_weights(net):
    weights = []
    for layer in net.layers:
        w = np.zeros((layer.c_out, layer.k_y, layer.k_x, layer.c_in // layer.groups),
                     dtype=np.int64)
        cy, cx = layer.k_y // 2, layer.k_x // 2
        for c in range(layer.c_out):
            w[c, cy, cx, c % (layer.c_in // layer.groups)] = 1
        weights.append((w, np.zeros(layer.c_out, dtype=np.int64)))
    return weights


class TestExecutors:
    def test_identity_layer_passes_input_through(self):
        net = NetworkSpec("id", (square(4),))
        x = np.arange(16, dtype=np.int64).reshape(4, 4, 1)
        weights = identity_weights(net)
        ref = execute_network_reference(net, x, weights)
        assert np.array_equal(ref, x)
        got = execute_network_in_arena(net, plan_network(net), x, weights, checked=True)
        assert np.array_equal(got, x)

    def test_zero_weights_and_bias(self):
        net = NetworkSpec("z", (square(3, k=3, p=1),))
        x = np.ones((3, 3, 1), dtype=np.int64)
        w = np.zeros((1, 3, 3, 1), dtype=np.int64)
        out = execute_network_reference(net, x, [(w, np.zeros(1, dtype=np.int64))])
        assert not out.any()
        out = execute_network_reference(net, x, [(w, np.array([7]))])
        assert (out == 7).all()

    def test_seeded_replay_is_deterministic(self):
        net = NetworkSpec("n", (square(4, k=3, p=1, c_out=2), square(4, c_in=2, k=3, p=1, c_out=1)))
        x1, w1 = seeded_test_vectors(net, seed=42)
        x2, w2 = seeded_test_vectors(net, seed=42)
        assert np.array_equal(x1, x2)
        a = execute_network_reference(net, x1, w1)
        b = execute_network_reference(net, x2, w2)
        assert np.array_equal(a, b)

    def test_in_arena_matches_reference(self):
        layers = (
            square(5, k=3, p=1, c_out=2),
            square(5, c_in=2, k=3, p=1, c_out=3),
            square(5, c_in=3, k=2, s=2, c_out=2),
            square(2, c_in=2, c_out=2, groups=2),
        )
        net = NetworkSpec("chain", layers)
        plan = plan_network(net)
        x, weights = seeded_test_vectors(net, seed=3)
        ref = execute_network_reference(net, x, weights)
        got = execute_network_in_arena(net, plan, x, weights, checked=True)
        assert np.array_equal(ref, got)

    def test_plan_rotated_around_the_arena_runs_bit_exact(self):
        # every base moved r words along the arena: the input load and the
        # output unload each wrap at every possible point
        net = NetworkSpec("pair", (square(4, c_in=2, k=3, p=1, c_out=3), square(4, c_in=3)))
        plan = plan_network(net)
        x, weights = seeded_test_vectors(net, seed=1)
        ref = execute_network_reference(net, x, weights)
        size = plan.arena_size
        for r in range(size):
            rotated = replace(plan, layer_plans=tuple(
                replace(lp, input_base=(lp.input_base + r) % size,
                        output_base=(lp.output_base + r) % size) for lp in plan.layer_plans))
            assert np.array_equal(execute_network_in_arena(net, rotated, x, weights,
                                                           checked=True), ref), r

    def test_offset_below_minimum_clobbers(self):
        net = NetworkSpec("tight", (square(4, k=3, p=1),))
        plan = plan_network(net)
        x, weights = seeded_test_vectors(net, seed=0)
        bad = plan_with_offsets(net, [lifetime_minima(net.layers)[0] - 1],
                                arena_size=plan.arena_size)
        with pytest.raises(ClobberError) as exc:
            execute_network_in_arena(net, bad, x, weights, checked=True)
        assert exc.value.layer_index == 0
        assert 0 <= exc.value.address < plan.arena_size
        assert exc.value.window < exc.value.last_reader
        # unchecked execution produces a wrong result rather than raising
        got = execute_network_in_arena(net, bad, x, weights, checked=False)
        assert not np.array_equal(got, execute_network_reference(net, x, weights))

    def test_residual_carry_region_is_protected(self):
        carried = LayerSpec(x_in=4, y_in=4, c_in=1, k_x=3, k_y=3, s_x=1, s_y=1,
                            p_x=1, p_y=1, c_out=1, residual_carry_words=6)
        net = NetworkSpec("skip", (carried,))
        plan = plan_network(net)  # arena 27: 16 input + 6 carry + offset 5
        assert plan.arena_size == 27
        x, weights = seeded_test_vectors(net, seed=1)
        got = execute_network_in_arena(net, plan, x, weights, checked=True)
        assert np.array_equal(got, execute_network_reference(net, x, weights))
        # an oversized offset wraps the output region onto the carry words,
        # which stay live for the whole layer: the check must fire
        bad = plan_with_offsets(net, [12], arena_size=plan.arena_size)
        with pytest.raises(ClobberError):
            execute_network_in_arena(net, bad, x, weights, checked=True)

    def test_carry_bound_keeps_output_off_the_carry(self):
        # channel-expanding layers would otherwise write their last words
        # onto the carry, which sits right above the convolution input
        for layer in sweep_layer_configs(SweepBounds(max_dim=4)):
            net = NetworkSpec("carry", (replace(layer, residual_carry_words=3),))
            x, weights = seeded_test_vectors(net, seed=0)
            execute_network_in_arena(net, plan_network(net), x, weights, checked=True)

    def test_dimension_mismatch(self):
        net = NetworkSpec("n", (square(4),))
        plan = plan_network(net)
        good_x = np.zeros((4, 4, 1), dtype=np.int64)
        (good_w, good_b), = identity_weights(net)
        for x, weights, match in (
            (np.zeros((3, 3, 1), dtype=np.int64), [(good_w, good_b)], "input shape"),
            (good_x, [(np.zeros((2, 1, 1, 1), dtype=np.int64), good_b)], "weight shape"),
            (good_x, [(good_w, np.zeros(2, dtype=np.int64))], "bias shape"),
            (good_x, [(good_w, good_b)] * 2, "2 weight sets for 1 layers"),
        ):
            with pytest.raises(DimensionMismatchError, match=match):
                execute_network_reference(net, x, weights)
            with pytest.raises(DimensionMismatchError, match=match):
                execute_network_in_arena(net, plan, x, weights)

    def test_exec_cap(self):
        # 256x256 pixels, 9x9 taps, 1024 output channels: 5.4e9 MAC cycles
        big = LayerSpec(x_in=256, y_in=256, c_in=1, k_x=9, k_y=9, s_x=1, s_y=1,
                        p_x=4, p_y=4, c_out=1024)
        net = NetworkSpec("big", (big,))
        x = np.zeros((256, 256, 1), dtype=np.int64)
        with pytest.raises(SizeLimitError):
            execute_network_reference(net, x, identity_weights(net))
        with pytest.raises(SizeLimitError):
            execute_network_in_arena(net, plan_network(net), x, identity_weights(net))

    def test_axis_read_bound_refuses_before_any_work(self):
        # layer 2 reads 2,199,998 times along x, above the 2**21 bound: both
        # executors refuse before the arena or any layer's output exists
        first = LayerSpec(x_in=1_100_000, y_in=1, c_in=2, k_x=1, k_y=1, s_x=1, s_y=1,
                          p_x=0, p_y=0, c_out=1)
        net = NetworkSpec("probe", (first, replace(first, c_in=1, k_x=2)))
        plan = plan_network(net)
        x, weights = seeded_test_vectors(net, seed=0)
        for run in (lambda: execute_network_reference(net, x, weights),
                    lambda: execute_network_in_arena(net, plan, x, weights, checked=True)):
            tracemalloc.start()
            try:
                with pytest.raises(SizeLimitError, match="2199998 .* bound of 2097152"):
                    run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_matches_window_by_window_loop(self):
        # random chains, half of them with residual carries, each run at its
        # plan and at three sets of offsets lowered by random amounts, the
        # last inside an arena shrunk to the largest input or output: checked
        # runs clobber at the same (layer, block, address, window, last
        # reader) as the loop, and unchecked runs give the same words
        clobbers = 0
        for seed in range(60):
            rng = random.Random(seed)
            net = random_network(rng)
            if seed % 2:
                net = NetworkSpec(net.name, tuple(
                    replace(layer, residual_carry_words=rng.randint(0, 4))
                    for layer in net.layers))
            plan = plan_network(net)
            x, weights = seeded_test_vectors(net, seed=seed)
            assert np.array_equal(execute_network_reference(net, x, weights),
                                  loop_nest_exec(net, plan, x, weights))
            for trial in range(4):
                offsets = [lp.d if trial == 0 else rng.randint(0, lp.d)
                           for lp in plan.layer_plans]
                size = plan.arena_size
                if trial == 3:
                    size = max(max(lp.m_in, lp.m_out) for lp in plan.layer_plans)
                p = plan_with_offsets(net, offsets, arena_size=size)
                try:
                    loop_nest_exec(net, p, x, weights, checked=True)
                    want = None
                except ClobberError as exc:
                    want = (exc.layer_index, exc.block, exc.address, exc.window,
                            exc.last_reader)
                    clobbers += 1
                try:
                    execute_network_in_arena(net, p, x, weights, checked=True)
                    got = None
                except ClobberError as exc:
                    got = (exc.layer_index, exc.block, exc.address, exc.window,
                           exc.last_reader)
                assert got == want, (seed, offsets, size)
                assert np.array_equal(execute_network_in_arena(net, p, x, weights),
                                      loop_nest_exec(net, p, x, weights)), (seed, offsets, size)
        assert clobbers > 100

    def test_plan_for_another_network_refused(self):
        # the plan of a network's 2-layer prefix would run 2 of its 4 layers
        # and return a tensor read from the wrong region
        net = random_network(random.Random(1))
        prefix = NetworkSpec("prefix", net.layers[:2])
        x, weights = seeded_test_vectors(net, seed=0)
        with pytest.raises(DimensionMismatchError, match="another network"):
            execute_network_in_arena(net, plan_network(prefix), x, weights, checked=True)

    @pytest.mark.parametrize("layer,size,words", [
        (square(4), 15, 16),           # 16 input words
        (square(1, c_out=2), 1, 2),    # one input word, two output words
    ], ids=["input", "output"])
    def test_arena_smaller_than_input_or_output_refused(self, layer, size, words):
        # an arena below a layer's output would wrap that output onto itself
        net = NetworkSpec("n", (layer,))
        x, weights = seeded_test_vectors(net, seed=0)
        small = plan_with_offsets(net, [0], arena_size=size)
        with pytest.raises(DimensionMismatchError, match=f"layer 1: {words} input or output"):
            execute_network_in_arena(net, small, x, weights)

    # 60,000,000 input words but only 1,000 windows, far under the cycle cap
    PROBE = LayerSpec(x_in=60_000_000, y_in=1, c_in=1, k_x=1, k_y=1, s_x=60_000, s_y=1,
                      p_x=0, p_y=0, c_out=1)
    # one input and one output word, but a 60,000 x 60,000 kernel of weights
    HEAVY = LayerSpec(x_in=1, y_in=1, c_in=1, k_x=60_000, k_y=60_000, s_x=1, s_y=1,
                      p_x=30_000, p_y=30_000, c_out=1)

    def test_word_bound_refuses_before_allocating(self):
        probe = NetworkSpec("probe", (self.PROBE,))
        tiny = NetworkSpec("tiny", (square(2),))
        x, weights = seeded_test_vectors(tiny, seed=0)
        huge_arena = plan_with_offsets(tiny, [1], arena_size=2**25 + 1)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="60000000-word buffer, above the "
                                                     "execution bound of 33554432 words"):
                seeded_test_vectors(probe, seed=0)
            for run in (lambda: execute_network_reference(probe, x, weights),
                        lambda: execute_network_in_arena(probe, plan_network(probe), x,
                                                         weights),
                        lambda: seeded_test_vectors(NetworkSpec("heavy", (self.HEAVY,)), 0)):
                with pytest.raises(SizeLimitError, match="above the execution bound"):
                    run()
            with pytest.raises(SizeLimitError, match="33554433-word buffer"):
                execute_network_in_arena(tiny, huge_arena, x, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_word_bound_admits_every_bundled_network(self):
        for name in ("dlib_face", "dmcnn_vd", "dmcnn_vd_64", "mobilenet_v2",
                     "single_identity", "yolo_lite"):
            net = parse_network_file(bundled_network_path(name))
            _refuse_over_word_cap(net, plan_network(net).arena_size)


class TestFullScale:
    """Checked in-arena execution of a bundled network at its real size."""

    def test_mobilenet_v2(self):
        net = parse_network_file(bundled_network_path("mobilenet_v2"))
        plan = plan_network(net)
        x, weights = seeded_test_vectors(net, seed=0)
        got = execute_network_in_arena(net, plan, x, weights, checked=True)
        assert np.array_equal(got, execute_network_reference(net, x, weights))
        offsets = [lp.d for lp in plan.layer_plans]
        bound = [i for i, d in enumerate(offsets) if d > 1]
        assert len(bound) == 6
        for i in bound:
            lowered = list(offsets)
            lowered[i] -= 1
            bad = plan_with_offsets(net, lowered, arena_size=plan.arena_size)
            with pytest.raises(ClobberError) as exc:
                execute_network_in_arena(net, bad, x, weights, checked=True)
            assert exc.value.layer_index == i

    def test_checked_execution_in_bounded_memory(self):
        # the last-reader table is one int64 per pixel, built from one
        # last-reader vector per axis, and the arena is loaded and unloaded
        # by contiguous copies, with no index array per word
        net = NetworkSpec("square", (LayerSpec(x_in=2000, y_in=2000, c_in=1, k_x=3, k_y=3,
                                               s_x=1, s_y=1, p_x=1, p_y=1, c_out=1),))
        plan = plan_network(net)
        x, weights = seeded_test_vectors(net, seed=0)
        tracemalloc.start()
        try:
            got = execute_network_in_arena(net, plan, x, weights, checked=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, execute_network_reference(net, x, weights))
        assert peak < 2.5 * 8 * plan.arena_size
