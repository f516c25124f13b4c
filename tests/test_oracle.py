"""Brute-force lifetime oracle and the two executors."""

import hashlib
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
    check_plan,
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
    run_exec_sweep,
    run_layer_sweep,
    seeded_test_vectors,
    sweep_layer_configs,
    verify_layer,
)

from actplan.cli import main
from actplan.model import axes
from actplan.oracle import _BATCH_WORDS, _admit, _axis_reads, _last_read_window
from actplan.sweep import _SWEEP_SLICE
from conftest import (
    exhaustive,
    last_reading_windows,
    loop_nest_exec,
    loop_nest_trace,
    paper_offset_reference,
    square,
)


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

    def test_cycle_cap_refuses_before_the_read_bound(self):
        # ROW needs 50,331,648 MAC cycles and makes as many reads along x:
        # over both a cap and the read bound it gets the cycle text; under a
        # cap it meets, the read-bound text
        cycles = ("layer needs 50331648 MAC cycles, above the brute-force cap of 1000000; "
                  "use the closed-form planner for layers this large")
        reads = ("layer has 50331648 (window, tap) reads along one axis, above the "
                 "bound of 2097152 for the oracle and in-arena execution")
        for cap, text in ((10**6, cycles), (4_000_000_000, reads)):
            for run in (lambda: lifetime_minima([self.ROW], cycle_cap=cap),
                        lambda: verify_layer(self.ROW, cycle_cap=cap)):
                with pytest.raises(SizeLimitError) as exc:
                    run()
                assert str(exc.value) == text

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

    # 4.9e9 windows, past the 4e9 bound the paper column had while it scanned
    # every window
    WIDE = LayerSpec(x_in=70_000, y_in=70_000, c_in=1, k_x=1, k_y=1, s_x=1, s_y=1,
                     p_x=0, p_y=0, c_out=1)

    def test_paper_offset_exact_past_the_old_window_bound(self):
        assert paper_offset(self.WIDE) == 1
        # the same 70,000-window rows, 2,000 of them: tracing each allocation
        # of all 70,000 rows would take seconds, and nothing is kept per row
        tracemalloc.start()
        try:
            d = paper_offset(replace(self.WIDE, y_in=2_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == 1
        assert peak < 2**20

    def test_int64_bound_refuses(self):
        # 2**64 input words: the oracle's row coefficient x_in * c_in = 2**62
        # would wrap its int64 products
        deep = LayerSpec(x_in=4, y_in=4, c_in=2**60, k_x=1, k_y=1, s_x=1, s_y=1,
                         p_x=0, p_y=0, c_out=1)
        with pytest.raises(SizeLimitError, match="18446744073709551616 input or output words, "
                                                 "above the int64 bound of 4611686018427387904"):
            lifetime_minima([deep])
        # three windows only, but the side pullback per row is about 1.5 * 2**63 words
        far = LayerSpec(x_in=1, y_in=1, c_in=1, k_x=1, k_y=1, s_x=2**31, s_y=1,
                        p_x=2**31, p_y=0, c_out=1)
        assert verify_layer(far).verdict == "match"  # the oracle is exact here
        # the paper's pointer model in Python ints is exact at both: it equals
        # the per-block scan, where it refused while it computed in int64
        assert paper_offset(deep) == paper_offset_reference(deep) == 1
        assert paper_offset(far) == paper_offset_reference(far) == 3

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
            # both executors refuse before they read a tensor or fill an arena
            net = NetworkSpec("row", (self.ROW,))
            x = np.broadcast_to(np.int64(0), (1, 2**24, 1))  # no copy
            weights = [(np.zeros((1, 1, 3, 1), np.int64), np.zeros(1, np.int64))]
            with pytest.raises(SizeLimitError, match="50331648 .* bound of 2097152"):
                execute_network_reference(net, x, weights)
            with pytest.raises(SizeLimitError, match="50331648 .* bound of 2097152"):
                execute_network_in_arena(net, plan_network(net), x, weights, checked=True)
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
        # the sweep verifies a slice of the domain at a time and peaks near
        # 1.2 MiB; the whole default domain of 9,218 layers and their reports
        # at once peaks near 7 MiB
        for bounds in (SweepBounds(), SweepBounds(max_dim=8)):
            tracemalloc.start()
            try:
                summary = run_layer_sweep(bounds)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert summary.total == sum(1 for _ in sweep_layer_configs(bounds))
            assert peak < 2 * 2**20, (bounds, peak)

    def test_layer_sweep_slices_share_their_axes(self):
        # kernel, stride and padding vary slowest, so the 1,024-layer slices
        # the oracle takes hold few distinct rows and columns: it builds 189
        # axes' reads over the default domain (154 distinct)
        layers = list(sweep_layer_configs())
        built = sum(len({axis for layer in layers[i:i + _SWEEP_SLICE] for axis in axes(layer)})
                    for i in range(0, len(layers), _SWEEP_SLICE))
        assert built <= 200, built

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


class TestSweepHarness:
    """The layer and exec sweeps: their domain, tallies and oracle calls, pinned."""

    SMALL = SweepBounds(max_dim=3, max_kernel=3, max_stride=3, max_pad=3, max_channels=2)

    @pytest.mark.parametrize("bounds, count, digest", [
        (SweepBounds(), 9218,
         "212e0f1474fc16de6b02d633e06c78bb5cc0480d303b78fbe7cc77d933977456"),
        (SweepBounds(grouped=False), 7542,
         "58291b5d436a8f2631d313b8cce6c4b6670b9a75dabc2a5b1f5005989fa57d61"),
        (SMALL, 1425, "7cb90fca37ecd5d6358616f38eab519c1adf7934543453422675182680ae9e18"),
    ], ids=["default", "ungrouped", "small"])
    def test_domain_keeps_its_layers_and_order(self, bounds, count, digest):
        # sha256 over every layer's field values, in the order yielded
        h, n = hashlib.sha256(), 0
        for layer in sweep_layer_configs(bounds):
            h.update(repr(tuple(vars(layer).values())).encode())
            n += 1
        assert (n, h.hexdigest()) == (count, digest)

    @pytest.mark.parametrize("bounds, forced", [(SweepBounds(), None), (SMALL, 1)],
                             ids=["default", "small-forced-unsafe"])
    def test_layer_sweep_tallies_as_record_does(self, monkeypatch, bounds, forced):
        # the sweep tallies gaps without building reports; a summary fed
        # one verify_layer report per layer must agree on every field
        if forced is not None:
            monkeypatch.setattr("actplan.sweep.min_offset", lambda layer: forced)
        want = SweepSummary()
        for layer in sweep_layer_configs(bounds):
            want.record(layer, verify_layer(layer, closed_form_offset=forced))
        got = run_layer_sweep(bounds)
        assert got == want
        if forced is not None:
            assert got.unsafe and got.first_unsafe is not None

    def test_exec_sweep_asks_the_oracle_once(self, monkeypatch):
        calls = []

        def wrapper(layers, *args):
            calls.append(list(layers))
            return lifetime_minima(layers, *args)

        monkeypatch.setattr("actplan.sweep.lifetime_minima", wrapper)
        run_exec_sweep(seed=3, count=40)
        drawn = [layer for i in range(40) for layer in random_network(random.Random(3 + i)).layers]
        assert calls == [drawn]

    def test_exec_sweep_runs_one_executor_per_network(self, monkeypatch):
        # the tightness probes replay their layer with check_plan: only each
        # network's own plan is executed in the arena
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return execute_network_in_arena(*args, **kwargs)

        monkeypatch.setattr("actplan.sweep.execute_network_in_arena", counting)
        summary = run_exec_sweep(seed=0, count=60)
        assert len(calls) == 60
        assert summary.tight_probe_clobbers == summary.tight_probes == 109

    @pytest.mark.parametrize("seed, counts", [
        (0, (30, 30, 30, 54, 54, 0)),
        (1, (30, 30, 30, 54, 54, 0)),
        (2, (30, 30, 30, 52, 52, 0)),
        (3, (30, 30, 30, 52, 52, 0)),
        (4, (30, 30, 30, 53, 53, 0)),
    ])
    def test_exec_sweep_counts(self, seed, counts):
        e = run_exec_sweep(seed=seed, count=30)
        assert (e.networks, e.bit_exact, e.oracle_plan_bit_exact, e.tight_probes,
                e.tight_probe_clobbers, len(e.mismatches)) == counts

    def test_exec_sweep_builds_each_axis_once(self, monkeypatch):
        # seed 0's 100 networks hold 90 distinct axes
        built = []

        def counting(axis):
            built.append(axis)
            return _axis_reads(axis)

        monkeypatch.setattr("actplan.oracle._axis_reads", counting)
        run_exec_sweep(seed=0, count=100)
        assert len(built) <= 100, len(built)
        assert len(built) == len(set(built))


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


def wide_chain(rng: random.Random) -> NetworkSpec:
    """A seeded random chain of 2..3 layers with edges 7..9 in, kernels up to
    5, strides up to 3, padding up to the kernel and some grouped layers."""
    x, y, c = rng.randint(7, 9), rng.randint(7, 9), rng.randint(1, 3)
    layers = []
    for _ in range(rng.randint(2, 3)):
        while True:
            k, s = rng.randint(1, 5), rng.randint(1, 3)
            p = rng.randint(0, k)
            if k <= min(x, y) + 2 * p:
                break
        c_out = rng.randint(1, 3)
        groups = c if c > 1 and c_out % c == 0 and rng.random() < 0.5 else 1
        layers.append(LayerSpec(x_in=x, y_in=y, c_in=c, k_x=k, k_y=k, s_x=s, s_y=s,
                                p_x=p, p_y=p, c_out=c_out, groups=groups))
        x, y, c = layers[-1].x_out, layers[-1].y_out, c_out
    return NetworkSpec(f"wide-{len(layers)}", tuple(layers))


def layer_chain(name, x_in, y_in, c_in, *layers):
    """A network from each layer's fields but its input sizes, which follow
    from the layer before."""
    built = []
    for fields in layers:
        built.append(LayerSpec(x_in=x_in, y_in=y_in, c_in=c_in, **fields))
        x_in, y_in, c_in = built[-1].x_out, built[-1].y_out, built[-1].c_out
    return NetworkSpec(name, tuple(built))


def kernel(k_x, k_y, s_x, s_y, p_x, p_y, c_out, groups=1, carry=0):
    """A layer's fields but its input sizes, for ``layer_chain``."""
    return dict(k_x=k_x, k_y=k_y, s_x=s_x, s_y=s_y, p_x=p_x, p_y=p_y, c_out=c_out,
                groups=groups, residual_carry_words=carry)


# Shapes that neither random_network (depthwise groups only, k <= 3, s <= 2,
# p <= 1) nor the layers() strategy (depthwise groups only, s <= 2) draws.
ODD_SHAPES = {
    # 1 < groups < c_in: each group reads two of the four input channels
    "grouped": layer_chain("grouped", 7, 6, 4, kernel(3, 3, 1, 1, 1, 1, 6, groups=2),
                           kernel(2, 3, 1, 1, 0, 1, 3, groups=3)),
    # stride above a kernel of 2 or more: some columns and rows are never read
    "stride-above-kernel": layer_chain("stride", 11, 10, 2, kernel(2, 3, 3, 4, 0, 1, 3),
                                       kernel(2, 2, 3, 2, 1, 0, 2)),
    # padding at or above the kernel: the edge windows read nothing
    "padding-above-kernel": layer_chain("padding", 5, 6, 2, kernel(2, 3, 1, 2, 2, 3, 3),
                                        kernel(3, 1, 2, 1, 4, 2, 2)),
    # one window along y, then along both axes, then along x (rows of
    # padding only above and below the one input pixel)
    "one-window-axes": layer_chain("one", 6, 7, 2, kernel(3, 7, 1, 1, 1, 0, 3),
                                   kernel(6, 1, 1, 1, 0, 0, 2), kernel(1, 1, 1, 1, 0, 3, 2)),
    # residual carries above the convolution input
    "residual-carries": layer_chain("carry", 6, 5, 3, kernel(3, 3, 1, 1, 1, 1, 3, carry=7),
                                    kernel(3, 2, 2, 1, 1, 0, 4, carry=3),
                                    kernel(1, 1, 1, 1, 0, 0, 2, carry=2)),
}


def batch_kinds(layer, batch_words):
    """How the batches of a run without early writes cut the output rows,
    with ``_BATCH_WORDS`` set to ``batch_words``: each batch holds
    ``batch_words // (k_y * k_x * c_in + c_out)`` windows, at least one."""
    step = max(1, batch_words // (layer.k_y * layer.k_x * layer.c_in + layer.c_out))
    windows, x_out = layer.x_out * layer.y_out, layer.x_out
    kinds = set()
    for w0 in range(0, windows, step):
        w1 = min(w0 + step, windows)
        cut = {"starts mid-row"} if w0 % x_out else set()
        cut |= {"ends mid-row"} if w1 % x_out else set()
        if -(-w0 // x_out) < w1 // x_out and w1 - w0 < windows:
            cut.add("whole rows")
        if len(cut) == 3:
            cut.add("mid-row to mid-row over whole rows")
        kinds |= cut
    return kinds


def first_clobber(run, *args, **kwargs):
    """``(layer, block, address, window, last reader)`` of the
    :class:`ClobberError` that ``run(*args, **kwargs)`` raises, or None."""
    try:
        run(*args, **kwargs)
    except ClobberError as exc:
        return exc.layer_index, exc.block, exc.address, exc.window, exc.last_reader
    return None


def runs_like_the_loop(net, rng, seed):
    """Run ``net`` at its plan and at three sets of offsets lowered by random
    amounts, the last inside an arena shrunk to the largest input or output:
    checked runs and ``check_plan`` clobber at the same (layer, block,
    address, window, last reader) as the window-by-window loop, and unchecked
    runs give the same words.  Returns how many of the four runs clobber."""
    plan = plan_network(net)
    x, weights = seeded_test_vectors(net, seed=seed)
    assert np.array_equal(execute_network_reference(net, x, weights),
                          loop_nest_exec(net, plan, x, weights))
    clobbers = 0
    for trial in range(4):
        offsets = [lp.d if trial == 0 else rng.randint(0, lp.d) for lp in plan.layer_plans]
        size = plan.arena_size
        if trial == 3:
            size = max(max(lp.m_in, lp.m_out) for lp in plan.layer_plans)
        p = plan_with_offsets(net, offsets, arena_size=size)
        want = first_clobber(loop_nest_exec, net, p, x, weights, checked=True)
        clobbers += want is not None
        assert first_clobber(execute_network_in_arena, net, p, x, weights,
                             checked=True) == want, (seed, offsets, size)
        assert first_clobber(check_plan, net, p) == want, (seed, offsets, size)
        assert np.array_equal(execute_network_in_arena(net, p, x, weights),
                              loop_nest_exec(net, p, x, weights)), (seed, offsets, size)
    return clobbers


class TestExecutors:
    def test_lowered_layer_alone_clobbers_as_in_its_network(self):
        # run_exec_sweep's tightness probes replay the lowered layer alone, in
        # the plan's arena: the whole network at the lowered offsets raises at
        # that layer with the same block, window and last reader
        probes = 0
        for seed in range(100):
            net = random_network(random.Random(seed))
            plan = plan_network(net)
            x, weights = seeded_test_vectors(net, seed=seed)
            for li, raw in enumerate(lifetime_minima(net.layers)):
                if raw < 1:
                    continue
                below = [lp.d for lp in plan.layer_plans]
                below[li] = raw - 1
                with pytest.raises(ClobberError) as whole:
                    execute_network_in_arena(net, plan_with_offsets(net, below, plan.arena_size),
                                             x, weights, checked=True)
                alone = NetworkSpec(net.name, (net.layers[li],))
                with pytest.raises(ClobberError) as single:
                    check_plan(alone, plan_with_offsets(alone, [raw - 1], plan.arena_size))
                got, want = whole.value, single.value
                assert (got.layer_index, want.layer_index) == (li, 0), (seed, li)
                assert ((got.block, got.window, got.last_reader)
                        == (want.block, want.window, want.last_reader)), (seed, li)
                probes += 1
        assert probes == 198  # the sweep's "clobber when lowered" count at seed 0

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
        # seeded_test_vectors refuses this network too: zero broadcasts, no copy
        x = np.broadcast_to(np.int64(0), (1, 1_100_000, 2))
        weights = [(np.zeros((1, 1, k, c_in), np.int64), np.zeros(1, np.int64))
                   for k, c_in in ((1, 2), (2, 1))]
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

    @pytest.mark.parametrize("chain,seeds,batch_words,min_clobbers", [
        (random_network, 60, None, 100),
        (wide_chain, 30, 48, 50),  # batches start and end mid-row and span rows
    ], ids=["random-networks", "batch-edges"])
    def test_matches_window_by_window_loop(self, monkeypatch, chain, seeds, batch_words,
                                           min_clobbers):
        # random chains, half of them with residual carries
        if batch_words:
            monkeypatch.setattr("actplan.oracle._BATCH_WORDS", batch_words)
        clobbers = 0
        for seed in range(seeds):
            rng = random.Random(seed)
            net = chain(rng)
            if seed % 2:
                net = NetworkSpec(net.name, tuple(
                    replace(layer, residual_carry_words=rng.randint(0, 4))
                    for layer in net.layers))
            clobbers += runs_like_the_loop(net, rng, seed)
        assert clobbers > min_clobbers

    def test_odd_shapes_match_window_by_window_loop(self, monkeypatch):
        # shapes the random generators never draw, at batch sizes from one
        # window to the whole layer
        kinds = set()
        for name, net in ODD_SHAPES.items():
            clobbers = 0
            for batch_words in (1, 60, 150, 400, 1000, 1 << 15):
                monkeypatch.setattr("actplan.oracle._BATCH_WORDS", batch_words)
                kinds |= {kind for layer in net.layers for kind in batch_kinds(layer, batch_words)}
                clobbers += runs_like_the_loop(net, random.Random(batch_words), batch_words)
            assert clobbers > 0, name
        assert kinds == {"starts mid-row", "ends mid-row", "whole rows",
                         "mid-row to mid-row over whole rows"}

    @pytest.mark.parametrize("name", sorted(ODD_SHAPES))
    def test_odd_shapes_last_read_window(self, name):
        for layer in ODD_SHAPES[name].layers:
            lrw = _last_read_window(*axes(layer))
            m_conv = layer.y_in * layer.x_in * layer.c_in
            assert lrw.shape == (layer.y_in * layer.x_in + 1,) and lrw[-1] == -1
            assert last_reading_windows(layer) == [int(lrw[a // layer.c_in])
                                                   for a in range(m_conv)]

    def test_plan_for_another_network_refused(self):
        # the plan of a network's 2-layer prefix would run 2 of its 4 layers
        # and return a tensor read from the wrong region
        net = random_network(random.Random(1))
        prefix = NetworkSpec("prefix", net.layers[:2])
        # the plan is refused before any tensor is looked at
        with pytest.raises(DimensionMismatchError, match="another network"):
            execute_network_in_arena(net, plan_network(prefix), None, [], checked=True)

    def test_plan_whose_bases_do_not_chain_refused(self):
        # with layer 2's two bases 7 words up, layer 1's output is not layer
        # 2's input: run anyway, a checked run finishes without a ClobberError
        # and with a wrong result, and a per-layer replay passes
        net = parse_network_file(bundled_network_path("dmcnn_vd_64"))
        plan = plan_network(net)
        size, second = plan.arena_size, plan.layer_plans[1]
        for moved, match in (
            (replace(second, input_base=(second.input_base + 7) % size,
                     output_base=(second.output_base + 7) % size),
             "layer 2: input base 16321 is not layer 1's output base 16314 modulo"),
            (replace(second, output_base=(second.output_base + 7) % size),
             "layer 2: offset 4160 is not input base 16314 less output base 12161 modulo"),
        ):
            bad = replace(plan, layer_plans=(plan.layer_plans[0], moved, *plan.layer_plans[2:]))
            for run in (lambda: execute_network_in_arena(net, bad, None, [], checked=True),
                        lambda: check_plan(net, bad)):
                with pytest.raises(DimensionMismatchError, match=match):
                    run()

    @pytest.mark.parametrize("layer,size,words", [
        (square(4), 15, 16),           # 16 input words
        (square(1, c_out=2), 1, 2),    # one input word, two output words
    ], ids=["input", "output"])
    def test_arena_smaller_than_input_or_output_refused(self, layer, size, words):
        # an arena below a layer's output would wrap that output onto itself
        net = NetworkSpec("n", (layer,))
        small = plan_with_offsets(net, [0], arena_size=size)
        with pytest.raises(DimensionMismatchError, match=f"layer 1: {words} input or output"):
            execute_network_in_arena(net, small, None, [])

    # 60,000,000 input words but only 1,000 windows, far under the cycle cap
    PROBE = LayerSpec(x_in=60_000_000, y_in=1, c_in=1, k_x=1, k_y=1, s_x=60_000, s_y=1,
                      p_x=0, p_y=0, c_out=1)
    # one input and one output word, but a 60,000 x 60,000 kernel of weights
    HEAVY = LayerSpec(x_in=1, y_in=1, c_in=1, k_x=60_000, k_y=60_000, s_x=1, s_y=1,
                      p_x=30_000, p_y=30_000, c_out=1)

    def test_word_bound_refuses_before_allocating(self, tmp_path, capsys):
        probe = NetworkSpec("probe", (self.PROBE,))
        # 16,777,216 input words, under the word bound, but 50,331,648 reads
        # along x: refused before its test vectors are drawn
        row = NetworkSpec("row", (TestBruteForceOffset.ROW,))
        row_file = tmp_path / "row.net"
        row_file.write_text("name: row\nlayers:\n  - {x_in: 16777216, y_in: 1, c_in: 1, "
                            "k_x: 3, k_y: 1, s_x: 1, s_y: 1, p_x: 1, p_y: 0, c_out: 1}\n")
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
            with pytest.raises(SizeLimitError, match="50331648 .* bound of 2097152"):
                seeded_test_vectors(row, seed=0)
            assert main(["exec", str(row_file), "--checked"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert "50331648 (window, tap) reads along one axis" in capsys.readouterr().err

    def test_word_bound_admits_every_bundled_network(self):
        for name in ("dlib_face", "dmcnn_vd", "dmcnn_vd_64", "mobilenet_v2",
                     "single_identity", "yolo_lite"):
            net = parse_network_file(bundled_network_path(name))
            _admit(net, plan=plan_network(net))


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

    @pytest.mark.parametrize("number, window, last_reader",
                             [(4, 6397, 6398), (5, 161, 162), (6, 161, 162), (7, 321, 324)])
    def test_paper_offsets_lose_dlib_face_data(self, number, window, last_reader):
        # the paper's model falls below the lifetime minimum on dlib_face
        # layers 4-7 (padding above the stride): run alone at the paper's
        # offset, each writes over an input word a later window still reads
        layer = parse_network_file(bundled_network_path("dlib_face")).layers[number - 1]
        assert paper_offset(layer) < min_offset(layer)
        net = NetworkSpec("paper", (layer,))
        plan = plan_with_offsets(net, [paper_offset(layer)])
        x, weights = seeded_test_vectors(net, seed=0)
        with pytest.raises(ClobberError) as exc:
            execute_network_in_arena(net, plan, x, weights, checked=True)
        assert (exc.value.layer_index, exc.value.window, exc.value.last_reader) == (
            0, window, last_reader)
        with pytest.raises(ClobberError) as replayed:
            check_plan(net, plan)
        assert (replayed.value.window, replayed.value.last_reader) == (window, last_reader)

    @pytest.mark.parametrize("name, caught", [
        ("dlib_face", 1), ("mobilenet_v2", 4), ("yolo_lite", 1), ("dmcnn_vd_64", 1),
        ("single_identity", None),
    ])
    def test_bundled_plans_replay(self, name, caught):
        # dmcnn_vd's plan is replayed by CI; each plan here passes, and with
        # its largest offset one word short it fails at that layer (a one-word
        # floor lowered to zero can still be safe)
        net = parse_network_file(bundled_network_path(name))
        plan = plan_network(net)
        check_plan(net, plan)
        offsets = [lp.d for lp in plan.layer_plans]
        i = offsets.index(max(offsets))
        offsets[i] -= 1
        got = first_clobber(check_plan, net, plan_with_offsets(net, offsets, plan.arena_size))
        assert (None if got is None else got[0] + 1) == caught
        assert caught is None or caught == i + 1

    def test_replay_in_bounded_memory(self):
        # past the largest layer's last-reader table, one int64 per input
        # pixel, the replay holds a few arrays of _BATCH_WORDS words: yolo_lite's
        # 6,555,510-word arena would take 50 MiB
        net = parse_network_file(bundled_network_path("yolo_lite"))
        plan = plan_network(net)
        tracemalloc.start()
        try:
            check_plan(net, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pixels = max(layer.x_in * layer.y_in for layer in net.layers)
        assert peak < 8 * (pixels + 1) + 6 * 8 * _BATCH_WORDS

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
