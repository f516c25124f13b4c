"""Closed-form pointer model: geometry, pointers, offsets, packing."""

from fractions import Fraction

import pytest

from actplan import (
    InvalidLayerError,
    LayerSpec,
    PackingError,
    apply_packing,
    derive_dims,
    min_layer_memory,
    min_offset,
    paper_offset,
    ping_pong_pair_memory,
    pointer_params,
    read_pointer_at,
    write_pointer_at,
)


def square(edge, c_in=1, k=1, s=1, p=0, c_out=1, groups=1, carry=0):
    return LayerSpec(x_in=edge, y_in=edge, c_in=c_in, k_x=k, k_y=k, s_x=s, s_y=s,
                     p_x=p, p_y=p, c_out=c_out, groups=groups, residual_carry_words=carry)


class TestDeriveDims:
    @pytest.mark.parametrize(
        "x_in,k,s,p,x_out",
        [
            (640, 3, 1, 1, 640),  # same padding keeps the width
            (4, 3, 1, 0, 2),      # valid window count
            (5, 3, 2, 1, 3),
        ],
    )
    def test_output_width(self, x_in, k, s, p, x_out):
        layer = LayerSpec(x_in=x_in, y_in=x_in, c_in=1, k_x=k, k_y=k, s_x=s, s_y=s,
                          p_x=p, p_y=p, c_out=1)
        assert derive_dims(layer).x_out == x_out

    def test_counts(self):
        layer = square(4, c_in=3, k=3, p=1, c_out=8, carry=10)
        dd = derive_dims(layer)
        assert dd.m_in == 4 * 4 * 3 + 10
        assert dd.m_out == 4 * 4 * 8
        assert dd.t_len == dd.m_out
        assert dd.block_cycles == 3 * 3 * 3

    def test_grouped_block_cycles(self):
        layer = square(4, c_in=4, k=3, p=1, c_out=4, groups=4)
        assert derive_dims(layer).block_cycles == 9  # one channel per group

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_in=0), dict(c_in=0), dict(s_x=0), dict(c_out=0),
            dict(p_x=-1), dict(residual_carry_words=-1),
            dict(k_x=7),              # wider than the padded image
            dict(groups=3),           # does not divide c_in=4
            dict(groups=4, c_out=6),  # does not divide c_out
        ],
    )
    def test_invalid_layers_rejected(self, kwargs):
        base = dict(x_in=4, y_in=4, c_in=4, k_x=3, k_y=3, s_x=1, s_y=1,
                    p_x=1, p_y=1, c_out=4)
        base.update(kwargs)
        with pytest.raises(InvalidLayerError):
            LayerSpec(**base)


class TestPointers:
    def test_write_pointer(self):
        layer = square(4, k=3, p=1)  # block_cycles = 9
        assert write_pointer_at(0, layer) == 0
        assert write_pointer_at(17, layer) == 1
        assert write_pointer_at(53, layer, p_w0=-5) == 0

    def test_write_pointer_constant_within_block(self):
        layer = square(4, k=3, p=1)
        assert len({write_pointer_at(t, layer) for t in range(9, 18)}) == 1

    def test_read_pointer_clamped_under_top_padding(self):
        layer = square(4, k=3, p=1)
        assert read_pointer_at(0, layer) == 0
        assert read_pointer_at(0, layer, p_r0=3) == 3

    def test_read_pointer_lockstep_tracks_cycles(self):
        layer = square(4)
        assert read_pointer_at(7, layer) == 7

    def test_read_pointer_same_padding_case(self):
        # during the window at (1, 1) the frontier has passed the top-left
        # corner word: only windows at column >= 1 still lie ahead
        layer = square(4, k=3, p=1)
        assert read_pointer_at(45, layer) == 1

    def test_negative_cycle_rejected(self):
        layer = square(4)
        with pytest.raises(ValueError):
            write_pointer_at(-1, layer)
        with pytest.raises(ValueError):
            read_pointer_at(-1, layer)

    def test_velocities(self):
        layer = square(4, c_in=2, k=3, p=1, c_out=4)
        params = pointer_params(layer)
        assert params.v_pw == Fraction(1, 18)
        assert 0 < params.v_pw <= 1
        assert params.v_pr >= 0
        # lockstep: both pointers advance one word per cycle
        lock = pointer_params(square(4))
        assert lock.v_pw == lock.v_pr == 1


class TestMinOffset:
    def test_lockstep_needs_one_word(self):
        for edge in (1, 2, 5, 9):
            assert min_offset(square(edge)) == 1

    def test_channel_doubling(self):
        # writes advance twice per read step; the last window's own words may
        # be overwritten once its taps are read, so the pointer model's end
        # guard costs two words
        assert min_offset(square(2, c_out=2)) == 3
        assert paper_offset(square(2, c_out=2)) == 5

    def test_same_padding_three_by_three(self):
        # steady state: one padded row plus one word
        assert min_offset(square(4, k=3, p=1)) == 5

    def test_min_layer_memory(self):
        assert min_layer_memory(square(4)) == 17
        assert min_layer_memory(square(4, k=3, p=1)) == 21
        assert min_layer_memory(square(2, c_out=2)) == 8  # m_out > m_in + d: output dominates

    def test_ping_pong_pair(self):
        assert ping_pong_pair_memory(square(4, k=3, p=1)) == 32
        assert ping_pong_pair_memory(square(7)) == 2 * 49
        assert ping_pong_pair_memory(square(2, c_out=2)) == 12

    def test_carry_inflates_input_only(self):
        plain = square(4, k=3, p=1)
        carried = square(4, k=3, p=1, carry=6)
        assert min_offset(carried) == min_offset(plain)
        assert min_layer_memory(carried) == min_layer_memory(plain) + 6
        assert ping_pong_pair_memory(carried) == ping_pong_pair_memory(plain) + 6

    def test_offset_never_exceeds_output(self):
        # d <= m_out makes ping-pong an upper bound for the overlapped pair
        for layer in (square(4, k=3, p=1), square(2, c_out=2), square(2, k=1, p=1),
                      square(5, c_in=2, k=3, p=1, c_out=2)):
            assert min_offset(layer) <= derive_dims(layer).m_out
            assert min_layer_memory(layer) <= ping_pong_pair_memory(layer)

    def test_candidate_scan_matches_blockwise_evaluation(self):
        # the paper model's per-row scan must agree with every block start
        layers = [
            square(4, k=3, p=1),
            square(2, c_out=2),
            square(5, c_in=2, k=3, p=1, c_out=2),
            square(6, c_in=3, k=2, s=2, c_out=2),
            square(5, c_in=1, k=1, s=2, c_out=3),
            square(2, k=1, p=1),
            LayerSpec(x_in=5, y_in=3, c_in=2, k_x=3, k_y=2, s_x=2, s_y=1,
                      p_x=1, p_y=0, c_out=3),
        ]
        for layer in layers:
            dd = derive_dims(layer)
            dense = max(
                k - read_pointer_at(k * dd.block_cycles, layer) for k in range(dd.t_len)
            )
            assert paper_offset(layer) == max(0, dense) + 1, layer

    def test_side_correction_dip_is_bounded_and_safe(self):
        # when the window run-out at the right edge is nonzero, the frontier
        # takes its pullback one cycle into each row: a brief dip that can
        # only lower (never raise) the frontier
        layer = LayerSpec(x_in=5, y_in=5, c_in=1, k_x=1, k_y=1, s_x=2, s_y=2,
                          p_x=0, p_y=0, c_out=2)
        row = derive_dims(layer).x_out * layer.c_out * derive_dims(layer).block_cycles
        assert read_pointer_at(row + 1, layer) <= read_pointer_at(row, layer)


class TestPacking:
    def test_identity(self):
        layer = square(4, c_in=2, c_out=2)
        assert apply_packing(layer, 1) == layer

    def test_two_per_word_reduces_to_lockstep(self):
        packed = apply_packing(square(2, c_in=2, c_out=2), 2)
        assert (packed.c_in, packed.c_out) == (1, 1)
        assert min_offset(packed) == 1

    def test_velocity_scales(self):
        layer = LayerSpec(x_in=64, y_in=64, c_in=64, k_x=3, k_y=3, s_x=1, s_y=1,
                          p_x=1, p_y=1, c_out=64)
        packed = apply_packing(layer, 4)
        assert pointer_params(packed).v_pw == Fraction(1, 16 * 9)

    def test_depthwise_packs_to_standard(self):
        layer = square(4, c_in=2, k=3, p=1, c_out=2, groups=2)
        packed = apply_packing(layer, 2)
        assert (packed.c_in, packed.c_out, packed.groups) == (1, 1, 1)

    def test_mismatch_rejected(self):
        with pytest.raises(PackingError):
            apply_packing(square(4, c_in=3, c_out=3), 2)
        with pytest.raises(PackingError):
            apply_packing(square(4, c_in=2, c_out=3), 2)
        with pytest.raises(PackingError):
            apply_packing(square(4), 0)

    def test_carry_rounds_up(self):
        layer = square(4, c_in=2, c_out=2, carry=5)
        assert apply_packing(layer, 2).residual_carry_words == 3
