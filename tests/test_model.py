"""Layer geometry, the closed-form offset and the paper's pointer model."""

import dataclasses
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from actplan import (
    InvalidLayerError,
    LayerSpec,
    NetworkSpec,
    SweepBounds,
    bundled_network_path,
    lifetime_minima,
    min_offset,
    paper_offset,
    parse_network_file,
    plan_network,
    read_pointer_at,
    sweep_layer_configs,
)

from actplan.model import _axis_term, _out_size, axes
from actplan.oracle import _first_read_term
from conftest import paper_offset_reference, square

# paper_offset of every layer of every bundled file, as computed by a scan of
# every window's last block; pins the pointer model at full scale
BUNDLED_PAPER_OFFSETS = {
    "dlib_face": [415366, 5152, 2592, 88352, 7245, 7245, 321],
    "dmcnn_vd": [24987523] + [41024] * 18 + [1923],
    "dmcnn_vd_64": [250051] + [4160] * 18 + [195],
    "mobilenet_v2": [252230, 3616, 16, 1003536, 5376, 24, 376344, 8208, 24, 376344, 4032, 32],
    "single_identity": [1],
    "yolo_lite": [5326723, 16, 1643536, 32, 824352, 64, 414784, 128, 5248, 128, 53888, 125],
}


def scan_min_offset(layer):
    """``min_offset`` as a scan over every input row and column: for each
    index read along an axis, its last reading window ``j``."""

    def readers(n_in, k, s, p, n_out):
        for i in range(n_in):
            j = min(n_out - 1, (i + p) // s)
            if i < j * s - p + k:
                yield i, j

    rows = [layer.c_out * layer.x_out * j - i * layer.x_in * layer.c_in
            for i, j in readers(layer.y_in, layer.k_y, layer.s_y, layer.p_y, layer.y_out)]
    cols = [layer.c_out * j - i * layer.c_in
            for i, j in readers(layer.x_in, layer.k_x, layer.s_x, layer.p_x, layer.x_out)]
    d = max(1, max(rows) + max(cols)) if rows and cols else 1
    if layer.residual_carry_words:
        d = max(d, layer.m_out - layer.x_in * layer.y_in * layer.c_in)
    return d


def solo_plan(layer):
    """The plan of a one-layer network: its arena is the layer's overlapped
    footprint and its ping-pong size the layer's disjoint footprint."""
    return plan_network(NetworkSpec("solo", (layer,)))


class TestLayerSizes:
    """The sizes a layer derives from its fields, and the fields' validation."""

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
        assert (layer.x_out, layer.y_out) == (x_out, x_out)
        assert [n_out for *_, n_out in axes(layer)] == [x_out, x_out]

    def test_counts(self):
        layer = square(4, c_in=3, k=3, p=1, c_out=8, carry=10)
        assert layer.m_in == 4 * 4 * 3 + 10
        assert layer.m_out == 4 * 4 * 8
        assert layer.block_cycles == 3 * 3 * 3

    def test_grouped_block_cycles(self):
        layer = square(4, c_in=4, k=3, p=1, c_out=4, groups=4)
        assert layer.block_cycles == 9  # one channel per group

    def test_vars_holds_the_fields_only(self):
        # the derived sizes are computed on access, never stored: callers
        # compare and key layers by vars(layer)
        layer = square(4, c_in=3, k=3, p=1, c_out=8, carry=10)
        for name in ("x_out", "y_out", "m_in", "m_out", "block_cycles"):
            getattr(layer, name)
        assert set(vars(layer)) == {f.name for f in dataclasses.fields(LayerSpec)}

    def test_min_offset_reads_fields_only(self):
        # the benchmark calls min_offset on plain namespaces of the fields
        for layer in (square(4, c_in=3, k=3, p=1, c_out=8, carry=10),
                      square(6, c_in=2, k=3, s=2, p=2, c_out=4, groups=2)):
            assert min_offset(SimpleNamespace(**vars(layer))) == min_offset(layer)
            assert axes(SimpleNamespace(**vars(layer))) == axes(layer)

    @pytest.mark.parametrize(
        "kwargs,text",
        [
            (dict(x_in=0), "x_in must be an integer >= 1, got 0"),
            (dict(c_in=0), "c_in must be an integer >= 1, got 0"),
            (dict(s_x=0), "s_x must be an integer >= 1, got 0"),
            (dict(c_out=0), "c_out must be an integer >= 1, got 0"),
            (dict(p_x=-1), "p_x must be an integer >= 0, got -1"),
            (dict(residual_carry_words=-1), "residual_carry_words must be an integer >= 0, got -1"),
            # wider than the padded image
            (dict(k_x=7), "kernel k_x=7 exceeds padded width 6"),
            # does not divide c_in=4
            (dict(groups=3), "groups=3 must divide c_in=4 and c_out=4"),
            # does not divide c_out
            (dict(groups=4, c_out=6), "groups=4 must divide c_in=4 and c_out=6"),
            # taller than the padded image
            (dict(k_y=7), "kernel k_y=7 exceeds padded height 6"),
        ],
        ids=[f"kwargs{i}" for i in range(10)],
    )
    def test_invalid_layers_rejected(self, kwargs, text):
        base = dict(x_in=4, y_in=4, c_in=4, k_x=3, k_y=3, s_x=1, s_y=1,
                    p_x=1, p_y=1, c_out=4)
        base.update(kwargs)
        with pytest.raises(InvalidLayerError) as exc:
            LayerSpec(**base)
        assert str(exc.value) == text


# the fields in the order LayerSpec checks them, each with a valid value that
# fits a 4x4, 3x3-kernel layer with 4 -> 4 channels
CHECK_ORDER = ["x_in", "y_in", "c_in", "k_x", "k_y", "s_x", "s_y", "c_out", "groups",
               "p_x", "p_y", "residual_carry_words"]
VALID = dict(x_in=4, y_in=4, c_in=4, k_x=3, k_y=3, s_x=1, s_y=1, p_x=1, p_y=1, c_out=4,
             groups=1, residual_carry_words=0)


def layer_error(**kwargs) -> str:
    with pytest.raises(InvalidLayerError) as exc:
        LayerSpec(**{**VALID, **kwargs})
    return str(exc.value)


class TestLayerConstruction:
    """How a LayerSpec is built: its checks, their order and texts, and the
    dataclass behaviour callers rely on."""

    @pytest.mark.parametrize("name", CHECK_ORDER)
    @pytest.mark.parametrize("bad", [-1, 2.0, "4", None, True, False])
    def test_bad_field_text(self, name, bad):
        least = 0 if name in ("p_x", "p_y", "residual_carry_words") else 1
        assert layer_error(**{name: bad}) == f"{name} must be an integer >= {least}, got {bad!r}"

    def test_first_failure_follows_the_check_order(self):
        # every field bad, then each fixed in turn: the text always names the
        # first bad field left, then the x and y fits, then the group divisor
        bad = {name: -1 for name in CHECK_ORDER}
        for i, name in enumerate(CHECK_ORDER):
            least = 0 if i >= 9 else 1
            assert layer_error(**bad) == f"{name} must be an integer >= {least}, got -1"
            del bad[name]
        fits = dict(k_x=7, k_y=7, groups=3)
        assert layer_error(**fits) == "kernel k_x=7 exceeds padded width 6"
        del fits["k_x"]
        assert layer_error(**fits) == "kernel k_y=7 exceeds padded height 6"
        del fits["k_y"]
        assert layer_error(**fits) == "groups=3 must divide c_in=4 and c_out=4"
        # a type check on a later field comes before an earlier field's fit
        assert layer_error(k_x=7, p_y="1") == "p_y must be an integer >= 0, got '1'"

    def test_bools_refused_and_int_subclasses_accepted(self):
        class Words(int):
            pass

        assert layer_error(c_out=True) == "c_out must be an integer >= 1, got True"
        assert layer_error(p_x=False) == "p_x must be an integer >= 0, got False"
        layer = LayerSpec(**{**VALID, "x_in": Words(4), "residual_carry_words": Words(2)})
        assert type(layer.x_in) is Words and layer == LayerSpec(**{**VALID,
                                                                   "residual_carry_words": 2})
        assert layer.m_in == 4 * 4 * 4 + 2

    def test_positional_equals_keyword(self):
        fields = [f.name for f in dataclasses.fields(LayerSpec)]
        assert fields == ["x_in", "y_in", "c_in", "k_x", "k_y", "s_x", "s_y", "p_x", "p_y",
                          "c_out", "groups", "residual_carry_words"]
        values = dict(VALID, groups=2, residual_carry_words=5)
        assert LayerSpec(*(values[f] for f in fields)) == LayerSpec(**values)
        assert LayerSpec(4, 4, 4, 3, 3, 1, 1, 1, 1, 4) == LayerSpec(**VALID)
        assert vars(LayerSpec(**values)) == values
        assert list(vars(LayerSpec(*(values[f] for f in fields)))) == fields
        with pytest.raises(TypeError):
            LayerSpec(4, 4, 4, 3, 3, 1, 1, 1, 1)
        with pytest.raises(TypeError):
            LayerSpec(**VALID, packing=2)

    def test_frozen(self):
        layer = LayerSpec(**VALID)
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.x_in = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del layer.c_out
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.extra = 1
        assert vars(layer) == VALID

    def test_replace_validates_again(self):
        layer = LayerSpec(**VALID)
        assert dataclasses.replace(layer, c_out=8) == LayerSpec(**{**VALID, "c_out": 8})
        with pytest.raises(InvalidLayerError, match=r"^kernel k_x=9 exceeds padded width 6$"):
            dataclasses.replace(layer, k_x=9)
        with pytest.raises(InvalidLayerError, match=r"^groups must be an integer >= 1, got 0$"):
            dataclasses.replace(layer, groups=0)

    def test_equal_layers_hash_equal(self):
        a, b = LayerSpec(**VALID), LayerSpec(*VALID.values())
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b, LayerSpec(**{**VALID, "c_out": 8})}) == 2
        assert a != LayerSpec(**{**VALID, "residual_carry_words": 1})
        assert repr(a) == ("LayerSpec(x_in=4, y_in=4, c_in=4, k_x=3, k_y=3, s_x=1, s_y=1, "
                           "p_x=1, p_y=1, c_out=4, groups=1, residual_carry_words=0)")


class TestPointers:
    def test_read_pointer_clamped_under_top_padding(self):
        layer = square(4, k=3, p=1)
        assert read_pointer_at(0, layer) == 0

    def test_read_pointer_lockstep_tracks_cycles(self):
        layer = square(4)
        assert read_pointer_at(7, layer) == 7

    def test_read_pointer_same_padding_case(self):
        # during the window at (1, 1) the frontier has passed the top-left
        # corner word: only windows at column >= 1 still lie ahead
        layer = square(4, k=3, p=1)
        assert read_pointer_at(45, layer) == 1

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            read_pointer_at(-1, square(4))


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

    def test_axis_without_a_read_index(self):
        # the only window starts at -2 and covers [-2, -1): no input is read
        assert min_offset(square(1, k=1, s=3, p=2)) == 1

    def test_constant_time_in_the_image_edge(self):
        # the steady state of test_same_padding_three_by_three at 10**9 x 10**9;
        # a per-row or per-column scan would not return
        assert min_offset(square(10**9, k=3, p=1)) == 10**9 + 1

    def test_equals_oracle_at_large_stride_and_padding(self):
        # stride and padding up to 4 reach the p // s and ceil(p / s)
        # branches that the default sweep (stride and padding <= 2) does not
        bounds = SweepBounds(max_dim=7, max_kernel=5, max_stride=4, max_pad=4,
                             max_channels=2, grouped=False)
        layers = list(sweep_layer_configs(bounds))
        assert len(layers) == 17248
        for layer, raw in zip(layers, lifetime_minima(layers)):
            assert min_offset(layer) == max(1, raw), layer

    def test_axis_terms_equal_the_largest_term_over_every_read(self):
        # the one term of min_offset's concavity argument and the oracle's
        # first-read term against the literal largest a*j - b*i over every
        # in-bounds (window j, tap) read, where a window may read nothing, all
        # None when nothing along the axis is read, on every axis with
        # an edge of 1-40 or a bundled edge, k <= 11, s <= 5 and p <= k + 2:
        # that covers every bundled axis, up to 640 and the 9-tap, pad-4 one
        rng = random.Random(29)
        axes_checked = 0
        for n_in in [*range(1, 41), 64, 97, 160, 224, 320, 640]:
            for k in range(1, 12):
                for s in range(1, 6):
                    for p in range(max(0, -(-(k - n_in) // 2)), k + 3):
                        axis = (n_in, k, s, p, _out_size(n_in, k, s, p))
                        a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
                        # window j covers [lo, lo + k) with lo = j*s - p
                        largest = max((a * j - b * i
                                       for j, lo in enumerate(range(-p, axis[4] * s - p, s))
                                       for i in range(max(0, lo), min(n_in, lo + k))),
                                      default=None)
                        assert (_axis_term(axis, a, b) == _first_read_term(axis, a, b)
                                == largest), (axis, a, b)
                        axes_checked += 1
        assert axes_checked == 22145

    def test_equals_row_and_column_scan(self):
        # edges up to 300, where the oracle is too slow to compare with
        rng = random.Random(11)
        for _ in range(2000):
            k_x, k_y = rng.randint(1, 9), rng.randint(1, 9)
            s_x, s_y = rng.randint(1, 6), rng.randint(1, 6)
            p_x, p_y = rng.randint(0, 8), rng.randint(0, 8)
            x_in = rng.randint(max(1, k_x - 2 * p_x), 300)
            y_in = rng.randint(max(1, k_y - 2 * p_y), 300)
            layer = LayerSpec(x_in=x_in, y_in=y_in, c_in=rng.randint(1, 64),
                              k_x=k_x, k_y=k_y, s_x=s_x, s_y=s_y, p_x=p_x, p_y=p_y,
                              c_out=rng.randint(1, 64),
                              residual_carry_words=rng.choice([0, 0, rng.randint(1, 5000)]))
            assert min_offset(layer) == scan_min_offset(layer), layer

    def test_min_layer_memory(self):
        assert solo_plan(square(4)).arena_size == 17
        assert solo_plan(square(4, k=3, p=1)).arena_size == 21
        assert solo_plan(square(2, c_out=2)).arena_size == 8  # m_out > m_in + d: output dominates

    def test_ping_pong_pair(self):
        assert solo_plan(square(4, k=3, p=1)).pingpong_size == 32
        assert solo_plan(square(7)).pingpong_size == 2 * 49
        assert solo_plan(square(2, c_out=2)).pingpong_size == 12

    def test_carry_inflates_input_only(self):
        plain = solo_plan(square(4, k=3, p=1))
        carried = solo_plan(square(4, k=3, p=1, carry=6))
        assert carried.layer_plans[0].d == plain.layer_plans[0].d
        assert carried.arena_size == plain.arena_size + 6
        assert carried.pingpong_size == plain.pingpong_size + 6

    def test_offset_never_exceeds_output(self):
        # d <= m_out makes ping-pong an upper bound for the overlapped pair
        for layer in (square(4, k=3, p=1), square(2, c_out=2), square(2, k=1, p=1),
                      square(5, c_in=2, k=3, p=1, c_out=2)):
            assert min_offset(layer) <= layer.m_out
            plan = solo_plan(layer)
            assert plan.arena_size <= plan.pingpong_size

    def test_candidate_scan_matches_blockwise_evaluation(self):
        # evaluating the paper model at a few windows' last blocks per output
        # row must agree with evaluating it at every block start: on a few
        # hand-picked layers, the sweep domain and random asymmetric grouped
        # layers with padding up to k + 2.  Each candidate window (the row's
        # first, second and last, and both sides of the zero crossing) is the
        # only maximum on some of these layers
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
        layers += sweep_layer_configs()
        rng = random.Random(23)
        for _ in range(2000):
            k_x, k_y = rng.randint(1, 11), rng.randint(1, 11)
            p_x, p_y = rng.randint(0, k_x + 2), rng.randint(0, k_y + 2)
            c_in, c_out = rng.randint(1, 3), rng.randint(1, 3)
            layers.append(LayerSpec(
                x_in=rng.randint(max(1, k_x - 2 * p_x), 60),
                y_in=rng.randint(max(1, k_y - 2 * p_y), 60),
                c_in=c_in, k_x=k_x, k_y=k_y,
                s_x=rng.randint(1, 5), s_y=rng.randint(1, 5), p_x=p_x, p_y=p_y,
                c_out=c_out, groups=c_in if c_out % c_in == 0 else 1))
        for layer in layers:
            assert paper_offset(layer) == paper_offset_reference(layer), layer

    @pytest.mark.parametrize("name", sorted(BUNDLED_PAPER_OFFSETS))
    def test_paper_offset_on_bundled_layers(self, name):
        layers = parse_network_file(bundled_network_path(name)).layers
        got = [paper_offset(layer) for layer in layers]
        assert got == BUNDLED_PAPER_OFFSETS[name]
        assert all(type(d) is int for d in got)  # verify --format json serializes them

    def test_paper_offset_undercuts_in_one_sweep_regime(self):
        # padding above the stride is not the rule: on the default sweep
        # domain the paper's offset falls below the minimum on 144 layers,
        # all at (k, s, p) = (5, 1, 2), of that regime's 396; the other
        # padding-above-stride regimes, (1, 1, 2) to (4, 1, 2), show none
        under, regime = Counter(), Counter()
        for layer in sweep_layer_configs():
            key = (layer.k_x, layer.s_x, layer.p_x)
            regime[key] += 1
            if paper_offset(layer) < min_offset(layer):
                under[key] += 1
        assert under == {(5, 1, 2): 144}
        assert regime[5, 1, 2] == 396
        assert [key for key in regime if key[2] > key[1]] == [(k, 1, 2) for k in range(1, 6)]

    def test_side_correction_dip_is_bounded_and_safe(self):
        # when the window run-out at the right edge is nonzero, the frontier
        # takes its pullback one cycle into each row: a brief dip that can
        # only lower (never raise) the frontier
        layer = LayerSpec(x_in=5, y_in=5, c_in=1, k_x=1, k_y=1, s_x=2, s_y=2,
                          p_x=0, p_y=0, c_out=2)
        row = layer.x_out * layer.c_out * layer.block_cycles
        assert read_pointer_at(row + 1, layer) <= read_pointer_at(row, layer)

