"""Ground truth for the planner: lifetime brute force and executors.

Nothing here uses the closed form's last-window formula or the pointer model.
:func:`lifetime_minima` gives each layer's least safe offset as a maximum
over every in-bounds (window, tap) read (windows in y, x order; padded taps
read nothing); :func:`verify_layer` floors it at one word and judges a
closed-form offset against it.  Whole networks are executed bit-exactly
inside one flat arena to prove that a plan never destroys data that is still
needed.  The one fact shared with the closed form is that reads are a
product: window ``(oy, ox)`` reads pixel ``(y, x)`` exactly when it reads
row ``y`` and column ``x``, so a maximum over them is a row plus a column
maximum, from reads built once per distinct axis.

Write timing contract: all ``c_out`` output words of one window are committed
together once its final tap has been read.  Every output block of a window
re-reads the same input patch, so committing earlier could corrupt the reads
of its sibling blocks; an address is reusable exactly when its last reading
*window* has finished.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ClobberError, DimensionMismatchError, SizeLimitError
from .model import LayerSpec, min_offset

# The executors' cap on MAC cycles, m_out * block_cycles summed over the
# network's layers.
DEFAULT_CYCLE_CAP = 4_000_000_000

# Cap on the (window, tap) reads along either axis: at the cap the oracle's
# scratch peaks at 80 MiB.
_AXIS_READ_CAP = 2**21

# Cap on a layer's input and output words for the oracle: each of its int64
# terms is a difference of two products below the cap, so it stays exact.
_INT64_BOUND = 2**62

# Cap on each layer's input, output and weight words and on the arena, for
# the executors and their test vectors: 256 MiB of int64 per buffer at the cap.
_WORD_CAP = 2**25


@dataclass(frozen=True)
class OracleReport:
    """Comparison of the closed-form offset against the brute-force minimum."""

    d_oracle: int
    d_closed_form: int

    @property
    def verdict(self) -> str:
        return ("UNSAFE" if self.gap < 0 else
                "match" if self.gap == 0 else "closed_form_conservative")

    @property
    def gap(self) -> int:
        return self.d_closed_form - self.d_oracle


def _axes(layer: LayerSpec):
    """Each axis's ``(n_out, s, p, k, n_in)``, rows first; refuses over ``_AXIS_READ_CAP``
    reads or ``_INT64_BOUND`` input or output words."""
    if (words := max(layer.m_in, layer.m_out)) > _INT64_BOUND:
        raise SizeLimitError(f"layer has {words} input or output words, above the int64 "
                             f"bound of {_INT64_BOUND} for the oracle and execution")
    y_out, x_out = layer.y_out, layer.x_out
    reads = max(y_out * layer.k_y, x_out * layer.k_x)
    if reads > _AXIS_READ_CAP:
        raise SizeLimitError(f"layer has {reads} (window, tap) reads along one axis, above the "
                             f"bound of {_AXIS_READ_CAP} for the oracle and in-arena execution")
    return ((y_out, layer.s_y, layer.p_y, layer.k_y, layer.y_in),
            (x_out, layer.s_x, layer.p_x, layer.k_x, layer.x_in))


def _axis_reads(n_out: int, s: int, p: int, k: int, n_in: int):
    """Every in-bounds read along one axis as (window, index) arrays."""
    pos = np.add.outer(np.arange(-p, n_out * s - p, s), np.arange(k))
    inside = (pos >= 0) & (pos < n_in)
    return np.nonzero(inside)[0], pos[inside]


def _last_read_window(layer: LayerSpec) -> np.ndarray:
    """Index of the last window that reads each input pixel, -1 if never read.

    Pixel ``(y, x)`` is last read by window ``ly[y] * x_out + lx[x]``, from
    each axis's last reader.  Input word ``a`` belongs to pixel ``a // c_in``:
    grouped or not, every window that covers a pixel reads all its channels.
    """
    (oy, y), (ox, x) = [_axis_reads(*axis) for axis in _axes(layer)]
    ly = np.full(layer.y_in, -1, dtype=np.int64)
    lx = np.full(layer.x_in, -1, dtype=np.int64)
    np.maximum.at(ly, y, oy)
    np.maximum.at(lx, x, ox)
    lrw = np.add.outer(ly * layer.x_out, lx)
    lrw[ly < 0] = -1
    lrw[:, lx < 0] = -1
    return lrw.ravel()


def lifetime_minima(layers, cycle_cap: int | None = None) -> list:
    """Unfloored least safe ``d >= 0`` of each layer: no write lands on a word still to be read.

    ``max(c_out * window - address)`` over every read of a pixel's channel 0,
    its lowest word, and zero.  Window ``oy * x_out + ox`` and address
    ``(y * x_in + x) * c_in`` split it into a row plus a column term, each the
    largest ``a * window - b * index`` over one axis's reads.  All layers are
    checked against the bounds first; then each distinct axis's reads are built
    once, for (layers x reads) matrices of at most ``_AXIS_READ_CAP`` entries.
    A ``cycle_cap`` also refuses by MAC cycles, for the benchmark's pins only (ROADMAP item 1).
    """
    groups, terms = {}, [0] * (2 * len(layers))  # axis -> [(a, b, term slot)]
    for n, layer in enumerate(layers):
        if cycle_cap is not None and (cycles := layer.m_out * layer.block_cycles) > cycle_cap:
            raise SizeLimitError(
                f"layer needs {cycles} MAC cycles, above the brute-force cap of {cycle_cap}; "
                "use the closed-form planner for layers this large")
        rows, cols = _axes(layer)
        groups.setdefault(rows, []).append((layer.c_out * cols[0], cols[4] * layer.c_in, 2 * n))
        groups.setdefault(cols, []).append((layer.c_out, layer.c_in, 2 * n + 1))
    for axis, coefs in groups.items():
        window, index = _axis_reads(*axis)
        step = _AXIS_READ_CAP // max(1, window.size)
        for r in range(0, len(coefs), step):
            a, b, slots = zip(*coefs[r:r + step])
            m = np.multiply.outer(a, window)
            m -= np.multiply.outer(b, index)
            # an axis with no read gives the least int64: its layers' sums stay below zero
            for slot, term in zip(slots, m.max(axis=1, initial=np.iinfo(np.int64).min).tolist()):
                terms[slot] = term
    return [max(0, row + col) for row, col in zip(terms[::2], terms[1::2])]


def verify_layer(layer: LayerSpec, cycle_cap: int | None = None,
                 closed_form_offset: int | None = None) -> OracleReport:
    """Compare the closed-form offset with the brute-force minimum, floored at one word.

    ``closed_form_offset`` overrides the computed value, e.g. to check a
    stored or hand-picked offset; ``cycle_cap`` is as in :func:`lifetime_minima`.
    The closed form equals the minimum on every layer without residual carry;
    with one it may exceed it, because the oracle covers the convolution input
    only and the closed form also keeps the output off the carry.
    """
    d_closed = min_offset(layer) if closed_form_offset is None else closed_form_offset
    return OracleReport(max(1, lifetime_minima([layer], cycle_cap)[0]), d_closed)


# ---------------------------------------------------------------------------
# Execution

# Words gathered and written per batch of windows: bounds the in-arena
# executor's scratch memory whatever the layer size.
_BATCH_WORDS = 1 << 15


def _refuse_over_word_cap(net, arena_size: int = 0) -> None:
    """Refuse a layer input, output or weight set, or an arena, above ``_WORD_CAP`` words."""
    words = max(arena_size, *(max(layer.m_in, layer.m_out, layer.c_out * layer.block_cycles)
                              for layer in net.layers))
    if words > _WORD_CAP:
        raise SizeLimitError(f"network needs a {words}-word buffer, above the execution "
                             f"bound of {_WORD_CAP} words")


def _checked_inputs(net, input_tensor, weights, cap: int, arena_size: int = 0):
    """The input as int64 and each layer's weights grouped as (groups, c_out
    per group, k_y, k_x, c_in per group) with its bias, after refusing
    networks above the cycle, axis-read or word bound and tensors of the wrong
    shape, all before any work."""
    layers = net.layers
    for layer in layers:
        _axes(layer)
    cycles = sum(layer.m_out * layer.block_cycles for layer in layers)
    if cycles > cap:
        raise SizeLimitError(
            f"network needs {cycles} MAC cycles, above the execution cap of {cap}; "
            "raise the cap to execute it anyway"
        )
    _refuse_over_word_cap(net, arena_size)
    x = np.asarray(input_tensor, dtype=np.int64)
    first = layers[0]
    if x.shape != (first.y_in, first.x_in, first.c_in):
        raise DimensionMismatchError(
            f"input shape {x.shape} does not match layer 1 "
            f"({first.y_in}, {first.x_in}, {first.c_in})"
        )
    if len(weights) != len(layers):
        raise DimensionMismatchError(f"{len(weights)} weight sets for {len(layers)} layers")
    grouped = []
    for i, (layer, (w, b)) in enumerate(zip(layers, weights)):
        w = np.asarray(w, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        want = (layer.c_out, layer.k_y, layer.k_x, layer.c_in // layer.groups)
        if w.shape != want:
            raise DimensionMismatchError(
                f"layer {i + 1}: weight shape {w.shape} does not match {want}"
            )
        if b.shape != (layer.c_out,):
            raise DimensionMismatchError(
                f"layer {i + 1}: bias shape {b.shape} does not match ({layer.c_out},)"
            )
        g = layer.groups
        grouped.append((w.reshape(g, layer.c_out // g, *want[1:]), b))
    return x, grouped


def _conv_layer(layer: LayerSpec, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain padded integer convolution (identity activation)."""
    padded = np.pad(x, ((layer.p_y, layer.p_y), (layer.p_x, layer.p_x), (0, 0)))
    win = sliding_window_view(padded, (layer.k_y, layer.k_x), axis=(0, 1))
    win = win[::layer.s_y, ::layer.s_x].reshape(
        layer.y_out, layer.x_out, layer.groups, -1, layer.k_y, layer.k_x)
    out = np.einsum("yxgcij,goijc->yxgo", win, w)
    return out.reshape(layer.y_out, layer.x_out, layer.c_out) + b


def execute_network_reference(net, input_tensor, weights,
                               cycle_cap: int = DEFAULT_CYCLE_CAP) -> np.ndarray:
    """Two-buffer layer-by-layer execution; the bit-exactness ground truth.

    Arithmetic is int64 and wraps modulo 2**64.
    """
    x, grouped = _checked_inputs(net, input_tensor, weights, cycle_cap)
    for layer, (w, b) in zip(net.layers, grouped):
        x = _conv_layer(layer, x, w, b)
    return x


def execute_network_in_arena(net, plan, input_tensor, weights, checked=False,
                             cycle_cap: int = DEFAULT_CYCLE_CAP) -> np.ndarray:
    """Run the whole network inside one flat arena with modular addressing.

    Each layer reads its input at the planned input base; its output word
    ``k`` lands at ``(output_base + k) % arena_size`` and commits with window
    ``k // c_out``, after that window's reads.  A write is *early* when the
    word it lands on is still due to be read by a later window (residual
    carry words count as read by window ``x_out * y_out``, past the last).
    An arena smaller than any layer's input or output is refused, so no
    layer's output wraps onto itself.

    In ``checked`` mode the first early write raises :class:`ClobberError`
    with the layer, block and address, the writing window and the victim's
    last reader.  Windows run in batches that end at every early window, so
    an unchecked run of a broken plan gives exactly the window-by-window
    result.  Arithmetic is int64 and wraps modulo 2**64, as in the reference.
    """
    x, grouped = _checked_inputs(net, input_tensor, weights, cycle_cap, plan.arena_size)
    if ([(lp.m_in, lp.m_out) for lp in plan.layer_plans]
            != [(layer.m_in, layer.m_out) for layer in net.layers]):
        raise DimensionMismatchError("plan is for another network: per-layer word counts differ")
    size = plan.arena_size
    for lp in plan.layer_plans:
        if max(lp.m_in, lp.m_out) > size:
            raise DimensionMismatchError(
                f"layer {lp.index + 1}: {max(lp.m_in, lp.m_out)} input or output words "
                f"exceed the {size}-word arena")
    # load and unload by at most two contiguous copies, split where the run wraps
    arena = np.zeros(size, dtype=np.int64)
    base = plan.layer_plans[0].input_base
    arena[base:base + x.size] = x.reshape(-1)[:size - base]
    arena[:max(0, base + x.size - size)] = x.reshape(-1)[size - base:]
    for layer, (w, b), lp in zip(net.layers, grouped, plan.layer_plans):
        _run_layer_in_arena(layer, w, b, lp, arena, checked)
    last = net.layers[-1]
    base = plan.layer_plans[-1].output_base
    out = np.concatenate((arena[base:base + last.m_out], arena[:max(0, base + last.m_out - size)]))
    return out.reshape(last.y_out, last.x_out, last.c_out)


def _run_layer_in_arena(layer, w, b, lp, arena, checked) -> None:
    size, c_out = arena.size, layer.c_out
    windows = layer.x_out * layer.y_out
    lrw = _last_read_window(layer)
    # a window's tap addresses relative to its top-left input word
    taps = ((np.arange(layer.k_y)[:, None] * layer.x_in + np.arange(layer.k_x))[..., None]
            * layer.c_in + np.arange(layer.c_in))
    step = max(1, _BATCH_WORDS // (taps.size + c_out))
    for c0 in range(0, windows, step):
        c1 = min(c0 + step, windows)
        k = np.arange(c0 * c_out, c1 * c_out)
        words = (lp.output_base + k) % size
        # the last window due to read each landing word; carry words outlive
        # every window
        a = (words - lp.input_base) % size
        pixel = a // layer.c_in
        victim = np.where(pixel < lrw.size, lrw[np.minimum(pixel, lrw.size - 1)],
                          np.where(a < layer.m_in, windows, -1))
        early = np.flatnonzero(victim > k // c_out)
        if checked and early.size:
            e = early[0]
            raise ClobberError(lp.index, int(k[e]), int(words[e]), int(k[e] // c_out),
                               int(victim[e]))
        # a batch ends after each window that writes early
        w0 = c0
        for w1 in [*(k[early] // c_out + 1).tolist(), c1]:
            if w1 > w0:
                _run_windows(layer, w, b, lp, arena, taps, w0, w1)
                w0 = w1


def _run_windows(layer, w, b, lp, arena, taps, w0, w1) -> None:
    """Windows ``w0 .. w1 - 1``: one gather, one contraction, one scatter.

    Valid when none of these windows but the last writes early: then no
    window in the batch reads a word an earlier one of them wrote.
    """
    n = np.arange(w0, w1)
    y0 = n // layer.x_out * layer.s_y - layer.p_y
    x0 = n % layer.x_out * layer.s_x - layer.p_x
    ys = y0[:, None] + np.arange(layer.k_y)
    xs = x0[:, None] + np.arange(layer.k_x)
    inside = (((ys >= 0) & (ys < layer.y_in))[:, :, None]
              & ((xs >= 0) & (xs < layer.x_in))[:, None, :])
    origin = lp.input_base + (y0 * layer.x_in + x0) * layer.c_in
    patch = arena[(origin[:, None, None, None] + taps) % arena.size]
    patch *= inside[..., None]  # padded taps read nothing
    patch = patch.reshape(n.size, layer.k_y, layer.k_x, layer.groups, -1)
    out = np.einsum("nijgc,goijc->ngo", patch, w).reshape(n.size, layer.c_out) + b
    k = np.arange(w0 * layer.c_out, w1 * layer.c_out)
    arena[(lp.output_base + k) % arena.size] = out.reshape(-1)


def seeded_test_vectors(net, seed: int):
    """Deterministic random input and weights for a network, each in -8..8."""
    _refuse_over_word_cap(net)
    rng = np.random.default_rng(seed)
    first = net.layers[0]
    x = rng.integers(-8, 9, size=(first.y_in, first.x_in, first.c_in), dtype=np.int64)
    weights = []
    for layer in net.layers:
        w = rng.integers(-8, 9, size=(layer.c_out, layer.k_y, layer.k_x,
                                     layer.c_in // layer.groups), dtype=np.int64)
        b = rng.integers(-8, 9, size=layer.c_out, dtype=np.int64)
        weights.append((w, b))
    return x, weights
