"""Ground truth for the planner: lifetime brute force and executors.

Nothing here uses the separable offset formula or the pointer model.  The
minimal safe offset is a maximum over every in-bounds (window, tap) read of a
convolution layer (windows in y, x order; padded taps read nothing), and whole
networks are executed bit-exactly inside one flat arena to prove that a plan
never destroys data that is still needed.

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

# Cap on MAC cycles, m_out * block_cycles: per layer for the oracle, summed
# over the network's layers for the executors.
DEFAULT_CYCLE_CAP = 4_000_000_000

# Cap on the oracle's int64 grid of (row read, column read) pairs: 256 MiB.
_READ_GRID_CAP = 2**25


@dataclass(frozen=True)
class OracleReport:
    """Comparison of the closed-form offset against the brute-force minimum."""

    d_oracle: int
    d_closed_form: int
    verdict: str  # "match" | "closed_form_conservative" | "UNSAFE"

    @property
    def gap(self) -> int:
        return self.d_closed_form - self.d_oracle


def _check_cap(layer: LayerSpec, cap: int) -> None:
    cycles = layer.m_out * layer.block_cycles
    if cycles > cap:
        raise SizeLimitError(
            f"layer needs {cycles} MAC cycles, above the brute-force cap of {cap}; "
            "use the closed-form planner for layers this large"
        )


def _reads(layer: LayerSpec):
    """Every in-bounds read as row and column terms: window ``wy + wx`` reads
    pixel ``py + px`` for each row read ``(wy, py)`` and column read ``(wx, px)``."""
    axes = []
    for n_out, s, p, k, n_in in ((layer.y_out, layer.s_y, layer.p_y, layer.k_y, layer.y_in),
                                 (layer.x_out, layer.s_x, layer.p_x, layer.k_x, layer.x_in)):
        pos = np.add.outer(np.arange(-p, n_out * s - p, s), np.arange(k))
        inside = (pos >= 0) & (pos < n_in)
        axes.append((np.nonzero(inside)[0], pos[inside]))
    (oy, y), (ox, x) = axes
    return (oy * layer.x_out, y * layer.x_in), (ox, x)


def _last_read_window(layer: LayerSpec) -> np.ndarray:
    """Index of the last window that reads each input pixel, -1 if never read.

    Input word ``a`` belongs to pixel ``a // c_in``: grouped or not, every
    window that covers a pixel reads all of its channels.
    """
    (wy, py), (wx, px) = _reads(layer)
    lrw = np.full(layer.y_in * layer.x_in, -1, dtype=np.int64)
    np.maximum.at(lrw, np.add.outer(py, px).ravel(), np.add.outer(wy, wx).ravel())
    return lrw


def _raw_min_safe_offset(layer: LayerSpec) -> int:
    """Unfloored lifetime constraint: least d with no write/read collision.

    ``max(c_out * window - address)`` over every read of a pixel's channel 0,
    its lowest word, and zero: zero when writes trail the reads by
    construction or no input word is ever read.  A layer with more than
    ``_READ_GRID_CAP`` read pairs is refused before the grid is built.
    """
    (wy, py), (wx, px) = _reads(layer)
    pairs = wy.size * wx.size
    if pairs > _READ_GRID_CAP:
        raise SizeLimitError(f"layer has {pairs} (row read, column read) pairs, above the "
                             f"oracle's bound of {_READ_GRID_CAP}; use the closed-form "
                             "planner for layers this large")
    c_out, c_in = layer.c_out, layer.c_in
    return int(np.add.outer(c_out * wy - c_in * py, c_out * wx - c_in * px).max(initial=0))


def min_safe_offset_bruteforce(layer: LayerSpec, cycle_cap: int = DEFAULT_CYCLE_CAP) -> int:
    """Exhaustive minimal safe offset between output and input regions.

    Output word ``e`` lands ``e - d`` words above the input base and commits
    when its window finishes, so ``d`` is safe iff for every input word ``a``
    the committing window of the write that lands on ``a`` is no earlier than
    the last window reading ``a``.  Solving that per read gives the least
    ``d`` directly; the floor of one word mirrors the strict separation the
    closed form guarantees.
    """
    _check_cap(layer, cycle_cap)
    return max(1, _raw_min_safe_offset(layer))


def verify_layer(layer: LayerSpec, cycle_cap: int = DEFAULT_CYCLE_CAP,
                 closed_form_offset: int | None = None) -> OracleReport:
    """Compare the closed-form offset with the brute-force minimum.

    ``closed_form_offset`` overrides the computed value, e.g. to check a
    stored or hand-picked offset.  The closed form equals the minimum on
    every layer without residual carry; with one it may exceed it, because
    the oracle covers the convolution input only and the closed form also
    keeps the output off the carry.
    """
    d_closed = min_offset(layer) if closed_form_offset is None else closed_form_offset
    d_oracle = min_safe_offset_bruteforce(layer, cycle_cap)
    if d_closed < d_oracle:
        verdict = "UNSAFE"
    elif d_closed == d_oracle:
        verdict = "match"
    else:
        verdict = "closed_form_conservative"
    return OracleReport(d_oracle=d_oracle, d_closed_form=d_closed, verdict=verdict)


# ---------------------------------------------------------------------------
# Execution

# Words gathered and written per batch of windows: bounds the in-arena
# executor's scratch memory whatever the layer size.
_BATCH_WORDS = 1 << 15


def _checked_inputs(net, input_tensor, weights, cap: int):
    """The input as int64 and each layer's weights grouped as (groups, c_out
    per group, k_y, k_x, c_in per group) with its bias, after refusing
    networks above the cycle cap and tensors of the wrong shape."""
    layers = net.layers
    cycles = sum(layer.m_out * layer.block_cycles for layer in layers)
    if cycles > cap:
        raise SizeLimitError(
            f"network needs {cycles} MAC cycles, above the execution cap of {cap}; "
            "raise the cap to execute it anyway"
        )
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
    x, grouped = _checked_inputs(net, input_tensor, weights, cycle_cap)
    if ([(lp.m_in, lp.m_out) for lp in plan.layer_plans]
            != [(layer.m_in, layer.m_out) for layer in net.layers]):
        raise DimensionMismatchError("plan is for another network: per-layer word counts differ")
    size = plan.arena_size
    for lp in plan.layer_plans:
        if max(lp.m_in, lp.m_out) > size:
            raise DimensionMismatchError(
                f"layer {lp.index + 1}: {max(lp.m_in, lp.m_out)} input or output words "
                f"exceed the {size}-word arena")
    arena = np.zeros(size, dtype=np.int64)
    arena[(plan.layer_plans[0].input_base + np.arange(x.size)) % size] = x.reshape(-1)
    for layer, (w, b), lp in zip(net.layers, grouped, plan.layer_plans):
        _run_layer_in_arena(layer, w, b, lp, arena, checked)
    last = net.layers[-1]
    out = arena[(plan.layer_plans[-1].output_base + np.arange(last.m_out)) % size]
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
