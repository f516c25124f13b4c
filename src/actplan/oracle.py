"""Ground truth for the planner: lifetime brute force and executors.

Nothing here uses the pointer model or the closed form's concavity step,
which picks two windows per axis.  :func:`lifetime_minima` gives each
layer's least safe offset as a maximum over every in-bounds (window, tap)
read (windows in y, x order; padded taps read nothing); :func:`verify_layer`
floors it at one word and judges a closed-form offset against it.  Whole
networks are executed bit-exactly inside one flat arena to prove that a plan
never destroys data that is still needed; :func:`check_plan` replays a
plan's writes by the same early-write rule, without the arithmetic.  Two
steps are shared with the closed form.  Reads are a product: window
``(oy, ox)`` reads pixel ``(y, x)`` exactly when it reads row ``y`` and
column ``x``, so a maximum over them is a row plus a column maximum.  And
along one axis each window's term is largest at its first read, so the
oracle takes one term per window, in exact Python integers.

Write timing contract: all ``c_out`` output words of one window are committed
together once its final tap has been read.  Every output block of a window
re-reads the same input patch, so committing earlier could corrupt the reads
of its sibling blocks; an address is reusable exactly when its last reading
*window* has finished.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClobberError, DimensionMismatchError, SizeLimitError
from .model import LayerSpec, axes, min_offset

# The executors' cap on MAC cycles, m_out * block_cycles summed over the
# network's layers.
DEFAULT_CYCLE_CAP = 4_000_000_000

# Cap on the (window, tap) reads along either axis: the oracle's time bound,
# about 0.2 s for an axis at the cap on a 2-core Xeon, and the executors'.
_AXIS_READ_CAP = 2**21

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


def _check_bounds(rows, cols) -> None:
    """Refuse a layer of these rows and columns over ``_AXIS_READ_CAP`` reads along one axis."""
    if (reads := max(rows[4] * rows[1], cols[4] * cols[1])) > _AXIS_READ_CAP:
        raise SizeLimitError(f"layer has {reads} (window, tap) reads along one axis, above the "
                             f"bound of {_AXIS_READ_CAP} for the oracle and in-arena execution")


def _first_read_term(axis: tuple, a: int, b: int):
    """The largest ``a*j - b*i`` over an axis's (window ``j``, index ``i``)
    reads, or ``None`` when no index along the axis is read.  Window ``j``
    covers ``[j*s - p, j*s - p + k)`` and ``b > 0``, so over its reads the
    term is largest at its first, ``max(0, j*s - p)``: one term per window
    that reads an index."""
    n_in, k, s, p, n_out = axis
    term = None
    for j, lo in enumerate(range(-p, n_out * s - p, s)):
        if -k < lo < n_in:  # the window reads an index
            t = a * j - b * (lo if lo > 0 else 0)
            if term is None or t > term:
                term = t
    return term


def _last_readers(axis: tuple, scale: int, never: int):
    """Along one axis, ``scale`` times each index's last reading window, or
    ``never`` where no window reads it: each window's in-bounds taps in turn,
    later windows overwriting."""
    n_in, k, s, p, n_out = axis
    last = [never] * n_in
    reader = 0
    for lo in range(-p, n_out * s - p, s):
        for index in range(lo if lo > 0 else 0, lo + k if lo + k < n_in else n_in):
            last[index] = reader
        reader += scale
    return last


def _last_read_window(rows, cols) -> np.ndarray:
    """Index of the last window that reads each input pixel, -1 if never read,
    and one more -1 slot after the last pixel, for every word above them.

    Pixel ``(y, x)`` is last read by window ``ly[y] * x_out + lx[x]``, from
    each axis's last reader; an axis index that no window reads is marked
    ``-windows``, so every sum it enters is negative and is raised to -1.
    Input word ``a`` belongs to pixel ``a // c_in``: grouped or not, every
    window that covers a pixel reads all its channels.
    """
    x_out, windows = cols[4], rows[4] * cols[4]
    table = np.empty(rows[0] * cols[0] + 1, dtype=np.int64)
    table[-1] = -1
    grid = table[:-1].reshape(rows[0], cols[0])
    np.add.outer(_last_readers(rows, x_out, -windows), _last_readers(cols, 1, -windows),
                 out=grid)
    np.maximum(grid, -1, out=grid)
    return table


def lifetime_minima(layers, cycle_cap: int | None = None) -> list:
    """Unfloored least safe ``d >= 0`` of each layer: no write lands on a word still to be read.

    ``max(c_out * window - address)`` over every read of a pixel's channel 0,
    its lowest word, and zero.  Window ``oy * x_out + ox`` and address
    ``(y * x_in + x) * c_in`` split it into a row plus a column term, each the
    largest ``a * window - b * index`` over one axis's reads.  Every layer is
    checked against the bounds first, so a batch that holds a refused layer
    is refused before any term is computed.  A ``cycle_cap`` also
    refuses by MAC cycles, for the benchmark's pins only (ROADMAP item 1).
    """
    checked = []
    for layer in layers:
        rows, cols = axes(layer)
        if cycle_cap is not None and (cycles := rows[4] * cols[4] * layer.c_out * (
                layer.c_in // layer.groups) * rows[1] * cols[1]) > cycle_cap:
            raise SizeLimitError(
                f"layer needs {cycles} MAC cycles, above the brute-force cap of {cycle_cap}; "
                "use the closed-form planner for layers this large")
        _check_bounds(rows, cols)
        checked.append((layer, rows, cols))
    minima = []
    for layer, rows, cols in checked:
        row = _first_read_term(rows, layer.c_out * cols[4], cols[0] * layer.c_in)
        col = _first_read_term(cols, layer.c_out, layer.c_in)
        minima.append(0 if row is None or col is None else max(0, row + col))
    return minima


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

# Words copied and written per batch of windows: with the bands of input
# rows its pieces read (a piece's columns when it lies in one output row,
# else whole rows), bounds the in-arena executor's scratch memory; the
# reference copies at most this many words of windows at a time.
_BATCH_WORDS = 1 << 15


def _admit(net, cycle_cap: int | None = None, plan=None, weights: bool = True) -> list:
    """Each layer's rows and columns, once the network may execute: the one
    decision, made before any work.  Checks :func:`_check_bounds`, then
    ``cycle_cap`` MAC cycles if given, then each layer's input and output
    words, its weight words when ``weights`` are to be drawn or converted,
    and ``plan``'s arena against ``_WORD_CAP``, then that ``plan`` is for this
    network, that its arena holds each layer's input and output and that its
    bases chain: each layer's input base is the output base before it and its
    offset is its input base less its output base, both modulo the arena."""
    geometry, sizes, cycles, words = [], [], 0, (0 if plan is None else plan.arena_size)
    for layer in net.layers:
        rows, cols = axes(layer)
        _check_bounds(rows, cols)
        m_in = rows[0] * cols[0] * layer.c_in + layer.residual_carry_words
        m_out = rows[4] * cols[4] * layer.c_out
        weight_words = layer.c_out * (layer.c_in // layer.groups) * rows[1] * cols[1]
        cycles += rows[4] * cols[4] * weight_words
        words = max(words, m_in, m_out, weight_words if weights else 0)
        geometry.append((rows, cols))
        sizes.append((m_in, m_out))
    if cycle_cap is not None and cycles > cycle_cap:
        raise SizeLimitError(f"network needs {cycles} MAC cycles, above the execution cap of "
                             f"{cycle_cap}; raise the cap to execute it anyway")
    if words > _WORD_CAP:
        raise SizeLimitError(f"network needs a {words}-word buffer, above the execution "
                             f"bound of {_WORD_CAP} words")
    if plan is not None:
        if [(lp.m_in, lp.m_out) for lp in plan.layer_plans] != sizes:
            raise DimensionMismatchError(
                "plan is for another network: per-layer word counts differ")
        size, base = plan.arena_size, plan.layer_plans[0].input_base
        for lp in plan.layer_plans:
            if (live := max(lp.m_in, lp.m_out)) > size:
                raise DimensionMismatchError(f"layer {lp.index + 1}: {live} input or output "
                                             f"words exceed the {size}-word arena")
            if (lp.input_base - base) % size:
                raise DimensionMismatchError(
                    f"layer {lp.index + 1}: input base {lp.input_base} is not layer "
                    f"{lp.index}'s output base {base} modulo the arena")
            base = lp.output_base
            if (lp.input_base - base - lp.d) % size:
                raise DimensionMismatchError(
                    f"layer {lp.index + 1}: offset {lp.d} is not input base {lp.input_base} "
                    f"less output base {lp.output_base} modulo the arena")
    return geometry


def _checked_inputs(net, input_tensor, weights, cycle_cap: int, plan=None):
    """The input as int64 and each layer's rows, columns, weights grouped as
    (groups, c_out per group, k_y, k_x, c_in per group) and bias as (groups,
    c_out per group); refuses what :func:`_admit` refuses before converting
    any tensor, then tensors of the wrong shape."""
    geometry = _admit(net, cycle_cap, plan)
    x = np.asarray(input_tensor, dtype=np.int64)
    rows, cols = geometry[0]
    if x.shape != (want := (rows[0], cols[0], net.layers[0].c_in)):
        raise DimensionMismatchError(f"input shape {x.shape} does not match layer 1 {want}")
    if len(weights) != len(geometry):
        raise DimensionMismatchError(f"{len(weights)} weight sets for {len(geometry)} layers")
    grouped = []
    for i, (layer, (rows, cols), (w, b)) in enumerate(zip(net.layers, geometry, weights)):
        w = np.asarray(w, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        want = (layer.c_out, rows[1], cols[1], layer.c_in // layer.groups)
        if w.shape != want:
            raise DimensionMismatchError(f"layer {i + 1}: weight shape {w.shape} "
                                         f"does not match {want}")
        if b.shape != (layer.c_out,):
            raise DimensionMismatchError(f"layer {i + 1}: bias shape {b.shape} "
                                         f"does not match ({layer.c_out},)")
        g = layer.groups
        grouped.append((rows, cols, w.reshape(g, layer.c_out // g, *want[1:]), b.reshape(g, -1)))
    return x, grouped


def _windows(band: np.ndarray, rows, cols, groups: int, n_y: int, n_x: int) -> np.ndarray:
    """The ``(n_y, n_x)`` windows of a zero-padded ``(rows, columns, c_in)``
    band as one strided view, no copy: window ``(i, j)`` is the block at
    ``band[i * s_y, j * s_x]``, shaped ``(k_y, k_x, groups, c_in // groups)``."""
    (_, k_y, s_y, _, _), (_, k_x, s_x, _, _) = rows, cols
    sy, sx, sc = band.strides
    cpg = band.shape[2] // groups
    return np.ndarray((n_y, n_x, k_y, k_x, groups, cpg), band.dtype, band, 0,
                      (sy * s_y, sx * s_x, sy, sx, sc * cpg, sc))


def _conv_layer(layer: LayerSpec, rows, cols, x: np.ndarray, w: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """Plain padded integer convolution (identity activation).

    Windows are contracted from contiguous copies of at most ``_BATCH_WORDS``
    words (einsum walks a copy faster than the strided view): whole output
    rows, or pieces of one row when a row's windows hold more words."""
    (y_in, k_y, _, p_y, y_out), (x_in, k_x, _, p_x, x_out) = rows, cols
    padded = np.zeros((y_in + 2 * p_y, x_in + 2 * p_x, layer.c_in), dtype=np.int64)
    padded[p_y:p_y + y_in, p_x:p_x + x_in] = x
    view = _windows(padded, rows, cols, layer.groups, y_out, x_out)
    out = np.empty((y_out, x_out, *b.shape), dtype=np.int64)
    per = max(1, _BATCH_WORDS // (k_y * k_x * layer.c_in))  # windows per copy
    n_y, n_x = (per // x_out, x_out) if per >= x_out else (1, per)
    for oy in range(0, y_out, n_y):
        for ox in range(0, x_out, n_x):
            block = np.ascontiguousarray(view[oy:oy + n_y, ox:ox + n_x])
            out[oy:oy + n_y, ox:ox + n_x] = np.einsum("yxijgc,goijc->yxgo", block, w)
    out += b
    return out.reshape(y_out, x_out, layer.c_out)


def execute_network_reference(net, input_tensor, weights,
                               cycle_cap: int = DEFAULT_CYCLE_CAP) -> np.ndarray:
    """Two-buffer layer-by-layer execution; the bit-exactness ground truth.

    Arithmetic is int64 and wraps modulo 2**64.
    """
    x, grouped = _checked_inputs(net, input_tensor, weights, cycle_cap)
    for layer, (rows, cols, w, b) in zip(net.layers, grouped):
        x = _conv_layer(layer, rows, cols, x, w, b)
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
    x, grouped = _checked_inputs(net, input_tensor, weights, cycle_cap, plan)
    arena = np.zeros(plan.arena_size, dtype=np.int64)
    _write_span(arena, plan.layer_plans[0].input_base, x.reshape(-1))
    for layer, (rows, cols, w, b), lp in zip(net.layers, grouped, plan.layer_plans):
        _run_layer_in_arena(layer, rows, cols, w, b, lp, arena, checked)
    # the last layer's output; an unwrapped read is a view: copy it so that
    # the arena is freed
    out = _read_span(arena, lp.output_base, rows[4] * cols[4] * layer.c_out)
    return (out.copy() if out.base is arena else out).reshape(rows[4], cols[4], layer.c_out)


def _read_span(arena, start, n):
    """Arena words ``start .. start + n - 1`` modulo its size, from at most two
    slices split where the run wraps; a view when it does not wrap."""
    start %= arena.size
    head = arena[start:start + n]
    return head if head.size == n else np.concatenate((head, arena[:n - head.size]))


def _write_span(arena, start, values) -> None:
    """Store ``values`` at arena words ``start, start + 1, ...`` modulo its
    size, by at most two slice assignments."""
    start %= arena.size
    head = min(values.size, arena.size - start)
    arena[start:start + head] = values[:head]
    arena[:values.size - head] = values[head:]


def _early_writes(layer, rows, cols, lp, size, step):
    """The one rule for an early write, as :func:`execute_network_in_arena`
    states it: yields ``(c0, c1, early, victim)`` for each ``step`` windows
    ``c0 .. c1 - 1`` of the layer at plan entry ``lp`` in a ``size``-word arena.
    ``victim`` is the last window due to read the word each of their output
    words lands on, ``early`` the positions of the early ones in ``victim``."""
    c_out, c_in, carry = layer.c_out, layer.c_in, layer.residual_carry_words
    windows, m_conv = rows[4] * cols[4], rows[0] * cols[0] * c_in
    lrw = _last_read_window(rows, cols)
    shift = lp.output_base - lp.input_base
    for c0 in range(0, windows, step):
        c1 = min(c0 + step, windows)
        # each landing word's offset above the input base and the last window
        # due to read it; carry words outlive every window
        a = np.arange(c0 * c_out + shift, c1 * c_out + shift) % size
        victim = lrw.take(a // c_in, mode="clip")
        if carry:
            victim[(a >= m_conv) & (a < m_conv + carry)] = windows
        early = np.flatnonzero(victim.reshape(-1, c_out) > np.arange(c0, c1)[:, None])
        yield c0, c1, early, victim


def _clobber(layer, lp, size, c0, early, victim) -> ClobberError:
    """The first early write of a batch from :func:`_early_writes` as an error."""
    e = int(early[0])
    k = c0 * layer.c_out + e
    return ClobberError(lp.index, k, (lp.output_base + k) % size, k // layer.c_out,
                        int(victim[e]))


def check_plan(net, plan) -> None:
    """Replay ``plan``'s writes word by word, without arithmetic: raise the
    :class:`ClobberError` that checked execution would raise first, if any.

    Refuses what :func:`_admit` refuses for ``plan``, at any cycle count and
    weight count: it draws no weights.
    Each layer is replayed ``_BATCH_WORDS`` output words at a time (one
    window at least), so past the last-reader table, one int64 per input
    pixel, its scratch is a few arrays of at most that many words.
    """
    size = plan.arena_size
    geometry = _admit(net, plan=plan, weights=False)
    for layer, (rows, cols), lp in zip(net.layers, geometry, plan.layer_plans):
        step = max(1, _BATCH_WORDS // layer.c_out)
        for c0, _, early, victim in _early_writes(layer, rows, cols, lp, size, step):
            if early.size:
                raise _clobber(layer, lp, size, c0, early, victim)


def _run_layer_in_arena(layer, rows, cols, w, b, lp, arena, checked) -> None:
    """One layer's windows in batches of at most ``_BATCH_WORDS`` words,
    each also ending after every window that writes early.

    A batch runs as row-aligned pieces: the rest of its first output row,
    whole rows, the start of its last.  A piece reads the input rows its
    windows cover from at most two arena slices, split where they wrap, into
    a zero-padded band; within one output row, only the columns its windows
    cover.  Its windows are then the whole strided view of that band.  Valid
    when none of a batch's windows but the last writes early: then no window
    in the batch reads a word an earlier one of them wrote.
    """
    size, c_out, c_in, groups = arena.size, layer.c_out, layer.c_in, layer.groups
    (y_in, k_y, s_y, p_y, y_out), (x_in, k_x, s_x, p_x, x_out) = rows, cols
    row = x_in * c_in

    def run_piece(w0, w1):
        oy0, oy1 = w0 // x_out, (w1 - 1) // x_out + 1
        ox0, ox1 = (w0 % x_out, (w1 - 1) % x_out + 1) if oy1 - oy0 == 1 else (0, x_out)
        # input row and column of band[0, 0], negative inside the top and left padding
        top, left = oy0 * s_y - p_y, ox0 * s_x - p_x
        band = np.zeros(((oy1 - oy0 - 1) * s_y + k_y, (ox1 - ox0 - 1) * s_x + k_x, c_in),
                        dtype=np.int64)
        r0, r1 = max(top, 0), min(top + band.shape[0], y_in)
        c0, c1 = max(left, 0), min(left + band.shape[1], x_in)
        if r1 > r0 and c1 > c0:  # with padding >= the kernel a piece may read no input
            span = _read_span(arena, lp.input_base + r0 * row, (r1 - r0) * row)
            band[r0 - top:r1 - top, c0 - left:c1 - left] = span.reshape(-1, x_in, c_in)[:, c0:c1]
        # a contiguous copy, at most the batch's words, contracts faster than the view
        view = np.ascontiguousarray(_windows(band, rows, cols, groups, oy1 - oy0, ox1 - ox0))
        out = np.einsum("yxijgc,goijc->yxgo", view, w)
        out += b
        _write_span(arena, lp.output_base + w0 * c_out, out.reshape(-1))

    step = max(1, _BATCH_WORDS // (k_y * k_x * c_in + c_out))
    for c0, c1, early, victim in _early_writes(layer, rows, cols, lp, size, step):
        if checked and early.size:
            raise _clobber(layer, lp, size, c0, early, victim)
        # a batch ends after each window that writes early
        w0 = c0
        for w1 in [*(early // c_out + c0 + 1).tolist(), c1]:
            # row-aligned pieces: w0 to the first row start at or after it,
            # whole rows, the last row start at or before w1 to w1
            head = min(w1, -(-w0 // x_out) * x_out)
            tail = max(head, w1 // x_out * x_out)
            for lo, hi in ((w0, head), (head, tail), (tail, w1)):
                if hi > lo:
                    run_piece(lo, hi)
            w0 = w1


def seeded_test_vectors(net, seed: int):
    """Deterministic random int64 input and weights for a network, each in
    -8..8, drawn once :func:`_admit` admits the network at any cycle count."""
    geometry = _admit(net)
    rng = np.random.default_rng(seed)
    rows, cols = geometry[0]
    x = rng.integers(-8, 9, (rows[0], cols[0], net.layers[0].c_in))
    return x, [(rng.integers(-8, 9, (layer.c_out, rows[1], cols[1], layer.c_in // layer.groups)),
                rng.integers(-8, 9, layer.c_out))
               for layer, (rows, cols) in zip(net.layers, geometry)]
