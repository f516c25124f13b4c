"""Ground truth for the planner: lifetime brute force and executors.

Nothing here uses the separable offset formula or the pointer model.  The
minimal safe offset is recomputed from the literal six-loop access pattern of
a convolution layer (outputs in y, x, c_out order; taps in k_y, k_x, c_in
order; padded taps read nothing), and whole networks are executed bit-exactly inside one flat arena
to prove that a plan never destroys data that is still needed.

Write timing contract: all ``c_out`` output words of one window position are
held back and committed together once the window's final tap has been read.
Every output block of a window re-reads the same input patch, so committing
any of the window's words early could corrupt the reads of its sibling
blocks; committing at window end makes an address reusable exactly when its
last reading *window* has finished.  (For ``c_out == 1`` this coincides with
committing at block end.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClobberError, DimensionMismatchError, PackingError, SizeLimitError
from .model import LayerSpec, derive_dims, min_offset

__all__ = [
    "OracleReport",
    "DEFAULT_CYCLE_CAP",
    "min_safe_offset_bruteforce",
    "verify_layer",
    "execute_network_reference",
    "execute_network_in_arena",
    "seeded_test_vectors",
]

# Caps on t_len * block_cycles.  Offsets only need a last-reader map, so they
# afford a much higher cap than stepping every MAC of an execution in Python.
DEFAULT_CYCLE_CAP = 4_000_000_000
DEFAULT_EXEC_CAP = 20_000_000


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
    dd = derive_dims(layer)
    cycles = dd.t_len * dd.block_cycles
    if cycles > cap:
        raise SizeLimitError(
            f"layer needs {cycles} MAC cycles, above the brute-force cap of {cap}; "
            "use the closed-form planner for layers this large"
        )


def _last_read_window(layer: LayerSpec) -> np.ndarray:
    """Index of the last window that reads each input word, -1 if never read.

    Grouping does not matter here: every window that covers a pixel reads all
    of its channels through one group's output blocks or another's.
    """
    dd = derive_dims(layer)
    lrw = np.full((layer.y_in, layer.x_in, layer.c_in), -1, dtype=np.int64)
    w = 0
    for y_out in range(dd.y_out):
        y0 = y_out * layer.s_y - layer.p_y
        ys = slice(max(0, y0), min(layer.y_in, y0 + layer.k_y))
        for x_out in range(dd.x_out):
            x0 = x_out * layer.s_x - layer.p_x
            xs = slice(max(0, x0), min(layer.x_in, x0 + layer.k_x))
            if ys.start < ys.stop and xs.start < xs.stop:
                lrw[ys, xs, :] = w
            w += 1
    return lrw.reshape(-1)


def _raw_min_safe_offset(layer: LayerSpec) -> int | None:
    """Unfloored lifetime constraint: least d with no write/read collision.

    May be zero or negative for layers whose writes trail the reads by
    construction (then any non-negative offset is collision-free); ``None``
    when no input word is ever read.
    """
    lrw = _last_read_window(layer)
    read = lrw >= 0
    if not read.any():
        return None
    addrs = np.arange(lrw.size, dtype=np.int64)
    need = layer.c_out * lrw[read] - addrs[read]
    return int(need.max())


def min_safe_offset_bruteforce(layer: LayerSpec, cycle_cap: int = DEFAULT_CYCLE_CAP) -> int:
    """Exhaustive minimal safe offset between output and input regions.

    Output word ``e`` lands ``e - d`` words above the input base and commits
    when its window finishes, so ``d`` is safe iff for every input word ``a``
    the committing window of the write that lands on ``a`` is no earlier than
    the last window reading ``a``.  Solving that per address gives the least
    ``d`` directly; the floor of one word mirrors the strict separation the
    closed form guarantees.
    """
    _check_cap(layer, cycle_cap)
    raw = _raw_min_safe_offset(layer)
    return 1 if raw is None else max(1, raw)


def verify_layer(
    layer: LayerSpec,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
    closed_form_offset: int | None = None,
) -> OracleReport:
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


def _check_exec_cap(net, cap: int) -> None:
    total = 0
    for layer in net.layers:
        dd = derive_dims(layer)
        total += dd.t_len * dd.block_cycles
    if total > cap:
        raise SizeLimitError(
            f"network needs {total} MAC cycles, above the execution cap of {cap}; "
            "the executors are desk-scale validators, not inference engines"
        )


def _check_vectors(net, input_tensor, weights):
    layers = net.layers
    x = np.asarray(input_tensor, dtype=np.int64)
    first = layers[0]
    if x.shape != (first.y_in, first.x_in, first.c_in):
        raise DimensionMismatchError(
            f"input shape {x.shape} does not match layer 1 "
            f"({first.y_in}, {first.x_in}, {first.c_in})"
        )
    if len(weights) != len(layers):
        raise DimensionMismatchError(
            f"{len(weights)} weight sets for {len(layers)} layers"
        )
    checked = []
    for i, (layer, pair) in enumerate(zip(layers, weights)):
        w, b = pair
        w = np.asarray(w, dtype=np.int64)
        want = (layer.c_out, layer.k_y, layer.k_x, layer.c_in // layer.groups)
        if w.shape != want:
            raise DimensionMismatchError(
                f"layer {i + 1}: weight shape {w.shape} does not match {want}"
            )
        if b is None:
            b = np.zeros(layer.c_out, dtype=np.int64)
        else:
            b = np.asarray(b, dtype=np.int64)
            if b.shape != (layer.c_out,):
                raise DimensionMismatchError(
                    f"layer {i + 1}: bias shape {b.shape} does not match ({layer.c_out},)"
                )
        checked.append((w, b))
    return x, checked


def _conv_layer(layer: LayerSpec, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain padded integer convolution (identity activation)."""
    dd = derive_dims(layer)
    cpg_in = layer.c_in // layer.groups
    cpg_out = layer.c_out // layer.groups
    out = np.zeros((dd.y_out, dd.x_out, layer.c_out), dtype=np.int64)
    for y_out in range(dd.y_out):
        y0 = y_out * layer.s_y - layer.p_y
        ys, ye = max(0, y0), min(layer.y_in, y0 + layer.k_y)
        for x_out in range(dd.x_out):
            x0 = x_out * layer.s_x - layer.p_x
            xs, xe = max(0, x0), min(layer.x_in, x0 + layer.k_x)
            for c_out in range(layer.c_out):
                group = c_out // cpg_out
                acc = int(b[c_out])
                for y in range(ys, ye):
                    for x_ in range(xs, xe):
                        for c in range(cpg_in):
                            acc += int(x[y, x_, group * cpg_in + c]) * int(
                                w[c_out, y - y0, x_ - x0, c]
                            )
                out[y_out, x_out, c_out] = acc
    return out


def execute_network_reference(net, input_tensor, weights,
                               cycle_cap: int = DEFAULT_EXEC_CAP) -> np.ndarray:
    """Two-buffer layer-by-layer execution; the bit-exactness ground truth."""
    if net.packing != 1:
        raise PackingError("execution models one datum per memory word (packing must be 1)")
    _check_exec_cap(net, cycle_cap)
    x, checked = _check_vectors(net, input_tensor, weights)
    for layer, (w, b) in zip(net.layers, checked):
        x = _conv_layer(layer, x, w, b)
    return x


def execute_network_in_arena(net, plan, input_tensor, weights, checked=False,
                             cycle_cap: int = DEFAULT_EXEC_CAP) -> np.ndarray:
    """Run the whole network inside one flat arena with modular addressing.

    Each layer reads its input at the planned input base and commits outputs
    at the planned output base, window by window.  In ``checked`` mode a
    per-word shadow map records the last window that still reads each live
    input word (residual carry words count as live for the whole layer);
    a write landing on a word whose last reader lies ahead raises
    :class:`ClobberError` with the layer, block and address of the first
    violation, and a word written twice within one layer is reported the
    same way (an arena too small to hold the output would silently wrap).
    """
    if net.packing != 1:
        raise PackingError("execution models one datum per memory word (packing must be 1)")
    _check_exec_cap(net, cycle_cap)
    x, checked_w = _check_vectors(net, input_tensor, weights)
    size = plan.arena_size
    arena = np.zeros(size, dtype=np.int64)

    base = plan.layer_plans[0].input_base
    flat = x.reshape(-1)
    for a in range(flat.size):
        arena[(base + a) % size] = flat[a]

    for idx, (layer, (w, b), lp) in enumerate(zip(net.layers, checked_w, plan.layer_plans)):
        dd = derive_dims(layer)
        ib, ob = lp.input_base, lp.output_base
        cpg_in = layer.c_in // layer.groups
        cpg_out = layer.c_out // layer.groups

        live = None
        if checked:
            live = {}
            lrw = _last_read_window(layer)
            for a in range(lrw.size):
                if lrw[a] >= 0:
                    live[(ib + a) % size] = int(lrw[a])
            m_conv = layer.y_in * layer.x_in * layer.c_in
            for a in range(m_conv, dd.m_in):  # residual carry: live throughout
                live[(ib + a) % size] = dd.x_out * dd.y_out
            written = set()

        w_idx = 0
        for y_out in range(dd.y_out):
            y0 = y_out * layer.s_y - layer.p_y
            for x_out in range(dd.x_out):
                x0 = x_out * layer.s_x - layer.p_x
                outs = []
                for c_out in range(layer.c_out):
                    group = c_out // cpg_out
                    acc = int(b[c_out])
                    for k_y in range(layer.k_y):
                        y = y0 + k_y
                        if not 0 <= y < layer.y_in:
                            continue
                        for k_x in range(layer.k_x):
                            x_ = x0 + k_x
                            if not 0 <= x_ < layer.x_in:
                                continue
                            a = (y * layer.x_in + x_) * layer.c_in + group * cpg_in
                            for c in range(cpg_in):
                                acc += int(arena[(ib + a + c) % size]) * int(
                                    w[c_out, k_y, k_x, c]
                                )
                    outs.append(acc)
                # all outputs of this window commit after its final read
                for c_out, val in enumerate(outs):
                    k = w_idx * layer.c_out + c_out
                    word = (ob + k) % size
                    if checked:
                        last = live.get(word)
                        if last is not None and last > w_idx:
                            raise ClobberError(idx, k, word)
                        live.pop(word, None)
                        if word in written:
                            raise ClobberError(idx, k, word)
                        written.add(word)
                    arena[word] = val
                w_idx += 1

    last_lp = plan.layer_plans[-1]
    last_dd = derive_dims(net.layers[-1])
    out = np.empty(last_dd.m_out, dtype=np.int64)
    for e in range(last_dd.m_out):
        out[e] = arena[(last_lp.output_base + e) % size]
    return out.reshape(last_dd.y_out, last_dd.x_out, net.layers[-1].c_out)


def seeded_test_vectors(net, seed: int, low: int = -8, high: int = 8):
    """Deterministic random input and weights for a network (inclusive range)."""
    rng = np.random.default_rng(seed)
    first = net.layers[0]
    x = rng.integers(low, high + 1, size=(first.y_in, first.x_in, first.c_in), dtype=np.int64)
    weights = []
    for layer in net.layers:
        w = rng.integers(
            low,
            high + 1,
            size=(layer.c_out, layer.k_y, layer.k_x, layer.c_in // layer.groups),
            dtype=np.int64,
        )
        b = rng.integers(low, high + 1, size=layer.c_out, dtype=np.int64)
        weights.append((w, b))
    return x, weights
