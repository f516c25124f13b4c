"""Correctness references that share no code with the package under test.

Every figure here is derived from the layer fields alone: output geometry,
the literal lifetime minimum of the offset between output and input regions,
and an integer convolution.  The benchmark compares the package's outputs
with these, outside the timed region.
"""

from __future__ import annotations

from math import gcd
from types import SimpleNamespace

import numpy as np
import yaml


def dims(layer):
    """(x_out, y_out, m_conv, m_in, m_out, block_cycles) of a LayerSpec-like object."""
    x_out = (layer.x_in + 2 * layer.p_x - layer.k_x) // layer.s_x + 1
    y_out = (layer.y_in + 2 * layer.p_y - layer.k_y) // layer.s_y + 1
    m_conv = layer.x_in * layer.y_in * layer.c_in
    m_out = x_out * y_out * layer.c_out
    block = (layer.c_in // layer.groups) * layer.k_x * layer.k_y
    return x_out, y_out, m_conv, m_conv + layer.residual_carry_words, m_out, block


def mac_cycles(layer) -> int:
    """Nominal MAC cycles of a layer: one block of taps per output word."""
    _, _, _, _, m_out, block = dims(layer)
    return m_out * block


def _min_from_last_reader(layer, lrw: np.ndarray) -> int:
    """Least offset ``d >= 1`` given the last reading window of every pixel.

    Output word ``e`` lands ``e - d`` words above the input base and commits
    when window ``e // c_out`` ends, so input word ``a`` read last by window
    ``w`` needs ``d >= c_out * w - a``.  Channel 0 of a pixel has the lowest
    address, so it bounds the pixel's other channels.
    """
    read = lrw >= 0
    if not read.any():
        return 1
    addr = np.arange(lrw.size, dtype=np.int64) * layer.c_in
    return max(1, int((layer.c_out * lrw[read] - addr[read]).max()))


def carry_min(layer) -> int:
    """Least offset that keeps every output word off the residual carry.

    Carry words sit directly above the convolution input and stay live for
    the whole layer, so the last output word must land below them:
    ``d >= m_out - m_conv``.  A layer without carry needs only ``d >= 1``.
    """
    _, _, m_conv, _, m_out, _ = dims(layer)
    return max(1, m_out - m_conv) if layer.residual_carry_words else 1


def lifetime_min_loops(layer) -> int:
    """Lifetime minimum over the convolution input, from the literal loop nest.

    The loop runs over every window and tap in execution order; residual
    carries are left to :func:`carry_min`.
    Pure Python, for the tiny layers of the exhaustive sweep.
    """
    x_out, y_out, _, _, _, _ = dims(layer)
    lrw = np.full(layer.y_in * layer.x_in, -1, dtype=np.int64)
    w = 0
    for oy in range(y_out):
        for ox in range(x_out):
            for ky in range(layer.k_y):
                y = oy * layer.s_y - layer.p_y + ky
                if 0 <= y < layer.y_in:
                    for kx in range(layer.k_x):
                        x = ox * layer.s_x - layer.p_x + kx
                        if 0 <= x < layer.x_in:
                            lrw[y * layer.x_in + x] = w
            w += 1
    return _min_from_last_reader(layer, lrw)


def lifetime_min_scatter(layer, rows_per_chunk: int = 64) -> int:
    """Lifetime minimum from a scatter of every (window, tap) pair.

    The same enumeration as :func:`lifetime_min_loops`, vectorized with
    ``np.maximum.at`` over chunks of window rows, so layers of 640x640
    pixels take well under a second and bounded memory.
    """
    x_out, y_out, _, _, _, _ = dims(layer)
    lrw = np.full(layer.y_in * layer.x_in, -1, dtype=np.int64)
    ox = np.arange(x_out)[:, None]
    xs = ox * layer.s_x - layer.p_x + np.arange(layer.k_x)[None, :]  # (x_out, k_x)
    for r0 in range(0, y_out, rows_per_chunk):
        oy = np.arange(r0, min(y_out, r0 + rows_per_chunk))[:, None]
        ys = oy * layer.s_y - layer.p_y + np.arange(layer.k_y)[None, :]  # (rows, k_y)
        win = oy[:, None, :, None] * x_out + ox[None, :, None, :]
        y = np.broadcast_to(ys[:, None, :, None], (oy.size, x_out, layer.k_y, layer.k_x))
        x = np.broadcast_to(xs[None, :, None, :], y.shape)
        w = np.broadcast_to(win, y.shape)
        ok = (y >= 0) & (y < layer.y_in) & (x >= 0) & (x < layer.x_in)
        np.maximum.at(lrw, y[ok] * layer.x_in + x[ok], w[ok])
    return _min_from_last_reader(layer, lrw)


def packed(layer, q: int) -> SimpleNamespace:
    """Layer fields rescaled to ``q`` data entries per memory word."""
    fields = {k: getattr(layer, k) for k in (
        "x_in", "y_in", "c_in", "k_x", "k_y", "s_x", "s_y", "p_x", "p_y", "c_out",
        "groups", "residual_carry_words")}
    if q > 1:
        fields.update(
            c_in=fields["c_in"] // q,
            c_out=fields["c_out"] // q,
            groups=fields["groups"] // gcd(fields["groups"], q),
            residual_carry_words=-(-fields["residual_carry_words"] // q),
        )
    return SimpleNamespace(**fields)


def conv(layer, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Padded, strided, grouped int64 convolution (identity activation)."""
    x_out, y_out, _, _, _, _ = dims(layer)
    g = layer.groups
    cin_g, cout_g = layer.c_in // g, layer.c_out // g
    xp = np.pad(x, ((layer.p_y, layer.p_y), (layer.p_x, layer.p_x), (0, 0)))
    out = np.broadcast_to(b, (y_out, x_out, layer.c_out)).astype(np.int64)
    for ky in range(layer.k_y):
        for kx in range(layer.k_x):
            patch = xp[ky:ky + layer.s_y * (y_out - 1) + 1:layer.s_y,
                       kx:kx + layer.s_x * (x_out - 1) + 1:layer.s_x, :]
            for grp in range(g):
                cin = slice(grp * cin_g, (grp + 1) * cin_g)
                cout = slice(grp * cout_g, (grp + 1) * cout_g)
                out[:, :, cout] += patch[:, :, cin] @ w[cout, ky, kx, :].T
    return out


def network_layers(text: str) -> tuple:
    """(packing, layers) of a network file, read with PyYAML alone.

    Later layers inherit ``x_in``/``y_in``/``c_in`` from the previous
    layer's output, as the file format specifies.
    """
    doc = yaml.safe_load(text)
    layers = []
    shape = {}
    for row in doc["layers"]:
        fields = {"groups": 1, "residual_carry_words": 0, **shape, **row}
        layer = SimpleNamespace(**fields)
        x_out, y_out, _, _, _, _ = dims(layer)
        shape = {"x_in": x_out, "y_in": y_out, "c_in": layer.c_out}
        layers.append(layer)
    return doc.get("packing", 1), layers
