"""Layer geometry, its derived sizes and the closed-form offset for overlapping buffers.

A convolution layer whose activations are stored depth-first (all channels of
a pixel, then pixels along x, then rows along y) reads its input through a
sliding window that only moves forward in memory.  Addresses behind the
window are dead and can be recycled for output words, so the output region of
a layer may start *below* the input region and chase it upward.

The paper models this with two pointers over the MAC cycle counter ``t`` (one
multiply-accumulate per cycle): block ``k`` of ``block_cycles`` cycles writes
output word ``k``, and the read frontier -- the lowest input address that any
upcoming window still needs -- advances ``s_x * c_in`` words per window step,
skips rows according to ``s_y``, starts below zero when the top rows are
padding and is pulled back when the window run-out at the right edge exceeds
the image.  ``read_pointer_at`` is the frontier in exact integer floor/ceil
arithmetic, and ``paper_offset`` is the offset the paper's equations give:
the model evaluated at each window's last block, in fixed slices of windows.

Plans do not use the pointer model.  ``min_offset`` is the exact lifetime
minimum, a separable formula over the last window that reads each input row
and column, evaluated at no more than three candidate indices per axis; the
planner turns it into each layer's joint footprint ``max(m_in + d, m_out)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidLayerError, SizeLimitError

# Windows per slice in paper_offset: bounds its memory whatever the layer size.
_PAPER_SLICE = 1 << 16

# Windows in all for paper_offset, at about 40 ns each: bounds its time.
_PAPER_WINDOWS = 4_000_000_000

# Largest cycle or address paper_offset's int64 pointer model may reach: keeps
# every sum and difference of its terms exact.
_INT64_BOUND = 2**62


@dataclass(frozen=True)
class LayerSpec:
    """Geometry of one convolution layer.

    ``groups`` models grouped/depthwise convolution (``groups == c_in`` is
    depthwise): it divides the per-output MAC count but leaves address
    strides untouched, because all ``c_in`` channels of a pixel still occupy
    consecutive words.  ``residual_carry_words`` reserves extra live words
    (identity/skip data) that must survive this layer; they sit directly
    above the convolution input and enlarge its footprint only.

    The derived sizes ``x_out``, ``y_out``, ``m_in``, ``m_out`` and
    ``block_cycles`` are read-only properties, computed on each access so
    that ``vars(layer)`` holds the fields alone.
    """

    x_in: int
    y_in: int
    c_in: int
    k_x: int
    k_y: int
    s_x: int
    s_y: int
    p_x: int
    p_y: int
    c_out: int
    groups: int = 1
    residual_carry_words: int = 0

    def __post_init__(self):
        for name in ("x_in", "y_in", "c_in", "k_x", "k_y", "s_x", "s_y", "c_out", "groups"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise InvalidLayerError(f"{name} must be an integer >= 1, got {v!r}")
        for name in ("p_x", "p_y", "residual_carry_words"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InvalidLayerError(f"{name} must be an integer >= 0, got {v!r}")
        if self.k_x > self.x_in + 2 * self.p_x:
            raise InvalidLayerError(
                f"kernel k_x={self.k_x} exceeds padded width {self.x_in + 2 * self.p_x}"
            )
        if self.k_y > self.y_in + 2 * self.p_y:
            raise InvalidLayerError(
                f"kernel k_y={self.k_y} exceeds padded height {self.y_in + 2 * self.p_y}"
            )
        if self.c_in % self.groups or self.c_out % self.groups:
            raise InvalidLayerError(
                f"groups={self.groups} must divide c_in={self.c_in} and c_out={self.c_out}"
            )

    @property
    def x_out(self) -> int:
        """Output width: the number of window positions along x."""
        return _out_size(self.x_in, self.k_x, self.s_x, self.p_x)

    @property
    def y_out(self) -> int:
        """Output height: the number of window positions along y."""
        return _out_size(self.y_in, self.k_y, self.s_y, self.p_y)

    @property
    def m_in(self) -> int:
        """Words live on the input side: convolution input plus residual carry."""
        return self.x_in * self.y_in * self.c_in + self.residual_carry_words

    @property
    def m_out(self) -> int:
        """Output elements, one per accumulation block."""
        return self.x_out * self.y_out * self.c_out

    @property
    def block_cycles(self) -> int:
        """MAC cycles per output block: one per tap of a group's input channels."""
        return (self.c_in // self.groups) * self.k_x * self.k_y


def _out_size(n_in: int, k: int, s: int, p: int) -> int:
    """Window positions along one axis of ``n_in`` entries padded by ``p``."""
    return (2 * p + n_in - k) // s + 1


def _ceildiv(a: int, b: int) -> int:
    return -(-a // b)


def read_pointer_at(t, layer: LayerSpec):
    """Lowest input address still needed by upcoming windows, at cycle ``t``.

    Built from four integer terms: the x advance of the window (one
    ``s_x * c_in`` step per window), the extra row skip for ``s_y > 1``, a
    constant credit for the top padding rows that hold no data, and a pullback
    for windows that run out over the right edge.  The whole expression is
    clamped at zero: while the window still covers top padding the frontier
    sits at the start of the input.  ``t`` may be an int or an int64 array of
    cycles; the result is int64 of the same shape.

    Note the pullback term applies from the first cycle after a row starts
    (ceil semantics), so for layers whose window run-out is nonzero the value
    can dip briefly at row boundaries before the x advance catches up; the
    dip only ever makes the frontier more cautious.
    """
    if np.any(np.asarray(t) < 0):
        raise ValueError("cycle index must be >= 0")
    advance, pullback = _frontier_terms(t, layer)
    return np.maximum(0, advance - pullback)


def _frontier_terms(t, layer: LayerSpec):
    """The frontier's advance (x and y terms) and pullback (top padding and
    side terms) at cycle ``t``; neither decreases as ``t`` grows."""
    window = layer.c_out * layer.block_cycles
    row = layer.x_out * window
    x_term = (t // window) * (layer.s_x * layer.c_in)
    y_term = (t // row) * ((layer.s_y - 1) * layer.c_in * layer.x_in)
    top_pad = layer.p_y * layer.c_in * layer.x_in
    overshoot = layer.x_out * layer.s_x - layer.x_in
    side = _ceildiv(t, row) * max(0, overshoot * layer.s_x * layer.c_in)
    return x_term + y_term, top_pad + side


def paper_offset(layer: LayerSpec) -> int:
    """The paper's offset: one word above the largest write - read gap.

    Evaluates the pointer model with both pointers starting at 0 and returns
    the least ``d >= 1`` that keeps the write pointer strictly below the
    read frontier at every block start.  Within one window the frontier is
    constant, except at a row's first block, where it is no lower, so each
    window's largest gap is at its last block.  This is the paper's model,
    kept for comparison; plans use :func:`min_offset`.  Above ``_PAPER_WINDOWS``
    windows, or when the model's cycles or terms would pass ``_INT64_BOUND``
    (checked at the last cycle, where they peak), it raises
    :class:`SizeLimitError` before allocating anything.
    """
    if (windows := layer.x_out * layer.y_out) > _PAPER_WINDOWS:
        raise SizeLimitError(f"{windows} windows, above paper_offset's bound of {_PAPER_WINDOWS}")
    last_cycle = (layer.m_out - 1) * layer.block_cycles
    if (peak := max(last_cycle, *_frontier_terms(last_cycle, layer))) > _INT64_BOUND:
        raise SizeLimitError(f"paper_offset's pointer model reaches {peak}, above its int64 "
                             f"bound of {_INT64_BOUND}")
    gap, step = 0, _PAPER_SLICE * layer.c_out
    for b0 in range(layer.c_out - 1, layer.m_out, step):
        last = np.arange(b0, min(b0 + step, layer.m_out), layer.c_out, dtype=np.int64)
        gap = max(gap, int((last - read_pointer_at(last * layer.block_cycles, layer)).max()))
    return 1 + gap


def _axis_terms(n_in: int, k: int, s: int, p: int, n_out: int, a: int, b: int):
    """Candidates for the largest ``a*j(i) - b*i`` over the read indices ``i``.

    Window ``j`` covers ``[j*s - p, j*s - p + k)`` and ``j(i) = min(n_out - 1,
    (i + p) // s)`` is the last window reading ``i``.  For a fixed ``j`` the
    term is largest at the smallest index ``j`` reads last, ``max(0, j*s - p)``.
    The windows that are last for some index run from ``j(0)`` to
    ``j(n_in - 1)``, and only ``j(0)`` can lie below ``ceil(p/s)``; its
    smallest index is 0, which counts only if that window still reaches it.
    For ``j >= ceil(p/s)`` the index is ``j*s - p``, always read, so the term
    is linear in ``j`` and peaks at either end of the range.  An empty list
    means no index along the axis is read.
    """
    j0 = min(n_out - 1, p // s)
    terms = [a * j0] if j0 * s - p + k > 0 else []
    lo, hi = _ceildiv(p, s), min(n_out - 1, (n_in - 1 + p) // s)
    if lo <= hi:
        terms += [(a - b * s) * j + b * p for j in (lo, hi)]
    return terms


def min_offset(layer: LayerSpec) -> int:
    """Smallest safe distance (words) from output base up to input base.

    Output word ``e`` lands ``e - d`` words above the input base and commits
    when its window ``e // c_out`` finishes, so an input word at address
    ``a`` whose last reading window is ``w`` needs ``d >= c_out * w - a``.
    The last window reading pixel ``(y, x)`` is ``ly(y) * x_out + lx(x)``
    and channel 0 has the pixel's lowest address, so the maximum over all
    words separates into a row term and a column term, each the maximum of
    at most three candidates along its axis (see ``_axis_terms``), so the
    cost does not grow with the image.  The result is floored at one word
    (strict separation); an axis with no index read leaves it at one.  A
    residual carry sits above the input and stays live all layer, so the
    last output word must land below it: ``d >= m_out - x_in*y_in*c_in``.

    Only the fields are read, so a plain namespace of them will do, as
    ``benchmarks/workloads.py`` passes.
    """
    x_out = _out_size(layer.x_in, layer.k_x, layer.s_x, layer.p_x)
    y_out = _out_size(layer.y_in, layer.k_y, layer.s_y, layer.p_y)
    rows = _axis_terms(layer.y_in, layer.k_y, layer.s_y, layer.p_y, y_out,
                       layer.c_out * x_out, layer.x_in * layer.c_in)
    cols = _axis_terms(layer.x_in, layer.k_x, layer.s_x, layer.p_x, x_out,
                       layer.c_out, layer.c_in)
    d = max(1, max(rows) + max(cols)) if rows and cols else 1
    if layer.residual_carry_words:
        d = max(d, x_out * y_out * layer.c_out - layer.x_in * layer.y_in * layer.c_in)
    return d

