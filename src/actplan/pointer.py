"""The paper's pointer model of an overlapped layer, kept for comparison with the plans.

The paper models a layer with two pointers over the MAC cycle counter ``t``
(one multiply-accumulate per cycle): block ``k`` of ``block_cycles`` cycles
writes output word ``k``, and the read frontier -- the lowest input address
that any upcoming window still needs -- advances ``s_x * c_in`` words per
window step, skips rows according to ``s_y``, starts below zero when the top
rows are padding and is pulled back when the window run-out at the right edge
exceeds the image.  ``read_pointer_at`` is the frontier in exact integer
floor/ceil arithmetic, and ``paper_offset`` is the offset the paper's
equations give: the model evaluated at each window's last block, in fixed
slices of windows.  Plans use :func:`actplan.model.min_offset` instead.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeLimitError
from .model import LayerSpec

# Windows per slice in paper_offset: bounds its memory whatever the layer size.
_PAPER_SLICE = 1 << 16

# Windows in all for paper_offset, at about 40 ns each: bounds its time.
_PAPER_WINDOWS = 4_000_000_000

# Largest cycle or address paper_offset's int64 pointer model may reach: keeps
# every sum and difference of its terms exact.
_INT64_BOUND = 2**62


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
