"""The paper's pointer model of an overlapped layer, kept for comparison with the plans.

The paper models a layer with two pointers over the MAC cycle counter ``t``
(one multiply-accumulate per cycle): block ``k`` of ``block_cycles`` cycles
writes output word ``k``, and the read frontier -- the lowest input address
that any upcoming window still needs -- advances ``s_x * c_in`` words per
window step, skips rows according to ``s_y``, starts below zero when the top
rows are padding and is pulled back when the window run-out at the right edge
exceeds the image.  ``read_pointer_at`` is the frontier in exact integer
floor/ceil arithmetic, and ``paper_offset`` is the offset the paper's
equations give: the model evaluated at each window's last block, at a few
candidate windows per output row.  Plans use
:func:`actplan.model.min_offset` instead.
"""

from __future__ import annotations

from .model import LayerSpec


def read_pointer_at(t: int, layer: LayerSpec) -> int:
    """Lowest input address still needed by upcoming windows, at cycle ``t``.

    Built from four integer terms: the x advance of the window (one
    ``s_x * c_in`` step per window), the extra row skip for ``s_y > 1``, a
    constant credit for the top padding rows that hold no data, and a pullback
    for windows that run out over the right edge.  The whole expression is
    clamped at zero: while the window still covers top padding the frontier
    sits at the start of the input.

    Note the pullback term applies from the first cycle after a row starts
    (ceil semantics), so for layers whose window run-out is nonzero the value
    can dip briefly at row boundaries before the x advance catches up; the
    dip only ever makes the frontier more cautious.
    """
    if t < 0:
        raise ValueError("cycle index must be >= 0")
    advance, pullback = _frontier(layer)(t)
    return max(0, advance - pullback)


def _frontier(layer: LayerSpec):
    """The frontier's advance (x and y terms) and pullback (top padding and
    side terms) as a function of cycle ``t``; neither decreases as ``t``
    grows."""
    x_out = layer.x_out
    window = layer.c_out * layer.block_cycles
    row = x_out * window
    x_step = layer.s_x * layer.c_in
    y_skip = (layer.s_y - 1) * layer.c_in * layer.x_in
    top_pad = layer.p_y * layer.c_in * layer.x_in
    side = max(0, (x_out * layer.s_x - layer.x_in) * x_step)

    def terms(t: int) -> tuple[int, int]:
        # the side term counts the rows started by cycle t: -(-t // row) of them
        return (t // window) * x_step + (t // row) * y_skip, top_pad - (-t // row) * side
    return terms


def paper_offset(layer: LayerSpec) -> int:
    """The paper's offset: one word above the largest write - read gap.

    Evaluates the pointer model with both pointers starting at 0 and returns
    the least ``d >= 1`` that keeps the write pointer strictly below the
    read frontier at every block start.  Within one window the frontier is
    constant, except at a row's first block, where it is no lower, so each
    window's largest gap is at its last block.  Along one output row, past
    window ``ox = 0``, the pullback is constant and the advance grows by
    ``s_x * c_in`` per window, so that gap, ``min(last, last - advance +
    pullback)``, is the smaller of two terms linear in ``ox``: the row's
    largest gap lies at ``ox`` in ``{0, 1, x_out - 1}`` or at the two windows
    beside the point where ``advance - pullback`` crosses zero.  Python ints
    do not wrap, so this is exact at any size, in O(``y_out``) time and O(1)
    memory.  This is the paper's model, kept for comparison; plans use
    :func:`min_offset`.
    """
    terms = _frontier(layer)
    x_out, c_out, block_cycles = layer.x_out, layer.c_out, layer.block_cycles
    gap = 0
    for oy in range(layer.y_out):
        first = oy * x_out  # the row's first window
        last = (first + x_out) * c_out - 1  # the row's last block
        advance, pullback = terms(last * block_cycles)
        gap = max(gap, min(last, last - advance + pullback))
        # back along the row advance - pullback falls by s_x * c_in per
        # window: it crosses zero between windows ``cross`` and ``cross + 1``
        cross = x_out - 1 + (pullback - advance) // (layer.s_x * layer.c_in)
        for ox in (0, 1, cross, cross + 1):
            if 0 <= ox < x_out - 1:
                last = (first + ox + 1) * c_out - 1
                advance, pullback = terms(last * block_cycles)
                gap = max(gap, min(last, last - advance + pullback))
    return 1 + gap
