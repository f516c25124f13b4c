"""Layer geometry, its derived sizes and the closed-form offset for overlapping buffers.

A convolution layer whose activations are stored depth-first (all channels of
a pixel, then pixels along x, then rows along y) reads its input through a
sliding window that only moves forward in memory.  Addresses behind the
window are dead and can be recycled for output words, so the output region of
a layer may start *below* the input region and chase it upward.

``min_offset`` is the exact lifetime minimum, a separable formula over the
last window that reads each input row and column, evaluated at no more than
two windows per axis; the planner turns it into each layer's joint footprint
``max(m_in + d, m_out)``.  Plans do not use the paper's pointer model, which
lives in :mod:`actplan.pointer`.  This module is pure Python, so planning
does not load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidLayerError


# Each field with its least value, in the order LayerSpec checks them.
_FIELD_FLOORS = (("x_in", 1), ("y_in", 1), ("c_in", 1), ("k_x", 1), ("k_y", 1), ("s_x", 1),
                 ("s_y", 1), ("c_out", 1), ("groups", 1), ("p_x", 0), ("p_y", 0),
                 ("residual_carry_words", 0))


@dataclass(frozen=True, init=False)
class LayerSpec:
    """Geometry of one convolution layer.

    ``groups`` models grouped/depthwise convolution (``groups == c_in`` is
    depthwise): it divides the per-output MAC count but leaves address
    strides untouched, because all ``c_in`` channels of a pixel still occupy
    consecutive words.  ``residual_carry_words`` reserves extra live words
    (identity/skip data) that must survive this layer; they sit directly
    above the convolution input and enlarge its footprint only.

    An instance is built in one step: ``__init__`` writes every field into
    the instance dict with one update (a frozen dataclass's generated
    ``__init__`` pays one ``object.__setattr__`` per field), then checks the
    fields in one pass: each an ``int`` (not a ``bool``) of at least 1, or 0
    for the paddings and the carry, then that each kernel fits its padded
    edge, then that ``groups`` divides both channel counts.  The first
    failure raises :class:`InvalidLayerError`.  Equality, hashing, ``repr``
    and ``dataclasses.replace`` (which checks again) are the dataclass's.

    The derived sizes ``x_out``, ``y_out``, ``m_in``, ``m_out`` and
    ``block_cycles`` are read-only properties, computed on each access, so
    ``vars(layer)`` still holds the fields alone.
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

    def __init__(self, x_in, y_in, c_in, k_x, k_y, s_x, s_y, p_x, p_y, c_out, groups=1,
                 residual_carry_words=0):
        fields = vars(self)
        fields.update(x_in=x_in, y_in=y_in, c_in=c_in, k_x=k_x, k_y=k_y, s_x=s_x, s_y=s_y,
                      p_x=p_x, p_y=p_y, c_out=c_out, groups=groups,
                      residual_carry_words=residual_carry_words)
        for name, least in _FIELD_FLOORS:
            v = fields[name]
            # an exact int skips both isinstance calls
            if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)) or v < least:
                raise InvalidLayerError(f"{name} must be an integer >= {least}, got {v!r}")
        if k_x > x_in + 2 * p_x:
            raise InvalidLayerError(f"kernel k_x={k_x} exceeds padded width {x_in + 2 * p_x}")
        if k_y > y_in + 2 * p_y:
            raise InvalidLayerError(f"kernel k_y={k_y} exceeds padded height {y_in + 2 * p_y}")
        if c_in % groups or c_out % groups:
            raise InvalidLayerError(
                f"groups={groups} must divide c_in={c_in} and c_out={c_out}"
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


def axes(layer) -> tuple:
    """The layer's rows and columns as ``(n_in, k, s, p, n_out)``; reads its fields only."""
    y_in, k_y, s_y, p_y = layer.y_in, layer.k_y, layer.s_y, layer.p_y
    x_in, k_x, s_x, p_x = layer.x_in, layer.k_x, layer.s_x, layer.p_x
    return ((y_in, k_y, s_y, p_y, _out_size(y_in, k_y, s_y, p_y)),
            (x_in, k_x, s_x, p_x, _out_size(x_in, k_x, s_x, p_x)))


def _axis_term(axis: tuple, a: int, b: int):
    """The largest ``a*j - b*i`` over an axis's (window ``j``, index ``i``)
    reads, where window ``j`` covers ``[j*s - p, j*s - p + k)``, or ``None``
    when no index along the axis is read: window ``j0`` of ``min_offset``'s
    argument, or the end of the linear piece ``lo..hi`` that its slope
    ``a - b*s`` favours, each at its smallest index.
    """
    n_in, k, s, p, n_out = axis
    last, j0, lo, hi = n_out - 1, p // s, -(-p // s), (n_in - 1 + p) // s
    if j0 > last:  # comparisons, not min(): this runs twice per planned layer
        j0 = last
    if hi > last:
        hi = last
    term = a * j0 if j0 * s - p + k > 0 else None
    if lo <= hi:
        slope = a - b * s
        line = slope * (hi if slope > 0 else lo) + b * p
        if term is None or line > term:
            term = line
    return term


def min_offset(layer: LayerSpec) -> int:
    """Smallest safe distance (words) from output base up to input base.

    Output word ``e`` lands ``e - d`` words above the input base and commits
    when its window ``e // c_out`` finishes, so an input word at address
    ``a`` whose last reading window is ``w`` needs ``d >= c_out * w - a``.
    Window ``oy * x_out + ox`` reads pixel ``(y, x)`` when it reads row ``y``
    and column ``x``, and channel 0 has the pixel's lowest address, so the
    maximum over all words is a row term plus a column term, each the largest
    ``a*j - b*i`` over one axis's (window, index) reads, ``a, b > 0``.  Over
    window ``j``'s reads it is largest at the smallest index ``max(0, j*s - p)``,
    so the term is the largest ``f(j) = min(a*j, (a - b*s)*j + b*p)`` over the
    reading windows, an interval.  ``f`` is the minimum of two lines, so it is
    concave, rising up to ``p/s`` and linear from ``ceil(p/s)`` on: it peaks at
    the last reading window at or below ``p/s`` (``j0``), or at whichever end
    of the linear piece its slope ``a - b*s`` favours, ``ceil(p/s)`` (``lo``)
    or the last reading window (``hi``); ``_axis_term`` evaluates those two.
    That holds for every axis and channel count, at a cost that does not grow
    with the image.  The result is floored at one word (strict separation); an
    axis with no index read leaves it at one.  A residual carry sits above the
    input and stays live all layer, so the last output word must land below
    it: ``d >= m_out - x_in*y_in*c_in``.

    Only the fields are read, so a plain namespace of them will do, as
    ``benchmarks/workloads.py`` passes.
    """
    y, x = axes(layer)
    row = _axis_term(y, layer.c_out * x[4], x[0] * layer.c_in)
    col = _axis_term(x, layer.c_out, layer.c_in)
    d = 1 if row is None or col is None or row + col < 1 else row + col
    if layer.residual_carry_words:
        d = max(d, y[4] * x[4] * layer.c_out - y[0] * x[0] * layer.c_in)
    return d
