"""Plan reports: JSON, human-readable tables and memory maps."""

from __future__ import annotations

import json

from .planner import MemoryPlan


def plan_to_json(plan: MemoryPlan) -> str:
    """The plan's fields as indented JSON, with ``layer_plans`` listed last as ``layers``."""
    doc = dict(vars(plan))
    doc["layers"] = [vars(lp) for lp in doc.pop("layer_plans")]
    return json.dumps(doc, indent=2)


def _humanize_words(words: int) -> str:
    """Short k/M form with one decimal, as used in result tables.

    The unit is chosen after rounding, so 999,950 words print as 1.0M, not
    1000.0k.
    """
    if words < 10**3:
        return str(words)
    if round(words / 10**3, 1) < 10**3:
        return f"{words / 10**3:.1f}k"
    return f"{words / 10**6:.1f}M"


def render_plan_text(plan: MemoryPlan, memory_map: bool = False) -> str:
    lines = [
        f"network          {plan.name}",
        f"arena            {plan.arena_size:,} words ({_humanize_words(plan.arena_size)})",
        f"ping-pong        {plan.pingpong_size:,} words ({_humanize_words(plan.pingpong_size)})",
        f"parameters       {plan.parameter_words:,} words ({_humanize_words(plan.parameter_words)})",
        f"savings          {plan.savings_activations_pct:.1f}% activations, "
        f"{plan.savings_total_pct:.1f}% total",
        "",
        f"{'layer':>5} {'m_in':>12} {'m_out':>12} {'d':>10} {'m_min':>12} "
        f"{'in_base':>10} {'out_base':>10}",
    ]
    for lp in plan.layer_plans:
        lines.append(
            f"{lp.index + 1:>5} {lp.m_in:>12,} {lp.m_out:>12,} {lp.d:>10,} "
            f"{lp.m_min_layer:>12,} {lp.input_base:>10,} {lp.output_base:>10,}"
        )
    if memory_map:
        lines += ["", render_memory_map(plan)]
    return "\n".join(lines) + "\n"


# output over a bar already marked with inputs: free cells become o, input cells x
_MARK_OUTPUT = bytes.maketrans(b".i", b"ox")


def _cell_runs(base: int, length: int, size: int, width: int) -> list:
    """The cells ``[first, stop)`` that the circular region ``[base, base+length)``
    touches, one run for each of its at most two linear spans.

    Cell ``j`` covers words ``[j*size//width, (j+1)*size//width)``, so word
    ``w`` lies in cell ``((w+1)*width - 1) // size``, the last cell starting
    at or below it.
    """
    if length >= size:
        return [(0, width)]
    end = base + length
    spans = [(base, end)] if end <= size else [(base, size), (0, end - size)]
    return [(((a + 1) * width - 1) // size, (b * width - 1) // size + 1) for a, b in spans]


def render_memory_map(plan: MemoryPlan) -> str:
    """One bar per layer: i = input, o = output, x = both in that arena slice.

    Cell ``j`` of ``width`` covers words ``[j*size//width, (j+1)*size//width)``
    and shows every region that touches any of its words.
    """
    size = plan.arena_size
    width = min(64, size)
    out = [f"memory map ({size:,} words, {width} cells of ~{size / width:.0f} words)"]
    for lp in plan.layer_plans:
        bar = bytearray(b"." * width)
        for first, stop in _cell_runs(lp.input_base, lp.m_in, size, width):
            bar[first:stop] = b"i" * (stop - first)
        for first, stop in _cell_runs(lp.output_base, lp.m_out, size, width):
            bar[first:stop] = bar[first:stop].translate(_MARK_OUTPUT)
        out.append(f"layer {lp.index + 1:>3} |{bar.decode()}|")
    return "\n".join(out)
