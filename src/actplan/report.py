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
    """Short k/M form with one decimal, as used in result tables."""
    if words >= 10**6:
        return f"{words / 10**6:.1f}M"
    if words >= 10**3:
        return f"{words / 10**3:.1f}k"
    return str(words)


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
        lines.append("")
        lines.extend(render_memory_map(plan).splitlines())
    return "\n".join(lines) + "\n"


def _covers(cell_lo: int, cell_hi: int, start: int, length: int, size: int) -> bool:
    """Does the circular interval [start, start+length) touch [cell_lo, cell_hi)?"""
    if length >= size:
        return True
    end = (start + length) % size
    if start < end:
        return cell_lo < end and cell_hi > start
    return cell_lo < end or cell_hi > start


def render_memory_map(plan: MemoryPlan) -> str:
    """One bar per layer: i = input, o = output, x = both in that arena slice."""
    size = plan.arena_size
    width = min(64, size)
    out = [f"memory map ({size:,} words, {width} cells of ~{size / width:.0f} words)"]
    for lp in plan.layer_plans:
        cells = []
        for j in range(width):
            lo = j * size // width
            hi = (j + 1) * size // width
            has_in = _covers(lo, hi, lp.input_base, lp.m_in, size)
            has_out = _covers(lo, hi, lp.output_base, lp.m_out, size)
            cells.append("x" if has_in and has_out else "i" if has_in else "o" if has_out else ".")
        out.append(f"layer {lp.index + 1:>3} |{''.join(cells)}|")
    return "\n".join(out)
