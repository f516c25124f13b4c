"""Shared pytest plumbing: the acceptance suite's per-criterion summary, a
square-layer builder, a block-by-block reference for the paper's offset,
literal loop-nest references for the oracle and executor tests, and a
cell-by-cell reference for the memory map."""

import numpy as np

from actplan import ClobberError, LayerSpec
from actplan.pointer import _frontier

acceptance_lines = []


def record_criterion(line: str) -> None:
    acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)


def square(edge, c_in=1, k=1, s=1, p=0, c_out=1, groups=1, carry=0):
    """A layer with equal width and height, kernel, stride and padding."""
    return LayerSpec(x_in=edge, y_in=edge, c_in=c_in, k_x=k, k_y=k, s_x=s, s_y=s,
                     p_x=p, p_y=p, c_out=c_out, groups=groups, residual_carry_words=carry)


def paper_offset_reference(layer):
    """The paper's offset from the pointer model at every block start: a
    reference for ``paper_offset``, which evaluates only a few windows' last
    blocks per output row.  The frontier is built once per layer and clamped
    as ``read_pointer_at`` clamps it."""
    frontier, cycles = _frontier(layer), layer.block_cycles
    gap = 0
    for k in range(layer.m_out):
        advance, pullback = frontier(k * cycles)
        gap = max(gap, k - max(0, advance - pullback))
    return gap + 1


def loop_nest_trace(layer):
    """Every read and write of a layer, from the literal six-loop nest.

    An independent reference for the oracle tests.  ``reads`` holds
    ``(block, input address)`` pairs in execution order; ``writes`` holds one
    ``(block, output word)`` pair per block, and block ``k`` writes word ``k``.
    """
    x_out = (2 * layer.p_x + layer.x_in - layer.k_x) // layer.s_x + 1
    y_out = (2 * layer.p_y + layer.y_in - layer.k_y) // layer.s_y + 1
    cpg_in = layer.c_in // layer.groups
    cpg_out = layer.c_out // layer.groups
    reads, writes = [], []
    k = 0
    for oy in range(y_out):
        for ox in range(x_out):
            for co in range(layer.c_out):
                c_base = co // cpg_out * cpg_in
                for ky in range(layer.k_y):
                    y = oy * layer.s_y - layer.p_y + ky
                    if not 0 <= y < layer.y_in:
                        continue
                    for kx in range(layer.k_x):
                        x = ox * layer.s_x - layer.p_x + kx
                        if not 0 <= x < layer.x_in:
                            continue
                        addr = (y * layer.x_in + x) * layer.c_in + c_base
                        reads.extend((k, addr + c) for c in range(cpg_in))
                writes.append((k, k))
                k += 1
    return tuple(reads), tuple(writes)


def last_reading_windows(layer):
    """Each convolution input word's last reading window in the literal
    trace, -1 where no window reads it."""
    reads, _ = loop_nest_trace(layer)
    last = {}
    for k, addr in reads:
        last[addr] = max(last.get(addr, -1), k // layer.c_out)
    return [last.get(a, -1) for a in range(layer.y_in * layer.x_in * layer.c_in)]


def exhaustive(layer):
    """Least offset ``d >= 0`` whose writes never land on a word a later
    window still reads, searched one ``d`` at a time over the literal trace:
    an independent reference for the oracle's unfloored minimum."""
    reads, writes = loop_nest_trace(layer)
    last_window = {}
    for k, addr in reads:
        last_window[addr] = k // layer.c_out
    m_in = layer.x_in * layer.y_in * layer.c_in
    for d in range(m_in + len(writes) + 1):
        if all(last_window.get(k - d, -1) <= k // layer.c_out
               for k, _ in writes if 0 <= k - d < m_in):
            return d
    raise AssertionError("no safe offset found")


def loop_nest_exec(net, plan, x, weights, checked=False):
    """In-arena execution stepped one MAC at a time, window by window.

    An independent reference for the vectorized executor: Python-int
    accumulators wrapped to int64 at commit and a dict from each live word
    to its last reading window.  Raises ``ClobberError(layer, block,
    address, window, last_reader)`` at the first write onto a word that a
    later window still reads (carry words are live all layer).
    """
    size = plan.arena_size
    arena = np.zeros(size, dtype=np.int64)
    flat = np.asarray(x, dtype=np.int64).reshape(-1)
    for a in range(flat.size):
        arena[(plan.layer_plans[0].input_base + a) % size] = flat[a]
    for idx, (layer, (w, b), lp) in enumerate(zip(net.layers, weights, plan.layer_plans)):
        x_out = (2 * layer.p_x + layer.x_in - layer.k_x) // layer.s_x + 1
        y_out = (2 * layer.p_y + layer.y_in - layer.k_y) // layer.s_y + 1
        cpg_in = layer.c_in // layer.groups
        cpg_out = layer.c_out // layer.groups
        m_conv = layer.y_in * layer.x_in * layer.c_in
        live = {}
        reads, _ = loop_nest_trace(layer)
        for k, addr in reads:
            live[(lp.input_base + addr) % size] = k // layer.c_out
        for a in range(m_conv, m_conv + layer.residual_carry_words):
            live[(lp.input_base + a) % size] = x_out * y_out
        w_idx = 0
        for y_out_ in range(y_out):
            y0 = y_out_ * layer.s_y - layer.p_y
            for x_out_ in range(x_out):
                x0 = x_out_ * layer.s_x - layer.p_x
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
                                acc += int(arena[(lp.input_base + a + c) % size]) * int(
                                    w[c_out, k_y, k_x, c])
                    outs.append(acc)
                # all outputs of this window commit after its final read
                for c_out, val in enumerate(outs):
                    k = w_idx * layer.c_out + c_out
                    word = (lp.output_base + k) % size
                    if checked:
                        last = live.pop(word, -1)
                        if last > w_idx:
                            raise ClobberError(idx, k, word, w_idx, last)
                    arena[word] = (val + 2**63) % 2**64 - 2**63
                w_idx += 1
    last = net.layers[-1]
    x_out = (2 * last.p_x + last.x_in - last.k_x) // last.s_x + 1
    y_out = (2 * last.p_y + last.y_in - last.k_y) // last.s_y + 1
    words = [arena[(plan.layer_plans[-1].output_base + e) % size]
             for e in range(x_out * y_out * last.c_out)]
    return np.array(words, dtype=np.int64).reshape(y_out, x_out, last.c_out)


def _covers(cell_lo, cell_hi, start, length, size):
    """Does the circular interval [start, start+length) touch [cell_lo, cell_hi)?"""
    if length >= size:
        return True
    end = (start + length) % size
    if start < end:
        return cell_lo < end and cell_hi > start
    return cell_lo < end or cell_hi > start


def memory_map_reference(plan):
    """The memory map drawn one cell at a time, testing each cell against
    each region: an independent reference for ``render_memory_map``."""
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
