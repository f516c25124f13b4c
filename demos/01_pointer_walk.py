"""Watch the paper's two pointers chase each other through one layer.

A 4x4 image under a same-padded 3x3 kernel: in the paper's pointer model the
output region starts five words below the input region and the write pointer
never catches the read frontier.  Each row below is one output block (one
produced word).  Here the model's offset equals the exact lifetime minimum
that the planner uses.
"""

from actplan import (
    LayerSpec,
    derive_dims,
    min_offset,
    paper_offset,
    read_pointer_at,
)

layer = LayerSpec(x_in=4, y_in=4, c_in=1, k_x=3, k_y=3, s_x=1, s_y=1,
                  p_x=1, p_y=1, c_out=1)
dd = derive_dims(layer)
d = paper_offset(layer)

print(f"layer: 4x4 image, 3x3 kernel, same padding")
print(f"block = {dd.block_cycles} MAC cycles, {dd.m_out} output blocks")
print(f"pointer-model offset d = {d} words (planned offset {min_offset(layer)}), "
      f"pair footprint = {dd.m_in + d} words (ping-pong would use {dd.m_in + dd.m_out})\n")

span = dd.m_in + d
print(f"{'block':>5} {'cycle':>6} {'write':>6} {'read':>5}   arena [{-d} .. {dd.m_in})")
for k in range(dd.m_out):
    t = k * dd.block_cycles
    pw = k - d  # block k writes output word k, d words below the input base
    pr = read_pointer_at(t, layer)
    cells = []
    for a in range(-d, dd.m_in):
        if a == pw:
            cells.append("W")
        elif a == pr:
            cells.append("R")
        elif pw < a < pr:
            cells.append("-")   # the safety gap
        elif a < pw:
            cells.append("o")   # committed outputs
        else:
            cells.append("i")   # input still ahead of the frontier
    print(f"{k:>5} {t:>6} {pw:>6} {pr:>5}   |{''.join(cells)}|")

print("\nW = pending write, R = read frontier, o = written outputs,")
print("i = input data the frontier has not released yet, - = gap")
