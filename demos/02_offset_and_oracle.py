"""Planned offsets, the paper's pointer model and the brute-force minimum.

The planner's separable formula is exact: it equals the lifetime minimum on
every layer.  The paper's pointer model guards the frontier through a
layer's final window, so it spends extra words where writes outpace the
frontier near the end, and it falls below the minimum, which would lose
data, when the padding exceeds the stride.
"""

from actplan import LayerSpec, paper_offset, verify_layer

shapes = [
    ("pointwise, one channel (lockstep)",
     LayerSpec(4, 4, 1, 1, 1, 1, 1, 0, 0, 1)),
    ("3x3 same padding, one channel",
     LayerSpec(4, 4, 1, 3, 3, 1, 1, 1, 1, 1)),
    ("3x3 same padding, 2 -> 2 channels",
     LayerSpec(5, 5, 2, 3, 3, 1, 1, 1, 1, 2)),
    ("channel doubling on a 2x2 image",
     LayerSpec(2, 2, 1, 1, 1, 1, 1, 0, 0, 2)),
    ("depthwise 3x3, 2 channels",
     LayerSpec(5, 5, 2, 3, 3, 1, 1, 1, 1, 2, groups=2)),
    ("pointwise, 3 -> 3 channels",
     LayerSpec(4, 4, 3, 1, 1, 1, 1, 0, 0, 3)),
    ("5x5 same padding (padding 2 > stride 1)",
     LayerSpec(4, 4, 1, 5, 5, 1, 1, 2, 2, 1)),
]

print(f"{'shape':44s} {'planned':>8} {'minimum':>8} {'paper':>6}  paper model")
for label, layer in shapes:
    rep = verify_layer(layer)
    paper = paper_offset(layer)
    note = "exact" if paper == rep.d_oracle else (
        f"{paper - rep.d_oracle} words spare" if paper > rep.d_oracle else "UNSAFE")
    print(f"{label:44s} {rep.d_closed_form:>8} {rep.d_oracle:>8} {paper:>6}  {note}")

print("\nThe planned offset matches the minimum on every shape; `actplan verify`")
print("prints the paper model's offset beside it as d_paper.")
