"""Plan the bundled 20-layer denoiser and render its memory map.

The 640x640, 64-feature stack is where overlapping shines: every interior
layer needs just one padded row of slack between the regions, so the arena
is barely over half the ping-pong footprint.
"""

from actplan import (
    bundled_network_path,
    parse_network_file,
    plan_network,
    render_memory_map,
    render_plan_text,
)

net = parse_network_file(bundled_network_path("dmcnn_vd"))
plan = plan_network(net)
print(render_plan_text(plan))

small = parse_network_file(bundled_network_path("dmcnn_vd_64"))
print("the same stack at 64x64, as a picture of region placement:\n")
print(render_memory_map(plan_network(small)))
print("\ni = this layer's input region, o = its output region, x = overlap")
