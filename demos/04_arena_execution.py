"""Prove a plan by executing it: same bits in one arena, clobber when forced.

A random five-layer chain runs twice, once with plain double buffering and
once inside the planned arena.  The outputs agree to the bit.  Replaying
with the tightest layer's offset pushed below the lifetime minimum trips
the checked executor at the first write onto a word still due to be read.
"""

import random

import numpy as np

from actplan import (
    ClobberError,
    execute_network_in_arena,
    execute_network_reference,
    plan_network,
    plan_with_offsets,
    random_network,
    seeded_test_vectors,
    tightest_layer,
    verify_layer,
)

net = random_network(random.Random(2022))
plan = plan_network(net)
x, weights = seeded_test_vectors(net, seed=2022)

print(f"network: {len(net.layers)} layers, arena {plan.arena_size} words, "
      f"ping-pong {plan.pingpong_size} words")

ref = execute_network_reference(net, x, weights)
got = execute_network_in_arena(net, plan, x, weights, checked=True)
print("in-arena vs reference:", "bit-exact" if np.array_equal(ref, got) else "MISMATCH")

tight = tightest_layer(plan)
floor = verify_layer(net.layers[tight]).d_oracle
offsets = [lp.d for lp in plan.layer_plans]
offsets[tight] = floor - 1
print(f"\nlowering layer {tight + 1}'s offset below the lifetime "
      f"minimum ({floor} -> {floor - 1}):")
bad = plan_with_offsets(net, offsets, arena_size=plan.arena_size)
try:
    execute_network_in_arena(net, bad, x, weights, checked=True)
    print("no clobber (layer was floor-bound)")
except ClobberError as exc:
    print(f"caught: {exc}")
