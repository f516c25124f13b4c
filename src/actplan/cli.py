"""Command line surface.

Subcommands:

* ``plan <file>``    compute the arena plan and savings report for a network
* ``verify <file>``  check each layer's closed-form offset against the
                     brute-force lifetime minimum, beside the paper's
                     pointer-model offset
* ``sweep``          exhaustive layer sweep plus randomized in-arena
                     execution of seeded networks
* ``exec <file>``    run a network in-arena against the two-buffer reference
                     on seeded random data
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ActplanError, ClobberError, SizeLimitError
from .netfile import parse_network_file
from .planner import plan_network, plan_with_offsets, tightest_layer
from .pointer import paper_offset
from .report import plan_to_json, render_plan_text

# ``verify``, ``sweep`` and ``exec`` import the modules that compute with
# numpy, the oracle and the sweeps, when they run, so that ``plan`` does not
# load numpy.


def _int_at_least(low: int):
    """An argparse type: an integer no less than ``low``."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def _cmd_plan(args) -> int:
    net = parse_network_file(args.file)
    plan = plan_network(net)
    if args.format == "json":
        print(plan_to_json(plan))
    else:
        print(render_plan_text(plan, memory_map=args.ascii_map), end="")
    return 0


# what ``verify`` prints after each layer's number, by verdict
_VERDICT_TEXT = {
    "skipped": "skipped ({detail})",
    "match": "match (d={d_closed_form}, paper {d_paper})",
    "closed_form_conservative": "conservative (closed {d_closed_form}, minimum {d_oracle}, "
                                "gap {gap}, paper {d_paper})",
    "UNSAFE": "UNSAFE (closed {d_closed_form} < minimum {d_oracle}, paper {d_paper})",
}


def _cmd_verify(args) -> int:
    from .oracle import verify_layer

    net = parse_network_file(args.file)
    rows = []
    for i, layer in enumerate(net.layers):
        try:
            rep = verify_layer(layer)
        except SizeLimitError as exc:
            rows.append({"layer": i + 1, "verdict": "skipped", "detail": str(exc)})
            continue
        row = {
            "layer": i + 1,
            "verdict": rep.verdict,
            "d_closed_form": rep.d_closed_form,
            "d_oracle": rep.d_oracle,
            "d_paper": paper_offset(layer),
        }
        if rep.verdict == "closed_form_conservative":
            row["gap"] = rep.gap
        rows.append(row)
    if args.format == "json":
        print(json.dumps({"name": net.name, "layers": rows}, indent=2))
    else:
        for row in rows:
            print(f"layer {row['layer']:>3}: " + _VERDICT_TEXT[row["verdict"]].format(**row))
    return 1 if any(row["verdict"] == "UNSAFE" for row in rows) else 0


def _cmd_sweep(args) -> int:
    from .sweep import run_exec_sweep, run_layer_sweep

    summary = run_layer_sweep()
    ex = run_exec_sweep(seed=args.seed)
    lines = [
        f"layer sweep: {summary.total} configurations",
        f"  match         {summary.match}",
        f"  conservative  {summary.conservative} (max gap {summary.max_gap} words)",
        f"  UNSAFE        {summary.unsafe}",
    ]
    if summary.first_unsafe is not None:
        lines.append(f"  first unsafe config: {summary.first_unsafe}")
    elif summary.first_conservative is not None:
        lines.append(f"  first conservative config: {summary.first_conservative}")
    lines += [
        f"execution sweep: {ex.networks} seeded networks (seed {args.seed})",
        f"  bit-exact in-arena           {ex.bit_exact}/{ex.networks}",
        f"  bit-exact at oracle offsets  {ex.oracle_plan_bit_exact}/{ex.networks}",
        f"  clobber when lowered below the lifetime minimum: "
        f"{ex.tight_probe_clobbers}/{ex.tight_probes}",
    ]
    if ex.mismatches:
        lines.append(f"  first mismatching network: {ex.mismatches[0]}")
    print("\n".join(lines))
    bad = (summary.unsafe > 0 or ex.bit_exact < ex.networks
           or ex.oracle_plan_bit_exact < ex.networks
           or ex.tight_probe_clobbers < ex.tight_probes)
    return 1 if bad else 0


def _cmd_exec(args) -> int:
    import numpy as np

    from .oracle import (
        DEFAULT_CYCLE_CAP,
        execute_network_in_arena,
        execute_network_reference,
        seeded_test_vectors,
    )

    cycle_cap = DEFAULT_CYCLE_CAP if args.cycle_cap is None else args.cycle_cap
    net = parse_network_file(args.file)
    plan = plan_network(net)
    if args.corrupt_offset:
        offsets = [lp.d for lp in plan.layer_plans]
        tightest = tightest_layer(plan)
        offsets[tightest] = max(0, offsets[tightest] - args.corrupt_offset)
        print(f"corrupting layer {tightest + 1}: offset {plan.layer_plans[tightest].d} "
              f"-> {offsets[tightest]}")
        plan = plan_with_offsets(net, offsets, arena_size=plan.arena_size)
    x, weights = seeded_test_vectors(net, seed=args.seed)
    ref = execute_network_reference(net, x, weights, cycle_cap=cycle_cap)
    try:
        got = execute_network_in_arena(net, plan, x, weights, checked=args.checked,
                                       cycle_cap=cycle_cap)
    except ClobberError as exc:
        print(f"CLOBBER: {exc}")
        return 1
    if np.array_equal(ref, got):
        print(f"bit-exact: in-arena output matches reference "
              f"({ref.size} words, seed {args.seed})")
        return 0
    print("MISMATCH: in-arena output differs from reference")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actplan",
        description="Plan and verify overlapped activation buffers for layer-wise CNN inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="arena plan and savings report for a network file")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--ascii-map", action="store_true",
                   help="append a per-layer memory map to the text report")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("verify", help="closed form vs. brute-force minimum, per layer")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="exhaustive layer sweep and randomized execution")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("exec", help="in-arena vs. reference execution on seeded data")
    p.add_argument("file")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--checked", action="store_true",
                   help="stop at the first early write, onto a word still due to be read, "
                        "and report it")
    p.add_argument("--cycle-cap", type=_int_at_least(1),  # None: DEFAULT_CYCLE_CAP
                   help="refuse networks needing more MAC cycles than this")
    p.add_argument("--corrupt-offset", type=_int_at_least(0), default=0, metavar="N",
                   help="lower the tightest layer's offset by N before executing")
    p.set_defaults(func=_cmd_exec)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "plan" and args.format == "json" and args.ascii_map:
        # the map is drawn only in the text report
        parser.error("argument --ascii-map: not allowed with argument --format json")
    try:
        return args.func(args)
    except ActplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
