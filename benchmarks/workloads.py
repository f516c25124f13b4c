"""The four workloads, each mirroring one ``actplan`` subcommand.

A workload is a fixed list of units, made from the seed.  One pass runs every
unit once through the same public functions the command calls (``run``), or
through the same functions split so that each module's share can be timed
(``run_traced``).  ``check`` compares a unit's result with the references in
``reference.py``, which share no code with the package, and classifies it.

Every input is pinned here rather than taken from a library default, so a
change to a default cannot silently change a workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import reference as ref
from actplan import (
    ClobberError,
    SizeLimitError,
    SweepBounds,
    SweepSummary,
    execute_network_in_arena,
    execute_network_reference,
    min_offset,
    packed_layers,
    parse_network_file,
    parse_network_text,
    plan_network,
    plan_to_json,
    plan_with_offsets,
    render_plan_text,
    run_exec_sweep,
    run_layer_sweep,
    sweep_layer_configs,
    verify_layer,
)

BUNDLED = ("dlib_face", "dmcnn_vd", "dmcnn_vd_64", "mobilenet_v2", "single_identity", "yolo_lite")
TINY_BUNDLED = ("dmcnn_vd_64", "single_identity")

# The `verify` and `exec` commands' default caps, pinned.
ORACLE_CYCLE_CAP = 4_000_000_000
EXEC_CYCLE_CAP = 20_000_000
# The plan check skips layers with more (window, tap) pairs than this.
REFERENCE_TAP_CAP = 50_000_000

# Padding up to 2 with kernels up to 5 reaches padding > stride, the regime
# where the closed form is unsafe; the command's default bounds stop short.
SWEEP_BOUNDS = SweepBounds(max_dim=6, max_kernel=5, max_stride=2, max_pad=2,
                           max_channels=3, grouped=True, packed=True)
SWEEP_NETWORKS = 60
TINY_SWEEP_BOUNDS = SweepBounds(max_dim=3, max_kernel=3, max_stride=2, max_pad=2,
                                max_channels=2, grouped=True, packed=True)

# Shapes come from a pinned seed and only the values from the run's seed: the
# Python executors' cost per MAC differs up to threefold between shapes, so a
# fresh shape draw per run would make throughput a property of the draw.
EXEC_SHAPE_SEED = 0
EXEC_NETWORKS = 16
EXEC_LAYERS = (2, 4)
EXEC_EDGE = (12, 20)
EXEC_CHANNELS = (4, 8)
EXEC_KERNELS = (1, 3, 5)
EXEC_VALUE_RANGE = (-8, 8)


@dataclass
class Outcome:
    """Classification of one unit's result against the references."""

    attempted: int
    failed: int = 0
    refused: int = 0
    problems: list = field(default_factory=list)  # disagreements with a reference
    ratios: list = field(default_factory=list)  # arena / ping-pong per planned unit
    counts: dict = field(default_factory=dict)  # per-layer counters


def equal(a, b) -> bool:
    """Structural equality that compares numpy arrays by value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(equal(x, y) for x, y in zip(a, b))
    return a == b


def pair_ratio(layer, d: int) -> float:
    """Arena over ping-pong words of a layer planned alone with offset ``d``."""
    _, _, _, m_in, m_out, _ = ref.dims(layer)
    return max(m_in + d, m_out) / (m_in + m_out)


class _Lifetimes:
    """Reference lifetime minima, computed once per distinct layer."""

    def __init__(self):
        self._cache = {}

    def __call__(self, layer):
        key = tuple(sorted(vars(layer).items()))
        if key not in self._cache:
            self._cache[key] = ref.lifetime_min_scatter(layer)
        return self._cache[key]


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.root = root
        self.seed = seed

    def units(self, pass_index: int) -> list:
        raise NotImplementedError

    def run(self, unit):
        raise NotImplementedError

    def run_traced(self, unit, tr):
        raise NotImplementedError

    def ops(self, unit, result):
        """Work counted by the throughput metric; None leaves the unit out of it."""
        return 1

    def attempts(self, unit) -> int:
        """Operations whose failure or refusal is counted."""
        return 1

    def check(self, unit, result) -> Outcome:
        raise NotImplementedError


class _BundledFiles(Workload):
    def __init__(self, root, seed, tiny):
        super().__init__(root, seed, tiny)
        names = TINY_BUNDLED if tiny else BUNDLED
        self.paths = {n: root / "src" / "actplan" / "networks" / f"{n}.net" for n in names}
        self.geometry = {}
        for n, p in self.paths.items():
            q, layers = ref.network_layers(p.read_text(encoding="utf-8"))
            self.geometry[n] = (q, layers, [ref.packed(layer, q) for layer in layers])
        self.lifetime = _Lifetimes()

    def units(self, pass_index):
        order = sorted(self.paths)
        random.Random(self.seed * 1_000_003 + pass_index).shuffle(order)
        return order

    def _reference_min(self, layer):
        """Lifetime minimum including residual carry; None above the tap cap."""
        x_out, y_out, _, _, _, _ = ref.dims(layer)
        if x_out * y_out * layer.k_x * layer.k_y > REFERENCE_TAP_CAP:
            return None
        return max(self.lifetime(layer), ref.carry_min(layer))


class PlanBundled(_BundledFiles):
    """``actplan plan`` on every bundled network file, both report formats."""

    name = "plan-bundled"

    def run(self, unit):
        net = parse_network_file(self.paths[unit])
        plan = plan_network(net)
        return plan, plan_to_json(plan), render_plan_text(plan, memory_map=True)

    def run_traced(self, unit, tr):
        net = tr.call("netfile.parse_network_file", parse_network_file, self.paths[unit])
        layers = tr.call("planner.packed_layers", packed_layers, net)
        offsets = [tr.call("model.min_offset", min_offset, layer) for layer in layers]
        plan = tr.call("planner.plan_with_offsets", plan_with_offsets, net, offsets)
        text_json = tr.call("report.plan_to_json", plan_to_json, plan)
        text = tr.call("report.render_plan_text", render_plan_text, plan, memory_map=True)
        return plan, text_json, text

    def check(self, unit, result):
        plan, text_json, text = result
        q, raw, layers = self.geometry[unit]
        out = Outcome(attempted=1, counts={"plan.unchecked_layers": 0})
        lps = plan.layer_plans
        if len(lps) != len(layers):
            out.problems.append(f"{unit}: {len(lps)} layer plans for {len(layers)} layers")
            out.failed = 1
            return out
        sizes = [ref.dims(layer) for layer in layers]
        arena = max(max(s[3] + lp.d for s, lp in zip(sizes, lps)), max(s[4] for s in sizes))
        pingpong = max(s[3] + s[4] for s in sizes)
        params = sum(r.k_x * r.k_y * (r.c_in // r.groups) * r.c_out + r.c_out for r in raw)
        base = 0
        unsafe = []
        for i, (layer, s, lp) in enumerate(zip(layers, sizes, lps)):
            want = (s[3], s[4], s[3] + lp.d, base, (base - lp.d) % arena)
            got = (lp.m_in, lp.m_out, lp.m_min_layer, lp.input_base, lp.output_base)
            if got != want:
                out.problems.append(f"{unit} layer {i + 1}: plan {got} != reference {want}")
            base = want[4]
            need = self._reference_min(layer)
            if need is None:
                out.counts["plan.unchecked_layers"] += 1
            elif lp.d < need:
                unsafe.append(i + 1)
        if (plan.arena_size, plan.pingpong_size, plan.parameter_words, plan.packing) != (
                arena, pingpong, params, q):
            out.problems.append(f"{unit}: arena/ping-pong/parameters/packing disagree")
        doc = json.loads(text_json)
        if (doc["arena_size"], doc["pingpong_size"], [row["d"] for row in doc["layers"]]) != (
                arena, pingpong, [lp.d for lp in lps]):
            out.problems.append(f"{unit}: JSON report disagrees with the plan")
        if f"{arena:,} words" not in text or f"{pingpong:,} words" not in text:
            out.problems.append(f"{unit}: text report lacks the arena or ping-pong size")
        out.failed = int(bool(unsafe or out.problems))
        out.ratios.append(plan.arena_size / plan.pingpong_size)
        return out


class VerifyBundled(_BundledFiles):
    """``actplan verify`` on every bundled network file.

    Each file is two kinds of unit: ``(file, -1)`` parses it and packs its
    layers, as the command does first, and ``(file, i)`` verifies layer
    ``i`` of that parse.  Timing each verdict on its own lets the throughput
    take each layer's fastest repetition.
    """

    name = "verify-bundled"

    def __init__(self, root, seed, tiny):
        super().__init__(root, seed, tiny)
        self._packed = {}

    def units(self, pass_index):
        return [(name, i) for name in super().units(pass_index)
                for i in range(-1, len(self.geometry[name][2]))]

    def ops(self, unit, result):
        return 0 if unit[1] < 0 else 1

    def attempts(self, unit):
        return 0 if unit[1] < 0 else 1

    def run(self, unit):
        name, i = unit
        if i < 0:
            self._packed[name] = packed_layers(parse_network_file(self.paths[name]))
            return self._packed[name]
        try:
            return verify_layer(self._packed[name][i], cycle_cap=ORACLE_CYCLE_CAP)
        except SizeLimitError:
            return None

    def run_traced(self, unit, tr):
        name, i = unit
        if i < 0:
            net = tr.call("netfile.parse_network_file", parse_network_file, self.paths[name])
            self._packed[name] = tr.call("planner.packed_layers", packed_layers, net)
            return self._packed[name]
        layer = self._packed[name][i]
        d = tr.call("model.min_offset", min_offset, layer)
        try:
            return tr.call("oracle.verify_layer", verify_layer, layer,
                           cycle_cap=ORACLE_CYCLE_CAP, closed_form_offset=d)
        except SizeLimitError:
            return None

    def check(self, unit, result):
        name, i = unit
        layers = self.geometry[name][2]
        if i < 0:
            out = Outcome(attempted=0)
            if [tuple(sorted(vars(a).items())) for a in result] != [
                    tuple(sorted(vars(b).items())) for b in layers]:
                out.problems.append(f"{name}: packed layers differ from the file's geometry")
            return out
        layer, rep = layers[i], result
        where = f"{name} layer {i + 1}"
        out = Outcome(attempted=1)
        over_cap = ref.mac_cycles(layer) > ORACLE_CYCLE_CAP
        if rep is None:
            out.refused = 1
            out.counts = {"oracle.refused": 1}
            if not over_cap:
                out.problems.append(f"{where}: refused below the cycle cap")
            out.ratios.append(pair_ratio(layer, min_offset(layer)))
            return out
        out.ratios.append(pair_ratio(layer, rep.d_closed_form))
        conv_min = self.lifetime(layer)
        unsafe = rep.d_closed_form < max(conv_min, ref.carry_min(layer))
        if over_cap:
            out.problems.append(f"{where}: verified above the cycle cap")
        if rep.d_oracle != conv_min:
            out.problems.append(f"{where}: oracle minimum {rep.d_oracle} != reference {conv_min}")
        if (rep.verdict == "UNSAFE") != unsafe:
            out.problems.append(f"{where}: verdict {rep.verdict} but reference unsafe={unsafe}")
        out.failed = int(rep.verdict == "UNSAFE" or unsafe or bool(out.problems))
        verdict = {"match": "oracle.verdict_match",
                   "closed_form_conservative": "oracle.verdict_conservative"}.get(
                       rep.verdict, "oracle.verdict_unsafe")
        x_out, y_out, m_conv, _, _, _ = ref.dims(layer)
        out.counts = {verdict: 1,
                      "oracle.slack_words": max(0, rep.d_closed_form - rep.d_oracle),
                      "oracle.windows": x_out * y_out, "oracle.words": m_conv}
        return out


class SweepSmall(Workload):
    """``actplan sweep`` with bounds that reach padding > stride."""

    name = "sweep-small"

    def __init__(self, root, seed, tiny):
        super().__init__(root, seed, tiny)
        self.bounds = TINY_SWEEP_BOUNDS if tiny else SWEEP_BOUNDS
        self.networks = 3 if tiny else SWEEP_NETWORKS
        self.layer_sweep_seconds = []
        self._expected = None

    def units(self, pass_index):
        return ["sweep"]

    def run(self, unit):
        start = perf_counter()
        layers = run_layer_sweep(self.bounds, cycle_cap=ORACLE_CYCLE_CAP)
        self.layer_sweep_seconds.append(perf_counter() - start)
        nets = run_exec_sweep(seed=self.seed, count=self.networks)
        return layers, nets

    def run_traced(self, unit, tr):
        configs = tr.call("sweep.sweep_layer_configs", lambda: list(sweep_layer_configs(self.bounds)))
        summary = SweepSummary()
        with tr.span("bench.layer_sweep"):
            for layer in configs:
                d = tr.call("model.min_offset", min_offset, layer)
                rep = tr.call("oracle.verify_layer", verify_layer, layer,
                              cycle_cap=ORACLE_CYCLE_CAP, closed_form_offset=d)
                tr.call("sweep.record", summary.record, layer, rep)
        nets = tr.call("sweep.run_exec_sweep", run_exec_sweep, seed=self.seed, count=self.networks)
        return summary, nets

    def attempts(self, unit):
        return sum(1 for _ in sweep_layer_configs(self.bounds)) + self.networks

    def _reference(self):
        """Per-config (layer, closed form, literal lifetime minimum), once per run."""
        if self._expected is None:
            rows = [(layer, min_offset(layer), ref.lifetime_min_loops(layer))
                    for layer in sweep_layer_configs(self.bounds)]
            sizes = [ref.dims(layer) for layer, _, _ in rows]
            self._expected = rows, [pair_ratio(layer, d) for layer, d, _ in rows], {
                "oracle.windows": sum(s[0] * s[1] for s in sizes),
                "oracle.words": sum(s[2] for s in sizes),
            }
        return self._expected

    def check(self, unit, result):
        summary, nets = result
        rows, ratios, oracle_work = self._reference()
        out = Outcome(attempted=len(rows) + self.networks, ratios=list(ratios))
        unsafe = [layer for layer, d, need in rows if d < need]
        slack = [(layer, d - need) for layer, d, need in rows if d > need]
        want = (len(rows), len(rows) - len(unsafe) - len(slack), len(slack), len(unsafe),
                max((gap for _, gap in slack), default=0),
                unsafe[0] if unsafe else None, slack[0][0] if slack else None)
        got = (summary.total, summary.match, summary.conservative, summary.unsafe,
               summary.max_gap, summary.first_unsafe, summary.first_conservative)
        if got != want:
            out.problems.append(f"layer sweep {got[:5]} != reference {want[:5]}")
        if nets.networks != self.networks:
            out.problems.append(f"exec sweep ran {nets.networks} of {self.networks} networks")
        if nets.oracle_plan_bit_exact != nets.networks:
            out.problems.append("a plan at the oracle's offsets was not bit-exact")
        if nets.tight_probe_clobbers != nets.tight_probes:
            out.problems.append("an offset below the oracle minimum did not clobber")
        out.failed = summary.unsafe + (nets.networks - nets.bit_exact)
        out.counts = {
            "sweep.configs": summary.total,
            "oracle.verdict_match": summary.match,
            "oracle.verdict_conservative": summary.conservative,
            "oracle.verdict_unsafe": summary.unsafe,
            "exec.bit_exact": nets.bit_exact,
            "exec.mismatches": nets.networks - nets.bit_exact,
            "sweep.tight_probes": nets.tight_probes,
            "sweep.tight_probe_clobbers": nets.tight_probe_clobbers,
            **oracle_work,
        }
        return out


class ExecMid(Workload):
    """``actplan exec --checked`` on seeded random mid-size chains."""

    name = "exec-mid"

    def __init__(self, root, seed, tiny):
        super().__init__(root, seed, tiny)
        rng = random.Random(EXEC_SHAPE_SEED)
        count = 3 if tiny else EXEC_NETWORKS
        self.nets = [self._network(rng, i, tiny) for i in range(count)]
        self.lifetime = _Lifetimes()

    def _network(self, rng, i, tiny):
        n_layers = rng.randint(*EXEC_LAYERS)
        x, y = rng.randint(*EXEC_EDGE), rng.randint(*EXEC_EDGE)
        c = rng.randint(*EXEC_CHANNELS)
        if tiny:
            x, y, c = 5, 4, 2
        layers, rows = [], []
        for j in range(n_layers):
            while True:
                k = rng.choice(EXEC_KERNELS)
                s = rng.randint(1, 2)
                p = rng.randint(0, k // 2)
                if k <= min(x, y) + 2 * p:
                    break
            c_out = rng.randint(*EXEC_CHANNELS)
            layer = SimpleNamespace(x_in=x, y_in=y, c_in=c, k_x=k, k_y=k, s_x=s, s_y=s,
                                    p_x=p, p_y=p, c_out=c_out, groups=1,
                                    residual_carry_words=0)
            layers.append(layer)
            head = f"x_in: {x}, y_in: {y}, c_in: {c}, " if j == 0 else ""
            rows.append(f"  - {{{head}k_x: {k}, k_y: {k}, s_x: {s}, s_y: {s}, "
                        f"p_x: {p}, p_y: {p}, c_out: {c_out}}}")
            x_out, y_out, _, _, _, _ = ref.dims(layer)
            x, y, c = x_out, y_out, c_out
        text = f"name: exec-mid-{i}\nlayers:\n" + "\n".join(rows) + "\n"
        vec = np.random.default_rng([self.seed, i])
        lo, hi = EXEC_VALUE_RANGE
        first = layers[0]
        x_in = vec.integers(lo, hi + 1, size=(first.y_in, first.x_in, first.c_in), dtype=np.int64)
        weights = [(vec.integers(lo, hi + 1, size=(L.c_out, L.k_y, L.k_x, L.c_in // L.groups),
                                 dtype=np.int64),
                    vec.integers(lo, hi + 1, size=L.c_out, dtype=np.int64)) for L in layers]
        return text, layers, x_in, weights

    def units(self, pass_index):
        return list(range(len(self.nets)))

    def macs(self, unit):
        return sum(ref.mac_cycles(layer) for layer in self.nets[unit][1])

    def ops(self, unit, result):
        """MACs of a network proven bit-exact.

        A clobbered run stops at the clobber, so its time says nothing about
        the executors' rate and the network is left out.
        """
        proven = isinstance(result, tuple) and result[0] == "bit-exact"
        return self.macs(unit) if proven else None

    def run(self, unit):
        text, _, x_in, weights = self.nets[unit]
        net = parse_network_text(text)
        plan = plan_network(net)
        want = execute_network_reference(net, x_in, weights, cycle_cap=EXEC_CYCLE_CAP)
        try:
            got = execute_network_in_arena(net, plan, x_in, weights, checked=True,
                                           cycle_cap=EXEC_CYCLE_CAP)
        except ClobberError:
            return "clobber", plan, want, None
        return ("bit-exact" if np.array_equal(want, got) else "mismatch"), plan, want, got

    def run_traced(self, unit, tr):
        text, _, x_in, weights = self.nets[unit]
        net = tr.call("netfile.parse_network_text", parse_network_text, text)
        layers = tr.call("planner.packed_layers", packed_layers, net)
        offsets = [tr.call("model.min_offset", min_offset, layer) for layer in layers]
        plan = tr.call("planner.plan_with_offsets", plan_with_offsets, net, offsets)
        want = tr.call("exec.execute_network_reference", execute_network_reference,
                       net, x_in, weights, cycle_cap=EXEC_CYCLE_CAP)
        try:
            got = tr.call("exec.execute_network_in_arena", execute_network_in_arena,
                          net, plan, x_in, weights, checked=True, cycle_cap=EXEC_CYCLE_CAP)
        except ClobberError:
            return "clobber", plan, want, None
        return ("bit-exact" if np.array_equal(want, got) else "mismatch"), plan, want, got

    def check(self, unit, result):
        status, plan, want, got = result
        _, layers, x_in, weights = self.nets[unit]
        out = Outcome(attempted=1, ratios=[plan.arena_size / plan.pingpong_size])
        expected = x_in
        for layer, (w, b) in zip(layers, weights):
            expected = ref.conv(layer, expected, w, b)
        unsafe = [i + 1 for i, (layer, lp) in enumerate(zip(layers, plan.layer_plans))
                  if lp.d < max(self.lifetime(layer), ref.carry_min(layer))]
        if not np.array_equal(want, expected):
            out.problems.append(f"network {unit}: reference executor disagrees with numpy")
        if status == "clobber" and not unsafe:
            out.problems.append(f"network {unit}: clobber although every offset is safe")
        if status != "clobber" and unsafe:
            out.problems.append(f"network {unit}: no clobber at unsafe layers {unsafe}")
        if status != "clobber" and not np.array_equal(got, expected):
            out.problems.append(f"network {unit}: in-arena output disagrees with numpy")
        out.failed = int(status != "bit-exact" or bool(out.problems))
        macs = self.macs(unit)
        out.counts = {
            "exec.macs": macs,
            "exec.macs_completed": 0 if status == "clobber" else macs,
            "exec.windows": sum(ref.dims(L)[0] * ref.dims(L)[1] for L in layers),
            "exec.bit_exact": int(status == "bit-exact"),
            "exec.clobbers": int(status == "clobber"),
            "exec.mismatches": int(status == "mismatch"),
        }
        return out


WORKLOADS = {cls.name: cls for cls in (PlanBundled, VerifyBundled, SweepSmall, ExecMid)}
