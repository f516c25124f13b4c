"""Command line behaviour: output, exit codes, determinism."""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from actplan import (LayerPlan, MemoryPlan, SweepBounds, bundled_network_path,
                     lifetime_minima, parse_network_file, plan_network, run_exec_sweep,
                     run_layer_sweep)
from actplan.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
TINY_PAIR = str(FIXTURES / "tiny_pair.net")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlan:
    def test_plan_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "plan", str(FIXTURES / "tiny_pair.net"),
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        net = parse_network_file(FIXTURES / "tiny_pair.net")
        layers = tuple(LayerPlan(**lp) for lp in doc.pop("layers"))
        assert MemoryPlan(**doc, layer_plans=layers) == plan_network(net)
        assert doc["arena_size"] == 21
        assert doc["pingpong_size"] == 32

    def test_plan_text_with_map(self, capsys):
        code, out, _ = run_cli(capsys, "plan", str(FIXTURES / "tiny_pair.net"),
                               "--ascii-map")
        assert code == 0
        assert "arena" in out and "memory map" in out

    def test_ascii_map_with_json_is_a_usage_error(self, capsys):
        # the map belongs to the text report; JSON would silently drop it
        with pytest.raises(SystemExit) as exc:
            main(["plan", TINY_PAIR, "--format", "json", "--ascii-map"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: actplan ")
        assert "argument --ascii-map: not allowed with argument --format json" in err

    def test_single_identity_near_half(self, capsys):
        code, out, _ = run_cli(capsys, "plan",
                               str(bundled_network_path("single_identity")),
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["arena_size"] == 65
        assert doc["pingpong_size"] == 128
        assert 49.0 < doc["savings_activations_pct"] < 50.0

    def test_bad_chain_exits_nonzero_with_diagnostic(self, capsys):
        # the diagnostic names the file and the layer entry, like every other
        # value error from a network file
        path = FIXTURES / "bad_chain.net"
        code, out, err = run_cli(capsys, "plan", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: layers[1]: layers 1 -> 2: c_in=4 does not match "
                       "previous layer's output (8)\n")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "plan", "no_such_file.net")
        assert code == 2
        assert "error" in err

    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run_cli(capsys, "plan", str(FIXTURES / "tiny_pair.net"),
                             "--format", "json")
        _, out2, _ = run_cli(capsys, "plan", str(FIXTURES / "tiny_pair.net"),
                             "--format", "json")
        assert out1 == out2


class TestVerify:
    def test_all_fixture_layers_verify(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(FIXTURES / "tiny_pair.net"))
        assert code == 0
        assert out.count("match") == 2

    def test_verify_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(FIXTURES / "tiny_pair.net"),
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [row["verdict"] for row in doc["layers"]] == ["match", "match"]

    def test_padding_above_stride_verifies(self, capsys):
        # dlib_face's 5x5 pad-2 and 9x9 pad-4 layers: the planned offsets
        # match the lifetime minimum while the paper's model falls below it
        path = str(bundled_network_path("dlib_face"))
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 0
        assert out.count(": match") == 7
        code, out, _ = run_cli(capsys, "verify", path, "--format", "json")
        rows = json.loads(out)["layers"]
        assert all(row["d_closed_form"] == row["d_oracle"] for row in rows)
        assert all(row["d_paper"] < row["d_oracle"] for row in rows[3:7])

    def test_conservative_verdicts_list_gap(self, capsys):
        code, out, _ = run_cli(capsys, "verify",
                               str(bundled_network_path("mobilenet_v2")))
        assert code == 0  # conservative is safe; only UNSAFE exits nonzero
        assert "conservative" in out and "gap" in out

    def test_unsafe_layer_exits_one(self, capsys, monkeypatch):
        # a closed form of one word is below both layers' lifetime minimum
        monkeypatch.setattr("actplan.oracle.min_offset", lambda layer: 1)
        code, out, _ = run_cli(capsys, "verify", str(FIXTURES / "tiny_pair.net"))
        assert code == 1
        assert out == ("layer   1: UNSAFE (closed 1 < minimum 5, paper 5)\n"
                       "layer   2: UNSAFE (closed 1 < minimum 5, paper 5)\n")

    def test_oversized_layer_gets_paper_offset(self, capsys, tmp_path):
        # 4.9e9 windows: the oracle checks it at once, and the paper column
        # evaluates a few windows per output row
        net = tmp_path / "wide.net"
        net.write_text("name: wide\nlayers:\n  - {x_in: 70000, y_in: 70000, c_in: 1, "
                       "k_x: 1, k_y: 1, s_x: 1, s_y: 1, p_x: 0, p_y: 0, c_out: 1}\n")
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", str(net))
        json_code, json_out, _ = run_cli(capsys, "verify", str(net), "--format", "json")
        assert time.perf_counter() - start < 1
        assert (code, json_code) == (0, 0)
        assert out == "layer   1: match (d=1, paper 1)\n"
        assert json.loads(json_out)["layers"] == [
            {"layer": 1, "verdict": "match", "d_closed_form": 1, "d_oracle": 1, "d_paper": 1}]

    def test_layer_above_axis_read_bound_skipped_but_planned(self, capsys, tmp_path):
        net = tmp_path / "row.net"
        for shape in (
            # under the cycle cap, but 50,331,648 (window, tap) reads along x
            "x_in: 16777216, y_in: 1, k_x: 3, k_y: 1, p_x: 1, p_y: 0",
            # the same along y: 2**24 output rows, which the paper column, at
            # a few windows per row, would take about 20 s over
            "x_in: 1, y_in: 16777216, k_x: 1, k_y: 3, p_x: 0, p_y: 1",
        ):
            net.write_text(f"name: row\nlayers:\n  - {{{shape}, c_in: 1, s_x: 1, s_y: 1, "
                           "c_out: 1}\n")
            start = time.perf_counter()
            code, out, _ = run_cli(capsys, "verify", str(net))
            assert time.perf_counter() - start < 1
            assert code == 0
            assert out.startswith("layer   1: skipped (") and "bound of 2097152" in out
            code, out, _ = run_cli(capsys, "plan", str(net))
            assert code == 0
            assert "arena            16,777,217 words" in out

    def test_layer_above_int64_bound_skipped(self, capsys, tmp_path):
        # 2**64 input words: one skipped row, not a wrapped UNSAFE verdict
        net = tmp_path / "deep.net"
        net.write_text(f"name: deep\nlayers:\n  - {{x_in: 4, y_in: 4, c_in: {2**60}, "
                       "k_x: 1, k_y: 1, s_x: 1, s_y: 1, p_x: 0, p_y: 0, c_out: 1}\n")
        code, out, _ = run_cli(capsys, "verify", str(net))
        assert code == 0
        assert out == ("layer   1: skipped (layer has 18446744073709551616 input or output "
                       "words, above the int64 bound of 4611686018427387904 for the oracle "
                       "and execution)\n")

    def test_cycle_cap_is_not_a_verify_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", TINY_PAIR, "--cycle-cap", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cycle-cap 5" in capsys.readouterr().err

    def test_large_layer_verifies(self, capsys, tmp_path):
        net = tmp_path / "square.net"
        net.write_text("name: square\nlayers:\n  - {x_in: 4000, y_in: 4000, c_in: 1, "
                       "k_x: 3, k_y: 3, s_x: 1, s_y: 1, p_x: 1, p_y: 1, c_out: 1}\n")
        code, out, _ = run_cli(capsys, "verify", str(net))
        assert code == 0
        assert out == "layer   1: match (d=4001, paper 4001)\n"

    def test_full_scale_dmcnn_vd_verifies_at_default(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(bundled_network_path("dmcnn_vd")))
        assert code == 0
        assert out.count(": match") == 20


def shrink_sweep(monkeypatch, max_dim, networks):
    """Make ``sweep`` check images up to ``max_dim`` and ``networks`` networks."""
    monkeypatch.setattr("actplan.sweep.run_layer_sweep",
                        lambda: run_layer_sweep(SweepBounds(max_dim=max_dim)))
    monkeypatch.setattr("actplan.sweep.run_exec_sweep",
                        lambda seed: run_exec_sweep(seed=seed, count=networks))


class TestSweep:
    def test_small_sweep_reports_no_unsafe(self, capsys, monkeypatch):
        shrink_sweep(monkeypatch, max_dim=3, networks=5)
        code, out, _ = run_cli(capsys, "sweep", "--seed", "1")
        assert code == 0
        assert "UNSAFE        0" in out
        assert "bit-exact in-arena           5/5" in out

    def test_failed_minimality_witness_exits_one(self, capsys, monkeypatch):
        # minima one word too large: lowering a layer to the true minimum
        # does not clobber, so the witness fails on every probe
        real = lifetime_minima
        monkeypatch.setattr("actplan.sweep.lifetime_minima",
                            lambda layers: [raw + 1 for raw in real(layers)])
        shrink_sweep(monkeypatch, max_dim=0, networks=5)
        code, out, _ = run_cli(capsys, "sweep", "--seed", "1")
        assert code == 1
        assert "clobber when lowered below the lifetime minimum: 0/20" in out

    def test_unsafe_sweep_names_first_config(self, capsys, monkeypatch):
        monkeypatch.setattr("actplan.sweep.min_offset", lambda layer: 1)
        shrink_sweep(monkeypatch, max_dim=2, networks=0)
        code, out, _ = run_cli(capsys, "sweep")
        assert code == 1
        assert "  first unsafe config: LayerSpec(" in out

    def test_sweep_deterministic(self, capsys, monkeypatch):
        shrink_sweep(monkeypatch, max_dim=2, networks=3)
        _, out1, _ = run_cli(capsys, "sweep", "--seed", "9")
        _, out2, _ = run_cli(capsys, "sweep", "--seed", "9")
        assert out1 == out2

    @pytest.mark.parametrize("flag", ["--max-dim", "--max-kernel", "--max-stride",
                                      "--max-pad", "--max-channels", "--networks"])
    def test_domain_flags_are_usage_errors(self, capsys, flag):
        # the sweep checks the one domain README states; only --seed is taken
        with pytest.raises(SystemExit) as exc:
            main(["sweep", flag, "3"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: actplan ") and f"unrecognized arguments: {flag} 3" in err


class TestExec:
    def test_bit_exact(self, capsys):
        code, out, _ = run_cli(capsys, "exec", str(FIXTURES / "tiny_pair.net"),
                               "--seed", "11", "--checked")
        assert code == 0
        assert "bit-exact" in out

    def test_corrupted_offset_clobbers(self, capsys):
        code, out, _ = run_cli(capsys, "exec", str(FIXTURES / "tiny_pair.net"),
                               "--seed", "11", "--checked", "--corrupt-offset", "5")
        assert code == 1
        assert "CLOBBER" in out
        assert "arena address" in out
        assert "windows before its last reader" in out

    def test_overflowing_corrupted_plan_mismatches(self, capsys):
        # the corrupted plan feeds outputs back into later reads until the
        # values pass 2**63; int64 wraparound turns that into a mismatch
        code, out, err = run_cli(capsys, "exec", str(FIXTURES / "overflow_chain.net"),
                                 "--corrupt-offset", "4")
        assert code == 1
        assert "MISMATCH" in out
        assert not err

    def test_oversized_network_refused(self, capsys):
        code, _, err = run_cli(capsys, "exec", str(bundled_network_path("dmcnn_vd")))
        assert code == 2
        assert "cap" in err

    def test_network_above_word_bound_refused(self, capsys, tmp_path):
        # 1,000 MAC cycles, far under the cycle cap, but 60,000,000 input words
        net = tmp_path / "probe.net"
        net.write_text("name: probe\nlayers:\n  - {x_in: 60000000, y_in: 1, c_in: 1, "
                       "k_x: 1, k_y: 1, s_x: 60000, s_y: 1, p_x: 0, p_y: 0, c_out: 1}\n")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "exec", str(net), "--checked")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == ("error: network needs a 60000000-word buffer, above the execution "
                       "bound of 33554432 words\n")
        assert peak < 16 * 2**20


@pytest.mark.parametrize("argv", [
    ("exec", TINY_PAIR, "--seed", "-1"),
    ("sweep", "--seed", "-1"),
    ("exec", TINY_PAIR, "--corrupt-offset", "-3"),
    ("exec", TINY_PAIR, "--cycle-cap", "-5"),
], ids=["exec-seed", "sweep-seed", "corrupt-offset", "exec-cycle-cap"])
def test_bad_number_exits_two_with_usage(capsys, argv):
    # exit 1 means UNSAFE, mismatch or clobber; a bad flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.startswith("usage: actplan ") and f"argument {argv[-2]}: must be at least" in err
