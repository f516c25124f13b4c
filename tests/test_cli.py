"""Command line behaviour: output, exit codes, determinism."""

import json
from pathlib import Path

from actplan import LayerPlan, MemoryPlan, bundled_network_path, parse_network_file, plan_network
from actplan.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


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

    def test_oversized_layer_gets_guidance(self, capsys):
        code, out, _ = run_cli(capsys, "verify",
                               str(bundled_network_path("dmcnn_vd")),
                               "--cycle-cap", "1000000")
        assert code == 0
        assert "skipped" in out and "closed-form" in out

    def test_layer_above_read_grid_bound_skipped_but_planned(self, capsys, tmp_path):
        # under the cycle cap, but its oracle grid would take 28.8 GB
        net = tmp_path / "wide.net"
        net.write_text("name: wide\nlayers:\n  - {x_in: 20000, y_in: 20000, c_in: 1, "
                       "k_x: 3, k_y: 3, s_x: 1, s_y: 1, p_x: 1, p_y: 1, c_out: 1}\n")
        code, out, _ = run_cli(capsys, "verify", str(net))
        assert code == 0
        assert out.startswith("layer   1: skipped (") and "bound of 33554432" in out
        code, out, _ = run_cli(capsys, "plan", str(net))
        assert code == 0
        assert "arena            400,020,001 words" in out

    def test_full_scale_dmcnn_vd_verifies_at_raised_cap(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(bundled_network_path("dmcnn_vd")),
                               "--cycle-cap", "100000000000")
        assert code == 0
        assert out.count(": match") == 20


class TestSweep:
    def test_small_sweep_reports_no_unsafe(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--max-dim", "3",
                               "--networks", "5", "--seed", "1")
        assert code == 0
        assert "UNSAFE        0" in out
        assert "bit-exact in-arena           5/5" in out

    def test_empty_bounds_empty_summary(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--max-dim", "0", "--networks", "0")
        assert code == 0
        assert "0 configurations" in out

    def test_sweep_deterministic(self, capsys):
        args = ("sweep", "--max-dim", "2", "--networks", "3", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


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
