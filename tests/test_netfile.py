"""Network file parsing, inheritance and located diagnostics."""

from pathlib import Path

import pytest

from actplan import (
    ChainMismatchError,
    NetworkFileError,
    bundled_network_path,
    parse_network_file,
    parse_network_text,
)

FIXTURES = Path(__file__).parent / "fixtures"


MINIMAL = """
name: one
layers:
  - {x_in: 4, y_in: 4, c_in: 1, k_x: 1, k_y: 1, s_x: 1, s_y: 1, p_x: 0, p_y: 0, c_out: 1}
"""


class TestParsing:
    def test_minimal(self):
        net = parse_network_text(MINIMAL)
        assert net.name == "one"
        assert len(net.layers) == 1

    def test_inheritance(self):
        net = parse_network_text(
            """
name: two
layers:
  - {x_in: 6, y_in: 4, c_in: 3, k_x: 3, k_y: 3, s_x: 2, s_y: 2, p_x: 1, p_y: 1, c_out: 8}
  - {k_x: 1, k_y: 1, s_x: 1, s_y: 1, p_x: 0, p_y: 0, c_out: 4}
"""
        )
        second = net.layers[1]
        assert (second.x_in, second.y_in, second.c_in) == (3, 2, 8)

    def test_explicit_restatement_must_agree(self):
        with pytest.raises(ChainMismatchError,
                           match=r"bad_chain\.net: layers\[1\]: layers 1 -> 2.*c_in=4"):
            parse_network_file(FIXTURES / "bad_chain.net")

    def test_restated_mismatch_names_its_layer_pair(self):
        with pytest.raises(ChainMismatchError,
                           match=r"<string>: layers\[2\]: layers 2 -> 3: x_in=4 .*\(3\)"):
            parse_network_text(
                """
name: three
layers:
  - {x_in: 6, y_in: 6, c_in: 1, k_x: 1, k_y: 1, s_x: 1, s_y: 1, p_x: 0, p_y: 0, c_out: 2}
  - {x_in: 6, c_in: 2, k_x: 3, k_y: 3, s_x: 2, s_y: 2, p_x: 1, p_y: 1, c_out: 2}
  - {x_in: 4, k_x: 1, k_y: 1, s_x: 1, s_y: 1, p_x: 0, p_y: 0, c_out: 2}
"""
            )

    def test_json_accepted(self):
        net = parse_network_text(
            '{"name": "j", "layers": [{"x_in": 2, "y_in": 2, "c_in": 1, "k_x": 1, '
            '"k_y": 1, "s_x": 1, "s_y": 1, "p_x": 0, "p_y": 0, "c_out": 1}]}'
        )
        assert net.name == "j"


class TestDiagnostics:
    def test_yaml_error_carries_line(self):
        with pytest.raises(NetworkFileError, match=r"line \d+"):
            parse_network_text("name: x\nlayers:\n  - {k_x: 1,\n")

    def test_missing_required_key_located(self):
        with pytest.raises(NetworkFileError, match=r"layers\[0\].*k_y"):
            parse_network_text(
                "name: x\nlayers:\n"
                "  - {x_in: 2, y_in: 2, c_in: 1, k_x: 1, s_x: 1, s_y: 1, p_x: 0, p_y: 0, c_out: 1}\n"
            )

    def test_unknown_key_located(self):
        with pytest.raises(NetworkFileError, match=r"layers\[0\].*kernel"):
            parse_network_text(
                "name: x\nlayers:\n"
                "  - {x_in: 2, y_in: 2, c_in: 1, kernel: 1, k_x: 1, k_y: 1, s_x: 1, s_y: 1, "
                "p_x: 0, p_y: 0, c_out: 1}\n"
            )

    def test_first_layer_needs_input_dims(self):
        with pytest.raises(NetworkFileError, match="first layer"):
            parse_network_text(
                "name: x\nlayers:\n"
                "  - {k_x: 1, k_y: 1, s_x: 1, s_y: 1, p_x: 0, p_y: 0, c_out: 1}\n"
            )

    def test_non_integer_field(self):
        with pytest.raises(NetworkFileError, match="k_x"):
            parse_network_text(MINIMAL.replace("k_x: 1", "k_x: wide"))

    def test_invalid_geometry_located(self):
        with pytest.raises(NetworkFileError, match=r"layers\[0\]"):
            parse_network_text(MINIMAL.replace("k_x: 1", "k_x: 9"))

    @pytest.mark.parametrize("text,message", [
        ("- 1\n- 2\n", "top level must be a mapping"),
        (MINIMAL + "extra: 1\n", r"unknown top-level keys \['extra'\]"),
        (MINIMAL.replace("name: one", ""), "missing or empty 'name'"),
        ("name: x\nlayers: []\n", "'layers' must be a non-empty list"),
        ("name: x\nlayers: 3\n", "'layers' must be a non-empty list"),
        (MINIMAL + "  - 7\n", r"layers\[1\]: layer entry must be a mapping"),
        (MINIMAL.replace("name: one", "name: one\npacking: 1"),
         r"unknown top-level keys \['packing'\]"),
    ], ids=["not_mapping", "unknown_key", "no_name", "empty_layers", "layers_not_list",
            "layer_not_mapping", "packing_key"])
    def test_malformed_document_located(self, text, message):
        with pytest.raises(NetworkFileError, match=f"^<string>: {message}$"):
            parse_network_text(text)

    def test_missing_file(self):
        with pytest.raises(NetworkFileError):
            parse_network_file(FIXTURES / "does_not_exist.net")


class TestBundled:
    def test_all_bundled_files_parse(self):
        for name in ("dmcnn_vd", "dmcnn_vd_64", "dlib_face", "yolo_lite",
                     "mobilenet_v2", "single_identity"):
            net = parse_network_file(bundled_network_path(name))
            assert net.layers

    def test_dmcnn_shape(self):
        net = parse_network_file(bundled_network_path("dmcnn_vd"))
        assert len(net.layers) == 20
        assert all(l.k_x == l.k_y == 3 and l.p_x == l.p_y == 1 and l.s_x == l.s_y == 1
                   for l in net.layers)
        assert net.layers[0].c_in == 3
        assert {l.c_out for l in net.layers[:-1]} == {64}
        assert net.layers[-1].c_out == 3
        assert net.layers[0].x_in == net.layers[0].y_in == 640

    def test_mobilenet_carries(self):
        net = parse_network_file(bundled_network_path("mobilenet_v2"))
        carried = [l for l in net.layers if l.residual_carry_words]
        assert len(carried) == 3
        assert all(l.residual_carry_words == 56 * 56 * 24 for l in carried)

    def test_unknown_bundle_name(self):
        with pytest.raises(NetworkFileError):
            bundled_network_path("nope")
