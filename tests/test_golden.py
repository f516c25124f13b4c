"""Printed command output, pinned byte for byte.

``plan`` and ``verify`` run on every bundled network, ``exec`` on every test
fixture and ``sweep`` once, as README runs it.  ``tests/golden/<key>.txt``
holds the stdout of one command and ``tests/golden/exit_codes.json`` its
exit code.  After an intended change to any of these outputs, regenerate
them with ``PYTHONPATH=src python tests/test_golden.py`` and say so in
CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from actplan import bundled_network_path
from actplan.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"
NETWORKS = ("dlib_face", "dmcnn_vd", "dmcnn_vd_64", "mobilenet_v2",
            "single_identity", "yolo_lite")
CASES = {
    "plan_json": ("plan", "--format", "json"),
    "plan_ascii_map": ("plan", "--ascii-map"),
    "verify": ("verify",),
    "verify_json": ("verify", "--format", "json"),
}
EXEC_CASES = {
    "exec": (),
    "exec_checked": ("--checked",),
    "exec_corrupt": ("--corrupt-offset", "5"),
    "exec_checked_corrupt": ("--checked", "--corrupt-offset", "5"),
}
COMMANDS = {
    **{f"{net}.{case}": (command, str(bundled_network_path(net)), *options)
       for net in NETWORKS for case, (command, *options) in CASES.items()},
    **{f"{path.stem}.{case}": ("exec", str(path), *options)
       for path in sorted(FIXTURES.glob("*.net")) for case, options in EXEC_CASES.items()},
    "sweep": ("sweep",),
}


def run(key):
    """Exit code and stdout of the command that ``key`` names."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(COMMANDS[key]))
    return code, out.getvalue()


@pytest.mark.parametrize("key", COMMANDS)
def test_output_is_byte_identical(key):
    code, out = run(key)
    assert out.encode() == (GOLDEN / f"{key}.txt").read_bytes()
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[key]


def test_every_bundled_network_is_pinned():
    shipped = bundled_network_path(NETWORKS[0]).parent.glob("*.net")
    assert sorted(p.stem for p in shipped) == list(NETWORKS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for key in COMMANDS:
        codes[key], out = run(key)
        (GOLDEN / f"{key}.txt").write_bytes(out.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
