"""Network description files.

A network file is a YAML (or JSON) document:

    name: my-net
    layers:
      - {x_in: 8, y_in: 8, c_in: 3, k_x: 3, k_y: 3, s_x: 1, s_y: 1,
         p_x: 1, p_y: 1, c_out: 16}
      - {k_x: 3, k_y: 3, s_x: 1, s_y: 1, p_x: 1, p_y: 1, c_out: 16}

Only the first layer states ``x_in``/``y_in``/``c_in``; later layers inherit
them from the previous layer's output and may restate them only if they
agree.  Optional per-layer keys: ``groups``, ``residual_carry_words``.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from .errors import ChainMismatchError, InvalidLayerError, NetworkFileError
from .model import LayerSpec
from .planner import NetworkSpec

_REQUIRED = ("k_x", "k_y", "s_x", "s_y", "p_x", "p_y", "c_out")
_FIRST_ONLY = ("x_in", "y_in", "c_in")
_ALLOWED = set(_REQUIRED) | set(_FIRST_ONLY) | {"groups", "residual_carry_words"}


def parse_network_file(path) -> NetworkSpec:
    """Load and validate a network file; raises located errors on failure."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise NetworkFileError(str(exc), location=str(path)) from exc
    return parse_network_text(text, source=str(path))


class _UniqueKeyLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, refusing a key repeated within one mapping."""

    def construct_mapping(self, node, deep=False):
        # a merge key's entries may be overridden, so only stated keys count
        stated = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep=deep)
        seen = set()
        for key_node in stated:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return mapping


def parse_network_text(text: str, source: str = "<string>") -> NetworkSpec:
    """Parse network file content (YAML; JSON is a YAML subset and accepted)."""
    try:
        doc = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f"{source}: line {mark.line + 1}" if mark else source
        raise NetworkFileError(str(getattr(exc, "problem", exc)), location=loc) from exc
    return _build(doc, source)


def _build(doc, source: str) -> NetworkSpec:
    if not isinstance(doc, dict):
        raise NetworkFileError("top level must be a mapping", location=source)
    unknown = set(doc) - {"name", "layers"}
    if unknown:
        raise NetworkFileError(f"unknown top-level keys {sorted(unknown, key=str)}",
                               location=source)
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise NetworkFileError("missing or empty 'name'", location=source)
    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise NetworkFileError("'layers' must be a non-empty list", location=source)

    layers = []
    for i, entry in enumerate(raw_layers):
        where = f"{source}: layers[{i}]"
        if not isinstance(entry, dict):
            raise NetworkFileError("layer entry must be a mapping", location=where)
        bad = set(entry) - _ALLOWED
        if bad:
            raise NetworkFileError(f"unknown keys {sorted(bad, key=str)}", location=where)
        missing = [k for k in _REQUIRED if k not in entry]
        if missing:
            raise NetworkFileError(f"missing required key '{missing[0]}'", location=where)
        if i == 0:
            inherited = {}
            missing = [k for k in _FIRST_ONLY if k not in entry]
            if missing:
                raise NetworkFileError(f"first layer must state {missing}", location=where)
        else:
            # restated input dims override these; NetworkSpec checks the chain
            prev = layers[-1]
            inherited = dict(zip(_FIRST_ONLY, (prev.x_out, prev.y_out, prev.c_out)))
        try:
            layers.append(LayerSpec(**{**inherited, **entry}))
        except InvalidLayerError as exc:
            raise NetworkFileError(str(exc), location=where) from exc

    try:
        return NetworkSpec(name=name, layers=tuple(layers))
    except ChainMismatchError as exc:
        raise ChainMismatchError(f"{source}: layers[{exc.layer_index}]: {exc}",
                                 exc.layer_index) from exc


def bundled_network_path(name: str) -> Path:
    """Path of a network file shipped with the package (e.g. ``dmcnn_vd``)."""
    p = Path(__file__).parent / "networks" / f"{name}.net"
    if not p.exists():
        raise NetworkFileError(f"no bundled network named {name!r}; "
                               f"available: {[q.stem for q in sorted(p.parent.glob('*.net'))]}")
    return p

