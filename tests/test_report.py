"""Plan report serialization, rendering and the memory map."""

import json

from actplan import (
    LayerPlan,
    LayerSpec,
    MemoryPlan,
    NetworkSpec,
    plan_network,
    plan_to_json,
    render_memory_map,
    render_plan_text,
)


def sample_plan():
    l1 = LayerSpec(x_in=4, y_in=4, c_in=1, k_x=3, k_y=3, s_x=1, s_y=1,
                   p_x=1, p_y=1, c_out=2)
    l2 = LayerSpec(x_in=4, y_in=4, c_in=2, k_x=3, k_y=3, s_x=1, s_y=1,
                   p_x=1, p_y=1, c_out=1)
    return plan_network(NetworkSpec("sample", (l1, l2)))


def plan_from_json(text):
    doc = json.loads(text)
    layers = tuple(LayerPlan(**lp) for lp in doc.pop("layers"))
    return MemoryPlan(**doc, layer_plans=layers)


def test_json_round_trip_is_lossless():
    plan = sample_plan()
    assert plan_from_json(plan_to_json(plan)) == plan


def test_round_trip_over_random_plans():
    import random

    from actplan import random_network

    for seed in range(25):
        plan = plan_network(random_network(random.Random(seed)))
        assert plan_from_json(plan_to_json(plan)) == plan


def test_dict_field_names_are_stable():
    doc = json.loads(plan_to_json(sample_plan()))
    assert list(doc) == ["name", "packing", "arena_size", "pingpong_size",
                         "parameter_words", "savings_activations_pct",
                         "savings_total_pct", "layers"]
    assert list(doc["layers"][0]) == ["index", "m_in", "m_out", "d",
                                      "m_min_layer", "input_base", "output_base"]


def test_json_is_deterministic():
    a = plan_to_json(sample_plan())
    b = plan_to_json(sample_plan())
    assert a == b


def test_text_render_mentions_key_figures():
    plan = sample_plan()
    text = render_plan_text(plan)
    assert f"{plan.arena_size:,}" in text
    assert f"{plan.pingpong_size:,}" in text
    assert f"{plan.savings_activations_pct:.1f}%" in text
    assert text.count("\n") >= 2 + len(plan.layer_plans)


def test_memory_map_shapes():
    # 64 cells, or one per word when the arena is smaller
    wide = LayerSpec(x_in=8, y_in=8, c_in=1, k_x=3, k_y=3, s_x=1, s_y=1,
                     p_x=1, p_y=1, c_out=2)
    for plan, cells in ((sample_plan(), 37), (plan_network(NetworkSpec("wide", (wide,))), 64)):
        assert min(plan.arena_size, 64) == cells
        lines = render_memory_map(plan).splitlines()
        assert len(lines) == 1 + len(plan.layer_plans)
        body = lines[1].split("|")[1]
        assert len(body) == cells
        assert set(body) <= {"i", "o", "x", "."}
        # every layer has both regions present somewhere
        for line in lines[1:]:
            bar = line.split("|")[1]
            assert any(c in bar for c in ("i", "x"))
            assert any(c in bar for c in ("o", "x"))


def test_humanize():
    plan = MemoryPlan(name="h", packing=1, arena_size=999, layer_plans=(),
                      pingpong_size=614_400, parameter_words=26_255_424,
                      savings_activations_pct=0.0, savings_total_pct=0.0)
    text = render_plan_text(plan)
    assert "999 words (999)" in text
    assert "614,400 words (614.4k)" in text
    assert "26,255,424 words (26.3M)" in text
