"""Plan report serialization, rendering and the memory map."""

import dataclasses
import json
import random

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

from conftest import memory_map_reference


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
    # the unit is chosen after rounding: 999,950 words round to 1000.0k
    for words, short in ((999, "999"), (1_000, "1.0k"), (999_949, "999.9k"),
                         (999_950, "1.0M"), (1_000_000, "1.0M")):
        text = render_plan_text(dataclasses.replace(plan, arena_size=words))
        assert f"arena            {words:,} words ({short})\n" in text


def _random_region(rng, size):
    """A base and a length in an arena of ``size`` words: the whole arena, a
    few words (which land on or beside cell bounds) or any length."""
    length = rng.choice((size, rng.randint(1, min(3, size)), rng.randint(1, size)))
    return rng.randrange(size), length


def test_memory_map_matches_cell_by_cell_reference():
    rng = random.Random(22)
    sizes = [*range(1, 201), 10**6 - 1, 10**6, 10**6 + 7,
             *(rng.randint(10**6 - 100, 10**6 + 100) for _ in range(50))]
    wrapped = full = 0
    for size in sizes:
        for _ in range(6):
            lps = []
            for i in range(4):
                (ib, m_in), (ob, m_out) = _random_region(rng, size), _random_region(rng, size)
                wrapped += (m_in < size < ib + m_in) + (m_out < size < ob + m_out)
                full += (m_in == size) + (m_out == size)
                lps.append(LayerPlan(index=i, m_in=m_in, m_out=m_out, d=0, m_min_layer=m_in,
                                     input_base=ib, output_base=ob))
            plan = MemoryPlan(name="random", packing=1, arena_size=size,
                              layer_plans=tuple(lps), pingpong_size=size, parameter_words=0,
                              savings_activations_pct=0.0, savings_total_pct=0.0)
            assert render_memory_map(plan) == memory_map_reference(plan), plan
    assert wrapped > 1000 and full > 1000
