import json

import pytest
from hypothesis import given, strategies as st

from distillsearch.archspace import (
    SEARCHED_FIELDS,
    ArchConfig,
    SearchSpace,
    default_table1,
    pretrained_reference,
    validate,
)


def make(L, H, A, D, V, **kw):
    return ArchConfig(layers=L, hidden=H, heads=A, ffn=D, vocab=V, **kw)


class TestSearchSpace:
    def test_cardinality(self):
        assert default_table1().cardinality() == 11_059_200

    def test_cardinality_is_product_of_grid_sizes(self):
        space = default_table1()
        product = 1
        for field in SEARCHED_FIELDS:
            product *= len(space.grid_values(field))
        assert space.cardinality() == product
        # grid sizes as stated: 12 x 48 x 4 x 96 x 50
        assert [len(space.grid_values(f)) for f in SEARCHED_FIELDS] == [12, 48, 4, 96, 50]

    def test_grids_hold_each_fields_values_once_in_field_order(self):
        space = default_table1()
        assert space.grids is space.grids  # built once per space
        assert [list(g) for g in space.grids] == [
            list(range(1, 13)), list(range(16, 769, 16)), [1, 2, 4, 8],
            list(range(32, 3073, 32)), list(range(1000, 50001, 1000))]
        for field, grid in zip(SEARCHED_FIELDS, space.grids):
            assert space.grid_values(field) is grid

    def test_contains_grid_maxima(self):
        assert validate(make(12, 768, 8, 3072, 50000), default_table1()).ok

    def test_contains_example_chromosome(self):
        assert validate(make(3, 512, 4, 1024, 10000), default_table1()).ok

    def test_grid_values_on_grid(self):
        space = default_table1()
        for field in ("layers", "hidden", "ffn", "vocab"):
            grid: range = getattr(space, field)
            for v in grid:
                assert grid.start <= v < grid.stop
                assert (v - grid.start) % grid.step == 0

    def test_hidden_heads_divisibility_exhaustive(self):
        space = default_table1()
        for h in space.grid_values("hidden"):
            for a in space.heads:
                assert h % a == 0

    @pytest.mark.parametrize("field, grid, message", [
        ("layers", range(1, 1), "layers grid"),
        ("ffn", range(0, 64 + 1, 32), "ffn grid"),
        ("vocab", range(5000, 1000 - 1, -1000), "vocab grid"),
        ("heads", (), "heads grid"),
        ("heads", (0, 1), "heads grid"),
        ("heads", (2, 1), "heads grid"),
        ("heads", (1, 1), "heads grid"),
        ("heads", (1, 3), "hidden 16 does not split over 3 heads"),
        ("hidden", range(24, 48 + 1, 24), "hidden 24 does not split over 16 heads"),
        ("layers", (1, 2), "layers grid .* must be a range"),
        ("hidden", (16, 32), "hidden grid .* must be a range"),
        ("ffn", [32, 64], "ffn grid .* must be a range"),
        ("vocab", (1000, 2000), "vocab grid .* must be a range"),
    ])
    def test_space_refuses_a_bad_grid(self, field, grid, message):
        grids = dict(layers=range(1, 2 + 1), hidden=range(16, 32 + 1, 16), heads=(1, 2, 16),
                     ffn=range(32, 64 + 1, 32), vocab=range(1000, 2000 + 1, 1000))
        SearchSpace(**grids)  # the base space is legal
        with pytest.raises(ValueError, match=message):
            SearchSpace(**{**grids, field: grid})


class TestValidate:
    def test_valid_chromosome(self):
        assert validate(make(3, 512, 4, 1024, 10000), default_table1()).ok

    def test_layers_below_bound(self):
        with pytest.raises(ValueError):
            make(0, 16, 1, 32, 1000)

    def test_hidden_off_grid(self):
        verdict = validate(make(1, 24, 1, 32, 1000), default_table1())
        assert not verdict.ok
        assert "hidden" in verdict.violation

    def test_first_violation_named(self):
        verdict = validate(make(13, 24, 3, 33, 999), default_table1())
        assert "layers" in verdict.violation

    def test_vocab_off_grid(self):
        verdict = validate(make(1, 16, 1, 32, 1500), default_table1())
        assert not verdict.ok
        assert verdict.violation == "vocab=1500 not in range(1000, 50001, 1000)"


class TestPretrainedReference:
    def test_fields(self):
        ref = pretrained_reference()
        assert ref.layers == 12
        assert ref.hidden == 768
        assert ref.heads == 12
        assert ref.ffn == 3072
        assert ref.vocab == 50265
        assert ref.max_seq_len == 512
        assert ref.num_classes == 2

    def test_rejected_by_student_grid(self):
        verdict = validate(pretrained_reference(), default_table1())
        assert not verdict.ok
        assert "heads" in verdict.violation


class TestSerialization:
    def test_roundtrip_keys(self):
        cfg = make(3, 512, 4, 1024, 10000, max_seq_len=128, num_classes=3)
        doc = json.loads(cfg.to_json())
        assert set(doc) == {"layers", "hidden", "heads", "ffn", "vocab",
                            "max_seq_len", "num_classes"}
        assert ArchConfig.from_json(cfg.to_json()) == cfg

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            ArchConfig.from_dict({"layers": 1, "hidden": 16})

    def test_unknown_key_rejected_and_named(self):
        doc = {**make(1, 16, 1, 32, 1000).to_dict(), "max_seq_length": 64}
        with pytest.raises(ValueError, match=r"unknown config keys \['max_seq_length'\]"):
            ArchConfig.from_dict(doc)


@given(
    layers=st.integers(0, 11),
    hidden=st.integers(0, 47),
    heads=st.sampled_from([1, 2, 4, 8]),
    ffn=st.integers(0, 95),
    vocab=st.integers(0, 49),
)
def test_every_grid_config_validates(layers, hidden, heads, ffn, vocab):
    cfg = make(1 + layers, 16 + 16 * hidden, heads, 32 + 32 * ffn, 1000 + 1000 * vocab)
    assert validate(cfg, default_table1()).ok
