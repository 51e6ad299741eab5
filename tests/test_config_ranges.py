"""Every config rejects an out-of-range value, nan included, and a value of
the wrong type when it is built."""

import math
from dataclasses import fields

import pytest

from smclm.decoding import BeamSearchConfig
from smclm.metrics import EvalConfig
from smclm.model import TYPE_RULES, ModelConfig
from smclm.pipeline import PipelineConfig
from smclm.training import TrainConfig

nan, inf = math.nan, math.inf
REQUIRED = {ModelConfig: {"vocab_size": 5}, TrainConfig: {}, BeamSearchConfig: {},
            EvalConfig: {}, PipelineConfig: {}}


@pytest.mark.parametrize("config,field,value", [
    (ModelConfig, "head_count", 0),
    (ModelConfig, "head_count", -4),
    (ModelConfig, "max_positions", nan),
    (ModelConfig, "init_std", nan),
    (ModelConfig, "init_std", inf),
    (ModelConfig, "init_std", 0.0),
    (TrainConfig, "learning_rate", nan),
    (TrainConfig, "learning_rate", inf),
    (TrainConfig, "weight_decay", nan),
    (TrainConfig, "weight_decay", inf),
    (TrainConfig, "warmup_steps", nan),
    (TrainConfig, "beta1", 1.0),
    (TrainConfig, "beta1", nan),
    (TrainConfig, "beta1", -0.1),
    (TrainConfig, "beta2", 1.0),
    (TrainConfig, "beta2", nan),
    (TrainConfig, "eps", 0.0),
    (TrainConfig, "eps", -1e-8),
    (TrainConfig, "eps", nan),
    (TrainConfig, "eps", inf),
    (BeamSearchConfig, "diversity_strength", nan),
    (BeamSearchConfig, "diversity_strength", inf),
    (BeamSearchConfig, "length_alpha", nan),
    (BeamSearchConfig, "length_alpha", inf),
    (BeamSearchConfig, "length_alpha", -inf),
    (BeamSearchConfig, "max_length", nan),
    (ModelConfig, "embed_dim", 8.0),
    (ModelConfig, "layer_count", True),
    (ModelConfig, "seed", "0"),
    (ModelConfig, "init_std", True),
    (ModelConfig, "init_std", "0.02"),
    (ModelConfig, "max_positions", None),
    (TrainConfig, "epochs", 1.5),
    (TrainConfig, "batch_size", True),
    (TrainConfig, "warmup_steps", "10"),
    (TrainConfig, "seed", 0.0),
    (TrainConfig, "learning_rate", "1e-3"),
    (TrainConfig, "beta1", False),
    (BeamSearchConfig, "beam_count", True),
    (BeamSearchConfig, "beam_count", 4.0),
    (BeamSearchConfig, "max_length", 8.0),
    (BeamSearchConfig, "group_count", "5"),
    (BeamSearchConfig, "no_repeat_ngram", 2.0),
    (BeamSearchConfig, "eos_id", None),
    (BeamSearchConfig, "diversity_strength", "0.6"),
    (BeamSearchConfig, "length_alpha", False),
    (EvalConfig, "beta", True),
    (EvalConfig, "beta", nan),
    (EvalConfig, "beta", "2"),
    (EvalConfig, "strict", "no"),
    (EvalConfig, "strict", 1),
    (EvalConfig, "ref_reduce", "sum"),
    (PipelineConfig, "beta", True),
    (PipelineConfig, "beta", "1"),
    (PipelineConfig, "beta", 0.0),
    (ModelConfig, "seed", -1),
    (TrainConfig, "seed", -1),
    (TrainConfig, "mode", "mlm"),
    (BeamSearchConfig, "eos_id", -1),
])
def test_out_of_range_value_is_rejected_naming_its_field(config, field, value):
    with pytest.raises(ValueError, match=field):
        config(**REQUIRED[config], **{field: value})


@pytest.mark.parametrize("config,field,value", [
    (ModelConfig, "init_std", 1e-6),
    (TrainConfig, "weight_decay", 0.0),
    (TrainConfig, "learning_rate", 1),
    (TrainConfig, "beta1", 0.0),
    (TrainConfig, "beta2", 0.0),
    (BeamSearchConfig, "diversity_strength", 0.0),
    (BeamSearchConfig, "length_alpha", -1.0),
    (EvalConfig, "strict", False),
    (EvalConfig, "ref_reduce", "max"),
    (PipelineConfig, "beta", 1),
    (ModelConfig, "seed", 0),
    (TrainConfig, "seed", 0),
    (BeamSearchConfig, "eos_id", 0),
])
def test_edge_value_is_accepted(config, field, value):
    assert getattr(config(**REQUIRED[config], **{field: value}), field) == value


@pytest.mark.parametrize("config,field,value,text", [
    (ModelConfig, "vocab_size", 3, ">= 5"),
    (TrainConfig, "learning_rate", nan, "finite and > 0"),
    (TrainConfig, "beta2", 1.0, "in [0, 1)"),
    (TrainConfig, "batch_size", True, "int"),
    (EvalConfig, "strict", "no", "bool"),
    (PipelineConfig, "beta", "1", "float"),
    (BeamSearchConfig, "eos_id", -1, ">= 0"),
])
def test_the_error_names_one_field_its_rule_and_the_value(config, field, value, text):
    with pytest.raises(ValueError) as e:
        config(**{**REQUIRED[config], field: value})
    assert str(e.value) == f"{field} must be {text}, got {value!r}"


@pytest.mark.parametrize("ids,bad", [({1.5}, 1.5), ({2, "a"}, "a"), ({True}, True)])
def test_a_banned_id_that_is_not_an_int_is_rejected(ids, bad):
    # 1.5 once failed only at decode with an IndexError, and "a" with a
    # TypeError from min
    with pytest.raises(ValueError) as e:
        BeamSearchConfig(banned_ids=ids)
    assert str(e.value) == f"banned_ids must be int, got {bad!r}"


@pytest.mark.parametrize("config", list(REQUIRED), ids=lambda c: c.__name__)
def test_every_number_field_carries_a_rule(config):
    # the type rules are keyed by string annotations, so a module that loses
    # ``from __future__ import annotations`` would skip them silently
    numeric = [f for f in fields(config) if f.type in ("int", "float", "bool", int, float, bool)]
    assert numeric
    for f in numeric:
        assert f.type in TYPE_RULES, f.name
        assert f.type == "bool" or "rule" in f.metadata, f.name
