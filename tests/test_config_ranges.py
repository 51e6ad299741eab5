"""Every config rejects an out-of-range value, nan included, and a value of
the wrong type when it is built."""

import math

import pytest

from smclm.decoding import BeamSearchConfig
from smclm.model import ModelConfig
from smclm.training import TrainConfig

nan, inf = math.nan, math.inf
REQUIRED = {ModelConfig: {"vocab_size": 5}, TrainConfig: {}, BeamSearchConfig: {}}


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
])
def test_edge_value_is_accepted(config, field, value):
    assert getattr(config(**REQUIRED[config], **{field: value}), field) == value
