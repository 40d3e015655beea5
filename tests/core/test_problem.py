"""Problem/config validation."""

import pytest

from repro.core import SummarizationConfig


class TestConfigValidation:
    def test_weights_complement(self):
        config = SummarizationConfig(w_dist=0.3)
        assert config.w_size == pytest.approx(0.7)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="must equal 1"):
            SummarizationConfig(w_dist=0.5, w_size=0.7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"w_dist": -0.1},
            {"w_dist": 1.5},
            {"target_size": 0},
            {"target_dist": 1.5},
            {"max_steps": -1},
            {"merge_arity": 1},
            {"scoring": "bogus"},
            {"epsilon": 0.0},
            {"epsilon": -0.05},
            {"delta": 0.0},
            {"delta": 1.0},
            {"distance_samples": 0},
            {"distance_samples": -5},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            SummarizationConfig(**kwargs)

    def test_flavor_presets(self):
        # Flavor 2 (TARGET-SIZE): wDist=1, target_dist=1.
        flavor2 = SummarizationConfig(w_dist=1.0, target_size=50)
        assert flavor2.target_dist == 1.0
        # Flavor 3 (TARGET-DIST): wDist=0, target_size=1.
        flavor3 = SummarizationConfig(w_dist=0.0, target_dist=0.05)
        assert flavor3.target_size == 1


def test_problem_describe(thesis_problem):
    text = thesis_problem.describe()
    assert "Cancel Single Annotation" in text
    assert "Euclidean" in text
    assert "expression size: 4" in text
