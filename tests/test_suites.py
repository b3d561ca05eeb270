import pytest

from kirchhoff_spectral.errors import ParameterError
from kirchhoff_spectral.suites import REGISTRY, SuiteConfig

CFG = SuiteConfig(grids=((1, 4), (2, 4)), samples=2)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_every_suite_counts_its_samples_and_locates_its_worst_defect(name):
    result = REGISTRY[name](CFG)
    assert result.suite == name
    if name == "small-divisor":
        # class pairs with |j|, |k| <= 50 in d = 2 and 3, not random samples
        assert result.samples == 4_923_500
        assert "worst_at" not in result.details
        return
    assert result.samples == CFG.samples * len(CFG.grids)
    at = result.details["worst_at"]
    assert tuple(at["grid"]) in CFG.grids
    assert 0 <= at["sample"] < CFG.samples
    assert at["seed"][0] == CFG.seed and at["seed"][3] == at["sample"]


def test_a_sampled_suite_without_samples_is_a_parameter_error():
    with pytest.raises(ParameterError):
        REGISTRY["reversibility"](SuiteConfig(samples=0))
