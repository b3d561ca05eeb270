import numpy as np
import pytest

from kirchhoff_spectral import SpectralGrid, suites
from kirchhoff_spectral.errors import ParameterError
from kirchhoff_spectral.grid import stack_tables
from kirchhoff_spectral.suites import REGISTRY, SuiteConfig, measure_quartic_constant

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


def test_quartic_probe_samples_fixed_times(grid1, monkeypatch):
    # the probe times depend on t_end alone, not on where the steps land
    seen = []
    real = suites.integrate

    def spy(evaluator, state0, config, monitors=None, t_eval=None):
        rec = real(evaluator, state0, config, monitors=monitors, t_eval=t_eval)
        seen.append((t_eval, rec.times, rec.n_rhs))
        return rec

    monkeypatch.setattr(suites, "integrate", spy)
    res = measure_quartic_constant(grid1, 0.1, seed=2001, t_end=0.25)
    ((t_eval, times, n_rhs),) = seen
    assert suites.PROBE_DT == 1 / 8
    assert np.array_equal(t_eval, [0.0, 0.125, 0.25]) and np.array_equal(times, t_eval)
    assert res["exit_reason"] == "completed" and res["c_star_m0"] > 0.0
    assert res["n_rhs"] == n_rhs >= 1 + 12 * res["n_steps"]


class _ScaledSumTable(SpectralGrid):
    """A grid whose sum table is off by 0.1%, in both blocks of the class
    table that hold it: a class-table mutant."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.class_table = stack_tables(self.diff_table, 1.001 * self.sum_table)


@pytest.mark.parametrize("grid", [(1, 8), (2, 8)])
def test_neumann_vs_dense_sees_a_sum_table_mutant(grid, monkeypatch):
    # the class solve and its residual guard read the same sum table, so the
    # solve passes its own check; the pairwise action and matrix read no class
    # table, so they still agree with each other and the residual alone fails
    monkeypatch.setattr(suites, "SpectralGrid", _ScaledSumTable)
    result = REGISTRY["neumann-vs-dense"](SuiteConfig(grids=(grid,), samples=3))
    assert not result.passed and result.max_defect > 1e3 * result.bound
    assert result.details["matrix_vs_action"] <= result.bound
