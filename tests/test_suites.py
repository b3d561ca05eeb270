import math

import numpy as np
import pytest

from kirchhoff_spectral import SpectralGrid, coupling, suites, transforms
from kirchhoff_spectral.errors import ParameterError
from kirchhoff_spectral.grid import stack_tables
from kirchhoff_spectral.suites import REGISTRY, SuiteConfig, measure_quartic_constant
from oracles import STACKED_DEFECT_ROUNDING, class_blocks

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
    if name == "alternative-mixing-control":
        return  # a negative control: its defect must exceed its floor
    # one verdict rule: the headline is a bounded defect, and it decides the verdict
    assert result.passed == (result.max_defect <= result.bound)
    bounds = result.details["bounds"]
    assert any(
        result.details[defect] == result.max_defect and bound == result.bound
        for defect, bound in bounds.items()
    )


def test_table_rows_have_unique_seed_tags_and_checks_that_name_every_bound():
    rows = list(REGISTRY.values())
    tags = [row.tag for row in rows if row.tag is not None]
    assert len(tags) == len(set(tags)) == len(rows) - 1  # small-divisor draws no seed
    assert sum(row.rule is suites._judge for row in rows) == 11
    grid = SpectralGrid(1, 4)
    for row in rows:
        if row.tag is None:
            continue
        seeds = [lambda *slot, tag=row.tag, k=k: [CFG.seed, tag, 0, k, *slot] for k in (0, 1)]
        defects = row.check(grid, seeds)
        assert set(row.bounds) <= set(defects), row.name
        # per-sample values, from sample 0; the matrix check takes sample 0 only
        assert all(1 <= len(values) <= len(seeds) for values in defects.values()), row.name


def _rank_one_factor_mutant(real):
    return lambda grid, x: real(grid, x) * (1 + 1e-9)


def _scale_stage_fwd_mutant(real):
    def stage(direction, grid, x):
        out = real(direction, grid, x)
        return out * (1 + 3e-15) if direction == "fwd" else out

    return stage


@pytest.mark.parametrize(
    "module, name, mutant, suite, check, defect",
    [
        (transforms, "rank_one_factor", _rank_one_factor_mutant,
         "rank-one-inverse", "_rank_one_defects", "closed_form_residual"),
        (suites, "scale_stage", _scale_stage_fwd_mutant,
         "stage-round-trips", "_round_trip_defects", "linear"),
    ],
    ids=["rank_one_factor", "scale_stage"],
)
def test_a_failing_suite_headlines_its_failing_defect(
    module, name, mutant, suite, check, defect, monkeypatch
):
    # the failing defect has the tightest bound of its suite, so a headline
    # taken by value alone printed a passing defect on a FAIL line
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    result = REGISTRY[suite](SuiteConfig(grids=((1, 4), (2, 4)), samples=3))
    assert not result.passed and result.max_defect > result.bound
    assert result.bound == result.details["bounds"][defect]
    assert result.max_defect == result.details[defect]
    # the located sample alone, one call, reproduces the failing defect to
    # rounding: in the suite it was one column of a stack of three
    at = result.details["worst_at"]
    grid = SpectralGrid(*at["grid"])
    (again,) = getattr(suites, check)(grid, [lambda *slot: at["seed"] + list(slot)])[defect]
    assert again == pytest.approx(result.max_defect, rel=STACKED_DEFECT_ROUNDING)


def _closed_form_exponent_mutant(grid, x, rhs):
    """The closed-form rank-one inverse with sigma^2.999 for sigma^3."""
    sigma = transforms._speed_scalars(grid, x)[2]
    c = transforms._rank_one_functional(grid, x, rhs) / (4.0 * sigma ** 2.999)
    return rhs + c * x[grid.pair_swap]


def test_the_sherman_morrison_oracle_sees_the_closed_form_exponent(monkeypatch):
    # the oracle reads F and the assembled row, the closed form 1 / (4 sigma^3);
    # they meet only through -F / (1 + F v^T u) = 1 / (4 sigma^3), so an
    # exponent off by 1e-3 moves the closed form far above the bound
    monkeypatch.setattr(suites, "rank_one_solve_closed", _closed_form_exponent_mutant)
    result = REGISTRY["rank-one-inverse"](SuiteConfig(grids=((1, 4), (2, 4)), samples=3))
    assert not result.passed
    assert result.details["sherman_morrison"] > 1e3 * suites.DENSE_COMPARE_TOL


@pytest.mark.parametrize("nan_at", [(2.5,), suites.CANCELLATION_S], ids=["one-s", "every-s"])
def test_a_nan_defect_fails_its_suite(nan_at, monkeypatch):
    real = suites.energy_derivative_arrays

    def rate(grid, w, field_first, s):  # a NaN rate for every sample of the stack
        return real(grid, w, field_first, s) * (math.nan if s in nan_at else 1.0)

    monkeypatch.setattr(suites, "energy_derivative_arrays", rate)
    result = REGISTRY["cubic-energy-cancellation"](SuiteConfig(grids=((1, 4),), samples=3))
    assert not result.passed and math.isnan(result.max_defect)
    assert result.details["worst_at"]["sample"] == 0


@pytest.mark.parametrize("half", [0, 1], ids=["du", "dv"])
def test_a_nan_field_fails_the_reversibility_suite(half, monkeypatch):
    # the defect is the larger norm of its two halves; a NaN in either one
    # must reach the verdict
    from kirchhoff_spectral import dynamics

    real = dynamics.KirchhoffDynamics.rhs

    def rhs(self, t, y):
        out, n = real(self, t, y), self.grid.n_modes
        out[half * n:(half + 1) * n] = math.nan
        return out

    monkeypatch.setattr(dynamics.KirchhoffDynamics, "rhs", rhs)
    result = REGISTRY["reversibility"](SuiteConfig(grids=((1, 4),), samples=2))
    assert not result.passed and math.isnan(result.max_defect)


@pytest.mark.parametrize("nan_call, key", [(3, "c_star_m0"), (4, "c_star_s")])
def test_a_nan_rate_reaches_the_quartic_constant(nan_call, key, monkeypatch):
    # each probe takes the m0 rate, then the s rate; a NaN that is not the
    # first ratio must not be dropped from the supremum
    real = suites.energy_derivative_arrays
    calls = []

    def rate(*args):
        calls.append(args)
        return math.nan if len(calls) == nan_call else real(*args)

    monkeypatch.setattr(suites, "energy_derivative_arrays", rate)
    res = measure_quartic_constant(SpectralGrid(1, 4), 0.1, seed=3, t_end=0.5)
    assert math.isnan(res[key])


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
    # in the rotation's frame: 88 evaluations when DOP853 stepped the rotation too
    assert n_rhs <= 60


class _ScaledSumTable(SpectralGrid):
    """A grid whose sum table is off by 0.1%, in both blocks of the class
    table that hold it: a class-table mutant."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        diff, sum_ = class_blocks(self)
        self.class_table = stack_tables(diff, 1.001 * sum_)


@pytest.mark.parametrize("grid", [(1, 8), (2, 8)])
def test_neumann_vs_dense_sees_a_sum_table_mutant(grid, monkeypatch):
    # the class solve and its residual guard read the same sum table, so the
    # solve passes its own check; the pairwise action and matrix read no class
    # table, so they still agree with each other and the residual alone fails
    monkeypatch.setattr(suites, "SpectralGrid", _ScaledSumTable)
    result = REGISTRY["neumann-vs-dense"](SuiteConfig(grids=(grid,), samples=3))
    assert not result.passed and result.max_defect > 1e3 * result.bound
    assert result.details["matrix_vs_action"] <= result.bound


def _transposed_kernel(grid, x, y):
    """The coupling kernel with its table product transposed, T @ sums for sums @ T."""
    sums = grid.class_sums(x * y[grid.pair_neg])
    return sums, np.dot(grid.class_table, sums)


def test_coupling_bounds_sees_a_transposed_kernel(monkeypatch):
    # the suite takes the two families from the kernel the flows run, so a
    # fault in that product fails it; a transposed table keeps every identity
    # that operator-identities checks, so only the bounds can see this one
    for module in (coupling, suites):
        monkeypatch.setattr(module, "class_symbols", _transposed_kernel)
    result = REGISTRY["coupling-bounds"](SuiteConfig(grids=((1, 8), (2, 8)), samples=3))
    assert not result.passed and result.max_defect > 1.0
