"""Registered property suites: exact identities, inequalities, round trips.

Each suite runs one family of checks over a list of grids and reports the
worst defect against a tolerance that is pinned here, not configurable. The
suites are the rows of one table, :data:`REGISTRY`, in report order: each
:class:`Suite` row gives a name, seed tag, pinned bounds, check and sample
cap. ``verify`` runs the table from the command line and the acceptance
tests reuse it, so the two can never drift apart.

Every suite but ``small-divisor`` is one check run by the driver
:func:`_sampled`. For grid ``gi`` and sample ``k`` it calls
``check(grid, seed, k)``, where ``seed(*slot)`` is the seed list
``[cfg.seed, tag, gi, k, *slot]``; the check returns the sample's named
defects. The driver keeps the largest value of each; a NaN outranks every
number, so it is never dropped.

Defect conventions: exact identities report the max absolute residual;
inequalities report max(ratio - 1, 0) against the stated constant, so any
positive defect is a violation; round trips report max coefficient error
relative to the input scale. Checks reduce defects with :func:`_worst`,
which keeps a NaN.

Eleven rows are judged by :func:`_judge`: a suite passes when every bounded
defect is within its bound. Its headline (``max_defect``, ``bound`` and
``details["worst_at"]``) is the bounded defect with the largest value /
bound, a NaN above all and the first declared on a tie, so a suite passes
exactly when ``max_defect <= bound``. ``details`` holds every named
defect's worst value, ``bounds`` and ``worst_at = {"grid": [d, N],
"sample": k, "seed": [cfg.seed, tag, gi, k]}``, enough to re-run that one
sample. ``small-divisor`` and the negative control
``alternative-mixing-control`` keep rules of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .coupling import (
    class_symbols,
    dense_jacobian_matrix,
    jac_arrays,
    linearize,
    mix_arrays,
    pairwise_jacobian_action,
    small_divisor_check,
    solve_jacobian_arrays,
)
from .errors import ParameterError
from .fields import ConjugatePair, halves, random_field
from .grid import SpectralGrid
from .kirchhoff import random_state
from .normal_form import (
    JACOBIAN_BALL,
    decompose_rhs,
    diag_linear_arrays,
    diagonalized_rhs_arrays,
    energy_derivative_arrays,
    normal_form_direct_arrays,
    normal_form_rhs,
    normal_form_rhs_arrays,
    offdiag_cubic_arrays,
    resonant_cubic_arrays,
)
from .transforms import (
    change_of_variables,
    complex_stage,
    cubic_stage,
    diag_stage,
    q_value,
    rank_one_apply,
    rank_one_solve_closed,
    rank_one_solve_dense,
    rho,
    scale_stage,
)
from .dynamics import NormalFormDynamics, reversibility_defect
from .integrate import IntegratorConfig, integrate

# pinned tolerances
IDENTITY_TOL = 1e-12
DENSE_COMPARE_TOL = 1e-10
LINEAR_ROUND_TRIP_TOL = 1e-15
DIAG_ROUND_TRIP_TOL = 1e-12
CUBIC_ROUND_TRIP_TOL = 1e-12
FULL_ROUND_TRIP_TOL = 1e-11
AGREEMENT_TOL = 1e-10
REVERSIBILITY_TOL = 1e-13
INEQUALITY_SLACK = 1e-12
CANCELLATION_S = (1.0, 2.5)
BOUND_S = (0.0, 1.0, 2.3)
LEAK_FLOOR = 1e-2  # the negative control's defect must reach it
# the small-divisor sweep: every class pair with |j|, |k| <= radius, per dimension
DIVISOR_RADIUS = 50
DIVISOR_DIMS = (2, 3)


@dataclass
class SuiteConfig:
    grids: tuple = ((1, 4), (1, 8), (2, 4), (2, 8))
    samples: int = 200
    seed: int = 20260808
    corrupt_diff_sign: bool = False


@dataclass
class SuiteResult:
    suite: str
    samples: int
    max_defect: float
    bound: float
    passed: bool
    details: dict = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "samples": self.samples,
            "max_defect": self.max_defect,
            "bound": self.bound,
            "pass": self.passed,
            "details": self.details,
        }


def _seed(cfg: SuiteConfig, *parts: int) -> list[int]:
    return [cfg.seed, *parts]


def _worst(values) -> float:
    """The largest of ``values``, or NaN if any of them is NaN."""
    return float(np.max(values))


def _amax(arr) -> float:
    return float(np.max(np.abs(arr)))


def _rank(value: float) -> tuple:
    """Sort key under which a NaN ranks above every number."""
    return (math.isnan(value), value)


def _sampled(suite: Suite, cfg: SuiteConfig):
    """Run the row's ``check(grid, seed, k)`` on ``cfg.samples`` samples per
    grid; a row with a ``cap`` takes at least 1 and at most ``cap``.

    Returns the sample count, the largest value of each named defect the
    check returned (a NaN kept) and, per name, the ``worst_at`` record of
    the first sample where that value occurred.
    """
    samples = cfg.samples if suite.cap is None else max(1, min(cfg.samples, suite.cap))
    worst: dict[str, float] = {}
    at: dict[str, dict] = {}
    for gi, (d, size) in enumerate(cfg.grids):
        g = SpectralGrid(d, size, corrupt_diff_sign=cfg.corrupt_diff_sign)
        for k in range(samples):
            seed = partial(_seed, cfg, suite.tag, gi, k)
            for name, value in suite.check(g, seed, k).items():
                if name not in worst or _rank(value) > _rank(worst[name]):
                    worst[name] = value
                    at[name] = {"grid": [d, size], "sample": k, "seed": seed()}
    count = len(cfg.grids) * samples
    if count == 0:
        raise ParameterError("a sampled suite needs at least one grid and one sample")
    return count, worst, at


def _judge(suite: Suite, cfg: SuiteConfig) -> SuiteResult:
    """The rule of a judged row: it passes when each defect named in its
    bounds is within its bound.

    The headline is the bounded defect with the largest value / bound (see
    the module docstring); defects without a bound are reported, not judged.
    """
    count, worst, at = _sampled(suite, cfg)
    bounds = suite.bounds
    head = max(bounds, key=lambda name: _rank(worst[name] / bounds[name]))
    passed = all(worst[name] <= bound for name, bound in bounds.items())
    details = dict(worst, worst_at=at[head], bounds=dict(bounds))
    return SuiteResult(suite.name, count, worst[head], bounds[head], passed, details)


def _exceeds(suite: Suite, cfg: SuiteConfig) -> SuiteResult:
    """The negative control's rule: it passes when its one defect reaches its floor."""
    count, worst, at = _sampled(suite, cfg)
    ((name, floor),) = suite.bounds.items()
    details = {"direction": "defect must EXCEED the bound (negative control)"}
    details["worst_at"] = at[name]
    return SuiteResult(suite.name, count, worst[name], floor, bool(worst[name] >= floor), details)


def _exhaustive(suite: Suite, cfg: SuiteConfig) -> SuiteResult:
    """The small-divisor rule: ``check(d, DIVISOR_RADIUS)`` over every class
    pair in each of DIVISOR_DIMS, whatever ``cfg`` says; no violation passes."""
    runs = {d: suite.check(d, DIVISOR_RADIUS) for d in DIVISOR_DIMS}
    violations = sum(r["violations"] for r in runs.values())
    pairs = sum(r["class_pairs"] for r in runs.values())
    details = {f"d{d}_worst_margin": r["worst_margin"] for d, r in runs.items()}
    bound = suite.bounds["violations"]
    return SuiteResult(suite.name, pairs, float(violations), bound, violations <= bound, details)


class Suite(NamedTuple):
    """One row of the suite table; calling it with a config runs its rule."""

    name: str
    tag: int | None  # the seed tag, unique per row; None for a suite that draws no seed
    bounds: dict  # pinned bound per judged defect name
    check: Callable  # check(grid, seed, k) -> {defect name: value}, for a sampled row
    cap: int | None = None  # at most this many samples per grid
    rule: Callable = _judge

    def __call__(self, cfg: SuiteConfig) -> SuiteResult:
        return self.rule(self, cfg)


# -- exact identities ---------------------------------------------------------


def _families(g: SpectralGrid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The diff and the sum family of (u, v) per mode, the rows of a (2, n) array:
    the halves of the kernel's symbols of [u; 0] and [v; 0], scattered by class."""
    zero = np.zeros_like(u)
    _, symbols = class_symbols(g, np.concatenate((u, zero)), np.concatenate((v, zero)))
    return symbols.reshape(2, g.n_classes)[:, g.class_of]


def _operator_defects(g: SpectralGrid, seed, k: int) -> dict:
    """Self-adjointness, conjugation equivariance, multiplier commutation,
    block swap, and the anti-commutator with the linear rotation."""
    m0, n = g.m0, g.n_modes
    u, v = (random_field(g, seed(slot), 0.7, m0, "free").coeffs for slot in (0, 1))
    y, h = (random_field(g, seed(slot), 1.0, 0.0, "free").coeffs for slot in (2, 3))

    def conj(c):  # the coefficients of the conjugate function
        return np.conj(c[g.neg_index])

    lam, defects = g.absj ** 1.7, []
    for c, c_conj in zip(_families(g, u, v), _families(g, conj(u), conj(v))):
        ay, ah = c * y, c * h
        defects += [
            abs(g.pairing(ay, h) - g.pairing(y, ah)),
            _amax(conj(ay) - c_conj * conj(y)),
            _amax(c * (lam * y) - lam * ay),
        ]
    # block swap: first block of mix(u, v) equals second block of mix(v, u)
    zero = np.zeros_like(y)
    uv = linearize(g, np.concatenate((u, v)))
    a12 = mix_arrays(uv, np.concatenate((zero, y)))[:n]
    vu = linearize(g, np.concatenate((v, u)))
    a21 = mix_arrays(vu, np.concatenate((y, zero)))[n:]
    # anti-commutator: mix . diag_linear + diag_linear . mix = 0
    yh = np.concatenate((y, h))
    anti = mix_arrays(uv, diag_linear_arrays(g, yh)) + diag_linear_arrays(g, mix_arrays(uv, yh))
    defects += [_amax(a12 - a21), _amax(anti)]
    return {"defect": _worst(defects)}


def _homological_defects(g: SpectralGrid, seed, k: int) -> dict:
    """(mix + jac) applied to the linear rotation of the state equals the
    cubic off-diagonal term minus the resonant cubic, on arbitrary pairs."""
    x = np.concatenate([random_field(g, seed(i), 0.4, g.m0, "free").coeffs for i in (0, 1)])
    dx = diag_linear_arrays(g, x)
    lin = linearize(g, x)
    lhs = mix_arrays(lin, dx) + jac_arrays(lin, dx)
    return {"defect": _amax(lhs - (offdiag_cubic_arrays(lin) - resonant_cubic_arrays(lin)))}


def _cancellation_defects(g: SpectralGrid, seed, k: int) -> dict:
    """The resonant cubic and the (shifted) linear rotation contribute exactly
    nothing to the derivative of any Sobolev norm on conjugate pairs."""
    pair = ConjugatePair(random_field(g, seed(0), 0.25, g.m0, "free"))
    x, w = pair.doubled, pair.w.coeffs
    x3 = resonant_cubic_arrays(linearize(g, x))[: g.n_modes]
    d1 = diag_linear_arrays(g, x)[: g.n_modes]
    rates = [energy_derivative_arrays(g, w, f, s) for s in CANCELLATION_S for f in (x3, d1)]
    return {"defect": _amax(rates)}


def _rank_one_defects(g: SpectralGrid, seed, k: int) -> dict:
    """Closed-form inverse of the diag-stage rank-one correction vs dense solve."""
    x = ConjugatePair(random_field(g, seed(0), 0.6, g.m0, "free")).doubled  # [eta; psi]
    rhs = np.concatenate([random_field(g, seed(slot), 1.0, 0.0, "free").coeffs for slot in (1, 2)])
    closed = rank_one_solve_closed(g, x, rhs)
    dense = rank_one_solve_dense(g, x, rhs)
    return {
        "dense": _amax(closed - dense),
        "closed_form_residual": _amax(closed + rank_one_apply(g, x, closed) - rhs),
    }


def _class_defects(g: SpectralGrid, seed, k: int) -> dict:
    """The class-space solve of (I + jac) x = rhs meets an independent operator.

    The defect is |A x - r|_inf / max(1, |r|_inf), with A x applied pairwise
    by ``pairwise_jacobian_action`` from the grid's pair tables. On the first
    sample of each grid the action is checked against the assembled
    ``dense_jacobian_matrix`` at the same bound and scale, the defect
    ``matrix_vs_action``. Both are judged, and either can be the headline.
    The solve's own guard goes through ``jac_arrays``, which shares its class
    tables, so a fault in those shows only here. The name dates from the
    Neumann-series solve; reports and the benchmark address it so.
    """
    state = ConjugatePair(random_field(g, seed(0), 0.4, g.m0, "free")).doubled
    w, z = halves(state)
    r = np.concatenate([random_field(g, seed(slot), 1.0, 0.0, "free").coeffs for slot in (1, 2)])
    x = solve_jacobian_arrays(linearize(g, state), r)
    ax = pairwise_jacobian_action(g, w, z, x)
    scale = max(1.0, _amax(r))
    defects = {"defect": _amax(ax - r) / scale}
    if k == 0:
        matrix_x = dense_jacobian_matrix(g, w, z) @ x
        defects["matrix_vs_action"] = _amax(matrix_x - ax) / scale
    return defects


def _reversibility_defects(g: SpectralGrid, seed, k: int) -> dict:
    """Time-reversal anti-symmetry of the physical field on random states."""
    return {"defect": reversibility_defect(random_state(g, seed(), 0.3))}


# -- inequalities ---------------------------------------------------------------


def _coupling_defects(g: SpectralGrid, seed, k: int) -> dict:
    """Operator-norm bounds of the two coupling families:
    diff <= (3/8) ||u||_m0 ||v||_m0 ||h||_s,  sum <= (1/16) ||u||_1 ||v||_1 ||h||_s."""
    m0 = g.m0
    u = random_field(g, seed(0), 0.8, m0, "free").coeffs
    v = random_field(g, seed(1), 0.6, m0, "free").coeffs
    h = random_field(g, seed(2), 1.0, 0.0, "free").coeffs
    hd, hs = _families(g, u, v) * h
    cd = (3.0 / 8.0) * g.coeff_norm(u, m0) * g.coeff_norm(v, m0)
    cs = (1.0 / 16.0) * g.coeff_norm(u, 1.0) * g.coeff_norm(v, 1.0)
    rd = [g.coeff_norm(hd, s) / (cd * g.coeff_norm(h, s)) for s in BOUND_S]
    rs = [g.coeff_norm(hs, s) / (cs * g.coeff_norm(h, s)) for s in BOUND_S]
    excess = _worst([1.0, *rd, *rs]) - 1.0
    return {"excess": excess, "max_ratio_diff": _worst(rd), "max_ratio_sum": _worst(rs)}


def _mix_jac_defects(g: SpectralGrid, seed, k: int) -> dict:
    """Norm bounds of the mix operator and its flow correction on conjugate pairs:
    ||mix (a,b)||_s <= (7/16)||w||_m0^2 ||a||_s,
    ||jac (a,b)||_s <= (7/16)||w||_m0^2 ||a||_s + (7/8)||w||_m0 ||w||_s ||a||_m0."""
    m0 = g.m0
    w = random_field(g, seed(0), 0.45, m0, "free")
    alpha = random_field(g, seed(1), 0.9, m0, "free")
    lin = linearize(g, ConjugatePair(w).doubled)
    ab = ConjugatePair(alpha).doubled
    ma, ka = mix_arrays(lin, ab)[: g.n_modes], jac_arrays(lin, ab)[: g.n_modes]
    wm = w.norm(m0)
    am = alpha.norm(m0)
    ratios = []
    for s in BOUND_S:
        mix_bound = (7.0 / 16.0) * wm * wm * alpha.norm(s)
        jac_bound = mix_bound + (7.0 / 8.0) * wm * w.norm(s) * am
        ratios += [g.coeff_norm(ma, s) / mix_bound, g.coeff_norm(ka, s) / jac_bound]
    return {"defect": _worst([1.0, *ratios]) - 1.0}


def _decomposition_defects(g: SpectralGrid, seed, k: int) -> dict:
    """The four-part split of the diagonalized field: the parts sum to the
    field, and the cubic/tail parts obey their explicit norm bounds."""
    n = g.n_modes
    w = random_field(g, seed(0), 0.4, g.m0, "free")
    pair = ConjugatePair(w)
    parts = decompose_rhs(pair)
    field = diagonalized_rhs_arrays(g, pair.doubled)
    total = parts.diag_linear + parts.diag_tail + parts.offdiag_cubic + parts.offdiag_tail
    scale = max(1.0, _amax(field[:n]))
    x3 = resonant_cubic_arrays(linearize(g, pair.doubled))
    w1 = w.norm(1.0)
    ratios = []
    for s in BOUND_S:
        ws = w.norm(s)
        cubic_s = g.coeff_norm(parts.offdiag_cubic[:n], s)
        ratios += [
            cubic_s / (0.5 * w1 * w1 * ws),
            g.coeff_norm(x3[:n], s) / (0.25 * w1 * w1 * ws),
            g.coeff_norm(parts.offdiag_tail[:n], s) / max(2.0 * parts.p_value * cubic_s, 1e-300),
        ]
    return {
        "sum_residual": _amax(total - field) / scale,
        "inequality": _worst([1.0, *ratios]) - 1.0,
    }


# -- round trips and agreement ----------------------------------------------------


def _round_trip_defects(g: SpectralGrid, seed, k: int) -> dict:
    """Inverse consistency of every stage and of the full composition, plus
    the contraction-ball norm bounds of the cubic-stage inverse."""
    m0, n = g.m0, g.n_modes
    ab = np.concatenate([random_field(g, seed(slot), 0.8, m0, "free").coeffs for slot in (0, 1)])
    linear = _worst(
        [_amax(stage("inv", g, stage("fwd", g, ab)) - ab) for stage in (scale_stage, complex_stage)]
    ) / _amax(ab)
    pair = ConjugatePair(random_field(g, seed(2), 0.9, 1.0, "free")).doubled
    fg = diag_stage("fwd", g, pair)
    back = diag_stage("inv", g, fg)
    diag = _amax(back[:n] - pair[:n]) / max(1.0, _amax(pair[:n]))
    qf = q_value(g, fg)
    radical = abs(qf * math.sqrt(1.0 + 2.0 * qf) - q_value(g, pair))
    x = ConjugatePair(random_field(g, seed(3), 0.2, m0, "free")).doubled
    back = cubic_stage("inv", g, cubic_stage("fwd", g, x))
    cubic = _amax(back[:n] - x[:n]) / max(1.0, _amax(x[:n]))
    # inverse-ball norm bounds: ||w|| <= 2 ||eta|| at m0 and above
    eta_b = ConjugatePair(random_field(g, seed(4), 0.24, m0, "free")).doubled
    winv = cubic_stage("inv", g, eta_b)[:n]
    ball = _worst(
        [1.0, *(g.coeff_norm(winv, s) / (2.0 * g.coeff_norm(eta_b[:n], s)) for s in (m0, m0 + 1.0))]
    ) - 1.0
    # the (u,v)-side norm is about twice the w-side norm, so the
    # w -> uv -> w loop needs headroom to stay inside both balls
    small = ConjugatePair(random_field(g, seed(5), 0.045, m0, "free"))
    back = change_of_variables("inv", change_of_variables("fwd", small))
    full_w = _amax(back.w.coeffs - small.w.coeffs) / max(1e-6, _amax(small.w.coeffs))
    state = random_state(g, seed(6), 0.09)
    uv_back = change_of_variables("fwd", change_of_variables("inv", state))
    scale_uv = max(1e-6, _amax(state.u.coeffs), _amax(state.v.coeffs))
    errors = [_amax(uv_back.u.coeffs - state.u.coeffs), _amax(uv_back.v.coeffs - state.v.coeffs)]
    full = _worst([full_w, _worst(errors) / scale_uv])
    kinds = {"linear": linear, "diag": diag, "cubic": cubic, "full": full, "radical": radical}
    return dict(kinds, inverse_ball_bound_defect=ball)


def _agreement_defects(g: SpectralGrid, seed, k: int) -> dict:
    """Direct vs structured evaluation of the normal-form field (the full
    operator-algebra regression check)."""
    m0 = g.m0
    x = ConjugatePair(random_field(g, seed(0), 0.04 + 0.16 * (k % 5) / 4.0, m0, "free")).doubled
    direct = normal_form_direct_arrays(g, x)
    structured = normal_form_rhs_arrays(g, x)
    den = max(g.coeff_norm(direct[: g.n_modes], m0), 1e-300)
    return {"defect": g.doubled_norm(direct - structured, m0) / den}


def _leak_defects(g: SpectralGrid, seed, k: int) -> dict:
    """Negative control for the diag-stage normalization.

    The Q-preserving normalization 1/(1+rho) of the mixing matrix (instead of
    the supported (1-rho^2)^{-1/2}) leaves a diagonal order-zero correction
    with the real coefficient c = rho'(Q) dQ/dt / (1-rho^2), whose energy
    contribution 2 c ||eta||_s^2 does not cancel. The suite passes when that
    leak, normalized by the off-diagonal scale ||eta||_1^2 ||eta||_s^2, is
    bounded away from zero on typical states, in contrast to the exact-zero
    diagonal contribution of the supported map. Diagnostic only: the
    alternative map is never offered as a transform.
    """
    s = 1.5
    x = ConjugatePair(random_field(g, seed(0), 0.3, 1.0, "free")).doubled
    (a, b), (fa, fb) = halves(x), halves(diagonalized_rhs_arrays(g, x))
    q = q_value(g, x)
    dq = 0.5 * g.pairing(a + b, fa + fb, 0.5)
    if abs(dq.imag) > 1e-10 * max(1.0, abs(dq)):
        raise AssertionError("dQ/dt must be real on conjugate pairs")
    r = rho(q)
    rho_prime = -1.0 / (math.sqrt(1 + 2 * q) * (1 + q + math.sqrt(1 + 2 * q)))
    c = rho_prime * dq.real / (1.0 - r * r)
    leak = abs(2.0 * c) * g.coeff_norm(a, s) ** 2
    scale = g.coeff_norm(a, 1.0) ** 2 * g.coeff_norm(a, s) ** 2
    return {"leak": leak / scale}


#: every suite in report order; the rows' seed tags are unique
REGISTRY = {suite.name: suite for suite in (
    Suite("operator-identities", 1, {"defect": IDENTITY_TOL}, _operator_defects),
    Suite("homological-identity", 2, {"defect": IDENTITY_TOL}, _homological_defects),
    Suite("cubic-energy-cancellation", 3, {"defect": IDENTITY_TOL}, _cancellation_defects),
    Suite("rank-one-inverse", 4, {"dense": DENSE_COMPARE_TOL,
                                  "closed_form_residual": IDENTITY_TOL}, _rank_one_defects),
    Suite("neumann-vs-dense", 5, {"defect": IDENTITY_TOL, "matrix_vs_action": IDENTITY_TOL},
          _class_defects),
    Suite("reversibility", 6, {"defect": REVERSIBILITY_TOL}, _reversibility_defects),
    Suite("coupling-bounds", 7, {"excess": INEQUALITY_SLACK}, _coupling_defects),
    Suite("mix-jac-bounds", 8, {"defect": INEQUALITY_SLACK}, _mix_jac_defects),
    Suite("decomposition", 9, {"sum_residual": IDENTITY_TOL, "inequality": INEQUALITY_SLACK},
          _decomposition_defects),
    Suite("small-divisor", None, {"violations": 0.0}, small_divisor_check, rule=_exhaustive),
    Suite("stage-round-trips", 10, {
        "linear": LINEAR_ROUND_TRIP_TOL, "diag": DIAG_ROUND_TRIP_TOL,
        "cubic": CUBIC_ROUND_TRIP_TOL, "full": FULL_ROUND_TRIP_TOL,
        "radical": DIAG_ROUND_TRIP_TOL, "inverse_ball_bound_defect": INEQUALITY_SLACK,
    }, _round_trip_defects),
    Suite("normal-form-agreement", 11, {"defect": AGREEMENT_TOL}, _agreement_defects, cap=100),
    Suite("alternative-mixing-control", 12, {"leak": LEAK_FLOOR}, _leak_defects, rule=_exceeds),
)}
# the benchmark's span tracer wraps this name together with its registry entry
suite_neumann_vs_dense = REGISTRY["neumann-vs-dense"]


def run_suites(cfg: SuiteConfig, names: list[str] | None = None) -> list[SuiteResult]:
    names = list(REGISTRY) if names is None else names
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise ParameterError(f"unknown suites: {unknown}")
    return [REGISTRY[name](cfg) for name in names]


# -- empirical constants --------------------------------------------------------

#: spacing of the quartic probe's sample times, so that C* is a property of
#: the flow and not of where the integrator's steps land
PROBE_DT = 1 / 8


def measure_quartic_constant(
    grid: SpectralGrid,
    eps: float,
    seed: int,
    t_end: float = 20.0,
) -> dict:
    """Empirical constant of the quartic energy estimate along a normal-form run.

    Integrates the normal-form flow from ||w0||_m0 = eps and returns the
    supremum over the sample times 0, PROBE_DT, ..., t_end (evenly spaced, at
    most PROBE_DT apart) of |d/dt ||w||_m0^2| / ||w||_m0^6 (a lower bound for
    any valid universal constant), plus the same ratio at the order
    s = m0 + 1 normalized by ||w||_1^2 ||w||_m0^2 ||w||_s^2. ``n_rhs`` counts the
    integrator's field evaluations; each probe evaluates the field once more.
    A start at or above the field's ball JACOBIAN_BALL is not integrated: its
    result has exit_reason ``initial_ball_exit`` and null constants.
    """
    m0 = grid.m0
    s2 = m0 + 1.0
    w0 = random_field(grid, seed, eps, m0, "free")
    if w0.norm(m0) >= JACOBIAN_BALL:
        # the probe at t = 0 would meet the field's ball check before the
        # integrator's guarded first field evaluation does
        return {"eps": eps, "c_star_m0": None, "c_star_s": None, "s_extra": s2,
                "exit_reason": "initial_ball_exit", "n_steps": 0, "n_rhs": 0}
    dyn = NormalFormDynamics(grid)
    ratios_m0: list[float] = []
    ratios_s: list[float] = []

    def probe(t, state):
        rhs = normal_form_rhs(state)
        w = state.w
        ed0 = energy_derivative_arrays(grid, w.coeffs, rhs.total[0], m0)
        ratios_m0.append(abs(ed0) / max(w.norm(m0) ** 6, 1e-300))
        eds = energy_derivative_arrays(grid, w.coeffs, rhs.total[0], s2)
        den = max(w.norm(1.0) ** 2 * w.norm(m0) ** 2 * w.norm(s2) ** 2, 1e-300)
        ratios_s.append(abs(eds) / den)
        return ratios_m0[-1]

    cfg = IntegratorConfig(
        rel_tol=1e-10, abs_tol=1e-14, t_end=t_end, store_states=False, ball_threshold=0.5
    )
    ts = np.linspace(0.0, t_end, math.ceil(t_end / PROBE_DT) + 1)
    rec = integrate(dyn, ConjugatePair(w0), cfg, monitors={"quartic_ratio": probe}, t_eval=ts)
    return {
        "eps": eps,
        "c_star_m0": _worst(ratios_m0),
        "c_star_s": _worst(ratios_s),
        "s_extra": s2,
        "exit_reason": rec.exit_reason,
        "n_steps": rec.n_steps,
        "n_rhs": rec.n_rhs,
    }
