"""Deterministic explicit time integration with per-step invariant monitoring.

Three tableaus in ``SCHEMES``, run by one explicit Runge-Kutta step:
classical fixed-step RK4, the adaptive Dormand-Prince 5(4) embedded pair
with PI step-size control, and Dormand-Prince 8(5,3) (DOP853; Hairer,
Norsett & Wanner, *Solving ODEs I*, II.10), whose error estimate combines a
5th- and a 3rd-order embedded solution as in Hairer's code. Both adaptive
schemes propagate their higher-order solution. The schemes are deliberately
*not* structure preserving: the workbench measures conservation defects as
diagnostics, and drift channels are only meaningful when the integrator
does not conserve them by construction.

After every accepted step the state is projected back onto its exact
structural symmetry class and the projection defect is logged (for the
states used here the right-hand sides preserve the symmetry exactly, so the
defect stays at rounding level).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError, ParameterError


class _Tableau(NamedTuple):
    """An explicit Runge-Kutta scheme whose last row is the new point.

    Row ``i`` of the strictly lower triangular ``a`` forms the input of stage
    ``i`` as ``y + dt * a[i] @ k``. The last row holds the weights ``b`` (its
    node is 1), so its input is the new state and its stage, the field there,
    is the next step's ``k[0]``. ``e`` are the error weights of an embedded
    pair (higher minus lower order): one row, or two (a 5th- and a 3rd-order
    estimate) combined as in Hairer's DOP853; a fixed-step scheme has none.
    ``a`` and ``e`` are complex so that the stage products cast nothing.
    ``exponents`` drive the step-size controller: a rejected step scales by
    ``0.9 * err**-reject``, an accepted one by
    ``0.9 * err**-accept * err_prev**memory``.
    """

    c: tuple
    a: np.ndarray
    e: np.ndarray | None = None
    exponents: tuple = ()  # (reject, accept, memory) for an adaptive scheme


def _tableau(c, rows, e=None, exponents=()) -> _Tableau:
    a = np.zeros((len(c), len(c)), dtype=np.complex128)
    for i, row in enumerate(rows, start=1):
        a[i, : len(row)] = row
    e = None if e is None else np.asarray(e, dtype=np.complex128)
    return _Tableau(tuple(c), a, e, exponents)


#: scheme name -> tableau; the keys are the only list of scheme names
SCHEMES = {
    "rk4": _tableau(
        (0.0, 0.5, 0.5, 1.0, 1.0),
        ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0), (1 / 6, 1 / 3, 1 / 3, 1 / 6)),
    ),
    "rk45_adaptive": _tableau(
        (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
        (
            (1 / 5,),
            (3 / 40, 9 / 40),
            (44 / 45, -56 / 15, 32 / 9),
            (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
            (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
            (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
        ),
        e=(71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),
        exponents=(0.2, 0.17, 0.04),
    ),
    # the coefficients of Hairer's DOP853 code, as in scipy's
    # dop853_coefficients; the error rows are E5, then E3 (evaluated)
    "dop853": _tableau(
        (0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
         0.118350341907227396726757197510, 0.281649658092772603273242802490,
         0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
         0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0),
        (
            (5.26001519587677318785587544488e-2,),
            (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
            (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
            (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
             9.24834003261792003115737966543e-1),
            (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
             1.25467687566822425016691814123e-1),
            (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
             6.02165389804559606850219397283e-2, -1.7578125e-2),
            (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
             1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
             8.27378916381402288758473766002e-3),
            (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
             -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
             2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
            (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
             -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
             1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
             -2.03312017085086261358222928593e-2),
            (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
             1.09143734899672957818500254654, -8.14978701074692612513997267357,
             -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
             2.49360555267965238987089396762, -3.0467644718982195003823669022),
            (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
             -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
             2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
             -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
             6.43392746015763530355970484046e-1),
            (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
             4.45031289275240888144113950566, 1.89151789931450038304281599044,
             -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
             -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
             4.47106157277725905176885569043e-2),
        ),
        e=(
            (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
             -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
             0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
             0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
             -0.2235530786388629525884427845e-1, 0.0),
            (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
             -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
             0.02265179219836082, 0.0),
        ),
        exponents=(1 / 8, 1 / 8, 0.0),
    ),
}


@dataclass
class IntegratorConfig:
    scheme: str = "rk45_adaptive"  # a key of SCHEMES
    dt: float = 1e-2  # fixed step (rk4) or initial step (rk45)
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_end: float = 1.0
    monitor_stride: int = 10
    dt_min: float = 1e-12
    max_steps: int | None = None
    ball_threshold: float | None = None
    store_states: bool = True

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if self.dt <= 0 or self.t_end < 0:
            raise ParameterError("dt must be > 0 and t_end >= 0")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ParameterError("tolerances must be > 0")
        if self.monitor_stride < 1:
            raise ParameterError("monitor_stride must be >= 1")


@dataclass
class TrajectoryRecord:
    """Sampled trajectory plus named monitor channels on a shared time axis."""

    times: np.ndarray
    states: list
    channels: dict[str, np.ndarray]
    exit_reason: str
    exit_time: float
    n_steps: int
    n_rejected: int
    max_projection_defect: float
    notes: dict = dataclass_field(default_factory=dict)

    def to_csv(self, path) -> None:
        """One row per sample; floats with 17 significant digits; LF endings."""
        names = sorted(self.channels)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(["time"] + names) + "\n")
            for i, t in enumerate(self.times):
                row = [f"{t:.17g}"] + [f"{self.channels[n][i]:.17g}" for n in names]
                fh.write(",".join(row) + "\n")


def _error_norm(err, y0, y1, rel_tol, abs_tol) -> float:
    """RMS of the scaled error; two rows ``(err5, err3)`` are combined as
    ``e5**2 / sqrt((e5**2 + 0.01 * e3**2) * n)`` (Hairer's DOP853)."""
    scale = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    q = np.abs(err) / scale
    sq = np.add.reduce(q * q, axis=-1)
    if err.ndim == 1:
        return float(np.sqrt(sq / q.size))
    e5, e3 = sq
    return 0.0 if e5 == 0.0 else float(e5 / np.sqrt((e5 + 0.01 * e3) * err.shape[-1]))


def _rk_step(scheme: _Tableau, rhs, t, y, dt, k, rel_tol, abs_tol):
    """One attempt from ``k[0] = rhs(t, y)``: fills ``k[1:]``; returns the new
    state and its error norm (0 for a fixed-step scheme)."""
    for i in range(1, len(scheme.c)):
        y_i = y + dt * (scheme.a[i, :i] @ k[:i])
        k[i] = rhs(t + scheme.c[i] * dt, y_i)
    if scheme.e is None:
        return y_i, 0.0
    return y_i, _error_norm(dt * (scheme.e @ k), y, y_i, rel_tol, abs_tol)


def integrate(
    evaluator,
    state0,
    config: IntegratorConfig,
    monitors: dict | None = None,
    t_eval=None,
) -> TrajectoryRecord:
    """Integrate a field evaluator from state0 to t_end with monitoring.

    Samples are taken every ``monitor_stride`` accepted steps, or exactly at
    the times in ``t_eval`` when given (step sizes are clamped to land on
    them). The run stops early with a distinct exit reason on numerical
    blowup, on leaving the admissible ball (``config.ball_threshold`` against
    the evaluator's ball norm, or a field evaluation that raises a domain,
    convergence or numerical error, whose cause goes to ``notes["error"]``),
    or on adaptive step-size underflow.
    """
    config.validate()
    monitors = monitors or {}
    rhs = evaluator.rhs
    y = evaluator.pack(state0).astype(np.complex128)
    t = 0.0
    times: list[float] = []
    states: list = []
    channels: dict[str, list[float]] = {name: [] for name in monitors}
    n_steps = 0
    n_rejected = 0
    max_defect = 0.0
    exit_reason = "completed"

    eval_times = None
    eval_idx = 0
    if t_eval is not None:
        eval_times = np.asarray(t_eval, dtype=np.float64)
        if np.any(np.diff(eval_times) <= 0) or (len(eval_times) and eval_times[0] < 0):
            raise ParameterError("t_eval must be strictly increasing and nonnegative")

    def sample(state=None):
        times.append(t)
        if state is None and (config.store_states or monitors):
            state = evaluator.unpack(y.copy())
        if config.store_states:
            states.append(state)
        for name, fn in monitors.items():
            channels[name].append(float(fn(t, state)))

    if eval_times is None or (len(eval_times) and eval_times[0] == 0.0):
        sample(state0)
        if eval_times is not None:
            eval_idx = 1

    notes: dict = {}

    def stopped_by(exc: Exception) -> str:
        notes["error"] = f"{type(exc).__name__}: {exc}"
        return "ball_exit"

    def finish(reason: str) -> TrajectoryRecord:
        return TrajectoryRecord(
            times=np.asarray(times),
            states=states,
            channels={name: np.asarray(v) for name, v in channels.items()},
            exit_reason=reason,
            exit_time=t,
            n_steps=n_steps,
            n_rejected=n_rejected,
            max_projection_defect=max_defect,
            notes=notes,
        )

    if config.t_end == 0.0:
        return finish("completed")

    dt = min(config.dt, config.t_end)
    scheme = SCHEMES[config.scheme]
    adaptive = scheme.e is not None
    k_reject, k_accept, k_memory = scheme.exponents if adaptive else (0.0, 0.0, 0.0)
    k = np.empty((len(scheme.c), y.size), dtype=np.complex128)
    try:
        k[0] = rhs(t, y)
    except (DomainError, ConvergenceError, NumericalError) as exc:
        return finish(stopped_by(exc))
    err_prev = 1e-4
    since_sample = 0

    while t < config.t_end - 1e-14 * max(1.0, config.t_end):
        if config.max_steps is not None and n_steps >= config.max_steps:
            exit_reason = "max_steps"
            break
        target = config.t_end
        if eval_times is not None and eval_idx < len(eval_times):
            target = min(target, float(eval_times[eval_idx]))
        gap = target - t
        if gap <= 1e-13 * max(1.0, abs(target)):
            # already at the target up to rounding: snap and sample
            t = target
            if eval_times is not None and eval_idx < len(eval_times) and target == float(
                eval_times[eval_idx]
            ):
                sample()
                eval_idx += 1
                since_sample = 0
            continue
        dt_try = min(dt, gap)
        if adaptive and dt < config.dt_min:
            exit_reason = "dt_underflow"
            break
        try:
            # overflow to inf is handled explicitly below as blowup
            with np.errstate(invalid="ignore", over="ignore"):
                y_new, err = _rk_step(scheme, rhs, t, y, dt_try, k, config.rel_tol, config.abs_tol)
        except (DomainError, ConvergenceError, NumericalError) as exc:
            exit_reason = stopped_by(exc)
            break
        if not np.isfinite(y_new.view(np.float64)).all():
            exit_reason = "blowup"
            break

        if adaptive and err > 1.0:
            n_rejected += 1
            dt = dt_try * max(0.2, 0.9 * err ** -k_reject)
            continue

        # accept
        t = t + dt_try
        y, defect = evaluator.project(y_new)
        max_defect = max(max_defect, defect)
        # the field at the new point is the next step's first stage
        k[0] = rhs(t, y) if defect != 0.0 else k[-1]
        n_steps += 1
        since_sample += 1

        if adaptive:
            err = max(err, 1e-10)
            fac = 0.9 * err ** -k_accept * err_prev ** k_memory
            dt = dt_try * min(5.0, max(0.2, fac))
            err_prev = err

        landed_eval = (
            eval_times is not None
            and eval_idx < len(eval_times)
            and abs(t - eval_times[eval_idx]) <= 1e-12 * max(1.0, abs(t))
        )
        if landed_eval:
            sample()
            eval_idx += 1
            since_sample = 0
        elif eval_times is None and since_sample >= config.monitor_stride:
            sample()
            since_sample = 0

        if config.ball_threshold is not None:
            bv = evaluator.ball_value(y)
            if bv is not None and bv > config.ball_threshold:
                exit_reason = "ball_exit"
                break

    if (eval_times is None and since_sample > 0) or (
        eval_times is not None and exit_reason != "completed"
    ):
        sample()
    return finish(exit_reason)
