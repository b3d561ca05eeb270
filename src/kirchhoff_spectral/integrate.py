"""Deterministic explicit time integration with per-step invariant monitoring.

Two tableaus in ``SCHEMES``, run by one explicit Runge-Kutta step: classical
fixed-step RK4, and Dormand-Prince 8(5,3) (DOP853; Hairer, Norsett & Wanner,
*Solving ODEs I*, II.10), the one adaptive scheme. DOP853 propagates its
8th-order solution, estimates its error from a 5th- and a 3rd-order embedded
solution as in Hairer's code, and carries Hairer's 7th-order dense output
(II.6): samples at requested times are interpolated inside the steps the
error control chose, so the sample times never shape the step sequence. The
schemes are deliberately *not* structure preserving: the workbench measures
conservation defects as diagnostics, and drift channels are only meaningful
when the integrator does not conserve them by construction.

After every accepted step the state is projected back onto its exact
structural symmetry class and the projection defect is logged (for the
states used here the right-hand sides preserve the symmetry exactly, so the
defect stays at rounding level); an interpolated sample is projected too.
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
    is the next step's ``k[0]``. ``e`` are the two error rows of an embedded
    pair (a 5th- and a 3rd-order estimate, combined as in Hairer's DOP853); a
    fixed-step scheme has none. ``dense`` is a continuous extension
    ``(c, a, d)``: extra stages at nodes ``c`` whose rows of ``a`` reach back
    over every earlier stage, and the rows ``d`` that turn all the stages into
    the interpolant's coefficients. ``a``, ``e`` and ``dense`` are complex so
    that the stage products cast nothing.
    """

    c: tuple
    a: np.ndarray
    e: np.ndarray | None = None
    dense: tuple | None = None


def _matrix(rows, width, first=0) -> np.ndarray:
    m = np.zeros((first + len(rows), width), dtype=np.complex128)
    for i, row in enumerate(rows, start=first):
        m[i, : len(row)] = row
    return m


def _tableau(c, rows, e=None, dense=None) -> _Tableau:
    a = _matrix(rows, len(c), first=1)
    e = None if e is None else np.asarray(e, dtype=np.complex128)
    if dense is not None:
        c_x, a_x, d = dense
        width = len(c) + len(c_x)
        # Hairer's first three rows come from the endpoints: y_new - y is
        # dt * b @ k, and the fields there are k[0] and k[len(c) - 1]
        b = _matrix(rows[-1:], width)[0]
        old, new = np.eye(width)[[0, len(c) - 1]]
        d = np.vstack([b, old - b, 2 * b - old - new, _matrix(d, width)])
        dense = (tuple(c_x), _matrix(a_x, width), d)
    return _Tableau(tuple(c), a, e, dense)


#: scheme name -> tableau; the keys are the only list of scheme names
SCHEMES = {
    "rk4": _tableau(
        (0.0, 0.5, 0.5, 1.0, 1.0),
        ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0), (1 / 6, 1 / 3, 1 / 3, 1 / 6)),
    ),
    # the coefficients of Hairer's DOP853 code: the doubles of scipy's
    # dop853_coefficients C, A, B, E5, E3 (evaluated) and, for the dense
    # output, C[13:16], A[13:16] and D
    "dop853": _tableau(
        (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
         0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
         1.0, 1.0),
        (
            (0.05260015195876773,),
            (0.0197250569845379, 0.0591751709536137),
            (0.02958758547680685, 0.0, 0.08876275643042054),
            (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
            (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
            (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
            (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
             -0.015319437748624402, 0.008273789163814023),
            (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
             27.59209969944671, 20.154067550477894, -43.48988418106996),
            (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
             21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
            (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
             -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
             -3.0467644718982196),
            (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
             -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
             12.360567175794303, 0.6433927460157636),
            (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
             -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
             0.04471061572777259),
        ),
        e=(
            (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
             1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
             -0.022355307863886294, 0.0),
            (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
             -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
             0.02265179219836082, 0.0),
        ),
        dense=(
            (0.1, 0.2, 0.7777777777777778),
            (
                (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
                 -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
                 0.00820105229563469, 0.007567897660545699, -0.008298),
                (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
                 0.053541988307438566, -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
                 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325),
                (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
                 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
                 2.9475147891527724, -9.15095847217987),
            ),
            (
                (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
                 2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
                 0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
                 -4.436036387594894),
                (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
                 -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
                 -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
                 35.81684148639408),
                (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
                 527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
                 0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
                 11.99229113618279),
                (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
                 357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
                 29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
                 -149.72683625798564),
            ),
        ),
    ),
}


#: DOP853's step-size exponent, one over its error estimate's order plus one
_STEP_EXPONENT = 1 / 8


@dataclass
class IntegratorConfig:
    scheme: str = "dop853"  # a key of SCHEMES
    dt: float = 1e-2  # fixed step (rk4) or initial step (dop853)
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
    n_rhs: int  # field evaluations: stages, dense-output stages, re-evaluations after projection
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
    """Hairer's DOP853 error norm of the rows ``(err5, err3)``:
    ``e5**2 / sqrt((e5**2 + 0.01 * e3**2) * n)`` on the scaled errors."""
    scale = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    q = np.abs(err) / scale
    e5, e3 = np.add.reduce(q * q, axis=-1)
    return 0.0 if e5 == 0.0 else float(e5 / np.sqrt((e5 + 0.01 * e3) * err.shape[-1]))


def _rk_step(scheme: _Tableau, rhs, t, y, dt, k, rel_tol, abs_tol):
    """One attempt from ``k[0] = rhs(t, y)``: fills the stages after ``k[0]``;
    returns the new state and its error norm (0 for a fixed-step scheme)."""
    for i in range(1, len(scheme.c)):
        y_i = y + dt * (scheme.a[i, :i] @ k[:i])
        k[i] = rhs(t + scheme.c[i] * dt, y_i)
    if scheme.e is None:
        return y_i, 0.0
    return y_i, _error_norm(dt * (scheme.e @ k[: len(scheme.c)]), y, y_i, rel_tol, abs_tol)


def _interpolant(scheme: _Tableau, rhs, t, y, dt, k) -> np.ndarray:
    """Coefficient rows of the dense output on the accepted step from ``(t, y)``:
    fills the extra stages of ``k`` from the step's own stages, whose last is
    the field at the unprojected new point, before the next ``k[0]`` replaces
    them."""
    c_x, a_x, d = scheme.dense
    for row, (c_i, a_i) in enumerate(zip(c_x, a_x), start=len(scheme.c)):
        k[row] = rhs(t + c_i * dt, y + dt * (a_i[:row] @ k[:row]))
    return dt * (d @ k)


def _interpolate(f, y, x: float) -> np.ndarray:
    """The dense output at the fraction ``x`` of the step, from the rows of
    :func:`_interpolant`: ``y + x (f0 + (1 - x) (f1 + x (f2 + ...)))``."""
    out = np.zeros_like(y)
    for i, row in enumerate(f[::-1]):
        out += row
        out *= x if i % 2 == 0 else 1.0 - x
    return out + y


def integrate(
    evaluator,
    state0,
    config: IntegratorConfig,
    monitors: dict | None = None,
    t_eval=None,
) -> TrajectoryRecord:
    """Integrate a field evaluator from state0 to t_end with monitoring.

    Samples are taken every ``monitor_stride`` accepted steps, or at the times
    in ``t_eval`` when given: a time inside a step is read from the scheme's
    dense output and then projected, so the samples leave the steps as they
    are (only the final step is shortened, to end on t_end). The run stops
    early with a distinct exit reason on numerical blowup, on leaving the
    admissible ball (``config.ball_threshold`` against the evaluator's ball
    norm, or a field evaluation that raises a domain, convergence or
    numerical error, whose cause goes to ``notes["error"]``), or on adaptive
    step-size underflow.
    """
    config.validate()
    scheme = SCHEMES[config.scheme]
    monitors = monitors or {}
    ahead: list[float] = []  # the sample times not reached yet, the next one last
    if t_eval is not None:
        eval_times = np.asarray(t_eval, dtype=np.float64)
        if np.any(np.diff(eval_times) <= 0) or (len(eval_times) and eval_times[0] < 0):
            raise ParameterError("t_eval must be strictly increasing and nonnegative")
        ahead = eval_times[::-1].tolist()
        if scheme.dense is None:
            raise ParameterError(f"t_eval needs a scheme with dense output, not {config.scheme!r}")
    field = evaluator.rhs
    n_rhs = 0

    def rhs(t_, y_):
        nonlocal n_rhs
        n_rhs += 1
        return field(t_, y_)

    y = evaluator.pack(state0).astype(np.complex128)
    t = 0.0
    t_end = config.t_end
    times: list[float] = []
    states: list = []
    channels: dict[str, list[float]] = {name: [] for name in monitors}
    n_steps = 0
    n_rejected = 0
    max_defect = 0.0
    exit_reason = "completed"

    def sample(t_s, y_s, state=None):
        times.append(t_s)
        if state is None and (config.store_states or monitors):
            state = evaluator.unpack(y_s.copy())
        if config.store_states:
            states.append(state)
        for name, fn in monitors.items():
            channels[name].append(float(fn(t_s, state)))

    if t_eval is None or (ahead and ahead[-1] == 0.0):
        sample(t, y, state0)
        ahead = ahead[:-1]

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
            n_rhs=n_rhs,
            max_projection_defect=max_defect,
            notes=notes,
        )

    if t_end == 0.0:
        return finish("completed")

    dt = min(config.dt, t_end)
    adaptive = scheme.e is not None
    new = len(scheme.c) - 1  # the stage at the new point
    n_stages = len(scheme.c) + (0 if t_eval is None else len(scheme.dense[0]))
    k = np.empty((n_stages, y.size), dtype=np.complex128)
    try:
        k[0] = rhs(t, y)
    except (DomainError, ConvergenceError, NumericalError) as exc:
        return finish(stopped_by(exc))
    since_sample = 0

    while t < t_end:
        if config.max_steps is not None and n_steps >= config.max_steps:
            exit_reason = "max_steps"
            break
        if adaptive and dt < config.dt_min:
            exit_reason = "dt_underflow"
            break
        final = t + dt >= t_end - 1e-14 * max(1.0, t_end)
        dt_try = t_end - t if final else dt
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
            dt = dt_try * max(0.2, 0.9 * err ** -_STEP_EXPONENT)
            continue

        # accept
        t_new = t_end if final else t + dt_try
        if ahead and ahead[-1] < t_new:
            try:
                f = _interpolant(scheme, rhs, t, y, dt_try, k)
            except (DomainError, ConvergenceError, NumericalError) as exc:
                exit_reason = stopped_by(exc)
                break
            while ahead and ahead[-1] < t_new:
                t_s = ahead.pop()
                y_s, defect = evaluator.project(_interpolate(f, y, (t_s - t) / dt_try))
                max_defect = max(max_defect, defect)
                sample(t_s, y_s)
        t = t_new
        y, defect = evaluator.project(y_new)
        max_defect = max(max_defect, defect)
        # the field at the new point is the next step's first stage
        k[0] = rhs(t, y) if defect != 0.0 else k[new]
        n_steps += 1
        since_sample += 1

        if adaptive:
            dt = dt_try * min(5.0, max(0.2, 0.9 * max(err, 1e-10) ** -_STEP_EXPONENT))

        if ahead and ahead[-1] == t:
            sample(ahead.pop(), y)
        elif t_eval is None and since_sample >= config.monitor_stride:
            sample(t, y)
            since_sample = 0

        if config.ball_threshold is not None:
            bv = evaluator.ball_value(y)
            if bv is not None and bv > config.ball_threshold:
                exit_reason = "ball_exit"
                break

    if (t_eval is None and since_sample > 0) or (t_eval is not None and exit_reason != "completed"):
        sample(t, y)
    return finish(exit_reason)
