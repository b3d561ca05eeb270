"""Deterministic time integration with per-step invariant monitoring.

Two schemes, listed in ``SCHEMES``. ``dop853`` is the explicit Runge-Kutta
tableau of Dormand-Prince 8(5,3) (DOP853; Hairer, Norsett & Wanner, *Solving
ODEs I*, II.10), run with an adaptive step: it propagates its 8th-order
solution, estimates its error from a 5th- and a 3rd-order embedded solution
as in Hairer's code, and carries Hairer's 7th-order dense output (II.6).
Samples at requested times are interpolated inside the steps, so the sample
times never shape the step sequence. It does not keep the momenta or the
Hamiltonian by construction, and that is why the conservation channels
(criterion 5, the momentum and Hamiltonian drift of ``simulate``), the
conjugacy levels and the quartic probe run on it: a drift measured there
certifies the field the evaluator computes, where a scheme that keeps the
momenta exactly would certify only itself.

An evaluator may declare ``rates``, the per-entry rates L of the exact linear
part of its field, a rotation (imaginary rates; the diagonalized and
normal-form systems declare L = -i|j|). DOP853 then steps it in the frame of
that rotation, Lawson's integrating-factor Runge-Kutta (Lawson, *SIAM J.
Numer. Anal.* 4, 1967; Hochbruck & Ostermann, *Acta Numerica* 19, 2010). Each
step integrates v(s) = e^{-L s} u(t_n + s), the frame anchored at its start:
a stage at node c evaluates the unchanged field F at Y = e^{L c h} v and
holds e^{-L c h} (F(Y) - L Y), zero to the bit for a field that is L Y
alone; the new point is e^{L h} v; the last stage turned by e^{L h} is the
next step's first, with no evaluation; and a sample inside the step is
e^{L theta h} times the frame's interpolant. The tableau
thus integrates only what the rotation leaves (for the conjugate systems the
sigma - 1 tail, the cubic and the quintic terms), which is small, so its
steps are no longer bound to the fastest rotation. Nor is its first step: a
framed run starts from Hairer's starting-step estimate (Hairer, Norsett &
Wanner, II.4; Gladwell, Shampine & Brankin, *J. Comput. Appl. Math.* 18,
1987), for error order 7, applied to the remainder
g(s, v) = e^{-L s} (F(e^{L s} v) - L e^{L s} v) at a cost of one field
evaluation, where ``config.dt``, chosen for the fastest rotation, would
waste the first steps on errors far below the tolerance. A drift measured on
such a run still certifies the field: the rotation is applied exactly and
keeps every norm, and the tableau, which conserves nothing, integrates the
whole remainder. Since |e^{L s}| = 1, the error norm, the step controller,
projection, the ball check and blowup detection act as they do without the
frame. An evaluator that declares no rates is stepped as the plain tableau
steps it, from ``config.dt``, since its time scale, the fastest rotation, is
known in advance.

The other, ``saba2``, composes the two exact sub-flows of an evaluator whose
field splits into a linear rotation and a kick (the physical Kirchhoff field):
Laskar & Robutel's SABA2, ``A(c1 h) B(h/2) A(c2 h) B(h/2) A(c1 h)`` with
``c1 = 1/2 - sqrt(3)/6`` and ``c2 = 1 - 2 c1`` (Laskar & Robutel, *Celest.
Mech. Dyn. Astron.* 80, 2001; McLachlan, *BIT* 35, 1995). It is symplectic,
keeps every per-mode momentum, and for a kick of size eps its error is
O(eps h^4 + eps^2 h^2), so its step is not bound to the fastest rotation. The
evaluator advances it: the physical field's step is, per mode, one 2x2 map
whose two kick scalars are quadratic forms of the state at the start of the
step (``KirchhoffDynamics.saba2_steps``). It has no dense output: each
sample interval is cut into ``ceil(interval / dt)`` equal steps, which land
on the sample times (an interval that is a whole number of ``dt`` up to
rounding takes that number). A run plans every landing first and builds the
step factors of all its step sizes in one call. A ``dt`` below the step floor
ends the run at t = 0 with exit reason ``dt_underflow``, as DOP853's adaptive
step does when it falls below it.

The state is projected back onto its exact structural symmetry class and the
projection defect is logged after every Runge-Kutta step and at every sample
(for the states used here the right-hand sides preserve the symmetry exactly,
and the SABA2 steps preserve it bit for bit, so the defect stays at rounding
level); an interpolated sample is projected too.

A run's record keeps its samples packed, as one mode-first stack that the
stacked maps downstream read, and the monitors read each sample packed too.
"""

from __future__ import annotations

import math
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
    pair (a 5th- and a 3rd-order estimate, combined as in Hairer's DOP853).
    ``dense`` is a continuous extension ``(c, a, d)``: extra stages at nodes
    ``c`` whose rows of ``a`` reach back over every earlier stage, and the
    rows ``d`` that turn all the stages into the interpolant's coefficients.
    ``a``, ``e`` and ``dense`` are complex so that the stage products cast
    nothing.
    """

    c: tuple
    a: np.ndarray
    e: np.ndarray
    dense: tuple


def _matrix(rows, width, first=0) -> np.ndarray:
    m = np.zeros((first + len(rows), width), dtype=np.complex128)
    for i, row in enumerate(rows, start=first):
        m[i, : len(row)] = row
    return m


def _tableau(c, rows, e, dense) -> _Tableau:
    """``dense`` gives the extra stages and rows past Hairer's first three."""
    a = _matrix(rows, len(c), first=1)
    e = np.asarray(e, dtype=np.complex128)
    c_x, a_x, d = dense
    width = len(c) + len(c_x)
    # Hairer's first three rows come from the endpoints: y_new - y is
    # dt * b @ k, and the fields there are k[0] and k[len(c) - 1]
    b = _matrix(rows[-1:], width)[0]
    old, new = np.eye(width)[[0, len(c) - 1]]
    d = np.vstack([b, old - b, 2 * b - old - new, _matrix(d, width)])
    return _Tableau(tuple(c), a, e, (tuple(c_x), _matrix(a_x, width), d))


#: the tableau of ``dop853``: the coefficients of Hairer's DOP853 code, the
#: doubles of scipy's dop853_coefficients C, A, B, E5, E3 (evaluated) and, for
#: the dense output, C[13:16], A[13:16] and D
DOP853 = _tableau(
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
)


#: every scheme name, the Runge-Kutta tableau's and the splitting's: the one
#: list that the config check and ``simulate --scheme`` read
SCHEMES = ("dop853", "saba2")

#: the relative amount by which a SABA2 step may exceed dt, far below any
#: accuracy that matters and far above the rounding of sample times
_STEP_SLACK = 1e-9

#: DOP853's step-size exponent, one over its error estimate's order plus one
_STEP_EXPONENT = 1 / 8
#: a step below this, DOP853's adaptive step or SABA2's dt, ends the run with
#: exit reason "dt_underflow"
_DT_MIN = 1e-12


@dataclass
class IntegratorConfig:
    scheme: str = "dop853"  # one of SCHEMES
    # saba2's step, and the first step of a dop853 run without rates; a run
    # with rates starts from Hairer's estimate in its frame instead
    dt: float = 1e-2
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_end: float = 1.0
    ball_threshold: float | None = None

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        # a NaN passes every comparison below and mislabels the run instead
        if not all(map(math.isfinite, (self.dt, self.rel_tol, self.abs_tol, self.t_end,
                                        self.ball_threshold or 0.0))):
            raise ParameterError("dt, tolerances, t_end and ball_threshold must be finite")
        if self.dt <= 0 or self.t_end < 0:
            raise ParameterError("dt must be > 0 and t_end >= 0")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ParameterError("tolerances must be > 0")


@dataclass
class TrajectoryRecord:
    """Sampled trajectory plus named monitor channels on a shared time axis."""

    times: np.ndarray
    samples: np.ndarray  # packed, C-contiguous (size, m): column k at times[k]
    channels: dict[str, np.ndarray]
    exit_reason: str
    exit_time: float
    n_steps: int
    n_rejected: int
    # field evaluations: stages, dense-output stages, re-evaluations after
    # projection, and a framed run's one for its starting step (saba2
    # evaluates the field once, at the start)
    n_rhs: int
    max_projection_defect: float
    # the first step chosen: config.dt, a framed dop853 run's estimate, or
    # saba2's first planned step; None if the run chose none
    first_step: float | None = None
    notes: dict = dataclass_field(default_factory=dict)


def _error_norm(err, y0, y1, rel_tol, abs_tol) -> float:
    """Hairer's DOP853 error norm of the rows ``(err5, err3)``:
    ``e5**2 / sqrt((e5**2 + 0.01 * e3**2) * n)`` on the scaled errors."""
    scale = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    q = np.abs(err) / scale
    e5, e3 = np.add.reduce(q * q, axis=-1)
    return 0.0 if e5 == 0.0 else float(e5 / np.sqrt((e5 + 0.01 * e3) * err.shape[-1]))


def _stage(rhs, t, v, frame, i) -> tuple[np.ndarray, np.ndarray]:
    """The state and the stage of node ``i`` at the stage input ``v``: ``v``
    and the field there, or, in the step's ``frame`` (the rates and their
    phases), ``Y = e^{L c_i h} v`` and ``e^{-L c_i h} (F(Y) - L Y)``."""
    if frame is None:
        return v, rhs(t, v)
    rates, phases = frame
    y = phases[i] * v
    return y, np.conj(phases[i]) * (rhs(t, y) - rates * y)


def _rk_step(scheme: _Tableau, rhs, t, y, dt, k, rel_tol, abs_tol, frame):
    """One attempt from ``k[0] = rhs(t, y)`` (``rhs(t, y) - L y`` in the
    ``frame``): fills the stages after ``k[0]``; returns the new state and its
    error norm."""
    for i in range(1, len(scheme.c)):
        y_i, k[i] = _stage(rhs, t + scheme.c[i] * dt, y + dt * (scheme.a[i, :i] @ k[:i]),
                           frame, i)
    return y_i, _error_norm(dt * (scheme.e @ k[: len(scheme.c)]), y, y_i, rel_tol, abs_tol)


def _rms(x) -> float:
    """The root mean square of the moduli of ``x``."""
    return np.linalg.norm(x) / x.size ** 0.5


def _starting_step(rhs, t, y, f0, rates, config: IntegratorConfig) -> float:
    """Hairer's starting step for DOP853 (error order 7) on the frame's
    remainder ``g(s, v) = e^{-L s} (F(e^{L s} v) - L e^{L s} v)``, whose value
    at ``(t, y)`` is ``f0``: the algorithm of scipy's ``select_initial_step``,
    at the cost of one field evaluation, at ``(t + h0, y + h0 f0)``."""
    scale = config.abs_tol + np.abs(y) * config.rel_tol
    d0, d1 = _rms(y / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, config.t_end - t)
    f1 = _stage(rhs, t + h0, y + h0 * f0, (rates, np.exp(h0 * rates)[None]), 0)[1]
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _STEP_EXPONENT
    return min(100 * h0, h1, config.t_end - t)


def _interpolant(scheme: _Tableau, rhs, t, y, dt, k, frame) -> np.ndarray:
    """Coefficient rows of the dense output on the accepted step from ``(t, y)``,
    in the step's ``frame`` if it has one: fills the extra stages of ``k`` from
    the step's own stages, whose last is the field at the unprojected new
    point, before the next ``k[0]`` replaces them."""
    c_x, a_x, d = scheme.dense
    for row, (c_i, a_i) in enumerate(zip(c_x, a_x), start=len(scheme.c)):
        k[row] = _stage(rhs, t + c_i * dt, y + dt * (a_i[:row] @ k[:row]), frame, row)[1]
    return dt * (d @ k)


def _interpolate(f, y, x: float) -> np.ndarray:
    """The dense output at the fraction ``x`` of the step, from the rows of
    :func:`_interpolant`: ``y + x (f0 + (1 - x) (f1 + x (f2 + ...)))``."""
    out = np.zeros_like(y)
    for i, row in enumerate(f[::-1]):
        out += row
        out *= x if i % 2 == 0 else 1.0 - x
    return out + y


class _Run:
    """The bookkeeping of one run that every scheme shares: the sample times
    not reached yet, the record so far, the work counts, and where and why the
    run stopped."""

    def __init__(self, evaluator, config: IntegratorConfig, monitors: dict, eval_times):
        self.evaluator = evaluator
        self.config = config
        self.monitors = monitors
        self.ahead = eval_times[::-1].tolist()  # the next one last
        self.times: list[float] = []
        self.samples: list[np.ndarray] = []
        self.channels: dict[str, list[float]] = {name: [] for name in monitors}
        self.n_steps = 0
        self.n_rejected = 0
        self.n_rhs = 0
        self.max_defect = 0.0
        self.first_step = None
        self.notes: dict = {}
        self.t = 0.0  # the last accepted time and state
        self.y = None

    def rhs(self, t, y):
        self.n_rhs += 1
        return self.evaluator.rhs(t, y)

    def sample(self, t_s, y_s) -> None:
        self.times.append(t_s)
        self.samples.append(y_s.copy())
        for name, fn in self.monitors.items():
            self.channels[name].append(float(fn(t_s, self.samples[-1])))

    def project(self, y) -> tuple[np.ndarray, float]:
        y, defect = self.evaluator.project(y)
        if defect > self.max_defect or math.isnan(defect):  # a NaN, once seen, stays
            self.max_defect = defect
        return y, defect

    def accept(self, t, y) -> None:
        """The run reached ``(t, y)``, projected: sample it if it is due."""
        self.t, self.y = t, y
        if self.ahead and self.ahead[-1] == t:
            self.sample(self.ahead.pop(), y)

    def outside_ball(self) -> bool:
        if self.config.ball_threshold is None:
            return False
        return self.evaluator.ball_value(self.y) > self.config.ball_threshold

    def stopped_by(self, exc: Exception) -> str:
        self.notes["error"] = f"{type(exc).__name__}: {exc}"
        return "ball_exit"

    def finish(self, reason: str) -> TrajectoryRecord:
        # a run that stops early samples the state it stopped at, once
        if reason != "completed" and not (self.times and self.times[-1] == self.t):
            self.sample(self.t, self.y)
        return TrajectoryRecord(
            times=np.asarray(self.times),
            samples=np.stack(self.samples, axis=1) if self.samples
            else np.empty((self.y.size, 0), dtype=self.y.dtype),
            channels={name: np.asarray(v) for name, v in self.channels.items()},
            exit_reason=reason,
            exit_time=self.t,
            n_steps=self.n_steps,
            n_rejected=self.n_rejected,
            n_rhs=self.n_rhs,
            max_projection_defect=self.max_defect,
            first_step=self.first_step,
            notes=self.notes,
        )


def _blown_up(y: np.ndarray) -> bool:
    return not np.isfinite(y.view(np.float64)).all()


def _runge_kutta(run: _Run, scheme: _Tableau, k0: np.ndarray, rates) -> str:
    """Steps a tableau from ``(run.t, run.y)``, whose field is ``k0``, to
    ``t_end``, in the frame of the linear ``rates`` if given; returns the exit
    reason."""
    config = run.config
    t, y = run.t, run.y
    t_end = config.t_end
    ahead = run.ahead
    new = len(scheme.c) - 1  # the stage at the new point
    k = np.empty((len(scheme.c) + len(scheme.dense[0]), y.size), dtype=np.complex128)
    k[0] = k0
    nodes = np.array(scheme.c + scheme.dense[0])
    frame = None
    if rates is None:
        dt = config.dt
    else:
        k[0] -= rates * y
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                dt = _starting_step(run.rhs, t, y, k[0], rates, config)
        except (DomainError, ConvergenceError, NumericalError) as exc:
            return run.stopped_by(exc)
    run.first_step = dt

    while t < t_end:
        # a step that the controller shrank below the floor, not the last
        # piece of a run shorter than the floor
        if dt < min(_DT_MIN, t_end - t):
            return "dt_underflow"
        final = t + dt >= t_end - 1e-14 * max(1.0, t_end)
        dt_try = t_end - t if final else dt
        if rates is not None:
            frame = rates, np.exp(np.multiply.outer(nodes * dt_try, rates))
        try:
            # overflow to inf is handled explicitly below as blowup
            with np.errstate(invalid="ignore", over="ignore"):
                y_new, err = _rk_step(scheme, run.rhs, t, y, dt_try, k, config.rel_tol,
                                      config.abs_tol, frame)
        except (DomainError, ConvergenceError, NumericalError) as exc:
            return run.stopped_by(exc)
        if _blown_up(y_new):
            return "blowup"

        if err > 1.0:
            run.n_rejected += 1
            dt = dt_try * max(0.2, 0.9 * err ** -_STEP_EXPONENT)
            continue

        # accept
        t_new = t_end if final else t + dt_try
        if ahead and ahead[-1] < t_new:
            try:
                f = _interpolant(scheme, run.rhs, t, y, dt_try, k, frame)
            except (DomainError, ConvergenceError, NumericalError) as exc:
                return run.stopped_by(exc)
            while ahead and ahead[-1] < t_new:
                t_s = ahead.pop()
                y_s = _interpolate(f, y, (t_s - t) / dt_try)
                if frame is not None:
                    y_s *= np.exp((t_s - t) * rates)
                run.sample(t_s, run.project(y_s)[0])
        t = t_new
        y, defect = run.project(y_new)
        # the field at the new point is the next step's first stage: in the
        # frame, the field less L y, or the last stage turned to the frame
        # anchored there
        if defect != 0.0:
            k[0] = run.rhs(t, y)
            if frame is not None:
                k[0] -= rates * y
        else:
            k[0] = k[new]
            if frame is not None:
                k[0] *= frame[1][new]
        run.n_steps += 1
        run.accept(t, y)

        dt = dt_try * min(5.0, max(0.2, 0.9 * max(err, 1e-10) ** -_STEP_EXPONENT))

        if run.outside_ball():
            return "ball_exit"
    return "completed"


def _saba2(run: _Run) -> str:
    """SABA2 from ``(run.t, run.y)`` to ``t_end``, its steps landing on the
    sample times; returns the exit reason."""
    evaluator, config = run.evaluator, run.config
    if config.dt < _DT_MIN:  # as DOP853 ends a run whose step fell below it
        return "dt_underflow"
    t, y = run.t, run.y
    landings = [t_s for t_s in run.ahead[::-1] if t < t_s < config.t_end] + [config.t_end]
    # each landing, its number of steps and their size: an interval that is a
    # whole number of dt up to the rounding of the sample times takes that
    # number of steps, not one more
    plan = []
    # the index of each distinct size: intervals of sample times that differ
    # by an ulp give distinct sizes, whose factors are built in one call
    sizes: dict[float, int] = {}
    for t_next in landings:
        m = math.ceil((t_next - t) / config.dt * (1.0 - _STEP_SLACK))
        h = (t_next - t) / m
        plan.append((t_next, m, h, sizes.setdefault(h, len(sizes))))
        t = t_next
    run.first_step = plan[0][2]
    a, weights = evaluator.saba2_factors(list(sizes))
    t = run.t
    # overflow to inf is handled explicitly below as blowup
    with np.errstate(invalid="ignore", over="ignore"):
        for t_next, m, h, i in plan:
            y_new, taken = evaluator.saba2_steps(y, (a[i], weights[i]), m)
            run.n_steps += taken
            if taken < m:
                run.t, run.y = t + taken * h, y_new
                return "blowup"
            # the steps keep the symmetry bit for bit: a projection per landing
            # only logs a defect the start state brought in
            t = t_next
            y, _ = run.project(y_new)
            run.accept(t, y)
            if run.outside_ball():
                return "ball_exit"
    return "completed"


#: what an evaluator exposes for saba2: its fastest rotation frequency, and the
#: step factors and steps of its exact splitting (see
#: :class:`~kirchhoff_spectral.dynamics.KirchhoffDynamics`)
_SUBFLOWS = ("max_frequency", "saba2_factors", "saba2_steps")


def _check_splitting(evaluator, dt: float) -> None:
    if not all(hasattr(evaluator, name) for name in _SUBFLOWS):
        raise ParameterError(
            f"scheme 'saba2' needs an evaluator with exact sub-flows; "
            f"{type(evaluator).__name__} has none"
        )
    # the first step-size resonance of exact-rotation splittings (Hairer,
    # Lubich & Wanner, Geometric Numerical Integration, ch. XIII)
    if dt * evaluator.max_frequency >= math.pi:
        raise ParameterError(
            f"saba2 needs dt * max|j| < pi, got dt = {dt:g} with max|j| = "
            f"{evaluator.max_frequency:g}"
        )


def _rates(evaluator):
    """The rates of the evaluator's exact linear rotation, or None if it
    declares none."""
    rates = getattr(evaluator, "rates", None)
    # the frame leaves the error norm's scales alone only if |e^{L s}| = 1
    if rates is not None and np.any(rates.real != 0.0):
        raise ParameterError(f"{type(evaluator).__name__}.rates must be imaginary")
    return rates


def integrate(
    evaluator,
    state0,
    config: IntegratorConfig,
    monitors: dict | None = None,
    t_eval=None,
) -> TrajectoryRecord:
    """Integrate a field evaluator from state0 to t_end with monitoring.

    Samples are taken at the times in ``t_eval``, by default the endpoints
    ``(0, t_end)``. DOP853 reads a time inside a step from its dense output
    and projects it, so the samples leave the steps as they are
    (only the final step is shortened, to end on t_end), and steps an
    evaluator that declares ``rates`` in their rotation's frame; ``saba2``
    lands its steps on the sample times instead. The run stops early with a
    distinct exit reason on numerical blowup, on leaving the admissible ball
    (``config.ball_threshold`` against the evaluator's ball norm, or a field
    evaluation that raises a domain, convergence or numerical error, whose
    cause goes to ``notes["error"]``), or on adaptive step-size underflow; the
    state it stopped at is then sampled too. Each sample is kept packed, a
    column ``y`` of the record's ``samples``, and each monitor is called as
    ``fn(t, y)`` on it: [u; v] for the physical evaluator, w for the
    conjugate ones.
    """
    config.validate()
    splitting = config.scheme == "saba2"
    if splitting:
        _check_splitting(evaluator, config.dt)
    else:
        rates = _rates(evaluator)
    eval_times = np.unique([0.0, config.t_end]) if t_eval is None else np.asarray(t_eval, float)
    inside = (eval_times >= 0.0) & (eval_times <= config.t_end)  # and not NaN
    if np.any(np.diff(eval_times) <= 0) or not inside.all():
        raise ParameterError("t_eval must be strictly increasing and within [0, t_end]")
    run = _Run(evaluator, config, monitors or {}, eval_times)
    run.y = evaluator.pack(state0).astype(np.complex128)
    if run.ahead and run.ahead[-1] == 0.0:
        run.sample(run.ahead.pop(), run.y)
    if config.t_end == 0.0:
        return run.finish("completed")

    # a start outside the field's domain ends the run at t = 0, for every scheme
    try:
        k0 = run.rhs(run.t, run.y)
    except (DomainError, ConvergenceError, NumericalError) as exc:
        return run.finish(run.stopped_by(exc))
    if splitting:
        return run.finish(_saba2(run))
    return run.finish(_runge_kutta(run, DOP853, k0, rates))
