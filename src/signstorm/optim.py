"""Coordinate-wise optimizers built around the recursive variance-reduced estimator.

The central update (SignSTORM) keeps three vectors per run:

    m_t = g(x_t, noise_t)                                   at t = 1
    m_t = b1 * (m_{t-1} - g(x_{t-1}, noise_t)) + g(x_t, noise_t)   t >= 2
    v_t = b2 * v_{t-1} + (1 - b2) * m_t**2
    x_{t+1} = x_t - eta * m_t / (sqrt(v_t) + eps)

with all products, squares and quotients taken element-wise and the 0/0 = 0
convention applied per coordinate when the denominator vanishes.  The two
stochastic gradients inside the estimator are evaluated with the *same*
noise draw; that shared sample is what distinguishes the variance-reduced
recursion from plain momentum.

Baselines sharing the same state layout: SGD, momentum SGD, the
momentum-estimator sign method (``m = b1*m + (1-b1)*g`` with the same
v/x rules), the plain variance-reduced method (``x -= eta*m``), Adam with
bias correction, and an L2-normalized variant (``x -= eta*m/||m||_2``).

Every rule is element-wise, so the kernel behind :func:`step` also steps
an (S, d) state whose rows are independent runs, in place and bit for bit
as S calls of :func:`step` would; ``harness.run_cell`` runs it that way.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, UnsupportedKind


class Schedule(enum.Enum):
    """Step-size schedule: a fixed eta, or eta / sqrt(t) at iteration t."""

    CONSTANT = "constant"
    PER_STEP_SQRT_T = "per_step_sqrt_t"


class OptimizerKind(enum.Enum):
    SIGNSTORM = "signstorm"
    SGD = "sgd"
    MOMENTUM_SGD = "momentum_sgd"
    GENERALIZED_SIGN_SGD = "generalized_sign_sgd"
    STORM = "storm"
    ADAM = "adam"
    L2_NORMALIZED_STORM = "l2_normalized_storm"


# Kinds whose estimator needs g_prev evaluated at the previous iterate.
STORM_FAMILY = frozenset(
    {OptimizerKind.SIGNSTORM, OptimizerKind.STORM, OptimizerKind.L2_NORMALIZED_STORM}
)


@dataclass(frozen=True, slots=True)
class HyperParams:
    """Step size, momentum factors, denominator guard and schedule.

    ``eta`` is the full step size under the constant schedule; under
    ``PER_STEP_SQRT_T`` it is the numerator scale and iteration t uses
    ``eta / sqrt(t)``.
    """

    eta: float
    beta1: float
    beta2: float
    eps_guard: float = 0.0
    schedule: Schedule = Schedule.CONSTANT

    def __post_init__(self) -> None:
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be a finite positive real, got {self.eta}")
        if not (0.0 <= self.beta1 < 1.0):
            raise ValueError(f"beta1 must lie in [0, 1), got {self.beta1}")
        if not (0.0 <= self.beta2 < 1.0):
            raise ValueError(f"beta2 must lie in [0, 1), got {self.beta2}")
        if not (self.eps_guard >= 0.0):
            raise ValueError(f"eps_guard must be >= 0, got {self.eps_guard}")

    @property
    def rho(self) -> float:
        """sqrt(beta2)/beta1, with 0/0 = 0; +inf when beta1 = 0 < beta2."""
        root = math.sqrt(self.beta2)
        if self.beta1 == 0.0:
            return 0.0 if root == 0.0 else math.inf
        return root / self.beta1

    def step_size(self, t: int) -> float:
        if self.schedule is Schedule.PER_STEP_SQRT_T:
            return self.eta / math.sqrt(t)
        return self.eta

    def step_sizes(self, T: int, start: int = 1) -> np.ndarray:
        """step_size(t) for t = start..T, bit for bit: IEEE sqrt and division
        are correctly rounded in numpy as in math."""
        if self.schedule is Schedule.PER_STEP_SQRT_T:
            return self.eta / np.sqrt(np.arange(start, T + 1, dtype=np.float64))
        return np.full(max(0, T - start + 1), self.eta)

    @staticmethod
    def adam_defaults(eta: float) -> "HyperParams":
        """Standard Adam configuration (b1, b2, eps) = (0.9, 0.999, 1e-8)."""
        return HyperParams(eta=eta, beta1=0.9, beta2=0.999, eps_guard=1e-8)


@dataclass(slots=True)
class OptimizerState:
    """Iterate, estimator, second moment, previous iterate and step counter.

    ``t`` is the index of the next iteration to execute (1-based); the
    fresh state therefore carries t = 1, v = 0 and an unset estimator.
    The vectors have shape (d,), or (S, d) for S runs stepped together.
    """

    x: np.ndarray
    m: np.ndarray
    v: np.ndarray
    prev_x: np.ndarray
    t: int

    @classmethod
    def initial(cls, x0: np.ndarray) -> "OptimizerState":
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.ndim != 1 or x0.size < 1:
            raise DimensionMismatch(f"initial point must be a 1-d vector, got shape {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise NonFiniteValue("initial point contains NaN/Inf")
        return cls(x=x0.copy(), m=np.zeros_like(x0), v=np.zeros_like(x0), prev_x=x0.copy(), t=1)

    @property
    def d(self) -> int:
        return self.x.shape[-1]


@dataclass(frozen=True, slots=True)
class GradientPair:
    """Stochastic gradients at the current and previous iterate, same noise draw.

    ``g_prev`` may be omitted at t = 1 where the estimator ignores it.
    """

    g_curr: np.ndarray
    g_prev: np.ndarray | None = None


def _check_dims(state: OptimizerState, grads: GradientPair, need_prev: bool) -> None:
    shape = state.x.shape
    if grads.g_curr.shape != shape:
        raise DimensionMismatch(
            f"g_curr has shape {grads.g_curr.shape}, state has shape {shape}"
        )
    if need_prev:
        if grads.g_prev is None:
            raise ValueError("g_prev is required by the variance-reduced estimator for t >= 2")
        if grads.g_prev.shape != shape:
            raise DimensionMismatch(
                f"g_prev has shape {grads.g_prev.shape}, state has shape {shape}"
            )


def _finite_rows(x: np.ndarray, m: np.ndarray, v: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray | None:
    """None when every row (the last axis) of x, m and v is finite, else the
    boolean mask of the rows that are; ``out`` is scratch of their shape."""
    # one reduction on the fast path; infinities never cancel to a finite
    # sum in IEEE arithmetic, so a non-finite sum is either a NaN/Inf or an
    # all-finite overflow (values near 1e308) that needs the precise check
    total = np.add(x, m, out=out)
    total += v
    if math.isfinite(float(np.add.reduce(total, axis=None))):
        return None
    finite = np.isfinite(x).all(axis=-1) & np.isfinite(m).all(axis=-1)
    finite &= np.isfinite(v).all(axis=-1)
    return None if finite.all() else finite


def _check_finite(x: np.ndarray, m: np.ndarray, v: np.ndarray) -> None:
    if _finite_rows(x, m, v) is None:
        return
    for name, arr in (("x", x), ("m", m), ("v", v)):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue(f"{name} contains NaN/Inf after the update")


class StepWork:
    """Scratch of one step of a state of this shape, reusable from step to step."""

    __slots__ = ("denom", "mask", "ratio")

    def __init__(self, shape: tuple[int, ...]):
        self.denom, self.mask, self.ratio = np.empty(shape), np.empty(shape, bool), np.empty(shape)


def _guarded_ratio(m: np.ndarray, v: np.ndarray, eps_guard: float,
                   work: StepWork | None = None) -> np.ndarray:
    """m / (sqrt(v) + eps), element-wise, with 0/0 = 0 where the denominator
    is 0, in ``work.ratio`` (fresh scratch if None); v may be ``work.denom``.

    Zero-denominator lanes are masked out of the division, so finite inputs
    never trip numpy warnings; non-finite inputs may, and then the caller's
    finite check raises.
    """
    work = work or StepWork(m.shape)
    denom = np.sqrt(v, out=work.denom)
    if eps_guard != 0.0:
        denom += eps_guard
    if np.minimum.reduce(denom, axis=None, initial=np.inf) > 0.0:  # no lane to mask
        return np.divide(m, denom, out=work.ratio)
    work.ratio.fill(0.0)
    return np.divide(m, denom, out=work.ratio, where=np.greater(denom, 0.0, out=work.mask))


def _row_norms(m: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, shaped (..., 1).

    The stacked matmul runs the BLAS dot of each row alone, as
    np.linalg.norm does; a vectorised sqrt(sum(m*m)) would sum in another
    order and change the last bits.
    """
    return np.sqrt(np.matmul(m[..., None, :], m[..., :, None]))[..., 0]


def _advance(x: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, grads: GradientPair,
             hp: HyperParams, kind: OptimizerKind, out: np.ndarray, work: StepWork) -> None:
    """Iteration t from iterate x, element-wise over any leading axes: m and v
    in place, the new x into ``out``, which shares no memory with x."""
    eta = hp.step_size(t)
    g = grads.g_curr
    tmp = work.ratio  # free until the ratio is formed

    if kind is OptimizerKind.SGD or (kind in STORM_FAMILY and t == 1):
        np.copyto(m, g)
    elif kind in STORM_FAMILY:
        # b1 * (m - g_prev) + g
        np.subtract(m, grads.g_prev, out=m)
        m *= hp.beta1
        m += g
    elif kind in (OptimizerKind.MOMENTUM_SGD, OptimizerKind.GENERALIZED_SIGN_SGD,
                  OptimizerKind.ADAM):
        # b1 * m + (1 - b1) * g
        m *= hp.beta1
        m += np.multiply(g, 1.0 - hp.beta1, out=tmp)
    else:
        raise UnsupportedKind(f"unhandled kind: {kind!r}")

    if kind in (OptimizerKind.SIGNSTORM, OptimizerKind.GENERALIZED_SIGN_SGD):
        # b2 * v + (1 - b2) * m^2
        v *= hp.beta2
        np.multiply(m, m, out=tmp)
        tmp *= 1.0 - hp.beta2
        v += tmp
        step = _guarded_ratio(m, v, hp.eps_guard, work)
        step *= eta
    elif kind is OptimizerKind.ADAM:
        # b2 * v + (1 - b2) * g * g; the bias-corrected m sits in out until the step
        v *= hp.beta2
        np.multiply(g, 1.0 - hp.beta2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(m, 1.0 - hp.beta1 ** t, out=out)
        step = _guarded_ratio(out, np.divide(v, 1.0 - hp.beta2 ** t, out=work.denom),
                              hp.eps_guard, work)
        step *= eta
    elif kind is OptimizerKind.L2_NORMALIZED_STORM:
        # a zero (or NaN) norm leaves the row in place
        norm = _row_norms(m)
        tmp.fill(0.0)
        step = np.divide(np.multiply(m, eta, out=work.denom), norm, out=tmp, where=norm > 0.0)
    else:
        step = np.multiply(m, eta, out=tmp)
    np.subtract(x, step, out=out)


def step(
    state: OptimizerState,
    grads: GradientPair,
    hp: HyperParams,
    kind: OptimizerKind = OptimizerKind.SIGNSTORM,
) -> OptimizerState:
    """Advance one iteration of the named method; SignSTORM by default.

    Returns a fresh state; the input state is left untouched and shares no
    arrays with the output.  Shapes are checked, and a non-finite update
    raises :class:`NonFiniteValue`.
    """
    _check_dims(state, grads, need_prev=kind in STORM_FAMILY and state.t > 1)
    new = OptimizerState(x=np.empty(state.x.shape), m=state.m.copy(), v=state.v.copy(),
                         prev_x=state.x.copy(), t=state.t + 1)
    _advance(state.x, new.m, new.v, state.t, grads, hp, kind, new.x, StepWork(state.x.shape))
    _check_finite(new.x, new.m, new.v)
    return new


def storm_decomposition(
    m_prev: np.ndarray, g: GradientPair, beta1: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split the variance-reduced estimator into its momentum and correction parts.

    part_i  = b1 * m_prev + (1 - b1) * g_curr      (plain momentum average)
    part_ii = b1 * (g_curr - g_prev)               (variance-reduction correction)

    Their sum equals the t >= 2 estimator b1*(m_prev - g_prev) + g_curr.
    """
    if g.g_prev is None:
        raise ValueError("decomposition needs both gradients of the shared-sample pair")
    if not (m_prev.shape == g.g_curr.shape == g.g_prev.shape):
        raise DimensionMismatch(
            f"shapes disagree: m_prev {m_prev.shape}, g_curr {g.g_curr.shape}, "
            f"g_prev {g.g_prev.shape}"
        )
    # in place, so that at most two (T, d) blocks are alive at once
    part_i = beta1 * m_prev
    part_i += (1.0 - beta1) * g.g_curr
    part_ii = g.g_curr - g.g_prev
    part_ii *= beta1
    return part_i, part_ii
