"""Convergence-theory side: parameter choices and reference bound evaluation.

The analysis admits any momentum pair with rho = sqrt(beta2)/beta1 < 1
(``HyperParams.rho``; both parameter formulas return a ``HyperParams``
whose rho is below 1, or raise RhoConstraintViolated) and prescribes

    beta1 = 1 - min{1, (delta * ||L||_1 / (||sigma||_1^2 T))^(2/3)}
    eta   = (1 - beta1)^(1/4) * sqrt((1 - beta2) * delta) / sqrt(||L||_1 T)

plus the prefactor pieces g(rho) (3 on [0, 1/2], 6*sqrt(rho(1-rho)) above)
and c(rho) = min{1/2, g(rho)}, which stays at 1/2 until
rho = (6 + sqrt(35))/12 ~ 0.993007.

The closed-form bound evaluator sets every hidden big-O constant to 1; its
output is a reference scale for overlaying on empirical curves, not a
certified numeric bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConstant, OutOfRange, RhoConstraintViolated
from .optim import HyperParams, Schedule

# Exact crossover where g(rho) drops below 1/2: larger root of 36 rho(1-rho) = 1/4.
RHO_CROSSOVER = (6.0 + math.sqrt(35.0)) / 12.0
# width of the bracket at which locate_c_crossover stops bisecting
_CROSSOVER_TOL = 1e-9


@dataclass(frozen=True)
class TheoremInputs:
    """Problem constants consumed by the parameter formulas."""

    delta: float
    L1_norm: float
    sigma1_norm: float
    T: int
    beta2: float
    confidence_delta: float
    d: int

    def __post_init__(self) -> None:
        if not (self.delta >= 0 and math.isfinite(self.delta)):
            raise InvalidConstant(f"delta must be a finite nonnegative real, got {self.delta}")
        if not (self.L1_norm > 0 and math.isfinite(self.L1_norm)):
            raise InvalidConstant(f"L1_norm must be a finite positive real, got {self.L1_norm}")
        if not (self.sigma1_norm >= 0 and math.isfinite(self.sigma1_norm)):
            raise InvalidConstant(f"sigma1_norm must be >= 0, got {self.sigma1_norm}")
        if self.T < 1:
            raise InvalidConstant(f"horizon T must be >= 1, got {self.T}")
        if not (0.0 <= self.beta2 < 1.0):
            raise InvalidConstant(f"beta2 must lie in [0, 1), got {self.beta2}")
        if not (0.0 < self.confidence_delta < 1.0):
            raise InvalidConstant(
                f"confidence_delta must lie in (0, 1), got {self.confidence_delta}")
        if self.d < 1:
            raise InvalidConstant(f"dimension must be >= 1, got {self.d}")


def g_rho(rho: float) -> float:
    """Piecewise prefactor: 3 on [0, 1/2], 6*sqrt(rho*(1-rho)) on (1/2, 1)."""
    if not (0.0 <= rho < 1.0):
        raise OutOfRange(f"rho must lie in [0, 1), got {rho}")
    return 3.0 if rho <= 0.5 else 6.0 * math.sqrt(rho * (1.0 - rho))


def c_rho(rho: float) -> float:
    """min(1/2, g(rho)); equals 1/2 for every rho up to RHO_CROSSOVER."""
    return min(0.5, g_rho(rho))


def locate_c_crossover() -> float:
    """Bisect for the rho where c(rho) first drops below 1/2."""
    lo, hi = 0.5, 1.0 - 1e-15
    while hi - lo > _CROSSOVER_TOL:
        mid = 0.5 * (lo + hi)
        if g_rho(mid) >= 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _rho_below_one(hp: HyperParams) -> HyperParams:
    if not hp.rho < 1.0:
        raise RhoConstraintViolated(
            f"sqrt(beta2)={math.sqrt(hp.beta2):.6g} >= beta1={hp.beta1:.6g} (rho={hp.rho:.6g})")
    return hp


def theorem_params(inp: TheoremInputs) -> HyperParams:
    """Horizon-tuned hyperparameters (constant schedule) from the declared
    problem constants; their ``rho`` is below 1.

    A zero noise norm collapses beta1 to 0 (the estimator then tracks the
    exact gradient up to smoothness drift).  A zero delta * ||L||_1 makes
    the formulas degenerate and raises InvalidConstant.
    """
    if inp.delta * inp.L1_norm == 0.0:
        raise InvalidConstant("delta * ||L||_1 is zero, where the tuned formulas degenerate")
    noise = inp.sigma1_norm ** 2 * inp.T
    ratio = inp.delta * inp.L1_norm / noise if noise else math.inf
    # cbrt(ratio^2) keeps exact decimal cases exact (1e-3 -> 1e-2), unlike ratio**(2/3)
    one_minus_beta1 = 1.0 if ratio >= 1.0 else float(np.cbrt(ratio * ratio))
    eta = (one_minus_beta1 ** 0.25 * math.sqrt((1.0 - inp.beta2) * inp.delta)
           / math.sqrt(inp.L1_norm * inp.T))
    return _rho_below_one(HyperParams(eta=eta, beta1=1.0 - one_minus_beta1, beta2=inp.beta2))


def practical_params(alpha: float, beta: float, T: int, beta2: float = 0.0,
                     per_step: bool = False) -> HyperParams:
    """Constant-free schedule: beta1 = 1 - beta/T^(2/3), eta = alpha (1-beta1)^(1/4) sqrt(1-beta2) / sqrt(T).

    Returns those hyperparameters; their ``rho`` is below 1.
    ``per_step=True`` divides by sqrt(t) at each iteration instead of
    sqrt(T), for use when the horizon is unknown upfront.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise InvalidConstant(f"alpha must be a finite positive real, got {alpha}")
    if not (0.0 <= beta <= 1.0):
        raise InvalidConstant(f"beta must lie in [0, 1], got {beta}")
    if not (0.0 <= beta2 < 1.0):
        raise InvalidConstant(f"beta2 must lie in [0, 1), got {beta2}")
    if T < 1:
        raise InvalidConstant(f"horizon T must be >= 1, got {T}")
    one_minus_beta1 = beta / float(np.cbrt(float(T) * T))
    beta1 = 1.0 - one_minus_beta1
    if not (0.0 <= beta1 < 1.0):
        raise InvalidConstant(f"derived beta1={beta1} outside [0, 1)")
    scale = alpha * one_minus_beta1 ** 0.25 * math.sqrt(1.0 - beta2)
    eta = scale if per_step else scale / math.sqrt(T)
    if eta == 0.0:
        raise InvalidConstant(f"alpha={alpha} is too small: the step size underflows to 0 at T={T}")
    schedule = Schedule.PER_STEP_SQRT_T if per_step else Schedule.CONSTANT
    return _rho_below_one(HyperParams(eta, beta1, beta2, schedule=schedule))


def theorem_bound(inp: TheoremInputs, rho: float) -> float:
    """Reference-scale evaluation of the high-probability rate (big-O constants = 1).

    [log(dT/delta) / ((1-rho) c(rho))] * (sqrt(D*L1/T) + (D*L1*S1/T)^(1/3))
      + [S1 / ((1-rho) c(rho))] * (1/T + (S1^4 / (D^2 L1^2 T))^(1/3))

    with D = delta, L1 = ||L||_1, S1 = ||sigma||_1.
    """
    if not (0.0 <= rho < 1.0):
        raise RhoConstraintViolated(f"rho must lie in [0, 1), got {rho}")
    D, L1, S1, T = inp.delta, inp.L1_norm, inp.sigma1_norm, inp.T
    denom = (1.0 - rho) * c_rho(rho)
    log_term = math.log(inp.d * T / inp.confidence_delta)
    first = log_term / denom * (math.sqrt(D * L1 / T) + float(np.cbrt(D * L1 * S1 / T)))
    if S1 == 0.0:
        return first
    if D * L1 == 0.0:
        raise InvalidConstant("noisy bound needs delta * ||L||_1 > 0")
    second = S1 / denom * (1.0 / T + float(np.cbrt(S1 ** 4 / (D ** 2 * L1 ** 2 * T))))
    return first + second
