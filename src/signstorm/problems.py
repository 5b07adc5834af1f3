"""Synthetic stochastic objectives with certified constants.

Every problem carries an exact-gradient oracle next to the sampled one and
declares the constants its contracts promise:

* ``delta_upper``  — gap between the initial value and the global minimum
  (an analytic upper bound when the minimizer is unknown);
* ``L_vec``        — per-coordinate smoothness constants, stored in the
  normalized convention ``|d_j f(x) - d_j f(y)| <= (L_j / sqrt(d)) ||x - y||_2``;
* ``sigma_vec``    — almost-sure per-coordinate bounds on the gradient noise.

Two noise models are bundled.  Additive problems perturb the exact gradient
by per-coordinate uniform draws on [-sigma_j, sigma_j]; the perturbation is
independent of the query point, so one realization evaluated at two points
shifts both gradients by the same vector.  Finite-sum problems draw a data
index; their noise support is enumerable, which lets the verifier check
unbiasedness exactly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConstant

# Largest |second derivative| of u -> u^2/(1+u^2), attained at u = 0.
_BOUNDED_CURVATURE = 2.0


# verify_assumptions passes the noise bound and smoothness up to this
# relative excess over 1: a ratio that is exactly tight, such as the
# smoothness of a one-dimensional quadratic, rounds to just above 1
_REL_SLACK = 1e-9


def _sigmoid(z) -> np.ndarray:
    """Logistic function, stable for large |z|: 1 / (1 + exp(-z)) for
    z >= 0 and exp(z) / (1 + exp(z)) below, with one exp per element.

    minimum(z, -z) is -|z| and keeps a NaN's sign as exp(z) would;
    negation is exact, so every element is the same IEEE computation as
    its branch of the two-branch form.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class NoiseRealization:
    """One frozen draw of the gradient noise.

    ``payload`` is either the per-coordinate additive noise vector or a data
    index; it fully determines the stochastic gradient map x -> grad f(x, Xi).
    """

    payload: np.ndarray | int


@dataclass(frozen=True)
class ProblemConstants:
    delta_upper: float
    L_vec: np.ndarray
    sigma_vec: np.ndarray
    x_init: np.ndarray
    x_star: np.ndarray | None = None

    def __post_init__(self) -> None:
        if np.any(self.L_vec <= 0):
            raise InvalidConstant("every smoothness constant L_j must be positive")
        if np.any(self.sigma_vec < 0):
            raise InvalidConstant("noise bounds sigma_j must be nonnegative")
        if self.delta_upper < 0:
            raise InvalidConstant("delta_upper must be nonnegative")

    @property
    def L1_norm(self) -> float:
        return float(np.sum(self.L_vec))

    @property
    def sigma1_norm(self) -> float:
        return float(np.sum(self.sigma_vec))


class StochasticProblem(abc.ABC):
    """Objective F(x) = E[f(x, Xi)] with sampled and exact gradient oracles."""

    name: str
    d: int
    constants: ProblemConstants

    @abc.abstractmethod
    def draw_noise(self, rng: np.random.Generator) -> NoiseRealization: ...

    @abc.abstractmethod
    def stoch_grad(self, x: np.ndarray, xi: NoiseRealization) -> np.ndarray: ...

    @abc.abstractmethod
    def exact_grad(self, x: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def value(self, x: np.ndarray) -> float: ...

    def noise_support(self) -> list[NoiseRealization] | None:
        """All realizations when the noise distribution is finite, else None."""
        return None

    def presample_payloads(self, rng: np.random.Generator, n: int) -> np.ndarray | None:
        """Batch of n additive-noise payload rows, or None when noise is not additive.

        Must consume the generator exactly like n draw_noise calls so batched
        and per-step trials share one stream.  A problem that returns
        payloads must also evaluate ``exact_grad`` row by row on an (S, d)
        array of iterates, so seed-batched trials can call it once per step.
        """
        return None


class _AdditiveNoiseProblem(StochasticProblem):
    """Noise enters as an x-independent additive perturbation of the gradient."""

    def draw_noise(self, rng: np.random.Generator) -> NoiseRealization:
        sigma = self.constants.sigma_vec
        return NoiseRealization(rng.uniform(-sigma, sigma))

    def presample_payloads(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # numpy fills row-major, so one (n, d) draw equals n sequential (d,) draws
        sigma = self.constants.sigma_vec
        return rng.uniform(-sigma, sigma, size=(n, self.d))

    def stoch_grad(self, x: np.ndarray, xi: NoiseRealization) -> np.ndarray:
        return self.exact_grad(x) + xi.payload


class NoisyQuadratic(_AdditiveNoiseProblem):
    """F(x) = 1/2 sum_j h_j x_j^2 with uniform additive gradient noise."""

    name = "noisy_quadratic"

    def __init__(self, d: int, hessian_diag: np.ndarray, sigma_vec: np.ndarray,
                 x_init: np.ndarray):
        h = np.asarray(hessian_diag, dtype=np.float64)
        sigma = np.asarray(sigma_vec, dtype=np.float64)
        x0 = np.asarray(x_init, dtype=np.float64)
        if not (h.shape == sigma.shape == x0.shape == (d,)):
            raise InvalidConstant(f"expected three vectors of length d={d}")
        if np.any(h <= 0):
            raise InvalidConstant("hessian diagonal entries must be positive")
        self.d = d
        self.h = h
        self.constants = ProblemConstants(
            delta_upper=0.5 * float((h * x0) @ x0),
            L_vec=h * np.sqrt(d),
            sigma_vec=sigma,
            x_init=x0.copy(),
            x_star=np.zeros(d),
        )

    def exact_grad(self, x: np.ndarray) -> np.ndarray:
        return self.h * x

    def value(self, x: np.ndarray) -> float:
        return 0.5 * float((self.h * x).dot(x))


class BoundedNonConvex(_AdditiveNoiseProblem):
    """F(x) = sum_j a_j x_j^2 / (1 + x_j^2): flat tails make it non-convex.

    The per-coordinate curvature of u^2/(1+u^2) is 2(1-3u^2)/(1+u^2)^3,
    maximal in magnitude at u = 0 with value 2, hence L_j = 2 a_j sqrt(d).
    """

    name = "bounded_nonconvex"

    def __init__(self, d: int, a_vec: np.ndarray, sigma_vec: np.ndarray,
                 x_init: np.ndarray):
        a = np.asarray(a_vec, dtype=np.float64)
        sigma = np.asarray(sigma_vec, dtype=np.float64)
        x0 = np.asarray(x_init, dtype=np.float64)
        if not (a.shape == sigma.shape == x0.shape == (d,)):
            raise InvalidConstant(f"expected three vectors of length d={d}")
        if np.any(a <= 0):
            raise InvalidConstant("scale entries a_j must be positive")
        self.d = d
        self.a = a
        self.constants = ProblemConstants(
            delta_upper=float(np.sum(a * x0 * x0 / (1.0 + x0 * x0))),
            L_vec=_BOUNDED_CURVATURE * a * np.sqrt(d),
            sigma_vec=sigma,
            x_init=x0.copy(),
            x_star=np.zeros(d),
        )

    def exact_grad(self, x: np.ndarray) -> np.ndarray:
        return self.a * 2.0 * x / (1.0 + x * x) ** 2

    def value(self, x: np.ndarray) -> float:
        return float(np.sum(self.a * x * x / (1.0 + x * x)))


class SyntheticLogistic(StochasticProblem):
    """Finite-sum logistic loss over generated bounded features.

    f(x, i) = log(1 + exp(-y_i <w_i, x>)) with the index i drawn uniformly.
    Since the per-sample gradient is -y_i w_i s(-y_i <w_i, x>) with the
    logistic sigmoid s in (0, 1), both it and the full gradient are bounded
    coordinate-wise by max_i |w_ij|, giving sigma_j = 2 max_i |w_ij|; the
    sigmoid being 1/4-Lipschitz gives L_j = sqrt(d)/4 * max_i |w_ij| ||w_i||_2.

    The oracles share work without changing a bit of their results:

    * ``exact_grad`` and ``value`` share the margins y * (W @ x) of the
      last point through a one-entry memo keyed on the bytes of x, so a
      point mutated in place is a new key.  Trajectories ask for the loss
      of each iterate right after its gradient, so the memo hits there.
    * ``exact_grad`` takes the weighted mean of the rows with one einsum,
      which adds the weighted rows in row order, as the axis-0 mean of their
      (n, d) product does, without building it.  At d = 1 einsum sums the
      lone column in another order, so d = 1 keeps that axis-0 mean.
    * ``stoch_grad`` evaluates its one sigmoid on a scalar with numpy's exp:
      ``math.exp`` differs from numpy's in the last bit for some inputs.
    """

    name = "synthetic_logistic"

    def __init__(self, d: int, n_samples: int, feature_bound: float,
                 x_init: np.ndarray, seed: int = 0):
        if n_samples < 1:
            raise InvalidConstant("need at least one sample")
        if not feature_bound > 0:
            raise InvalidConstant("feature_bound must be positive")
        x0 = np.asarray(x_init, dtype=np.float64)
        if x0.shape != (d,):
            raise InvalidConstant(f"x_init must have length d={d}")
        rng = np.random.default_rng(seed)
        self.d = d
        self.n_samples = n_samples
        self.features = rng.uniform(-feature_bound, feature_bound, size=(n_samples, d))
        self.labels = rng.choice([-1.0, 1.0], size=n_samples)
        self._memo_key = b""          # x.tobytes() of the last point
        self._memo_margins = None     # and its margins
        abs_w_max = np.max(np.abs(self.features), axis=0)
        row_norms = np.linalg.norm(self.features, axis=1)
        self.constants = ProblemConstants(
            # F >= 0 everywhere, so F(x_init) upper-bounds the gap to the minimum.
            delta_upper=self._full_value(x0),
            L_vec=np.sqrt(d) / 4.0 * np.max(np.abs(self.features) * row_norms[:, None], axis=0),
            sigma_vec=2.0 * abs_w_max,
            x_init=x0.copy(),
            x_star=None,
        )

    def _margins(self, x: np.ndarray) -> np.ndarray:
        """y * (W @ x) for a (d,) point, computed once for consecutive
        calls at equal points; callers only read it."""
        key = np.asarray(x, dtype=np.float64).tobytes()
        if key != self._memo_key:
            self._memo_margins = self.labels * (self.features @ x)
            self._memo_key = key
        return self._memo_margins

    def _full_value(self, x: np.ndarray) -> float:
        return float(np.mean(np.logaddexp(0.0, -self._margins(x))))

    def draw_noise(self, rng: np.random.Generator) -> NoiseRealization:
        return NoiseRealization(int(rng.integers(0, self.n_samples)))

    def noise_support(self) -> list[NoiseRealization]:
        return [NoiseRealization(i) for i in range(self.n_samples)]

    def _sample_grad(self, x: np.ndarray, i: int) -> np.ndarray:
        z = -self.labels[i] * float(self.features[i] @ x)
        # _sigmoid's two branches on one number
        if z >= 0:
            s = 1.0 / (1.0 + np.exp(-z))
        else:
            e = np.exp(z)
            s = e / (1.0 + e)
        return -self.labels[i] * self.features[i] * float(s)

    def stoch_grad(self, x: np.ndarray, xi: NoiseRealization) -> np.ndarray:
        return self._sample_grad(x, xi.payload)

    def exact_grad(self, x: np.ndarray) -> np.ndarray:
        weights = -self.labels * _sigmoid(-self._margins(x))
        if self.d == 1:
            return np.mean(weights[:, None] * self.features, axis=0)
        return np.einsum("i,ij->j", weights, self.features) / self.n_samples

    def value(self, x: np.ndarray) -> float:
        return self._full_value(x)


def noisy_quadratic(d: int, hessian_diag, sigma_vec, x_init) -> NoisyQuadratic:
    return NoisyQuadratic(d, hessian_diag, sigma_vec, x_init)


def bounded_nonconvex(d: int, a_vec, sigma_vec, x_init) -> BoundedNonConvex:
    return BoundedNonConvex(d, a_vec, sigma_vec, x_init)


def synthetic_logistic(d: int, n_samples: int, feature_bound: float, x_init,
                       seed: int = 0) -> SyntheticLogistic:
    return SyntheticLogistic(d, n_samples, feature_bound, x_init, seed=seed)


def _as_vec(value, d: int) -> np.ndarray:
    """Broadcast a scalar to length d; pass vectors through."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(d, float(arr))
    return arr


def make_problem(name: str, params: dict) -> StochasticProblem:
    """Construct a bundled problem from its name and a parameter map."""
    p = dict(params)
    try:
        d = int(p.pop("d"))
    except KeyError as exc:
        raise InvalidConstant("problem params need a dimension 'd'") from exc
    if name == "noisy_quadratic":
        out = NoisyQuadratic(d, _as_vec(p.pop("hessian_diag", 1.0), d),
                             _as_vec(p.pop("sigma", 0.0), d),
                             _as_vec(p.pop("x_init", 1.0), d))
    elif name == "bounded_nonconvex":
        out = BoundedNonConvex(d, _as_vec(p.pop("a", 1.0), d),
                               _as_vec(p.pop("sigma", 0.0), d),
                               _as_vec(p.pop("x_init", 1.0), d))
    elif name == "synthetic_logistic":
        out = SyntheticLogistic(d, int(p.pop("n_samples", 32)),
                                float(p.pop("feature_bound", 1.0)),
                                _as_vec(p.pop("x_init", 0.0), d),
                                seed=int(p.pop("data_seed", 0)))
    else:
        raise InvalidConstant(f"unknown problem name {name!r}")
    if p:
        raise InvalidConstant(f"unknown problem parameters: {sorted(p)}")
    return out


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    worst_ratio: float
    detail: str = ""


@dataclass
class AssumptionReport:
    unbiasedness: AssumptionCheck
    noise_bound: AssumptionCheck
    smoothness: AssumptionCheck

    @property
    def all_passed(self) -> bool:
        return self.unbiasedness.passed and self.noise_bound.passed and self.smoothness.passed

    def checks(self) -> list[AssumptionCheck]:
        return [self.unbiasedness, self.noise_bound, self.smoothness]


def _probe_points(problem: StochasticProblem, rng: np.random.Generator, n: int) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(problem.constants.x_init))))
    return rng.standard_normal((n, problem.d)) * scale


def _block_grads(problem: StochasticProblem, rng: np.random.Generator,
                 xs: np.ndarray, ys: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Sampled gradient at each row of xs under one fresh realization per row,
    beside the exact gradient at that row or, given ys, the sampled gradient
    at ys's row under the same realization.

    Additive noise comes from one ``presample_payloads`` call and is
    evaluated on the whole (n, d) block; any other noise keeps one
    ``draw_noise`` and one oracle call per row.  Both consume rng alike.
    """
    n = xs.shape[0]
    payloads = problem.presample_payloads(rng, n)
    if payloads is not None:
        xi = NoiseRealization(payloads)
        other = problem.exact_grad(xs) if ys is None else problem.stoch_grad(ys, xi)
        return problem.stoch_grad(xs, xi), other
    grads = np.empty((n, problem.d))
    other = np.empty((n, problem.d))
    for i in range(n):
        xi = problem.draw_noise(rng)
        grads[i] = problem.stoch_grad(xs[i], xi)
        other[i] = problem.exact_grad(xs[i]) if ys is None else problem.stoch_grad(ys[i], xi)
    return grads, other


def _worst(row_max: np.ndarray) -> float:
    """Largest row maximum, at least 0; a NaN row never counts as worse."""
    return float(np.fmax.reduce(row_max, initial=0.0))


def verify_assumptions(problem: StochasticProblem, n_probes: int,
                       rng: np.random.Generator) -> AssumptionReport:
    """Empirically stress the declared problem contracts.

    Checks, each reported with its worst observed ratio (pass iff <= 1;
    the noise bound and smoothness allow ``_REL_SLACK`` above 1 for the
    rounding of a ratio that is exactly tight):

    * unbiasedness — the averaged sampled gradient matches the exact one;
      exact enumeration when the noise support is finite, otherwise a Monte
      Carlo mean against a 5-standard-error envelope;
    * noise bound — max_j |noise_j| / sigma_j over fresh draws (0/0 counts
      as 0);
    * smoothness — max_j |d_j f(x,Xi) - d_j f(y,Xi)| sqrt(d) / (L_j ||x-y||_2)
      over random point pairs sharing one realization.

    Each probe block is drawn and evaluated at once (:func:`_block_grads`),
    with the same draws and the same results as one probe at a time.
    """
    if n_probes < 1:
        raise InvalidConstant("n_probes must be >= 1")
    consts = problem.constants
    sigma = consts.sigma_vec
    support = problem.noise_support()

    # (a) unbiasedness
    points = _probe_points(problem, rng, 5)
    worst = 0.0
    if support is not None:
        for x in points:
            exact = problem.exact_grad(x)
            mean = np.mean([problem.stoch_grad(x, xi) for xi in support], axis=0)
            gap = np.max(np.abs(mean - exact))
            tol = 1e-12 * (1.0 + float(np.max(np.abs(exact))))
            worst = max(worst, gap / tol)
        detail = f"exhaustive average over {len(support)} realizations at 5 points"
    else:
        for x in points:
            block = np.broadcast_to(x, (n_probes, problem.d))
            grads, exact = _block_grads(problem, rng, block)
            # a running sum over the draws, in draw order
            acc = np.cumsum(grads - exact, axis=0)[-1]
            gap = np.abs(acc / n_probes)
            tol = 5.0 * sigma / np.sqrt(n_probes) + 1e-12
            worst = max(worst, float(np.max(gap / tol)))
        detail = f"Monte Carlo mean over {n_probes} draws at 5 points, 5-sigma envelope"
    unbiasedness = AssumptionCheck("unbiasedness", worst <= 1.0, worst, detail)

    # (b) almost-sure noise bound
    grads, exact = _block_grads(problem, rng, _probe_points(problem, rng, n_probes))
    noise = np.abs(grads - exact)
    ratio = np.zeros_like(noise)
    np.divide(noise, sigma, out=ratio, where=sigma > 0)
    ratio[(sigma == 0) & (noise > 0)] = np.inf
    worst = _worst(np.max(ratio, axis=1))
    noise_bound = AssumptionCheck(
        "noise_bound", worst <= 1.0 + _REL_SLACK, worst, f"{n_probes} fresh draws")

    # (c) per-coordinate smoothness in the L_j / sqrt(d) convention
    sqrt_d = np.sqrt(problem.d)
    xs = _probe_points(problem, rng, n_probes)
    ys = _probe_points(problem, rng, n_probes)
    dist = np.array([np.linalg.norm(x - y) for x, y in zip(xs, ys)])
    apart = dist != 0.0  # a pair at distance 0 draws no noise
    gx, gy = _block_grads(problem, rng, xs[apart], ys[apart])
    ratio = np.abs(gx - gy) * sqrt_d / (consts.L_vec * dist[apart, None])
    worst = _worst(np.max(ratio, axis=1))
    smoothness = AssumptionCheck(
        "smoothness", worst <= 1.0 + _REL_SLACK, worst, f"{n_probes} random point pairs")

    return AssumptionReport(unbiasedness, noise_bound, smoothness)
