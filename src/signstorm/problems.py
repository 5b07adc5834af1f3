"""Synthetic stochastic objectives with certified constants.

Every problem carries an exact-gradient oracle next to the sampled one and
declares the constants its contracts promise:

* ``delta_upper``  — gap between the initial value and the global minimum
  (an analytic upper bound when the minimizer is unknown);
* ``L_vec``        — per-coordinate smoothness constants, stored in the
  normalized convention ``|d_j f(x) - d_j f(y)| <= (L_j / sqrt(d)) ||x - y||_2``;
* ``sigma_vec``    — almost-sure per-coordinate bounds on the gradient noise.

Noise is drawn as payload rows.  Additive problems' payload row is a
per-coordinate uniform draw on [-sigma_j, sigma_j] added to the exact
gradient; it is independent of the query point, so one realization
evaluated at two points shifts both gradients by the same vector.  A
finite-sum problem's payload is a data index; its support, one block of
every index, lets the verifier check unbiasedness exactly.
"""

from __future__ import annotations

import abc
import contextlib
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConstant
from .optim import _row_norms

# Largest |second derivative| of u -> u^2/(1+u^2), attained at u = 0.
_BOUNDED_CURVATURE = 2.0


# verify_assumptions passes the noise bound and smoothness up to this
# relative excess over 1: a ratio that is exactly tight, such as the
# smoothness of a one-dimensional quadratic, rounds to just above 1
_REL_SLACK = 1e-9

# SyntheticLogistic.exact_grads' blocks hold at most this many margins, or one row
_MARGIN_VALUES = 1 << 16


# numpy's messages for an array larger than any array can be, in bytes or
# in a dimension; one larger than memory raises a MemoryError
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded")


@contextlib.contextmanager
def unallocatable(message: str):
    """Turn numpy's errors for an array that cannot be allocated into
    ``InvalidConstant(message)``; the message names the values that sized it."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not any(text in str(exc) for text in _TOO_BIG):
            raise
        raise InvalidConstant(message) from None


def _sigmoid(z) -> np.ndarray:
    """Logistic function, stable for large |z|: 1 / (1 + exp(-z)) for
    z >= 0 and exp(z) / (1 + exp(z)) below, with one exp per element.

    minimum(z, -z) is -|z| and keeps a NaN's sign as exp(z) would;
    negation is exact, so every element is the same IEEE computation as
    its branch of the two-branch form.  It takes the float64 arrays its
    callers pass, or a list of floats, with no conversion.
    """
    e = np.exp(np.minimum(z, np.negative(z)))
    den = e + 1.0
    np.copyto(e, 1.0, where=np.greater_equal(z, 0.0))
    e /= den
    return e


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


def _check_smoothness(L_vec: np.ndarray, key: str) -> None:
    """An InvalidConstant naming the parameter ``key`` when a smoothness
    constant L_j or their sum ||L||_1 leaves the float range."""
    with np.errstate(over="ignore"):
        total = np.sum(L_vec)
    if not np.isfinite(total):
        raise InvalidConstant(f"problem.params.{key} is too large: the smoothness "
                              "constants L_j or their sum ||L||_1 overflow the float range")


class StochasticProblem(abc.ABC):
    """Objective F(x) = E[f(x, Xi)] with sampled and exact gradient oracles.

    Noise is drawn as blocks of payload rows, one realization per row, and
    the block oracles evaluate an (S, d) array of points against S rows;
    ``draw_noise``, ``stoch_grad``, ``exact_grad`` and ``value`` are their
    one-row calls.
    """

    name: str
    d: int
    constants: ProblemConstants

    @abc.abstractmethod
    def presample_payloads(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n payload rows; one block draws what n single draws would, and
        leaves the generator in the same state."""

    @abc.abstractmethod
    def sampled_grads(self, xs: np.ndarray, payloads: np.ndarray,
                      exact: np.ndarray | None, out: np.ndarray | None = None) -> np.ndarray:
        """Sampled gradient at each row of xs under the payload row of the
        same index, written into ``out`` if given; ``exact`` holds the exact
        gradients at xs, or None where the caller has not computed them."""

    @abc.abstractmethod
    def exact_grads(self, xs: np.ndarray, with_loss: bool,
                    out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
        """Exact gradients at the rows of xs (into ``out`` if given) and, when
        asked, F at each row (else None); each row's bits are those it has alone."""

    def exact_grad(self, x: np.ndarray) -> np.ndarray:
        """Exact gradient at one point."""
        return self.exact_grads(x[None], False)[0][0]

    def value(self, x: np.ndarray) -> float:
        """F at one point."""
        return float(self.exact_grads(x[None], True)[1][0])

    def draw_noise(self, rng: np.random.Generator) -> np.ndarray:
        """One realization: the only payload row of a one-row presample."""
        return self.presample_payloads(rng, 1)[0]

    def stoch_grad(self, x: np.ndarray, payload) -> np.ndarray:
        """Sampled gradient at one point under one payload row."""
        return self.sampled_grads(x[None], np.asarray(payload)[None], None)[0]

    def noise_support(self) -> np.ndarray | None:
        """All realizations as one payload block when finite, else None."""
        return None


class _AdditiveNoiseProblem(StochasticProblem):
    """Noise enters as an x-independent additive perturbation of the gradient.

    F(x) = sum_j scale_j phi(x_j), min phi = phi(0) = 0, |phi''| <= the
    subclass's ``curvature``: L_j = curvature * scale_j * sqrt(d), and
    F(x_init) is the gap.  The scale is the parameter ``scale_key``, and
    ``scale_name`` names it in errors."""

    def __init__(self, d: int, scale: np.ndarray, sigma_vec: np.ndarray,
                 x_init: np.ndarray):
        scale = np.asarray(scale, dtype=np.float64)
        sigma = np.asarray(sigma_vec, dtype=np.float64)
        x0 = np.asarray(x_init, dtype=np.float64)
        if not (scale.shape == sigma.shape == x0.shape == (d,)):
            raise InvalidConstant(f"expected three vectors of length d={d}")
        if np.any(scale <= 0):
            raise InvalidConstant(f"{self.scale_name} must be positive")
        self.d = d
        self.scale = scale
        # uniform(-sigma, sigma) is lo + range * random(), with these per call
        self._lo = -sigma
        self._range = sigma - self._lo
        with np.errstate(over="ignore"):
            L_vec = self.curvature * scale * np.sqrt(d)
        _check_smoothness(L_vec, self.scale_key)
        self.constants = ProblemConstants(
            delta_upper=self.value(x0),
            L_vec=L_vec,
            sigma_vec=sigma,
            x_init=x0.copy(),
            x_star=np.zeros(d),
        )

    def presample_payloads(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # rng.uniform(-sigma, sigma, size=(n, d)) bit for bit, generator state
        # included, without its range checks; numpy fills row-major, so one
        # (n, d) draw equals n sequential (d,) draws
        return self._lo + self._range * rng.random((n, self.d))

    _factor = np.empty(0)

    def _factor_rows(self, xs: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """scale * grad_factor; for the engine's calls, which pass ``out``, a
        copy of the chunk's shape, as a same-shape product is the faster."""
        if out is None:
            return self.scale * self.grad_factor
        if self._factor.shape != xs.shape:
            self._factor = np.broadcast_to(self.scale * self.grad_factor, xs.shape).copy()
        return self._factor

    def sampled_grads(self, xs, payloads, exact, out=None) -> np.ndarray:
        exact = self.exact_grads(xs, False, out)[0] if exact is None else exact
        return np.add(exact, payloads, out=out)


class NoisyQuadratic(_AdditiveNoiseProblem):
    """F(x) = 1/2 sum_j h_j x_j^2 with uniform additive gradient noise."""

    name = "noisy_quadratic"
    curvature = grad_factor = 1.0
    scale_key, scale_name = "hessian_diag", "hessian diagonal entries"

    def exact_grads(self, xs, with_loss, out=None):
        grads = np.multiply(self._factor_rows(xs, out), xs, out=out)
        if not with_loss:
            return grads, None
        # the stacked matmul takes each row's dot as (h * x).dot(x) does alone
        return grads, 0.5 * np.matmul(grads[:, None, :], xs[:, :, None])[:, 0, 0]


class BoundedNonConvex(_AdditiveNoiseProblem):
    """F(x) = sum_j a_j x_j^2 / (1 + x_j^2): flat tails make it non-convex.

    The per-coordinate curvature of u^2/(1+u^2) is 2(1-3u^2)/(1+u^2)^3,
    maximal in magnitude at u = 0 with value 2, hence L_j = 2 a_j sqrt(d).
    """

    name = "bounded_nonconvex"
    curvature = _BOUNDED_CURVATURE
    grad_factor = 2.0
    scale_key, scale_name = "a", "scale entries a_j"

    def exact_grads(self, xs, with_loss, out=None):
        grads = np.multiply(self._factor_rows(xs, out), xs, out=out)
        grads /= np.square(1.0 + xs * xs)
        if not with_loss:
            return grads, None
        # an axis-1 reduce sums each row as np.sum sums it alone
        return grads, np.add.reduce(self.scale * xs * xs / (1.0 + xs * xs), axis=1)


class SyntheticLogistic(StochasticProblem):
    """Finite-sum logistic loss over generated bounded features.

    f(x, i) = log(1 + exp(-y_i <w_i, x>)) with the index i drawn uniformly.
    Since the per-sample gradient is -y_i w_i s(-y_i <w_i, x>) with the
    logistic sigmoid s in (0, 1), both it and the full gradient are bounded
    coordinate-wise by max_i |w_ij|, giving sigma_j = 2 max_i |w_ij|; the
    sigmoid being 1/4-Lipschitz gives L_j = sqrt(d)/4 * max_i |w_ij| ||w_i||_2.

    The oracles share work without changing a bit of their results:

    * both block oracles take each row's dot products in one stacked
      ``np.matmul``, which runs the BLAS matrix-vector product (or dot) of
      each row alone, as the row's own ``@`` does, so a row's bits do not
      depend on the rows beside it; a matrix product over the rows would
      round differently.  The sigmoid, gradient and loss then run once per
      block, each sigmoid with numpy's exp: ``math.exp`` differs from
      numpy's in the last bit for some inputs.
    * the exact gradient takes the weighted mean of the rows with one
      einsum, which adds the weighted rows in row order, as the axis-0 mean
      of their (n, d) product does, without building it.  At d = 1 einsum
      sums the lone column in another order, so d = 1 keeps that mean.
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
        abs_w_max = np.max(np.abs(self.features), axis=0)
        with np.errstate(over="ignore"):
            row_norms = np.linalg.norm(self.features, axis=1)
            L_vec = np.sqrt(d) / 4.0 * np.max(np.abs(self.features) * row_norms[:, None], axis=0)
        _check_smoothness(L_vec, "feature_bound")
        self.constants = ProblemConstants(
            # F >= 0 everywhere, so F(x_init) upper-bounds the gap to the minimum.
            delta_upper=self.value(x0),
            L_vec=L_vec,
            sigma_vec=2.0 * abs_w_max,
            x_init=x0.copy(),
            x_star=None,
        )

    def presample_payloads(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # one block of indices draws what n scalar integers calls would
        return rng.integers(0, self.n_samples, size=n)

    def noise_support(self) -> np.ndarray:
        return np.arange(self.n_samples)

    def sampled_grads(self, xs, payloads, exact, out=None) -> np.ndarray:
        rows = self.features.take(payloads, axis=0)
        neg_labels = -self.labels.take(payloads)
        z = neg_labels * np.matmul(rows[:, None, :], xs[:, :, None])[:, 0, 0]
        # w * (-y s) has the bits of (-y w) * s, as y is +-1
        return np.multiply(rows, (neg_labels * _sigmoid(z))[:, None], out=out)

    def exact_grads(self, xs, with_loss, out=None):
        grads = np.empty(xs.shape) if out is None else out
        loss = np.empty(len(xs)) if with_loss else None
        step = max(1, _MARGIN_VALUES // self.n_samples)
        for lo in range(0, len(xs), step):
            rows = slice(lo, lo + step)
            # -y * (W @ x) of each row
            neg_margins = -(self.labels * np.matmul(self.features, xs[rows, :, None])[..., 0])
            weights = -self.labels * _sigmoid(neg_margins)
            if self.d == 1:
                grads[rows] = np.mean(weights[:, :, None] * self.features, axis=1)
            else:
                # "is" on the transposed weights adds in the same order as
                # "si", and a contiguous block runs faster
                grads[rows] = np.einsum("is,ij->sj", np.ascontiguousarray(weights.T),
                                        self.features) / self.n_samples
            if with_loss:
                # what np.mean computes, without its Python wrapper
                loss[rows] = np.add.reduce(np.logaddexp(0.0, neg_margins), axis=1) / self.n_samples
        return grads, loss


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


# typed bundled-problem parameter -> its type, the range its value must lie
# in, and what the two read as; a bool is of neither type
# a value is finite if at most the largest float, a test that also holds for
# an int too large to convert; a bound b is drawn on [-b, b], whose width 2b
# must be finite too
_MAX = float(np.finfo(np.float64).max)
_FINITE_POSITIVE = (numbers.Real, lambda v: 0 < v <= _MAX, "a finite positive number")
_PARAM_RULES = {
    "d": (numbers.Integral, lambda v: v >= 1, "an integer >= 1"),
    "n_samples": (numbers.Integral, lambda v: v >= 1, "an integer >= 1"),
    "data_seed": (numbers.Integral, lambda v: v >= 0, "an integer >= 0"),
    "feature_bound": (numbers.Real, lambda v: 0 < v <= _MAX / 2,
                      "a positive number whose double is finite"),
    "hessian_diag": _FINITE_POSITIVE,
    "a": _FINITE_POSITIVE,
    "sigma": (numbers.Real, lambda v: 0 <= v <= _MAX / 2,
              "a number >= 0 whose double is finite"),
    "x_init": (numbers.Real, lambda v: -_MAX <= v <= _MAX, "a finite number"),
}
# one value for every coordinate, or a list (or 1-d array) of one per coordinate
_VECTOR_PARAMS = ("hessian_diag", "a", "sigma", "x_init")


def check_params(params: dict) -> None:
    """InvalidConstant naming the first typed parameter whose value is not of
    its type or out of its range, or, a list, not of length d.  Values are
    checked, not converted."""
    for key, (kind, in_range, name) in _PARAM_RULES.items():
        value = params.get(key)
        values = [value]
        if key in _VECTOR_PARAMS:
            name += " or a list of them"
            if isinstance(value, list) or getattr(value, "ndim", 0) == 1:
                values = value
        if key in params and not all(isinstance(v, kind) and not isinstance(v, bool)
                                     and in_range(v) for v in values):
            raise InvalidConstant(f"problem.params.{key} must be {name}, got {value!r}")
        # a list's length; d, checked first, is valid here where it is given
        if values is value and "d" in params and len(value) != params["d"]:
            raise InvalidConstant(f"problem.params.{key} has length {len(value)}, but "
                                  f"problem.params.d = {params['d']}")


def make_problem(name: str, params: dict) -> StochasticProblem:
    """Construct a bundled problem from its name and a parameter map.  Sizes
    whose arrays cannot be allocated are an InvalidConstant naming them."""
    check_params(params)
    p = dict(params)
    try:
        d = int(p.pop("d"))
    except KeyError as exc:
        raise InvalidConstant("problem params need a dimension 'd'") from exc
    keys = ("d", "n_samples") if name == "synthetic_logistic" else ("d",)
    sizes = ", ".join(f"problem.params.{key} = {params[key]!r}"
                      for key in keys if key in params)
    with unallocatable(f"{sizes}: the {name} problem's arrays are too large to allocate"):
        out = _build_problem(name, d, p)
    if p:
        raise InvalidConstant(f"unknown problem parameters: {sorted(p)}")
    return out


def _build_problem(name: str, d: int, p: dict) -> StochasticProblem:
    """The named problem at dimension d, popping its parameters from p."""
    for cls in (NoisyQuadratic, BoundedNonConvex):
        if name == cls.name:
            return cls(d, _as_vec(p.pop(cls.scale_key, 1.0), d), _as_vec(p.pop("sigma", 0.0), d),
                       _as_vec(p.pop("x_init", 1.0), d))
    if name == "synthetic_logistic":
        return SyntheticLogistic(d, int(p.pop("n_samples", 32)),
                                 float(p.pop("feature_bound", 1.0)),
                                 _as_vec(p.pop("x_init", 0.0), d),
                                 seed=int(p.pop("data_seed", 0)))
    raise InvalidConstant(f"unknown problem name {name!r}")


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

    The realizations are one ``presample_payloads`` block, which consumes
    rng as one draw per row would.
    """
    payloads = problem.presample_payloads(rng, xs.shape[0])
    if ys is None:
        exact, _ = problem.exact_grads(xs, False)
        return problem.sampled_grads(xs, payloads, exact), exact
    return problem.sampled_grads(xs, payloads, None), problem.sampled_grads(ys, payloads, None)


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
            block = np.broadcast_to(x, (len(support), problem.d))
            mean = np.mean(problem.sampled_grads(block, support, None), axis=0)
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
    dist = _row_norms(xs - ys)[:, 0]
    apart = dist != 0.0  # a pair at distance 0 draws no noise
    gx, gy = _block_grads(problem, rng, xs[apart], ys[apart])
    ratio = np.abs(gx - gy) * sqrt_d / (consts.L_vec * dist[apart, None])
    worst = _worst(np.max(ratio, axis=1))
    smoothness = AssumptionCheck(
        "smoothness", worst <= 1.0 + _REL_SLACK, worst, f"{n_probes} random point pairs")

    return AssumptionReport(unbiasedness, noise_bound, smoothness)
