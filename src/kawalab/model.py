"""Parameters, memory kernels, and the closed-form stability certificates.

Each closed form of the paper is one expression here: the gain condition,
the length gap 3 pi^2 b - a L^2 (read by the length test, r_max and the
decay rate), P, T(mu1, mu2) with its det/trace negativity test (never a
sampled eigensolver), and the guaranteed decay rate.  `build_certificate`
collects every failed condition and raises for none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np


class ConditionError(ValueError):
    """A certificate precondition is violated; the message names it."""


@dataclass(frozen=True)
class PhysicalParams:
    """Drift a, third-order dispersion b, domain length L, nonlinearity p."""

    a: float
    b: float
    L: float
    p: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.L > 0):
            raise ValueError("a, b, L must be positive")
        if not (1.0 <= self.p <= 2.0):
            raise ValueError("p must lie in [1, 2]")


@dataclass(frozen=True)
class MemoryKernel:
    """Kernel lam(s) on (tau1, tau2), positive and essentially bounded.

    Forms: 'constant' lam = c, 'exponential' lam = c*exp(-sigma*s), and
    'tabulated' (piecewise-linear through `samples`, its end values held
    beyond them).  `lambda_integral` is int lam, in closed form for each.
    """

    tau1: float
    tau2: float
    form: str = "constant"
    c: float = 1.0
    sigma: float = 1.0
    samples: tuple = ()  # ((s_0, lam_0), ...) for form='tabulated'
    lambda_integral: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not (0.0 < self.tau1 < self.tau2):
            raise ValueError("need 0 < tau1 < tau2")
        if self.form not in ("constant", "exponential", "tabulated"):
            raise ValueError(f"unknown kernel form {self.form!r}")
        if self.form == "tabulated":
            s, v = np.reshape(np.array(self.samples, dtype=float),
                              (len(self.samples), 2)).T
            if len(s) < 2 or np.any(np.diff(s) <= 0):
                raise ValueError("tabulated kernel needs increasing sample abscissae")
            if np.any(v <= 0):
                raise ValueError("kernel must be positive")
        elif self.c <= 0:
            raise ValueError("kernel must be positive")
        integral = self._integral()
        if integral == 0.0:
            raise ConditionError("kernel integral vanishes")
        object.__setattr__(self, "lambda_integral", integral)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.form == "constant":
            out = np.full_like(s, self.c)
        elif self.form == "exponential":
            out = self.c * np.exp(-self.sigma * s)
        else:
            out = np.interp(s, *np.array(self.samples, dtype=float).T)
        return out if out.ndim else float(out)

    def _integral(self) -> float:
        """Integral of lam over (tau1, tau2).  A tabulated lam is linear
        between tau1, the sample abscissae inside (tau1, tau2) and tau2, so
        the trapezoid rule on those nodes is its exact integral."""
        t1, t2 = self.tau1, self.tau2
        if self.form == "constant":
            return self.c * (t2 - t1)
        if self.form == "exponential":
            return self.c * _int_exp(self.sigma, t1, t2)
        nodes = np.array([t1, *(p[0] for p in self.samples if t1 < p[0] < t2),
                          t2])
        return float(np.trapezoid(self(nodes), nodes))


def _int_exp(sig: float, t1: float, t2: float) -> float:
    # integral of exp(-sig*s) on (t1, t2); below the threshold the closed form
    # loses all precision to cancellation/underflow and the sig -> 0 limit is
    # already exact to machine precision
    if abs(sig) < 1e-12:
        return t2 - t1
    return (math.exp(-sig * t1) - math.exp(-sig * t2)) / sig


@dataclass(frozen=True)
class FeedbackGains:
    """Damping gain alpha, memory gain beta, Lyapunov weights mu1/mu2, delta.

    delta is a free positive constant: larger delta strengthens the delta
    factor in the first decay-rate term but weakens it through exp(-delta*tau2).
    """

    alpha: float
    beta: float
    mu1: float = 0.0
    mu2: float = 0.0
    delta: float = 1.0

    def __post_init__(self):
        if self.alpha == 0.0 or self.beta == 0.0:
            raise ValueError("alpha and beta must be nonzero")
        if self.mu1 < 0 or self.mu2 < 0:
            raise ValueError("mu1, mu2 must be nonnegative")
        if self.delta <= 0:
            raise ValueError("delta must be positive")


def check_gain_condition(gains: FeedbackGains, kernel: MemoryKernel):
    """|alpha| + |beta| * int(lam) against 1; strict inequality required."""
    value = abs(gains.alpha) + abs(gains.beta) * kernel.lambda_integral
    return value, value < 1.0


def critical_length(params: PhysicalParams) -> float:
    """sqrt(3b/a) * pi, reported; the length test is `_length_gap` > 0."""
    return math.sqrt(3.0 * params.b / params.a) * math.pi


_PI2 = math.pi * math.pi


def _length_gap(params: PhysicalParams) -> float:
    """3 pi^2 b - a L^2: the length condition holds when it is positive,
    and r_max and the decay rate's second term are formed from it."""
    try:
        return 3.0 * _PI2 * params.b - params.a * params.L ** 2
    except OverflowError:   # L ** 2 beyond the float range
        return -math.inf


def assemble_P(gains: FeedbackGains, kernel: MemoryKernel) -> np.ndarray:
    """Dissipativity matrix of the boundary quadratic form."""
    lam = kernel.lambda_integral
    a, b = gains.alpha, gains.beta
    return np.array([
        [a * a - 1.0 + abs(b) * lam, a * b],
        [a * b, b * b - abs(b) / lam],
    ])


def assemble_T(gains: FeedbackGains, kernel: MemoryKernel,
               params: PhysicalParams) -> np.ndarray:
    """T(mu1, mu2) = P + mu1*L*[[a^2,ab],[ab,b^2]] + mu2*[[|b| int lam, 0],[0,0]]."""
    P = assemble_P(gains, kernel)
    a, b, L = gains.alpha, gains.beta, params.L
    if gains.mu1 != 0.0:
        P = P + gains.mu1 * L * np.array([[a * a, a * b], [a * b, b * b]])
    if gains.mu2 != 0.0:
        P = P + gains.mu2 * np.array([[abs(b) * kernel.lambda_integral, 0.0],
                                      [0.0, 0.0]])
    return P


def _det(M: np.ndarray) -> float:
    """M00 M11 - M01 M10: the one determinant of a 2x2 matrix here."""
    return float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])


def is_negative_definite(M: np.ndarray) -> bool:
    """2x2 symmetric negativity via det > 0 and trace < 0."""
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2) or abs(M[0, 1] - M[1, 0]) > 1e-12 * (1.0 + abs(M[0, 1])):
        raise ValueError("expected a symmetric 2x2 matrix")
    return _det(M) > 0.0 and M[0, 0] + M[1, 1] < 0.0


def r_max(params: PhysicalParams) -> float:
    """Smallness radius ((p+2)(3 pi^2 b - a L^2) / (2 pi^2 L^(2-p/2)))^(1/p)."""
    gap = _length_gap(params)
    if not gap > 0.0:
        raise ConditionError("length condition violated: 3 pi^2 b - a L^2 <= 0")
    p = params.p
    return ((p + 2.0) * gap / (2.0 * _PI2 * params.L ** (2.0 - p / 2.0))) ** (1.0 / p)


def mu_guaranteed(params: PhysicalParams, gains: FeedbackGains,
                  kernel: MemoryKernel, r: float) -> float:
    """Supremum of admissible decay exponents mu (E <= kappa E(0) e^{-2 mu t}).

    Returns min of the memory-weight term and the length/nonlinearity term.
    Callers wanting an interior admissible rate subtract their own margin.
    """
    value, ok = check_gain_condition(gains, kernel)
    if not ok:
        raise ConditionError(f"gain_condition violated: {value} >= 1")
    rmax = r_max(params)  # raises on length violation
    if r > rmax:
        raise ConditionError(f"r = {r} exceeds r_max = {rmax}")
    if not is_negative_definite(assemble_T(gains, kernel, params)):
        raise ConditionError("T(mu1, mu2) is not negative definite")
    b = abs(gains.beta)
    term1 = (gains.mu2 * b * math.exp(-gains.delta * kernel.tau2) * gains.delta
             / (2.0 * (1.0 + gains.mu1 * b)))
    p, L = params.p, params.L
    bracket = ((p + 2.0) * _length_gap(params)
               - 2.0 * _PI2 * L ** (2.0 - p / 2.0) * r ** p)
    term2 = gains.mu1 * bracket / (2.0 * L * L * (1.0 + L * gains.mu1) * (p + 2.0))
    return min(term1, term2)


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable pre-simulation report of every closed-form condition."""

    gain_condition_value: float
    gain_condition_ok: bool
    critical_length: float
    length_ok: bool
    P: np.ndarray
    P_star: np.ndarray
    T: np.ndarray
    detP: float
    trP: float
    detT: float
    trT: float
    T_negative_definite: bool
    r_max: float
    r: float
    mu_guaranteed: float
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """Every field by name, arrays and tuples as lists, and `ok`."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update((name, v.tolist() if isinstance(v, np.ndarray) else list(v))
                 for name, v in d.items() if isinstance(v, (np.ndarray, tuple)))
        return {**d, "ok": self.ok}


def build_certificate(params: PhysicalParams, gains: FeedbackGains,
                      kernel: MemoryKernel) -> Certificate:
    """Evaluate every condition; collect failures instead of raising.

    The decay rate is certified for initial data of norm r = r_max / 2 (NaN
    when the length condition fails).
    """
    failures = []
    value, gain_ok = check_gain_condition(gains, kernel)
    if not gain_ok:
        failures.append("gain_condition")
    length_ok = _length_gap(params) > 0.0
    if not length_ok:
        failures.append("length_condition")
    P = assemble_P(gains, kernel)
    # the adjoint-side P*: P with the off-diagonal alpha |beta| for alpha beta
    sign = math.copysign(1.0, gains.beta)
    Pstar = P * np.array([[1.0, sign], [sign, 1.0]])
    T = assemble_T(gains, kernel, params)
    T_neg = is_negative_definite(T)
    if not T_neg:
        failures.append("T_negative_definite")
    rmax = r_max(params) if length_ok else float("nan")
    if length_ok and not rmax > 0.0:
        failures.append("r_max_positive")
    r = 0.5 * rmax
    mu = float("nan")
    if not failures:
        mu = mu_guaranteed(params, gains, kernel, r)
        if not mu > 0.0:
            failures.append("mu_guaranteed_positive")
    return Certificate(
        gain_condition_value=value, gain_condition_ok=gain_ok,
        critical_length=critical_length(params), length_ok=length_ok,
        P=P, P_star=Pstar, T=T,
        detP=_det(P), trP=float(np.trace(P)),
        detT=_det(T), trT=float(T[0, 0] + T[1, 1]), T_negative_definite=T_neg,
        r_max=rmax, r=r, mu_guaranteed=mu, failures=tuple(failures))
