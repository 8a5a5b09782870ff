"""Control-function pairs and the integrability test that drives the
compactness machinery.

A control pair (F1, F2, q) certifies p(t, x, x) <= F1(x) F2(t) together
with the integrability of e^{-t} F2(t)^{1/(2q)} on (0, infinity). For
q > 1 the pair must have F1 identically 1; the type enforces that. Both
Laplace integrals, of F2 here and of the resolvent, use `laplace_rule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .heat import HeatKernel


def bakry_emery_factor(m: int, beta: float, R: float, r: float) -> float:
    """Volume-doubling factor 2^(2m+2beta) R^(m+beta) r^-(m+beta)."""
    if m < 1 or int(m) != m:
        raise ValueError("m must be a positive integer")
    if beta < 0 or R <= 0:
        raise ValueError("beta must be >= 0 and R > 0")
    if r <= 0:
        raise ValueError("r must be positive")
    return 2.0 ** (2 * m + 2 * beta) * R ** (m + beta) * r ** (-(m + beta))


@dataclass(frozen=True)
class F2Family:
    """Scalar time profile F2(t). Supported shapes:

    power:       C * (t^-gamma + 1)
    bakry-emery: C * (F_{m,beta,R}(sqrt(t)) + 1), a power law with
                 exponent (m + beta)/2 and constant C * 2^(2m+2beta) R^(m+beta)
    constant:    C

    Every shape is closed-form: `singular_exponent` gives the power gamma of
    its blow-up at t = 0 (gamma for power, (m + beta)/2 for Bakry-Emery, 0
    for constant) and `bounded` the factor t^gamma F2(t) that stays bounded.
    """

    kind: str
    C: float = 1.0
    gamma: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("power", "bakry-emery", "constant"):
            raise ValueError(f"unknown F2 family {self.kind!r}")
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.kind == "power" and self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.kind == "bakry-emery":
            bakry_emery_factor(self.params["m"], self.params["beta"],
                               self.params["R"], 1.0)  # raises on bad m, beta, R

    @staticmethod
    def power(C: float, gamma: float) -> "F2Family":
        return F2Family("power", C=C, gamma=gamma)

    @staticmethod
    def constant(C: float = 1.0) -> "F2Family":
        return F2Family("constant", C=C)

    @staticmethod
    def bakry_emery(C: float, m: int, beta: float, R: float) -> "F2Family":
        return F2Family("bakry-emery", C=C,
                        params={"m": m, "beta": beta, "R": R})

    def singular_exponent(self) -> float:
        """gamma such that F2(t) grows like t^-gamma as t -> 0; 0 when F2
        does not depend on t."""
        if self.kind == "power":
            return self.gamma
        if self.kind == "constant":
            return 0.0
        return (self.params["m"] + self.params["beta"]) / 2.0

    def bounded(self, t):
        """t^gamma F2(t) for gamma = singular_exponent(), elementwise on
        arrays: C (1 + t^gamma) for power, C (K + t^gamma) for Bakry-Emery
        with K = 2^(2m+2beta) R^(m+beta), C for constant."""
        if self.kind == "constant":
            return self.C
        K = 1.0 if self.kind == "power" else bakry_emery_factor(
            *(self.params[k] for k in ("m", "beta", "R")), 1.0)
        return self.C * (K + t ** self.singular_exponent())

    def __call__(self, t: float) -> float:
        if t <= 0:
            raise ValueError("F2 is defined for t > 0")
        return self.bounded(t) * t ** -self.singular_exponent()


@dataclass(frozen=True)
class ControlPair:
    """(F1, F2, q) with F1 strictly positive, one value per vertex in vertex
    order; q > 1 forces F1 = 1."""

    F1: np.ndarray
    F2: F2Family
    q: float

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if not np.all(self.F1 > 0):
            raise ValueError("F1 must be strictly positive")
        if self.q > 1 and np.any(self.F1 != 1.0):
            raise ValueError("q > 1 requires F1 identically 1")


@dataclass
class IntegrabilityVerdict:
    convergent: bool
    value: float | None = None
    error: float | None = None
    reason: str = ""

    def to_dict(self) -> dict:
        # every F2 family is closed-form, so no verdict is heuristic
        return {"convergent": self.convergent, "value": self.value,
                "error": self.error, "reason": self.reason,
                "heuristic": False}


def laplace_rule(a: float, s: float = 0.0, gamma: float = 0.0, coarsen: float = 1.0
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_k and weights w_k with sum_k w_k g(t_k) ~ integral of
    e^{-a t} t^{-s} g(t) dt on (0, inf), for 0 <= s < 1 and g bounded,
    continuous on [0, inf) and smooth in log t, such as e^{-lambda t} or
    (C (1 + t^gamma))^{1/(2q)}. Every node is a normal float: t_k >= 2 tiny.

    The trapezoid rule in v = (1 - s) log(a t), where the integrand is
    e^{v - a t} g(t) a^{s-1} / (1 - s) and decays like e^v to the left and
    doubly exponentially to the right, so the rule converges geometrically
    in 1/h (Trefethen & Weideman, SIAM Rev. 56, 2014). v runs over
    [v_0, 4.6 (1 - s)] with step h = 0.18 (1 - s) / max(1, gamma): a power
    t^gamma inside g narrows its strip of analyticity in v by that factor,
    and `coarsen` multiplies it (2 gives the rule T_2h of an error estimate).
    v_0 is -46, or where t = 2 tiny if that is larger (s near 1). The
    rule's nodes left of v_0 are folded into the first: there e^{-a t} = 1
    and g(t) is taken as g(t_0), so their weights sum to
    h e^{v_0} a^{s-1} / ((1 - s)(e^h - 1)), a share of about e^{v_0} / h of
    the whole (3 % for s = 0.995, a = 1).
    """
    h = 0.18 * coarsen * (1.0 - s) / max(1.0, gamma)
    # t = 2 tiny keeps the first node clear of t = 0 and of subnormal t,
    # with room for the rounding of exp below
    v0 = max(-46.0, (1.0 - s) * (np.log(2.0 * np.finfo(float).tiny) + np.log(a)))
    v = np.arange(v0, 4.6 * (1.0 - s), h)
    t = np.exp(v / (1.0 - s)) / a
    w = h * np.exp(v - a * t) * a ** (s - 1.0) / (1.0 - s)
    w[0] += h * np.exp(v0) / np.expm1(h) * a ** (s - 1.0) / (1.0 - s)
    return t, w


def _quad_f2(F2: F2Family, q: float, a: float = 1.0) -> tuple[float, float]:
    """(value, error) of the integral of e^{-a t} F2(t)^{1/(2q)} dt on
    (0, inf), for F2 blowing up like t^-gamma at 0 with gamma / (2q) < 1.

    gamma = 0 marks an F2 that does not depend on t (the constant family,
    power with gamma = 0), and the integral is exactly F2^{1/(2q)} / a with
    error 0. Otherwise `laplace_rule` integrates t^{-s} g(t) with
    s = gamma / (2q) and g = (t^gamma F2(t))^{1/(2q)} bounded. The error is
    |T_h - T_2h| + n eps sum |w_k g(t_k)|, T_2h the rule of twice the step.
    """
    gamma = F2.singular_exponent()
    if gamma == 0:
        return F2.bounded(1.0) ** (1.0 / (2.0 * q)) / a, 0.0
    terms, coarse = (w * F2.bounded(t) ** (1.0 / (2.0 * q))
                     for t, w in (laplace_rule(a, gamma / (2.0 * q), gamma, c)
                                  for c in (1.0, 2.0)))
    value = float(np.sum(terms))
    rounding = terms.size * np.finfo(float).eps * float(np.sum(np.abs(terms)))
    return value, abs(value - float(np.sum(coarse))) + rounding


def check_integrability(F2: F2Family, q: float, a: float = 1.0) -> IntegrabilityVerdict:
    """Verdict on the integral of e^{-a t} F2(t)^{1/(2q)} over (0, inf).

    The analytic criterion applies: the t -> 0 singularity exponent
    gamma/(2q) must be < 1 (the exponential handles the tail).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if F2.singular_exponent() / (2.0 * q) >= 1.0:
        return IntegrabilityVerdict(False, reason="endpoint exponent >= 1")
    value, err = _quad_f2(F2, q, a)
    return IntegrabilityVerdict(True, value=value, error=err)


@dataclass
class FitCertificate:
    min_slack: float        # min over samples of F1 F2 - p (>= 0 when passing)
    violations: list[tuple]
    fitted: dict

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"min_slack": self.min_slack,
                "violations": [list(v) for v in self.violations],
                "fitted": self.fitted, "pass": self.ok}


def fit_control(k: HeatKernel, family: str, q: float = 1.0) -> tuple[ControlPair, FitCertificate]:
    """Dominate the kernel diagonal by F1(x) F2(t), for a kernel read from a
    file (`control fit`); a kernel heatcert tabulated itself satisfies the
    graph bound by construction, so its pair comes from `graph_pair`.

    family = "graph":  F1 = 1/rho, F2 = 1. Must certify on every valid
    kernel; a violation here means the universal bound failed upstream.
    family = "power":  F1 = 1/rho, F2 = C (t^-gamma + 1) with gamma from
    a log-log fit on the smallest third of the grid and C the max ratio.
    """
    diag = k.diagonal()
    f1 = 1.0 / k.rho
    times = np.array(k.times)
    pos = times > 0
    if not pos.any():
        raise ValueError(f"kernel time grid {list(k.times)} has no t > 0 to fit")
    if family == "graph":
        f2 = F2Family.constant(1.0)
        gamma_info = {}
    elif family == "power":
        normalized = diag[pos] / f1[None, :]  # p * rho, in (0, 1]
        small_cut = max(1, int(np.ceil(pos.sum() / 3)))
        t_small = times[pos][:small_cut]
        prof = np.min(normalized[:small_cut], axis=1)
        prof = np.maximum(prof, 1e-300)
        if len(t_small) >= 2 and np.ptp(np.log(t_small)) > 0:
            slope = np.polyfit(np.log(t_small), np.log(prof), 1)[0]
            gamma = max(0.0, -float(slope))
        else:
            gamma = 0.0
        shape = times[pos] ** -gamma + 1.0
        C = float(np.max(normalized / shape[:, None]))
        f2 = F2Family.power(C, gamma)
        gamma_info = {"gamma": gamma, "C": C}
    else:
        raise ValueError(f"unknown fit family {family!r}")
    violations = []
    min_slack = np.inf
    for i, t in enumerate(times):
        if t <= 0:
            continue
        bound = f1 * f2(float(t))
        slack = bound - diag[i]
        min_slack = min(min_slack, float(np.min(slack)))
        for j in np.nonzero(slack < -1e-12)[0]:
            violations.append((float(t), k.vertices[j], float(-slack[j])))
    return _control_pair(f1, f2, q), FitCertificate(float(min_slack), violations, gamma_info)


def _control_pair(f1: np.ndarray, f2: F2Family, q: float) -> ControlPair:
    """The pair (F1, F2, q) for a bound p(t, x, x) <= F1(x) F2(t). The q > 1
    shape requires F1 = 1, so there F2 is rescaled by the sup of F1."""
    if q > 1:
        scale = float(np.max(f1))
        f2 = F2Family(f2.kind, C=f2.C * scale, gamma=f2.gamma, params=f2.params)
        f1 = np.ones_like(f1)
    return ControlPair(f1, f2, q)


def graph_pair(rho: np.ndarray, q: float = 1.0) -> ControlPair:
    """The graph control pair of the theorem: F1 = 1/rho and F2 = 1 when
    q = 1, F1 = 1 and F2 = sup 1/rho when q > 1. rho(x) p(t, x, x) <= 1
    whenever H >= 0, which b >= 0 and rho > 0 (graph validation) give, and
    Kato domination carries it to a unitary connection; so no kernel is
    needed. Equals the pair of `fit_control(k, "graph", q)`."""
    return _control_pair(1.0 / np.asarray(rho, dtype=float), F2Family.constant(1.0), q)


def graph_certificate(connection: bool) -> dict:
    """The `control_certificate` block of a report whose pair comes from
    `graph_pair`: derived from the theorem rather than fitted, so it names
    the validated inputs it rests on instead of a slack, and always passes.
    A covariant operator (connection=True) also rests on a unitary phi."""
    rests_on = ["graph validation: b >= 0, rho > 0, finite degrees"]
    if connection:
        rests_on.append("connection check: phi unitary")
    return {"derived": True, "pair": "graph", "rests_on": rests_on, "pass": True}
