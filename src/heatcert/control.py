"""Control-function pairs and the integrability test that drives the
compactness machinery.

A control pair (F1, F2, q) certifies p(t, x, x) <= F1(x) F2(t) together
with the integrability of e^{-t} F2(t)^{1/(2q)} on (0, infinity). For
q > 1 the pair must have F1 identically 1; the type enforces that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .heat import HeatKernel

QUAD_ABS_TOL = 1e-10  # per quadrature piece


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
    table:       samples (t_i, F2(t_i)); integrability only heuristic
    """

    kind: str
    C: float = 1.0
    gamma: float = 0.0
    params: dict = field(default_factory=dict)
    table: tuple = ()

    def __post_init__(self):
        if self.kind not in ("power", "bakry-emery", "constant", "table"):
            raise ValueError(f"unknown F2 family {self.kind!r}")
        if self.kind != "table" and self.C <= 0:
            raise ValueError("C must be positive")
        if self.kind == "power" and self.gamma < 0:
            raise ValueError("gamma must be >= 0")

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

    @staticmethod
    def tabulated(samples) -> "F2Family":
        samples = tuple(sorted((float(t), float(v)) for t, v in samples))
        if any(v <= 0 for _, v in samples) or any(t <= 0 for t, _ in samples):
            raise ValueError("table entries must be positive")
        return F2Family("table", table=samples)

    def effective_power(self) -> tuple[float, float]:
        """(C_eff, gamma_eff) such that F2(t) = C_eff (t^-gamma_eff + 1)."""
        if self.kind == "power":
            return self.C, self.gamma
        if self.kind == "constant":
            return self.C, 0.0
        if self.kind == "bakry-emery":
            m, beta, R = (self.params[k] for k in ("m", "beta", "R"))
            return self.C * bakry_emery_factor(m, beta, R, 1.0), (m + beta) / 2.0
        raise ValueError("tabulated family has no closed form")

    def __call__(self, t: float) -> float:
        if t <= 0:
            raise ValueError("F2 is defined for t > 0")
        if self.kind == "constant":
            return self.C
        if self.kind == "power":
            return self.C * (t ** -self.gamma + 1.0)
        if self.kind == "bakry-emery":
            m, beta, R = (self.params[k] for k in ("m", "beta", "R"))
            return self.C * (bakry_emery_factor(m, beta, R, math.sqrt(t)) + 1.0)
        ts = np.array([s[0] for s in self.table])
        vs = np.array([s[1] for s in self.table])
        return float(np.interp(t, ts, vs))


@dataclass(frozen=True)
class ControlPair:
    """(F1, F2, q) with F1 strictly positive; q > 1 forces F1 = 1."""

    F1: dict[str, float]
    F2: F2Family
    q: float

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if any(v <= 0 for v in self.F1.values()):
            raise ValueError("F1 must be strictly positive")
        if self.q > 1 and any(v != 1.0 for v in self.F1.values()):
            raise ValueError("q > 1 requires F1 identically 1")


@dataclass
class IntegrabilityVerdict:
    convergent: bool
    value: float | None = None
    error: float | None = None
    reason: str = ""
    heuristic: bool = False

    def to_dict(self) -> dict:
        return {"convergent": self.convergent, "value": self.value,
                "error": self.error, "reason": self.reason,
                "heuristic": self.heuristic}


def _quad_f2(f2, gamma: float, q: float, a: float = 1.0) -> tuple[float, float]:
    """integral of e^{-a t} f2(t)^{1/(2q)} dt on (0, inf), where f2 blows
    up like t^-gamma at the origin.

    Split at t = 1; on (0, 1] substitute t = u^{1/(1 - s)} with s = gamma/(2q)
    so the endpoint power singularity is flattened out. Each piece is
    integrated to QUAD_ABS_TOL.
    """
    s = gamma / (2.0 * q)

    def integrand(t):
        return np.exp(-a * t) * f2(t) ** (1.0 / (2.0 * q))

    if s > 0:
        pexp = 1.0 / (1.0 - s)

        def left(u):
            # dt = pexp * u^(pexp - 1) du; t^-s * dt stays bounded
            return integrand(u ** pexp) * pexp * u ** (pexp - 1.0)

        v1, e1 = integrate.quad(left, 0.0, 1.0, epsabs=QUAD_ABS_TOL, limit=200)
    else:
        v1, e1 = integrate.quad(integrand, 0.0, 1.0, epsabs=QUAD_ABS_TOL, limit=200)
    v2, e2 = integrate.quad(integrand, 1.0, np.inf, epsabs=QUAD_ABS_TOL, limit=200)
    return v1 + v2, e1 + e2


def check_integrability(F2: F2Family, q: float, a: float = 1.0) -> IntegrabilityVerdict:
    """Verdict on the integral of e^{-a t} F2(t)^{1/(2q)} over (0, inf).

    For closed-form families the analytic criterion applies: the t -> 0
    singularity exponent gamma/(2q) must be < 1 (the exponential handles
    the tail). Tabulated inputs get a heuristic verdict from a power-law
    fit to the three smallest samples.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if F2.kind != "table":
        _, gamma = F2.effective_power()
        if gamma / (2.0 * q) >= 1.0:
            return IntegrabilityVerdict(False, reason="endpoint exponent >= 1")
        value, err = _quad_f2(F2, gamma, q, a)
        return IntegrabilityVerdict(True, value=value, error=err)
    # tabulated: fit C t^-gamma to the three smallest t < 1 samples
    small = [(t, v) for t, v in F2.table if t < 1.0]
    if len(small) < 3:
        raise ValueError("table needs at least 3 samples below t = 1")
    ts = np.log([t for t, _ in small[:3]])
    vs = np.log([v for _, v in small[:3]])
    slope, intercept = np.polyfit(ts, vs, 1)
    gamma_fit = max(0.0, -float(slope))
    C_fit = float(np.exp(intercept))
    if gamma_fit / (2.0 * q) >= 1.0:
        return IntegrabilityVerdict(False, heuristic=True,
                                    reason=f"fitted endpoint exponent {gamma_fit/(2*q):.3f} >= 1")
    t0 = small[0][0]
    # extrapolated head + trapezoid over the table + exponential tail
    head, _ = _quad_f2(lambda t: C_fit * (t ** -gamma_fit + 1.0), gamma_fit, q, a)
    tail_cut, _ = integrate.quad(
        lambda t: math.exp(-a * t) * (C_fit * (t ** -gamma_fit + 1.0)) ** (1 / (2 * q)),
        t0, np.inf)
    head -= tail_cut
    ts_all = np.array([t for t, _ in F2.table])
    vs_all = np.array([v for _, v in F2.table])
    body = float(np.trapezoid(np.exp(-a * ts_all) * vs_all ** (1 / (2 * q)), ts_all))
    tmax = float(ts_all[-1])
    tail = math.exp(-a * tmax) / a * float(vs_all[-1]) ** (1 / (2 * q))
    return IntegrabilityVerdict(True, value=head + body + tail, error=None,
                                heuristic=True,
                                reason="table verdict from power-law extrapolation")


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
    """Dominate the kernel diagonal by F1(x) F2(t).

    family = "graph":  F1 = 1/rho, F2 = 1. Must certify on every valid
    kernel; a violation here means the universal bound failed upstream.
    family = "power":  F1 = 1/rho, F2 = C (t^-gamma + 1) with gamma from
    a log-log fit on the smallest third of the grid and C the max ratio.
    """
    diag = k.diagonal()
    f1 = {v: 1.0 / r for v, r in zip(k.vertices, k.rho)}
    f1_vec = np.array([f1[v] for v in k.vertices])
    times = np.array(k.times)
    pos = times > 0
    if family == "graph":
        f2 = F2Family.constant(1.0)
        gamma_info = {}
    elif family == "power":
        normalized = diag[pos] / f1_vec[None, :]  # p * rho, in (0, 1]
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
        bound = f1_vec * f2(float(t))
        slack = bound - diag[i]
        min_slack = min(min_slack, float(np.min(slack)))
        for j in np.nonzero(slack < -1e-12)[0]:
            violations.append((float(t), k.vertices[j], float(-slack[j])))
    cert = FitCertificate(float(min_slack), violations, gamma_info)
    if q > 1:
        # the q > 1 shape requires F1 = 1; rescale F2 by the sup of F1
        scale = max(f1.values())
        f2 = F2Family(f2.kind, C=f2.C * scale, gamma=f2.gamma, params=f2.params)
        f1 = {v: 1.0 for v in f1}
    return ControlPair(f1, f2, q), cert


def combine_additive(F1: dict[str, float], f2_samples: dict[float, float]) -> ControlPair:
    """Turn an additive bound p <= f2(t) + F1(x) into the product bound
    p <= F1(x) * (1 + f2(t)/inf F1), asserted pointwise on the samples."""
    inf_f1 = min(F1.values())
    if inf_f1 <= 0:
        raise ValueError("inf F1 must be positive")
    f2_prod = {t: 1.0 + v / inf_f1 for t, v in f2_samples.items()}
    for t, v in f2_samples.items():
        for x, f1x in F1.items():
            if f1x * f2_prod[t] < f1x + v - 1e-12:
                raise AssertionError(
                    f"product bound fails to dominate additive bound at (t={t}, x={x})")
    table = F2Family.tabulated(sorted(f2_prod.items()))
    return ControlPair(dict(F1), table, 1.0)
