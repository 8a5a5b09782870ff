"""Heat semigroups and minimal heat kernels on weighted graphs.

Kernel convention: e^{-tH} f(x) = sum_y p(t, x, y) f(y) rho(y), so
p(t, x, y) = [e^{-tH}]_{x, y} / rho(y) = [Phi e^{-t Lambda} Phi*]_{x, y}
with Phi = D^{-1/2} U from the operator's cached eigendecomposition. A
kernel stack is tabulated once per operator and time grid, cached on the
operator and read-only; a complex kernel (nontrivial connection) is
refused rather than truncated to its real part. The four kernel axioms
(Chapman-Kolmogorov, symmetry, sub-Markov row mass, strong continuity at
t = 0) are verified, never assumed, and the minimal kernel is approached
through Dirichlet restrictions along an exhaustion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .graph import Exhaustion, WeightedGraph
from .operators import (
    OperatorMatrix,
    _semigroup_g,
    assemble_laplacian,
    dirichlet_restriction,
    require_psd,
    semigroup_matrix,
)

A1_TOL = 1e-8
A2_TOL = 1e-10
A3_TOL = 1e-10
NEG_TOL = 1e-12
KERNEL_IMAG_TOL = 1e-12  # max |Im p| relative to max |p|

# Default time grid: spans 1e-3 .. 1e2 and its central band is closed
# under doubling so the Chapman-Kolmogorov check has composable pairs.
DEFAULT_TIMES = (0.001, 0.01, 0.05, 0.1, 0.2, 0.25, 0.5,
                 1.0, 2.0, 4.0, 10.0, 20.0, 100.0)


@dataclass(frozen=True)
class HeatKernel:
    times: tuple[float, ...]
    kernels: np.ndarray  # shape (n_times, n, n), raw (unclamped) values
    vertices: tuple[str, ...]
    rho: np.ndarray

    def at(self, t: float) -> np.ndarray:
        for i, ti in enumerate(self.times):
            if abs(ti - t) <= 1e-12 * max(1.0, t):
                return self.kernels[i]
        raise KeyError(f"time {t} not on kernel grid")

    def diagonal(self) -> np.ndarray:
        """p(t, x, x) per time, shape (n_times, n)."""
        return np.stack([np.real(np.diagonal(k)) for k in self.kernels])


def kernel_from_semigroup(H: OperatorMatrix, times) -> HeatKernel:
    """Kernel stack p(t) = Phi e^{-t Lambda} Phi*, Phi = D^{-1/2} U, from the
    cached eigendecomposition of the scalar operator H, one product per time
    written into a read-only (n_times, n, n) array; p(0) is exactly
    diag(1/rho). The stack is cached on H per time grid, and a kernel with
    an imaginary part above round-off (a nontrivial connection) is refused."""
    if H.rank != 1:
        raise ValueError("heat kernels are scalar; trivialize first")
    times = tuple(sorted(float(t) for t in times))
    key = ("kernel", times)
    if key in H._cache:
        return H._cache[key]
    # guards first: t < 0 raises before any work, a non-PSD H right after
    # the eigendecomposition the stack needs anyway
    gs = [_semigroup_g(t) for t in times]
    rho = H.rho
    lam, u = H.eigh()
    require_psd(H)
    phi = u / np.sqrt(rho)[:, None]
    phi_h = phi.conj().T
    stack = np.empty((len(times), H.dim, H.dim))
    for out, g in zip(stack, gs):
        if g is None:
            # p(0, x, y) = delta_{xy} / rho(y), the kernel of the identity
            out.fill(0.0)
            np.fill_diagonal(out, 1.0 / rho)
        elif np.isrealobj(phi):
            np.matmul(phi * g(lam), phi_h, out=out)
        else:
            p = (phi * g(lam)) @ phi_h
            if np.max(np.abs(p.imag)) > KERNEL_IMAG_TOL * np.max(np.abs(p)):
                raise ValueError("heat kernel is not real; the connection is not trivial")
            out[...] = p.real
    stack.flags.writeable = False
    k = HeatKernel(times, stack, H.vertices, rho)
    H._cache[key] = k
    return k


@dataclass
class AxiomReport:
    a1_max_violation: float | None
    a2_max_violation: float
    a3_max_excess: float
    continuity_ok: bool
    negativity: float
    a1_pairs_checked: int
    notes: list[str] = field(default_factory=list)
    a2_worst: tuple | None = None

    @property
    def ok(self) -> bool:
        a1 = self.a1_max_violation is None or self.a1_max_violation <= A1_TOL
        return (a1 and self.a2_max_violation <= A2_TOL
                and self.a3_max_excess <= A3_TOL and self.continuity_ok
                and self.negativity >= -NEG_TOL)

    def to_dict(self) -> dict:
        return {
            "A1_max_violation": self.a1_max_violation,
            "A1_pairs_checked": self.a1_pairs_checked,
            "A2_max_violation": self.a2_max_violation,
            "A2_worst": list(self.a2_worst) if self.a2_worst else None,
            "A3_max_excess": self.a3_max_excess,
            "continuity_ok": self.continuity_ok,
            "min_kernel_value": self.negativity,
            "pass": self.ok,
            "notes": self.notes,
        }


def verify_axioms(k: HeatKernel, H: OperatorMatrix | None = None) -> AxiomReport:
    """Max violation per kernel axiom over all stored samples.

    A1 needs pairs (t, s) with t + s on the grid; if none exist it is
    reported as unchecked, not failed. The continuity probe needs the
    generating operator.
    """
    rho = k.rho
    times = k.times
    # A2: symmetry
    a2 = 0.0
    a2_worst = None
    for ti, mat in zip(times, k.kernels):
        asym = np.abs(mat - mat.T)
        idx = np.unravel_index(np.argmax(asym), asym.shape)
        if asym[idx] > a2:
            a2 = float(asym[idx])
            a2_worst = (ti, k.vertices[idx[0]], k.vertices[idx[1]])
    # A3: row mass <= 1
    a3 = 0.0
    for mat in k.kernels:
        a3 = max(a3, float(np.max(mat @ rho) - 1.0))
    # A1: p(t+s) = p(t) D_rho p(s)
    a1 = None
    pairs = 0
    grid = {round(t, 12): i for i, t in enumerate(times)}
    for i, t in enumerate(times):
        if t == 0:
            continue
        for j, s in enumerate(times):
            if s == 0 or t + s > times[-1] + 1e-12:
                continue
            key = round(t + s, 12)
            if key in grid:
                lhs = k.kernels[grid[key]]
                rhs = k.kernels[i] @ (rho[:, None] * k.kernels[j])
                err = float(np.max(np.abs(lhs - rhs)))
                a1 = err if a1 is None else max(a1, err)
                pairs += 1
    negativity = float(min(np.min(np.real(mat)) for mat in k.kernels))
    report = AxiomReport(a1, a2, a3, True, negativity, pairs, a2_worst=a2_worst)
    if pairs == 0:
        report.notes.append("A1 unchecked: no composable (t, s, t+s) triple on grid")
    if H is not None:
        report.continuity_ok = _continuity_probe(H)
    else:
        report.notes.append("continuity unchecked: generating operator not supplied")
    return report


def _continuity_probe(H: OperatorMatrix, times=(1e-3, 1e-6)) -> bool:
    """||e^{-tH} f - f|| <= t ||H f|| as t drops to 0, on basis vectors
    (weighted column norms of P_t - I and of H)."""
    w = H.measure_weights()
    h_norms = np.sqrt(w @ np.abs(H.matrix) ** 2)
    for t in times:
        steps = semigroup_matrix(H, t)
        steps[np.diag_indices(H.dim)] -= 1.0
        if not np.all(np.sqrt(w @ np.abs(steps) ** 2) <= t * h_norms + 1e-12):
            return False
    return True


@dataclass
class RhoBoundReport:
    max_product: float  # max over (t, x, y) of p * rho(y)
    saturating: tuple

    @property
    def ok(self) -> bool:
        return self.max_product <= 1.0 + A3_TOL

    def to_dict(self) -> dict:
        return {"max_p_times_rho": self.max_product,
                "saturating_sample": list(self.saturating), "pass": self.ok}


def verify_rho_bound(k: HeatKernel) -> RhoBoundReport:
    """Universal graph bound p(t, x, y) <= 1/rho(y), checked as p * rho(y) <= 1."""
    best = -np.inf
    where = None
    for ti, mat in zip(k.times, k.kernels):
        prod = np.real(mat) * k.rho[None, :]
        idx = np.unravel_index(np.argmax(prod), prod.shape)
        if prod[idx] > best:
            best = float(prod[idx])
            where = (ti, k.vertices[idx[0]], k.vertices[idx[1]])
    return RhoBoundReport(best, where)


@dataclass
class MinimalKernelReport:
    levels: list[np.ndarray]       # the exhaustion's vertex position arrays
    kernels: list[HeatKernel]
    monotone_ok: bool
    worst_decrease: float          # most negative increment (should be ~0)
    sup_increments: list[dict]     # per transition: {t: sup increment}

    def to_dict(self) -> dict:
        return {
            "level_sizes": [len(lv) for lv in self.levels],
            "monotone_ok": self.monotone_ok,
            "worst_decrease": self.worst_decrease,
            "sup_increments": [
                {str(t): v for t, v in inc.items()} for inc in self.sup_increments],
        }


def minimal_kernel(g: WeightedGraph, ex: Exhaustion, times, *,
                   H: OperatorMatrix | None = None) -> MinimalKernelReport:
    """Dirichlet kernels along the exhaustion; monotone increasing toward
    the minimal kernel, with per-level sup increments as the convergence
    diagnostic. Each level is an array of vertex positions in g's order
    (`graph.Exhaustion`), and the report keeps those arrays.

    H is the host Laplacian `assemble_laplacian(g)` when the caller has
    already built it (its cached spectrum then serves a level that is the
    whole host); by default it is assembled here.

    Monotonicity is asserted on the full common index set of each pair of
    consecutive levels. The sup increments are measured on the first
    level's vertices — a fixed observation window — because increments near
    the moving boundary have roughly constant magnitude at every stage and
    would mask the pointwise convergence the diagnostic is meant to show.
    """
    for lv in ex.levels:
        if lv.size and lv[-1] >= g.n:
            raise ValueError("exhaustion level not contained in host")
    if H is None:
        H = assemble_laplacian(g)
    elif H.kind != "scalar-laplacian" or H.vertices != g.vertices:
        raise ValueError("host operator is not the scalar Laplacian of the graph")
    levels = list(ex.levels)
    kernels = [kernel_from_semigroup(dirichlet_restriction(H, lv), times) for lv in levels]
    window = levels[0]
    monotone = True
    worst = 0.0
    sup_inc = []
    for lv_a, lv_b, ka, kb in zip(levels, levels[1:], kernels, kernels[1:]):
        # where level a, and the window, sit inside the nested levels
        pos = np.searchsorted(lv_b, lv_a)
        win_a, win_b = np.searchsorted(lv_a, window), np.searchsorted(lv_b, window)
        inc_per_t = {}
        for ti, mat_a, mat_b in zip(ka.times, ka.kernels, kb.kernels):
            diff = np.real(mat_b[np.ix_(pos, pos)] - mat_a)
            worst = min(worst, float(np.min(diff)))
            if np.min(diff) < -A3_TOL:
                monotone = False
            win_diff = np.real(mat_b[np.ix_(win_b, win_b)]
                               - mat_a[np.ix_(win_a, win_a)])
            inc_per_t[ti] = float(np.max(win_diff))
        sup_inc.append(inc_per_t)
    return MinimalKernelReport(levels, kernels, monotone, worst, sup_inc)


def dump_kernel(k: HeatKernel, path):
    doc = {
        "vertices": list(k.vertices),
        "rho": [float(r) for r in k.rho],
        "times": list(k.times),
        "kernels": [np.real(mat).tolist() for mat in k.kernels],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_kernel(path) -> HeatKernel:
    """Read a kernel file written by `dump_kernel`. Raises ValueError unless
    rho is finite and positive, one per vertex; the times are finite, >= 0
    and strictly increasing; and the kernels are finite, one n x n slice per
    time for n vertices."""
    with open(path) as fh:
        doc = json.load(fh)
    vertices = tuple(doc["vertices"])
    rho = np.array(doc["rho"], dtype=float)
    times = np.array(doc["times"], dtype=float)
    kernels = np.array(doc["kernels"], dtype=float)
    n = len(vertices)
    if rho.shape != (n,):
        raise ValueError(f"kernel file has {rho.size} rho values for {n} vertices")
    bad = np.flatnonzero(~(np.isfinite(rho) & (rho > 0)))
    if bad.size:
        kind = "nonpositive" if np.isfinite(rho[bad[0]]) else "non-finite"
        raise ValueError(f"kernel file has {kind} rho at {vertices[bad[0]]}")
    if (times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(times < 0)
            or np.any(np.diff(times) <= 0)):
        raise ValueError("kernel file times must be finite, >= 0 and strictly increasing")
    if kernels.shape != (len(times), n, n):
        raise ValueError(f"kernel file has kernels of shape {kernels.shape}, "
                         f"expected {(len(times), n, n)}")
    bad = np.flatnonzero(~np.all(np.isfinite(kernels), axis=(1, 2)))
    if bad.size:
        raise ValueError(f"kernel file has a non-finite entry at t = {times[bad[0]]}")
    return HeatKernel(tuple(doc["times"]), kernels, vertices, rho)
