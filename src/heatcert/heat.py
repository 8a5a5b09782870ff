"""Heat semigroups and minimal heat kernels on weighted graphs.

Kernel convention: e^{-tH} f(x) = sum_y p(t, x, y) f(y) rho(y), so
p(t, x, y) = [e^{-tH} D^{-1}]_{x, y}, the kernel scaling of
`operators._spectral_rows`; this module forms no eigenbasis product of
its own, and a complex kernel (nontrivial connection) is refused rather
than truncated to its real part. The four kernel axioms
(Chapman-Kolmogorov, symmetry, sub-Markov row mass, strong continuity at
t = 0) and the rho bound are verified, never assumed, in one pass over
the time grid in ascending order (`_KernelChecks`): each slice p(t) is
checked as it comes and held only while a later pair (t, s, t + s) on the
grid still needs it as a factor, and every check runs in row blocks.
`verify_semigroup` forms each slice of an operator once and holds no
stack; `verify_kernel` runs the same pass once over a stored stack, such
as the one `kernel_from_semigroup` tabulates for `heat kernel`, and
`verify_axioms` and `verify_rho_bound` each run it for one report. The
minimal kernel is approached through Dirichlet restrictions along an
exhaustion, streamed by time with no stack per level.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field

import numpy as np

from .graph import Exhaustion, WeightedGraph
from .operators import (
    OperatorMatrix,
    _row_step,
    _semigroup_g,
    _spectral_rows,
    assemble_laplacian,
    dirichlet_restriction,
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
    times: tuple[float, ...]  # ascending
    kernels: np.ndarray  # shape (n_times, n, n), raw (unclamped) values
    vertices: tuple[str, ...]
    rho: np.ndarray

    def at(self, t: float) -> np.ndarray:
        i = _on_grid(self.times, t)
        if i is None:
            raise KeyError(f"time {t} not on kernel grid")
        return self.kernels[i]

    def diagonal(self) -> np.ndarray:
        """p(t, x, x) per time, shape (n_times, n)."""
        return np.stack([np.real(np.diagonal(k)) for k in self.kernels])


def _grid(times) -> tuple[float, ...]:
    """A time grid as sorted floats."""
    return tuple(sorted(float(t) for t in times))


def _on_grid(times, t) -> int | None:
    """Index of the time of the ascending grid nearest to t, if t lies
    within 1e-12 of it relative to that grid time; else None. So only 0
    matches 0, and no grid time matches an infinite or NaN t. `HeatKernel.at`
    and the Chapman-Kolmogorov pairs match times by it."""
    i = bisect.bisect_left(times, t)
    near = [j for j in (i - 1, i)
            if 0 <= j < len(times) and abs(times[j] - t) <= 1e-12 * times[j]]
    return min(near, key=lambda j: abs(times[j] - t), default=None)


def _a1_plan(times):
    """The Chapman-Kolmogorov pairs of the ascending grid: per index k, the
    index pairs (i, j) of positive times with t_i + t_j on the grid at k
    (`_on_grid`, which gives k >= i, j); and per index, the last k that
    needs it as a factor, -1 for none."""
    pairs = [[] for _ in times]
    last = [-1] * len(times)
    for i, t in enumerate(times):
        for j, s in enumerate(times):
            k = _on_grid(times, t + s) if t > 0 and s > 0 else None
            if k is not None:
                pairs[k].append((i, j))
                last[i], last[j] = max(last[i], k), max(last[j], k)
    return pairs, last


def _kernel_former(H: OperatorMatrix, times):
    """form(i, out): the kernel p(t_i) = e^{-t_i H} D^{-1} of the scalar
    operator H, one `operators._spectral_rows` kernel block written into the
    real n x n array out, which it returns; p(0) is exactly diag(1/rho). A
    kernel with an imaginary part above round-off (a nontrivial connection)
    is refused. Guards first: a rank above 1 or a t < 0 raises before the
    eigendecomposition, and a non-PSD H right after it."""
    if H.rank != 1:
        raise ValueError("heat kernels are scalar; trivialize first")
    gs = [_semigroup_g(t) for t in times]
    rows = _spectral_rows(H, kernel=True)
    scratch = np.empty((H.dim, H.dim), H.matrix.dtype) if np.iscomplexobj(H.matrix) else None

    def form(i, out):
        ((_, p),) = rows(gs[i], out=out if scratch is None else scratch)
        if scratch is not None:
            if np.max(np.abs(p.imag)) > KERNEL_IMAG_TOL * np.max(np.abs(p)):
                raise ValueError("heat kernel is not real; the connection is not trivial")
            out[...] = p.real
        return out

    return form


def kernel_from_semigroup(H: OperatorMatrix, times) -> HeatKernel:
    """Kernel stack p(t) = e^{-tH} D^{-1} of the scalar operator H on the
    sorted grid, each slice formed as `verify_semigroup` forms it and
    written into a read-only (n_times, n, n) array. `heat kernel` writes
    it; the kernel checks of an operator need no stack."""
    times = _grid(times)
    form = _kernel_former(H, times)
    stack = np.empty((len(times), H.dim, H.dim))
    for i, out in enumerate(stack):
        form(i, out)
    stack.flags.writeable = False
    return HeatKernel(times, stack, H.vertices, H.rho)


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


def _first_max(block: np.ndarray, row0: int) -> tuple[float, int, int]:
    """The max of a row block of an n x n array and its (row, column) in
    the whole array, the block starting at row row0; the first in row-major
    order of those that reach it."""
    x, y = np.unravel_index(np.argmax(block), block.shape)
    return float(block[x, y]), row0 + int(x), int(y)


class _KernelChecks:
    """The kernel checks as one pass over an ascending time grid. `add`
    takes the real slice p(t) of each grid time in turn and checks on it
    symmetry (A2), row mass (A3), negativity and the rho bound
    p(t, x, y) rho(y) <= 1; and, unless a1 is off, Chapman-Kolmogorov (A1)
    for every pair (t, s) of positive times with t + s at this time
    (`_a1_plan`). A slice is held only while a later pair still needs it as
    a factor. A2's difference, the rho product and each A1 product
    (p(t)[r] rho) p(s) are formed in row blocks r of ROW_BLOCK_BYTES
    (`operators._row_step`), so no check makes an n x n temporary. A worst
    sample is the first of the grid, in row-major order within a slice, to
    reach the max."""

    def __init__(self, times, vertices, rho, a1: bool = True):
        self.times, self.vertices, self.rho = times, vertices, rho
        self.pairs, self.last = (_a1_plan(times) if a1
                                 else ([()] * len(times), [-1] * len(times)))
        self.k, self.held = 0, {}
        self.a1, self.a1_pairs = None, 0
        self.a2, self.a2_worst = 0.0, None
        self.a3, self.negativity = 0.0, np.inf
        self.rho_max, self.rho_worst = -np.inf, None

    def add(self, mat: np.ndarray):
        k, rho, vertices = self.k, self.rho, self.vertices
        t = self.times[k]
        self.k += 1
        n = mat.shape[0]
        step = _row_step(n * mat.itemsize)
        blocks = [slice(v, min(v + step, n)) for v in range(0, n, step)]
        for r in blocks:
            buf = mat[r] - mat[:, r].T
            value, x, y = _first_max(np.abs(buf, out=buf), r.start)
            if value > self.a2:
                self.a2, self.a2_worst = value, (t, vertices[x], vertices[y])
            value, x, y = _first_max(np.multiply(mat[r], rho, out=buf), r.start)
            if value > self.rho_max:
                self.rho_max, self.rho_worst = value, (t, vertices[x], vertices[y])
        self.a3 = max(self.a3, float(np.max(mat @ rho) - 1.0))
        self.negativity = min(self.negativity, float(np.min(mat)))
        self.held[k] = mat
        for i, j in self.pairs[k]:
            # p(t + s) = p(t) D_rho p(s); the difference and its abs in place
            errs = []
            for r in blocks:
                diff = (self.held[i][r] * rho) @ self.held[j]
                np.subtract(mat[r], diff, out=diff)
                errs.append(np.max(np.abs(diff, out=diff)))
            err = float(np.max(errs))
            self.a1 = err if self.a1 is None else max(self.a1, err)
            self.a1_pairs += 1
        for h in [h for h in self.held if self.last[h] <= k]:
            del self.held[h]

    def axioms(self, continuity_ok: bool | None) -> AxiomReport:
        """The axiom report, with the continuity probe's verdict, None when
        it was not run (no generating operator)."""
        report = AxiomReport(self.a1, self.a2, self.a3, continuity_ok is not False,
                             self.negativity, self.a1_pairs, a2_worst=self.a2_worst)
        if self.a1_pairs == 0:
            report.notes.append("A1 unchecked: no composable (t, s, t+s) triple on grid")
        if continuity_ok is None:
            report.notes.append("continuity unchecked: generating operator not supplied")
        return report

    def rho_bound(self) -> RhoBoundReport:
        return RhoBoundReport(self.rho_max, self.rho_worst)


def _stack_checks(k: HeatKernel, a1: bool = True) -> _KernelChecks:
    """The pass of `_KernelChecks` over a stored stack's slices."""
    checks = _KernelChecks(k.times, k.vertices, k.rho, a1)
    for mat in k.kernels:
        checks.add(mat)
    return checks


def verify_kernel(k: HeatKernel) -> tuple[AxiomReport, RhoBoundReport]:
    """The reports of `verify_axioms` (with no generating operator, so no
    continuity probe) and `verify_rho_bound` from one pass over the stored
    stack, as `heat verify --kernel` checks a kernel file."""
    checks = _stack_checks(k)
    return checks.axioms(None), checks.rho_bound()


def verify_axioms(k: HeatKernel, H: OperatorMatrix | None = None) -> AxiomReport:
    """Max violation per kernel axiom over all stored samples, by the pass
    of `_KernelChecks` over the stack's slices.

    A1 needs pairs (t, s) with t + s on the grid; if none exist it is
    reported as unchecked, not failed. The continuity probe needs the
    generating operator.
    """
    return _stack_checks(k).axioms(None if H is None else _continuity_probe(H))


def _continuity_probe(H: OperatorMatrix, times=(1e-3, 1e-6)) -> bool:
    """||e^{-tH} f - f|| <= t ||H f|| as t drops to 0, on basis vectors
    (weighted column norms of P_t - I and of H); the squared moduli are
    taken in place, in one n x n array per time for a real H."""
    w = H.measure_weights()
    mag = np.abs(H.matrix)
    mag **= 2
    h_norms = np.sqrt(w @ mag)
    del mag
    for t in times:
        steps = semigroup_matrix(H, t)
        steps[np.diag_indices(H.dim)] -= 1.0
        mag = np.abs(steps, out=steps) if np.isrealobj(steps) else np.abs(steps)
        mag **= 2
        if not np.all(np.sqrt(w @ mag) <= t * h_norms + 1e-12):
            return False
    return True


def verify_rho_bound(k: HeatKernel) -> RhoBoundReport:
    """Universal graph bound p(t, x, y) <= 1/rho(y), checked as
    p * rho(y) <= 1 by the pass of `_KernelChecks` over the stack's slices,
    with no Chapman-Kolmogorov products."""
    return _stack_checks(k, a1=False).rho_bound()


@dataclass
class MinimalKernelReport:
    """The monotonicity verdict and sup increments of `minimal_kernel`.
    Holds no kernel: `kernels`, the per-level reference stacks, tabulates
    every level again on each access."""

    levels: list[np.ndarray]       # the exhaustion's vertex position arrays
    host: OperatorMatrix = field(repr=False)
    times: tuple[float, ...]
    monotone_ok: bool
    worst_decrease: float          # most negative increment (should be ~0)
    sup_increments: list[dict]     # per transition: {t: sup increment}

    @property
    def kernels(self) -> list[HeatKernel]:
        """One stack per level, `kernel_from_semigroup` of its Dirichlet
        restriction."""
        return [kernel_from_semigroup(dirichlet_restriction(self.host, lv), self.times)
                for lv in self.levels]

    def to_dict(self) -> dict:
        return {
            "level_sizes": [len(lv) for lv in self.levels],
            "monotone_ok": self.monotone_ok,
            "worst_decrease": self.worst_decrease,
            "sup_increments": [
                {str(t): v for t, v in inc.items()} for inc in self.sup_increments],
        }


class _LevelStream:
    """The minimal kernel's pass over an ascending time grid. `step(i)`
    forms every level's p(t_i) from its kernel rows (`_spectral_rows`) into
    the level's one slice buffer, the product that its stack from
    `kernel_from_semigroup` would hold, and compares each pair of
    consecutive levels before the next time. With host_given, a level that
    is the whole host forms nothing and takes the host slice passed to
    `step`. Each level operator is dropped once its rows are formed, which
    hold one n_l x n_l factor, formed in place of the level's U.

    Monotonicity is asserted on the full common index set of each pair of
    consecutive levels. The sup increments are measured on the first
    level's vertices — a fixed observation window — because increments near
    the moving boundary have roughly constant magnitude at every stage and
    would mask the pointwise convergence the diagnostic is meant to show.
    """

    def __init__(self, H: OperatorMatrix, levels, times, host_given: bool = False):
        if H.kind != "scalar-laplacian":
            raise ValueError("host operator is not the scalar Laplacian of the graph")
        for lv in levels:
            if lv.size and lv[-1] >= len(H.vertices):
                raise ValueError("exhaustion level not contained in host")
        self.host, self.levels, self.times = H, list(levels), times
        self.gs = [_semigroup_g(t) for t in times]
        # per level its kernel rows and slice buffer, or None for the host's
        self.sources = []
        for lv in self.levels:
            op = dirichlet_restriction(H, lv)
            self.sources.append(None if host_given and op.dim == H.dim else
                                (_spectral_rows(op, kernel=True), np.empty((op.dim, op.dim))))
        window = self.levels[0]
        # where level a, and the window, sit inside the nested levels
        self.pairs = [(np.searchsorted(lv_b, lv_a), np.searchsorted(lv_a, window),
                       np.searchsorted(lv_b, window))
                      for lv_a, lv_b in zip(self.levels, self.levels[1:])]
        self.worst = 0.0
        self.sup_inc = [{} for _ in self.pairs]

    def step(self, i: int, host: np.ndarray | None = None):
        t, g = self.times[i], self.gs[i]
        mats = [host if src is None else next(src[0](g, out=src[1]))[1]
                for src in self.sources]
        for (pos, win_a, win_b), mat_a, mat_b, inc in zip(self.pairs, mats, mats[1:],
                                                          self.sup_inc):
            diff = mat_b[np.ix_(pos, pos)]
            diff -= mat_a
            self.worst = min(self.worst, float(np.min(diff)))
            inc[t] = float(np.max(mat_b[np.ix_(win_b, win_b)] - mat_a[np.ix_(win_a, win_a)]))

    def report(self) -> MinimalKernelReport:
        return MinimalKernelReport(self.levels, self.host, self.times,
                                   self.worst >= -A3_TOL, self.worst, self.sup_inc)


def minimal_kernel(g: WeightedGraph, ex: Exhaustion, times, *,
                   H: OperatorMatrix | None = None) -> MinimalKernelReport:
    """Dirichlet kernels along the exhaustion; monotone increasing toward
    the minimal kernel, with per-level sup increments as the convergence
    diagnostic. Each level is an array of vertex positions in g's order
    (`graph.Exhaustion`), and the report keeps those arrays.

    H is the host Laplacian `assemble_laplacian(g)` when the caller has
    already built it (its cached spectrum then serves a level that is the
    whole host, and that level's kernel factor takes its place); by default
    it is assembled here. The levels are streamed by time (`_LevelStream`):
    one slice per level is live and no stack is built. `verify_semigroup`
    runs the same stream next to the host's kernel checks.
    """
    if H is None:
        H = assemble_laplacian(g)
    elif H.vertices != g.vertices:
        raise ValueError("host operator is not the scalar Laplacian of the graph")
    times = _grid(times)
    stream = _LevelStream(H, ex.levels, times)
    for i in range(len(times)):
        stream.step(i)
    return stream.report()


def verify_semigroup(H: OperatorMatrix, times, *, ex: Exhaustion | None = None,
                     keep=()) -> tuple[AxiomReport, RhoBoundReport,
                                       MinimalKernelReport | None, HeatKernel]:
    """The kernel checks of `verify_axioms` (continuity probe included) and
    `verify_rho_bound` for the kernel of the scalar operator H on the
    sorted grid, and with an exhaustion ex those of `minimal_kernel`, in one
    ascending pass over the grid that forms each slice p(t) once and holds
    no stack.

    The continuity probe runs first, on H's eigenbasis; then the kernel
    factor D^{-1/2} U is formed in its place, and H keeps only its PSD
    verdict (`operators._spectral_rows`). So the pass holds H, the factor,
    the level factors and slice buffers, the current slice and the held
    ones, and an operator of H's spectrum read after it is diagonalised
    again. Each slice feeds `_KernelChecks`, which holds it only while a
    later Chapman-Kolmogorov pair needs it, and, where a level is the whole
    host, the level stream at the same t. The slices of the times in keep
    (each on the grid) are written into a small stack and returned; the
    rest are dropped when the pass no longer needs them. Returns (axioms,
    rho bound, minimal kernel report or None, HeatKernel of the kept
    times); the reports equal those of the stack-based functions exactly.
    """
    times = _grid(times)
    at = [_on_grid(times, t) for t in keep]
    if None in at:
        raise KeyError(f"time {keep[at.index(None)]} not on kernel grid")
    slots = {i: j for j, i in enumerate(sorted(set(at)))}
    continuity_ok = _continuity_probe(H)
    form = _kernel_former(H, times)
    n = H.dim
    kept = np.empty((len(slots), n, n))
    levels = None if ex is None else _LevelStream(H, ex.levels, times, host_given=True)
    checks = _KernelChecks(times, H.vertices, H.rho)
    for i in range(len(times)):
        p = form(i, kept[slots[i]] if i in slots else np.empty((n, n)))
        checks.add(p)
        if levels is not None:
            levels.step(i, p)
        del p
    minimal = None if levels is None else levels.report()
    del form, levels
    kept.flags.writeable = False
    kernel = HeatKernel(tuple(times[i] for i in slots), kept, H.vertices, H.rho)
    return checks.axioms(continuity_ok), checks.rho_bound(), minimal, kernel


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
    the vertex ids are distinct strings; rho is finite and positive, one per
    vertex; the times are finite, >= 0 and strictly increasing; and the
    kernels are finite, one n x n slice per time for n vertices."""
    with open(path) as fh:
        doc = json.load(fh)
    vertices = tuple(doc["vertices"])
    seen = set()
    for v in vertices:
        if not isinstance(v, str):
            raise ValueError(f"kernel file vertex id {v!r} is not a string")
        if v in seen:
            raise ValueError(f"kernel file repeats vertex id {v}")
        seen.add(v)
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
