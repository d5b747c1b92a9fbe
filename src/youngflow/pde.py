"""First-order systems du = sum_j F^j(t, x, u, Du) dX^j by characteristics.

The characteristic triple (a, b, c) per seed x follows

    da = - sum_j F_p^j(t, a, b, c) dX^j
    db =   sum_j (F^j - F_p^j . c)(t, a, b, c) dX^j
    dc =   sum_j (F_x^j + F_u^j c)(t, a, b, c) dX^j

seeded at (x, phi(x), Dphi(x)). The solution is read off as
u(t, y) = b_t(a_t^{-1}(y)), Du(t, y) = c_t(a_t^{-1}(y)) before the first
fold of the characteristic map. Seed and evaluation sets live on
axis-aligned uniform boxes, d <= 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .fields import DEFAULT_FD_STEP, FieldSpec, SmoothMap, _fd_last_axis
from .paths import GridBox, NumericFailure, PathError, SampledPath, dyadic_prefix, dyadic_steps
from .reports import CheckReport, ResidualReport, residual_ladder
from .yde import BlowUpError, SolveConfig, _einsum, _euler_fixed, _euler_sweep


_NEAREST_CHUNK_BYTES = 4 * 2**20  # one part of the cold-start distance array, in bytes
_FOLD_BLOCK_ROWS = 64  # time rows per block of the seed Jacobian and the fold scan
_FOLD_BLOCK_BYTES = 8 * 2**20  # caps rows per block (A, B, C, jac) and per Newton (jac lookups)
_RESIDUAL_CHUNK_ROWS = 256  # grid rows per chunk of the residual ladder's integrand


class CausticError(NumericFailure, RuntimeError):
    """Evaluation requested at or beyond the first characteristic fold."""


class InversionError(NumericFailure, RuntimeError):
    """Batched Newton on the characteristic map failed to converge."""


@dataclass(frozen=True)
class ScalarHamiltonian:
    """One driver component F(t, x, u, p) with partials, batched.

    value: (t, x (..., d), u (...), p (..., d)) -> (...)
    dx -> (..., d), du -> (...), dp -> (..., d); finite differences with
    fd_step fill in whatever is not supplied analytically.
    """

    value: Callable
    dx: Callable | None = None
    du: Callable | None = None
    dp: Callable | None = None
    fd_step: float = DEFAULT_FD_STEP

    def value_at(self, t, x, u, p):
        return np.asarray(self.value(t, x, u, p), dtype=float)

    def dx_at(self, t, x, u, p):
        if self.dx is not None:
            return np.asarray(self.dx(t, x, u, p), dtype=float)
        return _fd_last_axis(lambda xx: self.value_at(t, xx, u, p), x, self.fd_step)

    def dp_at(self, t, x, u, p):
        if self.dp is not None:
            return np.asarray(self.dp(t, x, u, p), dtype=float)
        return _fd_last_axis(lambda pp: self.value_at(t, x, u, pp), p, self.fd_step)

    def du_at(self, t, x, u, p):
        if self.du is not None:
            return np.asarray(self.du(t, x, u, p), dtype=float)
        h = self.fd_step
        return (self.value_at(t, x, u + h, p) - self.value_at(t, x, u - h, p)) / (2 * h)


@dataclass(frozen=True)
class HamiltonianSpec:
    """All driver components of the right-hand side, state dimension d.

    p_only: every component is F^j(p) alone, so F_x = F_u = 0, and F^j
    and F_p^j do not depend on the sign of a zero p (the Euler sweep turns
    c_0 = -0.0 into +0.0), as its builder declares; nothing checks the
    callables.
    """

    state_dim: int
    components: tuple
    p_only: bool = False

    def __post_init__(self):
        if not self.components:
            raise PathError("at least one driver component is required")
        if not isinstance(self.p_only, bool):
            raise PathError(f"p_only must be a bool, got {self.p_only!r}")

    @property
    def n_drivers(self) -> int:
        return len(self.components)


def _locate(box: GridBox, x: np.ndarray, offset=0):
    """Cell lookup at x (k, d): corner flat indices + offset, multilinear weights.

    Both are (k, 2^d), corners ordered as itertools.product((0, 1),
    repeat=d); each weight is the product of its per-axis factors taken
    in axis order. Queries outside the box use the nearest edge cell.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    k = x.shape[0]
    for ax, coords in enumerate(box._axes):
        c = coords.searchsorted(x[:, ax], side="right") - 1
        c = np.minimum(np.maximum(c, 0), coords.size - 2)
        lo = coords[c]
        factors = np.empty((k, 2))
        factors[:, 1] = (x[:, ax] - lo) / (coords[c + 1] - lo)
        factors[:, 0] = 1.0 - factors[:, 1]
        if ax == 0:
            flat, weight = c[:, None] + (0, 1), factors
            continue
        flat = (flat[:, :, None] * coords.size + (c[:, None] + (0, 1))[:, None, :]).reshape(k, -1)
        weight = (weight[:, :, None] * factors[:, None, :]).reshape(k, -1)
    return flat + offset, weight


def _interp(loc, nodal: np.ndarray) -> np.ndarray:
    """Apply a _locate lookup to nodal data (m, S...), giving (k, S...)."""
    flat, weight = loc
    terms = weight.reshape(weight.shape + (1,) * (nodal.ndim - 1)) * nodal[flat]
    out = 0.0  # summed corner by corner from +0.0: the order is part of the result
    for corner in range(flat.shape[1]):
        out = out + terms[:, corner]
    return out


def interp_nodal(box: GridBox, nodal: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of nodal data (m, S...) at x (k, d)."""
    return _interp(_locate(box, x), nodal)


def _char_field(H: HamiltonianSpec) -> FieldSpec:
    """The characteristic system as one Young system dY = f(t, Y) dX.

    Y (m, 2d + 1) stacks the rows [a, b, c]; the value (m, 2d + 1, n)
    holds, per driver component j, the column [-F_p^j, F^j - F_p^j . c,
    F_x^j + F_u^j c] at (t, a, b, c); for a p_only H, of c alone, with
    c part 0, so every step has the column at the seeds.
    """
    d = H.state_dim
    partials = [(comp.value_at, comp.dp_at, comp.dx_at, comp.du_at) for comp in H.components]

    def value(t, y):
        a, b, c = y[:, :d], y[:, d], y[:, d + 1:]
        F = np.empty(y.shape + (len(partials),))
        for j, (fv, fp, fx, fu) in enumerate(partials):
            p = fp(t, a, b, c)
            np.negative(p, out=F[:, :d, j])
            np.subtract(fv(t, a, b, c), _einsum("md,md->m", p, c), out=F[:, d, j])
            np.add(fx(t, a, b, c), fu(t, a, b, c)[:, None] * c, out=F[:, d + 1:, j])
        return F

    return FieldSpec(in_dim=2 * d + 1, driver_dim=H.n_drivers, value=value)


def seed_from_initial_data(phi: SmoothMap, x: np.ndarray):
    """(x, phi(x), Dphi(x)) for a scalar initial condition phi."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = phi.value_at(x)[..., 0]
    p = phi.jacobian_at(x)[..., 0, :]
    return x, u, p


class CharBlock(NamedTuple):
    """The characteristic data of every seed at B consecutive grid points.

    tau and folded are the fold state as far as it is known: every
    crossing up to at least the grid point after the block's last, which
    is all that decides whether a cell is past its fold at its times.
    """

    index: int  # grid index of the first row
    t: np.ndarray  # (B,)
    a: np.ndarray  # (B, m, d)
    b: np.ndarray  # (B, m)
    c: np.ndarray  # (B, m, d)
    jac: np.ndarray  # (B, m, d, d), D_x a_t across seeds
    tau: np.ndarray  # (m,)
    folded: np.ndarray  # (m,)


def _seed_gradient(box: GridBox, resh: np.ndarray) -> list:
    """np.gradient along each seed axis, second-order at edges when possible."""
    return [np.gradient(resh, ax, axis=1 + k, edge_order=2 if ax.size >= 3 else 1)
            for k, ax in enumerate(box.axes())]


def _seed_jacobian(box: GridBox, A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """D_x a_t across seeds for time rows A (k, m, d), into out (k, m, d, d).

    Central differences inside, one-sided at edges. They run along the
    seed axes only, so a row's values do not depend on which rows share
    the call.
    """
    k, d = A.shape[0], box.dim
    if out is None:
        out = np.empty(A.shape + (d,))
    jac = out.reshape((k,) + box.counts + (d, d))  # a view: out is contiguous
    for j, col in enumerate(_seed_gradient(box, A.reshape((k,) + box.counts + (d,)))):
        jac[..., j] = col  # [..., i, j] = d a_i / d x_j
    return out


def _det_signs(jac: np.ndarray) -> np.ndarray:
    """Values with the signs of det over the last two axes: a 1 x 1
    matrix's own entry (numpy's det of it is sign(a) exp(log|a|)), else det."""
    return jac[..., 0, 0] if jac.shape[-1] == 1 else np.linalg.det(jac)


class _FoldScan:
    """First linearly interpolated sign change of det per seed column.

    feed() takes consecutive row blocks of the (n, m, d, d) seed
    Jacobians; each block's last row is carried over to pair with the next
    block's first. Only the columns that have not folded are looked at,
    through _det_signs; the two rows of a new crossing take np.linalg.det,
    which works on each matrix alone, so tau has the bits of a scan of the
    whole (n, m) det array. After each feed, tau and folded (updated in
    place) hold every crossing between the rows seen so far. Columns whose
    det has not changed sign keep tau = horizon with folded = False, so
    tau <= horizon always holds.
    """

    def __init__(self, times: np.ndarray):
        self.times = times
        self.tau = self.folded = None
        self._live = self._prev = None  # the unfolded columns, and their carried-over row
        self._i0 = 0  # grid index of the carried-over row

    def feed(self, jac: np.ndarray) -> None:
        times = self.times
        if self._live is None:  # a column with det <= 0 at the first row folds there
            self.folded = _det_signs(jac[0]) <= 0
            self.tau = np.full(self.folded.shape, float(times[-1]))
            self.tau[self.folded] = times[0]
            self._live = np.flatnonzero(~self.folded)
            rows = jac[:, self._live]
        else:
            rows = np.concatenate([self._prev[None], jac[:, self._live]])
        det = _det_signs(rows)
        sign_change = (det[:-1] > 0) & (det[1:] <= 0)
        hit = sign_change.any(axis=0)
        cols = np.flatnonzero(hit)
        if cols.size:
            i = np.argmax(sign_change[:, cols], axis=0)
            d0, d1 = np.linalg.det(rows[i, cols]), np.linalg.det(rows[i + 1, cols])
            i += self._i0
            self.tau[self._live[cols]] = times[i] + d0 / (d0 - d1) * (times[i + 1] - times[i])
            self.folded[self._live[cols]] = True
        self._live, self._prev = self._live[~hit], rows[-1, ~hit]
        self._i0 += rows.shape[0] - 1


def _seed_data(H: HamiltonianSpec, phi: SmoothMap, box: GridBox):
    if box.dim != H.state_dim:
        raise PathError("seed box dimension does not match the state dimension")
    return seed_from_initial_data(phi, box.points())


class CharStream:
    """The characteristic rows of a seed box, a block of grid points at a time.

    blocks() steps _char_field(H) by _rows, gathers _FOLD_BLOCK_ROWS rows
    (fewer for large seed boxes, _FOLD_BLOCK_BYTES) under one np.errstate,
    and feeds each block's seed Jacobians to the fold scan: O(seeds x
    block) memory for any driver length. Row idx is handed out only once
    the scan has seen row idx + 1, as a crossing between them can round to
    tau == t_idx. A block's arrays are buffers, valid until the next block
    is requested. When the sweep ends, tau, folded and alive_until are
    final.
    """

    def __init__(self, H: HamiltonianSpec, X: SampledPath, phi: SmoothMap,
                 box: GridBox, substeps: int = 1):
        if X.dim != H.n_drivers:
            raise PathError("driver dimension does not match the component count")
        self.seeds, u0, p0 = _seed_data(H, phi, box)
        self.box, self.times = box, X.times
        self._y0 = np.concatenate([self.seeds, u0[:, None], p0], axis=1)
        self._field, self._X, self._cfg = _char_field(H), X, SolveConfig(substeps)
        self._p_only = H.p_only
        self.tau = self.folded = self.alive_until = None

    def index_of(self, t: float) -> int:
        return self._X.index_of(t)

    def blocks(self, indices=None):
        """(CharBlock, rows) for each block holding requested grid indices
        (default: all), rows being their positions in the block, repeats
        kept. The indices must not decrease; the sweep runs to the end."""
        X, box, times = self._X, self.box, self.times
        n, (m, d) = X.n_points, self.seeds.shape
        want = np.arange(n) if indices is None else np.fromiter(indices, np.intp)
        if np.any(want[1:] < want[:-1]):
            raise PathError("a CharStream yields grid times in increasing order only")
        size = max(1, min(_FOLD_BLOCK_ROWS, n, _FOLD_BLOCK_BYTES // (8 * m * (2 * d + 1 + d * d))))
        A, B, C, J = (np.empty((size + 1, m) + s) for s in ((d,), (), (d,), (d, d)))
        alive_idx = np.full(m, n - 1, dtype=int)
        scan = _FoldScan(times)
        lo = 1  # buffer row of the block's first row; row 0 carries the last block's last
        rows = self._rows(A, B, C, alive_idx)
        for first in range(0, n, size):
            with np.errstate(over="ignore", invalid="ignore"):  # never on while a block is out
                p = next(rows)
                jac = _seed_jacobian(box, A[1:p + 1], J[1:p + 1])
            if not np.isfinite(jac).all():  # frozen seeds next to live ones: no fold scan
                r = int(np.argmin(np.isfinite(jac).reshape(p, -1).all(axis=1)))
                raise BlowUpError(float(times[max(first + r - 1, 0)]))
            scan.feed(jac)
            start, hi = first - 1 + lo, p + (first + p == n)  # the last row has no next one
            k0, k1 = np.searchsorted(want, (start, start + hi - lo))
            if k1 > k0:
                yield (CharBlock(start, times[start:start + hi - lo], A[lo:hi], B[lo:hi],
                                 C[lo:hi], J[lo:hi], scan.tau, scan.folded), want[k0:k1] - start)
            for v in (A, B, C, J):
                v[0] = v[p]
            lo = 0
        self.tau, self.folded, self.alive_until = scan.tau, scan.folded, times[alive_idx]

    def _rows(self, A: np.ndarray, B: np.ndarray, C: np.ndarray, alive_idx: np.ndarray):
        """Fill rows 1 to p of A, B and C with each block's p grid rows; yield p.

        A p_only H at one substep takes yde._euler_fixed of the column at
        the seeds, with the sweep's bits, until a block ends non-finite.
        From that block's first state on, as for every other H or substep
        count, yde._euler_sweep runs, its frozen rows going into alive_idx.
        """
        X, n, size, (m, d) = self._X, self._X.n_points, A.shape[0] - 1, self.seeds.shape
        y, first = self._y0, 0
        if self._p_only and self._cfg.substeps_per_interval == 1:
            F = self._field.value_at(float(X.times[0]), y)
            dx = np.diff(X.values, axis=0)  # substep_grid's at one substep
            parts = ((A, F[:, :d]), (B, F[:, d]), (C, F[:, d + 1:]))
            A[1], B[1], C[1] = y[:, :d], y[:, d], y[:, d + 1:]  # grid row 0
            for first in range(0, n, size):
                p, j = min(size, n - first), int(first == 0)  # the block's first state is row j
                for V, FV in parts:
                    _euler_fixed(FV, dx[first - 1 + j:first + p - 1], V[j:p + 1])
                if not all(np.isfinite(V[p]).all() for V in (A, B, C)):  # non-finite stays so
                    y = np.column_stack([A[j], B[j], C[j]])
                    break
                yield p
            else:
                return
        g = max(first - 1, 0)  # the grid index of y
        local = np.full(m, n - 1 - g)  # the sweep counts from index g
        sweep = _euler_sweep(self._field, SampledPath(X.times[g:], X.values[g:]), y, self._cfg,
                             False, n - g, local)
        if first:
            next(sweep)  # row g, which the last block holds
        for first in range(first, n, size):
            p = min(size, n - first)
            for r in range(1, p + 1):
                (y,) = next(sweep)
                A[r], B[r], C[r] = y[:, :d], y[:, d], y[:, d + 1:]
            np.add(local, g, out=alive_idx)
            yield p


def fold_times(H: HamiltonianSpec, X: SampledPath, phi: SmoothMap,
               box: GridBox, substeps: int = 1):
    """(tau, folded) of a CharStream run to its end, in its bounded memory."""
    stream = CharStream(H, X, phi, box, substeps)
    for _ in stream.blocks():
        pass
    return stream.tau, stream.folded


def _invert_batch(stream: CharStream, block: CharBlock, rows, targets: np.ndarray,
                  newton_tol: float, max_iter: int):
    """Newton on the interpolated maps a_t of a block's rows, each at every target.

    The len(rows) x k problems, flattened row by row, each start at the
    nearest seed node of their row (the distances in parts no larger than
    the block's a or _NEAREST_CHUNK_BYTES); converged ones take delta = 0,
    so no problem's bits depend on the others. Returns (x, loc, ok, pre,
    inside): the preimages, their _locate lookup into the block's nodal
    arrays flattened to (B m, ...), and the convergence, pre-fold cell
    corners and preimage-in-seed-box masks. Outside the box the
    interpolant extrapolates linearly: only in-hull preimages are trusted.
    """
    box, (m, d) = stream.box, stream.seeds.shape
    Y = np.atleast_2d(np.asarray(targets, dtype=float))
    if Y.shape[-1] != d:
        raise PathError(f"targets have {Y.shape[-1]} coordinates, the seed box {d}")
    row = np.repeat(rows, Y.shape[0])  # the block row of each problem
    Y, off = np.tile(Y, (len(rows), 1)), (row * m)[:, None]
    step = max(1, min(_NEAREST_CHUNK_BYTES, block.a.nbytes) // (8 * m * d))
    near = np.empty(Y.shape[0], dtype=np.intp)
    for s in range(0, Y.shape[0], step):
        sq = block.a[row[s:s + step]]
        sq -= Y[s:s + step, None, :]
        sq *= sq  # in place, then the arithmetic of np.linalg.norm(axis=2)
        near[s:s + step] = np.argmin(np.sqrt(np.add.reduce(sq, axis=2)), axis=1)
    A, J, x = block.a.reshape(-1, d), block.jac.reshape(-1, d, d), stream.seeds[near]
    loc = _locate(box, x, off)
    r = _interp(loc, A) - Y
    nrm = np.linalg.norm(r, axis=1)
    for _ in range(max_iter):
        live = nrm > newton_tol
        if not live.any():
            break
        jq = _interp(loc, J)
        singular = np.abs(np.linalg.det(jq)) < 1e-14
        if singular.any():
            jq[singular] = np.eye(d)
        delta = np.linalg.solve(jq, r[..., None])[..., 0]
        delta[singular | ~live] = 0.0
        x = x - delta
        loc = _locate(box, x, off)
        r = _interp(loc, A) - Y
        nrm = np.linalg.norm(r, axis=1)
    corners = loc[0] - off
    blocked = block.folded[corners] & (block.tau[corners] <= block.t[row][:, None])
    inside = ((x >= box.lower) & (x <= box.upper)).all(axis=1)
    return x, loc, nrm <= newton_tol, ~blocked.any(axis=1), inside


def invert_char_map(stream: CharStream, t: float, y, newton_tol: float = 1e-10,
                    max_iter: int = 50) -> np.ndarray:
    """Preimage under the interpolated characteristic map at grid time t;
    the stream runs only as far as that row needs."""
    block, rows = next(stream.blocks([stream.index_of(t)]))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x, _, ok, pre, inside = _invert_batch(stream, block, rows, y[None, :], newton_tol, max_iter)
    if not pre[0]:
        raise CausticError(f"t={t} is at or beyond the fold for this region")
    if not inside[0]:
        raise InversionError("preimage left the seeded box; enlarge the seed grid")
    if not ok[0]:
        raise InversionError("Newton on the characteristic map did not converge")
    return x[0]


@dataclass(frozen=True)
class SolutionField:
    """u and Du assembled on evaluation points over a set of grid times.

    valid marks entries whose inversion converged from a pre-fold cell;
    sigma_proxy is the first time an evaluation point stops being valid
    (+inf when it never does). tau_map carries the per-seed fold times
    (clamped to the horizon for seeds that never fold).
    """

    points: np.ndarray
    times: np.ndarray
    u: np.ndarray
    du: np.ndarray
    valid: np.ndarray
    tau_map: np.ndarray
    sigma_proxy: np.ndarray


def assemble_solution_field(stream: CharStream, points, times=None,
                            newton_tol: float = 1e-10, max_iter: int = 50) -> SolutionField:
    """Assemble u, Du over many times, inverting per block of stream rows.

    The times (default: every grid time) are taken in increasing order.
    The requested rows of a block run one vectorised Newton (split where
    its lookups of jac would pass _FOLD_BLOCK_BYTES), each slice
    cold-started from its own nearest seed node: a slice's bits depend
    neither on the block size nor on the other slices requested. The
    stream runs to its end, so tau_map is final, in O(seeds x block)
    memory plus the outputs.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    want = None if times is None else [stream.index_of(float(t)) for t in times]
    times = np.asarray(stream.times if times is None else times, dtype=float)
    k, d, s = pts.shape[0], stream.box.dim, 0
    u, du = np.empty((times.size, k)), np.empty((times.size, k, d))
    valid = np.empty((times.size, k), dtype=bool)
    part = max(1, _FOLD_BLOCK_BYTES // (max(k, 1) * 16 * 2**d * d * d))  # rows per Newton call
    for blk, rows in stream.blocks(want):
        for sub in np.split(rows, range(part, rows.size, part)):
            x, loc, ok, pre, inside = _invert_batch(stream, blk, sub, pts, newton_tol, max_iter)
            e = s + sub.size
            u[s:e] = _interp(loc, blk.b.reshape(-1)).reshape(sub.size, k)
            du[s:e] = _interp(loc, blk.c.reshape(-1, d)).reshape(sub.size, k, d)
            valid[s:e] = (ok & pre & inside).reshape(sub.size, k)
            s = e
    u[~valid] = np.nan
    du[~valid] = np.nan
    # the time of each column's first invalid entry, from a sentinel row at +inf
    sigma = np.append(times, np.inf)[np.argmax(np.vstack([~valid, np.ones(k, bool)]), axis=0)]
    return SolutionField(points=pts, times=times, u=u, du=du, valid=valid,
                         tau_map=stream.tau.copy(), sigma_proxy=sigma)


def pde_residual(sol: SolutionField, H: HamiltonianSpec, X: SampledPath,
                 phi: SmoothMap, levels: int = 3) -> ResidualReport:
    """sup over valid (t, x) of |u - phi(x) - sum_j int F^j(r, x, u, Du) dX^j|.

    The solution must be sampled on the full driver grid; each dyadic
    level re-sums the integrand on its own sub-grid (left tags). One pass
    over _RESIDUAL_CHUNK_ROWS grid rows at a time evaluates the integrand
    and carries every level's running sum, so memory beyond the solution
    is O(chunk x points).
    """
    if not np.array_equal(sol.times, X.times):
        raise PathError("pde_residual needs the solution on the driver grid")
    X = dyadic_prefix(X, levels)
    n, k = X.n_points, sol.u.shape[1]
    pts = sol.points
    phi0 = phi.value_at(pts)[..., 0]
    always_valid = sol.valid[:n].all(axis=0)
    if not always_valid.any():
        raise CausticError("no evaluation point stays valid over the horizon")
    steps = dyadic_steps(n, levels)
    chunk = steps[0] * max(1, _RESIDUAL_CHUNK_ROWS // steps[0])  # each level starts its rows
    scale = -np.inf
    for s in range(0, sol.u.shape[0], chunk):  # NaN-ignoring max of |u|, as np.nanmax
        scale = max(scale, float(np.fmax.reduce(np.abs(sol.u[s:s + chunk]), axis=None)))
    W = {step: np.zeros(k) for step in steps}  # each level's sum up to the chunk's first row
    worst = dict.fromkeys(steps, -np.inf)

    def track(step, rows, left):
        resid = sol.u[rows] - phi0 - left  # NaN in a valid column propagates, as np.max
        worst[step] = np.maximum(worst[step], np.max(np.abs(resid[..., always_valid])))

    for s in range(0, n - 1, chunk):
        e = min(s + chunk, n - 1)
        G = np.empty((H.n_drivers, e - s, k))
        with np.errstate(invalid="ignore"):
            for j, comp in enumerate(H.components):
                for i in range(s, e):
                    G[j, i - s] = comp.value_at(X.times[i], pts, sol.u[i], sol.du[i])
        for step in steps:
            rows = np.arange(s, e, step)
            incr = np.einsum("jik,ij->ik", G[:, rows - s], X.values[rows + step] - X.values[rows])
            if s:
                incr[0] += W[step]  # the running sum continues bitwise, as one cumsum
            run = np.cumsum(incr, axis=0)
            track(step, rows, np.concatenate([W[step][None], run[:-1]]))
            W[step] = run[-1]
    for step in steps:
        track(step, n - 1, W[step])
    return residual_ladder(X, levels, lambda step, Xk: (Xk.mesh, float(worst[step]), scale))


def verify_inverse_flow_equation(stream: CharStream, H: HamiltonianSpec, X: SampledPath,
                                 points, levels: int = 3,
                                 newton_tol: float = 1e-10, max_iter: int = 50) -> ResidualReport:
    """Differenced a_t^{-1}(y) against its displayed driving equation.

    The inverse-point path and the integrand
    (D_x a_t)^{-1} F_p^j(t, y, b(a^{-1}(y)), c(a^{-1}(y))) are tabulated on
    the finest grid; each level compares increments against left sums on
    its sub-grid. Points must stay pre-fold over the whole horizon.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    X = dyadic_prefix(X, levels)
    n, (k, d) = X.n_points, pts.shape
    P = np.empty((n, k, stream.box.dim))
    SJ = np.empty((H.n_drivers, n, k, stream.box.dim))
    for blk, rows in stream.blocks(range(n)):
        x, loc, ok, pre, inside = _invert_batch(stream, blk, rows, pts, newton_tol, max_iter)
        if not pre.all():
            raise CausticError("inverse-flow check needs pre-fold points throughout")
        if not (ok & inside).all():
            raise InversionError("inverse-flow check lost coverage of a preimage")
        P[blk.index + rows] = x.reshape(rows.size, k, d)
        bq = _interp(loc, blk.b.reshape(-1)).reshape(rows.size, k)
        cq = _interp(loc, blk.c.reshape(-1, d)).reshape(rows.size, k, d)
        jinv = np.linalg.inv(_interp(loc, blk.jac.reshape(-1, d, d))).reshape(rows.size, k, d, d)
        for r, i in enumerate(rows):
            for j, comp in enumerate(H.components):
                fp = comp.dp_at(blk.t[i], pts, bq[r], cq[r])
                SJ[j, blk.index + i] = np.einsum("kde,ke->kd", jinv[r], fp)
    scale = float(np.max(np.abs(P)))

    def level(step, Xk):
        tsel = np.arange(0, n, step)
        incr = np.einsum("jikd,ij->ikd", SJ[:, tsel[:-1]], np.diff(Xk.values, axis=0))
        W = np.concatenate([np.zeros((1, k, stream.box.dim)), np.cumsum(incr, axis=0)])
        resid = (P[tsel] - P[0][None]) - W
        return Xk.mesh, float(np.max(np.linalg.norm(resid, axis=2))), scale

    return residual_ladder(X, levels, level)


def verify_compatibility(stream: CharStream, tol: float = 1e-3) -> CheckReport:
    """D_x b_t = c_t . D_x a_t across seeds and times (central differences).

    Reduced a block of stream rows at a time, in the stream's O(seeds x
    block) memory; the worst entry is the first maximum in (time, seed)
    order, or the first NaN, as np.argmax over the whole table. Seeds
    frozen next to live ones give an inf residual, without a warning.
    """
    box = stream.box
    worst, ti, si = -np.inf, 0, 0
    for blk, _ in stream.blocks():
        with np.errstate(over="ignore", invalid="ignore"):
            db = np.stack(_seed_gradient(box, blk.b.reshape((-1,) + box.counts)), axis=-1)
            rhs = np.einsum("rme,rmei->rmi", blk.c, blk.jac)
            resid = np.linalg.norm(db.reshape(rhs.shape) - rhs, axis=2)  # (B, m)
        j = int(np.argmax(resid))
        if not resid.flat[j] <= worst:
            worst, (r, si) = resid.flat[j], divmod(j, resid.shape[1])
            ti = blk.index + r
            if np.isnan(worst):
                break
    return CheckReport(
        max_residual=float(worst),
        arg_max_point=tuple(float(v) for v in stream.seeds[si]),
        passed=bool(worst <= tol),
        tol=float(tol),
        details={"time": float(stream.times[ti])},
    )
