"""The PDE inversion against a written-out reference of its semantics.

The reference below is the plain per-slice loop: one interpolation call
per nodal array, each doing its own cell search, a separate corner
lookup for the fold test, a dense nearest-seed search, and a per-column
fold-time loop. The library inverts a block of rows in one Newton, shares
one cell lookup per Newton iterate and vectorises the rest; these tests
pin that it computes the same bits, whatever the block size.
"""

import dataclasses
import itertools
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import youngflow.pde as pde
from youngflow import (
    BlowUpError,
    DeterministicSpec,
    FbmSpec,
    GridBox,
    HamiltonianSpec,
    PathError,
    SampledPath,
    ScalarHamiltonian,
    CharStream,
    SmoothMap,
    SolveConfig,
    assemble_solution_field,
    fold_times,
    gen_deterministic,
    gen_fbm,
    interp_nodal,
    pde_residual,
    verify_compatibility,
)
from youngflow.paths import dyadic_prefix, dyadic_steps
from youngflow.builtins import get_hamiltonian, get_initial_data
from youngflow.yde import _euler_core

# ------------------------------------------------------------- reference


def _ref_axes(box):
    return [np.linspace(box.lower[k], box.upper[k], box.counts[k]) for k in range(box.dim)]


def _ref_interp_nodal(box, nodal, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    idx, wts = [], []
    for ax, coords in enumerate(_ref_axes(box)):
        c = np.clip(np.searchsorted(coords, x[:, ax], side="right") - 1, 0, coords.size - 2)
        w = (x[:, ax] - coords[c]) / (coords[c + 1] - coords[c])
        idx.append(c)
        wts.append(w)
    out = 0.0
    for corner in itertools.product((0, 1), repeat=box.dim):
        weight = np.ones(x.shape[0])
        flat = np.zeros(x.shape[0], dtype=int)
        for ax, bit in enumerate(corner):
            weight = weight * (wts[ax] if bit else 1.0 - wts[ax])
            flat = flat * box.counts[ax] + idx[ax] + bit
        vals = nodal[flat]
        out = out + weight.reshape((-1,) + (1,) * (vals.ndim - 1)) * vals
    return out


def _ref_cell_corners(box, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    idx = [np.clip(np.searchsorted(coords, x[:, ax], side="right") - 1, 0, coords.size - 2)
           for ax, coords in enumerate(_ref_axes(box))]
    corners = []
    for corner in itertools.product((0, 1), repeat=box.dim):
        flat = np.zeros(x.shape[0], dtype=int)
        for ax, bit in enumerate(corner):
            flat = flat * box.counts[ax] + idx[ax] + bit
        corners.append(flat)
    return np.stack(corners, axis=-1)


def _ref_invert_batch(field, idx, targets, newton_tol, max_iter):
    Y = np.atleast_2d(np.asarray(targets, dtype=float))
    A = field.A[idx]
    J = field.jac[idx]
    d2 = np.linalg.norm(A[None, :, :] - Y[:, None, :], axis=2)
    x = field.seeds[np.argmin(d2, axis=1)].copy()
    r = _ref_interp_nodal(field.box, A, x) - Y
    for _ in range(max_iter):
        nrm = np.linalg.norm(r, axis=1)
        live = nrm > newton_tol
        if not live.any():
            break
        jq = _ref_interp_nodal(field.box, J, x)
        dets = np.linalg.det(jq)
        singular = np.abs(dets) < 1e-14
        jq[singular] = np.eye(field.box.dim)
        delta = np.linalg.solve(jq, r[..., None])[..., 0]
        delta[singular | ~live] = 0.0
        x = x - delta
        r = _ref_interp_nodal(field.box, A, x) - Y
    ok = np.linalg.norm(r, axis=1) <= newton_tol
    corners = _ref_cell_corners(field.box, x)
    blocked = field.folded[corners] & (field.tau[corners] <= field.times[idx])
    pre = ~blocked.any(axis=1)
    inside = ((x >= np.asarray(field.box.lower)) & (x <= np.asarray(field.box.upper))).all(axis=1)
    return x, ok, pre, inside


def _ref_assemble(field, pts, newton_tol=1e-10, max_iter=50, rows=None):
    """The per-slice loop over the grid rows (default all), each slice
    cold-started from its nearest seed: (u, du, valid, sigma_proxy)."""
    rows = list(range(field.times.size) if rows is None else rows)
    times = field.times[rows]
    k = pts.shape[0]
    u = np.empty((times.size, k))
    du = np.empty((times.size, k, field.box.dim))
    valid = np.empty((times.size, k), dtype=bool)
    for r, i in enumerate(rows):
        x, ok, pre, inside = _ref_invert_batch(field, i, pts, newton_tol, max_iter)
        v = ok & pre & inside
        u[r] = _ref_interp_nodal(field.box, field.B[i], x)
        du[r] = _ref_interp_nodal(field.box, field.C[i], x)
        u[r, ~v] = np.nan
        du[r, ~v] = np.nan
        valid[r] = v
    sigma = np.full(k, np.inf)
    for j in range(k):
        bad = np.nonzero(~valid[:, j])[0]
        if bad.size:
            sigma[j] = float(times[bad[0]])
    return u, du, valid, sigma


def _ref_first_zero_crossing(times, det):
    n, m = det.shape
    tau = np.full(m, float(times[-1]))
    folded = np.zeros(m, dtype=bool)
    sign_change = (det[:-1] > 0) & (det[1:] <= 0)
    for j in range(m):
        if det[0, j] <= 0:
            tau[j] = times[0]
            folded[j] = True
            continue
        hits = np.nonzero(sign_change[:, j])[0]
        if hits.size:
            i = hits[0]
            d0, d1 = det[i, j], det[i + 1, j]
            tau[j] = times[i] + d0 / (d0 - d1) * (times[i + 1] - times[i])
            folded[j] = True
    return tau, folded


def _ref_fd_vec(fn, z, h):
    z = np.asarray(z, dtype=float)
    cols = []
    for k in range(z.shape[-1]):
        e = np.zeros(z.shape[-1])
        e[k] = h
        cols.append((fn(z + e) - fn(z - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def _ref_char_core(H, X, A0, B0, C0):
    times = X.times
    n = times.size
    dX = np.diff(X.values, axis=0)
    a, b, c = (np.array(v, dtype=float) for v in (A0, B0, C0))
    m = a.shape[0]
    A, B, C = np.empty((n, m, a.shape[1])), np.empty((n, m)), np.empty((n, m, a.shape[1]))
    A[0], B[0], C[0] = a, b, c
    alive_idx = np.full(m, n - 1, dtype=int)
    alive = np.ones(m, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1):
            ts = times[i]
            da, db, dc = np.zeros_like(a), np.zeros_like(b), np.zeros_like(c)
            for j, comp in enumerate(H.components):
                fv, fp = comp.value_at(ts, a, b, c), comp.dp_at(ts, a, b, c)
                fx, fu = comp.dx_at(ts, a, b, c), comp.du_at(ts, a, b, c)
                da = da - fp * dX[i][j]
                db = db + (fv - np.einsum("md,md->m", fp, c)) * dX[i][j]
                dc = dc + (fx + fu[:, None] * c) * dX[i][j]
            a, b, c = a + da, b + db, c + dc
            bad = alive & ~(np.isfinite(a).all(axis=1) & np.isfinite(b)
                            & np.isfinite(c).all(axis=1))
            if np.any(bad):
                alive_idx[bad] = i
                alive &= ~bad
                a[bad], b[bad], c[bad] = A[i][bad], B[i][bad], C[i][bad]
            A[i + 1] = np.where(alive[:, None], a, A[i])
            B[i + 1] = np.where(alive, b, B[i])
            C[i + 1] = np.where(alive[:, None], c, C[i])
            a, b, c = A[i + 1].copy(), B[i + 1].copy(), C[i + 1].copy()
    return A, B, C, alive_idx


def _ref_compatibility(field):
    """(max residual, seed index, time index) of D_x b - c . D_x a over the
    whole (n, m) table, first maximum as np.argmax takes it."""
    n, box = field.times.size, field.box
    db = np.stack([np.gradient(field.B.reshape((n,) + box.counts), ax, axis=1 + k,
                               edge_order=2 if ax.size >= 3 else 1)
                   for k, ax in enumerate(_ref_axes(box))], axis=-1).reshape(n, -1, box.dim)
    resid = np.linalg.norm(db - np.einsum("nme,nmei->nmi", field.C, field.jac), axis=2)
    ti, si = np.unravel_index(int(np.argmax(resid)), resid.shape)
    return resid[ti, si], si, ti


def _ref_pde_residual_rows(sol, H, X, phi, levels):
    """The (mesh, residual, scale) rows of the ladder from whole-grid tables."""
    X = dyadic_prefix(X, levels)
    n, k = X.n_points, sol.u.shape[1]
    G = np.zeros((H.n_drivers, n, k))
    with np.errstate(invalid="ignore"):
        for j, comp in enumerate(H.components):
            for i in range(n):
                G[j, i] = comp.value_at(X.times[i], sol.points, sol.u[i], sol.du[i])
    phi0 = phi.value_at(sol.points)[..., 0]
    always_valid = sol.valid[:n].all(axis=0)
    scale = float(np.nanmax(np.abs(sol.u)))
    rows = []
    for step in dyadic_steps(n, levels):
        Xk = X.subsample(step)
        tsel = np.arange(0, n, step)
        incr = np.einsum("jik,ij->ik", G[:, tsel[:-1], :], np.diff(Xk.values, axis=0))
        W = np.concatenate([np.zeros((1, k)), np.cumsum(incr, axis=0)])
        resid = sol.u[tsel] - phi0[None, :] - W
        rows.append((Xk.mesh, float(np.max(np.abs(resid[:, always_valid]))), scale))
    return rows


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True)


def _history(H, X, phi, box, substeps=1):
    """Every row of a CharStream, kept for the references and checks that
    read whole histories: A, B, C, jac, det (n, m, ...) and the stream's
    final fold and blow-up state."""
    stream = CharStream(H, X, phi, box, substeps)
    blocks = [(blk.a.copy(), blk.b.copy(), blk.c.copy(), blk.jac.copy())
              for blk, _ in stream.blocks()]
    A, B, C, jac = (np.concatenate(v) for v in zip(*blocks))
    return SimpleNamespace(box=box, seeds=stream.seeds, times=stream.times, A=A, B=B, C=C,
                           jac=jac, det=np.linalg.det(jac), tau=stream.tau,
                           folded=stream.folded, alive_until=stream.alive_until)


def _fold_scan(times, blocks):
    """(tau, folded) of pde._FoldScan fed the consecutive seed Jacobian row blocks."""
    scan = pde._FoldScan(times)
    for block in blocks:
        scan.feed(block)
    return scan.tau, scan.folded


def _short_line(n):
    return gen_deterministic(DeterministicSpec(kind="linear", n_points=n, horizon=1.0))


# ---------------------------------------------------------------- lookup


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_locate_and_interp_match_reference_bitwise(dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        lower = rng.uniform(-2.0, 0.0, dim)
        upper = lower + rng.uniform(0.5, 3.0, dim)
        box = GridBox(tuple(lower), tuple(upper), tuple(rng.integers(2, 9, dim)))
        # inside, outside (edge cells extrapolate) and exactly on nodes
        x = rng.uniform(lower - 0.5, upper + 0.5, (40, dim))
        x[:5] = box.points()[rng.integers(0, box.n_points, 5)]
        loc = pde._locate(box, x)
        assert np.array_equal(loc[0], _ref_cell_corners(box, x))
        for shape in ((), (dim,), (dim, dim)):
            nodal = rng.normal(size=(box.n_points,) + shape)
            ref = _ref_interp_nodal(box, nodal, x)
            assert np.array_equal(pde._interp(loc, nodal), ref)
            assert np.array_equal(interp_nodal(box, nodal, x), ref)


def test_grid_box_axes_are_cached_and_read_only():
    box = GridBox((-1.0, 0.0), (1.0, 2.0), (5, 3))
    assert all(a is b for a, b in zip(box.axes(), box.axes()))
    for got, ref in zip(box.axes(), _ref_axes(box)):
        assert np.array_equal(got, ref)
        with pytest.raises(ValueError):
            got[0] = 7.0
    assert box == GridBox((-1.0, 0.0), (1.0, 2.0), (5, 3))


# -------------------------------------------------------------- assembly


def _folding_burgers():
    # Burgers with sin data folds once |X| grows past 1: 42 of 113 seeds
    # fold and 215 of 257 slices lose some evaluation points
    X = gen_fbm(FbmSpec(hurst=0.8, n_points=257, seed=3))
    X = SampledPath(X.times, 1.5 * X.values)
    H = get_hamiltonian("burgers-half-p-squared", 1)
    phi = get_initial_data("sin", 1)
    return H, X, phi, GridBox((-3.0,), (3.0,), (113,))


def test_folding_burgers_matches_reference_loop():
    field = _history(*_folding_burgers())
    pts = np.linspace(-2.5, 2.5, 21)[:, None]
    sol = assemble_solution_field(CharStream(*_folding_burgers()), pts)
    u, du, valid, sigma = _ref_assemble(field, pts)
    assert field.folded.sum() == 42
    assert 0.8 < valid.mean() < 0.9  # the case really folds
    assert _same(sol.u, u) and _same(sol.du, du)
    assert np.array_equal(sol.valid, valid)
    assert np.array_equal(sol.sigma_proxy, sigma)


def test_two_d_transport_field_closed_form_and_reference():
    # u(t, y) = sin(y1 + k dX_t) for transport-k with k = (0.7, 0.7)
    X = gen_fbm(FbmSpec(hurst=0.8, n_points=129, seed=4))
    H = get_hamiltonian("transport-k", 2, {"k": 0.7})
    phi = get_initial_data("sin", 2)
    box = GridBox((-3.0, -3.0), (3.0, 3.0), (121, 13))
    field = _history(H, X, phi, box)
    pts = GridBox((-1.0, -1.0), (1.0, 1.0), (5, 4)).points()
    sol = assemble_solution_field(CharStream(H, X, phi, box), pts)
    assert sol.valid.all()
    dx = X.values[:, 0] - X.values[0, 0]
    target = np.sin(pts[None, :, 0] + 0.7 * dx[:, None])
    assert np.max(np.abs(sol.u - target)) < 1e-3
    assert np.max(np.abs(sol.du[..., 0] - np.cos(pts[None, :, 0] + 0.7 * dx[:, None]))) < 1e-2
    assert np.max(np.abs(sol.du[..., 1])) < 1e-12
    u, du, valid, _ = _ref_assemble(field, pts)
    assert np.array_equal(sol.u, u) and np.array_equal(sol.du, du)


def test_invert_rejects_targets_of_the_wrong_width():
    stream = CharStream(get_hamiltonian("transport-k", 2), _short_line(5),
                        get_initial_data("sin", 2), GridBox((-2.0, -2.0), (2.0, 2.0), (9, 9)))
    with pytest.raises(PathError):
        pde._invert_batch(stream, *next(stream.blocks([2])), np.linspace(-1.0, 1.0, 5)[:, None],
                          1e-10, 50)
    with pytest.raises(PathError):
        assemble_solution_field(stream, np.zeros((3, 3)))


# ----------------------------------------------------- nearest-seed search


def test_chunked_nearest_search_gives_the_same_preimages(monkeypatch):
    X = gen_fbm(FbmSpec(hurst=0.8, n_points=33, seed=2))
    args = (get_hamiltonian("burgers-half-p-squared", 2), X, get_initial_data("gauss", 2),
            GridBox((-2.0, -2.0), (2.0, 2.0), (31, 29)))
    field = _history(*args)
    picked = [18, 20, 20]  # one Newton over three rows of a block, a repeat included
    stream = CharStream(*args)
    block = next(stream.blocks(picked))  # the fold state as far as the stream knows it
    targets = np.random.default_rng(5).uniform(-1.5, 1.5, (57, 2))
    whole = pde._invert_batch(stream, *block, targets, 1e-10, 50)
    for r, i in enumerate(picked):
        ref = _ref_invert_batch(field, i, targets, 1e-10, 50)
        part = slice(57 * r, 57 * (r + 1))
        assert np.array_equal(whole[0][part], ref[0])
        for k in (2, 3):
            assert np.array_equal(whole[k][part], ref[k - 1])
    one_row = field.A[20].nbytes
    for budget in (1, one_row, 7 * one_row + 1, 100 * one_row):  # 7 and 100 span rows
        monkeypatch.setattr(pde, "_NEAREST_CHUNK_BYTES", budget)
        got = pde._invert_batch(stream, *block, targets, 1e-10, 50)
        assert np.array_equal(got[0], whole[0])
        assert all(np.array_equal(g, w) for g, w in zip(got[2:], whole[2:]))


def test_cold_start_on_a_large_3d_box_stays_small():
    # 41^3 seeds against 11^3 targets: one dense (k, m, d) block is 2.2 GB,
    # and a block holds one row. 15^3 seeds against 7^3 targets over 39
    # points: the second block is full at 19 rows, and (19 k, m, d) is 0.5 GB.
    H = get_hamiltonian("transport-k", 3, {"k": 0.7})
    for seeds, targets, n_points, full in ((41, 11, 3, 1), (15, 7, 39, 19)):
        args = (H, _short_line(n_points), get_initial_data("sin", 3),
                GridBox((-2.0,) * 3, (2.0,) * 3, (seeds,) * 3))
        assert full in [rows.size for _, rows in CharStream(*args).blocks()]
        pts = GridBox((-1.0,) * 3, (1.0,) * 3, (targets,) * 3).points()
        tracemalloc.start()
        try:
            sol = assemble_solution_field(CharStream(*args), pts)  # the sweep's memory counts too
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.valid.all()
        assert peak < 64 * 2**20, seeds


# ---------------------------------------------------- characteristic core


def test_first_zero_crossing_matches_reference_loop():
    times = np.linspace(0.0, 2.0, 9)
    cols = [
        [1.0, 0.8, 0.5, 0.2, -0.1, -0.5, 0.3, 0.4, 0.5],  # crossing, then back up
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],    # no crossing
        [0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],    # det[0] == 0
        [-1.0, 0.5, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # det[0] < 0, later crossing
        [0.9, 0.7, 0.5, 0.3, 0.1, 0.05, 0.02, 0.01, 0.0],  # touches zero at the end
        [1.0, np.nan, 1.0, 0.5, -0.5, 1.0, 1.0, 1.0, 1.0],  # NaN before a crossing
    ]
    rng = np.random.default_rng(9)
    J = np.column_stack(cols + [rng.normal(0.3, 1.0, 9) for _ in range(40)])[..., None, None]
    tau, folded = _fold_scan(times, [J])
    with np.errstate(invalid="ignore"):  # the NaN entry
        ref_tau, ref_folded = _ref_first_zero_crossing(times, np.linalg.det(J))
    assert np.array_equal(tau, ref_tau) and np.array_equal(folded, ref_folded)
    assert folded[:6].tolist() == [True, False, True, True, True, True]


def test_char_core_blow_up_matches_reference():
    # F = u^2: db = u^2 dX blows up at X = 1/u0, so large seeds die early
    comp = ScalarHamiltonian(value=lambda t, x, u, p: u ** 2)
    H = HamiltonianSpec(state_dim=1, components=(comp,))
    X = _short_line(65)
    seeds = np.linspace(0.0, 4.0, 9)[:, None]
    u0 = np.linspace(0.0, 40.0, 9)
    phi = SmoothMap(in_dim=1, out_dim=1, value=lambda x: 10.0 * x,  # u0 and p0 = seeds
                    jacobian=lambda x: x[..., None])
    got = _history(H, X, phi, GridBox((0.0,), (4.0,), (9,)))
    assert np.array_equal(got.seeds, seeds)
    ref = _ref_char_core(H, X, seeds, u0, seeds.copy())
    assert 0 < np.sum(got.alive_until < X.times[-1]) < 9  # some seeds die, some live
    for g, r in zip((got.A, got.B, got.C), ref):
        assert np.array_equal(g, r)
    assert np.array_equal(got.alive_until, X.times[ref[3]])


def test_fd_partials_match_the_former_fd_vec():
    # no analytic partials: dx and dp come from central differences
    comp = ScalarHamiltonian(value=lambda t, x, u, p: np.sin(x[..., 0] * p[..., -1]) * u
                             + 0.5 * np.sum(p ** 2, axis=-1) * np.cos(t + x[..., -1]))
    assert comp.dx is comp.du is comp.dp is None
    rng = np.random.default_rng(3)
    x, p = rng.normal(size=(17, 3)), rng.normal(size=(17, 3))
    u = rng.normal(size=17)
    h = comp.fd_step
    ref_dx = _ref_fd_vec(lambda xx: comp.value_at(0.3, xx, u, p), x, h)
    ref_dp = _ref_fd_vec(lambda pp: comp.value_at(0.3, x, u, pp), p, h)
    assert np.array_equal(comp.dx_at(0.3, x, u, p), ref_dx)
    assert np.array_equal(comp.dp_at(0.3, x, u, p), ref_dp)


# ---------------------------------------------------- streamed fold scan


def _blow_up_hamiltonian(kinetic):
    # F = u^2 (+ p^2 / 2): b blows up where u0 X_t reaches 1; with the p
    # term c blows up too and a moves with it, so frozen seeds sit next
    # to live ones in the Jacobian
    comp = ScalarHamiltonian(value=lambda t, x, u, p: u ** 2 + kinetic * np.sum(p ** 2, axis=-1),
                             dx=lambda t, x, u, p: np.zeros_like(x),
                             du=lambda t, x, u, p: 2.0 * u,
                             dp=lambda t, x, u, p: 2.0 * kinetic * p)
    return HamiltonianSpec(state_dim=1, components=(comp,))


def _fold_cases():
    X1 = gen_fbm(FbmSpec(hurst=0.8, n_points=257, seed=3))
    X1 = SampledPath(X1.times, 1.5 * X1.values)
    X2 = gen_fbm(FbmSpec(hurst=0.8, n_points=129, seed=4))
    X2 = SampledPath(X2.times, 4.0 * X2.values)
    burgers = get_hamiltonian("burgers-half-p-squared", 1)
    line = _short_line(201)
    return {
        "burgers-1d": (burgers, X1, get_initial_data("sin", 1), GridBox((-3.0,), (3.0,), (113,)), 1),
        "burgers-2d": (get_hamiltonian("burgers-half-p-squared", 2), X2,
                       get_initial_data("gauss", 2), GridBox((-2.0, -2.0), (2.0, 2.0), (21, 19)), 1),
        "transport-3d": (get_hamiltonian("transport-k", 3, {"k": 0.7}), X2,
                         get_initial_data("sin", 3), GridBox((-2.0,) * 3, (2.0,) * 3, (9, 7, 8)), 1),
        "blow-up": (_blow_up_hamiltonian(0.0), SampledPath(line.times, 40.0 * line.values),
                    get_initial_data("sin", 1), GridBox((-3.0,), (3.0,), (61,)), 1),
        "blow-up-moving": (_blow_up_hamiltonian(0.5), SampledPath(line.times, 40.0 * line.values),
                           get_initial_data("sin", 1), GridBox((-3.0,), (3.0,), (61,)), 1),
        "substeps-2": (burgers, X1, get_initial_data("sin", 1), GridBox((-3.0,), (3.0,), (113,)), 2),
    }


@pytest.mark.parametrize("case", list(_fold_cases()))
def test_streamed_fold_scan_matches_char_field_bitwise(case, monkeypatch):
    H, X, phi, box, substeps = _fold_cases()[case]
    field = _history(H, X, phi, box, substeps)
    if case not in ("transport-3d", "blow-up"):
        assert 0 < field.folded.sum() < box.n_points  # the case really folds
    if case.startswith("blow-up"):
        assert 0 < np.sum(field.alive_until < X.times[-1]) < box.n_points
    assert np.array_equal(pde._seed_jacobian(box, field.A), field.jac, equal_nan=True)  # one call
    ref_tau, ref_folded = _ref_first_zero_crossing(X.times, field.det)
    assert _same(field.tau, ref_tau) and np.array_equal(field.folded, ref_folded)
    for rows in (pde._FOLD_BLOCK_ROWS, 1, 2, 3):
        monkeypatch.setattr(pde, "_FOLD_BLOCK_ROWS", rows)
        tau, folded = fold_times(H, X, phi, box, substeps=substeps)
        assert _same(tau, field.tau) and np.array_equal(folded, field.folded)
        blocked = _history(H, X, phi, box, substeps)
        assert np.array_equal(blocked.jac, field.jac, equal_nan=True)
        assert _same(blocked.tau, field.tau) and np.array_equal(blocked.folded, field.folded)


@pytest.mark.parametrize("rows", [64, 1, 5])
def test_a_non_finite_seed_jacobian_stops_the_stream(rows, monkeypatch):
    # a = x - cos(x) X_t overflows where |cos x| X_t > 1.8e308: those seeds
    # freeze near 1e308 next to live ones, and their differences overflow
    monkeypatch.setattr(pde, "_FOLD_BLOCK_ROWS", rows)
    line = _short_line(65)
    X = SampledPath(line.times, 1.5e308 * line.values)
    H, phi = get_hamiltonian("burgers-half-p-squared", 1), get_initial_data("sin", 1)
    box = GridBox((-3.0,), (3.0,), (41,))
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # no warning either
        with pytest.raises(BlowUpError) as info:
            fold_times(H, X, phi, box, substeps=2)
    first_bad = np.searchsorted(X.times, info.value.last_valid_time) + 1
    x, u, p = pde._seed_data(H, phi, box)
    (Y,), _ = _euler_core(pde._char_field(H), X, np.column_stack([x, u, p]), SolveConfig(2),
                          False)
    with np.errstate(over="ignore", invalid="ignore"):
        jac = pde._seed_jacobian(box, Y[..., :1])
    finite = np.isfinite(jac).reshape(X.n_points, -1).all(axis=1)
    assert finite[:first_bad].all() and not finite[first_bad]


def test_fold_scan_in_blocks_matches_the_whole_array():
    times = np.linspace(0.0, 2.0, 9)
    rng = np.random.default_rng(10)
    J = np.column_stack(
        [[1.0, 0.8, 0.5, 0.2, -0.1, -0.5, 0.3, 0.4, 0.5],  # crossing between rows 3 and 4
         [0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
         [1.0, np.nan, 1.0, 0.5, -0.5, 1.0, 1.0, 1.0, 1.0]]
        + [rng.normal(0.3, 1.0, 9) for _ in range(40)])[..., None, None]
    whole = _fold_scan(times, [J])
    with np.errstate(invalid="ignore"):  # the NaN entry
        ref = _ref_first_zero_crossing(times, np.linalg.det(J))
    assert np.array_equal(whole[0], ref[0]) and np.array_equal(whole[1], ref[1])
    assert whole[1][0] and times[3] < whole[0][0] < times[4]
    for rows in range(1, 10):  # rows = 4 puts column 0's crossing on a block boundary
        blocks = (J[s:s + rows] for s in range(0, J.shape[0], rows))
        got = _fold_scan(times, blocks)
        assert np.array_equal(got[0], whole[0]) and np.array_equal(got[1], whole[1])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lazy_fold_scan_matches_the_full_det_reference(d):
    # J = A diag(v, 1, ...) with det A > 0 gives det J the sign of v, and
    # an exact 0 where v is 0 (a zero column)
    times = np.linspace(0.0, 2.0, 13)
    rng = np.random.default_rng(20 + d)
    templates = [
        [-1.0] + [1.0] * 12,  # folds at row 0
        [0.0] + [1.0] * 12,  # an exact zero at row 0
        [1.0, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0],  # re-crossings
        [1.0, 1.0, 0.0, 1.0] + [1.0] * 9,  # an exact zero inside
        [1.0] * 13,  # never folds
        [1.0] * 12 + [0.0],  # touches zero at the last row
    ]
    v = np.column_stack(templates + [rng.normal(0.3, 1.0, 13) for _ in range(60)])
    A = np.eye(d) + 0.3 * rng.normal(size=(v.shape[1], d, d))
    A[np.linalg.det(A) < 0, 0] *= -1.0
    J = A @ (v[..., None, None] * np.eye(d)[0] + np.diag([0.0] + [1.0] * (d - 1)))
    det = np.linalg.det(J)
    assert np.array_equal(det == 0, v == 0) and np.array_equal(det > 0, v > 0)
    ref_tau, ref_folded = _ref_first_zero_crossing(times, det)
    assert 0 < ref_folded.sum() < v.shape[1]
    for rows in range(1, 10):
        blocks = (J[s:s + rows] for s in range(0, J.shape[0], rows))
        tau, folded = _fold_scan(times, blocks)
        assert np.array_equal(tau, ref_tau) and np.array_equal(folded, ref_folded)


def test_det_of_a_1x1_matrix_has_the_sign_of_its_entry():
    big = np.finfo(float).max
    a = np.array([0.0, -0.0, 5e-324, -5e-324, big, -big, np.inf, -np.inf])
    det = np.linalg.det(a[:, None, None])
    assert np.array_equal(det > 0, a > 0) and np.array_equal(det <= 0, a <= 0)
    assert np.array_equal(pde._det_signs(a[:, None, None]), a)


def test_fold_crossing_on_a_block_boundary(monkeypatch):
    # X_t = -t folds every seed at t = 1; on 129 points over [0, 1.5] the
    # first row with det <= 0 is row 86, so blocks of 43 rows put the
    # crossing pair (85, 86) across the boundary between blocks 2 and 3
    line = _short_line(129)
    X = SampledPath(1.5 * line.times, -1.5 * line.values)
    H = get_hamiltonian("burgers-half-p-squared", 1)
    phi = get_initial_data("neg-half-square", 1)
    box = GridBox((-2.0,), (2.0,), (41,))
    field = _history(H, X, phi, box)
    first = np.argmax(field.det[:, 5] <= 0)
    assert first == 86 and field.folded.all()
    monkeypatch.setattr(pde, "_FOLD_BLOCK_ROWS", 43)
    tau, folded = fold_times(H, X, phi, box)
    assert np.array_equal(tau, field.tau) and np.array_equal(folded, field.folded)


def test_fold_times_memory_does_not_grow_with_the_driver():
    H = get_hamiltonian("burgers-half-p-squared", 1)
    assert H.p_only  # the rows come by accumulate, in blocks
    phi = get_initial_data("sin", 1)
    box = GridBox((-3.0,), (3.0,), (401,))
    peaks = []
    for n in (2049, 8193):
        X = gen_fbm(FbmSpec(hurst=0.8, n_points=n, seed=6))
        tracemalloc.start()
        try:
            fold_times(H, X, phi, box)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the history of one of A, B, C at 8193 steps alone would be 26 MB
    assert abs(peaks[1] - peaks[0]) < 2**20


@pytest.mark.parametrize("case", ["burgers-1d", "burgers-2d", "blow-up-moving"])
def test_compatibility_check_matches_whole_table_reference(case):
    H, X, phi, box, substeps = _fold_cases()[case]
    field = _history(H, X, phi, box, substeps)
    with np.errstate(over="ignore"):  # frozen seeds next to live ones: the residual is inf
        worst, si, ti = _ref_compatibility(field)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the library computes it without a warning
        rep = verify_compatibility(CharStream(H, X, phi, box, substeps), tol=1e-3)
    assert rep.max_residual == worst and rep.passed == (worst <= 1e-3)
    assert rep.arg_max_point == tuple(field.seeds[si]) and rep.details["time"] == X.times[ti]


def test_compatibility_check_memory_does_not_grow_with_the_driver():
    H = get_hamiltonian("burgers-half-p-squared", 1)
    phi = get_initial_data("sin", 1)
    box = GridBox((-3.0,), (3.0,), (401,))
    peaks = []
    for n in (2049, 8193):
        X = gen_fbm(FbmSpec(hurst=0.8, n_points=n, seed=6))
        tracemalloc.start()
        try:
            rep = verify_compatibility(CharStream(H, X, phi, box))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.isfinite(rep.max_residual) and rep.details["time"] > 0.0
    # the (n, m) residual table alone would be 26 MB at 8193 steps
    assert abs(peaks[1] - peaks[0]) < 2**20


# ------------------------------------------------------------ row stream


def test_driver_width_must_match_the_component_count():
    X = _short_line(17)
    wide = SampledPath(X.times, np.column_stack([X.values, -X.values]))
    args = (get_hamiltonian("burgers-half-p-squared", 1), wide, get_initial_data("sin", 1),
            GridBox((-2.0,), (2.0,), (21,)))
    for build in (fold_times, CharStream):
        with pytest.raises(PathError, match="component count"):
            build(*args)


def _eval_points(box):
    # a box inside the seed box whose points fall between seed nodes
    lo, hi = np.asarray(box.lower), np.asarray(box.upper)
    mid, half = (lo + hi) / 2, 0.45 * (hi - lo)
    return GridBox(tuple(mid - half), tuple(mid + half), (9,) + (4,) * (box.dim - 1)).points()


@pytest.mark.parametrize("case", list(_fold_cases()))
def test_stream_assembly_matches_char_field_bitwise(case, monkeypatch):
    H, X, phi, box, substeps = _fold_cases()[case]
    field = _history(H, X, phi, box, substeps)
    pts = _eval_points(box)
    picked = np.r_[0:X.n_points:7, 5, 5, X.n_points - 1]  # sorted below, with a repeat
    picked.sort()
    slices = X.times[picked]
    want = {}
    for key, idx in (("all", None), ("slices", picked)):
        u, du, valid, sigma = _ref_assemble(field, pts, rows=idx)
        want[key] = SimpleNamespace(u=u, du=du, valid=valid, sigma_proxy=sigma,
                                    tau_map=field.tau)
    if field.folded.any():
        assert 0 < want["all"].valid.mean() < 1  # some slices are past the fold
    for rows in (64, 1, 2, 3):
        monkeypatch.setattr(pde, "_FOLD_BLOCK_ROWS", rows)
        for key, times in (("all", None), ("slices", slices)):
            got = assemble_solution_field(CharStream(H, X, phi, box, substeps), pts, times)
            for name in ("u", "du", "valid", "sigma_proxy", "tau_map"):
                assert _same(getattr(got, name), getattr(want[key], name)), (rows, key, name)


@pytest.mark.parametrize("case", list(_fold_cases()))
def test_slices_are_the_full_grid_rows_bitwise(case, monkeypatch):
    # every slice cold-starts on its own, so neither the other slices
    # requested nor how the rows fall into blocks and Newton calls changes
    # a bit; a 1 MiB cap splits transport-3d's blocks of 16 rows into
    # Newton calls of 6
    H, X, phi, box, substeps = _fold_cases()[case]
    pts = _eval_points(box)
    picked = np.sort(np.r_[0:X.n_points:5, 3, 3, X.n_points - 2])
    first = None
    for rows, cap in ((64, pde._FOLD_BLOCK_BYTES), (1, 2**20), (2, 2**20), (3, 2**20),
                      (64, 2**20)):
        monkeypatch.setattr(pde, "_FOLD_BLOCK_ROWS", rows)
        monkeypatch.setattr(pde, "_FOLD_BLOCK_BYTES", cap)
        full = assemble_solution_field(CharStream(H, X, phi, box, substeps), pts)
        got = assemble_solution_field(CharStream(H, X, phi, box, substeps), pts, X.times[picked])
        first = first or full
        for name in ("u", "du", "valid"):
            assert _same(getattr(got, name), getattr(full, name)[picked]), (rows, cap, name)
            assert _same(getattr(full, name), getattr(first, name)), (rows, cap, name)


def test_stream_takes_times_in_increasing_order_only():
    X = _short_line(9)
    stream = CharStream(get_hamiltonian("transport-k", 1), X, get_initial_data("sin", 1),
                        GridBox((-2.0,), (2.0,), (21,)))
    with pytest.raises(PathError, match="increasing"):
        assemble_solution_field(stream, np.zeros((2, 1)), X.times[[3, 2]])


def test_a_crossing_that_rounds_to_t_idx_blocks_slice_idx(monkeypatch):
    # det goes from 1 on row idx to -1e16 on row idx + 1, a crossing at
    # frac = 1e-16 of the step, so tau = 0.5 + 1e-16 * 2^-11 rounds to
    # t_idx = 0.5 exactly: slice idx is past the fold although its Newton
    # converges. The stream may only yield row idx once the scan has seen
    # row idx + 1.
    X = _short_line(2049)
    idx = 1024
    assert X.times[idx] == 0.5 and X.times[idx + 1] - X.times[idx] == 2.0 ** -11
    H = get_hamiltonian("transport-k", 1)
    phi = get_initial_data("sin", 1)
    box = GridBox((-3.0,), (3.0,), (61,))
    real = pde._seed_jacobian
    seen = [0]  # grid index of the next row the Jacobian is asked for

    def crossing_jacobian(box, A, out=None):
        jac = real(box, A, out)
        rows = np.arange(seen[0], seen[0] + A.shape[0])
        jac[rows == idx + 1] = -1e16
        seen[0] += A.shape[0]
        return jac

    monkeypatch.setattr(pde, "_seed_jacobian", crossing_jacobian)
    pts = np.linspace(-1.0, 1.0, 5)[:, None]
    times = X.times[idx - 1:idx + 2]
    for rows in (1, 5, 25, 41):  # each divides idx + 1 = 1025: row idx closes a block
        monkeypatch.setattr(pde, "_FOLD_BLOCK_ROWS", rows)
        seen[0] = 0
        field = _history(H, X, phi, box)
        assert (field.tau == X.times[idx]).all() and field.folded.all()
        seen[0] = 0
        stream = CharStream(H, X, phi, box)
        _, _, ok, pre, _ = pde._invert_batch(stream, *next(stream.blocks([idx])), pts, 1e-10, 50)
        assert ok.all() and not pre.any()
        u, du, valid, sigma = _ref_assemble(field, pts, rows=range(idx - 1, idx + 2))
        seen[0] = 0
        streamed = assemble_solution_field(CharStream(H, X, phi, box), pts, times)
        for sol in (SimpleNamespace(valid=valid, sigma_proxy=sigma), streamed):
            assert sol.valid.tolist() == [[True] * 5, [False] * 5, [False] * 5]
            assert np.array_equal(sol.sigma_proxy, np.full(5, 0.5))
        for got, ref in ((streamed.u, u), (streamed.du, du), (streamed.tau_map, field.tau)):
            assert _same(got, ref)


def test_streamed_solve_and_residual_memory_grows_only_with_the_outputs():
    H = get_hamiltonian("transport-k", 1, {"k": 0.7})
    phi = get_initial_data("sin", 1)
    box = GridBox((-4.0,), (4.0,), (401,))
    pts = np.linspace(-1.0, 1.0, 21)[:, None]
    peaks, outputs = {}, {}
    for n in (2049, 8193):
        X = gen_fbm(FbmSpec(hurst=0.8, n_points=n, seed=6))
        for call, times in (("solve", X.times[::256]), ("residual", None)):
            tracemalloc.start()
            try:
                sol = assemble_solution_field(CharStream(H, X, phi, box), pts, times)
                if call == "residual":
                    assert pde_residual(sol, H, X, phi).converged
                peaks[call, n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sol.valid.all()
            outputs[call, n] = sum(a.nbytes for a in (sol.u, sol.du, sol.valid))
    # the history of one of A, B, C at 8193 steps alone would be 26 MB
    for call in ("solve", "residual"):
        grown = peaks[call, 8193] - peaks[call, 2049]
        assert grown <= outputs[call, 8193] - outputs[call, 2049] + 2**20, call


def _residual_cases():
    X = gen_fbm(FbmSpec(hurst=0.8, n_points=257, seed=5))
    transport = get_hamiltonian("transport-k", 1, {"k": 0.7})
    sin = get_initial_data("sin", 1)
    box = GridBox((-3.0,), (3.0,), (121,))
    X2 = gen_fbm(FbmSpec(hurst=0.8, n_points=129, seed=6))
    two = HamiltonianSpec(state_dim=1, components=(
        transport.components[0], get_hamiltonian("burgers-half-p-squared", 1).components[0]))
    X2 = SampledPath(X2.times, np.column_stack([X2.values, 0.3 * X.values[:129]]))
    cut = gen_fbm(FbmSpec(hurst=0.8, n_points=1024, seed=7))  # 1023 intervals: a prefix
    fold = _folding_burgers()
    return {
        "transport": (transport, X, sin, CharStream(transport, X, sin, box)),
        "two-drivers": (two, X2, sin, CharStream(two, X2, sin, box)),
        "prefix": (transport, cut, sin, CharStream(transport, cut, sin, box)),
        "folding": (*fold[:3], CharStream(*fold)),
    }


@pytest.mark.parametrize("case", list(_residual_cases()))
def test_chunked_residual_ladder_matches_whole_grid_tables(case, monkeypatch):
    H, X, phi, field = _residual_cases()[case]
    sol = assemble_solution_field(field, np.linspace(-2.5, 2.5, 21)[:, None])
    if case == "folding":
        assert 0 < sol.valid.all(axis=0).sum() < 21 and not sol.valid.all(axis=1)[-1]
    real = pde.residual_ladder
    got = []

    def spy(paths, levels, level_fn):
        return real(paths, levels, lambda *args: got.append(level_fn(*args)) or got[-1])

    monkeypatch.setattr(pde, "residual_ladder", spy)
    for levels in (1, 3, 4):
        want = _ref_pde_residual_rows(sol, H, X, phi, levels)
        for rows in (256, 1, 6, 16):  # chunks of 2^(levels-1) rows and up
            monkeypatch.setattr(pde, "_RESIDUAL_CHUNK_ROWS", rows)
            got.clear()
            pde_residual(sol, H, X, phi, levels=levels)
            assert repr(got) == repr(want), (levels, rows)


def test_large_seed_boxes_get_fewer_rows_per_block():
    # 25^3 seeds: 64 rows of A, B, C and jac alone would be 128 MB
    H = get_hamiltonian("transport-k", 3, {"k": 0.7})
    phi = get_initial_data("sin", 3)
    box = GridBox((-2.0,) * 3, (2.0,) * 3, (25,) * 3)
    X = gen_fbm(FbmSpec(hurst=0.8, n_points=65, seed=8))
    tracemalloc.start()
    try:
        tau, folded = fold_times(H, X, phi, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
    stream = CharStream(H, X, phi, box)
    det = np.concatenate([np.linalg.det(blk.jac) for blk, _ in stream.blocks()])
    ref_tau, ref_folded = _ref_first_zero_crossing(X.times, det)
    assert _same(tau, ref_tau) and np.array_equal(folded, ref_folded)


# ------------------------------------------- p-only Hamiltonians by accumulate


def _bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()  # NaN payloads and -0.0 too


def _poly_hamiltonian(rng, d, n_drivers):
    # per driver F(p) = k . p + q |p|^2 / 2 + r sum(p^3) / 3, declared p-only
    comps = []
    for _ in range(n_drivers):
        k, q, r = rng.uniform(-1.0, 1.0, d), rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3)
        comps.append(ScalarHamiltonian(
            value=lambda t, x, u, p, k=k, q=q, r=r: (p @ k + q * 0.5 * np.sum(p ** 2, axis=-1)
                                                     + r * np.sum(p ** 3, axis=-1) / 3),
            dx=lambda t, x, u, p: np.zeros(x.shape),
            du=lambda t, x, u, p: np.zeros(u.shape),
            dp=lambda t, x, u, p, k=k, q=q, r=r: k + q * p + r * p ** 2))
    return HamiltonianSpec(state_dim=d, components=tuple(comps), p_only=True)


def _signed_zero_seeds(monkeypatch):
    # the box's zero coordinates, and the zero slopes phi gives there, become
    # -0.0 (a GridBox makes only +0.0): the sweep's first step turns c0 = -0.0
    # into +0.0
    real = pde._seed_data
    monkeypatch.setattr(pde, "_seed_data", lambda H, phi, box: tuple(
        np.where(v == 0, -0.0, v) for v in real(H, phi, box)))


def _outcome(H, X, phi, box, sub):
    """The rows and final state of a CharStream, or its BlowUpError time."""
    try:
        return _history(H, X, phi, box, sub)
    except BlowUpError as exc:
        return exc.last_valid_time


def _assert_routes_agree(H, X, phi, box, sub):
    """The accumulate route of a p_only H against yde's sweep on its _char_field,
    both as the stream without the flag and as _euler_core over the whole grid."""
    assert H.p_only
    got = _outcome(H, X, phi, box, sub)
    want = _outcome(dataclasses.replace(H, p_only=False), X, phi, box, sub)
    if isinstance(want, float):
        assert got == want
        return got
    for name in ("A", "B", "C", "jac", "tau", "folded", "alive_until"):
        assert _bits(getattr(got, name), getattr(want, name)), name
    x, u, p = pde._seed_data(H, phi, box)
    (Y,), alive_idx = _euler_core(pde._char_field(H), X, np.column_stack([x, u, p]),
                                  SolveConfig(sub), False)
    d = H.state_dim
    for g, r in ((got.A, Y[..., :d]), (got.B, Y[..., d]), (got.C, Y[..., d + 1:])):
        assert _bits(g, np.ascontiguousarray(r))
    assert _bits(got.alive_until, X.times[alive_idx])
    return got


@pytest.mark.parametrize("sub", [1, 2, 3])
@pytest.mark.parametrize("n_drivers", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_p_only_accumulate_matches_the_euler_sweep_bitwise(d, n_drivers, sub, monkeypatch):
    rng = np.random.default_rng([d, n_drivers, sub])
    H = _poly_hamiltonian(rng, d, n_drivers)
    X = SampledPath(np.linspace(0.0, 1.0, 41), np.cumsum(rng.normal(0.0, 0.3, (41, n_drivers)),
                                                         axis=0))
    slope = rng.uniform(0.5, 1.5)
    phi = SmoothMap(in_dim=d, out_dim=1,
                    value=lambda x: (-0.5 * slope * np.sum(x ** 2, axis=-1))[..., None],
                    jacobian=lambda x: (-slope * x)[..., None, :])  # -0.0 at x = 0
    box = GridBox((-2.0,) * d, (2.0,) * d, ((17,), (9, 7), (5, 5, 3))[d - 1])
    _signed_zero_seeds(monkeypatch)
    x, u, p = pde._seed_data(H, phi, box)
    zero = np.all(x == 0, axis=1)
    assert zero.sum() == 1 and np.signbit(x[zero]).all() and np.signbit(p[zero]).all()
    for rows in (64, 1, 5):
        monkeypatch.setattr(pde, "_FOLD_BLOCK_ROWS", rows)
        got = _assert_routes_agree(H, X, phi, box, sub)
        assert not np.signbit(got.C[1:, zero]).any()  # the sweep's c0 + 0.0


def _overflow_cases():
    line = _short_line(65)
    return {
        # c0 = 1e154 at x = 0.5: b = u0 - c0^2 X_t / 2 overflows inside a
        # block, where X_t = 8 t passes 3.6; a and c stay finite, so the
        # stream runs on with that seed frozen
        "b-overflows": (get_hamiltonian("burgers-half-p-squared", 1),
                        SampledPath(line.times, 8.0 * line.values),
                        SmoothMap(in_dim=1, out_dim=1, value=np.sin,
                                  jacobian=lambda x: np.where(x == 0.5, 1e154,
                                                              np.cos(x))[..., None]),
                        GridBox((-3.0,), (3.0,), (13,))),
        # a = x - 1e308 X_t overflows on every seed: the stream stops
        "a-overflows": (get_hamiltonian("transport-k", 1, {"k": 1e308}),
                        SampledPath(line.times, 3.0 * line.values), get_initial_data("sin", 1),
                        GridBox((-3.0,), (3.0,), (41,))),
    }


@pytest.mark.parametrize("sub", [1, 2, 3])
@pytest.mark.parametrize("case", list(_overflow_cases()))
def test_p_only_overflow_falls_back_to_the_sweep(case, sub, monkeypatch):
    H, X, phi, box = _overflow_cases()[case]
    real, calls = pde._euler_sweep, []
    monkeypatch.setattr(pde, "_euler_sweep", lambda *a: calls.append(a[1].n_points) or real(*a))
    for rows in (64, 1, 5):
        monkeypatch.setattr(pde, "_FOLD_BLOCK_ROWS", rows)
        calls.clear()
        with np.errstate(over="raise", invalid="raise"):  # no warning either
            got = _outcome(H, X, phi, box, sub)
        swept = list(calls)
        _assert_routes_agree(H, X, phi, box, sub)
        if case == "b-overflows":
            assert np.sum(got.alive_until < X.times[-1]) == 1
            # the block holding the first non-finite row reruns from its first state
            first = (np.searchsorted(X.times, got.alive_until.min()) + 1) // rows * rows
            assert 0 < first < X.n_points - 1 or rows == 64
            # with substeps the stream is the sweep from the start
            assert swept == [X.n_points - max(first - 1, 0) if sub == 1 else X.n_points]
        else:  # the seed Jacobian may overflow first, before any row does
            assert isinstance(got, float) and got < X.times[-1] and len(swept) <= 1


def test_p_only_is_declared_by_the_builtins_and_routes_the_stream(monkeypatch):
    real, calls = pde._euler_sweep, []
    monkeypatch.setattr(pde, "_euler_sweep", lambda *a: calls.append(1) or real(*a))
    X, phi, box = _short_line(33), get_initial_data("sin", 1), GridBox((-3.0,), (3.0,), (21,))
    for H, sweeps in ((get_hamiltonian("transport-k", 1), 0),
                      (get_hamiltonian("burgers-half-p-squared", 1), 0),
                      (_blow_up_hamiltonian(0.5), 1)):
        assert H.p_only == (sweeps == 0)
        for sub, want in ((1, sweeps), (2, 1)):  # with substeps, always the sweep
            calls.clear()
            fold_times(H, X, phi, box, substeps=sub)
            assert len(calls) == want
    comp = get_hamiltonian("transport-k", 1).components[0]
    assert not HamiltonianSpec(state_dim=1, components=(comp,)).p_only  # nothing is inferred
    for flag in (1, "yes", np.True_, None):
        with pytest.raises(PathError, match="p_only must be a bool"):
            HamiltonianSpec(state_dim=1, components=(comp,), p_only=flag)
