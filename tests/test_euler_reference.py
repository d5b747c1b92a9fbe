"""The Euler sweeps against a written-out reference of their arithmetic.

The reference below spells out, loop by loop, how every Euler sweep of
the package splits a driver interval into substeps: substep s of
interval i starts at t_i + (t_{i+1} - t_i) (s / sub) and advances the
driver by (X_{i+1} - X_i) / sub. The library computes those substeps
once per driver and shares one kernel between the flow solver, the
composition routes and the characteristic core; these tests pin that it
computes the same bits, for one substep and for several.
"""

import json
import tracemalloc

import numpy as np
import pytest

import youngflow.cli as cli
import youngflow.composition as composition
import youngflow.pde as pde
import youngflow.symmetry as symmetry
from youngflow import (
    CharStream,
    DeterministicSpec,
    FbmSpec,
    FieldSpec,
    GridBox,
    HamiltonianSpec,
    SampledPath,
    ScalarHamiltonian,
    SmoothMap,
    SolveConfig,
    compose_flows,
    gen_deterministic,
    gen_fbm,
    make_residual_report,
    seed_from_initial_data,
    solve_flow,
    solve_yde,
)
from youngflow.builtins import get_field, get_point_map
from youngflow.io import write_flow_map, write_path_csv
from youngflow.symmetry import check_symmetry_trajectory
from youngflow.yde import BlowUpError

# ------------------------------------------------------------- reference


def _ref_apply(F, dx):
    return np.einsum("mdn,n->md", F, dx)


def _ref_euler(field, X, y0s, sub, with_jacobian=True):
    """States, Jacobians and last alive index, rows frozen once non-finite."""
    times = X.times
    n = times.size
    dX = np.diff(X.values, axis=0)
    y = np.array(np.atleast_2d(y0s), dtype=float)
    m, d = y.shape
    states = np.empty((n, m, d))
    jacs = np.empty((n, m, d, d))
    states[0] = y
    jacs[0] = jac = np.broadcast_to(np.eye(d), (m, d, d)).copy()
    alive_idx = np.full(m, n - 1, dtype=int)
    alive = np.ones(m, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1):
            dt = times[i + 1] - times[i]
            dxs = dX[i] / sub
            for s in range(sub):
                ts = times[i] + dt * (s / sub)
                f = field.value_at(ts, y)
                if with_jacobian:
                    lin = np.einsum("mdnk,n->mdk", field.jacobian_at(ts, y), dxs)
                    jac = jac + np.einsum("mde,mek->mdk", lin, jac)
                y = y + _ref_apply(f, dxs)
            bad = alive & ~np.isfinite(y).all(axis=1)
            if with_jacobian:
                bad |= alive & ~np.isfinite(jac).all(axis=(1, 2))
            alive_idx[bad] = i
            alive &= ~bad
            states[i + 1] = np.where(alive[:, None], y, states[i])
            jacs[i + 1] = np.where(alive[:, None, None], jac, jacs[i])
            y, jac = states[i + 1].copy(), jacs[i + 1].copy()
    return states, jacs, alive_idx


def _ref_fresh_diagonal(g, X, seeds, sub, with_jacobian=False):
    """Y_{t_i}(seeds[i]) by one fresh solve per row, cut at t_i, and
    D_x Y_{t_i}(seeds[i]) if asked."""
    seeds = np.asarray(seeds, dtype=float)
    out, jacs = seeds.copy(), np.empty(seeds.shape + seeds.shape[-1:])
    jacs[0] = np.eye(seeds.shape[1])
    for i in range(1, len(seeds)):
        cut = SampledPath(X.times[: i + 1], X.values[: i + 1])
        states, jac, _ = _ref_euler(g, cut, seeds[i][None, :], sub, with_jacobian)
        out[i], jacs[i] = states[-1, 0], jac[-1, 0]
    return (out, jacs) if with_jacobian else out


def _ref_direct(f, U, g, X, y0, sub, newton_tol=1e-10, max_sweeps=50):
    """Euler for dZ = g(Z) dX + (Y)_* f(Z) dU by waveform relaxation.

    Every row i < n-1 carries a preimage x_i of z_i. A sweep runs from the
    first unsettled row in time order: where |Y_{t_i}(x_i) - z_i| exceeds
    newton_tol, x_i takes one Newton step with J_i = D_x Y_{t_i}(x_i); then
    z steps with the pushforward J_i f(t_i, x_i). After the sweep, row i is
    settled when Y_{t_i}(x_i) is within newton_tol of z_i at the new x_i and
    the Jacobian there is bitwise the J_i its step used.
    """
    times = X.times
    n = times.size
    dX, dU = np.diff(X.values, axis=0), np.diff(U.values, axis=0)
    xs = np.tile(y0, (n - 1, 1))
    zs = np.empty((n, y0.size))
    zs[0] = y0
    used = np.empty((n - 1, y0.size, y0.size))
    W, J = _ref_fresh_diagonal(g, X, xs, sub, with_jacobian=True)
    start = 0
    for _ in range(max_sweeps):
        for i in range(start, n - 1):
            r = W[i] - zs[i]
            if np.linalg.norm(r) > newton_tol:
                xs[i] = xs[i] - np.linalg.solve(J[i], r)
            used[i] = J[i]
            pf = (J[i] @ f.value_at(times[i], xs[i]))[None, :, :]
            z = zs[i][None, :]
            dt = times[i + 1] - times[i]
            for s in range(sub):
                ts = times[i] + dt * (s / sub)
                z = z + _ref_apply(g.value_at(ts, z), dX[i] / sub) + _ref_apply(pf, dU[i] / sub)
            zs[i + 1] = z[0]
        W, J = _ref_fresh_diagonal(g, X, xs, sub, with_jacobian=True)
        unsettled = [np.linalg.norm(W[i] - zs[i]) > newton_tol
                     or not np.array_equal(J[i], used[i]) for i in range(n - 1)]
        if not any(unsettled):
            return zs
        start = unsettled.index(True)
    raise AssertionError("the reference relaxation did not settle")


def _ref_char_core(H, X, A0, B0, C0, sub):
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
            dt = times[i + 1] - times[i]
            dxs = dX[i] / sub
            for s in range(sub):
                ts = times[i] + dt * (s / sub)
                da, db, dc = np.zeros_like(a), np.zeros_like(b), np.zeros_like(c)
                for j, comp in enumerate(H.components):
                    fv, fp = comp.value_at(ts, a, b, c), comp.dp_at(ts, a, b, c)
                    fx, fu = comp.dx_at(ts, a, b, c), comp.du_at(ts, a, b, c)
                    da = da - fp * dxs[j]
                    db = db + (fv - np.einsum("md,md->m", fp, c)) * dxs[j]
                    dc = dc + (fx + fu[:, None] * c) * dxs[j]
                a, b, c = a + da, b + db, c + dc
            bad = alive & ~(np.isfinite(a).all(axis=1) & np.isfinite(b)
                            & np.isfinite(c).all(axis=1))
            alive_idx[bad] = i
            alive &= ~bad
            A[i + 1] = np.where(alive[:, None], a, A[i])
            B[i + 1] = np.where(alive, b, B[i])
            C[i + 1] = np.where(alive[:, None], c, C[i])
            a, b, c = A[i + 1].copy(), B[i + 1].copy(), C[i + 1].copy()
    return A, B, C, alive_idx


# ---------------------------------------------------------------- inputs


def _timed_field():
    """A nonlinear, time-dependent field on R^2 with a 2-d driver."""

    def value(t, y):
        y0, y1 = y[..., 0], y[..., 1]
        return np.stack([np.stack([np.cos(3 * t) * y0, y1 ** 2], axis=-1),
                         np.stack([np.sin(y0) + t, -y0 * y1], axis=-1)], axis=-2)

    def jacobian(t, y):
        y0, y1 = y[..., 0], y[..., 1]
        zero, c3 = np.zeros_like(y0), np.full_like(y0, np.cos(3 * t))
        rows = [[[c3, zero], [zero, 2 * y1]],
                [[np.cos(y0), zero], [-y1, -y0]]]
        return np.stack([np.stack([np.stack(col, axis=-1) for col in row], axis=-2)
                         for row in rows], axis=-3)

    return FieldSpec(in_dim=2, driver_dim=2, value=value, jacobian=jacobian)


def _fbm2(n, seed):
    """A 2-d driver on an uneven grid, so substep times round as they would."""
    a = gen_fbm(FbmSpec(hurst=0.75, n_points=n, seed=seed))
    b = gen_fbm(FbmSpec(hurst=0.75, n_points=n, seed=seed + 100))
    return SampledPath(0.7 * a.times ** 1.5, np.column_stack([a.values[:, 0], b.values[:, 0]]))


def _cfg(sub):
    return SolveConfig(substeps_per_interval=sub)


SUBSTEPS = [1, 3]


# ------------------------------------------------------------- flow solve


@pytest.mark.parametrize("sub", SUBSTEPS)
def test_solve_flow_matches_reference(sub):
    X = _fbm2(129, 3)
    pts = np.random.default_rng(1).uniform(-0.8, 0.8, (7, 2))
    flow = solve_flow(_timed_field(), X, pts, _cfg(sub))
    states, jacs, alive = _ref_euler(_timed_field(), X, pts, sub)
    assert np.array_equal(flow.states, states)
    assert np.array_equal(flow.jacobians, jacs)
    assert np.array_equal(flow.alive_until, X.times[alive])
    Y = solve_yde(_timed_field(), X, pts[2], _cfg(sub))
    assert np.array_equal(Y.values, _ref_euler(_timed_field(), X, pts[2], sub, False)[0][:, 0])
    assert np.array_equal(solve_flow(_timed_field(), X, pts[3:5], _cfg(sub)).states,
                          states[:, 3:5])


@pytest.mark.parametrize("sub", SUBSTEPS)
def test_blown_up_rows_freeze_like_reference(sub):
    # dY = Y^2 dX with X_t = 4t: the row from 2 dies near t = 1/8, the
    # row from 1 near t = 1/4, the others live to the horizon
    X = gen_deterministic(DeterministicSpec(kind="linear", n_points=257))
    strong = SampledPath(X.times, 4.0 * X.values)
    pts = np.array([[2.0], [-1.0], [0.1], [1.0]])
    flow = solve_flow(get_field("square", dim=1), strong, pts, _cfg(sub))
    states, jacs, alive = _ref_euler(get_field("square", dim=1), strong, pts, sub)
    assert alive[0] < alive[3] < alive[1] == alive[2] == X.n_points - 1
    assert np.array_equal(flow.states, states)
    assert np.array_equal(flow.jacobians, jacs)
    assert np.array_equal(flow.alive_until, X.times[alive])


# -------------------------------------------------------------- row sweep
#
# Each consumer of yde._euler_sweep keeps only the rows it reads; what it
# keeps must be bitwise what the full history holds.


def _dying_driver():
    # dY = Y^2 dX with X_t = 4t: a row from y0 > 1/4 blows up near t = 1/(4 y0)
    X = gen_deterministic(DeterministicSpec(kind="linear", n_points=257))
    return SampledPath(X.times, 4.0 * X.values)


@pytest.mark.parametrize("sub", SUBSTEPS)
def test_flow_cli_writes_the_full_history_flow_bitwise(sub, tmp_path):
    strong = _dying_driver()
    write_path_csv(tmp_path / "strong.csv", strong)
    assert cli.main(["flow", "--field", "square", "--dim", "1", "--driver",
                     str(tmp_path / "strong.csv"), "--grid=-1:2:7", "--substeps", str(sub),
                     "-o", str(tmp_path / "cli")]) == 0
    index = json.loads((tmp_path / "cli" / "flow_index.json").read_text())
    flow = solve_flow(get_field("square", dim=1), strong, index["initial_points"], _cfg(sub))
    assert 0 < np.sum(flow.alive_until < strong.times[-1]) < 6
    write_flow_map(tmp_path / "lib", flow)
    for name in index["files"]:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
    lib_index = json.loads((tmp_path / "lib" / "flow_index.json").read_text())
    for doc in (index, lib_index):
        doc["meta"].pop("created")
    assert index == lib_index
    light = solve_flow(get_field("square", dim=1), strong, index["initial_points"], _cfg(sub),
                       jacobian_history=False)
    assert light.jacobians is None
    assert np.array_equal(light.states, flow.states)
    assert np.array_equal(light.alive_until, flow.alive_until)


@pytest.mark.parametrize("sub", SUBSTEPS)
@pytest.mark.parametrize("s", [1.0, -0.4])
def test_numeric_flow_is_the_last_row_of_solve_flow(sub, s):
    g = get_field("square", dim=2)
    pts = np.random.default_rng(5).uniform(-1.0, 2.5, (9, 2))  # rows above 1 die at s = 1
    phi = symmetry._numeric_flow(g, s, 64, _cfg(sub))
    n = int(np.ceil(64 * abs(s))) + 1
    driver = SampledPath(np.linspace(0.0, abs(s), n), np.linspace(0.0, s, n))
    flow = solve_flow(g, driver, pts, _cfg(sub))
    live = flow.alive_until == abs(s)
    if s > 0:
        assert 0 < np.sum(~live) < 9
    # the value sweep carries no Jacobian, so a dying row lives until its
    # state, not its Jacobian, turns non-finite
    states = _ref_euler(g, driver, pts, sub, with_jacobian=False)[0]
    assert np.array_equal(phi.value_at(pts), states[-1])
    assert np.array_equal(phi.value_at(pts)[live], flow.states[-1, live])
    assert np.array_equal(phi.jacobian_at(pts), flow.jacobians[-1])
    k = int(np.argmax(live))  # one point in, one point out
    assert np.array_equal(phi.value_at(pts[k]), flow.states[-1, k])
    assert np.array_equal(phi.jacobian_at(pts[k]), flow.jacobians[-1, k])


def test_numeric_flow_memory_does_not_grow_with_the_steps():
    # with the whole Euler history, 8192 steps of 64 points and their
    # Jacobians would hold about 22 MB more than 1024 steps
    g = get_field("rotation", dim=2)
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, (64, 2))
    peaks = []
    for steps in (1024, 8192):
        phi = symmetry._numeric_flow(g, 1.0, steps, None)
        tracemalloc.start()
        try:
            phi.value_at(pts)
            phi.jacobian_at(pts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.5 * 2**20, peaks


# ------------------------------------------------------------ composition


@pytest.mark.parametrize("sub", SUBSTEPS)
def test_diagonal_flow_rows_are_fresh_solves(sub):
    X = _fbm2(65, 5)
    seeds = np.random.default_rng(2).uniform(-0.7, 0.7, (65, 2))
    got, = composition._diagonal_flow(_timed_field(), X, seeds, _cfg(sub), with_jacobian=False)
    assert np.array_equal(got, _ref_fresh_diagonal(_timed_field(), X, seeds, sub))
    for i in (1, 17, 64):
        cut = SampledPath(X.times[: i + 1], X.values[: i + 1])
        assert np.array_equal(got[i], solve_yde(_timed_field(), cut, seeds[i], _cfg(sub)).values[-1])
    vals, jacs = composition._diagonal_flow(_timed_field(), X, seeds[:40], _cfg(sub),
                                            with_jacobian=True)
    ref_vals, ref_jacs = _ref_fresh_diagonal(_timed_field(), X, seeds[:40], sub, True)
    assert np.array_equal(vals, got[:40])
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(jacs, ref_jacs)


@pytest.mark.parametrize("sub", SUBSTEPS)
@pytest.mark.parametrize("field, X, y0", [
    (_timed_field(), _fbm2(65, 7), (0.3, -0.2)),
    (get_field("scaling", dim=1), gen_fbm(FbmSpec(hurst=0.75, n_points=2049, seed=4)), (1.0,)),
    (get_field("square", dim=1), _dying_driver(), (0.2,)),
    (get_field("square", dim=1), _dying_driver(), (1.0,)),  # every row dies near t = 1/4
], ids=["timed-2d", "scaling-2049", "square", "square-dies"])
def test_compose_start_is_the_diagonal_flow_from_y0(sub, field, X, y0):
    y0 = np.array(y0)
    seeds = np.tile(y0, (X.n_points - 1, 1))
    try:
        want = composition._diagonal_flow(field, X, seeds, _cfg(sub), with_jacobian=True)
    except BlowUpError as exc:
        with pytest.raises(BlowUpError) as got:
            composition._start_flow(field, X, y0, _cfg(sub))
        assert got.value.last_valid_time == exc.last_valid_time < X.times[-2]
        return
    vals, jacs = composition._start_flow(field, X, y0, _cfg(sub))
    assert np.array_equal(vals, want[0])
    assert np.array_equal(jacs, want[1])


def _ref_symmetry_trajectory(Phi, f, X, y0, sub, levels):
    """The residual ladder from two solve_yde calls per level."""
    rows = []
    for step in [2 ** (levels - 1 - k) for k in range(levels)]:
        Xk = X.subsample(step)
        Y = solve_yde(f, Xk, y0, _cfg(sub))
        Yphi = solve_yde(f, Xk, Phi.value_at(y0), _cfg(sub))
        mapped = Phi.value_at(Y.values)
        rows.append((Xk.mesh, float(np.max(np.linalg.norm(mapped - Yphi.values, axis=1))),
                     float(np.max(np.abs(mapped)))))
    return make_residual_report([r[:2] for r in rows], scale=max(r[2] for r in rows))


@pytest.mark.parametrize("sub", SUBSTEPS)
@pytest.mark.parametrize("field, Phi, X, y0", [
    (get_field("rotation", dim=2), get_point_map("rotation", 2, {"angle": 0.7}),
     gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=8)), (0.5, 0.5)),
    (_timed_field(), get_point_map("rotation", 2, {"angle": 0.7}), _fbm2(65, 9), (0.3, -0.2)),
    (get_field("square", dim=1), get_point_map("scaling", 1, {"factor": 2.0}),
     gen_fbm(FbmSpec(hurst=0.75, n_points=129, seed=10)), (0.2,)),
], ids=["rotation", "timed-2d", "square"])
def test_symmetry_trajectory_matches_two_solves(sub, field, Phi, X, y0):
    y0 = np.array(y0)
    rep = check_symmetry_trajectory(Phi, field, X, y0, _cfg(sub), levels=3)
    assert rep == _ref_symmetry_trajectory(Phi, field, X, y0, sub, 3)


@pytest.mark.parametrize("sub", SUBSTEPS)
@pytest.mark.parametrize("y0, factor", [
    (0.1, 20.0),  # only the row from Phi(y0) = 2 dies, near t = 1/8
    (0.5, 4.0),  # both die, the row from Phi(y0) = 2 first; y0's row is reported
])
def test_symmetry_trajectory_blow_up_matches_two_solves(sub, y0, factor):
    field, X = get_field("square", dim=1), _dying_driver()
    Phi = get_point_map("scaling", 1, {"factor": factor})
    with pytest.raises(BlowUpError) as want:
        _ref_symmetry_trajectory(Phi, field, X, np.array([y0]), sub, 3)
    with pytest.raises(BlowUpError) as got:
        check_symmetry_trajectory(Phi, field, X, [y0], _cfg(sub), levels=3)
    assert got.value.last_valid_time == want.value.last_valid_time
    assert str(got.value) == str(want.value)


def _ref_compose(f, U, g, X, y0, sub, levels):
    rows = []
    for step in [2 ** (levels - 1 - k) for k in range(levels)]:
        Uk, Xk = U.subsample(step), X.subsample(step)
        V = _ref_euler(f, Uk, y0[None, :], sub, False)[0][:, 0]
        comp = _ref_fresh_diagonal(g, Xk, V, sub)
        direct = _ref_direct(f, Uk, g, Xk, y0, sub)
        rows.append((Xk.mesh, float(np.max(np.linalg.norm(comp - direct, axis=1))),
                     float(np.max(np.abs(comp)))))
    rep = make_residual_report([r[:2] for r in rows], scale=max(r[2] for r in rows))
    return comp, direct, rep


@pytest.mark.parametrize("sub", SUBSTEPS)
@pytest.mark.parametrize("outer, inner, n, y0", [
    ("square", "scaling", 65, 0.3),  # linear inner flow: one sweep settles every row
    ("scaling", "square", 33, 0.3),  # nonlinear inner flow: several sweeps
    ("rotation", "square", 33, (0.3, -0.2)),  # 2-d: Newton steps solve 2x2 systems
])
def test_compose_flows_matches_reference(sub, outer, inner, n, y0):
    U = gen_fbm(FbmSpec(hurst=0.75, n_points=n, seed=11))
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=n, seed=12))
    y0 = np.atleast_1d(y0)
    f, g = get_field(outer, dim=y0.size), get_field(inner, dim=y0.size)
    comp, direct, rep = compose_flows(f, U, g, X, y0, _cfg(sub), levels=3)
    ref_comp, ref_direct, ref_rep = _ref_compose(f, U, g, X, y0, sub, 3)
    assert np.array_equal(comp.values, ref_comp)
    assert np.array_equal(direct.values, ref_direct)
    assert rep == ref_rep


# ------------------------------------------------------ characteristics


def _timed_hamiltonian():
    # two drivers: a time-modulated transport and a Burgers term
    transport = ScalarHamiltonian(
        value=lambda t, x, u, p: np.cos(2 * t) * p[..., 0] + 0.1 * u,
        dx=lambda t, x, u, p: np.zeros_like(x),
        du=lambda t, x, u, p: np.full_like(u, 0.1),
        dp=lambda t, x, u, p: np.concatenate(
            [np.full_like(p[..., :1], np.cos(2 * t)), np.zeros_like(p[..., 1:])], axis=-1),
    )
    burgers = ScalarHamiltonian(value=lambda t, x, u, p: 0.5 * np.sum(p ** 2, axis=-1)
                                + np.sin(x[..., 0]) * t)
    return HamiltonianSpec(state_dim=2, components=(transport, burgers))


def _seed_data_map(value, gradient):
    """Initial data whose seeds get u = value(x) (m,) and p = gradient(x) (m, d)."""
    return SmoothMap(in_dim=2, out_dim=1, value=lambda x: value(x)[..., None],
                     jacobian=lambda x: gradient(x)[..., None, :])


def _stream_history(H, X, phi, box, sub):
    """The a, b, c rows of a CharStream run to its end, and its alive_until."""
    stream = CharStream(H, X, phi, box, sub)
    blocks = [(blk.a.copy(), blk.b.copy(), blk.c.copy()) for blk, _ in stream.blocks()]
    return (*(np.concatenate(v) for v in zip(*blocks)), stream.alive_until)


@pytest.mark.parametrize("sub", [1, 2])
def test_char_core_matches_reference(sub):
    # the characteristic core: CharStream steps pde._char_field on yde's sweep
    X = _fbm2(97, 7)
    box = GridBox((-1.0, -1.0), (1.0, 1.0), (4, 3))
    phi = _seed_data_map(lambda x: np.sin(x[..., 0]), np.cos)
    seeds, u0, p0 = seed_from_initial_data(phi, box.points())
    H = _timed_hamiltonian()
    got = _stream_history(H, X, phi, box, sub)
    ref = _ref_char_core(H, X, seeds, u0, p0, sub)
    for g, r in zip(got, ref[:3]):
        assert np.array_equal(g, r)
    assert np.array_equal(got[3], X.times[ref[3]])


def test_a_hamiltonian_not_declared_p_only_runs_the_sweep(monkeypatch):
    real, calls = pde._euler_sweep, []
    monkeypatch.setattr(pde, "_euler_sweep", lambda *a: calls.append(1) or real(*a))
    H = _timed_hamiltonian()
    assert not H.p_only
    _stream_history(H, _fbm2(33, 7), _seed_data_map(lambda x: np.sin(x[..., 0]), np.cos),
                    GridBox((-1.0, -1.0), (1.0, 1.0), (4, 3)), 2)
    assert calls == [1]


@pytest.mark.parametrize("sub", [1, 2])
def test_char_core_blow_up_with_substeps_matches_reference(sub):
    # F = u^2: db = u^2 dX blows up at X = 1/u0, so large seeds die early
    H = HamiltonianSpec(state_dim=1,
                        components=(ScalarHamiltonian(value=lambda t, x, u, p: u ** 2),))
    X = gen_deterministic(DeterministicSpec(kind="linear", n_points=65))
    box = GridBox((0.0,), (4.0,), (9,))
    phi = SmoothMap(in_dim=1, out_dim=1, value=lambda x: 10.0 * x,
                    jacobian=lambda x: x[..., None])
    seeds, u0, p0 = seed_from_initial_data(phi, box.points())
    assert np.array_equal(u0, np.linspace(0.0, 40.0, 9)) and np.array_equal(p0, seeds)
    got = _stream_history(H, X, phi, box, sub)
    ref = _ref_char_core(H, X, seeds, u0, seeds.copy(), sub)
    assert 0 < np.sum(ref[3] < X.n_points - 1) < 9
    for g, r in zip(got, ref[:3]):
        assert np.array_equal(g, r)
    assert np.array_equal(got[3], X.times[ref[3]])
