"""Characteristic solves, fold detection, inversion, and assembled fields."""

import numpy as np
import pytest

from youngflow import (
    CausticError,
    CharStream,
    DeterministicSpec,
    FbmSpec,
    GridBox,
    HamiltonianSpec,
    InversionError,
    PathError,
    SampledPath,
    ScalarHamiltonian,
    SmoothMap,
    assemble_solution_field,
    gen_deterministic,
    gen_fbm,
    interp_nodal,
    invert_char_map,
    pde_residual,
    seed_from_initial_data,
    verify_compatibility,
    verify_inverse_flow_equation,
)
from youngflow.builtins import get_hamiltonian, get_initial_data


def _zero_hamiltonian(dim):
    comp = ScalarHamiltonian(
        value=lambda t, x, u, p: np.zeros(np.shape(u)),
        dx=lambda t, x, u, p: np.zeros_like(x),
        du=lambda t, x, u, p: np.zeros(np.shape(u)),
        dp=lambda t, x, u, p: np.zeros_like(p),
    )
    return HamiltonianSpec(state_dim=dim, components=(comp,))


def _linear_init(slope=0.25, offset=0.5):
    return SmoothMap(
        in_dim=1,
        out_dim=1,
        value=lambda x: offset + slope * x[..., :1],
        jacobian=lambda x: np.full(x.shape[:-1] + (1, 1), slope),
    )


def _line(n, horizon=1.0):
    return gen_deterministic(DeterministicSpec(kind="linear", n_points=n, horizon=horizon))


def _neg_line(n, horizon=1.0):
    X = _line(n, horizon)
    return SampledPath(X.times, -X.values)


def _dets(stream):
    """det D_x a_t (n, m) of every row; the stream is run to its end."""
    return np.concatenate([np.linalg.det(blk.jac) for blk, _ in stream.blocks()])


def _seed_column(H, X, phi, box, x):
    """a (n, d), b (n,), c (n, d) of the seed at node x of box, read off a
    CharStream run to its end."""
    stream = CharStream(H, X, phi, box)
    (i,) = np.flatnonzero((stream.seeds == x).all(axis=1))
    cols = [(blk.a[:, i].copy(), blk.b[:, i].copy(), blk.c[:, i].copy())
            for blk, _ in stream.blocks()]
    return tuple(np.concatenate(v) for v in zip(*cols))


# ------------------------------------------------------------------- grids


def test_grid_box_basics():
    box = GridBox(lower=(-1.0,), upper=(1.0,), counts=(5,))
    assert box.dim == 1 and box.n_points == 5
    assert np.allclose(box.axes()[0], [-1.0, -0.5, 0.0, 0.5, 1.0])
    box2 = GridBox(lower=(0.0, 0.0), upper=(1.0, 2.0), counts=(2, 3))
    pts = box2.points()
    assert pts.shape == (6, 2)
    # row-major: last axis varies fastest
    assert np.array_equal(pts[:3, 0], [0.0, 0.0, 0.0])
    assert np.array_equal(pts[:3, 1], [0.0, 1.0, 2.0])


def test_grid_box_validation():
    with pytest.raises(PathError):
        GridBox(lower=(0.0,), upper=(0.0,), counts=(4,))
    with pytest.raises(PathError):
        GridBox(lower=(0.0,), upper=(1.0,), counts=(1,))
    with pytest.raises(PathError):
        GridBox(lower=(0.0, 0.0), upper=(1.0,), counts=(4, 4))
    with pytest.raises(PathError):
        GridBox(lower=(0.0,) * 4, upper=(1.0,) * 4, counts=(2,) * 4)


def test_interp_nodal_exact_on_multilinear_data():
    box = GridBox(lower=(0.0, -1.0), upper=(2.0, 1.0), counts=(5, 9))
    pts = box.points()
    nodal = 2.0 + 0.5 * pts[:, 0] - 1.5 * pts[:, 1] + 0.25 * pts[:, 0] * pts[:, 1]
    q = np.array([[0.33, -0.72], [1.9, 0.05], [0.0, 1.0]])
    expect = 2.0 + 0.5 * q[:, 0] - 1.5 * q[:, 1] + 0.25 * q[:, 0] * q[:, 1]
    assert np.allclose(interp_nodal(box, nodal, q), expect, atol=1e-13)
    # vector-valued nodal data keeps trailing shape
    vec = np.stack([nodal, -nodal], axis=-1)
    out = interp_nodal(box, vec, q)
    assert out.shape == (3, 2)
    assert np.allclose(out[:, 0], -out[:, 1])


# --------------------------------------------------------- characteristics


def test_transport_characteristics_closed_form():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=1))
    H = get_hamiltonian("transport-k", dim=1, params={"k": 0.7})
    phi = get_initial_data("neg-half-square", dim=1)
    a, b, c = _seed_column(H, X, phi, GridBox((0.0,), (0.8,), (3,)), [0.8])
    dx = X.values[:, 0] - X.values[0, 0]
    assert np.allclose(a[:, 0], 0.8 - 0.7 * dx, atol=1e-12)
    assert np.all(b == b[0])
    assert np.all(c[:, 0] == c[0, 0])


def test_zero_hamiltonian_keeps_triple_frozen():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=65, seed=3))
    phi = _linear_init(slope=-1.0, offset=2.4)  # u = 2.0 and p = -1.0 at the seed 0.4
    a, b, c = _seed_column(_zero_hamiltonian(1), X, phi, GridBox((0.0,), (0.8,), (3,)), [0.4])
    assert np.all(a == 0.4)
    assert np.all(b == 2.0)
    assert np.all(c == -1.0)


def test_quadratic_hamiltonian_characteristics_closed_form():
    X = _neg_line(2**9 + 1, horizon=0.75)
    H = get_hamiltonian("burgers-half-p-squared", dim=1)
    phi = get_initial_data("neg-half-square", dim=1)  # u = -0.5 and p = -1.0 at the seed 1.0
    a, b, c = _seed_column(H, X, phi, GridBox((0.0,), (1.0,), (3,)), [1.0])
    dx = X.values[:, 0]
    # momentum frozen, position x - p dX, value u - p^2/2 dX
    assert np.all(c[:, 0] == -1.0)
    assert np.allclose(a[:, 0], 1.0 + dx, atol=1e-12)
    assert np.allclose(b, -0.5 - 0.5 * dx, atol=1e-12)


def test_driver_dimension_must_match_components():
    X2 = SampledPath([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(PathError):
        CharStream(_zero_hamiltonian(1), X2, _linear_init(),
                   GridBox((0.0,), (1.0,), (2,)))


def test_seed_from_initial_data_values():
    phi = get_initial_data("neg-half-square", dim=1)
    x, u, p = seed_from_initial_data(phi, np.array([[1.0], [2.0]]))
    assert np.allclose(u, [-0.5, -2.0])
    assert np.allclose(p, [[-1.0], [-2.0]])
    phi_sin = get_initial_data("sin", dim=2, params={"wavenumber": 3.0})
    x, u, p = seed_from_initial_data(phi_sin, np.array([[0.0, 5.0]]))
    assert u[0] == 0.0
    assert np.allclose(p[0], [3.0, 0.0])


# ------------------------------------------------------------ char stream


def test_transport_field_never_folds():
    X = gen_fbm(FbmSpec(hurst=0.8, n_points=257, seed=5))
    H = get_hamiltonian("transport-k", dim=1, params={"k": 0.7})
    phi = get_initial_data("sin", dim=1)
    box = GridBox(lower=(-2.0,), upper=(2.0,), counts=(101,))
    stream = CharStream(H, X, phi, box)
    assert np.allclose(_dets(stream), 1.0, atol=1e-12)
    horizon = X.times[-1]
    assert not stream.folded.any()
    assert np.all(stream.tau == horizon)
    assert np.all(stream.alive_until == horizon)
    assert stream.tau.reshape(box.counts).shape == (101,)


def test_fold_time_matches_hand_computation():
    # X_t = -t with quadratic initial data: a_t(x) = x (1 - t), so the
    # seed Jacobian is 1 - t and every seed folds exactly at t = 1
    X = _neg_line(2**9 + 1, horizon=1.5)
    H = get_hamiltonian("burgers-half-p-squared", dim=1)
    phi = get_initial_data("neg-half-square", dim=1)
    box = GridBox(lower=(-2.0,), upper=(2.0,), counts=(101,))
    stream = CharStream(H, X, phi, box)
    det = _dets(stream)
    assert stream.folded.all()
    assert np.max(np.abs(stream.tau - 1.0)) < 1e-9
    assert np.allclose(det[0], 1.0, atol=1e-12)
    i = stream.index_of(X.times[len(X.times) // 3])
    assert np.allclose(det[i], 1.0 - stream.times[i], atol=1e-9)


def test_char_field_triple_accessor():
    X = _line(65)
    H = get_hamiltonian("transport-k", dim=1, params={"k": 1.0})
    box = GridBox(lower=(-1.0,), upper=(1.0,), counts=(11,))
    wide = _seed_column(H, X, _linear_init(), box, [0.0])
    assert wide[0].shape == (65, 1)
    assert wide[0][0, 0] == 0.0
    # the seed with one neighbour gets the bits of its column among eleven
    alone = _seed_column(H, X, _linear_init(), GridBox((0.0,), (1.0,), (2,)), [0.0])
    for got, want in zip(alone, wide):
        assert np.array_equal(got, want)
    with pytest.raises(PathError):
        CharStream(H, X, _linear_init(), box).index_of(0.1234567)


def test_box_dimension_must_match_state():
    X = _line(17)
    H = get_hamiltonian("transport-k", dim=2)
    box = GridBox(lower=(-1.0,), upper=(1.0,), counts=(5,))
    with pytest.raises(PathError):
        CharStream(H, SampledPath(X.times, np.column_stack([X.values, X.values])),
                   get_initial_data("sin", dim=2), box)


# --------------------------------------------------------------- inversion


def _transport_field(n=257, k=0.7, seed=5, counts=201):
    X = gen_fbm(FbmSpec(hurst=0.8, n_points=n, seed=seed))
    H = get_hamiltonian("transport-k", dim=1, params={"k": k})
    phi = get_initial_data("sin", dim=1)
    box = GridBox(lower=(-3.0,), upper=(3.0,), counts=(counts,))
    return X, H, phi, CharStream(H, X, phi, box)


def test_invert_transport_map():
    X, H, phi, stream = _transport_field()
    dx = X.values[:, 0] - X.values[0, 0]
    for idx in (0, 100, 256):
        t = float(X.times[idx])
        y = 0.4
        x = invert_char_map(stream, t, [y])
        assert x[0] == pytest.approx(y + 0.7 * dx[idx], abs=1e-8)
    # t = 0 inverts to the point itself
    assert invert_char_map(stream, 0.0, [0.4])[0] == pytest.approx(0.4, abs=1e-10)


def test_invert_past_fold_raises_caustic():
    X = _neg_line(2**9 + 1, horizon=1.5)
    H = get_hamiltonian("burgers-half-p-squared", dim=1)
    phi = get_initial_data("neg-half-square", dim=1)
    box = GridBox(lower=(-2.0,), upper=(2.0,), counts=(101,))
    stream = CharStream(H, X, phi, box)
    t_past = float(X.times[np.searchsorted(X.times, 1.2)])
    with pytest.raises(CausticError):
        invert_char_map(stream, t_past, [0.3])
    # before the fold the same point inverts fine
    t_pre = float(X.times[np.searchsorted(X.times, 0.5)])
    x = invert_char_map(stream, t_pre, [0.3])
    assert x[0] == pytest.approx(0.3 / (1.0 - t_pre), abs=1e-8)


def test_invert_outside_box_raises_inversion_error():
    _, _, _, stream = _transport_field()
    with pytest.raises(InversionError):
        invert_char_map(stream, 1.0, [50.0])


# ---------------------------------------------------------------- assembly


def test_assemble_zero_hamiltonian_returns_initial_data():
    X = _line(33)
    box = GridBox(lower=(-1.0,), upper=(1.0,), counts=(21,))
    stream = CharStream(_zero_hamiltonian(1), X, _linear_init(), box)
    pts = np.linspace(-0.9, 0.9, 7)[:, None]
    sol = assemble_solution_field(stream, pts, [1.0])
    assert sol.valid.all()
    assert np.allclose(sol.u[0], 0.5 + 0.25 * pts[:, 0], atol=1e-10)
    assert np.allclose(sol.du[0], 0.25, atol=1e-10)


def test_assemble_transport_closed_form():
    X, H, phi, stream = _transport_field(counts=601)
    pts = np.linspace(-1.0, 1.0, 21)[:, None]
    for idx in (64, 192, 256):
        t = float(X.times[idx])
        sol = assemble_solution_field(stream, pts, [t])
        (u,), (du,) = sol.u, sol.du
        assert sol.valid.all()
        shift = 0.7 * (X.values[idx, 0] - X.values[0, 0])
        assert np.max(np.abs(u - np.sin(pts[:, 0] + shift))) < 5e-4
        assert np.max(np.abs(du[:, 0] - np.cos(pts[:, 0] + shift))) < 5e-3


def test_assemble_solution_field_sigma_and_validity():
    # transport never invalidates; the folding field invalidates just
    # after its caustic time
    X, H, phi, stream = _transport_field(n=129)
    pts = np.linspace(-0.5, 0.5, 5)[:, None]
    sol = assemble_solution_field(stream, pts)
    assert sol.valid.all()
    assert np.all(np.isinf(sol.sigma_proxy))
    assert np.array_equal(sol.tau_map, stream.tau)

    Xn = _neg_line(2**8 + 1, horizon=1.5)
    Hb = get_hamiltonian("burgers-half-p-squared", dim=1)
    streamb = CharStream(Hb, Xn, get_initial_data("neg-half-square", dim=1),
                         GridBox(lower=(-2.0,), upper=(2.0,), counts=(101,)))
    solb = assemble_solution_field(streamb, np.array([[0.0]]))
    assert not solb.valid.all()
    assert np.isfinite(solb.sigma_proxy[0])
    assert abs(solb.sigma_proxy[0] - 1.0) < 0.05
    # valid exactly until the fold, invalid afterwards
    first_bad = int(np.nonzero(~solb.valid[:, 0])[0][0])
    assert solb.valid[: first_bad].all()
    assert not solb.valid[first_bad:].any()


# --------------------------------------------------------------- residuals


def test_pde_residual_zero_hamiltonian_exact():
    X = _line(65)
    box = GridBox(lower=(-1.0,), upper=(1.0,), counts=(21,))
    stream = CharStream(_zero_hamiltonian(1), X, _linear_init(), box)
    pts = np.linspace(-0.8, 0.8, 9)[:, None]
    sol = assemble_solution_field(stream, pts)
    rep = pde_residual(sol, _zero_hamiltonian(1), X, _linear_init(), levels=3)
    assert rep.converged
    assert rep.final_residual < 1e-10


def test_pde_residual_transport_converges():
    X, H, phi, stream = _transport_field(n=2**9 + 1, counts=401)
    pts = np.linspace(-1.0, 1.0, 11)[:, None]
    sol = assemble_solution_field(stream, pts)
    rep = pde_residual(sol, H, X, phi, levels=3)
    assert rep.converged
    assert rep.final_residual < rep.residuals[0]


def test_pde_residual_needs_driver_grid():
    X, H, phi, stream = _transport_field(n=65)
    pts = np.array([[0.0]])
    sol = assemble_solution_field(stream, pts, times=X.times[::2])
    with pytest.raises(PathError):
        pde_residual(sol, H, X, phi)


def test_pde_residual_all_folded_raises():
    Xn = _neg_line(2**7 + 1, horizon=1.5)
    Hb = get_hamiltonian("burgers-half-p-squared", dim=1)
    phi = get_initial_data("neg-half-square", dim=1)
    stream = CharStream(Hb, Xn, phi, GridBox(lower=(-2.0,), upper=(2.0,), counts=(81,)))
    sol = assemble_solution_field(stream, np.array([[0.0], [0.4]]))
    with pytest.raises(CausticError):
        pde_residual(sol, Hb, Xn, phi)


def test_inverse_flow_equation_transport_exact():
    X, H, phi, stream = _transport_field(n=257)
    rep = verify_inverse_flow_equation(stream, H, X, np.array([[0.2], [-0.4]]))
    assert rep.converged
    assert rep.final_residual < 1e-9


def test_inverse_flow_equation_quadratic_pre_caustic():
    Xn = _neg_line(2**9 + 1, horizon=0.8)
    Hb = get_hamiltonian("burgers-half-p-squared", dim=1)
    phi = get_initial_data("neg-half-square", dim=1)
    stream = CharStream(Hb, Xn, phi, GridBox(lower=(-2.0,), upper=(2.0,), counts=(201,)))
    rep = verify_inverse_flow_equation(stream, Hb, Xn, np.array([[0.15], [-0.3]]))
    assert rep.converged
    assert rep.final_residual < rep.residuals[0]


def test_inverse_flow_equation_rejects_folded_points():
    Xn = _neg_line(2**8 + 1, horizon=1.5)
    Hb = get_hamiltonian("burgers-half-p-squared", dim=1)
    phi = get_initial_data("neg-half-square", dim=1)
    stream = CharStream(Hb, Xn, phi, GridBox(lower=(-2.0,), upper=(2.0,), counts=(101,)))
    # 0 sits at the fold center: its preimage never leaves the box, so the
    # fold itself is what kills the check
    with pytest.raises(CausticError):
        verify_inverse_flow_equation(stream, Hb, Xn, np.array([[0.0]]))


def test_compatibility_identity():
    Xn = _neg_line(257, horizon=0.8)
    Hb = get_hamiltonian("burgers-half-p-squared", dim=1)
    phi = get_initial_data("neg-half-square", dim=1)
    stream = CharStream(Hb, Xn, phi, GridBox(lower=(-2.0,), upper=(2.0,), counts=(201,)))
    rep = verify_compatibility(stream, tol=1e-3)
    assert rep.passed
    assert rep.max_residual < 1e-10
    assert "time" in rep.details


def test_two_seed_resolutions_agree_pre_caustic():
    # solution values must not depend on the seed grid: same driver,
    # two box resolutions, compare u on shared evaluation points
    Xn = _neg_line(2**8 + 1, horizon=0.8)
    Hb = get_hamiltonian("burgers-half-p-squared", dim=1)
    phi = get_initial_data("neg-half-square", dim=1)
    pts = np.linspace(-0.5, 0.5, 9)[:, None]
    us = []
    for counts in (201, 401):
        stream = CharStream(Hb, Xn, phi, GridBox(lower=(-2.0,), upper=(2.0,), counts=(counts,)))
        sol = assemble_solution_field(stream, pts, [0.75])
        assert sol.valid.all()
        us.append(sol.u[0])
    assert np.max(np.abs(us[0] - us[1])) < 1e-4
