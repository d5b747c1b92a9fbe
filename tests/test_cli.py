"""End-to-end command-line runs, in process via main(argv)."""

import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import youngflow
import youngflow.cli as cli
from youngflow.cli import main
from youngflow.io import (SchemaError, jsonable_times, load_schema, read_path_csv,
                         read_solution_slice, write_path_csv)
from youngflow.paths import p_variation_norm


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def fbm_csv(workdir):
    f = str(workdir / "path.csv")
    assert main(["gen", "fbm", "--hurst", "0.75", "--n", "1024",
                 "--seed", "7", "-o", f]) == 0
    return f


@pytest.fixture(scope="module")
def lin17_csv(workdir):
    f = str(workdir / "lin17.csv")
    assert main(["gen", "linear", "--n", "17", "-o", f]) == 0
    return f


# ------------------------------------------------------------ happy paths

def test_gen_fbm_row_count(fbm_csv):
    with open(fbm_csv) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "t,x1"
    assert len(lines) == 1 + 1024


def test_check_chain_on_generated_path(capsys, fbm_csv):
    # 1023 intervals are not divisible by 8; the ladder trims to 1016.
    rc, out = run(capsys, ["check", "chain", "--g", "square",
                           "--path", fbm_csv, "--levels", "4"])
    doc = json.loads(out)
    assert rc == 0
    assert doc["pass"] is True and doc["converged"] is True
    assert len(doc["levels"]) == 4
    meshes = [lv["mesh"] for lv in doc["levels"]]
    for a, b in zip(meshes, meshes[1:]):
        assert a == pytest.approx(2 * b)


def test_pvar_of_monotone_path_is_one(capsys, lin17_csv):
    rc, out = run(capsys, ["pvar", "--p", "1.5", "--path", lin17_csv])
    doc = json.loads(out)
    assert rc == 0
    assert doc["value"] == 1.0
    assert doc["optimal_partition"] == [0, 16]


def test_pvar_norm_is_p_variation_norm(capsys, fbm_csv):
    rc, out = run(capsys, ["pvar", "--p", "1.5", "--path", fbm_csv])
    assert rc == 0
    # JSON floats round-trip, so this equality is bitwise
    assert json.loads(out)["norm"] == p_variation_norm(read_path_csv(fbm_csv), 1.5)


def _src_env():
    src = os.path.dirname(os.path.dirname(youngflow.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _loaded_after(code: str) -> list:
    """The youngflow modules, and the heavy ones, loaded after code runs."""
    heavy = ["scipy", "concurrent.futures", "jsonschema", "referencing",
             "importlib.metadata"]
    code += ("\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'youngflow'"
             f" or m in {heavy!r}))")
    res = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=_src_env(),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return eval(res.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_out():
    assert _loaded_after("import youngflow.cli") == [
        "youngflow", "youngflow.cli", "youngflow.io", "youngflow.paths"]


# The layers each subcommand of the benchmark's workloads runs, by module
# (youngflow.<name>), besides youngflow, cli, io and paths. The heavy
# modules of _loaded_after stay out too.
@pytest.mark.parametrize("argv, layers", [
    (["gen", "fbm", "--n", "65", "--seed", "1", "-o", "OUT.csv"], ["drivers"]),
    (["pvar", "--p", "1.5", "--path", "LIN"], []),
    (["integrate", "--integrand", "LIN", "--driver", "LIN"], ["integrate"]),
    (["solve", "--field", "scaling", "--dim", "1", "--driver", "LIN", "--y0", "1",
      "-o", "OUT.csv"], ["builtins", "fields", "yde"]),
    (["flow", "--field", "rotation", "--dim", "2", "--driver", "LIN", "--grid=-1:1:3;-1:1:3",
      "-o", "OUT"], ["builtins", "fields", "yde"]),
    (["check", "chain", "--map", "exp", "--path", "LIN", "--levels", "3"],
     ["builtins", "calculus", "fields", "integrate", "reports", "symmetry", "yde"]),
    (["compose", "--outer-field", "scaling", "--outer-driver", "LIN", "--inner-field",
      "scaling", "--inner-driver", "LIN", "--dim", "1", "--y0", "0.3", "--levels", "2"],
     ["builtins", "composition", "fields", "reports", "yde"]),
    (["pde", "caustic", "--hamiltonian", "transport-k", "--init", "sin", "--driver", "LIN",
      "--box=-3:3:31"], ["builtins", "fields", "pde", "reports", "yde"]),
], ids=["gen", "pvar", "integrate", "solve", "flow", "check", "compose", "pde"])
def test_subcommand_loads_only_its_layers(workdir, lin17_csv, argv, layers):
    argv = [lin17_csv if a == "LIN" else str(workdir / "mods_") + a if a.startswith("OUT")
            else a for a in argv]
    code = ("import contextlib, io\nfrom youngflow.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0")
    assert _loaded_after(code) == sorted(
        ["youngflow", "youngflow.cli", "youngflow.io", "youngflow.paths"]
        + [f"youngflow.{name}" for name in layers])


def test_gen_meta_sidecar(capsys, workdir):
    f, m = str(workdir / "meta_path.csv"), str(workdir / "meta.json")
    rc, _ = run(capsys, ["gen", "fbm", "--n", "64", "--seed", "3",
                         "-o", f, "--meta", m])
    assert rc == 0
    doc = json.load(open(m))
    jsonschema.validate(doc, load_schema("gen_meta"))
    assert doc["kind"] == "fbm" and doc["seed"] == 3 and doc["n_points"] == 64
    assert set(doc["meta"]) == {"created", "tool", "version"}


def test_integrate_frozen_left_sum(capsys, lin17_csv):
    rc, out = run(capsys, ["integrate", "--integrand", lin17_csv,
                           "--driver", lin17_csv, "--p", "1", "--q", "1"])
    doc = json.loads(out)
    assert rc == 0
    assert doc["value"] == [0.46875]  # sum i/256, i < 16; exact in binary
    assert doc["certified_bound"] > 0
    assert doc["partition_mesh"] == pytest.approx(1 / 16)


def test_solve_scaling_field_hits_e(capsys, workdir):
    drv = str(workdir / "lin2049.csv")
    sol = str(workdir / "sol.csv")
    run(capsys, ["gen", "linear", "--n", "2049", "-o", drv])
    rc, _ = run(capsys, ["solve", "--field", "scaling", "--dim", "1",
                         "--driver", drv, "--y0", "1.0", "-o", sol])
    assert rc == 0
    Y = read_path_csv(sol)
    assert abs(Y.values[-1, 0] - np.e) < 1e-3 * np.e


def test_flow_directory_and_index(capsys, workdir, lin17_csv):
    d = str(workdir / "flowdir")
    rc, _ = run(capsys, ["flow", "--field", "scaling", "--dim", "1",
                         "--driver", lin17_csv, "--grid", "0.5:1.5:3",
                         "-o", d])
    assert rc == 0
    idx = json.load(open(os.path.join(d, "flow_index.json")))
    jsonschema.validate(idx, load_schema("flow_index"))
    assert idx["files"] == ["flow_0000.csv", "flow_0001.csv", "flow_0002.csv"]
    assert idx["n_times"] == 17
    for name in idx["files"]:
        assert os.path.exists(os.path.join(d, name))


def test_compose_agrees_with_direct(capsys, workdir):
    u = str(workdir / "u1025.csv")
    x = str(workdir / "x1025.csv")
    run(capsys, ["gen", "linear", "--n", "1025", "-o", u])
    run(capsys, ["gen", "sine", "--n", "1025", "--amplitude", "0.5",
                 "--frequency", "0.5", "-o", x])
    rc, out = run(capsys, ["compose", "--outer-field", "scaling",
                           "--outer-driver", u, "--inner-field", "scaling",
                           "--inner-driver", x, "--dim", "1", "--y0", "0.3"])
    doc = json.loads(out)
    assert rc == 0 and doc["converged"] is True
    # both scaling flows: exact final value 0.3 exp(U_T + X_T), X_T = 0
    exact = 0.3 * np.e
    assert abs(doc["final_direct"][0] - exact) < 5e-3 * exact
    assert doc["max_deviation"] < 1e-2


def test_check_conserved_trajectory_mode(capsys, workdir):
    drv = str(workdir / "fbm1025.csv")
    run(capsys, ["gen", "fbm", "--hurst", "0.75", "--n", "1025",
                 "--seed", "2", "-o", drv])
    rc, out = run(capsys, ["check", "conserved", "--field", "rotation",
                           "--dim", "2", "--mode", "trajectory",
                           "--driver", drv, "--y0", "0.5,0.5",
                           "--levels", "3"])
    doc = json.loads(out)
    assert rc == 0 and doc["pass"] is True


def test_check_infinitesimal_generator(capsys):
    rc, out = run(capsys, ["check", "infinitesimal", "--generator", "rotation",
                           "--field", "scaling", "--dim", "2",
                           "--samples", "64", "--flow-times", "0.5"])
    doc = json.loads(out)
    assert rc == 0
    assert doc["details"]["algebraic_max"] < 1e-10


# ------------------------------------------------------- failing checks (1)

def test_symmetry_failure_exits_one(capsys):
    rc, out = run(capsys, ["check", "symmetry", "--map", "translation",
                           "--field", "rotation", "--dim", "2"])
    doc = json.loads(out)
    assert rc == 1
    assert doc["pass"] is False
    assert doc["max_residual"] > 0.1


def test_symmetry_pass_exits_zero(capsys):
    rc, out = run(capsys, ["check", "symmetry", "--map", "rotation",
                           "--map-params", "angle=0.7", "--field", "rotation",
                           "--dim", "2"])
    assert rc == 0
    assert json.loads(out)["pass"] is True


# -------------------------------------------------------- usage errors (2)

def test_fbm_without_seed_exits_two(capsys, workdir):
    rc = main(["gen", "fbm", "--n", "64", "-o", str(workdir / "x.csv")])
    capsys.readouterr()
    assert rc == 2


def test_unknown_builtin_exits_two(capsys, lin17_csv):
    rc = main(["check", "chain", "--g", "nosuchmap", "--path", lin17_csv])
    capsys.readouterr()
    assert rc == 2
    # --map takes a smooth map or an observable, and the message names both kinds
    rc = main(["check", "chain", "--map", "nosuchmap", "--path", lin17_csv])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: unknown map 'nosuchmap'; known: exp, identity, norm2, sin, square\n")


@pytest.mark.parametrize("argv, accepted", [
    (["solve", "--field", "scaling", "--dim", "1", "--params", "foo=1", "--y0", "1",
      "--driver", "LIN", "-o", "OUT"], "none"),
    (["pde", "caustic", "--hamiltonian", "transport-k", "--init", "sin",
      "--init-params", "foo=1", "--driver", "LIN", "--box=-1:1:5", "-o", "OUT"], "wavenumber"),
    (["check", "symmetry", "--map", "rotation", "--map-params", "foo=1", "--field",
      "rotation", "--dim", "2", "--mode", "trajectory", "--driver", "LIN", "--y0", "0.5,0.5",
      "-o", "OUT"], "angle"),
    (["check", "infinitesimal", "--generator", "rotation", "--generator-params", "foo=1",
      "--field", "scaling", "--dim", "2", "-o", "OUT"], "none"),
])
def test_unknown_builtin_parameter_exits_two(capsys, workdir, lin17_csv, argv, accepted):
    out = str(workdir / "never_params")
    rc = main([lin17_csv if a == "LIN" else out if a == "OUT" else a for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "'foo'" in err and f"accepted: {accepted}" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, line", [
    (["solve", "--field", "nosuch", "--dim", "1", "--y0", "1", "--driver", "LIN", "-o", "OUT"],
     "error: unknown field 'nosuch'; known: exp, rotation, scaling, square\n"),
    (["solve", "--field", "scaling", "--dim", "1", "--params", "foo=1", "--y0", "1",
      "--driver", "LIN", "-o", "OUT"],
     "error: field 'scaling' takes no parameter 'foo'; accepted: none\n"),
], ids=["unknown-field", "unknown-parameter"])
def test_unknown_builtin_message_prints_unquoted(capsys, workdir, lin17_csv, argv, line):
    out = str(workdir / "never_written")
    rc = main([lin17_csv if a == "LIN" else out if a == "OUT" else a for a in argv])
    assert rc == 2
    assert capsys.readouterr().err == line


def test_missing_file_exits_two(capsys):
    rc = main(["pvar", "--p", "1.5", "--path", "/nonexistent/path.csv"])
    capsys.readouterr()
    assert rc == 2


def test_unwritable_output_exits_two(capsys, workdir, lin17_csv):
    # any OSError (here NotADirectoryError) is an input error, not an internal one
    rc = main(["pvar", "--p", "1.5", "--path", lin17_csv,
               "-o", os.path.join(lin17_csv, "out.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_pvar_exponent_below_one_exits_two(capsys, lin17_csv):
    rc = main(["pvar", "--p", "0.5", "--path", lin17_csv])
    capsys.readouterr()
    assert rc == 2


def test_integrate_young_condition_exits_two(capsys, lin17_csv):
    rc = main(["integrate", "--integrand", lin17_csv, "--driver", lin17_csv,
               "--p", "2.5", "--q", "2.5"])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["pvar", "--p", "nan", "--path", "LIN"],
    ["pvar", "--p", "inf", "--path", "LIN"],
    ["integrate", "--integrand", "LIN", "--driver", "LIN", "--p", "1.4", "--q", "nan"],
    ["integrate", "--integrand", "LIN", "--driver", "LIN", "--interval", "0", "-inf"],
    ["solve", "--field", "scaling", "--dim", "1", "--driver", "LIN",
     "--y0", "nan", "-o", "OUT"],
    ["check", "symmetry", "--map", "scaling", "--map-params", "factor=inf",
     "--field", "scaling", "--dim", "2"],
])
def test_non_finite_flag_exits_two(capsys, workdir, lin17_csv, argv):
    subs = {"LIN": lin17_csv, "OUT": str(workdir / "never.csv")}
    try:
        rc = main([subs.get(a, a) for a in argv])
    except SystemExit as err:  # argparse rejects typed flags itself
        rc = err.code
    out = capsys.readouterr().out
    assert rc == 2
    assert "NaN" not in out and "Infinity" not in out




def test_flow_grid_axis_count_must_match_dim(capsys, workdir, lin17_csv):
    rc = main(["flow", "--field", "rotation", "--dim", "2", "--driver", lin17_csv,
               "--grid=-1:1:3", "-o", str(workdir / "never_flow")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--grid needs 2 axes for --dim 2, got 1" in err
    assert not os.path.exists(workdir / "never_flow")


@pytest.mark.parametrize("argv, flag", [
    (["flow", "--field", "scaling", "--dim", "1", "--grid=0:1:abc"], "--grid"),
    (["pde", "solve", "--hamiltonian", "transport-k", "--init", "sin", "--box=-2:2:abc",
      "--eval=-1:1:5"], "--box"),
    (["pde", "solve", "--hamiltonian", "transport-k", "--init", "sin", "--box=-2:2:5",
      "--eval=-1:1:abc"], "--eval"),
])
def test_a_box_count_that_is_not_an_integer_names_its_flag(capsys, workdir, lin17_csv, argv,
                                                          flag):
    out = workdir / "never_box"
    assert main(argv + ["--driver", lin17_csv, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag}: count 'abc' is not an integer\n"
    assert not os.path.exists(out)


def test_pde_eval_axis_count_must_match_dim(capsys, workdir, lin17_csv):
    # a 1-axis --eval against a 2-d map used to run Newton on the diagonal
    rc, out = run(capsys, ["pde", "residual", "--hamiltonian", "transport-k",
                           "--dim", "2", "--init", "sin", "--driver", lin17_csv,
                           "--box=-3:3:11;-3:3:11", "--eval=-1:1:5"])
    assert rc == 2 and out == ""
    rc = main(["pde", "solve", "--hamiltonian", "transport-k", "--dim", "2",
               "--init", "sin", "--driver", lin17_csv, "--box=-3:3:11",
               "--eval=-1:1:5;-1:1:5", "-o", str(workdir / "never_solve")])
    assert rc == 2 and not os.path.exists(workdir / "never_solve")
    assert "--box needs 2 axes for --dim 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--field", "scaling", "--dim", "2", "--driver", "LIN", "--y0", "1",
      "-o", "OUT"], "--y0"),
    (["solve", "--field", "scaling", "--dim", "1", "--driver", "LIN", "--y0", "1,2,3",
      "-o", "OUT"], "--y0"),
    (["solve", "--field", "scaling", "--dim", "0", "--driver", "LIN", "--y0", "1",
      "-o", "OUT"], "--dim"),
    (["check", "conserved", "--field", "rotation", "--dim", "2", "--mode", "trajectory",
      "--driver", "LIN", "--y0", "1", "-o", "OUT"], "--y0"),
    (["check", "symmetry", "--map", "rotation", "--field", "rotation", "--dim", "2",
      "--mode", "trajectory", "--driver", "LIN", "--y0", "1,2,3", "-o", "OUT"], "--y0"),
    (["check", "chain", "--g", "square", "--path", "LIN", "--dim", "0", "-o", "OUT"],
     "--dim"),
    (["compose", "--outer-field", "scaling", "--outer-driver", "LIN", "--inner-field",
      "scaling", "--inner-driver", "LIN", "--dim", "1", "--y0", "1,2", "-o", "OUT"], "--y0"),
    (["compose", "--outer-field", "scaling", "--outer-driver", "LIN", "--inner-field",
      "scaling", "--inner-driver", "LIN", "--dim", "0", "--y0", "1", "-o", "OUT"], "--dim"),
    (["compose", "--outer-field", "scaling", "--outer-driver", "LIN", "--inner-field",
      "scaling", "--inner-driver", "LIN", "--dim", "1", "--y0", "1", "--newton-tol", "0",
      "-o", "OUT"], "--newton-tol"),
    (["pde", "residual", "--hamiltonian", "transport-k", "--init", "sin", "--driver", "LIN",
      "--box=-3:3:11", "--eval=-1:1:5", "--newton-tol", "-1", "-o", "OUT"], "--newton-tol"),
])
def test_bad_dim_y0_or_tolerance_exits_two(capsys, workdir, lin17_csv, argv, flag):
    _assert_usage_error_naming(capsys, workdir, lin17_csv, argv, flag)


@pytest.mark.parametrize("argv, flag", [
    (["check", "conserved", "--field", "rotation", "--dim", "2", "--samples", "0",
      "-o", "OUT"], "--samples"),
    (["check", "infinitesimal", "--generator", "rotation", "--field", "scaling",
      "--dim", "2", "--samples", "-3", "-o", "OUT"], "--samples"),
    (["check", "chain", "--g", "square", "--path", "LIN", "--levels", "0", "-o", "OUT"],
     "--levels"),
    (["check", "conserved", "--field", "rotation", "--dim", "2", "--mode", "trajectory",
      "--driver", "LIN", "--y0", "1,0", "--levels", "-1", "-o", "OUT"], "--levels"),
    (["compose", "--outer-field", "scaling", "--outer-driver", "LIN", "--inner-field",
      "scaling", "--inner-driver", "LIN", "--dim", "1", "--y0", "1", "--levels", "0",
      "-o", "OUT"], "--levels"),
    (["pde", "residual", "--hamiltonian", "transport-k", "--init", "sin", "--driver", "LIN",
      "--box=-3:3:11", "--eval=-1:1:5", "--levels", "0", "-o", "OUT"], "--levels"),
    (["solve", "--field", "scaling", "--dim", "1", "--driver", "LIN", "--y0", "1",
      "--substeps", "0", "-o", "OUT"], "--substeps"),
    (["flow", "--field", "scaling", "--dim", "1", "--driver", "LIN", "--grid", "0:1:3",
      "--substeps", "-2", "-o", "OUT"], "--substeps"),
    (["pde", "solve", "--hamiltonian", "transport-k", "--init", "sin", "--driver", "LIN",
      "--box=-3:3:11", "--eval=-1:1:5", "--substeps", "0", "-o", "OUT"], "--substeps"),
])
def test_count_below_one_exits_two(capsys, workdir, lin17_csv, argv, flag):
    _assert_usage_error_naming(capsys, workdir, lin17_csv, argv, flag)


def _assert_usage_error_naming(capsys, workdir, lin17_csv, argv, flag):
    out = workdir / "never_shape"
    subs = {"LIN": lin17_csv, "OUT": str(out)}
    try:
        rc = main([subs.get(a, a) for a in argv])
    except SystemExit as err:  # argparse rejects typed flags itself
        rc = err.code
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not os.path.exists(out)


def test_pde_solve_zero_slices_exits_two_before_writing(capsys, workdir, lin17_csv):
    out = workdir / "never_slices"
    with pytest.raises(SystemExit) as err:
        main(["pde", "solve", "--hamiltonian", "transport-k", "--init", "sin",
              "--driver", lin17_csv, "--box=-3:3:11", "--eval=-1:1:5",
              "--slices", "0", "-o", str(out)])
    assert err.value.code == 2
    assert "--slices" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("via_config", [False, True])
def test_pde_caustic_refuses_newton_tol(capsys, workdir, negline_csv, via_config):
    # fold_times never inverts: the flag has nothing to set
    out = workdir / "never_caustic_tol"
    argv = ["pde", "caustic", "--hamiltonian", "burgers-half-p-squared",
            "--init", "neg-half-square", "--driver", negline_csv, "--box=-2:2:21",
            "-o", str(out)]
    if via_config:
        cfg = workdir / "caustic_tol.cfg"
        cfg.write_text("newton-tol=5\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--newton-tol", "5"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--newton-tol" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_missing_required_flag_exits_two(capsys, lin17_csv):
    with pytest.raises(SystemExit) as err:
        main(["pvar", "--path", lin17_csv])
    capsys.readouterr()
    assert err.value.code == 2


# Paths on LIN's grid whose shapes do not fit: X2 is 2-d, G13 holds 1x3
# and F21 2x1 matrices. Compose's inner driver is checked by the sweep.
@pytest.mark.parametrize("argv, line", [
    (["compose", "--outer-field", "scaling", "--outer-driver", "LIN", "--inner-field",
      "scaling", "--inner-driver", "X2", "--dim", "1", "--y0", "1", "--levels", "1",
      "-o", "OUT"], "error: field expects a 1-dim driver, path has dim 2\n"),
    (["check", "substitution", "--g-path", "G13", "--f-path", "F21", "--driver", "LIN",
      "-o", "OUT"],
     "error: substitution check: g of shape (1, 3) cannot act on f of shape (2, 1)\n"),
], ids=["compose-inner-driver", "substitution-operators"])
def test_shapes_that_do_not_fit_exit_two(capsys, workdir, lin17_csv, argv, line):
    times = read_path_csv(lin17_csv).times
    subs = {"LIN": lin17_csv, "OUT": str(workdir / "never_fit")}
    for name, values in (("X2", np.column_stack([times, times**2])),
                         ("G13", np.ones((times.size, 1, 3))),
                         ("F21", np.ones((times.size, 2, 1)))):
        subs[name] = str(workdir / f"{name}.csv")
        write_path_csv(subs[name], youngflow.SampledPath(times, values))
    rc = main([subs.get(a, a) for a in argv])
    assert rc == 2
    assert capsys.readouterr() == ("", line)
    assert not os.path.exists(subs["OUT"])


# ------------------------------------------------------ numeric errors (3)

def test_blow_up_exits_three(capsys, workdir):
    drv = str(workdir / "lin_long.csv")
    run(capsys, ["gen", "linear", "--n", "4097", "--horizon", "4.0", "-o", drv])
    rc = main(["solve", "--field", "square", "--dim", "1", "--driver", drv,
               "--y0", "2.0", "-o", str(workdir / "never.csv")])
    capsys.readouterr()
    assert rc == 3


@pytest.mark.parametrize("command", [
    ["pvar", "--p", "1.5", "--path", "OVF"],
    ["integrate", "--integrand", "OVF", "--driver", "OVF", "--p", "1.5", "--q", "1.5"],
    ["integrate", "--integrand", "OVF", "--driver", "OVF"],
])
def test_overflowing_variation_or_integral_exits_three(workdir, command):
    # finite values whose increments overflow: ||dX||^2 and Z dX are inf
    ovf = workdir / "overflow.csv"
    ovf.write_text("t,x1\n0,0\n1,1e200\n2,-1e200\n")
    argv = [str(ovf) if a == "OVF" else a for a in command]
    res = subprocess.run([sys.executable, "-m", "youngflow.cli", *argv], env=_src_env(),
                         capture_output=True, text=True)
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.startswith("numeric failure: ") and res.stderr.count("\n") == 1


def test_compose_overflow_prints_only_the_failure_line(workdir):
    # square inner field from y0 = 2 on a ramp: the composed rows overflow
    lin = str(workdir / "lin65.csv")
    assert main(["gen", "linear", "--n", "65", "-o", lin]) == 0
    res = subprocess.run([sys.executable, "-m", "youngflow.cli", "compose", "--outer-field",
                          "scaling", "--outer-driver", lin, "--inner-field", "square",
                          "--inner-driver", lin, "--dim", "1", "--y0", "2", "--levels", "2"],
                         env=_src_env(), capture_output=True, text=True)
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.startswith("numeric failure: ") and res.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, code, line", [
    # the flow of g = y^2 blows up on part of the domain: the residual overflows
    (["check", "infinitesimal", "--generator", "square", "--field", "scaling", "--dim", "2",
      "--domain=0.5:2"], 3, "numeric failure: the infinitesimal check's residual overflowed"),
    # finite ends whose difference overflows
    (["flow", "--field", "scaling", "--dim", "2", "--driver", "LIN",
      "--grid=-1e308:1e308:3;0:1:2", "-o", "OUT"], 2, "error: --grid: "),
], ids=["infinitesimal", "grid"])
def test_overflowing_input_exits_on_one_line_without_a_warning(workdir, lin17_csv, argv, code,
                                                               line):
    out = str(workdir / "never_overflow")
    res = subprocess.run([sys.executable, "-m", "youngflow.cli"]
                         + [{"LIN": lin17_csv, "OUT": out}.get(a, a) for a in argv],
                         env=_src_env(), capture_output=True, text=True)
    assert res.returncode == code and res.stdout == ""
    assert res.stderr.startswith(line) and res.stderr.count("\n") == 1
    assert not os.path.exists(out)


def test_check_infinitesimal_takes_substeps(capsys):
    argv = ["check", "infinitesimal", "--generator", "square", "--field", "exp", "--dim", "2",
            "--domain=-1:0.5"]
    docs = []
    for extra in ([], ["--substeps", "1"], ["--substeps", "4"]):
        assert main(argv + extra) == 1
        doc = json.loads(capsys.readouterr().out)
        doc.pop("meta")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[2]["details"]["flow_checks"] != docs[0]["details"]["flow_checks"]


# One fresh process per class that main maps to exit 2 or 3: there, only
# the modules the subcommand runs are loaded. The handlers' own
# NumericFailure on overflow and compose's BlowUpError have the
# fresh-process tests above. np.linalg.LinAlgError subclasses ValueError,
# yet a singular Newton step is a numeric failure.
@pytest.mark.parametrize("argv, code, line", [
    (["solve", "--field", "nosuch", "--dim", "1", "--y0", "1", "--driver", "LIN", "-o", "OUT"],
     2, "error: unknown field 'nosuch'; known: exp, rotation, scaling, square\n"),
    (["integrate", "--integrand", "LIN", "--driver", "LIN", "--p", "2.5", "--q", "2.5"],
     2, "error: need 1/p + 1/q > 1, got 0.8\n"),
    (["solve", "--field", "square", "--dim", "1", "--driver", "LIN", "--y0", "1e200",
      "-o", "OUT"], 3, "numeric failure: state became non-finite after t=0.0\n"),
    (["compose", "--outer-field", "scaling", "--outer-driver", "LIN", "--inner-field", "square",
      "--inner-driver", "LIN", "--dim", "1", "--y0", "0.3", "--levels", "1",
      "--newton-tol", "1e-300"], 3, "numeric failure: compose rows unsettled after 50 sweeps"),
    (["gen", "fbm", "--n", "101", "--seed", "1", "--max-points", "100", "-o", "OUT"],
     3, "numeric failure: n_points=101 exceeds the size cap 100; raise max_points explicitly\n"),
    (["pde", "residual", "--hamiltonian", "burgers-half-p-squared", "--init", "neg-half-square",
      "--driver", "NEGLINE", "--box=-2:2:101", "--eval=-0.5:0.5:5", "--levels", "3"],
     3, "numeric failure: no evaluation point stays valid over the horizon\n"),
    (["compose", "--outer-field", "scaling", "--outer-driver", "LIN3", "--inner-field", "scaling",
      "--inner-driver", "STEP", "--dim", "1", "--y0", "1", "--levels", "1"],
     3, "numeric failure: Singular matrix\n"),
], ids=["UnknownBuiltin", "YoungConditionError", "BlowUpError", "NewtonError", "ResourceError",
        "CausticError", "LinAlgError"])
def test_exit_code_in_a_fresh_process(workdir, lin17_csv, negline_csv, argv, code, line):
    # STEP steps by -1, so the inner scaling flow's Jacobian is 1 - 1 = 0
    times = np.linspace(0.0, 1.0, 3)
    lin3, step = str(workdir / "lin3.csv"), str(workdir / "step.csv")
    write_path_csv(lin3, youngflow.SampledPath(times, times))
    write_path_csv(step, youngflow.SampledPath(times, -2.0 * times))
    out = str(workdir / "never_fresh")
    subs = {"LIN": lin17_csv, "NEGLINE": negline_csv, "LIN3": lin3, "STEP": step, "OUT": out}
    res = subprocess.run([sys.executable, "-m", "youngflow.cli"] + [subs.get(a, a) for a in argv],
                         env=_src_env(), capture_output=True, text=True)
    assert res.returncode == code and res.stdout == ""
    assert res.stderr.startswith(line) and res.stderr.count("\n") == 1
    assert not os.path.exists(out)


def test_fbm_over_size_cap_exits_three(capsys, workdir):
    # one point past the default cap of 2^20 + 1
    rc = main(["gen", "fbm", "--n", "1048578", "--seed", "1",
               "-o", str(workdir / "big.csv")])
    capsys.readouterr()
    assert rc == 3
    rc = main(["gen", "fbm", "--n", "101", "--seed", "1", "--max-points", "100",
               "-o", str(workdir / "big.csv")])
    capsys.readouterr()
    assert rc == 3
    assert not os.path.exists(workdir / "big.csv")


# ------------------------------------------------------------- pde surface

@pytest.fixture(scope="module")
def negline_csv(workdir):
    # X_t = -t on [0, 1.5]: folds burgers + neg-half-square at t = 1
    f = str(workdir / "negline.csv")
    assert main(["gen", "polygonal", "--knots", "0,-1.5", "--n", "257",
                 "--horizon", "1.5", "-o", f]) == 0
    return f


def test_pde_caustic_payload(capsys, negline_csv):
    rc, out = run(capsys, ["pde", "caustic",
                           "--hamiltonian", "burgers-half-p-squared",
                           "--init", "neg-half-square", "--driver", negline_csv,
                           "--box=-2:2:101"])
    doc = json.loads(out)
    assert rc == 0
    jsonschema.validate(doc, load_schema("caustic"))
    assert abs(doc["min_tau"] - 1.0) < 1e-9
    assert doc["n_folded"] == 101
    assert all(abs(t - 1.0) < 1e-9 for t in doc["tau_map"])


def test_pde_residual_past_fold_exits_three(capsys, negline_csv):
    rc = main(["pde", "residual", "--hamiltonian", "burgers-half-p-squared",
               "--init", "neg-half-square", "--driver", negline_csv,
               "--box=-2:2:101", "--eval=-0.5:0.5:5", "--levels", "3"])
    capsys.readouterr()
    assert rc == 3


def test_pde_residual_transport(capsys, workdir):
    drv = str(workdir / "fbm513.csv")
    run(capsys, ["gen", "fbm", "--hurst", "0.8", "--n", "513",
                 "--seed", "5", "-o", drv])
    rc, out = run(capsys, ["pde", "residual", "--hamiltonian", "transport-k",
                           "--params", "k=0.7", "--init", "sin",
                           "--driver", drv, "--box=-3:3:401",
                           "--eval=-1:1:21", "--levels", "3"])
    doc = json.loads(out)
    assert rc == 0 and doc["pass"] is True
    assert len(doc["levels"]) == 3


def test_pde_solve_writes_slices(capsys, workdir):
    drv = str(workdir / "fbm65.csv")
    d = str(workdir / "soldir")
    run(capsys, ["gen", "fbm", "--hurst", "0.75", "--n", "65",
                 "--seed", "2", "-o", drv])
    rc, _ = run(capsys, ["pde", "solve", "--hamiltonian", "transport-k",
                         "--params", "k=0.5", "--init", "sin", "--driver", drv,
                         "--box=-3:3:101", "--eval=-1:1:11",
                         "--slices", "5", "-o", d])
    assert rc == 0
    idx = json.load(open(os.path.join(d, "slice_index.json")))
    jsonschema.validate(idx, load_schema("solution_index"))
    assert len(idx["files"]) == 5 and len(idx["times"]) == 5
    pts, u, du = read_solution_slice(os.path.join(d, idx["files"][-1]))
    assert pts.shape == (11, 1) and u.shape == (11,) and du.shape == (11, 1)


@pytest.mark.parametrize("init, substeps, box", [("neg-half-square", "1", "--box=-2:2:101"),
                                                 ("sin", "2", "--box=-2:2:41;-1:1:9")])
def test_pde_caustic_equals_char_field_payload(capsys, negline_csv, init, substeps, box):
    dim = box.count(";") + 1
    rc, out = run(capsys, ["pde", "caustic", "--hamiltonian", "burgers-half-p-squared",
                           "--init", init, "--driver", negline_csv, box,
                           "--dim", str(dim), "--substeps", substeps])
    assert rc == 0
    grid = cli._box(box.split("=")[1], dim, "--box")
    stream = youngflow.CharStream(
        youngflow.builtins.get_hamiltonian("burgers-half-p-squared", dim),
        read_path_csv(negline_csv), youngflow.builtins.get_initial_data(init, dim),
        grid, substeps=int(substeps))
    for _ in stream.blocks():  # run to its end: tau and folded are final
        pass
    want = {
        "tau_map": jsonable_times(stream.tau.reshape(grid.counts)),
        "min_tau": float(stream.tau.min()),
        "n_folded": int(stream.folded.sum()),
        "horizon": float(stream.times[-1]),
        "box": {"lower": list(grid.lower), "upper": list(grid.upper),
                "counts": list(grid.counts)},
    }
    doc = json.loads(out)
    assert doc.pop("meta")["tool"] == "youngflow"
    assert doc == want and want["n_folded"] > 0


@pytest.mark.parametrize("sub, extra", [("solve", ["--eval=-1:1:5", "-o", "OUT"]),
                                        ("residual", ["--eval=-1:1:5", "-o", "OUT"]),
                                        ("caustic", ["-o", "OUT"])])
def test_pde_driver_wider_than_the_hamiltonian_exits_two(capsys, workdir, lin17_csv, sub, extra):
    # a t,x1,x2 driver against a one-component Hamiltonian: x2 is not ignored
    wide = str(workdir / "wide17.csv")
    X = read_path_csv(lin17_csv)
    write_path_csv(wide, youngflow.SampledPath(X.times, np.column_stack([X.values, -X.values])))
    out = str(workdir / f"never_wide_{sub}")
    rc = main(["pde", sub, "--hamiltonian", "burgers-half-p-squared", "--init", "sin",
               "--driver", wide, "--box=-2:2:21"] + [out if a == "OUT" else a for a in extra])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: driver dimension does not match the component count\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("sub", ["caustic", "solve", "residual"])
def test_pde_seeds_that_blow_up_next_to_live_ones_exit_three(workdir, sub):
    # a = x - cos(x) X_t overflows for most seeds on a driver up to 1.5e308;
    # their frozen rows next to live ones make the seed Jacobian non-finite
    huge = workdir / "huge.csv"
    write_path_csv(str(huge), youngflow.SampledPath(np.linspace(0.0, 1.0, 65),
                                                    np.linspace(0.0, 1.5e308, 65)))
    out = workdir / f"never_huge_{sub}"
    argv = ["pde", sub, "--hamiltonian", "burgers-half-p-squared", "--init", "sin",
            "--box=-3:3:41", "--substeps", "2", "--driver", str(huge), "-o", str(out)]
    res = subprocess.run([sys.executable, "-m", "youngflow.cli", *argv]
                         + ([] if sub == "caustic" else ["--eval=-1:1:5"]),
                         env=_src_env(), capture_output=True, text=True)
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.startswith("numeric failure: state became non-finite after t=")
    assert res.stderr.count("\n") == 1 and "Warning" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("rows, line, cells", [
    (["0,0,1", "1,2", "2,3,4"], 3, 2),  # a short row
    (["0,0,1", "1,2,3", "# a comment", "", "2,3,4,5"], 6, 4),  # a long row
    (["0,0,1,2", "1,2,3,4"], 2, 4),  # every row wider than the header
])
def test_ragged_csv_rows_exit_two_naming_the_line(capsys, workdir, rows, line, cells):
    bad = workdir / "ragged.csv"
    bad.write_text("t,x1,x2\n" + "\n".join(rows) + "\n")
    rc = main(["pvar", "--p", "2", "--path", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {bad}: line {line} has {cells} columns, the header has 3\n"


def test_non_numeric_csv_cell_exits_two_naming_the_line(capsys, workdir):
    bad = workdir / "badcell.csv"
    bad.write_text("t,x1\n# a comment\n0,1\n1, abc\n2,3\n")
    rc = main(["pvar", "--p", "2", "--path", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {bad}: line 4, column 2: 'abc' is not a number\n"


def test_csv_cell_only_loadtxt_refuses_keeps_its_error(capsys, workdir):
    # float() reads 1_0, １ and ١٢, np.loadtxt does not: the scan refuses
    # them as well, so numpy's row-counting message never goes out
    bad = workdir / "badcell.csv"
    for cell in ("1_0", "\uff11", "\u0661\u0662"):
        bad.write_text(f"t,x1\n# a comment\n0,1\n1, {cell}\n2,3\n")
        rc = main(["pvar", "--p", "2", "--path", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {bad}: line 4, column 2: {cell!r} is not a number\n"


@pytest.mark.parametrize("n", [2, 3, 17, 64, 129])
def test_slice_indices_equal_np_unique(n):
    for slices in range(1, n + 3):
        ref = np.unique(np.linspace(0, n - 1, slices).round().astype(int))
        assert np.array_equal(cli._slice_indices(n, slices), ref)


def test_pde_solve_leaves_numpy_ma_out(workdir, lin17_csv):
    code = ("import sys\nfrom youngflow.cli import main\n"
            f"rc = main(['pde', 'solve', '--hamiltonian', 'transport-k', '--init', 'sin',"
            f" '--driver', {lin17_csv!r}, '--box=-3:3:31', '--eval=-1:1:5',"
            f" '--slices', '9', '-o', {str(workdir / 'ma_sol')!r}])\n"
            "sys.exit(10 * rc + ('numpy.ma' in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True)
    assert res.returncode == 0, res.stderr


# ------------------------------------------------------------- determinism

def test_gen_is_byte_identical(capsys, workdir):
    a, b = str(workdir / "rep_a.csv"), str(workdir / "rep_b.csv")
    run(capsys, ["gen", "fbm", "--hurst", "0.6", "--n", "128", "--seed", "11",
                 "-o", a])
    run(capsys, ["gen", "fbm", "--hurst", "0.6", "--n", "128", "--seed", "11",
                 "-o", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_json_identical_modulo_meta(capsys, lin17_csv, workdir):
    outs = []
    for name in ("r1.json", "r2.json"):
        f = str(workdir / name)
        rc, _ = run(capsys, ["pvar", "--p", "1.5", "--path", lin17_csv,
                             "--out", f])
        assert rc == 0
        outs.append(json.load(open(f)))
    for doc in outs:
        assert set(doc["meta"]) == {"created", "tool", "version"}
        doc.pop("meta")
    assert outs[0] == outs[1]


# ------------------------------------------------------------------ config

def test_config_file_precedence(capsys, workdir, lin17_csv):
    cfg = str(workdir / "opts.cfg")
    with open(cfg, "w") as fh:
        fh.write("# defaults for integrate\ntag=right\nq=1.2\n")
    base = ["integrate", "--integrand", lin17_csv, "--driver", lin17_csv]

    _, out = run(capsys, base)
    assert json.loads(out)["tag"] == "left"  # built-in default

    _, out = run(capsys, base + ["--config", cfg])
    doc = json.loads(out)
    assert doc["tag"] == "right" and doc["q"] == 1.2  # config applied

    _, out = run(capsys, base + ["--tag", "left", "--config", cfg])
    doc = json.loads(out)
    assert doc["tag"] == "left" and doc["q"] == 1.2  # explicit flag wins



# ----------------------------------------------------- internal errors (4)

def test_non_finite_report_is_refused(capsys, monkeypatch, lin17_csv):
    # strict JSON has no NaN: a report holding one is refused, not written,
    # and the fault is the program's, not the user's
    real = cli.p_variation
    monkeypatch.setattr(cli, "p_variation", lambda path, p: dataclasses.replace(
        real(path, p), value=float("nan")))
    rc, out = run(capsys, ["pvar", "--p", "1.5", "--path", lin17_csv])
    assert rc == 4
    assert out == ""


def test_report_failing_its_schema_exits_four(capsys, monkeypatch, lin17_csv):
    real = cli.p_variation
    monkeypatch.setattr(cli, "p_variation", lambda path, p: dataclasses.replace(
        real(path, p), value=-1.0))  # pvar.schema.json: value has minimum 0
    rc = main(["pvar", "--p", "1.5", "--path", lin17_csv])
    out, err = capsys.readouterr()
    assert rc == 4 and out == ""
    assert err.startswith("internal error: SchemaError: ") and err.count("\n") == 1


def test_exception_escaping_a_handler_exits_four_without_traceback(
        capsys, monkeypatch, lin17_csv):
    def broken(path, p):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(cli, "p_variation", broken)
    rc = main(["pvar", "--p", "1.5", "--path", lin17_csv])
    out, err = capsys.readouterr()
    assert rc == 4 and out == ""
    assert err == "internal error: RuntimeError: unexpected state\n"


# --------------------------------------------------------- package surface

# Every public name of the package: a change to this list is a change of
# the library's contract, and is made here on purpose.
PUBLIC_NAMES = [
    "BlowUpError", "CausticError", "CharStream", "CheckReport", "DeterministicSpec",
    "DimensionMismatch", "FbmSpec", "FieldSpec", "FlowMap", "GenerationError", "GridBox",
    "HamiltonianSpec", "IntegralResult", "InversionError", "NewtonError", "NumericFailure",
    "Partition", "PathError", "PointMap", "ResidualReport", "ResourceError", "SampleDomain",
    "SampledPath", "ScalarHamiltonian", "ScalarObservable", "SmoothMap", "SolveConfig",
    "TimeDependentMap", "VariationResult", "YoungConditionError", "as_single_field",
    "assemble_solution_field", "chain_rule_residual", "check_conserved_algebraic",
    "check_conserved_trajectory", "check_infinitesimal_symmetry", "check_symmetry_map",
    "check_symmetry_trajectory", "compose_flows", "dyadic_prefix", "dyadic_steps",
    "fbm_increment_covariance", "fbm_value_covariance", "fold_times", "gen_deterministic",
    "gen_fbm", "holder_norm", "indefinite_integral", "interp_nodal", "invert_char_map",
    "ito_kunita_residual", "lie_bracket", "make_check_report", "make_residual_report",
    "p_variation", "p_variation_norm", "pde_residual", "propagate_observable",
    "residual_ladder", "seed_from_initial_data", "solve_flow", "solve_yde",
    "substitution_residual", "verify_compatibility", "verify_inverse_flow_equation",
    "young_integral", "young_loeve_bound",
]


def test_public_names_are_pinned():
    assert sorted(youngflow.__all__) == PUBLIC_NAMES


# The standard base of every error class of the package, kept from before
# the classes took PathError or NumericFailure as their exit kind, so that
# callers catching the standard base go on catching. A new error class is
# added here, and to an exit kind.
STANDARD_BASES = {
    "paths.PathError": ValueError, "paths.NumericFailure": ArithmeticError,
    "integrate.DimensionMismatch": ValueError, "integrate.YoungConditionError": ValueError,
    "builtins.UnknownBuiltin": LookupError, "io.SchemaError": Exception,
    "yde.BlowUpError": ArithmeticError, "yde.NewtonError": RuntimeError,
    "drivers.GenerationError": RuntimeError, "drivers.ResourceError": RuntimeError,
    "pde.CausticError": RuntimeError, "pde.InversionError": RuntimeError,
}


def test_every_error_class_has_an_exit_kind():
    # PathError exits 2, NumericFailure 3 and SchemaError, a fault of the program, 4
    found = {}
    for info in pkgutil.iter_modules(youngflow.__path__):
        mod = importlib.import_module(f"youngflow.{info.name}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == mod.__name__):
                found[f"{info.name}.{name}"] = obj
    assert sorted(found) == sorted(STANDARD_BASES)
    for key, cls in found.items():
        assert issubclass(cls, (youngflow.PathError, youngflow.NumericFailure, SchemaError)), key
        assert issubclass(cls, STANDARD_BASES[key]), key
