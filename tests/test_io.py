"""CSV round-trips, JSON schemas, and composite disk layouts."""

import copy
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

import youngflow
from youngflow import io as yio
from youngflow.cli import main

from youngflow import (
    CharStream,
    FbmSpec,
    FlowMap,
    GridBox,
    PathError,
    SampledPath,
    assemble_solution_field,
    gen_fbm,
    solve_flow,
)
from youngflow.builtins import get_field, get_hamiltonian, get_initial_data
from youngflow.io import (
    SchemaError,
    jsonable_times,
    load_schema,
    make_meta,
    read_json,
    read_path_csv,
    read_solution_slice,
    render_json,
    validate,
    write_flow_map,
    write_json,
    write_path_csv,
    write_solution_field,
)


def test_vector_csv_round_trip_is_exact(tmp_path):
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=17))
    f = tmp_path / "path.csv"
    write_path_csv(f, X)
    back = read_path_csv(f)
    assert np.array_equal(back.times, X.times)
    assert np.array_equal(back.values, X.values)
    header = f.read_text().splitlines()[0]
    assert header == "t,x1"


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    Z = SampledPath(np.linspace(0, 1, 9), rng.standard_normal((9, 2, 3)))
    f = tmp_path / "op.csv"
    write_path_csv(f, Z)
    header = f.read_text().splitlines()[0]
    assert header == "t,z11,z12,z13,z21,z22,z23"
    back = read_path_csv(f)
    assert back.value_shape == (2, 3)
    assert np.array_equal(back.values, Z.values)


def test_bad_headers_rejected(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("time,x1\n0,0\n1,1\n")
    with pytest.raises(PathError):
        read_path_csv(f)
    f.write_text("t\n0\n1\n")
    with pytest.raises(PathError):
        read_path_csv(f)
    f.write_text("t,x1,y2\n0,0,0\n1,1,1\n")
    with pytest.raises(PathError):
        read_path_csv(f)


def test_make_meta_fields():
    meta = make_meta()
    assert meta["tool"] == "youngflow"
    assert set(meta) == {"created", "tool", "version"}
    assert "T" in meta["created"]


def test_render_json_sorted_and_validated():
    text = render_json({"b": 1, "a": 2})
    doc = json.loads(text)
    assert doc["a"] == 2 and "meta" in doc
    assert text.index('"a"') < text.index('"b"')
    with pytest.raises(SchemaError):
        render_json({"files": "notalist"}, schema="flow_index")


def test_jsonable_times_maps_inf_to_null():
    out = jsonable_times([[0.5, np.inf], [1.0, 2.0]])
    assert out == [[0.5, None], [1.0, 2.0]]
    assert jsonable_times(np.inf) is None


def test_write_read_json(tmp_path):
    f = tmp_path / "doc.json"
    doc = write_json(f, {"value": 1.25})
    assert read_json(f) == doc


def test_flow_map_layout(tmp_path):
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=33, seed=3))
    flow = solve_flow(get_field("scaling", dim=1), X, [[1.0], [2.0], [3.0]])
    index = write_flow_map(tmp_path / "flow", flow)
    assert index["files"] == ["flow_0000.csv", "flow_0001.csv", "flow_0002.csv"]
    assert index["n_times"] == 33
    assert index["alive_until"] == [1.0, 1.0, 1.0]
    on_disk = read_json(tmp_path / "flow" / "flow_index.json")
    assert on_disk == index
    jsonschema.validate(on_disk, load_schema("flow_index"))
    back = read_path_csv(tmp_path / "flow" / "flow_0001.csv")
    assert np.array_equal(back.values, flow.states[:, 1, :])


def test_solution_field_layout(tmp_path):
    X = gen_fbm(FbmSpec(hurst=0.8, n_points=33, seed=5))
    H = get_hamiltonian("transport-k", dim=1, params={"k": 0.5})
    phi = get_initial_data("sin", dim=1)
    box = GridBox(lower=(-3.0,), upper=(3.0,), counts=(61,))
    stream = CharStream(H, X, phi, box)
    pts = np.linspace(-1.0, 1.0, 5)[:, None]
    sol = assemble_solution_field(stream, pts, times=X.times[::8])
    index = write_solution_field(tmp_path / "sol", sol)
    assert len(index["files"]) == 5
    assert index["n_eval_points"] == 5
    # transport never folds: tau is the horizon, sigma never fires
    assert all(v == pytest.approx(1.0) for v in index["tau_map"])
    assert all(v is None for v in index["sigma_proxy"])
    points, u, du = read_solution_slice(tmp_path / "sol" / "slice_0002.csv")
    assert np.array_equal(points, sol.points)
    assert np.array_equal(u, sol.u[2])
    assert np.array_equal(du, sol.du[2])


def test_read_solution_slice_rejects_other_csvs(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("t,x1\n0,0\n")
    with pytest.raises(PathError):
        read_solution_slice(f)
    f.write_text("x1,u,du1,extra\n0,0,0,0\n")
    with pytest.raises(PathError):
        read_solution_slice(f)


# ------------------------------------------------- CSV writer vs savetxt

def _savetxt(fname, labels, columns):
    """The writer before the block writer: the byte oracle."""
    np.savetxt(fname, np.column_stack(columns), delimiter=",", fmt="%.17g",
               header=",".join(labels), comments="")


# finite extremes a path may hold; slices add NaN and infinities
_SPECIALS = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3]


def _rows(n, width, seed):
    vals = np.random.default_rng(seed).standard_normal((n, width)) * 10.0 ** np.arange(width)
    k = min(n, len(_SPECIALS))
    vals[:k, 0] = _SPECIALS[:k]
    return vals


_B = yio._CSV_BLOCK_ROWS


@pytest.mark.parametrize("n", [2, _B - 1, _B, _B + 1, 3 * _B + 5])
def test_path_csv_bytes_match_savetxt(tmp_path, n):
    times = np.linspace(0.0, 2.0, n)
    vec = SampledPath(times, _rows(n, 3, n))
    op = SampledPath(times, _rows(n, 6, n + 1).reshape(n, 2, 3))
    for path, labels in ((vec, ["t", "x1", "x2", "x3"]),
                         (op, ["t", "z11", "z12", "z13", "z21", "z22", "z23"])):
        write_path_csv(tmp_path / "new.csv", path)
        _savetxt(tmp_path / "old.csv", labels,
                 [path.times, path.values.reshape(n, -1)])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("k", [6, _B + 1])
def test_slice_csv_bytes_match_savetxt(tmp_path, k):
    u = _rows(2 * k, 1, k).reshape(2, k)
    u[0, :5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    du = _rows(2 * k, 2, k + 1).reshape(2, k, 2)
    du[1, 1, :] = [np.nan, -np.inf]
    sol = SimpleNamespace(points=_rows(k, 2, 0), u=u, du=du, times=np.array([0.0, 1.0]),
                          tau_map=np.array([1.0]), sigma_proxy=np.array([np.inf]))
    index = write_solution_field(tmp_path / "sol", sol)
    for r, name in enumerate(index["files"]):
        _savetxt(tmp_path / "old.csv", ["x1", "x2", "u", "du1", "du2"],
                 [sol.points, u[r], du[r]])
        assert (tmp_path / "sol" / name).read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("n, d", [(2, 1), (_B + 1, 2), (2 * _B + 3, 3)])
def test_flow_map_bytes_match_path_csv(tmp_path, n, d):
    times = np.linspace(0.0, 3.0, n) ** 1.5
    states = _rows(n, 4 * d, n).reshape(n, 4, d)
    flow = FlowMap(times=times, initial_points=states[0], states=states, jacobians=None,
                   alive_until=np.full(4, times[-1]))
    index = write_flow_map(tmp_path / "flow", flow)
    assert len(index["files"]) == 4
    for i, name in enumerate(index["files"]):
        write_path_csv(tmp_path / "one.csv", flow.trajectory(i))
        assert (tmp_path / "flow" / name).read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_flow_map_memory_is_bounded(tmp_path):
    # 2^18 + 1 points: one file's text would be ~11 MB
    n = 2 ** 18 + 1
    states = np.random.default_rng(2).standard_normal((n, 2, 1))
    flow = FlowMap(times=np.linspace(0.0, 1.0, n), initial_points=states[0], states=states,
                   jacobians=None, alive_until=np.ones(2))
    tracemalloc.start()
    try:
        write_flow_map(tmp_path / "flow", flow)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert read_path_csv(tmp_path / "flow" / "flow_0001.csv").values[-1, 0] == states[-1, 1, 0]


def test_flow_map_refuses_non_finite_states(tmp_path):
    states = np.array([[[1.0]], [[np.nan]]])
    flow = FlowMap(times=np.array([0.0, 1.0]), initial_points=states[0], states=states,
                   jacobians=None, alive_until=np.ones(1))
    with pytest.raises(PathError, match="values must be finite"):
        write_flow_map(tmp_path / "flow", flow)


def test_path_csv_memory_is_bounded(tmp_path):
    # 2^20 + 1 points: the whole text would be ~45 MB, the stacked array 16 MB
    n = 2 ** 20 + 1
    path = SampledPath(np.linspace(0.0, 1.0, n),
                       np.random.default_rng(1).standard_normal(n))
    tracemalloc.start()
    try:
        write_path_csv(tmp_path / "big.csv", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    with open(tmp_path / "big.csv") as fh:
        assert sum(1 for _ in fh) == n + 1


# ----------------------------------------- schema checker vs jsonschema

SCHEMAS = ("pvar", "integral", "residual", "check", "compose", "caustic",
           "gen_meta", "flow_index", "solution_index")


def _verdicts(doc, schema):
    """(in-package verdict, jsonschema verdict): True when the doc conforms."""
    try:
        validate(doc, schema)
        ours = True
    except SchemaError:
        ours = False
    return ours, jsonschema.Draft202012Validator(schema).is_valid(doc)


@pytest.fixture(scope="module")
def emitted_docs(tmp_path_factory):
    """Every (document, schema) pair rendered by a run of CLI calls that
    together write all nine kinds of JSON."""
    d = tmp_path_factory.mktemp("emitted")
    lin, fbm, neg = str(d / "lin.csv"), str(d / "fbm.csv"), str(d / "neg.csv")
    calls = [
        ["gen", "linear", "--n", "65", "-o", lin],
        ["gen", "fbm", "--n", "65", "--seed", "3", "-o", fbm, "--meta", str(d / "m.json")],
        ["gen", "polygonal", "--knots", "0,-1.5", "--n", "33", "--horizon", "1.5", "-o", neg],
        ["pvar", "--p", "1.5", "--path", fbm],
        ["integrate", "--integrand", fbm, "--driver", fbm, "--p", "1.4", "--q", "1.4"],
        ["integrate", "--integrand", lin, "--driver", fbm, "--tag", "midpoint-time"],
        ["check", "chain", "--g", "square", "--path", fbm, "--levels", "3"],
        ["check", "conserved", "--field", "rotation", "--dim", "2", "--samples", "16"],
        ["check", "conserved", "--field", "rotation", "--dim", "2", "--mode", "trajectory",
         "--driver", fbm, "--y0", "0.5,0.5", "--levels", "3"],
        ["check", "symmetry", "--map", "translation", "--field", "rotation", "--dim", "2",
         "--samples", "16"],
        ["check", "infinitesimal", "--generator", "rotation", "--field", "scaling",
         "--dim", "2", "--samples", "16", "--flow-times", "0.5"],
        ["compose", "--outer-field", "scaling", "--outer-driver", lin, "--inner-field",
         "scaling", "--inner-driver", fbm, "--dim", "1", "--y0", "0.3", "--levels", "3"],
        ["flow", "--field", "scaling", "--dim", "1", "--driver", lin, "--grid", "0.5:1.5:3",
         "-o", str(d / "flow")],
        ["pde", "caustic", "--hamiltonian", "burgers-half-p-squared", "--init",
         "neg-half-square", "--driver", neg, "--box=-2:2:21"],
        ["pde", "solve", "--hamiltonian", "transport-k", "--init", "sin", "--driver", fbm,
         "--box=-3:3:41", "--eval=-1:1:5", "--slices", "3", "-o", str(d / "sol")],
        ["pde", "residual", "--hamiltonian", "transport-k", "--init", "sin", "--driver", fbm,
         "--box=-3:3:41", "--eval=-1:1:5", "--levels", "2"],
    ]
    seen = []

    def recording(doc, schema):
        seen.append((doc, schema))
        validate(doc, schema)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(yio, "validate", recording)
        for argv in calls:
            assert main(argv) in (0, 1), argv
    return seen


def test_checkers_agree_on_emitted_documents(emitted_docs):
    titles = set()
    for doc, schema in emitted_docs:
        assert _verdicts(doc, schema) == (True, True), schema["title"]
        titles.add(schema["title"])
    assert titles == {load_schema(name)["title"] for name in SCHEMAS}


def _meta():
    return {"created": "2026-01-01T00:00:00+00:00", "tool": "youngflow", "version": "0.1.0"}


_LEVELS = [{"mesh": 0.5, "residual": 0.1}]
# One valid document per schema; each case below changes one value.
_BASE = {
    "pvar": {"p": 1.5, "value": 1.0, "sup_norm": 1.0, "norm": 2.0,
             "optimal_partition": [0, 16], "n_points": 17},
    "integral": {"value": [0.5], "tag": "left", "interval": [0.0, 1.0],
                 "certified_bound": None, "p": None, "q": 1.4, "partition_mesh": 0.0625},
    "residual": {"check": "chain", "levels": _LEVELS, "converged": True, "pass": True,
                 "details": {}},
    "check": {"check": "symmetry", "pass": False, "max_residual": 0.5, "tol": 1e-8,
              "arg_max_point": [0.1, 0.2], "details": {"n": 3}},
    "compose": {"y0": [0.3], "final_composed": [0.8], "final_direct": [0.8],
                "max_deviation": 0.0, "levels": _LEVELS, "converged": True},
    "caustic": {"tau_map": [1.0, None], "min_tau": 1.0, "n_folded": 1, "horizon": 1.5,
                "box": {"lower": [-2.0], "upper": [2.0], "counts": [101]}},
    "gen_meta": {"kind": "fbm", "generator": "youngflow-gen-2", "n_points": 64,
                 "horizon": 1.0, "seed": 3, "params": {"hurst": 0.75}},
    "flow_index": {"files": ["flow_0000.csv"], "initial_points": [[1.0]],
                   "alive_until": [1.0], "n_times": 17, "horizon": 1.0},
    "solution_index": {"files": ["slice_0000.csv"], "times": [0.0], "tau_map": [1.0],
                       "sigma_proxy": [None, 2.0], "n_eval_points": 5},
}
NAN = float("nan")
# (schema, dotted key path, new value or _DROP, conforms)
_DROP = object()
_CASES = [
    # type, and number / integer against bool
    ("pvar", "p", "1.5", False),
    ("pvar", "value", True, False),
    ("pvar", "n_points", 17.0, True),
    ("pvar", "n_points", 17.5, False),
    ("pvar", "n_points", False, False),
    ("check", "pass", 1, False),
    ("integral", "value", 0.5, False),
    ("flow_index", "initial_points.0", [1.0, "x"], False),
    # minimum: -1 fails, NaN and -0.0 pass as in jsonschema
    ("pvar", "value", -1, False),
    ("pvar", "value", NAN, True),
    ("compose", "max_deviation", -0.0, True),
    ("check", "max_residual", NAN, True),
    ("pvar", "optimal_partition.0", -1, False),
    ("caustic", "box.counts.0", 1, False),
    ("solution_index", "n_eval_points", 0, False),
    # exclusiveMinimum
    ("gen_meta", "horizon", 0, False),
    ("gen_meta", "horizon", 0.0, False),
    ("gen_meta", "horizon", 5e-324, True),
    ("gen_meta", "horizon", NAN, True),
    # required, at the top and nested
    ("pvar", "p", _DROP, False),
    ("pvar", "meta.version", _DROP, False),
    ("residual", "levels.0.residual", _DROP, False),
    ("pvar", "sup_norm", _DROP, True),
    # additionalProperties: false, at the top and nested; meta allows extras
    ("pvar", "extra", 1, False),
    ("caustic", "box.extra", [], False),
    ("residual", "levels.0.extra", 0.0, False),
    ("pvar", "meta.extra", 1, True),
    # minItems / maxItems
    ("solution_index", "times", [], False),
    ("flow_index", "files", [], False),
    ("residual", "levels", [], False),
    ("pvar", "optimal_partition", [0], False),
    ("integral", "interval", [0.0], False),
    ("integral", "interval", [0.0, 0.5, 1.0], False),
    # const and enum
    ("pvar", "meta.tool", "youngflow ", False),
    ("integral", "tag", "center", False),
    ("integral", "tag", "right", True),
    # null in ["number", "null"], and null where only numbers are allowed
    ("integral", "certified_bound", None, True),
    ("integral", "certified_bound", True, False),
    ("integral", "p", "1.4", False),
    ("gen_meta", "seed", 3.0, True),
    ("gen_meta", "seed", True, False),
    ("check", "arg_max_point", None, True),
    ("check", "arg_max_point", [0.1, None], False),
    ("solution_index", "tau_map", [None], False),
    ("solution_index", "sigma_proxy", ["1"], False),
    ("flow_index", "alive_until", [1.0, None], False),
]


def _mutate(doc, dotted, value):
    *parents, last = dotted.split(".")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if isinstance(node, list):
        node[int(last)] = value
    elif value is _DROP:
        del node[last]
    else:
        node[last] = value


@pytest.mark.parametrize("name", SCHEMAS)
def test_base_documents_conform(name):
    schema = load_schema(name)
    jsonschema.Draft202012Validator.check_schema(schema)
    assert _verdicts(dict(_BASE[name], meta=_meta()), schema) == (True, True)


@pytest.mark.parametrize("name, dotted, value, conforms", _CASES)
def test_checkers_agree_on_hand_built_documents(name, dotted, value, conforms):
    doc = copy.deepcopy(dict(_BASE[name], meta=_meta()))
    _mutate(doc, dotted, value)
    assert _verdicts(doc, load_schema(name)) == (conforms, conforms)


@pytest.mark.parametrize("schema, doc, conforms", [
    ({"const": 1}, True, False),
    ({"const": 1}, 1.0, True),
    ({"const": True}, 1, False),
    ({"const": False}, 0, False),
    ({"const": False}, False, True),
    ({"const": [1, {"a": 0}]}, [1.0, {"a": 0.0}], True),
    ({"const": [1, {"a": 0}]}, [True, {"a": 0}], False),
    ({"const": [1, {"a": 0}]}, [1, {"a": False}], False),
    ({"enum": [1, "a"]}, True, False),
    ({"enum": [1, "a"]}, 1.0, True),
    ({"enum": [0, None]}, False, False),
    ({"enum": [[0]]}, [0.0], True),
    ({"type": "integer"}, 2.0, True),
    ({"type": "integer"}, True, False),
    ({"type": "number"}, True, False),
    ({"type": "number"}, np.float64(0.5), True),
    ({"type": "array"}, (1, 2), False),
    ({"type": "object", "additionalProperties": {"type": "string"}}, {"a": "x"}, True),
    ({"type": "object", "additionalProperties": {"type": "string"}}, {"a": 1}, False),
    ({"items": {"minimum": 0}, "maxItems": 2}, "not an array", True),
])
def test_checkers_agree_on_type_and_equality_hazards(schema, doc, conforms):
    assert _verdicts(doc, schema) == (conforms, conforms)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"properties": {"a": {"format": "date"}}},
    {"items": {"uniqueItems": True}},
    {"additionalProperties": {"maximum": 3}},
    {"type": "float"},
    {"items": [{"type": "number"}]},
])
def test_unknown_schema_keyword_is_refused(schema):
    # refused even where the document never reaches the keyword
    with pytest.raises(SchemaError):
        validate({}, schema)


def test_schema_error_is_not_a_usage_error():
    # the CLI maps ValueError to exit 2; a failing schema is a program fault
    assert not issubclass(SchemaError, ValueError)


def test_meta_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == youngflow.__version__
    assert make_meta()["version"] == youngflow.__version__
