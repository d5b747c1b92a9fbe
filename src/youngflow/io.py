"""CSV and JSON serialization.

CSV layout: one row per grid time, `%.17g` everywhere so float64 values
round-trip exactly. Vector paths use the header `t,x1,...,xd`; operator
paths use `t,z11,...,zmk` in row-major order, and readers recover the
matrix shape by matching the labels against every factorization of the
column count. JSON documents carry their only timestamp inside a `meta`
block and are written with sorted keys; writers validate against the
schemas shipped with the package.
"""

from __future__ import annotations

import datetime
import json
from functools import lru_cache
from importlib import resources

import jsonschema
import numpy as np

from .paths import PathError, SampledPath

FLOAT_FMT = "%.17g"


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _tool_version() -> str:
    try:
        from importlib.metadata import version
        return version("youngflow")
    except Exception:
        return "unknown"


# ------------------------------------------------------------------ CSV

def _vector_labels(d: int) -> list:
    return [f"x{j + 1}" for j in range(d)]


def _matrix_labels(m: int, k: int) -> list:
    return [f"z{i + 1}{j + 1}" for i in range(m) for j in range(k)]


def _parse_header(cols: list):
    if not cols or cols[0] != "t":
        raise PathError("path CSV must start with a 't' column")
    d = len(cols) - 1
    if d == 0:
        raise PathError("path CSV has no value columns")
    if cols[1:] == _vector_labels(d):
        return "vector", (d,)
    for m in range(1, d + 1):
        if d % m == 0 and cols[1:] == _matrix_labels(m, d // m):
            return "matrix", (m, d // m)
    raise PathError(f"unrecognized path CSV header: {','.join(cols)}")


def write_path_csv(fname, path: SampledPath) -> None:
    if path.is_operator:
        m, k = path.value_shape
        labels = _matrix_labels(m, k)
        flat = path.values.reshape(path.n_points, m * k)
    else:
        labels = _vector_labels(path.dim)
        flat = path.values
    data = np.column_stack([path.times, flat])
    np.savetxt(fname, data, delimiter=",", fmt=FLOAT_FMT,
               header=",".join(["t"] + labels), comments="")


def read_path_csv(fname) -> SampledPath:
    with open(fname) as fh:
        header = fh.readline().strip()
    kind, shape = _parse_header(header.split(","))
    data = np.loadtxt(fname, delimiter=",", skiprows=1, ndmin=2)
    times = data[:, 0]
    vals = data[:, 1:]
    if kind == "matrix":
        vals = vals.reshape(times.size, *shape)
    return SampledPath(times, vals)


# ----------------------------------------------------------------- JSON

@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    ref = resources.files("youngflow").joinpath("schemas", f"{name}.schema.json")
    return json.loads(ref.read_text())


def make_meta() -> dict:
    return {"created": _utc_now(), "tool": "youngflow", "version": _tool_version()}


def render_json(payload: dict, schema: str | None = None) -> str:
    doc = dict(payload)
    doc["meta"] = make_meta()
    if schema is not None:
        jsonschema.validate(doc, load_schema(schema))
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(fname, payload: dict, schema: str | None = None) -> dict:
    text = render_json(payload, schema)
    with open(fname, "w") as fh:
        fh.write(text)
    return json.loads(text)


def read_json(fname) -> dict:
    with open(fname) as fh:
        return json.load(fh)


# ----------------------------------------------- composite disk layouts

def write_flow_map(dirpath, flow, stem: str = "flow") -> dict:
    """One trajectory CSV per initial point plus a JSON index."""
    import os
    os.makedirs(dirpath, exist_ok=True)
    files = []
    for i in range(flow.initial_points.shape[0]):
        name = f"{stem}_{i:04d}.csv"
        write_path_csv(os.path.join(dirpath, name), flow.trajectory(i))
        files.append(name)
    payload = {
        "files": files,
        "initial_points": flow.initial_points.tolist(),
        "alive_until": [float(t) for t in flow.alive_until],
        "n_times": int(flow.times.size),
        "horizon": float(flow.times[-1]),
    }
    return write_json(os.path.join(dirpath, f"{stem}_index.json"), payload,
                      schema="flow_index")


def jsonable_times(values):
    """Nested float lists with +inf (the 'never' sentinel) mapped to null."""
    arr = np.asarray(values, dtype=float)

    def conv(a):
        if a.ndim == 0:
            return None if np.isinf(a) else float(a)
        return [conv(x) for x in a]

    return conv(arr)


def write_solution_field(dirpath, sol, stem: str = "slice") -> dict:
    """One CSV per time slice (x1..xd,u,du1..dud) plus a JSON index."""
    import os
    os.makedirs(dirpath, exist_ok=True)
    d = sol.points.shape[1]
    labels = _vector_labels(d) + ["u"] + [f"du{j + 1}" for j in range(d)]
    files = []
    for r in range(sol.times.size):
        name = f"{stem}_{r:04d}.csv"
        data = np.column_stack([sol.points, sol.u[r], sol.du[r]])
        np.savetxt(os.path.join(dirpath, name), data, delimiter=",",
                   fmt=FLOAT_FMT, header=",".join(labels), comments="")
        files.append(name)
    payload = {
        "files": files,
        "times": [float(t) for t in sol.times],
        "tau_map": jsonable_times(sol.tau_map),
        "sigma_proxy": jsonable_times(sol.sigma_proxy),
        "n_eval_points": int(sol.points.shape[0]),
    }
    return write_json(os.path.join(dirpath, f"{stem}_index.json"), payload,
                      schema="solution_index")


def read_solution_slice(fname):
    """(points (k, d), u (k,), du (k, d)) from one slice CSV."""
    with open(fname) as fh:
        cols = fh.readline().strip().split(",")
    if "u" not in cols:
        raise PathError("not a solution slice CSV")
    d = cols.index("u")
    if cols != _vector_labels(d) + ["u"] + [f"du{j + 1}" for j in range(d)]:
        raise PathError(f"unrecognized slice header: {','.join(cols)}")
    data = np.loadtxt(fname, delimiter=",", skiprows=1, ndmin=2)
    return data[:, :d], data[:, d], data[:, d + 1:]
