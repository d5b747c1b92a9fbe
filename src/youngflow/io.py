"""CSV and JSON serialization.

CSV layout: one row per grid time, `%.17g` everywhere so float64 values
round-trip exactly. Vector paths use the header `t,x1,...,xd`; operator
paths use `t,z11,...,zmk` in row-major order, and readers recover the
matrix shape by matching the labels against every factorization of the
column count. JSON documents carry their only timestamp inside a `meta`
block and are written with sorted keys; writers check them against the
schemas shipped with the package, with the small JSON Schema checker
below.
"""

from __future__ import annotations

import datetime
import json
import numbers
from collections.abc import Mapping, Sequence
from functools import lru_cache
from importlib import resources

import numpy as np

from . import __version__
from .paths import PathError, SampledPath

FLOAT_FMT = "%.17g"
# Rows formatted per write: bounds the text held in memory for any path.
_CSV_BLOCK_ROWS = 8192


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


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


def _write_csv(fname, labels: list, columns: list) -> None:
    """A header line, then `columns` (arrays of equal length, 1-d or 2-d)
    side by side, one `%.17g` value per cell.

    The bytes are those numpy's text writer gives for the same format and
    delimiter; one row template is applied to a block of rows at a time.
    """
    row = ",".join([FLOAT_FMT] * len(labels)) + "\n"
    with open(fname, "w") as fh:
        fh.write(",".join(labels) + "\n")
        for a in range(0, columns[0].shape[0], _CSV_BLOCK_ROWS):
            block = np.column_stack([c[a:a + _CSV_BLOCK_ROWS] for c in columns])
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def write_path_csv(fname, path: SampledPath) -> None:
    if path.is_operator:
        m, k = path.value_shape
        labels = _matrix_labels(m, k)
        flat = path.values.reshape(path.n_points, m * k)
    else:
        labels = _vector_labels(path.dim)
        flat = path.values
    _write_csv(fname, ["t"] + labels, [path.times, flat])


def _reads_as_float(text: str) -> bool:
    """Whether np.loadtxt reads the stripped cell text as a float: float()
    does, and it holds no underscore or non-ASCII character, which float()
    reads and loadtxt refuses."""
    try:
        float(text)
    except ValueError:
        return False
    return text.isascii() and "_" not in text


def _refuse_bad_rows(fname, width: int) -> None:
    """PathError at the first data row of fname whose cell count is not
    width or that holds a cell np.loadtxt does not read."""
    with open(fname) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#")[0].strip()  # loadtxt skips comments and blank lines
            if lineno == 1 or not text:
                continue
            cells = text.split(",")
            if len(cells) != width:
                raise PathError(f"{fname}: line {lineno} has {len(cells)} columns, "
                                f"the header has {width}")
            for col, cell in enumerate(cells, start=1):
                if not _reads_as_float(cell.strip()):
                    raise PathError(f"{fname}: line {lineno}, column {col}: "
                                    f"{cell.strip()!r} is not a number")


def read_path_csv(fname) -> SampledPath:
    with open(fname) as fh:
        cols = fh.readline().strip().split(",")
    kind, shape = _parse_header(cols)
    try:
        data = np.loadtxt(fname, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        _refuse_bad_rows(fname, len(cols))
        raise
    if data.shape[1] != len(cols):
        _refuse_bad_rows(fname, len(cols))
    times = data[:, 0]
    vals = data[:, 1:]
    if kind == "matrix":
        vals = vals.reshape(times.size, *shape)
    return SampledPath(times, vals)


# ----------------------------------------------------------------- JSON

class SchemaError(Exception):
    """A document fails its schema or strict JSON, or a schema uses a
    keyword that `validate` does not implement.

    Not a ValueError, which the CLI reports as a usage error: either case
    is a fault of the program, not of its input.
    """


# The JSON Schema (draft 2020-12) keywords the shipped schemas use, with
# jsonschema's semantics; any other keyword is refused, so that a schema
# cannot rely on a rule the checker would silently skip.
_KEYWORDS = frozenset({
    "type", "required", "properties", "items", "minimum", "exclusiveMinimum",
    "additionalProperties", "minItems", "maxItems", "const", "enum",
})
_ANNOTATIONS = frozenset({"$schema", "title"})


def _is_number(v) -> bool:
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or (isinstance(v, float) and v.is_integer())),
}


def _equal(a, b) -> bool:
    """JSON equality as jsonschema has it: True is not 1, but 1 is 1.0."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, Sequence) and isinstance(b, Sequence):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return False  # a bool equals only itself, caught by `is` above
    return a == b


def _check_keywords(schema, where: str) -> None:
    if isinstance(schema, bool):
        return
    if not isinstance(schema, dict):
        raise SchemaError(f"{where}: a schema must be an object or a boolean")
    unknown = schema.keys() - _KEYWORDS - _ANNOTATIONS
    if unknown:
        raise SchemaError(f"{where}: unsupported schema keyword(s) {sorted(unknown)}")
    types = schema.get("type", [])
    for name in [types] if isinstance(types, str) else types:
        if name not in _TYPES:
            raise SchemaError(f"{where}: unknown type {name!r}")
    for key, sub in schema.get("properties", {}).items():
        _check_keywords(sub, f"{where}/properties/{key}")
    for key in ("items", "additionalProperties"):
        if key in schema:
            _check_keywords(schema[key], f"{where}/{key}")


def _check(value, schema, where: str) -> None:
    if schema is True:
        return
    if schema is False:
        raise SchemaError(f"{where}: no value is allowed here")
    if "type" in schema:
        types = schema["type"]
        types = [types] if isinstance(types, str) else types
        if not any(_TYPES[name](value) for name in types):
            raise SchemaError(f"{where}: {value!r} is not of type {' or '.join(types)}")
    if "const" in schema and not _equal(value, schema["const"]):
        raise SchemaError(f"{where}: {schema['const']!r} was expected, got {value!r}")
    if "enum" in schema and not any(_equal(value, e) for e in schema["enum"]):
        raise SchemaError(f"{where}: {value!r} is not one of {schema['enum']!r}")
    if _is_number(value):
        # NaN compares false both ways and so passes, as in jsonschema;
        # strict rendering refuses it afterwards.
        if "minimum" in schema and value < schema["minimum"]:
            raise SchemaError(f"{where}: {value!r} is less than {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise SchemaError(f"{where}: {value!r} is not above {schema['exclusiveMinimum']!r}")
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise SchemaError(f"{where}: fewer than {schema['minItems']} items")
        if len(value) > schema.get("maxItems", len(value)):
            raise SchemaError(f"{where}: more than {schema['maxItems']} items")
        if "items" in schema:
            for i, item in enumerate(value):
                _check(item, schema["items"], f"{where}/{i}")
    elif isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise SchemaError(f"{where}: {key!r} is a required property")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            _check(item, props[key] if key in props else extra, f"{where}/{key}")


def validate(instance, schema) -> None:
    """Raise SchemaError unless `instance` conforms to `schema`."""
    _check_keywords(schema, "#")
    _check(instance, schema, "#")


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    ref = resources.files("youngflow").joinpath("schemas", f"{name}.schema.json")
    return json.loads(ref.read_text())


def make_meta() -> dict:
    return {"created": _utc_now(), "tool": "youngflow", "version": __version__}


def render_json(payload: dict, schema: str | None = None) -> str:
    doc = dict(payload)
    doc["meta"] = make_meta()
    if schema is not None:
        validate(doc, load_schema(schema))
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or infinity: not strict RFC 8259 JSON
        raise SchemaError(f"#: {exc}") from exc


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
    """One trajectory CSV per initial point plus a JSON index.

    Each file holds the bytes write_path_csv gives for its trajectory. The
    files are written a block of rows at a time, and the shared `t` column
    of a block is formatted once, into the row template of every file.
    """
    import os
    os.makedirs(dirpath, exist_ok=True)
    if not np.isfinite(flow.states).all():
        raise PathError("values must be finite")  # as write_path_csv's SampledPath
    m, d = flow.states.shape[1:]
    files = [f"{stem}_{i:04d}.csv" for i in range(m)]
    paths = [os.path.join(dirpath, name) for name in files]
    value_cells = "," + ",".join([FLOAT_FMT] * d) + "\n"
    for a in range(0, flow.times.size, _CSV_BLOCK_ROWS):
        times = (FLOAT_FMT % t for t in flow.times[a:a + _CSV_BLOCK_ROWS].tolist())
        rows = "".join([t + value_cells for t in times])  # no '%' in a formatted float
        block = flow.states[a:a + _CSV_BLOCK_ROWS]
        for i, path in enumerate(paths):
            with open(path, "a" if a else "w") as fh:
                if not a:
                    fh.write(",".join(["t"] + _vector_labels(d)) + "\n")
                fh.write(rows % tuple(block[:, i].ravel().tolist()))
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
        _write_csv(os.path.join(dirpath, name), labels, [sol.points, sol.u[r], sol.du[r]])
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
