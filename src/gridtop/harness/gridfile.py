"""JSON grid files and CSV voltage-sample files.

Grid file schema::

    {
      "meta":  {"name": "..."},
      "nodes": [{"id": 0, "kind": "substation" | "load"}, ...],
      "edges": [{"from": 0, "to": 4, "r": 0.12, "x": 0.09,
                 "closed": true, "switchable": false}, ...]
    }

``closed`` marks the operational forest; when no edge carries the key the
file declares a bare grid with no forest.  ``switchable`` (optional,
default false) marks lines with tie switches and only affects structural
bookkeeping.  Sample files are plain CSV, one column per load node id
(header row) and one row per snapshot of voltage deviations in per-unit;
floats are written in shortest round-trip form so a file round trip is
exact.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from pathlib import Path

import numpy as np

from ..errors import GridTopError, ParseError
from ..grid import LOAD, SUBSTATION, ForestConfig, GridGraph, GridNode, LineEdge, _repeated
from ..powerflow import VoltageSamples

__all__ = [
    "parse_grid",
    "grid_to_dict",
    "write_grid",
    "write_samples",
    "read_samples",
]


def _require(doc: dict, key: str, types, location: str):
    if key not in doc:
        raise ParseError(f"missing required key {key!r}", location)
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, types):  # bool is an int subclass; true is not 1
        raise ParseError(f"key {key!r} has wrong type {type(val).__name__}", location)
    return val


def _number(doc: dict, key: str, location: str) -> float:
    return float(_require(doc, key, (int, float), location))


def _read_text(path: str | Path, noun: str) -> str:
    """The text of a UTF-8 file; a ParseError naming the file when it
    cannot be read or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {noun}: {exc}", str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {noun}: not UTF-8 text ({exc.reason} at byte {exc.start})",
                         str(path)) from exc


def _json_document(text: str, where: str):
    """The JSON document in ``text``; a ParseError at ``where:line:col``
    when it is not valid JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"{where}:{exc.lineno}:{exc.colno}") from exc


def parse_grid(source: str | Path | dict) -> tuple[GridGraph, ForestConfig | None]:
    """Parse and validate a grid file (path, JSON text, or parsed dict).

    Syntax errors carry line/column; schema violations carry the document
    path of the offending entry; structural violations name the invariant.
    """
    label = ""
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if isinstance(source, Path) or not text.lstrip().startswith("{"):
            label = text
            path = Path(text)
            if not path.exists():
                raise ParseError("file not found", label)
            text = _read_text(path, "grid file")
        doc = _json_document(text, label or "<string>")
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object", label or "<document>")

    meta = doc.get("meta", {})
    name = meta.get("name", "") if isinstance(meta, dict) else ""

    nodes = []
    for i, entry in enumerate(_require(doc, "nodes", list, "document")):
        loc = f"nodes[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("node entry must be an object", loc)
        nid = _require(entry, "id", int, loc)
        kind = _require(entry, "kind", str, loc)
        if kind not in (SUBSTATION, LOAD):
            raise ParseError(f"kind must be 'substation' or 'load', got {kind!r}", loc)
        nodes.append(GridNode(id=nid, kind=kind))

    edges = []
    closed = []
    declares_forest = False
    for i, entry in enumerate(_require(doc, "edges", list, "document")):
        loc = f"edges[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("edge entry must be an object", loc)
        u = _require(entry, "from", int, loc)
        v = _require(entry, "to", int, loc)
        r = _number(entry, "r", loc)
        x = _number(entry, "x", loc)
        switchable = entry.get("switchable", False)
        if not isinstance(switchable, bool):
            raise ParseError("key 'switchable' must be a boolean", loc)
        if "closed" in entry:
            declares_forest = True
            if not isinstance(entry["closed"], bool):
                raise ParseError("key 'closed' must be a boolean", loc)
            if entry["closed"]:
                closed.append(i)
        edges.append(LineEdge(u=u, v=v, r=r, x=x, switchable=switchable))

    grid = GridGraph(nodes=tuple(nodes), edges=tuple(edges), name=name)
    forest = ForestConfig.from_closed_edges(grid, closed) if declares_forest else None
    return grid, forest


def grid_to_dict(grid: GridGraph, forest: ForestConfig | None = None) -> dict:
    closed = set(forest.closed_edges) if forest is not None else None
    edges = []
    for i, e in enumerate(grid.edges):
        entry = {"from": e.u, "to": e.v, "r": e.r, "x": e.x}
        if closed is not None:
            entry["closed"] = i in closed
        if e.switchable:
            entry["switchable"] = True
        edges.append(entry)
    return {
        "meta": {"name": grid.name},
        "nodes": [{"id": n.id, "kind": n.kind} for n in grid.nodes],
        "edges": edges,
    }


def write_grid(path: str | Path, grid: GridGraph, forest: ForestConfig | None = None) -> None:
    Path(path).write_text(json.dumps(grid_to_dict(grid, forest), indent=2) + "\n")


def write_samples(path: str | Path, samples: VoltageSamples) -> None:
    # No field needs CSV quoting: ids are integers and a float's repr holds
    # no comma, quote or line break.
    lines = [",".join(str(nid) for nid in samples.nodes)]
    lines.extend(",".join(map(repr, row)) for row in samples.eps.tolist())
    lines.append("")
    try:
        Path(path).write_text("\n".join(lines), newline="")
    except OSError as exc:
        raise GridTopError(f"cannot write sample file {path}: {exc.strerror or exc}") from exc


def read_samples(source: str | Path) -> VoltageSamples:
    """Read a voltage-sample CSV back into a batch (deviations only).

    A well-formed file is parsed once by ``np.loadtxt``; anything that parse
    refuses or might read differently goes to ``_parse_samples_checked``,
    which either accepts it or raises the ParseError that names its line.
    """
    text = _read_text(source, "sample file")
    fast = _parse_samples_plain(text)
    return fast if fast is not None else _parse_samples_checked(text, str(source))


# ASCII controls that ``np.loadtxt`` strips from around a number as
# whitespace and ``float`` refuses.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_samples_plain(text: str) -> VoltageSamples | None:
    """The samples of a well-formed file, or None where the checked parser
    must decide.  Lines are split on "\\n" alone, as ``csv`` splits them:
    ``str.splitlines`` would also break a line at form feeds and other
    separators that ``float`` refuses inside a cell.  A header with a quote
    fails ``int`` here and goes to the checked parser, so the fields split
    here are the ``csv`` fields."""
    header, newline, body = text.partition("\n")
    if not newline or any(c in body for c in _LOADTXT_ONLY_SPACE):
        return None
    try:
        nodes = tuple(int(h) for h in header.split(","))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = np.loadtxt(body.split("\n"), delimiter=",", ndmin=2, comments=None)
    except (ValueError, Warning):
        return None
    if (_repeated(nodes) is not None or eps.shape[0] < 1 or eps.shape[1] != len(nodes)
            or not np.isfinite(eps).all()):
        return None
    return VoltageSamples(nodes=nodes, eps=eps, theta=None)


def _csv_rows(text: str, source: str):
    """The ``csv`` rows of ``text``; a ParseError at ``source:line`` where
    ``csv`` refuses a line."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", f"{source}:{reader.line_num}") from None


def _parse_samples_checked(text: str, source: str) -> VoltageSamples:
    """Parse sample-file text cell by cell with ``csv`` and ``float``,
    raising a ParseError at ``source:line`` for the first fault.

    ``read_samples`` runs this only on text its one-pass parse refused, and
    the tests use it as the reference that parse must agree with.
    """
    reader = _csv_rows(text, source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("sample file is empty", source) from None
    try:
        nodes = tuple(int(h) for h in header)
    except ValueError:
        raise ParseError("header row must hold integer node ids", f"{source}:1") from None
    if (nid := _repeated(nodes)) is not None:
        raise ParseError(f"header row lists node id {nid} twice", f"{source}:1")
    rows = []
    linenos = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(nodes):
            raise ParseError(f"expected {len(nodes)} columns, got {len(row)}", f"{source}:{lineno}")
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise ParseError("non-numeric sample value", f"{source}:{lineno}") from None
        linenos.append(lineno)
    if not rows:
        raise ParseError("sample file has a header but no samples", source)
    eps = np.array(rows)
    finite = np.isfinite(eps).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite sample value", f"{source}:{linenos[int(np.argmin(finite))]}")
    return VoltageSamples(nodes=nodes, eps=eps, theta=None)
