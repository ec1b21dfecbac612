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
import itertools
import json
import math
from pathlib import Path

import numpy as np
import orjson

from ..errors import GridTopError, ParseError
from ..grid import (LOAD, SUBSTATION, ForestConfig, GridGraph, GridNode, LineEdge, _entry, _is_finite,
                    _is_index, _known_keys, _list_of, _repeated)
from ..powerflow import VoltageSamples

__all__ = [
    "parse_grid",
    "grid_to_dict",
    "write_grid",
    "write_samples",
    "read_samples",
]


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


_DOCUMENT_KEYS = ("meta", "nodes", "edges")
_NODE_KEYS = ("id", "kind")
_EDGE_KEYS = ("from", "to", "r", "x", "closed", "switchable")
_NODE_SHAPES = {("id", "kind"), ("kind", "id")}
_REQUIRED_EDGE_KEYS = {"from", "to", "r", "x"}


def parse_grid(source: str | Path | dict) -> tuple[GridGraph, ForestConfig | None]:
    """Parse and validate a grid file (path, JSON text, or parsed dict).

    Syntax errors carry line/column; schema violations carry the document
    path of the offending entry; structural violations name the invariant.

    Text is read by orjson and the document checked in bulk
    (``_plain_entries``).  Text orjson refuses, and a document that bulk
    check does not pass, go to ``json`` and the entry-by-entry walk
    (``_walked_entries``), which either accepts the document or raises the
    ParseError that names where it fails.
    """
    label = ""
    text = None
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
        try:
            doc = orjson.loads(text)
        except orjson.JSONDecodeError:
            doc = None
    entries = _plain_entries(doc)
    if entries is None:
        if text is not None:
            doc = _json_document(text, label or "<string>")
        entries = _walked_entries(doc, label)
    nodes, edges, name, closed = entries
    grid = GridGraph(nodes=nodes, edges=edges, name=name)
    forest = ForestConfig.from_closed_edges(grid, closed) if closed is not None else None
    return grid, forest


def _plain_entries(doc):
    """The nodes, lines, name and closed line indices (None when no line
    carries ``closed``) of a document that holds only what a grid file
    writes: the known keys, each required one present, with exact JSON
    types (int ids, int or float impedances, bool flags, str name and
    kinds) and finite impedances.  None for anything else, which
    ``_walked_entries`` must decide.  Where this returns entries, the walk
    would return the same."""
    if type(doc) is not dict or not doc.keys() <= set(_DOCUMENT_KEYS):
        return None
    meta, nodes, lines = doc.get("meta", {}), doc.get("nodes"), doc.get("edges")
    if type(meta) is not dict or not meta.keys() <= {"name"}:
        return None
    name = meta.get("name", "")
    if (type(name) is not str or type(nodes) not in (list, tuple) or type(lines) not in (list, tuple)
            or not {dict}.issuperset(map(type, itertools.chain(nodes, lines)))):
        return None
    shapes = {tuple(entry) for entry in lines}  # the key order of each line
    if not (_NODE_SHAPES.issuperset(map(tuple, nodes))
            and all(_REQUIRED_EDGE_KEYS <= set(keys) <= set(_EDGE_KEYS) for keys in shapes)):
        return None
    ids = [entry["id"] for entry in nodes]
    kinds = [entry["kind"] for entry in nodes]
    us = [entry["from"] for entry in lines]
    vs = [entry["to"] for entry in lines]
    rs = [entry["r"] for entry in lines]
    xs = [entry["x"] for entry in lines]
    closes = [entry.get("closed", False) for entry in lines]
    switches = [entry.get("switchable", False) for entry in lines]
    if (not {int}.issuperset(map(type, itertools.chain(ids, us, vs)))
            or not {str}.issuperset(map(type, kinds)) or not {SUBSTATION, LOAD}.issuperset(kinds)
            or not {int, float}.issuperset(map(type, itertools.chain(rs, xs)))
            or not {bool}.issuperset(map(type, itertools.chain(closes, switches)))):
        return None
    try:
        rs, xs = list(map(float, rs)), list(map(float, xs))
    except OverflowError:  # an integer too large for a float
        return None
    if not all(map(math.isfinite, itertools.chain(rs, xs))):
        return None
    closed = list(itertools.compress(range(len(lines)), closes)) if any("closed" in keys for keys in shapes) else None
    return (tuple(map(GridNode, ids, kinds)), tuple(map(LineEdge, us, vs, rs, xs, switches)), name, closed)


def _walked_entries(doc, label: str):
    """``_plain_entries``' result for any document, taken entry by entry;
    a ParseError at the document path of the first entry that fails."""
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object", label or "<document>")

    _known_keys(doc, _DOCUMENT_KEYS, "document", "a grid document")
    meta = _entry(doc, "meta", "document", dict, "an object", {})
    _known_keys(meta, ("name",), "meta", "meta")
    name = _entry(meta, "name", "meta", str, "a string", "")

    nodes = []
    for i, entry in enumerate(_entry(doc, "nodes", "document", _list_of(), "a list")):
        loc = f"nodes[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("node entry must be an object", loc)
        _known_keys(entry, _NODE_KEYS, loc, "a node")
        nid = _entry(entry, "id", loc, _is_index, "an integer")
        kind = _entry(entry, "kind", loc, lambda k: k in (SUBSTATION, LOAD), "'substation' or 'load'")
        nodes.append(GridNode(id=nid, kind=kind))

    edges = []
    closed = []
    declares_forest = False
    for i, entry in enumerate(_entry(doc, "edges", "document", _list_of(), "a list")):
        loc = f"edges[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("edge entry must be an object", loc)
        _known_keys(entry, _EDGE_KEYS, loc, "an edge")
        u = _entry(entry, "from", loc, _is_index, "an integer")
        v = _entry(entry, "to", loc, _is_index, "an integer")
        r = float(_entry(entry, "r", loc, _is_finite, "a finite number"))
        x = float(_entry(entry, "x", loc, _is_finite, "a finite number"))
        switchable = _entry(entry, "switchable", loc, bool, "a boolean", False)
        if "closed" in entry:
            declares_forest = True
            if _entry(entry, "closed", loc, bool, "a boolean"):
                closed.append(i)
        edges.append(LineEdge(u=u, v=v, r=r, x=x, switchable=switchable))
    return tuple(nodes), tuple(edges), name, closed if declares_forest else None


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


def _rows_for_repr(eps: np.ndarray) -> np.ndarray:
    """Indices of the rows of finite ``eps`` that orjson writes otherwise
    than ``repr``: it writes every float's shortest round-trip digits, but
    lays out a nonzero value with magnitude below 1e-4 or from 1e16 up in
    its own exponent form (``1e-5`` for ``1e-05``, ``1e16`` for ``1e+16``)."""
    size = np.abs(eps)
    return np.flatnonzero((((size < 1e-4) | (size >= 1e16)) & (eps != 0.0)).any(axis=1))


# Rows per write in ``write_samples`` and bytes per read in
# ``_parse_samples_plain``: a sample file crosses memory one block of its text
# at a time, next to the array, never as a whole.
_WRITE_ROWS = 256
_READ_BYTES = 1 << 19


def write_samples(path: str | Path, samples: VoltageSamples) -> None:
    """Write a batch as a sample file that ``read_samples`` reads back bit
    for bit; a GridTopError naming the path, before the file is opened, for
    an empty batch or a non-finite value (with its row and node id), which
    no sample file may hold.

    Each value is written as its ``repr``, the digits coming from one orjson
    dump per row except in the rows ``_rows_for_repr`` picks.  No field needs
    CSV quoting, so the bytes are those ``csv.writer`` writes.  The rows are
    written ``_WRITE_ROWS`` at a time.
    """
    eps = np.ascontiguousarray(samples.eps, dtype=np.float64)
    if eps.size == 0:
        raise GridTopError(f"cannot write sample file {path}: the batch is empty (eps has shape {eps.shape})")
    finite = np.isfinite(eps)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise GridTopError(f"cannot write sample file {path}: non-finite value {float(eps[row, col])!r} "
                           f"in row {row} at node {samples.nodes[col]}")
    try:
        with open(path, "wb") as out:
            out.write(",".join(str(nid) for nid in samples.nodes).encode() + b"\n")
            for start in range(0, len(eps), _WRITE_ROWS):
                block = eps[start:start + _WRITE_ROWS]
                rows = [orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] for row in block]
                for i in _rows_for_repr(block):
                    rows[i] = ",".join(map(repr, block[i].tolist())).encode()
                rows.append(b"")
                out.write(b"\n".join(rows))
    except OSError as exc:
        raise GridTopError(f"cannot write sample file {path}: {exc.strerror or exc}") from exc


def read_samples(source: str | Path) -> VoltageSamples:
    """Read a voltage-sample CSV back into a batch (deviations only).

    A well-formed file is parsed one block at a time, row by row as JSON
    arrays by orjson; a file that parse refuses or might read differently,
    or cannot read at all, goes whole to ``_parse_samples_checked``, which
    either accepts it or raises the ParseError that names its line.
    """
    if not Path(source).is_file():
        # A pipe cannot be read twice, so its text is read whole.
        text = _read_text(source, "sample file")
        fast = _parse_samples_plain(io.BytesIO(text.encode()))
        return fast if fast is not None else _parse_samples_checked(text, str(source))
    try:
        with open(source, "rb") as raw:
            fast = _parse_samples_plain(raw)
    except OSError:
        fast = None
    if fast is not None:
        return fast
    return _parse_samples_checked(_read_text(source, "sample file"), str(source))


# Characters that JSON reads and a ``csv`` cell passed to ``float`` does not:
# the brackets, braces and quote of arrays, objects and strings and the first
# letters of true, false and null.  Each also fails ``int`` in a header field.
# No UTF-8 sequence of another character holds their bytes.
_JSON_ONLY = tuple(c.encode() for c in "[]{}\"tfn")


def _chunks(raw):
    """The bytes of a binary stream, ``_READ_BYTES`` at a time, with each
    "\\r\\n" and each other "\\r" read as "\\n", as a text read with
    universal newlines reads them.  A chunk that ends in "\\r" takes the
    next byte too, so that no "\\r\\n" is cut in two."""
    while chunk := raw.read(_READ_BYTES):
        while chunk.endswith(b"\r") and (more := raw.read(1)):
            chunk += more
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        yield chunk


def _line_blocks(raw):
    """The lines of a binary stream split on "\\n" alone, as ``csv``
    splits them, one list per chunk: ``splitlines`` would also break a line
    at form feeds and other separators that ``float`` refuses inside a
    cell.  A line that runs over a chunk edge comes whole in a later list;
    the last list holds what follows the last "\\n"."""
    tail = b""
    for chunk in _chunks(raw):
        lines = chunk.split(b"\n")
        lines[0] = tail + lines[0]
        tail = lines.pop()
        yield lines
    yield [tail]


def _parse_samples_plain(raw) -> VoltageSamples | None:
    """The samples of a well-formed file, read from a seekable binary stream
    in two passes, or None where the checked parser must decide.  The first
    pass counts the rows, so that the array is allocated once at its size;
    the second fills it one chunk of lines at a time.  A header that is not
    UTF-8 or holds a quote fails ``int`` here and goes to the checked
    parser, so the fields split here are the ``csv`` fields.  A row is read
    as the JSON array of its cells, where a JSON number is a ``float``
    literal of the same value except the integer ``-0``, which JSON reads as
    0: a row holding an exact zero is read again with ``float``, which keeps
    the sign.  JSON has accepted that row, so its cells are number tokens
    between spaces and tabs, which ``float`` strips."""
    breaks = blank_tail = 0
    for chunk in _chunks(raw):
        if any(c in chunk for c in _JSON_ONLY):
            return None
        breaks += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
        body = chunk.rstrip(b"\n")
        blank_tail = blank_tail + len(chunk) if not body else len(chunk) - len(body)
    # Every line break but those of the trailing blank lines ends the
    # header or a row: the rows are the lines after each such break.
    m = breaks - blank_tail
    if m <= 0:
        return None
    raw.seek(0)
    nodes = None
    filled = 0
    try:
        for lines in _line_blocks(raw):
            if nodes is None:
                if not lines:
                    continue
                nodes = tuple(int(h) for h in lines[0].decode().split(","))
                if _repeated(nodes) is not None:
                    return None
                eps = np.empty((m, len(nodes)))
                del lines[0]
            del lines[m - filled:]
            rows = eps[filled:filled + len(lines)]
            for i, line in enumerate(lines):
                row = orjson.loads(b"[" + line + b"]")
                if len(row) != len(nodes):
                    return None
                rows[i] = row
            for i in np.flatnonzero((rows == 0.0).any(axis=1)):
                rows[i] = [float(v) for v in lines[i].split(b",")]
            if not np.isfinite(rows).all():
                return None
            filled += len(lines)
    except ValueError:  # refused by orjson or int, or a header that is not UTF-8
        return None
    # A file that shrank between the passes leaves rows unfilled.
    if filled != m:
        return None
    return VoltageSamples(nodes=nodes, eps=eps)


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
    return VoltageSamples(nodes=nodes, eps=eps)
