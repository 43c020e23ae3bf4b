"""Plain-text (and raw binary) on-disk formats.

Model files:
    nsgms-model v1 p=<p> B=<B> L=<L> beta=<beta>
    block 1
    <p rows of p whitespace-separated precision entries>
    ...
Covariances are not stored; they are recomputed on load.

Sample files:
    nsgms-samples v1 p=<p> B=<B> L=<L>
    block 1
    <L lines, one column of p entries per line>
    ...
The binary variant stores the same columns as little-endian float64 in
block order, with the header line in a ``<path>.meta`` sidecar.  It is
written one block at a time, and loaded by memory-mapping the payload
read-only: each block is a transposed view of the mapping, never a copy.
A text file is parsed line by line into one preallocated array, so either
way the loaded samples are held once.

Header sizes p, B and L must be positive integers.  A header value or
matrix entry that does not parse raises :class:`FormatError` naming its
line.  Loading samples does not check that they are finite, and so reads
no page of a binary payload: the estimators check the Gram matrices they
form from the blocks, and ``decorrelate`` checks its record (see
:mod:`nsgms.sampling` and :mod:`nsgms.decorrelate`).

All decimals are written with 17 significant digits, which round-trips
float64 exactly.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FormatError
from .graph import Cig
from .model import BlockModel
from .regression import NeighborhoodEstimate
from .sampling import SampleBlocks

MODEL_MAGIC = "nsgms-model v1"
SAMPLES_MAGIC = "nsgms-samples v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_header(line: str, magic: str, keys) -> dict:
    parts = line.split()
    if " ".join(parts[:2]) != magic:
        raise FormatError(f"expected header starting with {magic!r}, got {line!r}")
    fields = {}
    for tok in parts[2:]:
        if "=" not in tok:
            raise FormatError(f"malformed header token {tok!r}")
        k, v = tok.split("=", 1)
        fields[k] = v
    missing = set(keys) - set(fields)
    if missing:
        raise FormatError(f"header missing fields: {sorted(missing)}")
    return fields


def _sizes(hdr: dict, where: str) -> tuple:
    """The header's p, B and L, each a positive integer."""
    sizes = []
    for key in ("p", "B", "L"):
        try:
            value = int(hdr[key])
        except ValueError:
            value = 0
        if value < 1:
            raise FormatError(f"{where}: {key}={hdr[key]!r} is not a positive integer")
        sizes.append(value)
    return tuple(sizes)


def _row(line: str, n: int, lineno: int) -> list:
    """The n decimals of data line ``lineno``, whitespace-separated."""
    vals = line.split()
    if len(vals) != n:
        raise FormatError(f"expected {n} entries at line {lineno}, got {len(vals)}")
    try:
        return [float(v) for v in vals]
    except ValueError as e:
        raise FormatError(f"bad number at line {lineno}: {e}") from None


# ---------------------------------------------------------------- models

def save_model(model: BlockModel, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(
            f"{MODEL_MAGIC} p={model.p} B={model.B} L={model.L} beta={_fmt(model.beta)}\n"
        )
        for b, K in enumerate(model.precisions, start=1):
            fh.write(f"block {b}\n")
            for row in K:
                fh.write(" ".join(_fmt(v) for v in row) + "\n")


def load_model(path) -> BlockModel:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise FormatError("empty model file")
    hdr = _parse_header(lines[0], MODEL_MAGIC, ("p", "B", "L", "beta"))
    p, B, L = _sizes(hdr, "line 1")
    try:
        beta = float(hdr["beta"])
    except ValueError:
        raise FormatError(f"line 1: beta={hdr['beta']!r} is not a number") from None
    pos = 1
    rows = []
    for b in range(1, B + 1):
        if pos >= len(lines) or lines[pos].strip() != f"block {b}":
            raise FormatError(f"expected 'block {b}' at line {pos + 1}")
        pos += 1
        for _ in range(p):
            if pos >= len(lines):
                raise FormatError("truncated model file")
            rows.append(_row(lines[pos], p, pos + 1))
            pos += 1
    K = np.array(rows).reshape(B, p, p)
    if not np.all(np.isfinite(K)):  # before inv, which may fail on them first
        raise FormatError("model precisions contain non-finite values")
    C = np.linalg.inv(K)
    return BlockModel(
        p=p, B=B, L=L, beta=beta, precisions=K, covariances=0.5 * (C + C.swapaxes(1, 2)),
    )


# ---------------------------------------------------------------- samples

def save_samples(samples: SampleBlocks, path, binary: bool = False) -> None:
    header = f"{SAMPLES_MAGIC} p={samples.p} B={samples.B} L={samples.L}"
    if binary:
        with open(path, "wb") as fh:
            for X in samples.data:
                np.ascontiguousarray(X.T, dtype="<f8").tofile(fh)
        with open(f"{path}.meta", "w", newline="\n") as fh:
            fh.write(header + "\n")
        return
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for b, X in enumerate(samples.data, start=1):
            fh.write(f"block {b}\n")
            for col in X.T:
                fh.write(" ".join(_fmt(v) for v in col) + "\n")


def load_samples(path, binary: bool = False) -> SampleBlocks:
    if binary:
        with open(f"{path}.meta") as fh:
            hdr = _parse_header(fh.readline().strip(), SAMPLES_MAGIC, ("p", "B", "L"))
        p, B, L = _sizes(hdr, f"{path}.meta line 1")
        size = os.path.getsize(path)
        if size != 8 * p * B * L:
            raise FormatError(f"binary payload has {size} bytes, expected 8*p*B*L = {8 * p * B * L}")
        cols = np.memmap(path, dtype="<f8", mode="r", shape=(B, L, p))
    else:
        with open(path) as fh:
            header = fh.readline()
            if not header:
                raise FormatError("empty samples file")
            hdr = _parse_header(header.rstrip("\n"), SAMPLES_MAGIC, ("p", "B", "L"))
            p, B, L = _sizes(hdr, "line 1")
            # Every entry takes at least one byte, so a shorter file is truncated;
            # checking first keeps the array below within 8x the file's size.
            if os.fstat(fh.fileno()).st_size < p * B * L:
                raise FormatError("truncated samples file")
            cols = np.empty((B, L, p))
            lineno = 1
            for b, block in enumerate(cols, start=1):
                lineno += 1
                if fh.readline().strip() != f"block {b}":
                    raise FormatError(f"expected 'block {b}' at line {lineno}")
                for row in block:
                    lineno += 1
                    line = fh.readline()
                    if not line:
                        raise FormatError("truncated samples file")
                    row[:] = _row(line, p, lineno)
    # Row n of block b is sample n, so block b's p x L matrix is cols[b].T.
    return SampleBlocks(p=p, B=B, L=L, data=tuple(block.T for block in cols))


# ---------------------------------------------------------------- estimates

def format_neighborhood(est: NeighborhoodEstimate) -> str:
    inner = ",".join(str(j) for j in sorted(est.selected))
    return f"node {est.node}: {{{inner}}} objective={_fmt(est.objective)}"


def format_edge_list(graph: Cig) -> str:
    return "".join(f"edge {i} {j}\n" for (i, j) in graph.edge_list())


def save_graph(graph: Cig, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_edge_list(graph))
