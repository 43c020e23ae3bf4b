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
block order, with the header line in a ``<path>.meta`` sidecar.

All decimals are written with 17 significant digits, which round-trips
float64 exactly.
"""

from __future__ import annotations

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
    try:
        p, B, L = int(hdr["p"]), int(hdr["B"]), int(hdr["L"])
        beta = float(hdr["beta"])
    except ValueError as e:
        raise FormatError(f"bad header value: {e}") from None
    pos = 1
    rows = []
    for b in range(1, B + 1):
        if pos >= len(lines) or lines[pos].strip() != f"block {b}":
            raise FormatError(f"expected 'block {b}' at line {pos + 1}")
        pos += 1
        for _ in range(p):
            if pos >= len(lines):
                raise FormatError("truncated model file")
            vals = lines[pos].split()
            if len(vals) != p:
                raise FormatError(f"expected {p} entries at line {pos + 1}, got {len(vals)}")
            rows.append([float(v) for v in vals])
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
        flat = np.concatenate([X.T.reshape(-1) for X in samples.data])
        flat.astype("<f8").tofile(path)
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
        p, B, L = int(hdr["p"]), int(hdr["B"]), int(hdr["L"])
        flat = np.fromfile(path, dtype="<f8")
        if flat.size != p * B * L:
            raise FormatError(f"binary payload has {flat.size} values, expected {p * B * L}")
        data = tuple(
            np.ascontiguousarray(flat[b * L * p:(b + 1) * L * p].reshape(L, p).T)
            for b in range(B)
        )
        return SampleBlocks(p=p, B=B, L=L, data=data)
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise FormatError("empty samples file")
    hdr = _parse_header(lines[0], SAMPLES_MAGIC, ("p", "B", "L"))
    p, B, L = int(hdr["p"]), int(hdr["B"]), int(hdr["L"])
    pos = 1
    data = []
    for b in range(1, B + 1):
        if pos >= len(lines) or lines[pos].strip() != f"block {b}":
            raise FormatError(f"expected 'block {b}' at line {pos + 1}")
        pos += 1
        cols = []
        for _ in range(L):
            if pos >= len(lines):
                raise FormatError("truncated samples file")
            vals = lines[pos].split()
            if len(vals) != p:
                raise FormatError(f"expected {p} entries at line {pos + 1}, got {len(vals)}")
            cols.append([float(v) for v in vals])
            pos += 1
        data.append(np.array(cols).T)
    return SampleBlocks(p=p, B=B, L=L, data=tuple(data))


# ---------------------------------------------------------------- estimates

def format_neighborhood(est: NeighborhoodEstimate) -> str:
    inner = ",".join(str(j) for j in sorted(est.selected))
    return f"node {est.node}: {{{inner}}} objective={_fmt(est.objective)}"


def format_edge_list(graph: Cig) -> str:
    return "".join(f"edge {i} {j}\n" for (i, j) in graph.edge_list())


def save_graph(graph: Cig, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_edge_list(graph))
