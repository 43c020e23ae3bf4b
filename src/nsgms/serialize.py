"""Plain-text (and raw binary) on-disk formats.

Model files:
    nsgms-model v1 p=<p> B=<B> L=<L> beta=<beta>
    block 1
    <p rows of p whitespace-separated precision entries>
    ...
A model is its precisions: a loaded model is parsed, then constructed as
a built one is, so :class:`~nsgms.model.BlockModel` checks the header's
beta (1 < beta < 2^52) and that the precisions are finite and exactly
symmetric.  A file that states no valid model raises
:class:`FormatError`.  A singular or indefinite block loads; positive
definiteness is checked where a root K^-1/2 is formed, as for a built
model.

Sample files:
    nsgms-samples v1 p=<p> B=<B> L=<L>
    block 1
    <L lines, one column of p entries per line>
    ...
The binary variant stores the same columns as little-endian float64 in
block order, with the header line in a ``<path>.meta`` sidecar, and is
loaded by memory-mapping the payload read-only.  One writer serves both
formats: it takes one block at a time, so samples lazily drawn by
:class:`~nsgms.sampling.BlockDraws` are never held whole, and copies the
block's rows out in batches through one reused buffer, never as a whole
transposed copy.  One text codec writes and parses the ``block b``
sections of both file kinds, parsing line by line into one preallocated
array; a file too short for its header's sizes is rejected before that
array is allocated.
Either way samples are held once: the loaders hand :class:`SampleBlocks`
the (B, p, L) transposed view of the (B, L, p) rows, never a copy.

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

from .errors import FormatError, InvalidParameterError
from .graph import Cig
from .model import BlockModel
from .regression import NeighborhoodEstimate
from .sampling import _CHUNK_BYTES, SampleBlocks

MODEL_MAGIC = "nsgms-model v1"
SAMPLES_MAGIC = "nsgms-samples v1"

#: entries per batch of rows written: the sampler's chunk of binary float64
#: (``_CHUNK_BYTES``), or 4,096 decimals, whose Python floats and text take
#: about 0.3 MB while formatted
_BINARY_BATCH = _CHUNK_BYTES // 8
_TEXT_BATCH = 1 << 12


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


def _write_blocks(fh, blocks, binary: bool = False) -> None:
    """Write each (n, p) block of ``blocks``, its rows copied out through one reused buffer.

    As text, ``block b`` and then one line of p decimals per row; as binary,
    the rows alone as little-endian float64.  Rows go out a batch at a time,
    never as a whole-block copy, and a block is taken from ``blocks`` only
    once the previous one is written.
    """
    for b, rows in enumerate(blocks, start=1):
        n, p = rows.shape
        if b == 1:
            buffer = np.empty((max(1, (_BINARY_BATCH if binary else _TEXT_BATCH) // p), p), dtype="<f8")
            line = " ".join(["%.17g"] * p) + "\n"
        if not binary:
            fh.write(f"block {b}\n")
        for lo in range(0, n, len(buffer)):
            batch = buffer[:n - lo]
            batch[...] = rows[lo:lo + len(batch)]
            if binary:
                batch.tofile(fh)
            else:
                fh.write(line * len(batch) % tuple(batch.ravel().tolist()))


def _read_header(fh, magic: str, keys, kind: str) -> tuple:
    """The fields of a text file's header line, and its p, B and L."""
    header = fh.readline()
    if not header:
        raise FormatError(f"empty {kind} file")
    hdr = _parse_header(header.rstrip("\n"), magic, keys)
    return hdr, _sizes(hdr, "line 1")


def _read_blocks(fh, B: int, n: int, p: int, kind: str) -> np.ndarray:
    """Parse the B blocks after the header line of ``fh`` into one (B, n, p) array."""
    # Every entry takes at least one byte, so a shorter file is truncated;
    # checking first keeps the array below within 8x the file's size.
    if os.fstat(fh.fileno()).st_size < B * n * p:
        raise FormatError(f"truncated {kind} file")
    out = np.empty((B, n, p))
    lineno = 1
    for b, block in enumerate(out, start=1):
        lineno += 1
        if fh.readline().strip() != f"block {b}":
            raise FormatError(f"expected 'block {b}' at line {lineno}")
        for row in block:
            lineno += 1
            line = fh.readline()
            if not line:
                raise FormatError(f"truncated {kind} file")
            row[:] = _row(line, p, lineno)
    return out


# ---------------------------------------------------------------- models

def save_model(model: BlockModel, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(
            f"{MODEL_MAGIC} p={model.p} B={model.B} L={model.L} beta={_fmt(model.beta)}\n"
        )
        _write_blocks(fh, model.precisions)


def load_model(path) -> BlockModel:
    with open(path) as fh:
        hdr, (p, B, L) = _read_header(fh, MODEL_MAGIC, ("p", "B", "L", "beta"), "model")
        try:
            beta = float(hdr["beta"])
        except ValueError:
            raise FormatError(f"line 1: beta={hdr['beta']!r} is not a number") from None
        K = _read_blocks(fh, B, p, p, "model")
    try:
        return BlockModel(p=p, B=B, L=L, beta=beta, precisions=K)
    except InvalidParameterError as e:  # the file states no valid model
        raise FormatError(f"model file: {e}") from None


# ---------------------------------------------------------------- samples

def save_samples(samples, path, binary: bool = False) -> None:
    """Write samples block by block; ``samples`` is a :class:`SampleBlocks` or a :class:`~nsgms.sampling.BlockDraws`.

    Blocks are taken one at a time, so a ``BlockDraws`` is drawn as it is
    written and the file never needs the whole (B, p, L) stack in memory.
    """
    header = f"{SAMPLES_MAGIC} p={samples.p} B={samples.B} L={samples.L}"
    blocks = samples.data if isinstance(samples, SampleBlocks) else samples
    # Row n of block b is sample n: the (L, p) layout of both formats.
    rows = (X.T for X in blocks)
    if binary:
        with open(path, "wb") as fh:
            _write_blocks(fh, rows, binary=True)
        with open(f"{path}.meta", "w", newline="\n") as fh:
            fh.write(header + "\n")
        return
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        _write_blocks(fh, rows)


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
            _, (p, B, L) = _read_header(fh, SAMPLES_MAGIC, ("p", "B", "L"), "samples")
            cols = _read_blocks(fh, B, L, p, "samples")
    return SampleBlocks(p=p, B=B, L=L, data=cols.swapaxes(1, 2))


# ---------------------------------------------------------------- estimates

def format_neighborhood(est: NeighborhoodEstimate) -> str:
    inner = ",".join(str(j) for j in sorted(est.selected))
    return f"node {est.node}: {{{inner}}} objective={_fmt(est.objective)}"


def format_edges(graph: Cig) -> str:
    return "".join(f"edge {i} {j}\n" for (i, j) in graph.edges)


def save_graph(graph: Cig, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_edges(graph))
