"""On-disk formats: models, samples, estimates, edge lists."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from nsgms import build_block_model, estimate_neighborhood, random_cig, sample_process
from nsgms.cli import main
from nsgms.errors import FormatError
from nsgms.regression import EstimatorConfig
from nsgms.sampling import SampleBlocks, block_grams
from nsgms.serialize import (
    format_edges,
    format_neighborhood,
    load_model,
    load_samples,
    save_graph,
    save_model,
    save_samples,
)


@pytest.fixture
def model():
    g = random_cig(5, 2, 3)
    return build_block_model(g, 2, 8, 2.0, 0.4, 4)


def test_model_round_trip(tmp_path, model):
    path = tmp_path / "model.txt"
    save_model(model, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("nsgms-model v1 p=5 B=2 L=8")
    back = load_model(path)
    assert (back.p, back.B, back.L, back.beta) == (5, 2, 8, 2.0)
    for K1, K2 in zip(model.precisions, back.precisions):
        assert np.array_equal(K1, K2)  # 17 significant digits round-trip exactly


@pytest.mark.parametrize("p, s, B, seed", [(5, 2, 2, 3), (8, 2, 4, 1), (11, 3, 9, 7), (2, 1, 1, 0)])
def test_a_model_through_its_file_is_the_model_in_memory(tmp_path, p, s, B, seed):
    # A model is its precisions, which the file keeps exactly, so every draw
    # from the loaded model is the draw from the model in memory.
    model = build_block_model(random_cig(p, s, seed), B, 8, 2.0, 0.4, seed + 1)
    save_model(model, tmp_path / "model.txt")
    back = load_model(tmp_path / "model.txt")
    assert (back.p, back.B, back.L, back.beta) == (model.p, model.B, model.L, model.beta)
    assert back.precisions.tobytes() == model.precisions.tobytes()


def test_samples_round_trip_text(tmp_path, model):
    samples = sample_process(model, 9)
    path = tmp_path / "samples.txt"
    save_samples(samples, path)
    back = load_samples(path)
    assert (back.p, back.B, back.L) == (samples.p, samples.B, samples.L)
    for X1, X2 in zip(samples.data, back.data):
        assert np.array_equal(X1, X2)


def test_samples_round_trip_binary(tmp_path, model):
    samples = sample_process(model, 9)
    path = tmp_path / "samples.bin"
    save_samples(samples, path, binary=True)
    assert (tmp_path / "samples.bin.meta").read_text().startswith("nsgms-samples v1 ")
    back = load_samples(path, binary=True)
    for X1, X2 in zip(samples.data, back.data):
        assert np.array_equal(X1, X2)


def test_binary_payload_layout(tmp_path):
    # Block-major; within a block, one row of p little-endian float64 per sample.
    rng = np.random.default_rng(4)
    samples = SampleBlocks(p=3, B=2, L=5, data=tuple(rng.standard_normal((3, 5)) for _ in range(2)))
    path = tmp_path / "samples.bin"
    save_samples(samples, path, binary=True)
    rows = [X[:, n] for X in samples.data for n in range(samples.L)]
    assert path.read_bytes() == b"".join(np.asarray(r, dtype="<f8").tobytes() for r in rows)


def test_binary_blocks_are_read_only_views(tmp_path, model):
    path = tmp_path / "samples.bin"
    save_samples(sample_process(model, 9), path, binary=True)
    data = load_samples(path, binary=True).data
    # The (B, p, L) transpose of the (B, L, p) mapping, not a copy of it.
    p, L = model.p, model.L
    assert not data.flags.owndata and data.strides == (8 * L * p, 8, 8 * p)
    with pytest.raises(ValueError):
        data[0][0, 0] = 1.0


def test_binary_load_does_not_copy_the_payload(tmp_path):
    p, B, L = 8, 4, 20_000
    rng = np.random.default_rng(5)
    samples = SampleBlocks(p=p, B=B, L=L, data=tuple(rng.standard_normal((p, L)) for _ in range(B)))
    path = tmp_path / "samples.bin"
    save_samples(samples, path, binary=True)
    expected = block_grams(samples)
    del samples
    tracemalloc.start()
    try:
        grams = block_grams(load_samples(path, binary=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(grams, expected)
    assert peak < path.stat().st_size / 8


def traced_peak(fn):
    """The result of ``fn()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("L", [20_000, 200_000])
def test_binary_load_and_gram_memory_does_not_grow_with_L(tmp_path, L):
    p, B = 8, 4
    path = tmp_path / "samples.bin"
    rng = np.random.default_rng(6)
    rng.standard_normal(p * B * L).tofile(path)
    (tmp_path / "samples.bin.meta").write_text(f"nsgms-samples v1 p={p} B={B} L={L}\n")
    grams, peak = traced_peak(lambda: block_grams(load_samples(path, binary=True)))
    assert np.all(np.isfinite(grams))
    assert peak < 64 * 1024


def test_text_load_holds_one_copy_of_the_payload(tmp_path):
    p, B, L = 8, 4, 20_000
    rng = np.random.default_rng(7)
    samples = SampleBlocks(p=p, B=B, L=L, data=tuple(rng.standard_normal((p, L)) for _ in range(B)))
    path = tmp_path / "samples.txt"
    save_samples(samples, path)
    back, peak = traced_peak(lambda: load_samples(path))
    for X1, X2 in zip(samples.data, back.data):
        assert np.array_equal(X1, X2)
    assert peak < 1.5 * 8 * p * B * L


# sha256 of save_samples' text file, binary payload and .meta for
# sample_process(model, seed) on the ``model`` fixture, and of what
# ``nsgms sample`` writes for the fixture saved with save_model: the model
# loaded from its file is the model in memory.  The digests hold for a
# given numpy, LAPACK and BLAS build (the samples pass through the root
# K^-1/2, formed from LAPACK's eigh, and a matrix product, taken a chunk of
# columns at a time).
SAMPLE_PINS = [
    pytest.param(9, "cf3effc3d77a40a03da9be39af381fef3c068b78c11cbdb95dc5a1e7b2eed474",
                 "3a99b5a89f430ef54a152027c17ce99f3a66736fdac0c212cb7b0994dc3f22fd", id="seed9"),
    pytest.param(10, "a17916fd80ae6ca431998a2b8284506e15979fb8c48e25b7a59a8639e47520b2",
                 "83284a9158471d10e634acf05718fe5a2e73b8131eca46cfed08dca1bdfa2562", id="seed10"),
]
META_SHA = "06318cd4babf6aa373ba691a0905c348ff0bf509832a2e37105055079bc4e7b6"


@pytest.mark.parametrize("seed, text_sha, binary_sha", SAMPLE_PINS)
def test_saved_sample_bytes_are_pinned(tmp_path, model, seed, text_sha, binary_sha):
    samples = sample_process(model, seed)
    save_samples(samples, tmp_path / "s.txt")
    save_samples(samples, tmp_path / "s.bin", binary=True)
    for name, sha in (("s.txt", text_sha), ("s.bin", binary_sha), ("s.bin.meta", META_SHA)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("seed, text_sha, binary_sha", SAMPLE_PINS)
def test_cli_sample_bytes_are_the_library_bytes(tmp_path, model, seed, text_sha, binary_sha):
    # ``nsgms sample`` draws and writes one block at a time; its files must
    # be those of save_samples(sample_process(...)) on the model it loads.
    save_model(model, tmp_path / "model.txt")
    library = sample_process(load_model(tmp_path / "model.txt"), seed)
    for name, binary in (("s.txt", False), ("s.bin", True)):
        argv = ["sample", str(tmp_path / "model.txt"), "--seed", str(seed), "-o", str(tmp_path / name)]
        assert main(argv + ["--binary"] * binary) == 0
        save_samples(library, tmp_path / f"lib.{name}", binary=binary)
    for name, sha in (("s.txt", text_sha), ("s.bin", binary_sha), ("s.bin.meta", META_SHA)):
        data = (tmp_path / name).read_bytes()
        assert data == (tmp_path / f"lib.{name}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha


@pytest.mark.parametrize("binary", [False, True])
def test_cli_sample_holds_one_block(tmp_path, binary):
    # 1.28 MB per block; the whole (B, p, L) stack would be 3.84 MB, above
    # the bound below.  The normals are drawn into the block, so beside it
    # only buffers that do not grow with L are held: the writer's batch
    # (256 KiB as binary, about 0.3 MB as text), the 256 KiB chunk of
    # sample_process, small objects.  B is kept small because tracemalloc
    # traces every float the text writer formats.
    p, B, L = 8, 3, 20_000
    save_model(build_block_model(random_cig(p, 2, 1), B, L, 2.0, 0.4, 2), tmp_path / "model.txt")
    argv = ["sample", str(tmp_path / "model.txt"), "--seed", "3", "-o", str(tmp_path / "s")]
    code, peak = traced_peak(lambda: main(argv + ["--binary"] * binary))
    assert code == 0
    batch = 1 << 18 if binary else 300_000
    assert peak < 8 * p * L + batch + 768 * 1024


def test_text_model_load_holds_about_three_copies_of_the_precisions(tmp_path):
    # A model holds its precisions only, and the file's lines are parsed one
    # at a time, never held as a whole, so the bound has room to spare.
    p, B = 100, 4
    rng = np.random.default_rng(8)
    A = 0.01 * rng.standard_normal((B, p, p))
    K = np.eye(p) + A + A.swapaxes(1, 2)
    path = tmp_path / "model.txt"
    with open(path, "w") as fh:
        fh.write(f"nsgms-model v1 p={p} B={B} L=10 beta=2\n")
        for b, block in enumerate(K, start=1):
            fh.write(f"block {b}\n")
            fh.writelines(" ".join(format(v, ".17g") for v in row) + "\n" for row in block)
    back, peak = traced_peak(lambda: load_model(path))
    assert np.array_equal(back.precisions, K)
    assert peak < 4 * K.nbytes


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(FormatError):
        load_model(path)
    path.write_text("nsgms-model v1 p=2 B=1 L=4 beta=2\nblock 1\n1 0\n")
    with pytest.raises(FormatError):
        load_model(path)


@pytest.mark.parametrize("text, where", [
    ("nsgms-model v1 p=2 B=1 L=4 beta=2\nblock 1\nabc 0\n0 1\n", "line 3"),
    ("nsgms-model v1 p=2 B=1 L=4 beta=two\nblock 1\n1 0\n0 1\n", "line 1"),
    ("nsgms-model v1 p=2.5 B=1 L=4 beta=2\nblock 1\n1 0\n0 1\n", "line 1"),
    ("nsgms-model v1 p=2 B=0 L=4 beta=2\n", "line 1"),
], ids=["entry", "beta", "fractional-p", "zero-B"])
def test_load_model_names_the_line_that_does_not_parse(tmp_path, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match=where):
        load_model(path)


@pytest.mark.parametrize("text, where", [
    ("nsgms-samples v1 p=2 B=1 L=2\nblock 1\n1 2\nx 4\n", "line 4"),
    ("nsgms-samples v1 p=two B=1 L=2\nblock 1\n1 2\n3 4\n", "line 1"),
    ("nsgms-samples v1 p=2 B=1 L=0\nblock 1\n", "line 1"),
    ("nsgms-samples v1 p=2 B=-1 L=2\n", "line 1"),
], ids=["entry", "word-p", "zero-L", "negative-B"])
def test_load_samples_names_the_line_that_does_not_parse(tmp_path, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match=where):
        load_samples(path)


@pytest.mark.parametrize("meta", ["p=two B=1 L=4", "p=2 B=1 L=0", "p=0 B=1 L=4"])
def test_binary_meta_sizes_must_be_positive_integers(tmp_path, meta):
    path = tmp_path / "samples.bin"
    path.write_bytes(b"")
    (tmp_path / "samples.bin.meta").write_text(f"nsgms-samples v1 {meta}\n")
    with pytest.raises(FormatError, match="meta line 1"):
        load_samples(path, binary=True)


def test_load_model_rejects_non_finite_before_inverting(tmp_path):
    # Apart from the inf, the matrix is singular: inverting it would fail first.
    path = tmp_path / "inf.txt"
    path.write_text("nsgms-model v1 p=2 B=1 L=4 beta=2\nblock 1\ninf 0\n0 0\n")
    with pytest.raises(FormatError, match="non-finite"):
        load_model(path)


def test_load_model_rejects_truncation_before_allocating(tmp_path):
    path = tmp_path / "bad.txt"  # 10**12 precision entries would not fit in memory
    path.write_text(f"nsgms-model v1 p={10**6} B=1 L=4 beta=2\nblock 1\n1 0\n")
    with pytest.raises(FormatError, match="truncated model file"):
        load_model(path)


def test_load_samples_rejects_truncation(tmp_path):
    path = tmp_path / "bad.txt"
    for L in (3, 10**12):  # 10**12 rows would not fit in memory
        path.write_text(f"nsgms-samples v1 p=2 B=1 L={L}\nblock 1\n1 2\n")
        with pytest.raises(FormatError, match="truncated samples file"):
            load_samples(path)


def test_binary_payload_size_check(tmp_path):
    path = tmp_path / "short.bin"
    (tmp_path / "short.bin.meta").write_text("nsgms-samples v1 p=2 B=1 L=4\n")
    for n_bytes in (0, 40, 63, 65):  # 0 bytes cannot be memory-mapped at all
        path.write_bytes(bytes(n_bytes))
        with pytest.raises(FormatError, match="expected 8\\*p\\*B\\*L = 64"):
            load_samples(path, binary=True)


def test_format_neighborhood(model):
    samples = sample_process(model, 10)
    est = estimate_neighborhood(samples, 1, EstimatorConfig(s=2, lam=0.05))
    line = format_neighborhood(est)
    assert line.startswith("node 1: {")
    assert "objective=" in line
    inner = line.split("{")[1].split("}")[0]
    listed = [int(v) for v in inner.split(",")] if inner else []
    assert listed == sorted(est.selected)


def test_edge_list_sorted(tmp_path):
    g = random_cig(6, 2, 7)
    text = format_edges(g)
    lines = text.splitlines()
    pairs = [tuple(int(v) for v in ln.split()[1:]) for ln in lines]
    assert pairs == sorted(pairs)
    assert all(i < j for i, j in pairs)
    path = tmp_path / "graph.txt"
    save_graph(g, path)
    assert path.read_text() == text
