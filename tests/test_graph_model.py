"""Graphs, block models, partial correlations, and assumption checks."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nsgms.model as model_module
from nsgms import (
    BlockModel,
    Cig,
    build_block_model,
    min_edge_strength,
    partial_correlation,
    random_cig,
    verify_assumptions,
)
from nsgms.errors import ConstructionFailure, InvalidParameterError, NotPositiveDefiniteError
from nsgms.experiments import _trial_candidates
from nsgms.model import (
    _coupling_draws,
    _spectrum_to_band,
    build_model_stack,
    covariance_eig_range,
    inverse_square_roots,
    pilot_min_edge_strengths,
)


def model_from_precisions(precisions, L=4, beta=2.0):
    Ks = tuple(np.asarray(K, dtype=float) for K in precisions)
    return BlockModel(p=Ks[0].shape[0], B=len(Ks), L=L, beta=beta, precisions=Ks)


# ---------------------------------------------------------------- Cig

def test_cig_rejects_self_loop():
    with pytest.raises(InvalidParameterError):
        Cig(p=3, edges=frozenset({frozenset({2, 2})}))


def test_cig_rejects_out_of_range_node():
    with pytest.raises(InvalidParameterError):
        Cig(p=3, edges=frozenset({frozenset({1, 4})}))


@pytest.mark.parametrize("p", [2.5, True, 3.0, "3", 0])
def test_cig_rejects_a_node_count_that_is_not_a_positive_integer(p):
    # Cig(p=2.5) used to be built, and its max_degree then raised TypeError.
    with pytest.raises(InvalidParameterError):
        Cig(p=p, edges=[(1, 2)])


def test_cig_accepts_a_numpy_integer_node_count():
    g = Cig(p=np.int64(3), edges=[(1, 2)])
    assert g.p == 3 and type(g.p) is int
    assert g.max_degree == 1 and g == Cig(p=3, edges=[(1, 2)])


@pytest.mark.parametrize("edge", [(2, 2), [3, 3], (0, 1), (1, 4), (3,), (1, 2, 3),
                                  (1, 1.5), (1.0, 2), frozenset({1, 1.5}), ("1", "2"), 7])
def test_cig_rejects_what_is_not_two_distinct_integer_nodes(edge):
    # A float node used to be stored; neighborhood(1) then returned {1.5}.
    with pytest.raises(InvalidParameterError):
        Cig(p=3, edges=[(1, 2), edge])


@pytest.mark.parametrize("edge", [(True, 2), (1, False)])
def test_cig_rejects_a_bool_node_as_it_rejects_a_bool_node_count(edge):
    # (True, 2) used to be stored as the edge (1, 2).
    with pytest.raises(InvalidParameterError, match="integer nodes"):
        Cig(p=3, edges=[edge])


_PAIR_FORMS = (
    tuple, list, frozenset,
    lambda e: (e[1], e[0]),
    lambda e: [np.int64(e[0]), np.int32(e[1])],
    lambda e: np.array(e),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9), st.data())
def test_cig_stores_any_pair_form_as_one_sorted_tuple_of_ints(p, data):
    nodes = st.integers(1, p)
    pairs = data.draw(st.lists(st.tuples(nodes, nodes).filter(lambda e: e[0] != e[1]),
                               max_size=12))
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    given_pairs = [data.draw(st.sampled_from(_PAIR_FORMS))(e) for e in pairs]
    expected = tuple(sorted({(min(e), max(e)) for e in pairs}))
    g = Cig(p=p, edges=iter(given_pairs))
    assert g.edges == expected and repr(g.edges) == repr(expected)
    assert all(type(v) is int for e in g.edges for v in e)
    assert g == Cig(p=p, edges=expected) and hash(g) == hash(Cig(p=p, edges=expected))


def test_cig_neighborhood_and_degree():
    g = Cig(p=4, edges=frozenset({frozenset({1, 2}), frozenset({1, 3})}))
    assert g.neighborhood(1) == frozenset({2, 3})
    assert g.neighborhood(4) == frozenset()
    assert len(g.neighborhood(1)) == 2
    assert g.max_degree == 2
    assert g.edges == ((1, 2), (1, 3))
    assert (1, 2) in g.edges and (2, 3) not in g.edges


def test_random_cig_two_nodes_is_the_single_edge():
    for seed in range(5):
        g = random_cig(2, 1, seed)
        assert g.edges == ((1, 2),)


def test_random_cig_odd_p_matching_has_max_degree_one():
    # With a degree cap of 1 a perfect matching is impossible on odd p:
    # exactly one node stays unpaired, every other node has degree 1.
    for seed in range(10):
        g = random_cig(5, 1, seed)
        degrees = [len(g.neighborhood(i)) for i in range(1, 6)]
        assert max(degrees) == 1
        assert degrees.count(0) == 1


def test_random_cig_respects_degree_bound():
    for seed in range(10):
        g = random_cig(8, 3, seed)
        assert g.max_degree <= 3
        assert all(len(g.neighborhood(i)) >= 1 for i in range(1, 9))
        for e in g.edges:
            assert len(e) == 2


def test_random_cig_deterministic():
    assert random_cig(9, 3, 1234).edges == random_cig(9, 3, 1234).edges


def test_random_cig_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        random_cig(1, 1, 0)
    with pytest.raises(InvalidParameterError):
        random_cig(4, 0, 0)
    with pytest.raises(InvalidParameterError):
        random_cig(4, 4, 0)


def assert_queries_match_edge_scan(g):
    A = np.zeros((g.p + 1, g.p + 1), dtype=int)  # brute-force adjacency
    for (i, j) in g.edges:
        A[i, j] = A[j, i] = 1
    for i in range(1, g.p + 1):
        assert g.neighborhood(i) == frozenset(int(j) for j in np.flatnonzero(A[i]))
        assert len(g.neighborhood(i)) == A[i].sum()
    assert g.max_degree == A.sum(axis=1).max()
    assert _trial_candidates(g) == [i for i in range(1, g.p + 1) if A[i].any()]


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 14), st.data(), st.integers(0, 2**32 - 1))
def test_graph_queries_match_a_brute_force_edge_scan(p, data, seed):
    s_max = data.draw(st.integers(1, p - 1))
    assert_queries_match_edge_scan(random_cig(p, s_max, seed))


def test_graph_queries_on_odd_matchings_and_edgeless_graphs():
    for seed in range(10):
        g = random_cig(7, 1, seed)  # one node necessarily isolated
        assert_queries_match_edge_scan(g)
        assert len(_trial_candidates(g)) == 6
    assert_queries_match_edge_scan(Cig(p=3))
    assert Cig(p=3).max_degree == 0 and _trial_candidates(Cig(p=3)) == []


def test_degree_rejects_nodes_outside_the_graph():
    g = random_cig(5, 2, 0)
    for v in (0, 6):
        with pytest.raises(InvalidParameterError):
            g.neighborhood(v)


# sha256 of repr(list(edges)) and of the (3, p, p) precision stack of
# build_block_model(g, 3, 5, 2.0, 0.4, seed + 1).  Batching a draw in the
# graph or model construction must leave both streams, and so these
# digests, unchanged.  The precision digests hold for a given numpy and
# LAPACK build (they pass through eigh).
STREAM_PINS = [
    (8, 2, 0, "e04a6e05a9645c59380fe48dc35717778fc6a5c89572e7d5e54da5c3a1076aea",
     "0f105f7cc68f801abfac74cae1d0025e6d23ead65d2e413103ac5d1fc279c3f0"),
    (9, 3, 1, "ef809a6392d2149b13e60f294a78ea4dfd2e675f321296c370150515cb816e0a",
     "913a19b70a95649b33305562c150eb012cd219bad9f24b80665e8a38dc2df573"),
    (7, 1, 2, "52df0f78474bc5ea6c5580821dc5573ec1fecf2d89112fdc2d1ac54160d9ff75",
     "51d44dc030b490952a353c482d7f4de544196f35a2a75e4d5d3d727f827fe96e"),
    (12, 4, 12345, "6a7b6edf43be8181878c1f5c121aa1a8df20bdfc7f41b726c62b3a4f683ac7b5",
     "d76b454658685b07438602c5145d99b406c9c396a003f4b281ab8971e5451136"),
]


@pytest.mark.parametrize("p, s_max, seed, graph_sha, precision_sha", STREAM_PINS)
def test_graph_and_model_streams_are_pinned(p, s_max, seed, graph_sha, precision_sha):
    g = random_cig(p, s_max, seed)
    assert hashlib.sha256(repr(list(g.edges)).encode()).hexdigest() == graph_sha
    model = build_block_model(g, 3, 5, 2.0, 0.4, seed + 1)
    assert hashlib.sha256(model.precisions.tobytes()).hexdigest() == precision_sha


def scalar_coupling_draws(cig, B, coupling, seed) -> tuple:
    """The reference for ``_coupling_draws``: one ``rng.uniform(lo, hi)`` magnitude
    (as ``lo + span * rng.random()``) and one ``rng.integers(2)`` sign per edge
    and block, drawn in turn from a fresh generator, as W was once drawn.
    Returns the entries and the generator's PCG64 state after them."""
    rng = np.random.default_rng(seed)
    s_max = max(cig.max_degree, 1)
    lo, hi = coupling / (2 * s_max), coupling / s_max
    span = hi - lo
    draws = [(lo + span * rng.random()) * (-1.0, 1.0)[rng.integers(2)]
             for _ in range(B * len(cig.edges))]
    return np.array(draws, dtype=float), rng.bit_generator.state["state"]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.integers(1, 9), st.floats(0.01, 0.99), st.integers(0, 2**63 - 1),
       st.booleans(), st.data())
@example(p=2, B=1, coupling=0.4, seed=3, edgeless=False, data=None)  # B·E = 1, B = 1
@example(p=2, B=2, coupling=0.4, seed=3, edgeless=False, data=None)  # B·E = 2
@example(p=5, B=1, coupling=0.4, seed=3, edgeless=True, data=None)   # E = 0
def test_coupling_draws_decode_the_scalar_loop(p, B, coupling, seed, edgeless, data):
    # Bit for bit, and from the same number of raw words: (3n + 1) // 2 for n entries.
    if edgeless:
        g = Cig(p=p)
    elif data is None:
        g = random_cig(p, 1, seed)
    else:
        g = random_cig(p, data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, 2**32)))
    rng = np.random.default_rng(seed)
    drawn = _coupling_draws(g, B, coupling, rng)
    expected, state = scalar_coupling_draws(g, B, coupling, seed)
    assert drawn.size == B * len(g.edges)
    assert drawn.tobytes() == expected.tobytes()
    assert rng.bit_generator.state["state"] == state


# ---------------------------------------------------------------- BlockModel

def test_block_model_stacks_a_tuple_of_matrices():
    model = model_from_precisions([np.eye(3), 2 * np.eye(3)])
    assert model.precisions.shape == (2, 3, 3)
    assert model.precisions.dtype == np.float64


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 3, 3), (3, 3), (2, 2, 3, 3)])
def test_block_model_rejects_wrong_stack_shape(shape):
    stack = np.ones(shape)
    with pytest.raises(InvalidParameterError):
        BlockModel(p=3, B=2, L=4, beta=2.0, precisions=stack)


def test_block_model_rejects_ragged_matrices():
    with pytest.raises(InvalidParameterError):
        model_from_precisions([np.eye(3), np.eye(2)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_block_model_rejects_non_finite_values(bad):
    K = np.stack([np.eye(3), np.eye(3)])
    K[1, 0, 2] = bad
    with pytest.raises(InvalidParameterError, match="non-finite"):
        BlockModel(p=3, B=2, L=4, beta=2.0, precisions=K)


def test_block_model_is_its_precisions():
    # A singular or indefinite block is a model; it fails where a root is formed.
    model = model_from_precisions([np.array([[2.0, 0.5], [0.5, 1.0]]), np.zeros((2, 2))])
    assert [f.name for f in dataclasses.fields(model)] == ["p", "B", "L", "beta", "precisions"]
    with pytest.raises(TypeError):
        BlockModel(p=2, B=1, L=4, beta=2.0, precisions=np.eye(2)[None], covariances=np.eye(2)[None])


@pytest.mark.parametrize("sizes", [(0, 1, 4), (2, 0, 4), (2, 1, 0), (2, 1, -3), (2, 1, 2.5),
                                   (2, True, 4)])
def test_block_model_rejects_a_size_that_is_not_a_positive_integer(sizes):
    p, B, L = sizes
    with pytest.raises(InvalidParameterError, match="integer [pBL] >= 1"):
        BlockModel(p=p, B=B, L=L, beta=2.0, precisions=np.eye(2)[None])


def test_block_model_rejects_precisions_that_are_not_exactly_symmetric():
    K = np.stack([np.eye(3), np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]])])
    K[1, 0, 1] = np.nextafter(0.5, 1.0)  # one ulp off its mirror entry
    with pytest.raises(InvalidParameterError, match="not symmetric"):
        BlockModel(p=3, B=2, L=4, beta=2.0, precisions=K)


# ---------------------------------------------------------------- build_block_model

def test_spectrum_map_rejects_a_stack_with_one_indefinite_block():
    K = np.stack([np.eye(3), np.eye(3), np.diag([1.0, -0.5, 2.0])])
    with pytest.raises(ConstructionFailure):
        _spectrum_to_band(K, 2.0)


def test_empty_graph_gives_diagonal_precisions():
    g = Cig(p=4)
    model = build_block_model(g, 1, 10, 2.0, 0.3, 7)
    for K in model.precisions:
        assert np.allclose(K, np.diag(np.diag(K)))
    lo, hi = covariance_eig_range(model)
    assert 1.0 - 1e-9 <= lo and hi <= 2.0 + 1e-9


def test_single_edge_precision_entry_nonzero():
    g = Cig(p=2, edges=frozenset({frozenset({1, 2})}))
    model = build_block_model(g, 1, 8, 2.0, 0.4, 3)
    assert model.precisions[0][0, 1] != 0.0
    assert partial_correlation(model, 1, 2) > 0.0


def test_covariance_eigenvalues_land_on_band():
    g = random_cig(8, 2, 11)
    model = build_block_model(g, 4, 16, 2.0, 0.4, 12)
    rep = verify_assumptions(model, g, rho_min=0.0, s=2)
    assert rep.eig_min >= 1.0 - 1e-9
    assert rep.eig_max <= 2.0 + 1e-9
    # The band is hit exactly, not just contained.
    assert rep.eig_min == pytest.approx(1.0, abs=1e-9)
    assert rep.eig_max == pytest.approx(2.0, abs=1e-9)


def test_eigenvalues_match_characteristic_polynomial_roots():
    # Independent eigenvalue oracle for p <= 3: roots of det(C - x I).
    g = Cig(p=3, edges=frozenset({frozenset({1, 2}), frozenset({2, 3})}))
    model = build_block_model(g, 2, 8, 2.0, 0.4, 5)
    for C in np.linalg.inv(model.precisions):
        c2 = -np.trace(C)
        c1 = 0.5 * (np.trace(C) ** 2 - np.trace(C @ C))
        c0 = -np.linalg.det(C)
        roots = np.sort(np.roots([1.0, c2, c1, c0]).real)
        direct = np.linalg.eigvalsh(C)
        assert np.allclose(roots, direct, atol=1e-9)


def test_precision_support_equals_edge_set():
    g = random_cig(7, 3, 21)
    model = build_block_model(g, 3, 8, 2.0, 0.4, 22)
    for i in range(1, 8):
        for j in range(i + 1, 8):
            rho = partial_correlation(model, i, j)
            assert (rho > 0.0) == ((i, j) in g.edges)


def test_build_block_model_deterministic():
    g = random_cig(6, 2, 9)
    m1 = build_block_model(g, 3, 8, 2.0, 0.4, 77)
    m2 = build_block_model(g, 3, 8, 2.0, 0.4, 77)
    for K1, K2 in zip(m1.precisions, m2.precisions):
        assert np.array_equal(K1, K2)


def test_build_block_model_invalid_parameters():
    g = random_cig(4, 2, 0)
    with pytest.raises(InvalidParameterError):
        build_block_model(g, 0, 8, 2.0, 0.4, 0)
    with pytest.raises(InvalidParameterError):
        build_block_model(g, 2, 0, 2.0, 0.4, 0)
    with pytest.raises(InvalidParameterError):
        build_block_model(g, 2, 8, 1.0, 0.4, 0)
    with pytest.raises(InvalidParameterError):
        build_block_model(g, 2, 8, 2.0, 1.5, 0)


# ---------------------------------------------------------------- partial_correlation

def test_partial_correlation_single_block_value():
    model = model_from_precisions([np.array([[2.0, 1.0], [1.0, 2.0]])])
    assert partial_correlation(model, 1, 2) == pytest.approx(0.25)


def test_partial_correlation_two_block_average():
    K1 = np.array([[1.0, 0.3], [0.3, 1.0]])
    K2 = np.array([[1.0, 0.4], [0.4, 1.0]])
    model = model_from_precisions([K1, K2])
    assert partial_correlation(model, 1, 2) == pytest.approx((0.09 + 0.16) / 2)


def test_partial_correlation_zero_off_edge():
    g = Cig(p=3, edges=frozenset({frozenset({1, 2})}))
    model = build_block_model(g, 2, 8, 2.0, 0.4, 1)
    assert partial_correlation(model, 1, 3) == 0.0


def test_partial_correlation_rejects_diagonal():
    model = model_from_precisions([np.eye(3)])
    with pytest.raises(InvalidParameterError):
        partial_correlation(model, 2, 2)


def test_partial_correlation_scale_invariant():
    rng = np.random.default_rng(42)
    g = random_cig(5, 2, 2)
    model = build_block_model(g, 3, 8, 2.0, 0.4, 3)
    scales = rng.uniform(0.5, 3.0, model.B)
    scaled = model_from_precisions([c * K for c, K in zip(scales, model.precisions)])
    for (i, j) in g.edges:
        assert partial_correlation(scaled, i, j) == pytest.approx(
            partial_correlation(model, i, j), rel=1e-12
        )


@pytest.mark.parametrize("B", [1, 4, 8, 9])
def test_min_edge_strength_is_bitwise_min_of_one_dimensional_block_means(B):
    # Summing B >= 8 values in another order changes their last bits, and
    # rho_min, lambda and bound_N in the experiment CSV with them.
    for seed in range(20):
        g = random_cig(8, 3, seed)
        model = build_block_model(g, B, 8, 2.0, 0.4, seed + 50)
        strengths = []
        for (i, j) in g.edges:
            ratio = np.array([K[i - 1, j - 1] / K[i - 1, i - 1] for K in model.precisions])
            strengths.append(float(np.mean(ratio * ratio)))
            assert partial_correlation(model, i, j) == strengths[-1]
        assert min_edge_strength(model, g) == min(strengths)


def test_min_edge_strength_empty_graph_is_infinite():
    g = Cig(p=3)
    model = build_block_model(g, 1, 4, 2.0, 0.3, 0)
    assert min_edge_strength(model, g) == float("inf")


# ---------------------------------------------------------------- pilot_min_edge_strengths

@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 12), st.data(), st.integers(1, 9), st.floats(1.01, 20.0),
    st.floats(0.01, 0.99), st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1),
    st.booleans(),
)
def test_pilot_strength_is_bitwise_the_built_models(p, data, B, beta, coupling,
                                                     graph_seed, model_seed, edgeless):
    g = Cig(p=p) if edgeless else random_cig(p, data.draw(st.integers(1, p - 1)), graph_seed)
    [pilot] = pilot_min_edge_strengths([g], B, beta, coupling, [model_seed])
    built = min_edge_strength(build_block_model(g, B, 1, beta, coupling, model_seed), g)
    assert np.float64(pilot).tobytes() == np.float64(built).tobytes()
    assert (pilot == float("inf")) == edgeless


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 10), st.integers(1, 9), st.integers(1, 5), st.floats(1.01, 20.0),
    st.floats(0.01, 0.99), st.data(),
)
def test_stacked_models_are_bitwise_the_models_built_alone(p, B, n, beta, coupling, data):
    # B >= 8 is where a (B, E) mean along the wrong axis changes the last bits.
    cigs, seeds = [], []
    for _ in range(n):
        if data.draw(st.booleans()):
            cigs.append(Cig(p=p))
        else:
            s_max = data.draw(st.integers(1, p - 1))
            cigs.append(random_cig(p, s_max, data.draw(st.integers(0, 2**63 - 1))))
        seeds.append(data.draw(st.integers(0, 2**63 - 1)))
    precisions, roots, strengths = build_model_stack(cigs, B, beta, coupling, seeds)
    assert precisions.shape == roots.shape == (n, B, p, p)
    # The band map keeps the scattered symmetry of K = I + W exactly.
    assert precisions.tobytes() == precisions.swapaxes(-1, -2).copy().tobytes()
    pilots = pilot_min_edge_strengths(cigs, B, beta, coupling, seeds)
    for k, (cig, seed) in enumerate(zip(cigs, seeds)):
        alone = build_block_model(cig, B, 1, beta, coupling, seed)
        assert precisions[k].tobytes() == alone.precisions.tobytes()
        assert roots[k].tobytes() == build_model_stack([cig], B, beta, coupling, [seed])[1].tobytes()
        rho = np.float64(min_edge_strength(alone, cig)).tobytes()
        assert np.float64(strengths[k]).tobytes() == rho
        assert np.float64(pilots[k]).tobytes() == rho
        assert (strengths[k] == float("inf")) == (not cig.edges)


@pytest.mark.parametrize("p, B, beta, coupling", [(8, 4, 2.0, 0.4), (3, 1, 1.1, 0.95),
                                                   (11, 9, 10.0, 0.05)])
def test_stacked_roots_are_square_roots_of_the_covariances_built_alone(p, B, beta, coupling):
    # Four models, one edgeless, on one stack: each block's root F = K^-1/2
    # is exactly symmetric, has F F = K^-1 and F K F = I, is within rounding
    # the root the samplers form from eigh of the mapped K, and is bit for
    # bit the root of the model built alone.
    cigs = [random_cig(p, 2, 1), Cig(p=p), random_cig(p, 1, 2), random_cig(p, p - 1, 3)]
    seeds = [10, 11, 12, 13]
    precisions, roots, _ = build_model_stack(cigs, B, beta, coupling, seeds)
    identity = np.eye(p)
    for cig, seed, K, F in zip(cigs, seeds, precisions, roots):
        assert np.array_equal(F, F.swapaxes(1, 2))
        assert np.abs(F @ F - np.linalg.inv(K)).max() <= 1e-13 * beta
        assert np.abs(F @ K @ F - identity).max() <= 1e-13 * beta
        assert np.abs(F - inverse_square_roots(*np.linalg.eigh(K))).max() <= 1e-13 * beta
        assert F.tobytes() == build_model_stack([cig], B, beta, coupling, [seed])[1].tobytes()


def test_model_stack_checks_the_mapped_spectrum_and_the_roots(monkeypatch):
    original = model_module._spectrum_to_band
    cigs, seeds = [random_cig(6, 2, 1), random_cig(6, 2, 2)], [3, 4]

    def negated(K, beta):  # the second model's mapped eigenvalues turn negative
        K_new, new_evals, vecs = original(K, beta)
        new_evals[2:] *= -1.0
        return K_new, new_evals, vecs

    monkeypatch.setattr(model_module, "_spectrum_to_band", negated)
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        build_model_stack(cigs, 2, 2.0, 0.4, seeds)

    def shifted(K, beta):  # the second model's precisions no longer match its spectrum
        K_new, new_evals, vecs = original(K, beta)
        K_new[2:] *= 1.01
        return K_new, new_evals, vecs

    monkeypatch.setattr(model_module, "_spectrum_to_band", shifted)
    with pytest.raises(ConstructionFailure, match="inversion residual"):
        build_model_stack(cigs, 2, 2.0, 0.4, seeds)


def test_model_stack_rejects_graphs_of_different_sizes():
    with pytest.raises(InvalidParameterError, match="differ in p"):
        build_model_stack([random_cig(5, 2, 0), random_cig(6, 2, 0)], 2, 2.0, 0.4, [1, 2])


def test_pilot_rejects_what_build_block_model_rejects():
    g = random_cig(4, 2, 0)
    for B, beta, coupling in [(0, 2.0, 0.4), (2, 1.0, 0.4), (2, 2.0, 1.5), (2, 2.0, 0.0)]:
        with pytest.raises(InvalidParameterError):
            pilot_min_edge_strengths([g], B, beta, coupling, [0])
        with pytest.raises(InvalidParameterError):
            build_block_model(g, B, 8, beta, coupling, 0)


def test_pilot_rejects_non_finite_precisions(monkeypatch):
    # min(inf, nan) is inf, so a NaN strength would vanish from the calibration.
    import nsgms.model as model_module

    def spoiled(K, beta):
        K_new, new_evals, vecs = _spectrum_to_band(K, beta)
        K_new[-1, 0, 0] = np.nan
        return K_new, new_evals, vecs

    monkeypatch.setattr(model_module, "_spectrum_to_band", spoiled)
    g = random_cig(6, 2, 1)
    with pytest.raises(InvalidParameterError, match="non-finite"):
        pilot_min_edge_strengths([g], 2, 2.0, 0.4, [3])
    with pytest.raises(InvalidParameterError, match="non-finite"):
        build_block_model(g, 2, 8, 2.0, 0.4, 3)


# ---------------------------------------------------------------- verify_assumptions

def test_verify_assumptions_all_pass():
    g = random_cig(8, 2, 31)
    model = build_block_model(g, 2, 32, 2.0, 0.4, 32)
    rho = min_edge_strength(model, g)
    rep = verify_assumptions(model, g, rho_min=rho, s=2)
    assert rep.assumptions_ok == (True, True, True)
    assert rep.max_degree <= 2


def test_verify_assumptions_sparsity_fails_for_large_s():
    g = random_cig(6, 2, 8)
    model = build_block_model(g, 2, 32, 2.0, 0.4, 8)
    rep = verify_assumptions(model, g, rho_min=0.0, s=6)
    assert rep.assumptions_ok[1] is False


def test_verify_assumptions_rho_fails_above_achieved():
    g = random_cig(6, 2, 8)
    model = build_block_model(g, 2, 32, 2.0, 0.4, 8)
    achieved = min_edge_strength(model, g)
    rep = verify_assumptions(model, g, rho_min=achieved * 1.01, s=2)
    assert rep.assumptions_ok[0] is False
    assert rep.rho_min_achieved == pytest.approx(achieved)
