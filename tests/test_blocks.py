import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclica import (
    BlockSeries,
    PolyDirectionModel,
    VectorSeries,
    blocks_cyclicity,
    blocks_decompose,
    blocks_necessary,
    compute_L,
    cyclicity_single,
    local_rank,
)

from conftest import assert_same_bits, edge_coeffs


def _series_from_directions(directions, K=10, transient=()):
    """Blocks P_k cycling through the given (N+1, d) direction arrays."""
    directions = [np.asarray(p, dtype=complex) for p in directions]
    N = directions[0].shape[0] - 1
    tra = dict(transient)
    blocks = []
    for k in range(K):
        p = tra.get(k, directions[k % len(directions)])
        blocks.append((2 ** (k + 2), p))
    d = directions[0].shape[1]
    return BlockSeries(d, N, blocks)


def test_block_series_validation():
    with pytest.raises(ValueError, match="overlap"):
        BlockSeries(1, 2, [(4, np.ones((3, 1))), (5, np.ones((3, 1)))])
    with pytest.raises(ValueError, match="shape"):
        BlockSeries(2, 1, [(4, np.ones((3, 2)))])
    with pytest.raises(ValueError, match="nonzero"):
        BlockSeries(1, 0, [(4, np.zeros((1, 1)))])


def _loop_to_series(bs):
    """Reference flattening by a loop over blocks and rows."""
    exps, coeffs = [], []
    for n, p in bs.blocks:
        for j in range(bs.block_degree + 1):
            if np.any(p[j] != 0):
                exps.append(n + j)
                coeffs.append(p[j])
    return VectorSeries(bs.dim, exps, np.array(coeffs).reshape(-1, bs.dim))


@given(dim=st.integers(1, 3), N=st.integers(0, 3), K=st.integers(0, 6),
       seed=st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_to_series_oracle(dim, N, K, seed):
    bs = BlockSeries(1, 1, [(4, [[1.0], [2.0]]), (9, [[3.0], [0.0]])])
    f = bs.to_series()
    assert list(f.exponents) == [4, 5, 9]
    assert f.coefficient(5) == pytest.approx(2.0)
    # an empty block list is the zero series of its dimension
    for d in (1, 2, 3):
        z = BlockSeries(d, 1, []).to_series()
        assert (z.dim, len(z), z.coeffs.shape, z.truncation_degree) == (d, 0, (0, d), 0)
    # the loop oracle on draws: zero rows inside a block, -0.0 parts and the
    # empty block list included
    rng = np.random.default_rng(seed)
    positions = np.cumsum(rng.integers(N + 1, N + 4, size=K))
    blocks = []
    for n in positions:
        p = edge_coeffs(rng, (N + 1, dim))
        if not np.any(p != 0):
            p[0, 0] = 1.0  # blocks must be nonzero
        blocks.append((int(n), p))
    bs = BlockSeries(dim, N, blocks)
    assert_same_bits(bs.to_series(), _loop_to_series(bs))


# -- local rank ---------------------------------------------------------------


def test_noncyclic_direction_block():
    # P_k = a_k (e1 + z e2): one direction, local rank 1 < 2
    P = np.array([[1.0, 0.0], [0.0, 1.0]])  # e1 + z e2 as a (2, 2) stack
    bs = _series_from_directions([P])
    model = PolyDirectionModel([P])
    L = compute_L(bs, model)
    assert L.dim == 1
    assert local_rank(L, 2, 1) == 1
    v = blocks_cyclicity(bs, model)
    assert v.status == "NonCyclic" and v.mode == "exact"
    assert v.detail["local_rank"] == 1


def test_cyclic_two_directions():
    P1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    P2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    bs = _series_from_directions([P1, P2])
    model = PolyDirectionModel([P1, P2])
    v = blocks_cyclicity(bs, model)
    assert bool(v)
    assert v.detail["local_rank"] == 2


def test_local_rank_seed_stable():
    P1 = np.array([[1.0, 0.0], [1.0, 1.0]])
    P2 = np.array([[0.0, 1.0], [2.0, 0.0]])
    bs = _series_from_directions([P1, P2])
    L = compute_L(bs, PolyDirectionModel([P1, P2]))
    ranks = {local_rank(L, 2, 1, seed=s) for s in range(6)}
    assert len(ranks) == 1


def test_degree_zero_delegates_to_tail_span():
    # constant blocks: the criterion is the plain coefficient tail span
    e1 = np.array([[1.0, 0.0]])
    e2 = np.array([[0.0, 1.0]])
    bs = _series_from_directions([e1, e2])
    v = blocks_cyclicity(bs, PolyDirectionModel([e1, e2]))
    assert bool(v)
    assert bool(cyclicity_single(bs.to_series())) == bool(v)


def test_degree_zero_noncyclic_matches_single():
    e1 = np.array([[1.0, 0.0]])
    bs = _series_from_directions([e1])
    v = blocks_cyclicity(bs, PolyDirectionModel([e1]))
    assert not bool(v)
    assert bool(cyclicity_single(bs.to_series())) == bool(v)


# -- consistency and decomposition --------------------------------------------


def test_model_consistency_rejected():
    P = np.array([[1.0, 0.0], [0.0, 1.0]])
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    bs = _series_from_directions([P, Q])
    with pytest.raises(ValueError, match="leaves span"):
        compute_L(bs, PolyDirectionModel([P]))


def test_blocks_decompose_orthogonality():
    P = np.array([[1.0, 0.0], [0.0, 1.0]])
    T = np.array([[0.0, 1.0], [0.0, 0.0]])
    bs = _series_from_directions([P], transient={3: T})
    model = PolyDirectionModel([P], transient_indices=(3,))
    g, p = blocks_decompose(bs, model)
    L = compute_L(bs, model)
    # f = g + p blockwise
    recon = {n: np.array(b) for n, b in g.blocks}
    for n, b in p.blocks:
        recon[n] = recon.get(n, 0) + b
    for n, b in bs.blocks:
        assert np.allclose(recon.get(n, np.zeros_like(b)), b, atol=1e-12)
    # every block of p is orthogonal to L
    for _, b in p.blocks:
        v = np.asarray(b).ravel()
        assert np.linalg.norm(L.basis.conj().T @ v) < 1e-10


def test_blocks_decompose_pure_recurrent_has_no_p():
    P = np.array([[1.0, 0.0], [0.0, 1.0]])
    bs = _series_from_directions([P])
    g, p = blocks_decompose(bs, PolyDirectionModel([P]))
    assert p is None
    assert len(g.blocks) == len(bs.blocks)


# -- necessary test -----------------------------------------------------------


def test_blocks_necessary_witness():
    # all coefficient vectors stay in span(e1 + e2 slots) -> proper span
    P = np.array([[1.0, 0.0], [0.0, 0.0]])
    bs = _series_from_directions([P])
    v = blocks_necessary(bs)
    assert v.status == "NotCyclic"
    assert v.witness == 0


def test_cyclic_implies_possibly_cyclic():
    P1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    P2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    bs = _series_from_directions([P1, P2])
    assert bool(blocks_cyclicity(bs, PolyDirectionModel([P1, P2])))
    assert blocks_necessary(bs).status == "PossiblyCyclic"
