import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclica import (
    BlockSeries,
    PolyDirectionModel,
    Tolerances,
    VectorSeries,
    blocks_cyclicity,
    blocks_decompose,
    blocks_necessary,
    compute_L,
    cyclicity_single,
    local_rank,
    numerical_span,
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


def test_degree_zero_checks_the_model_against_the_blocks():
    # block 1 is e2, off the declared span(e1): rejected at N = 0 as at N >= 1
    e1, e2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    bs = BlockSeries(2, 0, [(1, e1), (4, e2), (16, e1)])
    model = PolyDirectionModel([e1])
    with pytest.raises(ValueError, match="coefficient at position 1 leaves span"):
        model.check_consistency(bs)
    with pytest.raises(ValueError, match="coefficient at position 1 leaves span"):
        blocks_cyclicity(bs, model)
    assert not blocks_cyclicity(bs, PolyDirectionModel([e1], transient_indices=(1,)))


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


def test_transient_index_past_the_last_block_is_not_checked():
    # constant blocks: an index past the stored blocks says nothing about them
    e1 = np.array([[1.0, 0.0]])
    e2 = np.array([[0.0, 1.0]])
    bs = _series_from_directions([e1, e2], K=3)
    plain = blocks_cyclicity(bs, PolyDirectionModel([e1, e2]))
    past = blocks_cyclicity(bs, PolyDirectionModel([e1, e2], transient_indices=(5,)))
    assert past == plain
    assert bool(past)


def test_tiny_recurrent_polynomial_is_a_direction():
    # entries whose squared norm underflows are nonzero all the same
    tiny = [[1e-170], [1e-170]]
    bs = BlockSeries(1, 1, [(1, tiny), (4, tiny)])
    assert bool(blocks_cyclicity(bs, PolyDirectionModel([tiny])))


def test_transient_indices_sorted_distinct_nonnegative():
    e1 = np.array([[1.0, 0.0]])
    assert PolyDirectionModel([e1], [4, 1, 4]).transient_indices == (1, 4)
    with pytest.raises(ValueError, match=">= 0"):
        PolyDirectionModel([e1], [2, -1])


# -- the parent loops as references -------------------------------------------


def _loop_check_consistency(bs, model, tol=Tolerances()):
    """Reference block consistency check by a loop over the blocks."""
    shape = (bs.block_degree + 1, bs.dim)
    if any(p.shape != shape for p in model.recurrent_polys):
        raise ValueError(f"recurrent polynomials must have shape {shape}")
    span = numerical_span([p.ravel() for p in model.recurrent_polys], tol)
    for k, (_, p) in enumerate(bs.blocks):
        if k in model.transient_indices:
            continue
        v = p.ravel()
        r = v - span.basis @ (span.basis.conj().T @ v)
        if np.linalg.norm(r) > tol.tol_rank * max(np.linalg.norm(v), 1.0):
            raise ValueError(f"block {k} leaves span(recurrent_polys)")


def _loop_compute_L(bs, model, tol=Tolerances()):
    _loop_check_consistency(bs, model, tol)
    return numerical_span([p.ravel() for p in model.recurrent_polys], tol)


def _loop_decompose(bs, model, tol=Tolerances()):
    """Reference split by a loop over the blocks, one projection each."""
    L = _loop_compute_L(bs, model, tol)
    g_blocks, p_blocks = [], []
    shape = (bs.block_degree + 1, bs.dim)
    for n, p in bs.blocks:
        v = p.ravel()
        proj = L.basis @ (L.basis.conj().T @ v)
        rem = v - proj
        if np.linalg.norm(rem) <= tol.tol_orth * max(np.linalg.norm(v), 1.0):
            rem = np.zeros_like(rem)
        if np.any(proj != 0):
            g_blocks.append((n, proj.reshape(shape)))
        if np.any(rem != 0):
            p_blocks.append((n, rem.reshape(shape)))
    g = BlockSeries(bs.dim, bs.block_degree, g_blocks) if g_blocks else None
    p = BlockSeries(bs.dim, bs.block_degree, p_blocks) if p_blocks else None
    return g, p


def _loop_local_rank(L, dim, block_degree, seed=0, tol=Tolerances()):
    """Reference local rank by a loop over 8 samples and the basis stacks."""
    if L.dim == 0:
        return 0
    N, d = block_degree, dim
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(8):
        z = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        powers = z ** np.arange(N + 1)
        ev = np.zeros((d, L.dim), dtype=complex)
        for c in range(L.dim):
            ev[:, c] = powers @ L.basis[:, c].reshape(N + 1, d)
        s = np.linalg.svd(ev, compute_uv=False)
        r = int(np.sum(s >= tol.tol_rank * s[0])) if s.size and s[0] > 0 else 0
        best = max(best, r)
    return best


def _block_draw(seed, d, N, K):
    """Blocks in the span of random recurrent polynomials (rank possibly
    short), a tenth pushed off it by 1e-12 (within tol_rank) or 1e-6, and
    transient indices up to 3 past the last block carrying fresh blocks;
    one draw in ten declares the recurrent polynomials transposed."""
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    D = (N + 1) * d
    rank = int(rng.integers(1, D + 1))
    rec = (cn(int(rng.integers(1, 4)), rank) @ cn(rank, D)).reshape(-1, N + 1, d)
    c = np.einsum("kr,rjd->kjd", cn(K, len(rec)), rec)
    off = rng.uniform(size=K) < 0.1
    c[off] += rng.choice([1e-12, 1e-6], size=(int(off.sum()), 1, 1)) * cn(int(off.sum()), N + 1, d)
    transient = np.flatnonzero(rng.uniform(size=K + 3) < 0.2)
    for k in transient[transient < K]:
        c[k] = cn(N + 1, d)
    if rng.uniform() < 0.1:
        rec = rec.transpose(0, 2, 1)
    bs = BlockSeries(d, N, [(2 ** (k + 2), c[k]) for k in range(K)])
    return bs, PolyDirectionModel(list(rec), transient)


def _outcome(run, *args):
    """The result, or the exception class with the block position it names
    (its message when it names none)."""
    try:
        return run(*args)
    except ValueError as exc:
        m = re.search(r"(?:block|position) (\d+)", str(exc))
        return type(exc), int(m.group(1)) if m else str(exc)


def _dense(part, bs):
    """Stacks of a decomposition part at the block positions of bs, zero
    where it has no block, and the positions where it has one."""
    at = dict(part.blocks) if part is not None else {}
    D = (bs.block_degree + 1) * bs.dim
    return (np.reshape([at.get(n, np.zeros_like(p)) for n, p in bs.blocks], (-1, D)),
            sorted(at))


def _assert_decompose_close(bs, new, ref, tol=Tolerances()):
    """The same blocks on both sides, p within 1e-12 of the loop's, and g
    within 1e-12 of the loop's g plus the residual the loop zeroed, which
    is below tol_orth; all relative to max(|f_k|, 1)."""
    (g, gk), (p, pk) = (_dense(x, bs) for x in new)
    (g_ref, gk_ref), (p_ref, pk_ref) = (_dense(x, bs) for x in ref)
    assert (gk, pk) == (gk_ref, pk_ref)
    f, _ = _dense(bs, bs)
    scale = np.maximum(np.linalg.norm(f, axis=1), 1.0)[:, None]
    assert np.all(np.abs(p - p_ref) <= 1e-12 * scale)
    assert np.all(np.abs(g - g_ref) <= (1e-12 + tol.tol_orth) * scale)


_BLOCK_DRAWS = dict(seed=st.integers(0, 10**6), d=st.integers(1, 3), N=st.integers(0, 3),
                    K=st.integers(0, 8))


@given(**_BLOCK_DRAWS)
# a block off the span, a transposed model, and a consistent draw
@example(seed=1, d=2, N=1, K=4)
@example(seed=5, d=2, N=2, K=6)
@example(seed=0, d=2, N=1, K=8)
@settings(max_examples=300, deadline=None)
def test_blocks_match_loops(seed, d, N, K):
    bs, model = _block_draw(seed, d, N, K)
    L = _outcome(compute_L, bs, model)
    ref = _outcome(_loop_compute_L, bs, model)
    assert _outcome(model.check_consistency, bs) == _outcome(_loop_check_consistency, bs, model)
    if isinstance(ref, tuple):
        assert L == ref
        return
    assert L.basis.tobytes() == ref.basis.tobytes()
    _assert_decompose_close(bs, blocks_decompose(bs, model), _loop_decompose(bs, model))
    for s in range(3):
        assert local_rank(L, d, N, seed=seed + s) == _loop_local_rank(L, d, N, seed=seed + s)


def test_block_draws_include_failures():
    kinds = set()
    for seed in range(200):
        bs, model = _block_draw(seed, 1 + seed % 3, seed % 4, 8)
        out = _outcome(compute_L, bs, model)
        kinds.add(type(out[1]).__name__ if isinstance(out, tuple) else "passed")
    assert kinds == {"passed", "int", "str"}


@given(seed=st.integers(0, 10**6), d=st.integers(1, 4), N=st.integers(0, 4),
       r=st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_local_rank_matches_loop(seed, d, N, r):
    rng = np.random.default_rng(seed)
    # r stacks whose rows all lie in one random q-dimensional subspace of
    # C^d, so the local rank is at most q while dim L may exceed it
    q = int(rng.integers(1, d + 1))
    m = rng.standard_normal((r, N + 1, q)) @ rng.standard_normal((q, d))
    L = numerical_span(list(m.reshape(r, -1)))
    assert local_rank(L, d, N, seed) == _loop_local_rank(L, d, N, seed)
