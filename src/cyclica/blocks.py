"""Lacunary series with bounded polynomial blocks f = sum_k P_k(z) z^{n_k}.

Each block P_k is an X-valued polynomial of degree at most N; blocks do not
overlap because the base spectrum is lacunary.  The recurrent polynomial
directions span a subspace L of the (N+1)-fold coefficient space, and
cyclicity is equivalent to L having maximal *local* rank: the dimension of
{p(z) : p in L} at a generic disc point must equal dim X.

This is the tail-span criterion applied to block stacks: block k flattens
to one (N+1)*d stack at term position k, and ``coefspace``'s TailModel,
one exact-mode rule and split decide consistency, L and the decomposition:
the model is checked against the stored blocks before L is taken from it.
This module only builds the stacks and evaluates L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefspace import TailModel, _decide, _split
from .core import Subspace, Tolerances, VectorSeries, _index, _indices, first_proper_tail
from .verdicts import CYCLIC, NON_CYCLIC, NOT_CYCLIC, POSSIBLY_CYCLIC, Verdict

__all__ = [
    "BlockSeries",
    "PolyDirectionModel",
    "compute_L",
    "local_rank",
    "blocks_cyclicity",
    "blocks_decompose",
    "blocks_necessary",
]


def _as_poly(p, N, d):
    a = np.asarray(p, dtype=complex)
    if a.shape != (N + 1, d):
        raise ValueError(f"block polynomial must have shape ({N + 1}, {d})")
    return a


@dataclass(frozen=True)
class BlockSeries:
    """dim d, block degree N, blocks [(n_k, P_k)] with P_k of shape (N+1, d).

    Row j of P_k is the coefficient vector of z^j inside the block, so the
    full series carries P_k^(j) at exponent n_k + j.
    """

    dim: int
    block_degree: int
    blocks: tuple

    def __init__(self, dim, block_degree, blocks):
        d, N = _index(dim, "dim", 1), _index(block_degree, "block_degree", 0)
        blocks = tuple(blocks)
        ns = _indices([n for n, _ in blocks], "n", 0).tolist()
        _indices([n + N for n in ns], "exponents")  # every block's top stays in int64
        bl = tuple((n, _as_poly(p, N, d)) for n, (_, p) in zip(ns, blocks))
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("block positions must be strictly increasing")
        if any(b - a <= N for a, b in zip(ns, ns[1:])):
            raise ValueError("blocks overlap: consecutive gaps must exceed the degree")
        if any(np.all(p == 0) for _, p in bl):
            raise ValueError("blocks must be nonzero")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "block_degree", N)
        object.__setattr__(self, "blocks", bl)

    def __len__(self):
        return len(self.blocks)

    def to_series(self) -> VectorSeries:
        ns = np.array([n for n, _ in self.blocks], dtype=np.int64)
        exps = (ns[:, None] + np.arange(self.block_degree + 1)).ravel()
        coeffs = np.reshape([p for _, p in self.blocks], (-1, self.dim))
        return VectorSeries(self.dim, exps, coeffs)


@dataclass(frozen=True)
class PolyDirectionModel:
    """Declared recurrent polynomial directions of the block sequence.

    The coefficient tail model (``coefspace.TailModel``) of the block
    stacks: each P_k flattens to one (N+1)*d vector, blocks at the sorted,
    distinct ``transient_indices`` are exceptional, every other block must
    lie in span(recurrent_polys).  Indices past the last stored block are
    not checked.
    """

    recurrent_polys: tuple
    transient_indices: tuple = ()

    def __init__(self, recurrent_polys, transient_indices=()):
        rec = tuple(np.asarray(p, dtype=complex) for p in recurrent_polys)
        if not rec:
            raise ValueError("recurrent set must be nonempty")
        if any(np.all(p == 0) for p in rec):
            raise ValueError("recurrent polynomials must be nonzero")
        tr = tuple(sorted({_index(k, "transient_indices", 0) for k in transient_indices}))
        object.__setattr__(self, "recurrent_polys", rec)
        object.__setattr__(self, "transient_indices", tr)

    def check_consistency(self, bs: BlockSeries, tol: Tolerances = Tolerances()):
        """``TailModel.check_consistency`` on the block stacks."""
        f, tm = _stacks(bs, self)
        tm.check_consistency(f, tol)


def _stacks(bs: BlockSeries, model: PolyDirectionModel):
    """Block k's stack at exponent n_k (position k), and the model over them."""
    shape = (bs.block_degree + 1, bs.dim)
    # TailModel checks lengths only: (2, 3) and (3, 2) flatten alike
    if any(p.shape != shape for p in model.recurrent_polys):
        raise ValueError(f"recurrent polynomials must have shape {shape}")
    D = shape[0] * shape[1]
    f = VectorSeries(D, [n for n, _ in bs.blocks],
                     np.reshape([p for _, p in bs.blocks], (-1, D)))
    tra = [(k, f.coeffs[k]) for k in model.transient_indices if k < len(f)]
    return f, TailModel(D, [p.ravel() for p in model.recurrent_polys], tra)


def compute_L(bs: BlockSeries, model: PolyDirectionModel,
              tol: Tolerances = Tolerances()) -> Subspace:
    """L = span of the recurrent polynomial directions, as coefficient stacks,
    once the model is checked against the stored blocks."""
    return _decide(*_stacks(bs, model), tol)[0]


def local_rank(L: Subspace, dim: int, block_degree: int, seed: int = 0,
               tol: Tolerances = Tolerances()) -> int:
    """max over 8 seeded random disc points z of dim{p(z) : p in L}.

    The evaluation rank of an analytic family is constant off a finite set,
    so a handful of seeded samples attains the maximum outside events of
    measure zero.
    """
    if L.dim == 0:
        return 0
    N, d = block_degree, dim
    u = np.random.default_rng(seed).uniform(size=(8, 2))
    z = 0.8 * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    # evaluation matrices: column c of ev[s] is p_c(z_s) for basis stack c
    ev = (z[:, None] ** np.arange(N + 1) @ L.basis.reshape(N + 1, -1)).reshape(-1, d, L.dim)
    s = np.linalg.svd(ev, compute_uv=False)
    ranks = np.sum(s >= tol.tol_rank * s[:, :1], axis=1) * (s[:, 0] > 0)
    return int(ranks.max(initial=0))


def blocks_cyclicity(bs: BlockSeries, model: PolyDirectionModel,
                     tol: Tolerances = Tolerances(), seed: int = 0) -> Verdict:
    """Cyclic iff the recurrent polynomial directions have full local rank."""
    L, v = _decide(*_stacks(bs, model), tol)
    if bs.block_degree == 0:
        # blocks are constants: the criterion degenerates to the tail span
        return v
    r = local_rank(L, bs.dim, bs.block_degree, seed=seed, tol=tol)
    status = CYCLIC if r == bs.dim else NON_CYCLIC
    return Verdict(status, "exact", detail={"local_rank": r, "dim": bs.dim})


def blocks_decompose(bs: BlockSeries, model: PolyDirectionModel,
                     tol: Tolerances = Tolerances()):
    """Split f = g + p with the blocks of g in L and those of p off it.

    ``coefspace``'s split on the block stacks: p is each stack's residual
    off L, zeroed when tiny against ``tol_orth``, and g = f - p.  A
    consistent model confines p to the transient blocks.  Either part is
    None when it has no nonzero block.
    """
    f, tm = _stacks(bs, model)
    p = _split(f, _decide(f, tm, tol)[0], tol)
    shape = (-1, bs.block_degree + 1, bs.dim)

    def unstack(rows):
        s = VectorSeries(f.dim, f.exponents, rows)  # drops the zero stacks
        return None if s.is_zero else BlockSeries(
            bs.dim, bs.block_degree, zip(s.exponents, s.coeffs.reshape(shape)))

    return unstack(f.coeffs - p), unstack(p)


def blocks_necessary(bs: BlockSeries, tol: Tolerances = Tolerances()) -> Verdict:
    """Necessary test: the block coefficient vectors must span C^d on tails.

    If the span of all P_k^(j) with k >= m is a proper subspace for some
    window start m up to half the blocks, the series cannot be cyclic.
    """
    rows = np.array([p for _, p in bs.blocks]).reshape(-1, bs.dim)
    starts = [m * (bs.block_degree + 1) for m in range(len(bs) // 2 + 1)]
    hit = first_proper_tail(rows, tol, starts)
    if hit is None:
        return Verdict(POSSIBLY_CYCLIC, "at-horizon")
    return Verdict(NOT_CYCLIC, "at-horizon", witness=hit[0],
                   detail={"dim_span": hit[1], "dim": bs.dim})
