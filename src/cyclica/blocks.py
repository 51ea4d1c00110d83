"""Lacunary series with bounded polynomial blocks f = sum_k P_k(z) z^{n_k}.

Each block P_k is an X-valued polynomial of degree at most N; blocks do not
overlap because the base spectrum is lacunary.  The recurrent polynomial
directions span a subspace L of the (N+1)-fold coefficient space, and
cyclicity is equivalent to L having maximal *local* rank: the dimension of
{p(z) : p in L} at a generic disc point must equal dim X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefspace import cyclicity_single
from .core import Subspace, Tolerances, VectorSeries, first_proper_tail, numerical_span
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
        d, N = int(dim), int(block_degree)
        if d < 1 or N < 0:
            raise ValueError("need dim >= 1 and block_degree >= 0")
        bl = tuple((int(n), _as_poly(p, N, d)) for n, p in blocks)
        ns = [n for n, _ in bl]
        if any(n < 0 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("block positions must be strictly increasing and >= 0")
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


def _flatten(p):
    return np.asarray(p, dtype=complex).ravel()


@dataclass(frozen=True)
class PolyDirectionModel:
    """Declared recurrent polynomial directions of the block sequence.

    Mirrors the coefficient tail model: blocks at ``transient_indices`` are
    exceptional, every other block must lie in span(recurrent_polys) inside
    the (N+1)*d-dimensional coefficient-stack space.
    """

    recurrent_polys: tuple
    transient_indices: tuple = ()

    def __init__(self, recurrent_polys, transient_indices=()):
        rec = tuple(np.asarray(p, dtype=complex) for p in recurrent_polys)
        if not rec:
            raise ValueError("recurrent set must be nonempty")
        if any(np.all(p == 0) for p in rec):
            raise ValueError("recurrent polynomials must be nonzero")
        tr = tuple(sorted(int(k) for k in transient_indices))
        object.__setattr__(self, "recurrent_polys", rec)
        object.__setattr__(self, "transient_indices", tr)

    def check_consistency(self, bs: BlockSeries, tol: Tolerances = Tolerances()):
        shape = (bs.block_degree + 1, bs.dim)
        if any(p.shape != shape for p in self.recurrent_polys):
            raise ValueError(f"recurrent polynomials must have shape {shape}")
        span = numerical_span([_flatten(p) for p in self.recurrent_polys], tol)
        skip = set(self.transient_indices)
        for k, (_, p) in enumerate(bs.blocks):
            if k in skip:
                continue
            v = _flatten(p)
            r = v - span.basis @ (span.basis.conj().T @ v)
            if np.linalg.norm(r) > tol.tol_rank * max(np.linalg.norm(v), 1.0):
                raise ValueError(
                    f"block {k} leaves span(recurrent_polys) "
                    f"(residual {np.linalg.norm(r):.3e})"
                )


def compute_L(bs: BlockSeries, model: PolyDirectionModel,
              tol: Tolerances = Tolerances()) -> Subspace:
    """L = span of the recurrent polynomial directions, as coefficient stacks."""
    model.check_consistency(bs, tol)
    return numerical_span([_flatten(p) for p in model.recurrent_polys], tol)


def local_rank(L: Subspace, dim: int, block_degree: int, samples: int = 8,
               seed: int = 0, tol: Tolerances = Tolerances()) -> int:
    """max over random disc points z of dim{p(z) : p in L}.

    The evaluation rank of an analytic family is constant off a finite set,
    so a handful of seeded samples attains the maximum outside events of
    measure zero.
    """
    if L.dim == 0:
        return 0
    N, d = block_degree, dim
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(samples):
        z = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        powers = z ** np.arange(N + 1)
        # evaluation matrix: columns are p_j(z) for the basis stacks
        ev = np.zeros((d, L.dim), dtype=complex)
        for c in range(L.dim):
            stack = L.basis[:, c].reshape(N + 1, d)
            ev[:, c] = powers @ stack
        s = np.linalg.svd(ev, compute_uv=False)
        r = int(np.sum(s >= tol.tol_rank * s[0])) if s.size and s[0] > 0 else 0
        best = max(best, r)
    return best


def blocks_cyclicity(bs: BlockSeries, model: PolyDirectionModel,
                     tol: Tolerances = Tolerances(), seed: int = 0) -> Verdict:
    """Cyclic iff the recurrent polynomial directions have full local rank."""
    if bs.block_degree == 0:
        # blocks are constants: the criterion degenerates to the tail span
        from .coefspace import TailModel

        rec = [p[0] for p in model.recurrent_polys]
        tra = [(k, bs.blocks[k][1][0]) for k in model.transient_indices]
        tm = TailModel(bs.dim, rec, tra)
        return cyclicity_single(bs.to_series(), tol, model=tm)
    L = compute_L(bs, model, tol)
    r = local_rank(L, bs.dim, bs.block_degree, seed=seed, tol=tol)
    status = CYCLIC if r == bs.dim else NON_CYCLIC
    return Verdict(status, "exact", detail={"local_rank": r, "dim": bs.dim})


def blocks_decompose(bs: BlockSeries, model: PolyDirectionModel,
                     tol: Tolerances = Tolerances()):
    """Split f = g + p with g the blockwise projection onto L.

    Each block of g is the orthogonal projection of the corresponding block
    onto L in coefficient-stack space; p carries the complements, which a
    consistent model confines to the transient blocks.
    """
    L = compute_L(bs, model, tol)
    g_blocks, p_blocks = [], []
    shape = (bs.block_degree + 1, bs.dim)
    for n, p in bs.blocks:
        v = _flatten(p)
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


def blocks_necessary(bs: BlockSeries, tol: Tolerances = Tolerances()) -> Verdict:
    """Necessary test: the block coefficient vectors must span C^d on tails.

    If the span of all P_k^(j) with k >= m is a proper subspace for some
    window start m up to half the blocks, the series cannot be cyclic.
    """
    rows = np.array([p for _, p in bs.blocks]).reshape(-1, bs.dim)
    starts = [m * (bs.block_degree + 1) for m in range(len(bs) // 2 + 1)]
    hit = first_proper_tail(rows, bs.dim, tol, starts)
    if hit is None:
        return Verdict(POSSIBLY_CYCLIC, "at-horizon")
    return Verdict(NOT_CYCLIC, "at-horizon", witness=hit[0],
                   detail={"dim_span": hit[1], "dim": bs.dim})
