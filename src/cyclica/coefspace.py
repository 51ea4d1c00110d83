"""Tail-span analysis of the coefficient sequence in C^d.

The central object is the intersection of the spans of coefficient tails,

    X_* = intersection over m of span{a_k : k >= m},

which is full exactly when the (lacunary) series is cyclic for the backward
shift.  X_* is an infinite-tail object, so it is computed exactly only under
a declared :class:`TailModel` (transient coefficients + recurrent directions);
raw truncations get an at-horizon estimate from the last half of the terms.
One private rule, ``_decide``, turns a model into an X_* verdict for every
caller (``decompose``, ``cyclicity_single`` and through them the unions,
polydisc and blocks modules): a TailModel given beside a stored series is
checked against its coefficients first, so no exact verdict rests on a
model that the stored series contradicts.

Every check reads a member through one tail view: ``_tail_rows`` lists its
rows with their positions (a model's recurrent directions sit at position
infinity, in every tail), and ``_horizon`` is where its deciding tail starts
(past a model's last transient, at half a stored series).  ``tail_span``
masks the view, ``x_star`` is the tail span at the horizon, and
``necessary_condition`` joins its members' views.  The tails are nested, so
one rule (``core.first_proper_tail``) serves every tail-span check: the last
tail decides, and the witness is the first deficient tail, its coefficients
ranked at unit length against ``tol_rank``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Subspace,
    Tolerances,
    VectorSeries,
    _family,
    _index,
    first_proper_tail,
    numerical_span,
)
from .verdicts import (
    CYCLIC,
    NON_CYCLIC,
    NOT_CYCLIC,
    POSSIBLY_CYCLIC,
    Verdict,
)

__all__ = [
    "TailModel",
    "CyclicityReport",
    "tail_span",
    "x_star",
    "decompose",
    "cyclicity_single",
    "cyclicity_family",
    "necessary_condition",
]


@dataclass(frozen=True)
class TailModel:
    """Declared structure of a coefficient sequence (a_k).

    ``transient`` lists finitely many exceptional terms as (term position,
    coefficient vector) with strictly increasing 0-based positions; every
    other coefficient is asserted to lie in span(``recurrent``), and each
    recurrent direction is asserted to occur for infinitely many k.
    """

    dim: int
    recurrent: tuple
    transient: tuple = ()

    def __init__(self, dim, recurrent, transient=()):
        d = _index(dim, "dim")
        rec = tuple(np.asarray(v, dtype=complex) for v in recurrent)
        if not rec:
            raise ValueError("recurrent set must be nonempty")
        if any(v.shape != (d,) for v in rec):
            raise ValueError("recurrent vectors must have length dim")
        if not all(np.any(v != 0) for v in rec):  # a norm can underflow to 0
            raise ValueError("recurrent vectors must be nonzero")
        tra = tuple((_index(k, "index", 0), np.asarray(v, dtype=complex)) for k, v in transient)
        if any(v.shape != (d,) for _, v in tra):
            raise ValueError("transient vectors must have length dim")
        if not all(np.isfinite(v).all() for v in rec + tuple(v for _, v in tra)):
            raise ValueError("tail model vectors must be finite")
        ks = [k for k, _ in tra]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("transient positions must be strictly increasing")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "recurrent", rec)
        object.__setattr__(self, "transient", tra)

    def check_consistency(self, f: VectorSeries, tol: Tolerances = Tolerances()):
        """Stored coefficients must match the declared structure.

        Transient positions must reproduce the stored coefficient; every
        other stored coefficient must lie in span(recurrent) with relative
        residual below tol_rank.  Raises ValueError on violation.
        """
        if f.dim != self.dim:
            raise ValueError("dimension mismatch between series and tail model")
        rec = numerical_span(self.recurrent, tol).basis
        a = f.coeffs
        norms = np.linalg.norm(a, axis=1)
        resid = np.linalg.norm(a - (rec @ (rec.conj().T @ a.T)).T, axis=1)
        bad = resid > tol.tol_rank * np.maximum(norms, 1.0)
        # transient positions past the stored terms are not checked
        tra = [(k, v) for k, v in self.transient if k < len(f)]
        ks = np.array([k for k, _ in tra], dtype=np.int64)
        vs = np.reshape([v for _, v in tra], (-1, self.dim))
        bad[ks] = np.linalg.norm(a[ks] - vs, axis=1) > 1e-8 * np.maximum(norms[ks], 1.0)
        if not bad.any():
            return
        k = int(np.argmax(bad))
        if k in ks:
            raise ValueError(f"transient coefficient at position {k} does not match the series")
        raise ValueError(
            f"coefficient at position {k} leaves span(recurrent) (residual {resid[k]:.3e})"
        )


@dataclass(frozen=True)
class CyclicityReport:
    x_star: Subspace
    n_of_f: int
    p: VectorSeries
    verdict: Verdict
    mode: str  # "exact" | "at-horizon"
    deg_p_exponent: int  # largest exponent appearing in p (-1 if p = 0)
    deg_p_index: int  # N(f) - 1, the index-count convention


def _tail_rows(m):
    """(positions, rows) of a member's coefficients: a stored series' rows
    at 0, 1, ...; a model's recurrent directions at inf, then its transient
    terms at their positions."""
    if isinstance(m, TailModel):
        positions = [np.inf] * len(m.recurrent) + [k for k, _ in m.transient]
        return np.array(positions), np.array(m.recurrent + tuple(v for _, v in m.transient))
    return np.arange(len(m)), m.coeffs


def _horizon(m) -> int:
    """Where a member's deciding tail starts: past a model's last transient
    position, or at half a stored series."""
    if isinstance(m, TailModel):
        return m.transient[-1][0] + 1 if m.transient else 0
    return len(m) // 2


def tail_span(f, m: int, tol: Tolerances = Tolerances()) -> Subspace:
    """Orthonormal basis of span{a_k : k >= m}.

    Accepts a VectorSeries (stored coefficients) or a TailModel (recurrent
    directions plus transient terms at positions >= m).
    """
    positions, rows = _tail_rows(f)
    return numerical_span(rows[positions >= _index(m, "m", 0)], tol)


def x_star(model, tol: Tolerances = Tolerances()) -> Subspace:
    """X_* = span(recurrent) for a TailModel; last-half estimate otherwise.

    For a raw series the estimate is the span of the coefficients from
    position len // 2 on, an at-horizon quantity.
    """
    return tail_span(model, _horizon(model), tol)


def _split(f: VectorSeries, xs: Subspace, tol: Tolerances):
    """Coefficients of p = f - P_{X_*} f, zeroing numerically tiny residuals."""
    proj = xs.basis @ (xs.basis.conj().T @ f.coeffs.T)  # (d, n)
    resid = f.coeffs - proj.T
    norms = np.linalg.norm(resid, axis=1)
    scale = np.linalg.norm(f.coeffs, axis=1)
    resid[norms <= tol.tol_orth * np.maximum(scale, 1.0)] = 0.0
    return resid


def _decide(f, model, tol: Tolerances):
    """(X_*, verdict) of f under ``model``: the one exact-mode rule.

    A TailModel given beside a stored series is first checked against its
    coefficients, so an exact verdict never rests on a model that f
    contradicts; a model given alone (f is the model) is taken as declared.
    The mode is exact only for a TailModel; any other model leaves X_* to
    f's at-horizon estimate.
    """
    exact = isinstance(model, TailModel)
    if exact and not isinstance(f, TailModel):
        model.check_consistency(f, tol)
    xs = x_star(model if exact else f, tol)
    status = CYCLIC if xs.is_full else NON_CYCLIC
    return xs, Verdict(status, "exact" if exact else "at-horizon",
                       detail={"dim_x_star": xs.dim, "dim": f.dim})


def decompose(f: VectorSeries, model, tol: Tolerances = Tolerances()) -> CyclicityReport:
    """Split f = (f - p) + p with p = projection of f onto the X_* complement.

    X_* and the verdict come from ``_decide``: in exact (TailModel) mode the
    model is first checked against the stored coefficients, and p is then
    supported on transient positions only.
    """
    xs, verdict = _decide(f, model, tol)
    resid = _split(f, xs, tol)
    p = VectorSeries(f.dim, f.exponents, resid, f.truncation_degree)
    nonzero = np.flatnonzero(np.linalg.norm(resid, axis=1) > 0)
    n_of_f = int(nonzero[-1]) + 1 if nonzero.size else 0
    deg_exp = int(f.exponents[nonzero[-1]]) if nonzero.size else -1
    return CyclicityReport(
        x_star=xs,
        n_of_f=n_of_f,
        p=p,
        verdict=verdict,
        mode=verdict.mode,
        deg_p_exponent=deg_exp,
        deg_p_index=n_of_f - 1,
    )


def cyclicity_single(f, tol: Tolerances = Tolerances(), model=None) -> Verdict:
    """Cyclic iff X_* is all of C^d (lacunary series, finite d).

    A TailModel ``model`` is checked against the stored series f before it
    decides (ValueError if f contradicts it); ``cyclicity_single(tm)`` on a
    model alone is exact and unchecked.
    """
    return _decide(f, f if model is None else model, tol)[1]


def cyclicity_family(family, tol: Tolerances = Tolerances()) -> Verdict:
    """Cyclic iff the union of the members' X_* spaces spans C^d."""
    family, d = _family(family)
    exact = all(isinstance(m, TailModel) for m in family)
    union = numerical_span(np.vstack([x_star(m, tol).basis.T for m in family]), tol)
    mode = "exact" if exact else "at-horizon"
    status = CYCLIC if union.is_full else NON_CYCLIC
    return Verdict(status, mode, detail={"dim_union": union.dim, "dim": d})


def necessary_condition(family, tol: Tolerances = Tolerances()) -> Verdict:
    """Lemma-level necessary check: a proper family tail span forbids cyclicity.

    The tails X_m = span{a_k : k >= m, all members} are nested, so the last
    one decides (m = last transient position + 1 for TailModels, whose
    recurrent directions lie in every tail; else half the longest series).
    Its span joins each member's own ``tail_span``, as ``cyclicity_family``
    joins the members' X_*, so rescaling a member changes nothing.  A proper
    last tail gives NotCyclic, witnessed by the first deficient m (ranked as
    in ``core.first_proper_tail``); otherwise PossiblyCyclic.  No lacunarity
    is assumed.
    """
    family, d = _family(family)
    exact = all(isinstance(m, TailModel) for m in family)
    # a mixed family's tail starts at half its longest stored series
    last = max(_horizon(m) for m in family if exact or not isinstance(m, TailModel))
    positions, rows = map(np.concatenate, zip(*map(_tail_rows, family)))
    order = np.argsort(positions, kind="stable")
    starts = np.searchsorted(positions[order], np.arange(last + 1))
    tail = np.vstack([tail_span(m, last, tol).basis.T for m in family])
    hit = first_proper_tail(rows[order], tol, starts, last=numerical_span(tail, tol))
    mode = "exact" if exact else "at-horizon"
    if hit is None:
        return Verdict(POSSIBLY_CYCLIC, mode)
    return Verdict(NOT_CYCLIC, mode, witness=hit[0],
                   detail={"dim_tail_span": hit[1], "dim": d})
