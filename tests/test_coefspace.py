import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclica import (
    BlockSeries,
    IntegerSpectrum,
    PolyDirectionModel,
    PolySeries,
    ShiftedSpectrumFamily,
    TailModel,
    Tolerances,
    VectorSeries,
    Verdict,
    blocks_cyclicity,
    cyclicity_family,
    cyclicity_single,
    decompose,
    necessary_condition,
    numerical_span,
    polydisc_cyclicity,
    project_vector,
    scalar_series,
    shifted_stack_cyclicity,
    tail_span,
    x_star,
)

from cyclica.multishift import sstarN_cyclicity

from conftest import dyadic_scalar


def _model_series(dim, recurrent, transient, n_terms=16):
    """Build a lacunary series realizing the given tail model."""
    model = TailModel(dim, recurrent, transient)
    exps = [2**k for k in range(1, n_terms + 1)]
    tra = dict(model.transient)
    coeffs = []
    for k in range(n_terms):
        if k in tra:
            coeffs.append(tra[k])
        else:
            coeffs.append(np.asarray(recurrent[k % len(recurrent)], dtype=complex))
    return VectorSeries(dim, exps, np.array(coeffs)), model


# -- tail spans and X_* -------------------------------------------------------


def test_tail_span_monotone(rng):
    f = VectorSeries(
        3, [2**k for k in range(1, 11)],
        rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3)),
    )
    for m in range(5):
        inner = tail_span(f, m + 1)
        outer = tail_span(f, m)
        # inner lies in outer: projecting it onto outer leaves nothing
        O = outer.basis
        assert np.linalg.norm(inner.basis - O @ (O.conj().T @ inner.basis), 2) < 1e-8


def test_x_star_exact_vs_window():
    e1, e2 = np.eye(2)
    f, model = _model_series(2, [e1, e2], [])
    assert x_star(model).dim == 2
    assert x_star(f).dim == 2


def test_x_star_proper_subspace():
    e1 = np.array([1.0, 0.0])
    f, model = _model_series(2, [e1], [(0, np.array([0.0, 1.0]))])
    assert x_star(model).dim == 1


# -- decomposition ------------------------------------------------------------


def test_decompose_oracle_transient_direction():
    # recurrent span = e1; position 0 carries e1+e2, so p = e2 at exponent 2
    e1, e2 = np.eye(2)
    f, model = _model_series(2, [e1], [(0, e1 + e2)])
    rep = decompose(f, model)
    assert rep.mode == "exact"
    assert not bool(rep.verdict)
    assert rep.n_of_f == 1
    assert rep.deg_p_index == 0
    assert rep.deg_p_exponent == 2  # first stored exponent
    assert np.allclose(rep.p.coefficient(2), e2)


def test_decompose_splitting_orthogonality(rng):
    for trial in range(20):
        d = int(rng.integers(1, 5))
        r = int(rng.integers(1, d + 1))
        rec = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(r)]
        tra = [(0, rng.standard_normal(d) + 1j * rng.standard_normal(d))]
        f, model = _model_series(d, rec, tra)
        rep = decompose(f, model)
        xs = rep.x_star
        # p-coefficients orthogonal to X_*, (f - p)-coefficients inside X_*
        for c in rep.p.coeffs:
            assert np.linalg.norm(xs.basis.conj().T @ c) < 1e-9
        for e, c in zip(f.exponents, f.coeffs):
            body = c - rep.p.coefficient(int(e))
            assert np.linalg.norm(body - xs.basis @ (xs.basis.conj().T @ body)) < 1e-9
        assert bool(rep.verdict) == (xs.dim == d)


def test_decompose_rejects_inconsistent_model():
    e1, e2 = np.eye(2)
    f, _ = _model_series(2, [e1], [(0, e2)])
    bad = TailModel(2, [e2])  # recurrent span misses the stored e1 terms
    with pytest.raises(ValueError):
        decompose(f, bad)


def test_deg_p_conventions_can_differ():
    # transient directions at stored positions 0 and 2 with a recurrent term
    # in between: the index count is 3 but the exponent degree is n_3 = 8
    e1, e2, e3 = np.eye(3)
    f, model = _model_series(3, [e1], [(0, e2), (2, e3)])
    rep = decompose(f, model)
    assert rep.n_of_f == 3
    assert rep.deg_p_index == 2
    assert rep.deg_p_exponent == 8


# -- one exact-mode rule -----------------------------------------------------


def _via_polydisc(f, model):
    v = polydisc_cyclicity(PolySeries(1, f.dim, zip(f.exponents[:, None], f.coeffs)),
                           model=model)
    rest = {k: x for k, x in v.detail.items() if k not in ("c1", "c1_certificate")}
    return Verdict(v.status, v.mode, v.witness, rest)


def _via_blocks(f, model):
    # at degree 0 each block is one coefficient, each model direction one row
    bs = BlockSeries(f.dim, 0, zip(f.exponents, f.coeffs[:, None]))
    pm = PolyDirectionModel([r[None] for r in model.recurrent],
                            [k for k, _ in model.transient])
    return blocks_cyclicity(bs, pm)


def _via_shifted_stack(f, model):
    # component i on {2^k + i}: removing the shifts restacks f's columns
    comps = [scalar_series(f.exponents + i, f.coeffs[:, i]) for i in range(f.dim)]
    fam = ShiftedSpectrumFamily(IntegerSpectrum.geometric(2), range(f.dim), comps)
    return shifted_stack_cyclicity(fam, model=model)


RULE_CALLERS = {
    "cyclicity_single": lambda f, model: cyclicity_single(f, model=model),
    "decompose": lambda f, model: decompose(f, model).verdict,
    "polydisc_cyclicity": _via_polydisc,
    "blocks_cyclicity_degree_0": _via_blocks,
    "shifted_stack_cyclicity": _via_shifted_stack,
}


@pytest.mark.parametrize("caller", sorted(RULE_CALLERS))
def test_every_exact_verdict_checks_its_model(caller):
    # (1, 0) at position 0, then the direction (1, 1) at shrinking scale
    f = VectorSeries(2, [2**k for k in range(1, 11)],
                     [[1, 0]] + [[2.0**-k, 2.0**-k] for k in range(1, 10)])
    consistent = TailModel(2, [[1, 1]], [(0, [1, 0])])
    want = Verdict("NonCyclic", "exact", detail={"dim_x_star": 1, "dim": 2})
    assert RULE_CALLERS[caller](f, consistent) == want
    assert cyclicity_single(consistent) == want  # a model alone is taken as declared
    contradicting = TailModel(2, [[1, -1]], [(0, [1, 0])])
    with pytest.raises(ValueError) as declared:
        contradicting.check_consistency(f)
    with pytest.raises(ValueError) as got:
        RULE_CALLERS[caller](f, contradicting)
    assert str(got.value) == str(declared.value)


# -- verdicts -----------------------------------------------------------------


def test_cyclicity_single_scalar_dyadic():
    v = cyclicity_single(dyadic_scalar())
    assert v.status == "Cyclic"
    assert v.mode == "at-horizon"


def test_cyclicity_single_exact_mode():
    e1, e2 = np.eye(2)
    f, model = _model_series(2, [e1, e2], [])
    v = cyclicity_single(f, model=model)
    assert bool(v) and v.mode == "exact"


def test_cyclic_implies_possibly_cyclic(rng):
    for _ in range(10):
        d = int(rng.integers(1, 4))
        rec = list(np.eye(d) + 0j)
        f, model = _model_series(d, rec, [])
        assert bool(cyclicity_single(f, model=model))
        assert necessary_condition([model]).status == "PossiblyCyclic"


def test_necessary_condition_witness():
    # coefficients leave the e2 direction after position 0
    e1, e2 = np.eye(2)
    f, model = _model_series(2, [e1], [(0, e2)])
    v = necessary_condition([model])
    assert v.status == "NotCyclic"
    assert v.witness == 1
    assert v.mode == "exact"


def test_scalar_reduction():
    # d = 1: cyclic exactly when the stored spectrum keeps going
    assert bool(cyclicity_single(scalar_series([1, 2, 4, 8, 16, 32], np.ones(6))))


def test_cyclicity_family_union():
    e1, e2 = np.eye(2)
    f1, m1 = _model_series(2, [e1], [])
    f2, m2 = _model_series(2, [e2], [])
    assert not bool(cyclicity_family([m1]))
    v = cyclicity_family([m1, m2])
    assert bool(v) and v.mode == "exact"


def test_family_rejects_mixed_dimensions():
    _, m1 = _model_series(1, [np.array([1.0])], [])
    _, m2 = _model_series(2, list(np.eye(2) + 0j), [])
    with pytest.raises(ValueError):
        cyclicity_family([m1, m2])


def _loop_check_consistency(model, f, tol=Tolerances()):
    """Reference consistency check by a loop over the stored coefficients,
    one projection each."""
    if f.dim != model.dim:
        raise ValueError("dimension mismatch between series and tail model")
    rec = numerical_span(model.recurrent, tol)
    tra = dict(model.transient)
    for k in range(len(f)):
        a = f.coeffs[k]
        if k in tra:
            if np.linalg.norm(a - tra[k]) > 1e-8 * max(np.linalg.norm(a), 1.0):
                raise ValueError(
                    f"transient coefficient at position {k} does not match the series"
                )
            continue
        r = a - project_vector(a, rec)
        if np.linalg.norm(r) > tol.tol_rank * max(np.linalg.norm(a), 1.0):
            raise ValueError(
                f"coefficient at position {k} leaves span(recurrent) "
                f"(residual {np.linalg.norm(r):.3e})"
            )


def _check_outcome(check, *args):
    """None on success, else the exception class and its message up to the
    residual figure, which names the kind and the position."""
    try:
        check(*args)
    except ValueError as exc:
        return type(exc), re.sub(r" \(residual .*\)$", "", str(exc))
    return None


def _consistency_draw(seed, d, n):
    """Coefficients in a random span of C^d, a tenth of them pushed off it by
    1e-12 (within tol_rank) or 1e-6 (not, unless the span is full), and
    transient terms at random positions up to 3 past the stored ones, each
    the stored coefficient, a 1e-12 or 1e-6 change of it, or a fresh vector."""
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    rank = int(rng.integers(1, d + 1))
    rec = cn(int(rng.integers(1, 4)), rank) @ cn(rank, d)
    c = cn(n, len(rec)) @ rec
    off = rng.uniform(size=n) < 0.1
    c[off] += rng.choice([1e-12, 1e-6], size=(int(off.sum()), 1)) * cn(int(off.sum()), d)
    transient = []
    for k in np.flatnonzero(rng.uniform(size=n + 3) < 0.2):
        kind = int(rng.integers(5))
        v = c[k] if k < n and kind < 4 else cn(d)
        transient.append((int(k), v + [0.0, 0.0, 1e-12, 1e-6, 0.0][kind] * cn(d)))
    return TailModel(d, rec, transient), VectorSeries(d, 2 ** np.arange(1, n + 1), c)


@given(seed=st.integers(0, 10**6), d=st.integers(1, 4), n=st.integers(0, 12))
# a coefficient off the span, a changed transient, and both passing
@example(seed=1, d=2, n=12)
@example(seed=5, d=1, n=4)
@example(seed=0, d=1, n=4)
@settings(max_examples=300, deadline=None)
def test_check_consistency_matches_loop(seed, d, n):
    model, f = _consistency_draw(seed, d, n)
    assert _check_outcome(model.check_consistency, f) == _check_outcome(
        _loop_check_consistency, model, f)


def test_consistency_draws_include_failures():
    kinds = set()
    for seed in range(200):
        model, f = _consistency_draw(seed, 1 + seed % 4, 12)
        out = _check_outcome(model.check_consistency, f)
        kinds.add(None if out is None else out[1].split(" at ")[0])
    assert kinds == {None, "coefficient", "transient coefficient"}


def test_tailmodel_validation():
    with pytest.raises(ValueError):
        TailModel(2, [])
    with pytest.raises(ValueError):
        TailModel(2, [np.zeros(2)])
    with pytest.raises(ValueError):
        TailModel(1, [np.ones(1)], [(2, np.ones(1)), (1, np.ones(1))])


def test_tailmodel_rejects_nonfinite_vectors():
    # a NaN transient would pass check_consistency: NaN comparisons are False
    e1, e2 = np.eye(2)
    with pytest.raises(ValueError, match="finite"):
        TailModel(2, [e1, e2], [(0, np.array([np.nan, 0.0]))])
    with pytest.raises(ValueError, match="finite"):
        TailModel(2, [e1, np.array([0.0, np.inf])])


# -- one tail rule for every tail-span check ----------------------------------


def _decaying_series(seed, d, n, base, dominant, witness=None):
    """Generic C^d coefficients times base^-k at exponents 2^(k+1); with
    ``dominant`` = j, a_j = 1e12 e_1; with a witness m0, every coefficient
    from position m0 on lies on one line."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    if witness is not None:
        c[witness:] = c[witness:, :1] * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    c *= (float(base) ** -np.arange(n))[:, None]
    if dominant is not None:
        c[dominant] = 1e12 * np.eye(d)[0]
    return VectorSeries(d, [2 ** (k + 1) for k in range(n)], c)


@given(seed=st.integers(0, 10**6), d=st.integers(1, 4), n=st.integers(1, 16),
       base=st.integers(1, 64), dominant=st.none() | st.integers(0, 15))
# C^2, 12 generic terms and a_0 = (1e12, 0): a per-window relative cutoff
# calls it NotCyclic with witness 0 although the last tail is full
@example(seed=5, d=2, n=12, base=1, dominant=0)
@settings(max_examples=300, deadline=None)
def test_tail_verdicts_agree(seed, d, n, base, dominant):
    f = _decaying_series(seed, d, n, base, None if dominant is None else dominant % n)
    single = cyclicity_single(f)
    nec = necessary_condition(f)
    power = sstarN_cyclicity(f, 1)
    assert (nec.status == "PossiblyCyclic") == (single.status == "Cyclic")
    assert power.status == single.status
    assert nec.witness == power.witness


@pytest.mark.parametrize("base", [1, 16, 64])
@pytest.mark.parametrize("m0", [1, 2, 3])
def test_witness_survives_fast_decay(base, m0):
    # a cutoff pinned in absolute terms to the small last tail would sit
    # below the rounding floor of the large early tails (witness 4, not 1,
    # at base 64)
    f = _decaying_series(m0, 2, 16, base, None, witness=m0)
    v = necessary_condition(f)
    assert v.status == "NotCyclic" and v.witness == m0
    assert v.detail == {"dim_tail_span": 1, "dim": 2}


@pytest.mark.parametrize("scaled", [0, 1])
@pytest.mark.parametrize("factor", [1e-12, 1e12])
def test_rescaling_a_member_changes_nothing(scaled, factor):
    rng = np.random.default_rng(3)
    plane = rng.standard_normal((3, 2))
    members = []
    for m0 in (3, 5):
        c = rng.standard_normal((14, 3)) + 1j * rng.standard_normal((14, 3))
        c[m0:] = c[m0:, :2] @ plane.T  # proper tails from m0 on
        members.append(VectorSeries(3, [2**k for k in range(1, 15)], c))
    before = necessary_condition(members)
    assert before.status == "NotCyclic" and before.witness == 5
    members[scaled] = VectorSeries(3, members[scaled].exponents,
                                   factor * members[scaled].coeffs)
    after = necessary_condition(members)
    assert (after.status, after.witness, after.detail) == (
        before.status, before.witness, before.detail)


def test_member_scale_does_not_hide_a_recurrent_direction():
    # B's recurrent e2 is 1e-12 of its own transient term, yet both members'
    # tails (every tail of each) together span C^2
    e1, e2 = np.eye(2)
    a = TailModel(2, [e1])
    b = TailModel(2, [e2], [(0, 1e12 * (e1 + e2))])
    v = necessary_condition([a, b])
    assert v.status == "PossiblyCyclic" and v.mode == "exact"
    assert cyclicity_family([a, b]).status == "Cyclic"


def test_mixed_family_tail_starts_at_half_the_stored_series():
    # a model's transient past the stored half does not move the deciding
    # tail: it starts at 8 // 2 = 4, and every later model term lies in it
    e1, e2, e3 = np.eye(3)
    f = VectorSeries(3, [2 ** (k + 1) for k in range(8)], [e3, e3] + [e1] * 6)
    for late in (5, 50):
        model = TailModel(3, [e1], [(late, e2)])
        v = necessary_condition([model, f])
        assert (v.status, v.mode, v.witness, v.detail) == (
            "NotCyclic", "at-horizon", 2, {"dim_tail_span": 2, "dim": 3})
    # e3 at position 5 lies in that tail: with the model's horizon (51) the
    # tail would miss it
    g = VectorSeries(3, [2 ** (k + 1) for k in range(8)], [e1] * 5 + [e3] + [e1] * 2)
    v = necessary_condition([TailModel(3, [e1], [(50, e2)]), g])
    assert (v.status, v.mode, v.witness) == ("PossiblyCyclic", "at-horizon", None)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_members_decaying_at_different_rates(k):
    e1, e2 = np.eye(2)
    ex = [2 ** (j + 1) for j in range(24)]
    a = VectorSeries(2, ex, np.tile(e1, (24, 1)))
    b = VectorSeries(2, ex, (10.0 ** (-k * np.arange(24)))[:, None] * e2)
    assert necessary_condition([a, b]).status == "PossiblyCyclic"
    assert cyclicity_family([a, b]).status == "Cyclic"


@given(seed=st.integers(0, 10**6), d=st.integers(1, 4), n=st.integers(2, 20),
       members=st.lists(st.tuples(st.integers(1, 64), st.integers(-12, 12),
                                  st.none() | st.integers(0, 19)), min_size=1, max_size=3))
# a member decaying by 9^-k next to a constant-size member whose tail is a
# line: jointly scaled, the decaying member's last half falls below the cutoff
@example(seed=0, d=2, n=19, members=[(9, 1, None), (1, 0, 0)])
@settings(max_examples=200, deadline=None)
def test_family_verdict_agrees_with_cyclicity_family(seed, d, n, members):
    """Equal-length raw members, each with its own decay base and scale and
    possibly a proper tail from some position on: a full last family tail
    is exactly a full union of the members' X_*."""
    rng = np.random.default_rng(seed)
    family = []
    for base, scale, m0 in members:
        c = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        if m0 is not None:
            h = np.linalg.qr(rng.standard_normal((d, d)))[0][:, : d - 1]
            c[m0 % n :] = c[m0 % n :] @ h @ h.T
        c *= 10.0**scale * (float(base) ** -np.arange(n))[:, None]
        family.append(VectorSeries(d, [2 ** (k + 1) for k in range(n)], c))
    nec = necessary_condition(family)
    assert (nec.status == "PossiblyCyclic") == (cyclicity_family(family).status == "Cyclic")
    if nec.status == "NotCyclic":
        assert 0 <= nec.witness <= n // 2 and nec.detail["dim_tail_span"] < d
