"""Property tests: the polynomial kernel of `nchodge.logforms` against the
frozen `Fraction`-per-term engine in `reference_logforms`.

Both engines must build the same forms: equal `terms` compared as values,
equal `str()`, equal degree and weight level, and the same exception type
when either raises.  The library must also keep every coefficient
integer-first: an `int` when integral, otherwise a `Fraction`.  Seeded
random forms must come out of both engines in the same order, so that a
given seed prints the same report, and the forms the logforms suite draws
must print the reference's bytes.  Every form the kernel builds without the
constructor's checks must be what the constructor makes of its terms.
"""

import itertools
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_logforms as ref
from nchodge import logforms as lf
from nchodge import verify
from nchodge.errors import ChartMismatch
from nchodge.verify import FUZZ_CHARTS

# Every fuzz chart and its residue slice (every fuzz chart has k >= 1); two
# fuzz charts share a slice.
CHARTS = tuple(
    dict.fromkeys(FUZZ_CHARTS + tuple(c.restrict(c.residue_set) for c in FUZZ_CHARTS))
)

# Nonzero exact coefficients: unit and non-unit ints, proper rationals, and
# integral Fractions that the library must turn into ints.
EXACT = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2), Fraction(-9, 3))
# What a caller may also hand the public constructor.
LOOSE = EXACT + (0, Fraction(0), "0", "3/4", "-2", 0.5, -1.25, 2.0, 0.0)


def int_first(poly: dict) -> bool:
    return all(
        type(c) is int if c.denominator == 1 else type(c) is Fraction
        for c in poly.values()
    )


def outcome(build):
    """(value, None) or (None, exception type) of `build()`."""
    try:
        return build(), None
    except Exception as exc:
        return None, type(exc)


def assert_same_form(got_outcome, want_outcome):
    got, got_exc = got_outcome
    want, want_exc = want_outcome
    assert got_exc is want_exc
    if want is None:
        return
    assert got.chart == want.chart
    assert got.terms == want.terms
    assert str(got) == str(want)
    assert all(p and int_first(p) for p in got.terms.values())
    assert outcome(got.degree) == outcome(want.degree)
    assert outcome(lambda: lf.weight_level(got)) == outcome(
        lambda: ref.weight_level(want)
    )


def exponents(n: int, top: int = 2):
    return st.tuples(*[st.integers(0, top)] * n)


def polys(n: int, values=EXACT):
    return st.dictionaries(exponents(n), st.sampled_from(values), max_size=4)


@st.composite
def raw_terms(draw, chart, values=LOOSE):
    """Terms as a caller writes them: bases as unsorted tuples (two may name
    the same set), possibly mixed degrees, dead or out-of-range indices and
    bad exponent tuples."""
    indices = st.integers(1, chart.n + (1 if draw(st.integers(0, 9)) == 0 else 0))
    basis = st.lists(indices, max_size=3, unique=True).map(tuple)
    terms = draw(st.dictionaries(basis, polys(chart.n, values), max_size=4))
    if draw(st.integers(0, 9)) == 0 and terms:
        bad = draw(st.sampled_from([(0,) * (chart.n + 1), (-1,) + (0,) * (chart.n - 1)]))
        terms[next(iter(terms))] = {bad: 1}
    return terms


@st.composite
def form_pairs(draw, chart):
    """One homogeneous form with exact coefficients, built by both engines."""
    live = sorted(chart.live_indices)
    p = draw(st.integers(0, len(live)))
    if not live:
        basis = st.just([])
    else:
        basis = st.lists(st.sampled_from(live), min_size=p, max_size=p, unique=True)
    bases = draw(st.lists(basis, max_size=3))
    terms = {tuple(b): draw(polys(chart.n)) for b in bases}
    return lf.LogPolyForm(chart, terms), ref.LogPolyForm(chart, terms)


def charts():
    return st.sampled_from(CHARTS)


def chart_id(chart) -> str:
    ideal = "".join(map(str, sorted(chart.ideal)))
    omitted = "".join(map(str, sorted(chart.omitted)))
    return f"n{chart.n}l{chart.l}k{chart.k}J{ideal}O{omitted}"


@given(charts().flatmap(lambda c: st.tuples(st.just(c), raw_terms(c))))
def test_constructor_matches_reference(case):
    chart, terms = case
    assert_same_form(
        outcome(lambda: lf.LogPolyForm(chart, terms)),
        outcome(lambda: ref.LogPolyForm(chart, terms)),
    )


@given(charts().flatmap(
    lambda c: st.tuples(form_pairs(c), form_pairs(c), st.sampled_from(EXACT))
))
def test_wedge_sum_and_scale_match_reference(case):
    (a, a_ref), (b, b_ref), c = case
    assert_same_form(
        outcome(lambda: lf.wedge(a, b)), outcome(lambda: ref.wedge(a_ref, b_ref))
    )
    assert_same_form(outcome(lambda: a + b), outcome(lambda: a_ref + b_ref))
    assert_same_form(outcome(lambda: a.scale(c)), outcome(lambda: a_ref.scale(c)))


@given(charts().flatmap(lambda c: form_pairs(c)))
def test_exterior_d_matches_reference(pair):
    a, a_ref = pair
    assert_same_form(
        outcome(lambda: lf.exterior_d(a)), outcome(lambda: ref.exterior_d(a_ref))
    )
    assert lf.in_ideal_subcomplex(a) == ref.in_ideal_subcomplex(a_ref)


@given(charts().flatmap(
    lambda c: st.tuples(
        form_pairs(c),
        st.lists(st.integers(0, c.n + 1), max_size=3, unique=True),
    )
))
def test_residue_matches_reference(case):
    (a, a_ref), indices = case
    assert_same_form(
        outcome(lambda: lf.residue(a, indices)),
        outcome(lambda: ref.residue(a_ref, indices)),
    )


@given(charts().flatmap(lambda c: form_pairs(c)))
def test_packed_round_trip_keeps_terms(pair):
    """The decoded `terms` of a packed form pack back to the same form: equal
    terms, coefficient types and hash, the reference's values, and each
    polynomial printed as the reference prints it; the view is read-only."""
    f, f_ref = pair
    again = lf.LogPolyForm(f.chart, f.terms)
    assert again.terms == f.terms == f_ref.terms
    assert again == f and hash(again) == hash(f)
    assert coefficient_types(again) == coefficient_types(f)
    for b, p in f.terms.items():
        assert lf.format_poly(p) == ref.format_poly(f_ref.terms[b])
    with pytest.raises(TypeError):
        f.terms[frozenset()] = {}


@pytest.mark.parametrize("seed", [0, 1, 23])
@pytest.mark.parametrize("chart", CHARTS, ids=chart_id)
def test_seeded_draws_match_reference(chart, seed):
    """The first draws of each random form builder print the reference's
    bytes and leave both generators in the same state."""
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    for p in range(chart.n + 1):
        got = lf.random_form(got_rng, chart, p)
        assert str(got) == str(ref.random_form(want_rng, chart, p))
        got, exc = outcome(lambda: lf.random_ideal_form(got_rng, chart, p))
        want, want_exc = outcome(lambda: ref.random_ideal_form(want_rng, chart, p))
        assert (str(got), exc) == (str(want), want_exc)
        got = lf.random_lift(got_rng, chart, p)
        assert str(got) == str(ref._random_lift(want_rng, chart, p))
    assert got_rng.getstate() == want_rng.getstate()


def coefficient_types(f):
    return {(b, e): type(c) for b, p in f.terms.items() for e, c in p.items()}


def assert_rebuilds(f):
    """`f` is what the public constructor makes of its own terms: equal
    terms with the same coefficient types, no empty polynomial, same bytes."""
    again = lf.LogPolyForm(f.chart, f.terms)
    assert again.terms == f.terms
    assert coefficient_types(again) == coefficient_types(f)
    assert all(f.terms.values())
    assert str(again) == str(f)


@given(charts().flatmap(
    lambda c: st.tuples(
        form_pairs(c), form_pairs(c), st.sampled_from(EXACT + (0,)),
        st.frozensets(st.integers(1, c.n), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    )
))
def test_kernel_outputs_pass_the_constructor_unchanged(case):
    """Every form the kernel builds without the constructor's checks is one
    the constructor would build from the same terms."""
    (a, _), (b, _), c, indices, seed = case
    chart = a.chart
    outputs = [lf.wedge(a, b), lf.exterior_d(a), a + b, a - b, a.scale(c)]
    got, _ = outcome(lambda: lf.residue(a, indices))
    if got is not None:
        outputs.append(got)
    rng = random.Random(seed)
    for p in range(len(chart.live_indices) + 1):
        outputs.append(lf.random_form(rng, chart, p))
        outputs.append(lf.random_lift(rng, chart, p))
        got, _ = outcome(lambda: lf.random_ideal_form(rng, chart, p))
        if got is not None:
            outputs.append(got)
    for f in outputs:
        assert_rebuilds(f)


@pytest.mark.parametrize("chart", CHARTS, ids=chart_id)
def test_generators_pass_the_constructor_unchanged(chart):
    for p in range(chart.n + 1):
        for bound in (0, 1, 2):
            for g in lf.ideal_weight_generators(chart, p, bound):
                assert_rebuilds(g)
                if chart.k:
                    assert_rebuilds(lf.residue(g, chart.residue_set))
            for g in lf._claim_target_span(chart, p, bound)[0]:
                assert_rebuilds(g)


def replay_suite_draws(engine, lift, chart, seed, trials=5):
    """The draws of `verify.suite_logforms` on one chart, through `engine`,
    as the bytes of every form and weight level they give."""
    rng = random.Random(f"{seed}:{chart.n}:{chart.l}:{chart.k}:{sorted(chart.ideal)}")
    seen = []
    for _ in range(trials):
        p = rng.randint(0, chart.n - 1)
        a = engine.random_ideal_form(rng, chart, p)
        b = engine.random_form(rng, chart, rng.randint(0, chart.n - 1))
        db = engine.exterior_d(b)
        c = engine.random_form(rng, chart, rng.randint(0, 1))
        prod = engine.wedge(b, c)
        for f in (a, engine.exterior_d(a), b, db, engine.exterior_d(db), c, prod):
            seen.append(str(f))
        seen.extend(engine.weight_level(f) for f in (b, c, prod))
    if chart.k >= 1 and chart.j2:
        for p in (chart.k + 1, chart.k + 2):
            if p > chart.n:
                continue
            for r in (p - chart.k - 1, p - chart.k):
                seen.extend(str(lift(rng, chart, r)) for _ in chart.j2)
    return seen, rng.getstate()


@pytest.mark.parametrize("seed", [0, 1, 23])
@pytest.mark.parametrize("chart", FUZZ_CHARTS, ids=chart_id)
def test_suite_draws_match_reference(chart, seed):
    """Values, not only verdicts: the forms the logforms suite draws and
    computes print the reference's bytes, and the generator ends where the
    reference's does."""
    assert replay_suite_draws(lf, lf.random_lift, chart, seed) == replay_suite_draws(
        ref, ref._random_lift, chart, seed
    )


def test_the_suite_at_its_full_trials_draws_the_reference(monkeypatch):
    """One seed at the suite's own 100 trials per chart, witness lifts
    included: the forms print the reference's bytes, and each generator that
    `suite_logforms` seeds for a chart ends where the reference's does, so
    every draw the suite reads is pinned where the suite reads it."""
    seed, made = 7, []

    class Recorded(random.Random):
        def __init__(self, x):
            super().__init__(x)
            made.append(self)

    monkeypatch.setattr(verify, "random", types.SimpleNamespace(Random=Recorded))
    assert verify.suite_logforms(seed=seed).ok
    assert len(made) == len(FUZZ_CHARTS)
    for chart, rng in zip(FUZZ_CHARTS, made):
        want = replay_suite_draws(ref, ref._random_lift, chart, seed, trials=100)
        assert replay_suite_draws(lf, lf.random_lift, chart, seed, trials=100) == want
        assert rng.getstate() == want[1]


# Every fuzz chart and every slice `chart.restrict(I)` of it, I a nonempty
# set of live indices; equal slices of two charts appear once.
SLICES = tuple(
    dict.fromkeys(
        c.restrict(I) if I else c
        for c in FUZZ_CHARTS
        for r in range(len(c.live_indices) + 1)
        for I in itertools.combinations(sorted(c.live_indices), r)
    )
)


@pytest.mark.parametrize("chart", SLICES, ids=chart_id)
def test_chart_tables_match_reference_on_every_slice(chart):
    """`wedge`, `exterior_d`, `weight_level` and `residue` read per-chart
    tables; on every chart they read, seeded forms give the reference's."""
    rng = random.Random(chart_id(chart))
    logs = sorted(chart.log_indices)
    residue_sets = [I for r in range(1, len(logs) + 1) for I in itertools.combinations(logs, r)]
    live = len(chart.live_indices)
    for _ in range(6):
        want_a = ref.random_form(rng, chart, rng.randrange(live + 1))
        want_b = ref.random_form(rng, chart, rng.randrange(live + 1))
        a, b = lf.LogPolyForm(chart, want_a.terms), lf.LogPolyForm(chart, want_b.terms)
        assert_same_form((a, None), (want_a, None))
        assert_same_form(
            outcome(lambda: lf.wedge(a, b)), outcome(lambda: ref.wedge(want_a, want_b))
        )
        assert_same_form(
            outcome(lambda: lf.exterior_d(a)), outcome(lambda: ref.exterior_d(want_a))
        )
        for I in residue_sets:
            assert_same_form(
                outcome(lambda: lf.residue(a, I)), outcome(lambda: ref.residue(want_a, I))
            )


def test_a_chart_builds_each_slice_and_table_entry_once():
    """A chart keeps what it builds: `chart.slices[I]` is one chart, equal to
    `chart.restrict(I)`, for every nonempty set I of live indices, and a
    table entry read twice is one object."""
    for chart in FUZZ_CHARTS:
        live = sorted(chart.live_indices)
        for r in range(1, len(live) + 1):
            for I in map(frozenset, itertools.combinations(live, r)):
                sliced = chart.slices[I]
                assert chart.slices[I] is sliced and sliced == chart.restrict(I)
        for table, key in ((chart.pool, 2), (chart.d, 0b11), (chart.poles, 0b1), (chart.dz, 0b1)):
            assert table[key] is table[key]


@pytest.mark.parametrize("chart", SLICES, ids=chart_id)
def test_forms_on_equal_charts_built_apart_mix(chart):
    """`==` and `hash` read a chart's five fields and not its tables: equal
    charts built apart draw the same forms, and their forms add, wedge,
    compare equal and hash equal; only an unequal chart raises
    `ChartMismatch`."""
    twin = lf.LogChart(chart.n, chart.l, chart.k, set(chart.ideal), set(chart.omitted))
    assert twin == chart and twin is not chart and hash(twin) == hash(chart)
    for seed in range(4):
        a = lf.random_form(random.Random(seed), chart, 1)
        a_twin = lf.random_form(random.Random(seed), twin, 1)
        assert a_twin == a and hash(a_twin) == hash(a) and a_twin.chart is twin
        b = lf.random_form(random.Random(seed + 10), twin, 0)
        assert a + b == a_twin + b and lf.wedge(a, b) == lf.wedge(a_twin, b)
        assert a - a_twin == lf.zero_form(chart)
    other = lf.LogChart(chart.n + 1, chart.l, chart.k, set(chart.ideal), set(chart.omitted))
    for combine in (lambda x, y: x + y, lf.wedge):
        with pytest.raises(ChartMismatch):
            combine(lf.zero_form(chart), lf.zero_form(other))
