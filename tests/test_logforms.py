import copy
import itertools
import pickle
import random
import time
from fractions import Fraction

import pytest

import reference_logforms as ref
from nchodge import logforms
from nchodge.errors import (
    BadParams,
    ChartMismatch,
    DegreeMismatch,
    NonHomogeneous,
    WeightTooLow,
)
from nchodge.logforms import (
    LogChart,
    LogPolyForm,
    claim_forward_check,
    claim_witness,
    dz_form,
    exterior_d,
    form,
    from_regular,
    ideal_weight_generators,
    in_ideal_subcomplex,
    monomial,
    poly_const,
    random_form,
    random_ideal_form,
    residue,
    weight_level,
    wedge,
    xi,
    zero_form,
)
from nchodge.verify import FUZZ_CHARTS

C33 = LogChart(n=3, l=3, k=1, ideal=frozenset({1, 2}))
C22 = LogChart(n=2, l=2, k=2, ideal=frozenset({1}))


class TestChart:
    def test_validation(self):
        with pytest.raises(BadParams):
            LogChart(n=2, l=3, k=0, ideal=frozenset())
        with pytest.raises(BadParams):
            LogChart(n=3, l=2, k=3, ideal=frozenset())
        with pytest.raises(BadParams):
            LogChart(n=3, l=2, k=1, ideal=frozenset({3}))
        with pytest.raises(BadParams):
            LogChart(n=3, l=2, k=1, ideal=frozenset({1}), omitted=frozenset({1}))

    def test_j_split(self):
        assert C33.residue_set == frozenset({1})
        assert C33.j1 == frozenset({1})
        assert C33.j2 == frozenset({2})

    def test_restrict(self):
        sliced = C33.restrict({1})
        assert sliced.k == 0
        assert sliced.omitted == frozenset({1})
        assert sliced.ideal == frozenset({2})
        with pytest.raises(BadParams):
            sliced.restrict({1})

    @pytest.mark.parametrize("copy_chart", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_a_copy_is_an_equal_chart_with_its_own_tables(self, copy_chart):
        """The tables hold closures, which do not pickle: a chart is copied
        from its five fields, and the copy builds its own tables."""
        chart = C33.restrict({3})
        chart.slices[frozenset({1})]
        twin = copy_chart(chart)
        assert twin == chart and hash(twin) == hash(chart) and twin.j2 == chart.j2
        assert not twin.slices and twin.slices[frozenset({1})] == chart.slices[frozenset({1})]
        assert wedge(xi(twin, 1), xi(twin, 2)) == xi(chart, 1, 2)


class TestForms:
    def test_xi_antisymmetry(self):
        assert xi(C33, 2, 1) == xi(C33, 1, 2).scale(-1)
        assert xi(C33, 1, 1).is_zero()

    def test_wedge_matches_xi(self):
        assert wedge(xi(C33, 1), xi(C33, 2)) == xi(C33, 1, 2)
        assert wedge(xi(C33, 2), xi(C33, 1)) == xi(C33, 1, 2).scale(-1)
        assert wedge(xi(C33, 1), xi(C33, 1)).is_zero()

    def test_wedge_graded_commutative(self):
        rng = random.Random(2)
        for _ in range(20):
            p1, p2 = rng.randint(0, 2), rng.randint(0, 2)
            a = random_form(rng, C33, p1)
            b = random_form(rng, C33, p2)
            sign = (-1) ** (p1 * p2)
            assert wedge(a, b) == wedge(b, a).scale(sign)

    def test_dz_is_z_xi_on_log_coordinates(self):
        assert dz_form(C33, 1) == form(C33, {frozenset({1}): monomial(3, {1: 1})})
        chart = LogChart(n=3, l=2, k=1, ideal=frozenset({1}))
        assert dz_form(chart, 3) == xi(chart, 3)

    def test_degree_and_homogeneity(self):
        assert xi(C33, 1, 2).degree() == 2
        assert zero_form(C33).degree() is None
        with pytest.raises(NonHomogeneous):
            (xi(C33, 1) + xi(C33, 1, 2)).degree()

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatch):
            wedge(xi(C33, 1), xi(C22, 1))

    def test_from_regular(self):
        a = from_regular(C33, {(1, 3): poly_const(3, 1)})
        assert a == wedge(dz_form(C33, 1), dz_form(C33, 3))

    def test_pullback_drops_divisible_terms(self):
        sliced = C33.restrict({1})
        # z_1 xi_1 pulls back to zero on the slice
        a = LogPolyForm(sliced, {frozenset({1}): monomial(3, {1: 1})})
        assert a.is_zero()
        # a genuine pole along the slice is rejected
        with pytest.raises(BadParams):
            LogPolyForm(sliced, {frozenset({1}): poly_const(3, 1)})

    def test_zero_coefficients_are_dropped_whatever_their_type(self):
        # a zero is dropped before the pole check, however it is written
        sliced = LogChart(2, 2, 1, {1}).restrict({1})
        for zero in (0, Fraction(0), 0.0, "0", "0/5", "-0"):
            assert LogPolyForm(sliced, {(1,): {(0, 0): zero}}).is_zero()
            a = LogPolyForm(sliced, {(1,): {(0, 0): zero, (1, 0): "1/2"}})
            assert a.terms == {} and a == LogPolyForm(sliced, {})

    @pytest.mark.parametrize("power", [1.5, 1.0, True, Fraction(1), "1"])
    def test_exponents_must_be_ints(self, power):
        # exterior_d would otherwise fail on the exponent with a non-NCHodge error
        chart = LogChart(2, 2, 1, {1})
        with pytest.raises(BadParams, match="bad exponent tuple"):
            LogPolyForm(chart, {frozenset(): {(power, 0): 1}})
        with pytest.raises(BadParams, match="bad exponent tuple"):
            LogPolyForm(chart, {(1,): {(0, power): 1}})


class TestExteriorD:
    def test_d_of_z1_xi2(self):
        a = form(C33, {frozenset({2}): monomial(3, {1: 1})})
        assert exterior_d(a) == form(C33, {frozenset({1, 2}): monomial(3, {1: 1})})

    def test_d_of_log_generator_vanishes(self):
        assert exterior_d(xi(C33, 1, 2)).is_zero()

    def test_d_on_regular_coordinate(self):
        chart = LogChart(n=2, l=1, k=1, ideal=frozenset({1}))
        # d(z_2) = dz_2 = xi_2 here since z_2 is not a divisor branch
        a = form(chart, {frozenset(): monomial(2, {2: 1})})
        assert exterior_d(a) == xi(chart, 2)

    def test_d_squared_zero_fuzz(self):
        rng = random.Random(9)
        for _ in range(60):
            a = random_form(rng, C33, rng.randint(0, 2))
            assert exterior_d(exterior_d(a)).is_zero()

    def test_leibniz_fuzz(self):
        rng = random.Random(13)
        for _ in range(30):
            p1 = rng.randint(0, 2)
            a = random_form(rng, C33, p1)
            b = random_form(rng, C33, rng.randint(0, 2))
            lhs = exterior_d(wedge(a, b))
            rhs = wedge(exterior_d(a), b) + wedge(a, exterior_d(b)).scale((-1) ** p1)
            assert lhs == rhs


class TestWeight:
    def test_examples(self):
        assert weight_level(xi(C33, 1, 2)) == 2
        # dz_1 = z_1 xi_1 carries no pole
        assert weight_level(wedge(dz_form(C33, 1), xi(C33, 2))) == 1
        chart = LogChart(n=3, l=2, k=1, ideal=frozenset({1}))
        assert weight_level(dz_form(chart, 3)) == 0
        assert weight_level(zero_form(C33)) == 0

    def test_subadditive_under_wedge(self):
        rng = random.Random(21)
        for _ in range(40):
            a = random_form(rng, C33, rng.randint(0, 2))
            b = random_form(rng, C33, rng.randint(0, 2))
            prod = wedge(a, b)
            if prod.is_zero():
                continue
            assert weight_level(prod) <= weight_level(a) + weight_level(b)

    def test_d_preserves_weight_filtration(self):
        rng = random.Random(22)
        for _ in range(40):
            a = random_form(rng, C33, rng.randint(0, 2))
            da = exterior_d(a)
            if not da.is_zero():
                assert weight_level(da) <= weight_level(a)


class TestIdealSubcomplex:
    def test_membership(self):
        z1 = form(C33, {frozenset(): monomial(3, {1: 1})})
        assert in_ideal_subcomplex(wedge(z1, xi(C33, 3)))
        assert not in_ideal_subcomplex(xi(C33, 3))

    def test_closed_under_d(self):
        rng = random.Random(4)
        for _ in range(120):
            a = random_ideal_form(rng, C33, rng.randint(0, 2))
            if a.is_zero():
                continue
            assert in_ideal_subcomplex(a)
            da = exterior_d(a)
            if not da.is_zero():
                assert in_ideal_subcomplex(da)


class TestResidue:
    def test_strip_and_restrict(self):
        chart = LogChart(n=3, l=1, k=1, ideal=frozenset({1}))
        a = wedge(xi(chart, 1), dz_form(chart, 3))
        r = residue(a, {1})
        sliced = chart.restrict({1})
        assert r == dz_form(sliced, 3)

    def test_no_pole_no_residue(self):
        chart = LogChart(n=2, l=1, k=1, ideal=frozenset({1}))
        a = form(chart, {frozenset({1}): monomial(2, {1: 1})})  # z_1 xi_1 = dz_1
        assert residue(a, {1}).is_zero()

    def test_sign_from_reordering(self):
        # R_2 picks up the sign of moving xi_2 to the front
        chart = LogChart(n=2, l=2, k=1, ideal=frozenset({1}))
        a = wedge(dz_form(chart, 1), xi(chart, 2))  # z_1 xi_1 ^ xi_2, weight 1
        sliced = chart.restrict({2})
        assert residue(a, {2}) == dz_form(sliced, 1).scale(-1)

    def test_weight_too_low(self):
        with pytest.raises(WeightTooLow):
            residue(xi(C22, 1, 2), {1})

    def test_bad_indices(self):
        with pytest.raises(BadParams):
            residue(xi(C33, 1), set())
        with pytest.raises(BadParams):
            residue(xi(C33, 1), {5})

    def test_residue_commutes_with_d(self):
        # residues of log forms are compatible with the differentials
        chart = LogChart(n=2, l=2, k=1, ideal=frozenset({1}))
        rng = random.Random(8)
        for _ in range(40):
            a = random_form(rng, chart, rng.randint(0, 1))
            if weight_level(a) > 1:
                continue
            lhs = exterior_d(residue(a, {1}))
            rhs = residue(exterior_d(a), {1}).scale(-1)
            assert lhs == rhs


class TestClaim:
    def test_forward_inclusion_on_small_charts(self):
        for chart in (C33, C22, LogChart(n=3, l=2, k=2, ideal=frozenset({1, 2}))):
            for p in range(chart.k, min(chart.n, chart.k + 2) + 1):
                assert claim_forward_check(chart, p, seed=5), (chart, p)

    def test_j2_empty_means_zero_target(self):
        chart = LogChart(n=2, l=2, k=2, ideal=frozenset({1}))
        # J = {1} sits inside the residue set, so every generator restricts to zero
        assert chart.j2 == frozenset()
        assert claim_forward_check(chart, 2, seed=1)

    @pytest.mark.parametrize(
        "chart", [c for c in FUZZ_CHARTS if c.k and c.j2], ids=str
    )
    def test_forward_check_fails_without_a_needed_generator(self, chart, monkeypatch):
        """Drop from the target span the one generator that spans a monomial
        some residue holds: the check, which decides through `EchelonSpan`,
        must then say False."""
        full = logforms._claim_target_span
        for p in range(chart.k, min(chart.n, chart.k + 2) + 1):
            generators, _ = full(chart, p, 3)
            # every target generator is one monomial, so dropping the only
            # one with a needed (basis, exponents) key loses that monomial
            assert all(len(list(g.monomials())) == 1 for g in generators)
            keys = [next(g.monomials())[:2] for g in generators]
            needed = {
                (b, e)
                for g in ideal_weight_generators(chart, p, 2)
                for b, e, _ in residue(g, chart.residue_set).monomials()
            }
            drop = next(
                i for i, key in enumerate(keys) if key in needed and keys.count(key) == 1
            )

            def without_one(chart_, p_, bound, drop=drop):
                gens, index = full(chart_, p_, bound)
                return gens[:drop] + gens[drop + 1 :], index

            assert claim_forward_check(chart, p)
            monkeypatch.setattr(logforms, "_claim_target_span", without_one)
            assert not claim_forward_check(chart, p)
            monkeypatch.undo()

    def test_generators_are_ideal_weight_bounded(self):
        gens = list(ideal_weight_generators(C33, 2, 2))
        assert gens
        for g in gens:
            assert in_ideal_subcomplex(g)
            assert weight_level(g) <= C33.k
            assert g.degree() == 2


def _wedged_ideal_form(rng, chart, p, **kwargs):
    """An ideal form built as z_j ^ base through `wedge`: the base form, then
    `rng.choice` of the ideal index j."""
    base = logforms.random_form(rng, chart, p, **kwargs)
    return wedge(logforms._z(chart, rng.choice(sorted(chart.ideal))), base)


class TestShiftedIdealForm:
    """`random_ideal_form` raises each key of its base form by z_j instead of
    calling `wedge`: form for form and draw for draw it is z_j ^ base."""

    OMITTED = LogChart(3, 3, 0, {1}, omitted={1})

    @pytest.mark.parametrize("chart", FUZZ_CHARTS + (OMITTED,), ids=str)
    def test_equals_the_wedge_by_z_j(self, chart):
        for seed in range(8):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            for p in range(chart.n + 1):
                got = random_ideal_form(got_rng, chart, p)
                want = _wedged_ideal_form(want_rng, chart, p)
                assert got == want and str(got) == str(want)
                assert got.degree() == want.degree()
            assert got_rng.getstate() == want_rng.getstate()

    def test_an_omitted_ideal_index_gives_the_zero_form(self):
        rng = random.Random(3)
        for p in range(4):
            assert random_ideal_form(rng, self.OMITTED, p) == zero_form(self.OMITTED)
        assert rng.getstate() != random.Random(3).getstate()  # the base was still drawn

    def test_an_empty_ideal_raises_before_any_draw(self):
        rng = random.Random(7)
        with pytest.raises(BadParams, match="empty ideal"):
            random_ideal_form(rng, LogChart(3, 3, 1, frozenset()), 1)
        assert rng.getstate() == random.Random(7).getstate()

    def test_an_exponent_at_the_limit_raises_as_wedge_does(self, monkeypatch):
        """Below degree `_LIMIT` no drawn exponent reaches the limit, so only
        there is a raised key checked: a base at the limit raises `wedge`'s
        error."""
        chart, limit = LogChart(2, 2, 1, {1, 2}), logforms._LIMIT
        rng = random.Random(1)
        for degree in range(4):
            drawn = random_form(rng, chart, 1, degree=degree)
            assert all(max(e) <= degree for _, e, _ in drawn.monomials())
        at_limit = {(2,): {(limit, 0): 1, (0, limit): 2}}
        monkeypatch.setattr(logforms, "random_form", lambda *a, **k: LogPolyForm(chart, at_limit))
        for seed in range(4):  # either index j overflows
            for build in (random_ideal_form, _wedged_ideal_form):
                with pytest.raises(BadParams, match=f"above the limit {limit}"):
                    build(random.Random(seed), chart, 1, degree=limit)


def _claim_ps(chart):
    return range(chart.k, min(chart.n, chart.k + 2) + 1)


class TestPackedForwardCheck:
    """`claim_forward_check` builds its random combinations and its target
    span as packed monomials; both equal the forms that sums of scaled
    candidates and `from_regular`/`wedge` products give."""

    @staticmethod
    def _scaled_sums(rng, chart, candidates, combos):
        out = []
        for _ in range(combos):
            combo = zero_form(chart)
            for i in rng.sample(range(len(candidates)), min(3, len(candidates))):
                coeff = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
                combo = combo + candidates[i].scale(coeff)
            out.append(combo)
        return out

    @pytest.mark.parametrize("chart", FUZZ_CHARTS, ids=str)
    def test_combinations_equal_the_scaled_sums(self, chart):
        for p in _claim_ps(chart):
            candidates = list(ideal_weight_generators(chart, p, 2))
            keys = [key for g in candidates for key in g._nums]
            assert len(keys) == len(candidates)
            for seed in range(24):
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                got = list(logforms._claim_combos(got_rng, chart, keys))
                assert got == self._scaled_sums(want_rng, chart, candidates, 25)
                assert got_rng.getstate() == want_rng.getstate()

    @staticmethod
    def _wedged_span(chart, p, degree_bound):
        sliced = chart.restrict(chart.residue_set)
        pool = logforms._exponent_pool(chart.n, degree_bound, sliced.omitted)
        generators = []
        for j in sorted(chart.j2):
            for r, lead in ((p - chart.k, logforms._z(sliced, j)),
                            (p - chart.k - 1, dz_form(sliced, j))):
                for b in itertools.combinations(sorted(sliced.live_indices), max(r, 0)):
                    base = from_regular(sliced, {frozenset(b): 1})
                    for e in pool if r >= 0 else ():
                        gen = wedge(lead, wedge(form(sliced, {frozenset(): {e: 1}}), base))
                        if not gen.is_zero():
                            generators.append(gen)
        return generators

    @pytest.mark.parametrize("chart", FUZZ_CHARTS, ids=str)
    def test_target_span_equals_the_wedged_generators(self, chart):
        for p in range(chart.n + 2):
            for bound in range(4):
                generators, index = logforms._claim_target_span(chart, p, bound)
                assert generators == self._wedged_span(chart, p, bound), (p, bound)
                keys = dict.fromkeys(key for g in generators for key in g._nums)
                assert list(index) == list(keys) and list(index.values()) == list(range(len(keys)))


class TestWitness:
    def test_frozen_example(self):
        # p = 2 with one residue coordinate and J2 = {2}: eta_2 = 1, zeta_2 = 0
        eta = {2: form(C33, {frozenset(): poly_const(3, 1)})}
        result = claim_witness(C33, 2, eta, {})
        assert result.ok, str(result.checks)
        assert result.omega == wedge(xi(C33, 1), dz_form(C33, 2))
        sliced = C33.restrict({1})
        assert residue(result.omega, {1}) == dz_form(sliced, 2)
        # the other single residues vanish
        assert residue(result.omega, {2}).is_zero()
        assert residue(result.omega, {3}).is_zero()

    def test_zeta_contribution(self):
        zeta = {2: dz_form(C33, 3)}
        result = claim_witness(C33, 2, {}, zeta)
        assert result.ok, str(result.checks)
        z2 = form(C33, {frozenset(): monomial(3, {2: 1})})
        assert result.omega == wedge(xi(C33, 1), wedge(z2, dz_form(C33, 3)))

    def test_poley_lift_fails_honestly(self):
        # a zeta with its own log pole pushes omega above W_k; the report
        # says so instead of raising
        result = claim_witness(C33, 2, {}, {2: xi(C33, 3)})
        assert not result.ok
        line = next(l for l in result.checks.lines if "W_1" in l.name)
        assert not line.ok

    WITNESS_CHECKS = [
        "omega lies in the ideal subcomplex",
        "omega lies in W_1",
        "residue along {1..k} equals sum dz_j^eta_j + z_j zeta_j",
        "all other residues of size k vanish",
    ]

    def test_passing_witness_names_each_check_once(self):
        eta = {2: form(C33, {frozenset(): poly_const(3, 1)})}
        lines = claim_witness(C33, 2, eta, {}).checks.lines
        assert [line.name for line in lines] == self.WITNESS_CHECKS
        assert all(line.ok for line in lines)
        assert [line.detail for line in lines[2:]] == ["", ""]

    def test_witness_outside_w_k_skips_both_residue_checks(self):
        lines = claim_witness(C33, 2, {}, {2: xi(C33, 3)}).checks.lines
        assert [line.name for line in lines] == self.WITNESS_CHECKS
        assert [line.ok for line in lines[1:]] == [False, False, False]
        assert lines[1].detail == "weight 2"
        skipped = "skipped: omega lies outside the filtration"
        assert [line.detail for line in lines[2:]] == [skipped, skipped]

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            claim_witness(C33, 2, {2: xi(C33, 1, 2)}, {})

    def test_bad_index(self):
        with pytest.raises(BadParams):
            claim_witness(C33, 2, {1: zero_form(C33)}, {})

    def test_needs_residue_coordinates(self):
        chart = LogChart(n=2, l=2, k=0, ideal=frozenset({1}))
        with pytest.raises(BadParams):
            claim_witness(chart, 1, {}, {})

    def test_random_lifts(self):
        rng = random.Random(6)
        chart = LogChart(n=3, l=2, k=1, ideal=frozenset({1, 2}))
        for _ in range(15):
            eta = {2: random_form(rng, chart, 0, degree=1)}
            zeta = {2: random_form(rng, chart, 1, degree=1)}
            if weight_level(eta[2]) > 0 or weight_level(zeta[2]) > 0:
                continue
            result = claim_witness(chart, 2, eta, zeta)
            assert result.ok, str(result.checks)


class TestPackedLimits:
    """A key gives each exponent a field of `_LIMIT` (32767) values above
    zero: the constructor and `wedge` refuse to go past it."""

    LIMIT = logforms._LIMIT

    def test_limit_is_32767(self):
        assert self.LIMIT == 2**15 - 1

    def test_constructor_rejects_one_past_the_limit(self):
        chart = LogChart(2, 2, 1, {1})
        top = LogPolyForm(chart, {(1,): {(self.LIMIT, 0): 1}})
        assert top.terms == {frozenset({1}): {(self.LIMIT, 0): 1}}
        for e in ((self.LIMIT + 1, 0), (0, self.LIMIT + 1), (2**16, 0)):
            with pytest.raises(BadParams, match=f"above the limit {self.LIMIT}"):
                LogPolyForm(chart, {(1,): {e: 1}})

    def test_wedge_raises_instead_of_carrying(self):
        chart = LogChart(3, 3, 1, {1})
        # z1^a z2^b times z1^c: a carry out of z1's field would land in z2's
        for a, c in ((self.LIMIT, 1), (2**14, 2**14), (self.LIMIT, self.LIMIT)):
            left = LogPolyForm(chart, {(): {(a, 5, 0): 2}, (2,): {(0, 1, 0): 1}})
            right = LogPolyForm(chart, {(3,): {(c, 0, 0): 1}})
            with pytest.raises(BadParams, match=f"above the limit {self.LIMIT}"):
                wedge(left, right)
            with pytest.raises(BadParams, match=f"above the limit {self.LIMIT}"):
                wedge(right, left)
        left = LogPolyForm(chart, {(): {(self.LIMIT - 1, 5, 0): 2}})
        right = LogPolyForm(chart, {(3,): {(1, 0, 0): 1}})
        assert wedge(left, right).terms == {frozenset({3}): {(self.LIMIT, 5, 0): 2}}

    def test_many_variables_build_no_table_up_front(self):
        """n = 24: the chart's tables fill only the entries these operations
        read, where a table sized 2^n or 4^n up front would not fit."""
        chart = LogChart(24, 20, 2, {1, 5, 20})
        a = LogPolyForm(chart, {(1, 2, 24): monomial(24, {5: 2, 24: 1}, 3),
                                (2, 3, 23): monomial(24, {1: 1}, Fraction(1, 2))})
        b = LogPolyForm(chart, {(4,): monomial(24, {4: 1, 20: 1, 22: 3}, -1)})
        prod = wedge(a, b)
        assert prod.degree() == 4 and not prod.is_zero()
        assert exterior_d(exterior_d(prod)).is_zero()
        assert not exterior_d(prod).is_zero()
        assert in_ideal_subcomplex(prod)
        res = residue(prod, {1, 2})
        assert res.chart == chart.restrict({1, 2})
        assert weight_level(prod) == 2
        assert str(res) == "(3*z4z5^2z20z22^3z24) xi4^xi24"
        assert max(len(chart.sign), len(chart.d), len(chart.poles)) <= 8
        assert not chart.pool and not chart.dz
        assert list(chart.slices) == [frozenset({1, 2})]
        assert res.chart is chart.slices[frozenset({1, 2})]
        assert all(len(entry) <= chart.n for entry in chart.d.values())


class TestPolyHelpers:
    def test_monomial_validation(self):
        with pytest.raises(BadParams):
            monomial(2, {3: 1})
        with pytest.raises(BadParams):
            monomial(2, {1: -1})

    def test_scale_by_fraction(self):
        a = xi(C33, 1).scale(Fraction(1, 2))
        assert (a + a) == xi(C33, 1)


class TestExponentPool:
    """`_exponent_pool` walks the live variables itself and gives the frozen
    reference's `_monomials_up_to` filtered by the omitted set, in the same
    order, which fixes what a seed draws."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_the_filtered_reference(self, n):
        for r in range(n + 1):
            for omitted in map(frozenset, itertools.combinations(range(1, n + 1), r)):
                for degree in range(5):
                    want = tuple(e for e in ref._monomials_up_to(n, degree)
                                 if all(e[i - 1] == 0 for i in omitted))
                    assert logforms._exponent_pool(n, degree, omitted) == want, (omitted, degree)

    def test_a_pool_at_the_limit_builds_at_once(self):
        """Linear in the pool's size: 32,768 exponents in well under a
        second, where one range copy per total took about ten."""
        chart, limit = LogChart(1, 1, 0, {1}), logforms._LIMIT
        start = time.perf_counter()
        pool = chart.pool[limit]
        assert time.perf_counter() - start < 0.5
        assert pool == tuple(e << logforms._shift(1, 1) for e in range(limit + 1))


class TestSampler:
    """`_below` reads `getrandbits` as the running stdlib's `randrange` and
    `choice` do: the same results, and the generator left in the same state,
    for every n below and 200 seeds."""

    @staticmethod
    def _populations(n):
        return [list(range(10, 10 + n)), tuple("abcdefghijklmnopqrstuvwxyz0123456789ABCD"[:n]),
                range(-n, 0)]

    @pytest.mark.parametrize("n", range(1, 41))
    def test_draws_equal_the_stdlib(self, n):
        for seed in range(200):
            got, want = random.Random(seed), random.Random(seed)
            pool = self._populations(n)[seed % 3]
            assert logforms._below(got, n) == want.randrange(0, n)
            assert -3 + logforms._below(got, n) == want.randrange(-3, n - 3)
            assert pool[logforms._below(got, n)] == want.choice(pool)
            assert got.getstate() == want.getstate(), seed

    @pytest.mark.parametrize("p", [-1, -3])
    @pytest.mark.parametrize("chart", [C33, LogChart(24, 20, 2, {1, 5, 20})], ids=["C33", "n24"])
    def test_a_negative_degree_raises_the_stdlib_sample_error(self, chart, p):
        """`random_form` (below and above its inline branch's 21 live
        indices) and `random_lift` sample their bases with `rng.sample`,
        whose own error a negative degree raises before anything is drawn."""
        with pytest.raises(ValueError) as want_exc:
            random.Random(5).sample(sorted(chart.live_indices), p)
        for draw in (random_form, logforms.random_lift):
            got = random.Random(5)
            with pytest.raises(ValueError) as got_exc:
                draw(got, chart, p)
            assert str(got_exc.value) == str(want_exc.value)
            assert got.getstate() == random.Random(5).getstate()

    def test_an_empty_draw_raises_the_stdlib_error(self):
        """`getrandbits(0)` is 0, so `_below(rng, 0)` would loop for ever:
        `_draw` raises `choice`'s own error on an empty pool instead, and
        nothing is drawn, nor by a draw of none."""
        got, want = random.Random(5), random.Random(5)
        with pytest.raises(IndexError) as want_exc:
            want.choice(())
        with pytest.raises(IndexError) as got_exc:
            random_form(got, C33, 0, degree=-1)
        assert str(got_exc.value) == str(want_exc.value)
        acc = {}
        logforms._draw(got, (), acc, 0, 0)
        assert acc == {}
        assert got.getstate() == random.Random(5).getstate()


class TestKeptDegree:
    def test_degree_is_kept_and_is_not_part_of_equality(self):
        a = form(C33, {frozenset({1}): 1, frozenset({2}): 3})
        b = form(C33, {frozenset({2}): 3, frozenset({1}): 1})
        assert a.degree() == 1 and a.degree() == 1
        assert a == b and hash(a) == hash(b)
        c = form(C33, {frozenset({3}): 2})
        assert wedge(a, c).degree() == 2 and zero_form(C33).degree() is None

    def test_mixed_degrees_raise_on_every_ask(self):
        mixed = form(C33, {frozenset(): 1, frozenset({1}): 1})
        for _ in range(2):
            with pytest.raises(NonHomogeneous):
                mixed.degree()
