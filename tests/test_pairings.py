import random
from fractions import Fraction
from functools import partial

import pytest
import reference_pairings as ref
from family_basis import iter_basis

from nchodge import pairings
from nchodge.atlas import generic_arrangement
from nchodge.complexes import PureTerm, build, morphism_u, morphism_v, rows_constant, rows_log, rows_semisimplicial_log, rows_sum_strata, term_slices
from nchodge.errors import DimensionMismatch, EmptyDivisor
from nchodge.linalg import RationalMatrix, rank
from nchodge.pairings import (
    GradedPairing,
    _block_matrix,
    _class_map,
    chain_map_check,
    cup_extraordinary,
    cup_log_XD,
    express_in_space,
    fujiki_duality_report,
    induced_pairing,
    les_check,
    product_pairs,
    product_terms,
    sign_shuffle,
)
from nchodge.tables import MixedHodgeTable, compute_table

FIXTURE_NAMES = ["p1_1pt", "p1_2pts", "triangle", "elliptic_1pt"]


def atlas_by_name(name):
    from nchodge.fixtures import builtin_atlas

    if name.startswith("generic_"):
        return generic_arrangement(*map(int, name.split("_")[1:]))
    return builtin_atlas(name)


def _with_resolver(pairing, edit):
    """The same product, with each resolved target list passed through edit."""
    resolve = pairing._resolver
    return GradedPairing(
        pairing.atlas,
        pairing.left,
        pairing.right,
        pairing.target,
        lambda t1, t2: edit(t1, t2, resolve(t1, t2)),
        pairing.label,
    )


PRODUCTS = {"cup_log_XD": cup_log_XD, "cup_extraordinary": cup_extraordinary}
CASES = FIXTURE_NAMES + ["generic_2_3", "generic_2_4", "generic_3_4"]


def log_x_log(atlas):
    """The product rule on rows_log alone, H(U) x H(U) -> H(U)."""
    flog = rows_log(atlas)
    rule = partial(product_terms, atlas)
    return GradedPairing(atlas, flog, flog, flog, rule, "log x log -> log")


RULES = {**PRODUCTS, "log_x_log": log_x_log}
REFERENCE_RESOLVERS = {
    "cup_log_XD": ref.resolve_log_XD,
    "cup_extraordinary": ref.resolve_extraordinary,
}

# Each edit breaks the Leibniz identity of its product on the triangle and
# on generic(3, 4).  Each only drops targets or flips signs, so a mutant
# resolves the same term pairs as its product.
BROKEN_RESOLVERS = {
    "cup_log_XD": {
        "cone sign flipped on t-side targets": lambda t1, t2, out: [
            (t3, -sign if t3.side == "t" else sign) for t3, sign in out
        ],
        "t-side targets dropped": lambda t1, t2, out: [
            (t3, sign) for t3, sign in out if t3.side != "t"
        ],
        "targets of residue-carrying left terms dropped": lambda t1, t2, out: (
            [] if t1.res else out
        ),
    },
    "cup_extraordinary": {
        "sign flipped at odd simplicial level": lambda t1, t2, out: [
            (t3, -sign if t2.p % 2 else sign) for t3, sign in out
        ],
        "level-1 targets dropped": lambda t1, t2, out: [
            (t3, sign) for t3, sign in out if t3.p != 1
        ],
        "level-0 targets dropped": lambda t1, t2, out: [
            (t3, sign) for t3, sign in out if t3.p != 0
        ],
    },
}


class TestShuffleSign:
    def test_basic(self):
        assert sign_shuffle((0,), (1,)) == 1
        assert sign_shuffle((1,), (0,)) == -1
        assert sign_shuffle((0, 2), (1,)) == -1
        assert sign_shuffle((), (0, 1)) == 1

    def test_antisymmetry(self):
        rng = random.Random(3)
        for _ in range(30):
            pool = rng.sample(range(8), rng.randint(2, 6))
            cut = rng.randint(1, len(pool) - 1)
            left, right = tuple(sorted(pool[:cut])), tuple(sorted(pool[cut:]))
            k = len(left) * len(right)
            assert sign_shuffle(left, right) == (-1) ** k * sign_shuffle(right, left)


class TestChainMaps:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_cup_is_chain_map(self, name):
        assert chain_map_check(cup_log_XD(atlas_by_name(name)))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_extraordinary_is_chain_map(self, name):
        assert chain_map_check(cup_extraordinary(atlas_by_name(name)))

    @pytest.mark.parametrize(
        "product, broken",
        [(p, b) for p, edits in BROKEN_RESOLVERS.items() for b in edits],
    )
    @pytest.mark.parametrize("name", ["triangle", "generic_3_4"])
    def test_broken_resolver_is_not_a_chain_map(self, name, product, broken):
        pairing = PRODUCTS[product](atlas_by_name(name))
        assert chain_map_check(pairing) is True
        mutant = _with_resolver(pairing, BROKEN_RESOLVERS[product][broken])
        assert chain_map_check(mutant) is False
        assert ref.chain_map_check(mutant) is False

    @pytest.mark.parametrize("product", sorted(PRODUCTS))
    @pytest.mark.parametrize("name", CASES)
    def test_check_matches_reference(self, name, product):
        pairing = PRODUCTS[product](atlas_by_name(name))
        assert chain_map_check(pairing) is ref.chain_map_check(pairing)

    # Term pairs of the triangle with a nonempty target list, and how many
    # of them break the Leibniz identity when their targets alone are
    # dropped.  A dropped pair's own products are zero, so a check that
    # compares only basis pairs with a nonzero product misses the breaks,
    # which show up through dx.y and x.dy there.
    SINGLE_DROPS = {"cup_log_XD": (126, 126), "cup_extraordinary": (30, 27)}

    @pytest.mark.parametrize("product", sorted(PRODUCTS))
    def test_single_pair_drops_match_reference(self, triangle, product):
        pairing = PRODUCTS[product](triangle)
        live = [
            (t1, t2)
            for t1 in pairing.left.terms
            for t2 in pairing.right.terms
            if pairing._targets(t1, t2)
        ]
        caught = 0
        for dropped in live:
            mutant = _with_resolver(
                pairing,
                lambda t1, t2, out, dropped=dropped: (
                    [] if (t1, t2) == dropped else out
                ),
            )
            verdict = chain_map_check(mutant)
            assert verdict is ref.chain_map_check(mutant), dropped
            caught += not verdict
        assert (len(live), caught) == self.SINGLE_DROPS[product]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_u_v_blockwise_injective(self, name):
        atlas = atlas_by_name(name)
        fx = rows_constant(atlas)
        fd = rows_sum_strata(atlas)
        u = morphism_u(atlas, fx, rows_log(atlas))
        v = morphism_v(atlas, fd, rows_semisimplicial_log(atlas))
        assert u.blockwise_injective()
        assert v.blockwise_injective()


class TestCompiledProducts:
    """The compiled basis products against the restrict path they replace."""

    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("name", CASES)
    def test_listed_pairs_are_the_pairs_with_targets(self, name, rule):
        pairing = RULES[rule](atlas_by_name(name))
        left, right = pairing.left.terms, pairing.right.terms
        listed = product_pairs(left, right, pairing.target.terms)
        brute = {(t1, t2) for t1 in left for t2 in right if pairing._targets(t1, t2)}
        assert len(set(listed)) == len(listed)
        assert set(listed) == brute

    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("name", CASES + ["generic_3_5"])
    def test_listed_pairs_keep_the_order_of_the_definition(self, name, rule):
        """The shape index lists what testing every pair against the set of
        target shapes lists, in the same order: right terms outer."""
        pairing = RULES[rule](atlas_by_name(name))
        left, right, target = pairing.left.terms, pairing.right.terms, pairing.target.terms
        shapes = {pairings._shape(t) for t in target}
        brute = [(t1, t2) for t2 in right for t1 in left
                 if pairings._product_key(t1, t2) in shapes]
        assert product_pairs(left, right, target) == brute

    @pytest.mark.parametrize("name", ["triangle", "elliptic_1pt", "generic_2_4"])
    def test_numbering_follows_the_slots(self, name):
        """Each family's basis is numbered slot by slot in slots() order,
        terms in layout order, and each number reads back its vector."""
        pairing = cup_extraordinary(atlas_by_name(name))
        for family, (first, count, where) in zip(
            (pairing.left, pairing.right, pairing.target), pairing._numbers
        ):
            basis = [
                (t, ab, i)
                for q, m, ab in family.slots()
                for t, (_, d) in family.rows[q].layout[(m, ab)].items()
                for i in range(d)
            ]
            assert count == len(basis)
            assert [where(c) for c in range(count)] == basis
            assert all(first[(t, ab)] + i == c for c, (t, ab, i) in enumerate(basis))

    @pytest.mark.parametrize("product", sorted(PRODUCTS))
    @pytest.mark.parametrize("name", ["triangle", "generic_2_4"])
    def test_evaluate_before_the_check_shares_its_table(self, name, product):
        """Pairs evaluate placed stay in the one table the check reads; a
        broken product is still caught."""
        pairing = PRODUCTS[product](atlas_by_name(name))
        mutant = _with_resolver(pairing, next(iter(BROKEN_RESOLVERS[product].values())))
        for p in (pairing, mutant):
            for _, _, _, e1 in list(iter_basis(p.left))[::3]:
                for _, _, _, e2 in list(iter_basis(p.right))[::5]:
                    assert p.evaluate(e1, e2) == ref.evaluate(p, e1, e2)
        assert chain_map_check(pairing) is True
        assert chain_map_check(mutant) is ref.chain_map_check(mutant)

    def test_target_off_the_rules_shape_is_refused(self, triangle):
        """A resolver target of another shape than the rule gives would be
        used by evaluate on a pair chain_map_check never lists: refused."""
        pairing = cup_log_XD(triangle)
        t1, t2 = product_pairs(
            pairing.left.terms, pairing.right.terms, pairing.target.terms
        )[0]
        ((t3, _), *_) = pairing._targets(t1, t2)
        other = next(t for t in pairing.target.terms if t.j != t3.j)
        mutant = _with_resolver(pairing, lambda a, b, out: [*out, (other, 1)])
        (ab1, d1), (ab2, d2) = term_slices(triangle, t1)[0], term_slices(triangle, t2)[0]
        with pytest.raises(DimensionMismatch, match="off the rule's shape"):
            mutant.evaluate({(t1, ab1): (1,) * d1}, {(t2, ab2): (1,) * d2})

    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("name", CASES)
    def test_evaluate_matches_frozen_evaluate(self, name, rule):
        pairing = RULES[rule](atlas_by_name(name))
        left = [e for *_, e in iter_basis(pairing.left)]
        right = [e for *_, e in iter_basis(pairing.right)]
        checked = 0
        for e1 in left:
            for e2 in right:
                checked += self._same(pairing, e1, e2)
        assert checked
        rng = random.Random(f"{name}:{rule}")
        pairs = product_pairs(
            pairing.left.terms, pairing.right.terms, pairing.target.terms
        )
        for _ in range(60):
            t1, t2 = rng.choice(pairs)
            x = self._random_element(rng, pairing.left, t1)
            y = self._random_element(rng, pairing.right, t2)
            self._same(pairing, x, y)

    @staticmethod
    def _same(pairing, x, y) -> bool:
        """evaluate(x, y) equals the frozen evaluate: keys, values and types.
        True iff the product is nonzero."""
        got, want = pairing.evaluate(x, y), ref.evaluate(pairing, x, y)
        assert got == want
        assert all(type(c) is Fraction for vec in got.values() for c in vec)
        return bool(got)

    @staticmethod
    def _random_element(rng, family, term):
        """A sparse element on every slice of `term` and of up to three random
        terms, with zero, int and Fraction coordinates."""
        values = [0, 0, 1, -2, 3, Fraction(1, 3), Fraction(-5, 2)]
        return {
            (t, ab): tuple(rng.choice(values) for _ in range(d))
            for t in [term] + rng.sample(family.terms, min(3, len(family.terms)))
            for ab, d in term_slices(family.atlas, t)
        }

    def test_evaluate_drops_cancelled_keys(self, elliptic):
        """On the curve, a.b + b.a = 0 for the (1,0) and (0,1) classes of
        H^1: the cancelled key is dropped, as the frozen evaluate drops it."""
        pairing = log_x_log(elliptic)
        (h1,) = [t for t in pairing.left.terms if t.j == 1 and not t.res]
        x = {(h1, ab): (Fraction(1),) * d for ab, d in term_slices(elliptic, h1)}
        assert len(x) == 2
        assert pairing.evaluate(x, x) == ref.evaluate(pairing, x, x) == {}
        a, b = ({key: vec} for key, vec in x.items())
        assert pairing.evaluate(a, b) == ref.evaluate(pairing, a, b) != {}

    def test_evaluate_refuses_a_piece_off_the_family(self, elliptic):
        """A piece longer or shorter than its slice, or on a slice the family
        lacks, would spill onto another term's numbers: refused on either side."""
        pairing = log_x_log(elliptic)
        (h1,) = [t for t in pairing.left.terms if t.j == 1 and not t.res]
        ab, d = term_slices(elliptic, h1)[0]
        good = {(h1, ab): (Fraction(1),) * d}
        stranger = PureTerm(h1.stratum, h1.j, h1.k, h1.p, h1.simp, h1.res, "zz", h1.shift)
        for bad in ({(h1, ab): (1,) * (d + 1)}, {(h1, ab): (1,) * (d - 1)},
                    {(h1, (7, 7)): (1,)}, {(stranger, ab): (1,) * d}):
            with pytest.raises(DimensionMismatch):
                pairing.evaluate(bad, good)
            with pytest.raises(DimensionMismatch):
                pairing.evaluate(good, bad)
        assert pairing.evaluate(good, good) == ref.evaluate(pairing, good, good)


class TestProductRule:
    @pytest.mark.parametrize("product", sorted(PRODUCTS))
    @pytest.mark.parametrize(
        "name", FIXTURE_NAMES + ["generic_2_3", "generic_2_4", "generic_3_4"]
    )
    def test_resolver_matches_reference(self, name, product):
        """Every term pair resolves to the frozen resolver's (target, sign)
        list, in the same order."""
        atlas = atlas_by_name(name)
        pairing = PRODUCTS[product](atlas)
        frozen = REFERENCE_RESOLVERS[product]
        for t1 in pairing.left.terms:
            for t2 in pairing.right.terms:
                assert pairing._resolver(t1, t2) == frozen(atlas, t1, t2), (t1, t2)

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ["generic_2_4", "generic_3_4"])
    def test_rule_on_log_rows_is_a_chain_map(self, name):
        """The same rule on rows_log alone, H(U) x H(U) -> H(U), satisfies
        the Leibniz identity: the rule is not fitted to the two products."""
        pairing = log_x_log(atlas_by_name(name))
        assert chain_map_check(pairing)
        assert ref.chain_map_check(pairing)

    @pytest.mark.parametrize("name", ["triangle", "generic_3_4"])
    def test_log_rows_without_shuffle_sign_break(self, name):
        """The log-ring check can fail: without the shuffle sign it does."""
        atlas = atlas_by_name(name)
        flog = rows_log(atlas)
        rule = partial(product_terms, atlas)
        mutant = GradedPairing(
            atlas, flog, flog, flog,
            lambda t1, t2: [
                (t3, sign * sign_shuffle(t1.res, t2.res)) for t3, sign in rule(t1, t2)
            ],
            "log x log -> log",
        )
        assert chain_map_check(mutant) is False
        assert ref.chain_map_check(mutant) is False


class TestWeightTypeAdditivity:
    def test_products_land_in_the_sum_block(self, triangle):
        # sample basis pairs; output components must sit at (q1+q2, ab1+ab2)
        for pairing in (cup_log_XD(triangle), cup_extraordinary(triangle)):
            rng = random.Random(17)
            left = list(iter_basis(pairing.left))
            right = list(iter_basis(pairing.right))
            for _ in range(60):
                q1, m1, ab1, e1 = left[rng.randrange(len(left))]
                q2, m2, ab2, e2 = right[rng.randrange(len(right))]
                prod = pairing.evaluate(e1, e2)
                for (term, ab), vec in prod.items():
                    assert term.q == q1 + q2
                    assert ab == (ab1[0] + ab2[0], ab1[1] + ab2[1])
                    assert term.m == m1 + m2


class TestFrozenRanks:
    def test_p1_2pts_cup_block(self, p1_2pts):
        cup = cup_log_XD(p1_2pts)
        tu = compute_table(cup.left)
        txd = compute_table(cup.target)
        m = induced_pairing(cup, tu, txd, 1, 1, txd)
        assert m.shape == (1, 1)
        assert rank(m) == 1

    def test_triangle_extraordinary_top_block(self, triangle):
        # degree 2 of the local rows is H^3_D; the product with H^1(D)
        # fills the one-dimensional H^4_D
        ext = cup_extraordinary(triangle)
        tcu = compute_table(ext.left)
        td = compute_table(ext.right)
        tcv = compute_table(ext.target)
        m = induced_pairing(ext, tcu, td, 2, 1, tcv)
        assert m.shape == (1, 1)
        assert rank(m) == 1

    def test_triangle_extraordinary_middle_block_perfect(self, triangle):
        ext = cup_extraordinary(triangle)
        tcu = compute_table(ext.left)
        td = compute_table(ext.right)
        tcv = compute_table(ext.target)
        flat = induced_pairing(ext, tcu, td, 1, 2, tcv)
        assert flat.shape == (9, 1)
        gram = RationalMatrix([[flat.rows[i * 3 + j][0] for j in range(3)] for i in range(3)])
        assert gram == RationalMatrix.identity(3)

    def test_triangle_weight_mismatched_block_zero(self, triangle):
        # H^2_D x H^1(D) has weight 2 + 0 = 2 but H^3_D is pure weight 4
        ext = cup_extraordinary(triangle)
        tcu = compute_table(ext.left)
        td = compute_table(ext.right)
        tcv = compute_table(ext.target)
        m = induced_pairing(ext, tcu, td, 1, 1, tcv)
        assert m.is_zero()


class TestNotACycleClass:
    """A vector that is not a cycle has no class: both class maps say so."""

    # In the triangle's local rows, H^1_D in block (w=2, (1,1)) times
    # H^0(D) in block (w=0, (0,0)) lands in a slot whose differential is
    # nonzero.
    LEFT, RIGHT = (1, 2, (1, 1)), (0, 0, (0, 0))

    @staticmethod
    def _non_cycle(family, q, m, ab):
        return next(
            e
            for qq, mm, aabb, e in iter_basis(family)
            if (qq, mm, aabb) == (q, m, ab) and family.apply_d(q, m, e)
        )

    def test_class_map_image_not_a_cycle(self, triangle):
        ext = cup_extraordinary(triangle)
        tcu = compute_table(ext.left)
        tcv = compute_table(ext.target)
        bad_elem = self._non_cycle(ext.target, 2, 1, (1, 1))
        bad = ext.target.flatten(2, 1, (1, 1), bad_elem)
        with pytest.raises(DimensionMismatch) as info:
            _class_map(tcu, tcv, 1, 1, 2, (1, 1), lambda rep: bad)
        assert str(info.value) == "map into coker(v): image is not a cycle class"

    def test_block_matrix_product_not_a_cycle(self, triangle, monkeypatch):
        ext = cup_extraordinary(triangle)
        tcu = compute_table(ext.left)
        td = compute_table(ext.right)
        tcv = compute_table(ext.target)
        bad = self._non_cycle(ext.target, 2, 1, (1, 1))
        monkeypatch.setattr(ext, "evaluate", lambda left, right: bad)
        with pytest.raises(DimensionMismatch) as info:
            _block_matrix(ext, tcu, td, tcv, self.LEFT, self.RIGHT)
        assert str(info.value) == (
            "locD x D -> locD: product of classes is not a cycle class"
        )

    def test_last_vector_of_a_batch_not_a_cycle(self, triangle):
        ext = cup_extraordinary(triangle)
        tcu = compute_table(ext.left)
        tcv = compute_table(ext.target)
        bad = ext.target.flatten(2, 1, (1, 1), self._non_cycle(ext.target, 2, 1, (1, 1)))
        reps = tcu.representatives(1, 2, (1, 1))
        assert len(reps) >= 2
        zero = (Fraction(0),) * len(bad)
        with pytest.raises(DimensionMismatch) as info:
            _class_map(tcu, tcv, 1, 1, 2, (1, 1), lambda rep: bad if rep == reps[-1] else zero)
        assert str(info.value) == "map into coker(v): image is not a cycle class"
        space = tcv.space(1, 2, (1, 1))
        with pytest.raises(DimensionMismatch) as info:
            express_in_space(space, [*space.representatives, zero, bad], "no class")
        assert str(info.value) == "no class"


def _reference_class_map(src, dst, m_src, m_dst, q, ab, transform):
    """_class_map through the one-vector reference coordinates."""
    space = dst.space(m_dst, q, ab)
    cycles = map(transform, src.representatives(m_src, q, ab))
    cols = ref._classes(space, cycles, "not a cycle")
    return RationalMatrix.from_columns(cols, 0 if space is None else space.dim)


def _reference_block_matrix(pairing, tl, tr, tt, left_block, right_block):
    """_block_matrix through the one-vector reference coordinates."""
    (mi, q1, ab1), (mj, q2, ab2) = left_block, right_block
    mt, qt, abt = mi + mj, q1 + q2, (ab1[0] + ab2[0], ab1[1] + ab2[1])
    space = tt.space(mt, qt, abt)
    products = [
        pairing.target.flatten(qt, mt, abt, pairing.evaluate(
            pairing.left.unflatten(q1, mi, ab1, lrep),
            pairing.right.unflatten(q2, mj, ab2, rrep),
        ))
        for lrep in tl.representatives(mi, q1, ab1)
        for rrep in tr.representatives(mj, q2, ab2)
    ]
    rows = ref._classes(space, products, "not a cycle")
    return RationalMatrix(rows, ncols=0 if space is None else space.dim)


class TestClassCoordinates:
    """Every class map of les_check and every block of induced_pairing equals
    the one-vector reference entry for entry, and each block is one solve."""

    CASES = FIXTURE_NAMES + ["generic_2_4"]

    @staticmethod
    def _recorded(monkeypatch, name, reference):
        """(arguments, library result, reference result) of every call of
        pairings.<name>; the reference runs at call time, since a sequence
        map's transform may read a loop variable."""
        calls, original = [], getattr(pairings, name)

        def recording(*args):
            out = original(*args)
            calls.append((args, out, reference(*args)))
            return out

        monkeypatch.setattr(pairings, name, recording)
        return calls

    @staticmethod
    def _solves(monkeypatch):
        """The batch length of every solve that express_in_space makes."""
        sizes, original = [], pairings.solve

        def counting(matrix, rhs):
            sizes.append(len(rhs))
            return original(matrix, rhs)

        monkeypatch.setattr(pairings, "solve", counting)
        return sizes

    @pytest.mark.parametrize("name", CASES)
    def test_class_maps_match_reference(self, name, monkeypatch):
        calls = self._recorded(monkeypatch, "_class_map", _reference_class_map)
        les_check(atlas_by_name(name))
        assert calls
        for _, got, want in calls:
            assert got.shape == want.shape
            assert got.rows == want.rows

    @pytest.mark.parametrize("name", CASES)
    def test_class_maps_recompute_after_return(self, name, monkeypatch):
        """Each recorded call of _class_map gives the same matrix when made
        again after les_check returns: its transform holds no loop variable."""
        calls = self._recorded(monkeypatch, "_class_map", lambda *args: None)
        les_check(atlas_by_name(name))
        assert calls
        for args, got, _ in calls:
            again = _class_map(*args)
            assert (again.shape, again.rows) == (got.shape, got.rows)

    @pytest.mark.parametrize("product", sorted(PRODUCTS))
    @pytest.mark.parametrize("name", CASES)
    def test_induced_pairing_blocks_match_reference(self, name, product, monkeypatch):
        pairing = PRODUCTS[product](atlas_by_name(name))
        tl, tr, tt = (compute_table(f) for f in (pairing.left, pairing.right, pairing.target))
        calls = self._recorded(monkeypatch, "_block_matrix", _reference_block_matrix)
        for i in tl.degrees():
            for j in tr.degrees():
                induced_pairing(pairing, tl, tr, i, j, tt)
        assert calls
        for _, got, want in calls:
            assert got.shape == want.shape
            assert got.rows == want.rows

    def test_class_map_is_one_solve(self, triangle, monkeypatch):
        tcu = compute_table(cup_extraordinary(triangle).left)
        assert tcu.dim(1, 2, (1, 1)) == 3
        sizes = self._solves(monkeypatch)
        # the identity of a block of dim 3
        got = _class_map(tcu, tcu, 1, 1, 2, (1, 1), lambda rep: rep)
        assert sizes == [3]
        assert got == RationalMatrix.identity(3)

    def test_block_matrix_is_one_solve(self, triangle, monkeypatch):
        ext = cup_extraordinary(triangle)
        tcu, td, tcv = (compute_table(f) for f in (ext.left, ext.right, ext.target))
        left, right = TestNotACycleClass.LEFT, TestNotACycleClass.RIGHT
        assert tcu.dim(*left) * td.dim(*right) >= 2
        sizes = self._solves(monkeypatch)
        block = _block_matrix(ext, tcu, td, tcv, left, right)
        assert sizes == [block.nrows]


class TestFujiki:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_report_passes(self, name):
        report = fujiki_duality_report(atlas_by_name(name))
        assert report.ok, str(report)

    def test_disconnected_divisor_orientation(self, p1_2pts):
        report = fujiki_duality_report(p1_2pts)
        line = next(l for l in report.lines if "local orientation" in l.name)
        assert line.ok
        assert "2 pieces" in line.detail

    def test_no_orientation_class(self, triangle, monkeypatch):
        """With the relative table's top block (4, 4, (2, 2)) hidden, the
        first side has no orientation class: the global line, the dim
        symmetry into that block and each perfect pairing fail, and nothing
        else does."""
        original = pairings.compute_table

        def hiding_top(family):
            table = original(family)
            if family.label != "XD-tilde":
                return table
            dims = {key: 0 if key == (4, 4, (2, 2)) else d for key, d in table.dims.items()}
            return MixedHodgeTable(table.family, dims)

        monkeypatch.setattr(pairings, "compute_table", hiding_top)
        report = fujiki_duality_report(triangle)
        assert {l.name: l.detail for l in report.lines if not l.ok} == {
            "global orientation class": "H^4(XD) has dim 0 with 0 in the top block",
            "dim symmetry H(U)^0[w=0,(0,0)] vs H(XD)^4[w=4,(2,2)]": "1 vs 0",
            "perfect pairing H(U)^1[w=2,(1,1)] vs H(XD)^3[w=2,(1,1)]": "no orientation class",
            "perfect pairing H(U)^2[w=4,(2,2)] vs H(XD)^2[w=0,(0,0)]": "no orientation class",
        }

    def test_perfect_into_a_wider_top_block(self, p1_2pts):
        """Two divisor points give a two-dimensional top block of H^2_D, so
        the pairing there is checked by injectivity on both sides."""
        name = "perfect pairing H_D^2[w=2,(1,1)] vs H(D)^0[w=0,(0,0)]"
        line = next(l for l in fujiki_duality_report(p1_2pts).lines if l.name == name)
        assert line.ok
        assert line.detail == "two-sided injectivity into a 2 dimensional top block"

    def test_empty_divisor_raises(self):
        with pytest.raises(EmptyDivisor):
            fujiki_duality_report(generic_arrangement(2, 0))

    def test_generic_arrangements(self):
        for n, m in [(1, 2), (2, 2), (2, 3)]:
            report = fujiki_duality_report(generic_arrangement(n, m))
            assert report.ok, (n, m, str(report))


class TestLES:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_sequences_exact(self, name):
        report = les_check(atlas_by_name(name))
        assert report.ok, str(report)

    def test_both_sequences_present(self, triangle):
        report = les_check(triangle)
        names = [l.name for l in report.lines]
        assert any("(pair)" in n for n in names)
        assert any("(local)" in n for n in names)
        assert any("duality pattern" in n for n in names)

    def test_empty_divisor_raises(self):
        with pytest.raises(EmptyDivisor):
            les_check(generic_arrangement(2, 0))

    def test_each_map_ranked_once_per_block(self, triangle, monkeypatch):
        """Each exactness block ranks its four maps, delta(i-1), the
        projection, f and delta(i), once each, and the duality pattern ranks
        nothing: 52 ranks for the triangle's 13 blocks of three nodes."""
        ranked, original = [], pairings.rank
        monkeypatch.setattr(pairings, "rank", lambda m: ranked.append(m) or original(m))
        report = les_check(triangle)
        nodes = [l for l in report.lines if l.name.startswith("exact at ")]
        assert len(nodes) == 3 * 13
        assert len(ranked) == 4 * 13

    def test_generic_arrangements(self):
        for n, m in [(1, 3), (2, 3)]:
            report = les_check(generic_arrangement(n, m))
            assert report.ok, (n, m, str(report))
