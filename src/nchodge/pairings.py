"""Cup products on weight rows, duality reports and exactness checks.

Both products follow one rule, product_terms, term by term: restrict both
factors to each component of the meet of their strata, multiply in its
ring, and place the result in the target term, which adds the degrees and
twists, merges the residue sets (overlapping ones give no target) and keeps
the right factor's level p, simplex and cone slot.  The sign has three
factors: the shuffle sign of the two residue index sets, a Koszul factor
(-1)^(j1*k2) for moving the internal degree of the left factor past the
residue symbols of the right one, and the level sign (-1)^((j1+k1)*(p+shift))
for moving it past a level-p piece.  A cone target carries shift 1, which
absorbs the cone's own sign rule a.(x, y) = (a.x, (-1)^deg(a) a.y).  None of
this is taken on faith: products come from one table of basis products on the
families' numbered bases, each ring-level block made once, and
chain_map_check verifies the Leibniz identity on every basis pair from that
table, the factors' stored differentials and the target's apply_d.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import operator
from fractions import Fraction

from .atlas import StrataAtlas
from .complexes import (
    Element,
    PureTerm,
    RowFamily,
    RowMorphism,
    build,
    coker_u_rows,
    coker_v_rows,
    cone_morphism,
    cone_rows,
    map_term_block,
    rows_log,
    rows_sum_strata,
)
from .errors import DimensionMismatch, EmptyDivisor
from .linalg import CohomologySpace, RationalMatrix, int_first, rank, solve, unit_vector
from .reports import CheckLine, CheckReport
from .rings import Bidegree
from .tables import MixedHodgeTable, compute_table


# -- element helpers ----------------------------------------------------------


def sign_shuffle(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Sign of merging two disjoint ascending index tuples."""
    inversions = sum(1 for i in left for j in right if i > j)
    return -1 if inversions % 2 else 1


# -- graded pairings ----------------------------------------------------------


class GradedPairing:
    """A bilinear, weight- and type-additive product between row families.

    The resolver gives the (target term, sign) list of a term pair, and may
    return only targets of the rule's shape (others raise DimensionMismatch):
    chain_map_check resolves only the term pairs product_pairs lists.  Each
    term pair is compiled on first use into one table of basis products on
    the families' numbered bases, which evaluate and chain_map_check read.
    """

    def __init__(self, atlas: StrataAtlas, left: RowFamily, right: RowFamily,
                 target: RowFamily, resolver, label: str):
        self.atlas = atlas
        self.left = left
        self.right = right
        self.target = target
        self.label = label
        self._resolver = resolver
        self._target_terms = {t: t for t in target.terms}
        numbered = {f: _numbering(f) for f in dict.fromkeys((left, right, target))}
        self._numbers = [numbered[f] for f in (left, right, target)]
        self._table, self._blocks, self._placed = {}, {}, set()

    def _targets(self, t1: PureTerm, t2: PureTerm) -> list:
        """The resolved targets that are target terms, as the target's own."""
        key, out = _product_key(t1, t2), []
        for t3, sign in self._resolver(t1, t2):
            own = self._target_terms.get(t3)
            if own is not None:
                if _shape(own) != key:
                    raise DimensionMismatch(f"{self.label}: target "
                                            f"{own.describe()} is off the rule's shape")
                out.append((own, sign))
        return out

    def _products(self, pairs) -> dict:
        """{left number: {right number: {target number: value}}}, with each
        pair of `pairs` placed on first use: the _ring_block of each (left
        stratum, j1, right stratum, j2, meet piece), made once, at the pair's
        numbers with its sign and twist."""
        (at1, *_), (at2, *_), (at3, *_) = self._numbers
        for t1, t2 in pairs:
            if (t1, t2) in self._placed:
                continue
            for t3, sign in self._targets(t1, t2):
                key = (t1.stratum, t1.j, t2.stratum, t2.j, t3.stratum)
                if key not in self._blocks:
                    self._blocks[key] = _ring_block(self.atlas, *key)
                for (a1, b1), (a2, b2), entries in self._blocks[key]:
                    c1 = at1[(t1, (a1 + t1.k, b1 + t1.k))]
                    c2 = at2[(t2, (a2 + t2.k, b2 + t2.k))]
                    c3 = at3[(t3, (a1 + a2 + t3.k, b1 + b2 + t3.k))]
                    for i1, i2, w, x in entries:
                        at = self._table.setdefault(c1 + i1, {}).setdefault(c2 + i2, {})
                        at[c3 + w] = at.get(c3 + w, 0) + sign * x
            self._placed.add((t1, t2))
        return self._table

    def evaluate(self, left_elem: Element, right_elem: Element) -> Element:
        for family, elem in ((self.left, left_elem), (self.right, right_elem)):
            for (t, ab), v in elem.items():
                row = family.rows.get(t.q)
                place = row.layout.get((t.m, ab), {}).get(t) if row is not None else None
                if place is None or len(v) != place[1]:
                    raise DimensionMismatch(f"{self.label}: {t.describe()} {ab} of length "
                                            f"{len(v)} is not a slice of {family.label}")
        table =self._products([(t1, t2) for t1, _ in left_elem for t2, _ in right_elem])
        (at1, *_), (at2, *_), (*_, where) = self._numbers
        ys = [(at2[key] + i, y) for key, v in right_elem.items() for i, y in enumerate(v) if y]
        sums = collections.defaultdict(int)
        for key, v in left_elem.items():
            for i, x in enumerate(v):
                row = table.get(at1[key] + i) if x else None
                for c2, y in ys if row else ():
                    for c3, c in row.get(c2, {}).items():
                        sums[c3] += x * c * y
        out: dict = {}
        for c3, c in sums.items():
            if c:
                t3, ab3, w = where(c3)
                d = self.target.row(t3.q).layout[(t3.m, ab3)][t3][1]
                out.setdefault((t3, ab3), [Fraction(0)] * d)[w] = Fraction(c)
        return {key: tuple(vec) for key, vec in out.items()}


def _numbering(family: RowFamily) -> tuple:
    """The basis numbered slot by slot in slots() order, terms in layout order:
    {each slot (q, m, ab), then each of its (term, ab): the number of its first
    vector}, the count, and number -> (term, ab, index) by the last key at or below."""
    first, n = {}, 0
    for q, m, ab in family.slots():
        first[(q, m, ab)] = n
        for t, (off, _) in family.rows[q].layout[(m, ab)].items():
            first[(t, ab)] = n + off
        n += family.rows[q].dims[(m, ab)]
    keys, starts = list(first), list(first.values())
    return first, n, lambda c: (*keys[(k := bisect.bisect_right(starts, c) - 1)], c - starts[k])


def _ring_block(atlas: StrataAtlas, s1, j1: int, s2, j2: int, s3) -> list:
    """[(type 1, type 2, [(i1, i2, w, value)])] by pair of untwisted types: the
    nonzero products in H(s3) of the restrictions of columns i1 of H^j1(s1)
    and i2 of H^j2(s2), at column w."""
    rho, mult, out = atlas.rho, atlas.ring(s3).mult, []
    left = map_term_block(rho(s1, s3), j1, 0).items()
    right = map_term_block(rho(s2, s3), j2, 0).items()
    for (x1, r1), (y1, r2) in itertools.product(left, right):
        tensors, sums = mult.get(((j1, *x1), (j2, *y1))), collections.defaultdict(int)
        for u, i1, x in r1.entries() if tensors else ():
            for w, i2, c in (tensors[u] @ r2).entries():
                sums[(i1, i2, w)] += x * c
        if any(sums.values()):
            out.append((x1, y1, [(*at, int_first(x)) for at, x in sums.items() if x]))
    return out


def _shape(t: PureTerm) -> tuple:
    """A term's fields but its stratum: what the rule fixes of a target."""
    return (t.j, t.k, t.p, t.simp, t.res, t.side, t.shift)


def _product_key(t1: PureTerm, t2: PureTerm) -> tuple | None:
    """The _shape the rule gives every target of t1.t2, or None where the
    residue sets overlap; neither builds a term nor asks for a meet."""
    if set(t1.res) & set(t2.res):
        return None
    res = tuple(sorted(t1.res + t2.res))
    return (t1.j + t2.j, t1.k + t2.k, t2.p, t2.simp, res, t2.side, t2.shift)


def product_terms(atlas: StrataAtlas, t1: PureTerm, t2: PureTerm) -> list:
    """The (target term, sign) list of t1.t2, by the rule of the module."""
    shape = _product_key(t1, t2)
    if shape is None:
        return []
    sign = sign_shuffle(t1.res, t2.res)
    if (t1.j * t2.k + (t1.j + t1.k) * (t2.p + t2.shift)) % 2:
        sign = -sign
    return [(PureTerm(key, *shape), sign) for key in atlas.meet(t1.stratum, t2.stratum)]


def product_pairs(left, right, target) -> list:
    """The term pairs (t1, t2) whose product can have a target by the rule:
    some target term has their _product_key.  The target shapes with t2's
    (p, simp, side, shift) name the (j, k, res) of its left factors."""
    tails, out = collections.defaultdict(set), []
    for t in target:
        tails[t.p, t.simp, t.side, t.shift].add((t.j, t.k, t.res))
    for t2 in right:
        need = {(j - t2.j, k - t2.k, tuple(a for a in res if a not in t2.res))
                for j, k, res in tails[t2.p, t2.simp, t2.side, t2.shift] if set(t2.res) <= set(res)}
        out += ((t1, t2) for t1 in left if (t1.j, t1.k, t1.res) in need)
    return out


def cup_log_XD(atlas: StrataAtlas) -> GradedPairing:
    """Product of open-complement classes with relative classes.

    Left: rows_log.  Right and target: the cone defining the relative rows
    (XD-tilde); the source side of the cone multiplies as log rows, the
    semisimplicial side picks up the cone sign.
    """
    flog = rows_log(atlas)
    fxdt = build(atlas, "XD-tilde")
    rule = functools.partial(product_terms, atlas)
    return GradedPairing(atlas, flog, fxdt, fxdt, rule, "log x XD -> XD")


def cup_extraordinary(atlas: StrataAtlas) -> GradedPairing:
    """Product of local (divisor-supported) classes with divisor classes.

    Left: coker(u), the twists >= 1 of the ambient log terms, whose degree
    m-1 cohomology is H^m of the ambient space with supports on the
    divisor.  Right: the divisor rows, the twist-0 semisimplicial log
    terms.  Target: coker(v), the twists >= 1 of the semisimplicial log
    terms.  Each is one twist range of a log term generator, placed once.
    The Leibniz identity descends to the quotients because the discarded
    twist-zero terms form subcomplexes on both sides of the product.
    """
    if not atlas.components:
        raise EmptyDivisor("the divisor has no components")
    fcu = coker_u_rows(atlas)
    fd = rows_sum_strata(atlas)
    fcv = coker_v_rows(atlas)
    rule = functools.partial(product_terms, atlas)
    return GradedPairing(atlas, fcu, fd, fcv, rule, "locD x D -> locD")


def _d_column(family: RowFamily, first: dict, t: PureTerm, ab: Bidegree, i: int) -> list:
    """d of the basis vector at (t, ab, i), by the family's apply_d, as
    [(number, value)] on the numbers `first` of its _numbering."""
    unit = {(t, ab): unit_vector(family.row(t.q).layout[(t.m, ab)][t][1], i)}
    image = family.apply_d(t.q, t.m, unit).items()
    return [(first[key] + w, int_first(x)) for key, v in image for w, x in enumerate(v) if x]


def chain_map_check(pairing: GradedPairing) -> bool:
    """Leibniz identity d(xy) = dx.y + (-1)^deg(x) x.dy on every basis pair.

    Each compiled basis product xy is read once: d(xy) sums apply_d of each
    target basis vector it reaches, taken once, and dx.y and x.dy scatter xy
    through the factors' transposed stored differentials, into a residual
    keyed (x |right| + y) |target| + z on the numbered bases.  lhs - rhs
    must vanish on every pair: 0 = 0 where no sum reaches."""
    terms = (pairing.left.terms, pairing.right.terms, pairing.target.terms)
    table = pairing._products(product_pairs(*terms))
    (at1, _, where1), (at2, n2, _), (at3, n3, where3) = pairing._numbers
    # per factor, each number to the [(number, value)] whose stored d reaches it
    back = collections.defaultdict(list), collections.defaultdict(list)
    for into, family, first in zip(back, (pairing.left, pairing.right), (at1, at2)):
        for q, m, ab in family.slots():
            for r, c, x in family.rows[q].d(m, ab).entries():
                into[first[(q, m + 1, ab)] + r].append((first[(q, m, ab)] + c, x))
    columns, residual = {}, collections.defaultdict(int)
    for c1, row in table.items():
        sign, d_left = -1 if where1(c1)[0].m % 2 else 1, back[0].get(c1, ())
        for c2, product in row.items():
            here = (c1 * n2 + c2) * n3
            for c3, x in product.items():
                if c3 not in columns:
                    columns[c3] = _d_column(pairing.target, at3, *where3(c3))
                for k, y in columns[c3]:
                    residual[here + k] += x * y
                for i, c in d_left:
                    residual[(i * n2 + c2) * n3 + c3] -= c * x
                for j, c in back[1].get(c2, ()):
                    residual[here + (j - c2) * n3 + c3] -= sign * c * x
    return not any(residual.values())


# -- expressing products in cohomology ---------------------------------------


def express_in_space(space: CohomologySpace | None, cycles, failure: str) -> RationalMatrix:
    """The class of each cycle in the representative basis of `space` (None
    is the zero space), one row per cycle, from one `solve` of every cycle
    against [representatives | boundaries]; a vector that is not a cycle
    raises DimensionMismatch(failure)."""
    dim, cycles = 0 if space is None else space.dim, list(cycles)
    if not cycles:
        return RationalMatrix.zeros(0, dim)
    columns = () if space is None else (*space.representatives, *space.boundaries)
    solutions = solve(RationalMatrix.from_columns(columns, len(cycles[0])), cycles)
    if any(sol is None for sol in solutions):
        raise DimensionMismatch(failure)
    return RationalMatrix([sol[:dim] for sol in solutions], ncols=dim)


def _perfect_into_top(
    pairing: GradedPairing,
    left_table: MixedHodgeTable,
    right_table: MixedHodgeTable,
    target_table: MixedHodgeTable,
    left_block: tuple[int, int, Bidegree],
    right_block: tuple[int, int, Bidegree],
) -> tuple[bool, str]:
    """Perfectness of one block pairing valued in the top block: both
    induced maps into the top-valued dual are injective.  The blocks have
    equal positive dimension, so into a one-dimensional top block this is
    the Gram matrix having full rank."""
    block = _block_matrix(
        pairing, left_table, right_table, target_table, left_block, right_block
    )
    (mi, q1, ab1), (mj, q2, ab2) = left_block, right_block
    dl = left_table.dim(mi, q1, ab1)
    dr = right_table.dim(mj, q2, ab2)
    top = block.ncols
    # row (i, j) of the block is the product of left class i and right class j
    left = [[0] * (dr * top) for _ in range(dl)]
    right = [[0] * (dl * top) for _ in range(dr)]
    for row, c, x in block.entries():
        i, j = divmod(row, dr)
        left[i][j * top + c] = right[j][i * top + c] = x
    r_left = rank(RationalMatrix(left, ncols=dr * top))
    ok = r_left == dl and rank(RationalMatrix(right, ncols=dl * top)) == dr
    if top == 1:
        return ok, f"rank {r_left} of {dl}"
    return ok, f"two-sided injectivity into a {top} dimensional top block"


def _block_matrix(
    pairing: GradedPairing,
    left_table: MixedHodgeTable,
    right_table: MixedHodgeTable,
    target_table: MixedHodgeTable,
    left_block: tuple[int, int, Bidegree],
    right_block: tuple[int, int, Bidegree],
) -> RationalMatrix:
    """Matrix of one (left block) x (right block) -> (target block) pairing,
    rows indexed by pairs of classes, columns by the target classes."""
    (mi, q1, ab1), (mj, q2, ab2) = left_block, right_block
    mt, qt, abt = mi + mj, q1 + q2, (ab1[0] + ab2[0], ab1[1] + ab2[1])
    products = (
        pairing.evaluate(
            pairing.left.unflatten(q1, mi, ab1, lrep),
            pairing.right.unflatten(q2, mj, ab2, rrep),
        )
        for lrep in left_table.representatives(mi, q1, ab1)
        for rrep in right_table.representatives(mj, q2, ab2)
    )
    return express_in_space(
        target_table.space(mt, qt, abt),
        (pairing.target.flatten(qt, mt, abt, product) for product in products),
        f"{pairing.label}: product of classes is not a cycle class",
    )


def induced_pairing(
    pairing: GradedPairing,
    left_table: MixedHodgeTable,
    right_table: MixedHodgeTable,
    i: int,
    j: int,
    target_table: MixedHodgeTable | None = None,
) -> RationalMatrix:
    """Matrix of the induced pairing H^i x H^j -> H^{i+j} on cohomology.

    Rows run over pairs of classes (left block by block, then right), in
    the deterministic table order; columns over the target classes in
    degree i + j.
    """
    if target_table is None:
        target_table = compute_table(pairing.target)
    offsets: dict[tuple[int, Bidegree], int] = {}
    width = 0
    for q, ab, d in target_table.entries(i + j):
        offsets[(q, ab)] = width
        width += d
    blocks = []
    nrows = 0
    for q1, ab1, _ in left_table.entries(i):
        for q2, ab2, _ in right_table.entries(j):
            block = _block_matrix(
                pairing, left_table, right_table, target_table,
                (i, q1, ab1), (j, q2, ab2),
            )
            base = offsets.get((q1 + q2, (ab1[0] + ab2[0], ab1[1] + ab2[1])), 0)
            blocks.append((nrows, base, block))
            nrows += block.nrows
    return RationalMatrix.from_blocks(nrows, width, blocks)


# -- reports ------------------------------------------------------------------


def _mirror(n: int, q: int, ab: Bidegree) -> tuple[int, Bidegree]:
    return 2 * n - q, (n - ab[0], n - ab[1])


def _mirrored_blocks(
    n: int, left: MixedHodgeTable, mi: int, right: MixedHodgeTable, mj: int
):
    """Yield (q, ab, qm, abm, dl, dr) for every block (q, ab) of H^mi(left)
    or mirror of a block of H^mj(right), in order, with its mirror (qm, abm)
    and the dimensions of the two blocks."""
    blocks = {(q, ab) for q, ab, _ in left.entries(mi)}
    blocks |= {_mirror(n, q, ab) for q, ab, _ in right.entries(mj)}
    for q, ab in sorted(blocks):
        qm, abm = _mirror(n, q, ab)
        yield q, ab, qm, abm, left.dim(mi, q, ab), right.dim(mj, qm, abm)


def _duality_side(
    lines: list[CheckLine],
    pairing: GradedPairing,
    left_table: MixedHodgeTable,
    right_table: MixedHodgeTable,
    target_table: MixedHodgeTable,
    n: int,
    left_name: str,
    right_name: str,
    degree_pairs,
) -> None:
    """Dimension symmetry and perfectness for one side of the duality."""
    for i, mi, mj in degree_pairs:
        for q, ab, qm, abm, dl, dr in _mirrored_blocks(
            n, left_table, mi, right_table, mj
        ):
            name = (
                f"{left_name}^{i}[w={q},({ab[0]},{ab[1]})] vs "
                f"{right_name}^{2 * n - i}[w={qm},({abm[0]},{abm[1]})]"
            )
            lines.append(
                CheckLine(f"dim symmetry {name}", dl == dr, f"{dl} vs {dr}")
            )
            if dl != dr or dl == 0:
                continue
            if target_table.dim(mi + mj, 2 * n, (n, n)) == 0:
                lines.append(
                    CheckLine(f"perfect pairing {name}", False, "no orientation class")
                )
                continue
            ok, detail = _perfect_into_top(
                pairing, left_table, right_table, target_table,
                (mi, q, ab), (mj, qm, abm),
            )
            lines.append(CheckLine(f"perfect pairing {name}", ok, detail))


def fujiki_duality_report(atlas: StrataAtlas) -> CheckReport:
    """Blockwise duality between the open complement and the relative rows,
    and between local cohomology and the divisor rows."""
    if not atlas.components:
        raise EmptyDivisor("duality needs a nonempty divisor")
    n = atlas.dim
    lines: list[CheckLine] = []

    cup = cup_log_XD(atlas)
    table_u = compute_table(cup.left)
    table_xd = compute_table(cup.target)
    top = table_xd.dim(2 * n, 2 * n, (n, n))
    lines.append(
        CheckLine(
            "global orientation class",
            top == 1 and table_xd.betti(2 * n) == 1,
            f"H^{2 * n}(XD) has dim {table_xd.betti(2 * n)} with {top} in the top block",
        )
    )
    _duality_side(
        lines, cup, table_u, table_xd, table_xd, n, "H(U)", "H(XD)",
        [(i, i, 2 * n - i) for i in range(0, 2 * n + 1)],
    )

    ext = cup_extraordinary(atlas)
    table_cu = compute_table(ext.left)
    table_d = compute_table(ext.right)
    table_cv = compute_table(ext.target)
    top_local = table_cv.dim(2 * n - 1, 2 * n, (n, n))
    pieces = atlas.divisor_connected_components()
    lines.append(
        CheckLine(
            "local orientation classes",
            top_local == pieces and table_cv.betti(2 * n - 1) == pieces,
            f"H^{2 * n}_D has dim {table_cv.betti(2 * n - 1)} "
            f"with {top_local} in the top block; divisor has {pieces} pieces",
        )
    )
    # degree i of local cohomology is degree i-1 of the quotient rows
    _duality_side(
        lines, ext, table_cu, table_d, table_cv, n, "H_D", "H(D)",
        [(i, i - 1, 2 * n - i) for i in range(0, 2 * n + 1)],
    )
    return CheckReport("fujiki duality", tuple(lines))


# -- long exact sequences ------------------------------------------------------


def _class_map(
    src_table: MixedHodgeTable,
    dst_table: MixedHodgeTable,
    m_src: int,
    m_dst: int,
    q: int,
    ab: Bidegree,
    transform,
) -> RationalMatrix:
    """Matrix of the map H^m_src(src) -> H^m_dst(dst) in block (q, ab) that
    sends the class of a cycle vector c to the class of transform(c)."""
    classes = express_in_space(
        dst_table.space(m_dst, q, ab),
        map(transform, src_table.representatives(m_src, q, ab)),
        f"map into {dst_table.label}: image is not a cycle class",
    )
    return RationalMatrix.from_columns(classes.rows, classes.ncols)


def _exact_at(
    lines: list[CheckLine],
    node_name: str,
    incoming: RationalMatrix,
    outgoing: RationalMatrix,
    dim_here: int,
) -> None:
    comp_zero = (
        (outgoing @ incoming).is_zero() if incoming.ncols and outgoing.nrows else True
    )
    r_in = rank(incoming)
    r_out = rank(outgoing)
    ok = comp_zero and (r_in + r_out == dim_here)
    lines.append(
        CheckLine(
            f"exact at {node_name}",
            ok,
            f"rank in {r_in} + rank out {r_out} vs dim {dim_here}"
            + ("" if comp_zero else "; composition nonzero"),
        )
    )


def _sequence_checks(
    lines: list[CheckLine],
    tag: str,
    morphism: RowMorphism,
    names: tuple[str, str, str],
) -> tuple[MixedHodgeTable, MixedHodgeTable, MixedHodgeTable]:
    """Exactness of ... -> H^i(cone) -> H^i(src) -> H^i(dst) -> H^{i+1}(cone) -> ...

    By the slot rule of cone_rows both maps at the cone are a slice or a pad.
    Returns the tables of the cone, the source and the target.
    """
    cone_name, src_name, dst_name = names
    cone_table = compute_table(cone_rows(morphism))
    src_table = compute_table(morphism.source)
    dst_table = compute_table(morphism.target)
    connecting: dict[tuple[int, int, Bidegree], RationalMatrix] = {}

    def delta(m: int, q: int, ab: Bidegree) -> RationalMatrix:
        """H^m(dst) -> H^{m+1}(cone), y |-> class of (0, y)."""
        if (m, q, ab) not in connecting:
            pad = (0,) * morphism.source.row(q).dim(m + 1, ab)
            connecting[(m, q, ab)] = _class_map(
                dst_table, cone_table, m, m + 1, q, ab, lambda y: pad + y
            )
        return connecting[(m, q, ab)]

    # every nonzero block at its degree, and the target's also one up,
    # where its connecting map starts
    blocks = {
        (m + up, q, ab)
        for table, ups in ((cone_table, (0,)), (src_table, (0,)), (dst_table, (0, 1)))
        for (m, q, ab), d in table.dims.items()
        if d
        for up in ups
    }
    for i, q, ab in sorted(blocks):
        where = f"[w={q},({ab[0]},{ab[1]})] ({tag})"
        # (x, y) |-> x, with n_src bound now: a lambda would read it when called
        n_src = morphism.source.row(q).dim(i, ab)
        proj_here = _class_map(
            cone_table, src_table, i, i, q, ab, operator.itemgetter(slice(n_src))
        )
        _exact_at(
            lines, f"{cone_name}^{i}{where}", delta(i - 1, q, ab), proj_here,
            cone_table.dim(i, q, ab),
        )
        f_here = _class_map(
            src_table, dst_table, i, i, q, ab, morphism.matrix(q, i, ab).apply
        )
        _exact_at(
            lines, f"{src_name}^{i}{where}", proj_here, f_here,
            src_table.dim(i, q, ab),
        )
        _exact_at(
            lines, f"{dst_name}^{i}{where}", f_here, delta(i, q, ab),
            dst_table.dim(i, q, ab),
        )
    return cone_table, src_table, dst_table


def les_check(atlas: StrataAtlas) -> CheckReport:
    """Exactness of the two long sequences linking the six theories, plus
    the duality pattern matching their blocks degree by degree."""
    if not atlas.components:
        raise EmptyDivisor("the sequences need a nonempty divisor")
    n = atlas.dim
    lines: list[CheckLine] = []
    table_xd, table_x, table_d = _sequence_checks(
        lines, "pair", cone_morphism(atlas, "XD"), ("H(X,D)", "H(X)", "H(D)")
    )
    table_locd, _, table_u = _sequence_checks(
        lines, "local", cone_morphism(atlas, "locD"), ("H_D", "H(X)", "H(U)")
    )

    # the two sequences are blockwise dual to each other
    pattern = [
        (table_xd, table_u, "H(X,D)", "H(U)"),
        (table_x, table_x, "H(X)", "H(X)"),
        (table_d, table_locd, "H(D)", "H_D"),
    ]
    for left_table, right_table, lname, rname in pattern:
        degrees = set(left_table.degrees()) | {
            2 * n - m for m in right_table.degrees()
        }
        for i in sorted(degrees):
            for q, ab, qm, abm, dl, dr in _mirrored_blocks(
                n, left_table, i, right_table, 2 * n - i
            ):
                lines.append(
                    CheckLine(
                        f"duality pattern {lname}^{i}[w={q},({ab[0]},{ab[1]})] vs "
                        f"{rname}^{2 * n - i}[w={qm},({abm[0]},{abm[1]})]",
                        dl == dr,
                        f"{dl} vs {dr}",
                    )
                )
    return CheckReport("long exact sequences", tuple(lines))
