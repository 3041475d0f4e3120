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
this is taken on faith: products come from one table of basis products, each
term pair compiled once, and chain_map_check verifies the Leibniz identity on
every pair of basis vectors from that table, the factors' stored
differentials and the target's apply_d.
"""

from __future__ import annotations

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
    term pair is compiled on first use into its basis products, which
    evaluate and chain_map_check read.
    """

    def __init__(self, atlas: StrataAtlas, left: RowFamily, right: RowFamily,
                 target: RowFamily, resolver, label: str):
        self.atlas = atlas
        self.left = left
        self.right = right
        self.target = target
        self.label = label
        self._resolver = resolver
        self._compiled: dict[tuple[PureTerm, PureTerm], dict] = {}
        self._target_terms = {t: t for t in target.terms}

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

    def _products(self, t1: PureTerm, t2: PureTerm) -> dict:
        """The basis products of t1 x t2, compiled on first use: (ab1, ab2,
        i1, i2) -> {(t3, ab3, w): value}, nonzero and integer-first.  A value
        is sign . (column i1 of t1's restriction to t3) . (the ring's
        tensors) . (column i2 of t2's restriction to t3)."""
        if (t1, t2) in self._compiled:
            return self._compiled[(t1, t2)]
        sums, rho = collections.defaultdict(int), self.atlas.rho
        for t3, sign in self._targets(t1, t2):
            mult = self.atlas.ring(t3.stratum).mult
            left = map_term_block(rho(t1.stratum, t3.stratum), t1.j, 0).items()
            right = map_term_block(rho(t2.stratum, t3.stratum), t2.j, 0).items()
            for (x1, r1), (y1, r2) in itertools.product(left, right):
                tensors = mult.get(((t1.j, *x1), (t2.j, *y1)), ())
                ab1, ab2 = (x1[0] + t1.k, x1[1] + t1.k), (y1[0] + t2.k, y1[1] + t2.k)
                ab3 = (ab1[0] + ab2[0], ab1[1] + ab2[1])
                for u, i1, x in r1.entries() if tensors else ():
                    for w, i2, c in (tensors[u] @ r2).entries():
                        sums[(ab1, ab2, i1, i2), (t3, ab3, w)] += sign * x * c
        table = self._compiled[(t1, t2)] = {}
        for (basis, at), x in sums.items():
            if x:
                table.setdefault(basis, {})[at] = int_first(x)
        return table

    def evaluate(self, left_elem: Element, right_elem: Element) -> Element:
        sums = collections.defaultdict(int)
        for (t1, ab1), x in left_elem.items():
            for (t2, ab2), y in right_elem.items():
                for (a1, a2, i1, i2), product in self._products(t1, t2).items():
                    if (a1, a2) == (ab1, ab2) and x[i1] and y[i2]:
                        for at, c in product.items():
                            sums[at] += x[i1] * c * y[i2]
        out: dict = {}
        for (t3, ab3, w), c in sums.items():
            if c:
                d = self.target.row(t3.q).layout[(t3.m, ab3)][t3][1]
                out.setdefault((t3, ab3), [Fraction(0)] * d)[w] = Fraction(c)
        return {key: tuple(vec) for key, vec in out.items()}


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
    some target term has their _product_key."""
    shapes = {_shape(t) for t in target}
    return [(t1, t2) for t2 in right for t1 in left if _product_key(t1, t2) in shapes]


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


def _preimages(family: RowFamily) -> dict:
    """The stored differentials transposed: each coordinate (term, ab, index)
    to the [(coordinate, value)] whose d reaches it."""
    out = collections.defaultdict(list)
    for row in family.rows.values():
        for (m, ab), mat in row.diff.items():
            here, there = (
                [(t, ab, i) for t, (_, d) in row.layout.get(key, {}).items()
                 for i in range(d)]
                for key in ((m, ab), (m + 1, ab))
            )
            for r, c, x in mat.entries():
                out[there[r]].append((here[c], x))
    return out


def _d_column(family: RowFamily, t: PureTerm, ab: Bidegree, i: int) -> list:
    """d of the basis vector at coordinate (t, ab, i), by the family's
    apply_d, as [(coordinate, value)]."""
    unit = {(t, ab): unit_vector(family.row(t.q).layout[(t.m, ab)][t][1], i)}
    image = family.apply_d(t.q, t.m, unit).items()
    return [((*key, w), int_first(x)) for key, v in image for w, x in enumerate(v) if x]


def chain_map_check(pairing: GradedPairing) -> bool:
    """Leibniz identity d(xy) = dx.y + (-1)^deg(x) x.dy on every basis pair.

    Each compiled basis product xy of the listed term pairs is read once:
    d(xy) sums apply_d of each target basis vector it reaches, taken once,
    and dx.y and x.dy scatter xy through the factors' transposed stored
    differentials.  lhs - rhs must vanish on every pair: 0 = 0 where no sum
    reaches, whatever the pair's own product."""
    d_left, d_right = _preimages(pairing.left), _preimages(pairing.right)
    columns, residual = {}, collections.defaultdict(int)
    terms = (pairing.left.terms, pairing.right.terms, pairing.target.terms)
    for t1, t2 in product_pairs(*terms):
        sign = -1 if t1.m % 2 else 1
        for (ab1, ab2, i1, i2), product in pairing._products(t1, t2).items():
            k1, k2 = (t1, ab1, i1), (t2, ab2, i2)
            for at, x in product.items():
                if at not in columns:
                    columns[at] = _d_column(pairing.target, *at)
                for k, y in columns[at]:
                    residual[(k1, k2, k)] += x * y
                for i, c in d_left.get(k1, ()):
                    residual[(i, k2, at)] -= c * x
                for j, c in d_right.get(k2, ()):
                    residual[(k1, j, at)] -= sign * c * x
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
    pairs = block.rows
    left_flat = RationalMatrix(
        [[x for j in range(dr) for x in pairs[i * dr + j]] for i in range(dl)],
        ncols=dr * top,
    )
    right_flat = RationalMatrix(
        [[x for i in range(dl) for x in pairs[i * dr + j]] for j in range(dr)],
        ncols=dl * top,
    )
    r_left = rank(left_flat)
    ok = r_left == dl and rank(right_flat) == dr
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
