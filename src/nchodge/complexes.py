"""Weight rows of the split complexes attached to a strata atlas.

Every cohomology theory handled here (the ambient space, the divisor, the
open complement, the pairs and local variants, punctured neighborhoods) is
represented by a family of cochain complexes indexed by an intrinsic weight
q: each term is a pure piece H^j(S)(-k) placed in total degree m = j + k + p,
where k counts residue twists and p the simplicial level.  A twist shifts
Hodge types by (k, k), so a term of weight q = j + 2k contributes its
(a + k, b + k)-slices.  All differentials preserve q and every twisted type
slice, so each (q, a, b) block is an honest complex of finite dimensional
rational spaces and the whole mixed structure is read off blockwise.

Six theories are twist ranges of one log term generator, along the ambient
stratum or over the semisimplicial divisor, each family placed once; twist 0
is a subcomplex, and twists >= 1 its quotient, with no residue block into 0:

               all twists                twist 0          twists >= 1
    ambient    rows_log, nbhd:<key>      rows_constant    coker_u_rows
    divisor    rows_semisimplicial_log   rows_sum_strata  coker_v_rows

Residue sets come from the strata lattice: along a stratum C, each stratum T
under it (StrataAtlas.descendants) has the residue sets (I_T - I_C) + S for
S a subset of I_C, so the work follows the lattice, not the 2^m subsets of
the components.  Within one builder call each distinct Chern, Gysin or
restriction block is built once and negated once, a twist only re-keys its
types, every term pair gets its own dict, and a residue or Cech step lands
on a term already built.

Simplex convention: every term names the stratum whose Cech simplex or
punctured neighborhood it sits on.  Constant and log terms sit on the
ambient stratum, a divisor term on its own stratum, and a term of the
semisimplicial log family on the component meet of its Cech level p, one
less than that meet's depth.  One Cech step meets a term's simplex with one
more component, restricts the term to each component of the meet of that
child simplex with its stratum (StrataAtlas.meet), and lands on the child's
level; it is the Cech differential, and out of the ambient simplex the
restriction to level 0.

Layout: a weight row's slots are the keys (m, ab) of its dims, each with a
positive dim, and every walk reads them through RowFamily.slots().  A slot
maps each term to (offset, dim), terms in sort_key order and their slices
stacked from offset 0, so placing a block reads both endpoints by lookup.
A term's side is the path of cone ends holding it, outermost first, and sorts
first, so every cone slot (m, ab), cones of cones included, is the source
slot (m, ab) followed by the target slot (m-1, ab).

Sign conventions: removing the r-th element (1-based, ascending order) of a
residue set carries (-1)^(r-1) times a Koszul factor (-1)^p, and the same
rule without the Koszul factor drives the Cech direction.  Cones are
shifted: degree m of Cone(f) is source degree m plus target degree m-1,
with d(x, y) = (dx, f(x) - dy).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .atlas import BlockMap, StrataAtlas, StratumKey, key_from_string, key_to_string
from .errors import (
    BadParams,
    DimensionMismatch,
    EmptyDivisor,
    LatticeError,
    NotChainMap,
    UnknownStratum,
)
from .linalg import RationalMatrix, Vector, rank
from .rings import Bidegree

TermBlock = dict[Bidegree, RationalMatrix]  # keyed by twisted (a, b)
Element = dict[tuple["PureTerm", Bidegree], Vector]


@dataclass(frozen=True)
class PureTerm:
    """One pure piece H^j(stratum)(-k) sitting in a weight row.

    simp is the stratum whose Cech simplex or neighborhood the piece sits on
    (at simplicial level p), res the residue index set it remembers, side
    the path of cone ends ("s" source, "t" target) holding it, outermost
    first, and shift its cones' degree shift.  The total degree m = j + k + p +
    shift and the weight q = j + 2k, which never includes the shift, are set once.
    """

    stratum: StratumKey
    j: int
    k: int
    p: int
    simp: StratumKey
    res: tuple[int, ...] = ()
    side: str = ""
    shift: int = 0

    def __init__(self, stratum, j, k, p, simp, res=(), side="", shift=0):
        self.__dict__.update(stratum=stratum, j=j, k=k, p=p, simp=simp, res=res, side=side,
                             shift=shift, m=j + k + p + shift, q=j + 2 * k,
                             _hash=hash((stratum, j, k, p, simp, res, side, shift)))

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        fields = (self.k, self.p, self.res, self.simp, self.stratum, self.j)
        return (self.side, *fields, self.shift)

    def describe(self) -> str:
        bits = [f"H^{self.j}({key_to_string(self.stratum) or 'X'})"]
        if self.k:
            bits.append(f"(-{self.k})")
        # shown unless the piece sits on the ambient simplex or its own
        if self.simp[0] and self.simp != self.stratum:
            bits.append(f"@{key_to_string(self.simp) or 'X'}[p={self.p}]")
        if self.side:
            bits.append(f"[{self.side}]")
        return "".join(bits)


def term_slices(atlas: StrataAtlas, term: PureTerm) -> tuple[tuple[Bidegree, int], ...]:
    ring = atlas.ring(term.stratum)
    return tuple(
        ((a + term.k, b + term.k), d) for (a, b), d in ring.slices(term.j)
    )


def identity_term_block(atlas: StrataAtlas, term: PureTerm) -> TermBlock:
    return {ab: RationalMatrix.identity(d) for ab, d in term_slices(atlas, term)}


def map_term_block(raw: BlockMap, j: int, twist: int) -> TermBlock:
    """Select the degree-j blocks of an atlas map and re-key them by the
    twisted type both endpoint terms share."""
    out: TermBlock = {}
    for (jj, (a, b)), mat in raw.items():
        if jj == j and mat.nrows > 0 and mat.ncols > 0:
            out[(a + twist, b + twist)] = mat
    return out


def _block_maker(atlas: StrataAtlas):
    """`block(kind, s, t, j, twist, sign)`: the degree-j block of the Chern
    class of component t on stratum s ("c"), of the Gysin map s -> t ("g") or
    of the restriction s -> t ("r"), keyed by twisted type, times the sign, in
    a fresh dict.  Each distinct block is made once, and its matrices negated
    once, per maker; a maker lives for one builder call, and it does not call
    itself, so no reference cycle keeps its memo alive after the call."""
    made: dict[tuple, TermBlock] = {}

    def block(kind, s, t, j: int, twist: int, sign: int) -> TermBlock:
        got = made.get((kind, s, t, j, sign))
        if got is None:
            got = made.get((kind, s, t, j, 1))
            if got is None:
                if kind == "c":  # into the degree j + 2 slices that exist
                    ring, cls = atlas.ring(s), atlas.divisor_class(t, s)
                    got = {ab: ring.mult_operator(2, (1, 1), cls, j, ab) for ab, _ in ring.slices(j)
                           if ring.slice_dim(j + 2, (ab[0] + 1, ab[1] + 1))}
                else:
                    maps = atlas.gysin_map if kind == "g" else atlas.rho
                    got = map_term_block(maps(s, t), j, 0)
                made[(kind, s, t, j, 1)] = got
            if sign < 0:
                got = made[(kind, s, t, j, -1)] = {ab: mat.scale(-1) for ab, mat in got.items()}
        return {(a + twist, b + twist): mat for (a, b), mat in got.items()}

    return block


class WeightRow:
    """One cochain complex of pure weight-q pieces, split by twisted type."""

    def __init__(self, q: int):
        self.q = q
        # (m, ab) -> {term: (offset, dim)}, terms in sort_key order
        self.layout: dict[tuple[int, Bidegree], dict[PureTerm, tuple[int, int]]] = {}
        self.dims: dict[tuple[int, Bidegree], int] = {}
        self.diff: dict[tuple[int, Bidegree], RationalMatrix] = {}

    def dim(self, m: int, ab: Bidegree) -> int:
        return self.dims.get((m, ab), 0)

    def d(self, m: int, ab: Bidegree) -> RationalMatrix:
        mat = self.diff.get((m, ab))
        if mat is None:
            return RationalMatrix.zeros(self.dim(m + 1, ab), self.dim(m, ab))
        return mat

    def offset(self, m: int, term: PureTerm, ab: Bidegree) -> tuple[int, int]:
        slot = self.layout.get((m, ab), {}).get(term)
        if slot is None:
            raise DimensionMismatch(f"term {term.describe()} has no ({m}, {ab}) slice")
        return slot


def _place_blocks(
    blocks: dict[tuple[PureTerm, PureTerm], TermBlock],
    source: RowFamily,
    target: RowFamily,
) -> dict[tuple[int, int, Bidegree], RationalMatrix]:
    """Sum term-to-term blocks into one matrix per (q, source degree, type),
    placing each block at its terms' offsets in the source and target rows."""
    placed: dict[tuple[int, int, Bidegree], tuple[int, list]] = {}  # -> (m2, parts)
    for (t1, t2), block in blocks.items():
        q, m1, m2 = t1.q, t1.m, t2.m
        src_row, dst_row = source.row(q), target.row(t2.q)
        src, dst = src_row.layout, dst_row.layout
        for ab, mat in block.items():
            # a missing slice is named by offset()
            off1, d1 = src.get((m1, ab), {}).get(t1) or src_row.offset(m1, t1, ab)
            off2, d2 = dst.get((m2, ab), {}).get(t2) or dst_row.offset(m2, t2, ab)
            if mat.shape != (d2, d1):
                raise DimensionMismatch(
                    f"block {t1.describe()} -> {t2.describe()} at {ab}: "
                    f"shape {mat.shape}, expected {(d2, d1)}"
                )
            placed.setdefault((q, m1, ab), (m2, []))[1].append((off2, off1, mat))
    return {
        (q, m1, ab): RationalMatrix.from_blocks(
            target.rows[q].dims[(m2, ab)], source.rows[q].dims[(m1, ab)], parts
        )
        for (q, m1, ab), (m2, parts) in placed.items()
    }


class RowFamily:
    """A finite family of weight rows plus its term-level block data."""

    def __init__(
        self,
        atlas: StrataAtlas,
        label: str,
        terms: tuple[PureTerm, ...],
        blocks: dict[tuple[PureTerm, PureTerm], TermBlock],
    ):
        self._lay_out(atlas, label, terms)
        self.blocks = blocks
        for t1, t2 in blocks:
            if t1.q != t2.q or t2.m != t1.m + 1:
                fault = "changes the weight" if t1.q != t2.q else "is not of degree +1"
                raise DimensionMismatch(
                    f"differential block {t1.describe()} -> {t2.describe()} {fault}"
                )
        for (q, m, ab), mat in _place_blocks(blocks, self, self).items():
            self.rows[q].diff[(m, ab)] = mat

    def _lay_out(self, atlas: StrataAtlas, label: str, terms: tuple[PureTerm, ...]):
        """Lay the terms out in weight rows without differentials."""
        self.atlas = atlas
        self.label = label
        self.terms = terms
        self.rows: dict[int, WeightRow] = {}
        grouped: dict[int, dict[int, list[PureTerm]]] = {}
        slices: dict[tuple, tuple] = {}  # (stratum, j, k) -> its terms' slices
        for term in terms:
            grouped.setdefault(term.q, {}).setdefault(term.m, []).append(term)
        for q, per_degree in grouped.items():
            row = self.rows[q] = WeightRow(q)
            for m, ts in per_degree.items():
                for t in sorted(ts, key=PureTerm.sort_key):
                    if (t.stratum, t.j, t.k) not in slices:
                        slices[(t.stratum, t.j, t.k)] = term_slices(atlas, t)
                    for ab, d in slices[(t.stratum, t.j, t.k)]:
                        offset = row.dims.get((m, ab), 0)
                        row.layout.setdefault((m, ab), {})[t] = (offset, d)
                        row.dims[(m, ab)] = offset + d

    # -- element plumbing ---------------------------------------------------

    def weights(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def row(self, q: int) -> WeightRow:
        """The weight-q row; an empty one, not stored, if the family has none."""
        row = self.rows.get(q)
        return WeightRow(q) if row is None else row

    def slots(self):
        """Yield (q, m, ab) for every slot, by weight and then sorted (m, ab)."""
        for q in self.weights():
            for m, ab in sorted(self.rows[q].dims):
                yield q, m, ab

    def flatten(self, q: int, m: int, ab: Bidegree, elem: Element) -> Vector:
        row = self.row(q)
        out = [Fraction(0)] * row.dim(m, ab)
        for t, (off, d) in row.layout.get((m, ab), {}).items():
            vec = elem.get((t, ab))
            if vec is not None:
                if len(vec) != d:
                    raise DimensionMismatch("element slice has wrong length")
                for i, x in enumerate(vec):
                    out[off + i] += x
        return tuple(out)

    def unflatten(self, q: int, m: int, ab: Bidegree, vec: Vector) -> Element:
        row = self.row(q)
        if len(vec) != row.dim(m, ab):
            raise DimensionMismatch("vector length differs from its slot's dim")
        out: Element = {}
        for t, (off, d) in row.layout.get((m, ab), {}).items():
            piece = tuple(vec[off:off + d])
            if any(piece):
                out[(t, ab)] = piece
        return out

    def apply_d(self, q: int, m: int, elem: Element) -> Element:
        """d of `elem`, read only through its nonzero coordinates; pieces on
        terms outside the degree-m slots are ignored, as `flatten` does."""
        row = self.row(q)
        coords: dict[Bidegree, dict[int, Fraction]] = {}
        for (t, ab), vec in elem.items():
            place = row.layout.get((m, ab), {}).get(t)
            if place is not None:
                if len(vec) != place[1]:
                    raise DimensionMismatch("element slice has wrong length")
                at = coords.setdefault(ab, {})
                at.update((place[0] + i, x) for i, x in enumerate(vec) if x)
        out: Element = {}
        # d keeps the type, so a type the element lacks contributes nothing
        for ab in sorted(coords):
            image = row.d(m, ab).apply_sparse(coords[ab])
            slot = row.layout.get((m + 1, ab), {})
            terms, starts = list(slot), [off for off, _ in slot.values()]
            # the terms holding a nonzero coordinate, in layout order
            for k in sorted({bisect.bisect_right(starts, i) - 1 for i in image}):
                off, d = slot[terms[k]]
                out[(terms[k], ab)] = tuple(Fraction(image.get(i, 0)) for i in range(off, off + d))
        return out

    def differentials_square_to_zero(self) -> bool:
        for q, m, ab in self.slots():
            row = self.rows[q]
            d_here = row.d(m, ab)
            d_next = row.d(m + 1, ab)
            if d_here.nrows and d_next.nrows and not (d_next @ d_here).is_zero():
                return False
        return True


# -- morphisms and cones ------------------------------------------------------


@dataclass
class RowMorphism:
    """Degree- and weight-preserving map between two row families."""

    source: RowFamily
    target: RowFamily
    blocks: dict[tuple[PureTerm, PureTerm], TermBlock]
    label: str = ""

    def __post_init__(self):
        for t1, t2 in self.blocks:
            if t1.q != t2.q or t1.m != t2.m:
                raise DimensionMismatch(
                    f"morphism block {t1.describe()} -> {t2.describe()} shifts degrees"
                )
        self._matrices = _place_blocks(self.blocks, self.source, self.target)

    def matrix(self, q: int, m: int, ab: Bidegree) -> RationalMatrix:
        mat = self._matrices.get((q, m, ab))
        if mat is None:
            return RationalMatrix.zeros(
                self.target.row(q).dim(m, ab), self.source.row(q).dim(m, ab)
            )
        return mat

    def is_chain_map(self) -> bool:
        # out of a slot the source lacks both sides have no columns
        for q, m, ab in self.source.slots():
            left = self.target.row(q).d(m, ab) @ self.matrix(q, m, ab)
            right = self.matrix(q, m + 1, ab) @ self.source.rows[q].d(m, ab)
            if left != right:
                return False
        return True

    def blockwise_injective(self) -> bool:
        for q, m, ab in self.source.slots():
            mat = self.matrix(q, m, ab)
            if rank(mat) < mat.ncols:
                return False
        return True


class _Cone(RowFamily):
    """The cone of a chain map: each slot's differential is one sum of the
    placed matrices of its ends and the morphism."""

    def __init__(self, morphism: RowMorphism):
        source, target = morphism.source, morphism.target
        # one rename per side: X's terms equal log's twist-0 terms under u
        s = [PureTerm(x.stratum, x.j, x.k, x.p, x.simp, x.res, "s" + x.side, x.shift)
             for x in source.terms]
        t = [PureTerm(x.stratum, x.j, x.k, x.p, x.simp, x.res, "t" + x.side, x.shift + 1)
             for x in target.terms]
        label = f"cone({morphism.label})" if morphism.label else "cone"
        self._lay_out(source.atlas, label, (*s, *t))
        self.morphism = morphism
        # d(x, y) = (d_src x, f x - d_tgt y), source slot m over target slot m-1
        for q, row in self.rows.items():
            src, tgt = source.row(q), target.row(q)
            for m, ab in row.dims:
                n_src, n_next = src.dim(m, ab), src.dim(m + 1, ab)
                parts = [
                    (0, 0, src.d(m, ab)),
                    (n_next, 0, morphism.matrix(q, m, ab)),
                    (n_next, n_src, tgt.d(m - 1, ab).scale(-1)),
                ]
                shape = (row.dim(m + 1, ab), row.dim(m, ab))
                row.diff[(m, ab)] = RationalMatrix.from_blocks(*shape, parts)


def cone_rows(morphism: RowMorphism) -> RowFamily:
    """Mapping cone of a row morphism.

    Degree m consists of the source in degree m and the target in degree
    m-1, so the cone fits before the source in the long exact sequence.
    A source term's side gains the prefix "s" and a target term's "t", so
    each end keeps its slot order: slot (m, ab) is the source slot (m, ab),
    then the target slot (m-1, ab) at offsets moved up by the source slot's
    dim, for every cone, cones of cones included.
    """
    if not morphism.is_chain_map():
        raise NotChainMap(f"cone of {morphism.label or 'morphism'}: not a chain map")
    return _Cone(morphism)


# -- the seven builders -------------------------------------------------------


def _cech_blocks(atlas: StrataAtlas, terms, targets):
    """One Cech step out of each term's simplex: restrict to the meet of each
    child simplex with the term's stratum, landing among `targets` on the
    child's level (level 0 from the ambient)."""
    block = _block_maker(atlas)
    found = {(t.stratum, t.j, t.k, t.simp, t.res): t for t in targets}
    steps: dict[tuple[StratumKey, StratumKey], list] = {}  # (simp, stratum) -> steps
    blocks: dict[tuple[PureTerm, PureTerm], TermBlock] = {}
    for t in terms:
        carried = t.simp[0]
        here = steps.get((t.simp, t.stratum))
        if here is None:
            here = steps[(t.simp, t.stratum)] = [
                (-1 if sum(1 for i in carried if i < b) % 2 else 1, c2, wkey)
                for b in range(len(atlas.components))
                if b not in carried
                for c2 in atlas.children.get((t.simp, b), ())
                for wkey in atlas.meet(c2, t.stratum)
            ]
        for sign, c2, wkey in here:
            made = block("r", t.stratum, wkey, t.j, t.k, sign)
            if made:
                blocks[(t, found[(wkey, t.j, t.k, c2, t.res)])] = made
    return blocks


def _stratum_log_data(atlas: StrataAtlas, levels, twists: range):
    """Terms and residue-direction blocks of the log family along each
    stratum C of `levels`, (C, Cech level p) pairs, for the residue sets whose
    sizes (twists) lie in `twists`.  A residue block lowers the twist by one,
    so a block into a twist below the range is dropped: that takes the
    quotient by the lower twists."""
    block = _block_maker(atlas)
    terms: list[PureTerm] = []
    blocks: dict[tuple[PureTerm, PureTerm], TermBlock] = {}
    for ckey, p in levels:
        carried, under = ckey[0], atlas.descendants(ckey)
        # the residue sets J with I_C + J = I_T of each stratum T under C are
        # (I_T - I_C) + S for S a subset of I_C; terms go by |J|, J, T, degree
        sets = sorted(
            (len(J), J, tkey)
            for tkey in under
            for n in range(len(carried) + 1)
            for S in itertools.combinations(carried, n)
            for J in [tuple(sorted(set(tkey[0]).difference(carried).union(S)))]
            if len(J) in twists
        )
        here = {
            (tkey, j, J): PureTerm(tkey, j, size, p, simp=ckey, res=J)
            for size, J, tkey in sets
            for j in atlas.ring(tkey).degrees()
        }
        for t in here.values():
            if t.k - 1 not in twists:
                continue
            for r, a in enumerate(t.res):
                sign = -1 if (r + p) % 2 else 1
                if a in carried:
                    tkey, made = t.stratum, block("c", t.stratum, a, t.j, t.k, sign)
                else:
                    tkey = atlas.parent[(t.stratum, a)]
                    if tkey not in under:
                        raise LatticeError(
                            f"stratum {tkey} escapes {ckey} while removing {a}"
                        )
                    made = block("g", t.stratum, tkey, t.j, t.k, sign)
                if made:
                    rest = t.res[:r] + t.res[r + 1:]
                    blocks[(t, here[(tkey, t.j + 2, rest)])] = made
        terms.extend(here.values())
    return tuple(terms), blocks


def _divisor_log_data(atlas: StrataAtlas, twists: range):
    """Terms and blocks of the log family over the semisimplicial divisor:
    each component meet's stratum-log terms at its Cech level (none if empty)."""
    levels = [(ckey, len(ckey[0]) - 1) for ckey in atlas.keys_sorted() if ckey[0]]
    terms, blocks = _stratum_log_data(atlas, levels, twists)
    return terms, {**blocks, **_cech_blocks(atlas, terms, terms)}


def _twists(atlas: StrataAtlas, lowest: int) -> range:
    """Twists from `lowest` up to the number of divisor components."""
    return range(lowest, len(atlas.components) + 1)


def rows_constant(atlas: StrataAtlas) -> RowFamily:
    """Cohomology of the ambient space: the twist-zero log terms."""
    return RowFamily(atlas, "X", *_stratum_log_data(atlas, [(atlas.x_key, 0)], range(1)))


def rows_sum_strata(atlas: StrataAtlas) -> RowFamily:
    """Cech complex of the closed divisor: the twist-zero divisor log terms."""
    return RowFamily(atlas, "D", *_divisor_log_data(atlas, range(1)))


def rows_log(atlas: StrataAtlas) -> RowFamily:
    """Weight rows of the open complement: the punctured neighborhood of the
    ambient stratum, with residues along every deeper stratum."""
    data = _stratum_log_data(atlas, [(atlas.x_key, 0)], _twists(atlas, 0))
    return RowFamily(atlas, "log", *data)


def rows_stratum_log(atlas: StrataAtlas, ckey: StratumKey) -> RowFamily:
    """Weight rows of a punctured neighborhood of one closed stratum."""
    if ckey not in atlas.strata:
        raise UnknownStratum(f"no stratum {ckey} in atlas")
    data = _stratum_log_data(atlas, [(ckey, 0)], _twists(atlas, 0))
    return RowFamily(atlas, f"nbhd:{key_to_string(ckey)}", *data)


def rows_semisimplicial_log(atlas: StrataAtlas) -> RowFamily:
    """Log rows over the semisimplicial divisor, every twist."""
    return RowFamily(atlas, "sslog", *_divisor_log_data(atlas, _twists(atlas, 0)))


def coker_u_rows(atlas: StrataAtlas) -> RowFamily:
    """rows_log modulo the image of the constant rows, its positive twists;
    H^{m-1} of this family is the local cohomology H^m_D of the ambient space."""
    data = _stratum_log_data(atlas, [(atlas.x_key, 0)], _twists(atlas, 1))
    return RowFamily(atlas, "coker(u)", *data)


def coker_v_rows(atlas: StrataAtlas) -> RowFamily:
    """rows_semisimplicial_log modulo the image of the divisor rows."""
    return RowFamily(atlas, "coker(v)", *_divisor_log_data(atlas, _twists(atlas, 1)))


# -- connecting morphisms -----------------------------------------------------


def morphism_i_star(atlas: StrataAtlas, fx: RowFamily, fd: RowFamily) -> RowMorphism:
    """Restriction from the ambient space to the divisor components."""
    return RowMorphism(fx, fd, _cech_blocks(atlas, fx.terms, fd.terms), label="i*")


def _inclusion(
    atlas: StrataAtlas, source: RowFamily, target: RowFamily, label: str
) -> RowMorphism:
    """Each source term maps by the identity onto the same term of the target."""
    blocks = {(t, t): identity_term_block(atlas, t) for t in source.terms}
    return RowMorphism(source, target, blocks, label=label)


def morphism_u(atlas: StrataAtlas, fx: RowFamily, flog: RowFamily) -> RowMorphism:
    """The constant rows sit inside the log rows as the twist-zero column."""
    return _inclusion(atlas, fx, flog, "u")


def morphism_v(atlas: StrataAtlas, fd: RowFamily, fss: RowFamily) -> RowMorphism:
    """The divisor rows sit inside the semisimplicial log rows at twist zero."""
    return _inclusion(atlas, fd, fss, "v")


def morphism_log_restriction(
    atlas: StrataAtlas, flog: RowFamily, fss: RowFamily
) -> RowMorphism:
    """Restrict log rows to the level-zero semisimplicial pieces."""
    blocks = _cech_blocks(atlas, flog.terms, fss.terms)
    return RowMorphism(flog, fss, blocks, label="restriction")


# -- selector front door ------------------------------------------------------

SELECTORS = ("X", "D", "log", "XD", "XD-tilde", "locD", "locD-tilde")

ROWS = {
    "x": rows_constant,
    "d": rows_sum_strata,
    "log": rows_log,
    "sslog": rows_semisimplicial_log,
}

# Each relative or local theory is the cone of one morphism:
# selector -> (label, source builder, target builder, morphism builder).
CONES = {
    "xd": ("XD", rows_constant, rows_sum_strata, morphism_i_star),
    "xd-tilde": ("XD-tilde", rows_log, rows_semisimplicial_log, morphism_log_restriction),
    "locd": ("locD", rows_constant, rows_log, morphism_u),
    "locd-tilde": ("locD-tilde", rows_sum_strata, rows_semisimplicial_log, morphism_v),
}


def cone_morphism(atlas: StrataAtlas, selector: str) -> RowMorphism:
    """The morphism whose cone is the named relative or local theory."""
    low = selector.strip().lower()
    if low not in CONES:
        raise BadParams(
            f"unknown cone selector {selector!r}; expected one of "
            f"{', '.join(label for label, *_ in CONES.values())}"
        )
    _, source, target, morphism = CONES[low]
    return morphism(atlas, source(atlas), target(atlas))


def build(atlas: StrataAtlas, selector: str) -> RowFamily:
    """Build the weight rows of one of the named complexes.

    Selectors (case-insensitive): X, D, log, XD, XD-tilde, locD, locD-tilde,
    sslog, and nbhd:<stratum-key> for punctured neighborhoods.
    """
    text = selector.strip()
    low = text.lower()
    if low.startswith("nbhd:"):
        return rows_stratum_log(atlas, key_from_string(text[len("nbhd:"):]))
    if low in ("d", "sslog") and not atlas.components:
        raise EmptyDivisor("the divisor has no components")
    if low in ROWS:
        return ROWS[low](atlas)
    if low in CONES:
        out = cone_rows(cone_morphism(atlas, low))
        out.label = CONES[low][0]
        return out
    raise BadParams(
        f"unknown complex selector {selector!r}; expected one of "
        f"{', '.join(SELECTORS)} or nbhd:<stratum-key>"
    )
