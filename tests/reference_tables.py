"""Frozen references for `nchodge.tables.compute_table`,
`nchodge.complexes.cone_rows`, the row builders of `nchodge.complexes` and
`nchodge.rings.PureHodgeRing.mult_operator`.

`compute_table` is the table as it stood before it became dimension-first:
one `cohomology_at` call per slot, in `RowFamily.slots()` order, every
space computed at once.  `cone_rows` is the mapping cone as it stood before
it was assembled from its ends' placed matrices: the ends' term blocks,
relabelled and the target's sign-copied, placed block by block through the
`RowFamily` constructor.  Its one edit since: a relabelled term's side is
the end's side prefixed to the term's own ("s" + side, "t" + side), as in the
library, where it had been "s" or "t" alone; that flattened the sides of a
cone of cones, so distinct terms of its ends collapsed into one.  Otherwise
both are kept verbatim as oracles, so the library's dims, representatives,
boundaries and cone matrices must equal theirs, and a broken input must fail
at the same slot.  A library cone keeps no term blocks, so the oracle for a
cone of cones is built on the reference's own inner cone.

`_stratum_log_data`, `_divisor_log_data`, `_cech_blocks`, `_chern_block`
and `scale_block` are the log term generators as they stood before they were
driven by the strata lattice: every stratum scans all 2^m residue sets
through `intersection_components`, each term builds its own residue,
Chern, Gysin and restriction blocks and its own target term, and every
signed block is copied.  `mult_operator` is the ring's operator as it stood
then, one `mult_apply` per column; its one edit is that it takes the ring as
its first argument, and `_chern_block` calls it instead of the ring's
method, so the reference shares no block code with the library beyond
`map_term_block` and `identity_term_block`.  `rows_log`,
`rows_stratum_log`, `rows_semisimplicial_log` and `build` (each cone of
`CONES`, its morphism blocks from the reference `_cech_blocks`) are the
library's builders of that time over these generators.

`rows_constant`, `rows_sum_strata`, `coker_u_rows` and `coker_v_rows` are
the builders as they stood before they became twist ranges of the log term
generators: the ambient and divisor terms written out by hand, and each
cokernel family placed in full and then cut to its positive twists and
placed a second time by `_truncate_positive_twist`.  They are kept verbatim,
now over the reference `_cech_blocks`, `rows_log` and
`rows_semisimplicial_log` above (they had ridden on the library's, which
are no longer the code they were checked against), so the library's terms,
in order, blocks, layout, dims and differentials must equal theirs.
"""

from __future__ import annotations

import dataclasses
import itertools

from nchodge.atlas import StrataAtlas, StratumKey, key_to_string
from nchodge.complexes import (
    PureTerm,
    RowFamily,
    RowMorphism,
    TermBlock,
    identity_term_block,
    map_term_block,
)
from nchodge.errors import LatticeError, NotChainMap
from nchodge.linalg import RationalMatrix, cohomology_at, unit_vector


def compute_table(family: RowFamily) -> dict:
    """Every slot's `CohomologySpace`, keyed (m, q, ab), in slot order."""
    spaces = {}
    for q, m, ab in family.slots():
        row = family.rows[q]
        spaces[(m, q, ab)] = cohomology_at(row.d(m - 1, ab), row.d(m, ab))
    return spaces


def cone_rows(morphism: RowMorphism) -> RowFamily:
    """Mapping cone of a row morphism, placed term block by term block."""
    if not morphism.is_chain_map():
        raise NotChainMap(f"cone of {morphism.label or 'morphism'}: not a chain map")

    # each term is relabelled once; blocks look their endpoints up
    as_src = {t: dataclasses.replace(t, side="s" + t.side) for t in morphism.source.terms}
    as_tgt = {
        t: dataclasses.replace(t, side="t" + t.side, shift=t.shift + 1)
        for t in morphism.target.terms
    }
    terms = tuple(as_src[t] for t in morphism.source.terms) + tuple(
        as_tgt[t] for t in morphism.target.terms
    )
    blocks: dict[tuple[PureTerm, PureTerm], TermBlock] = {}
    for (t1, t2), block in morphism.source.blocks.items():
        blocks[(as_src[t1], as_src[t2])] = dict(block)
    for (t1, t2), block in morphism.target.blocks.items():
        blocks[(as_tgt[t1], as_tgt[t2])] = scale_block(block, -1)
    for (t1, t2), block in morphism.blocks.items():
        blocks[(as_src[t1], as_tgt[t2])] = dict(block)
    label = f"cone({morphism.label})" if morphism.label else "cone"
    return RowFamily(morphism.source.atlas, label, terms, blocks)


def scale_block(block: TermBlock, sign: int) -> TermBlock:
    if sign == 1:
        return dict(block)
    return {ab: mat.scale(sign) for ab, mat in block.items()}


def mult_operator(ring, j1, ab1, x, j2, ab2) -> RationalMatrix:
    """Matrix of `x * -` from slice (j2, ab2) to the target slice."""
    target_dim = ring.slice_dim(j1 + j2, (ab1[0] + ab2[0], ab1[1] + ab2[1]))
    right_dim = ring.slice_dim(j2, ab2)
    columns = [
        ring.mult_apply(j1, ab1, x, j2, ab2, unit_vector(right_dim, m))
        for m in range(right_dim)
    ]
    return RationalMatrix.from_columns(columns, target_dim)


def _chern_block(atlas, a: int, tkey, j, twist) -> TermBlock:
    ring = atlas.ring(tkey)
    cls = atlas.divisor_class(a, tkey)
    out: TermBlock = {}
    for (ab, d) in ring.slices(j):
        target = ring.slice_dim(j + 2, (ab[0] + 1, ab[1] + 1))
        if target == 0:
            continue
        out[(ab[0] + twist, ab[1] + twist)] = mult_operator(ring, 2, (1, 1), cls, j, ab)
    return out


def _cech_blocks(atlas: StrataAtlas, terms):
    """One Cech step out of each term's simplex: restrict to the meet of each
    child simplex with the term's stratum, landing on the child's level
    (level 0 from the ambient)."""
    blocks: dict[tuple[PureTerm, PureTerm], TermBlock] = {}
    for t in terms:
        carried = set(t.simp[0])
        for b in range(len(atlas.components)):
            if b in carried:
                continue
            sign = -1 if sum(1 for i in carried if i < b) % 2 else 1
            for c2 in atlas.children.get((t.simp, b), ()):
                for wkey in atlas.meet(c2, t.stratum):
                    block = map_term_block(atlas.rho(t.stratum, wkey), t.j, t.k)
                    if block:
                        level = len(c2[0]) - 1
                        t2 = PureTerm(wkey, t.j, t.k, level, simp=c2, res=t.res)
                        blocks[(t, t2)] = scale_block(block, sign)
    return blocks


def _stratum_log_data(atlas: StrataAtlas, ckey: StratumKey, p: int, twists: range):
    """Terms and residue-direction blocks of the log family along one stratum,
    for the residue sets whose sizes (twists) lie in `twists`.  A residue
    block lowers the twist by one, so a block into a twist below the range
    is dropped: that takes the quotient by the lower twists."""
    carried = set(ckey[0])
    ncomp = len(atlas.components)
    terms = []
    for size in twists:
        for J in itertools.combinations(range(ncomp), size):
            for tkey in atlas.intersection_components(carried | set(J), [ckey]):
                for j in atlas.ring(tkey).degrees():
                    terms.append(PureTerm(tkey, j, size, p, simp=ckey, res=J))
    blocks: dict[tuple[PureTerm, PureTerm], TermBlock] = {}
    for t in terms:
        if t.k - 1 not in twists:
            continue
        for r, a in enumerate(t.res):
            rest = tuple(x for x in t.res if x != a)
            if a in carried:
                block = _chern_block(atlas, a, t.stratum, t.j, t.k)
                tkey = t.stratum
            else:
                tkey = atlas.parent[(t.stratum, a)]
                if not atlas.leq(tkey, ckey):
                    raise LatticeError(
                        f"stratum {tkey} escapes {ckey} while removing {a}"
                    )
                block = map_term_block(atlas.gysin_map(t.stratum, tkey), t.j, t.k)
            if block:
                t2 = PureTerm(tkey, t.j + 2, t.k - 1, p, simp=ckey, res=rest)
                blocks[(t, t2)] = scale_block(block, -1 if (r + p) % 2 else 1)
    return tuple(terms), blocks


def _divisor_log_data(atlas: StrataAtlas, twists: range):
    """Terms and blocks of the log family over the semisimplicial divisor:
    each component meet's stratum-log terms at its Cech level (none if empty)."""
    levels = [(ckey, len(ckey[0]) - 1) for ckey in atlas.keys_sorted() if ckey[0]]
    data = [_stratum_log_data(atlas, ckey, p, twists) for ckey, p in levels]
    terms = tuple(t for more, _ in data for t in more)
    blocks = {pair: block for _, more in data for pair, block in more.items()}
    return terms, {**blocks, **_cech_blocks(atlas, terms)}


def _twists(atlas: StrataAtlas, lowest: int) -> range:
    """Twists from `lowest` up to the number of divisor components."""
    return range(lowest, len(atlas.components) + 1)


def rows_log(atlas: StrataAtlas) -> RowFamily:
    """Weight rows of the open complement: the punctured neighborhood of the
    ambient stratum, with residues along every deeper stratum."""
    data = _stratum_log_data(atlas, atlas.x_key, 0, _twists(atlas, 0))
    return RowFamily(atlas, "log", *data)


def rows_stratum_log(atlas: StrataAtlas, ckey: StratumKey) -> RowFamily:
    """Weight rows of a punctured neighborhood of one closed stratum."""
    data = _stratum_log_data(atlas, ckey, 0, _twists(atlas, 0))
    return RowFamily(atlas, f"nbhd:{key_to_string(ckey)}", *data)


def rows_semisimplicial_log(atlas: StrataAtlas) -> RowFamily:
    """Log rows over the semisimplicial divisor, every twist."""
    return RowFamily(atlas, "sslog", *_divisor_log_data(atlas, _twists(atlas, 0)))


def rows_constant(atlas: StrataAtlas) -> RowFamily:
    """Cohomology of the ambient space: one column of pure terms."""
    ring = atlas.ring(atlas.x_key)
    terms = tuple(
        PureTerm(atlas.x_key, j, 0, 0, simp=atlas.x_key) for j in ring.degrees()
    )
    return RowFamily(atlas, "X", terms, {})


def rows_sum_strata(atlas: StrataAtlas) -> RowFamily:
    """Cech complex of the closed divisor: level p holds (p+1)-fold meets
    (no terms for an empty divisor)."""
    terms = tuple(
        PureTerm(key, j, 0, len(key[0]) - 1, simp=key)
        for key in atlas.keys_sorted()
        if key[0]
        for j in atlas.ring(key).degrees()
    )
    return RowFamily(atlas, "D", terms, _cech_blocks(atlas, terms))


def _truncate_positive_twist(family: RowFamily, label: str) -> RowFamily:
    """Quotient by the twist-free subcomplex: keep only the k >= 1 terms."""
    terms = tuple(t for t in family.terms if t.k >= 1)
    blocks = {
        pair: block
        for pair, block in family.blocks.items()
        if pair[0].k >= 1 and pair[1].k >= 1
    }
    return RowFamily(family.atlas, label, terms, blocks)


def coker_u_rows(atlas: StrataAtlas) -> RowFamily:
    """rows_log modulo the image of the constant rows; H^{m-1} of this
    family is the local cohomology H^m_D of the ambient space."""
    return _truncate_positive_twist(rows_log(atlas), "coker(u)")


def coker_v_rows(atlas: StrataAtlas) -> RowFamily:
    """rows_semisimplicial_log modulo the image of the divisor rows."""
    return _truncate_positive_twist(rows_semisimplicial_log(atlas), "coker(v)")


def _inclusion(source: RowFamily, target: RowFamily, label: str) -> RowMorphism:
    """Each source term maps by the identity onto the same term of the target."""
    blocks = {(t, t): identity_term_block(source.atlas, t) for t in source.terms}
    return RowMorphism(source, target, blocks, label=label)


def _restriction(source: RowFamily, target: RowFamily, label: str) -> RowMorphism:
    """One Cech step out of each source term, into the target's terms."""
    return RowMorphism(source, target, _cech_blocks(source.atlas, source.terms), label)


# selector -> (source builder, target builder, morphism, morphism label)
CONES = {
    "XD": (rows_constant, rows_sum_strata, _restriction, "i*"),
    "XD-tilde": (rows_log, rows_semisimplicial_log, _restriction, "restriction"),
    "locD": (rows_constant, rows_log, _inclusion, "u"),
    "locD-tilde": (rows_sum_strata, rows_semisimplicial_log, _inclusion, "v"),
}


def build(atlas: StrataAtlas, selector: str) -> RowFamily:
    """The cone of `selector` (a key of CONES), labelled with the selector."""
    source, target, morphism, label = CONES[selector]
    cone = cone_rows(morphism(source(atlas), target(atlas), label))
    cone.label = selector
    return cone
