"""Frozen references for `nchodge.tables.compute_table`,
`nchodge.complexes.cone_rows` and five row builders of `nchodge.complexes`.

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
boundaries, cone matrices and cone blocks must equal theirs, and a broken
input must fail at the same slot.

`rows_constant`, `rows_sum_strata`, `coker_u_rows` and `coker_v_rows` are
the builders as they stood before they became twist ranges of the log term
generators: the ambient and divisor terms written out by hand, and each
cokernel family placed in full and then cut to its positive twists and
placed a second time by `_truncate_positive_twist`.  They are kept verbatim
(over the library's `_cech_blocks`, `rows_log` and `rows_semisimplicial_log`,
whose all-twist families did not change), so the library's terms, in
order, blocks, layout, dims and differentials must equal theirs.
"""

from __future__ import annotations

import dataclasses

from nchodge.atlas import StrataAtlas
from nchodge.complexes import (
    PureTerm,
    RowFamily,
    RowMorphism,
    TermBlock,
    _cech_blocks,
    rows_log,
    rows_semisimplicial_log,
    scale_block,
)
from nchodge.errors import NotChainMap
from nchodge.linalg import cohomology_at


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
