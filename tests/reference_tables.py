"""Frozen references for `nchodge.tables.compute_table` and
`nchodge.complexes.cone_rows`.

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
"""

from __future__ import annotations

import dataclasses

from nchodge.complexes import PureTerm, RowFamily, RowMorphism, TermBlock, scale_block
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
