"""Frozen per-instance reference for `nchodge.atlas.validate_atlas`.

These are `validate_atlas`, `_ring_violations` and the lattice walk
`StrataAtlas._rho_walk` as they stood before the validator learnt to check
each identity once per distinct content, kept verbatim (the walk as a free
function) as an oracle for `test_atlas.py`.  They check every identity on
every cover, square and ring instance, so the library's report must equal
theirs string for string and in the same order.

One identity has been corrected since: gysin after restriction equals
multiplication by c_a(s) only when summed over all the pieces of s . D_a,
so it is checked once per (s, a), on the cover to the first piece.  One
has been added: Hodge symmetry h^{a,b} = h^{b,a} of each ring, checked
first, since a ring of a smooth projective stratum has it and an atlas
without it gave tables of no projective variety.
"""

from __future__ import annotations

import itertools

from nchodge.atlas import (
    AtlasReport,
    BlockMap,
    StrataAtlas,
    StratumKey,
    compose_blockmaps,
    identity_blockmap,
    push_forward,
    restrict,
)
from nchodge.errors import LatticeError, MissingStratum
from nchodge.linalg import zero_vector
from nchodge.rings import PureHodgeRing


def _rho_walk(
    self: StrataAtlas, skey: StratumKey, tkey: StratumKey, ascending: bool
) -> BlockMap:
    if not self.leq(tkey, skey):
        raise MissingStratum(f"{tkey} does not lie inside {skey}")
    current = skey
    bm = identity_blockmap(self.ring(skey))
    steps = sorted(set(tkey[0]) - set(skey[0]), reverse=not ascending)
    for a in steps:
        options = [
            child
            for child in self.children.get((current, a), ())
            if self.leq(tkey, child)
        ]
        if len(options) != 1:
            raise LatticeError(
                f"no unique step from {current} along {a} toward {tkey}"
            )
        bm = compose_blockmaps(self.restrictions[(current, options[0])], bm)
        current = options[0]
    return bm


def _ring_violations(key: StratumKey, ring: PureHodgeRing) -> list[str]:
    out = []
    for j in ring.degrees():
        for (a, b), d in ring.slices(j):
            if ring.slice_dim(j, (b, a)) != d:
                out.append(f"{key}: Hodge symmetry fails at {(j, (a, b))}")
    basis = list(ring.basis_vectors())
    unit = (0, (0, 0), ring.unit)
    for at, x in basis:
        if ring.product(unit, x) != x:
            out.append(f"{key}: unit fails on the left at {at}")
        if ring.product(x, unit) != x:
            out.append(f"{key}: unit fails on the right at {at}")
    for at1, x in basis:
        for at2, y in basis:
            xy = ring.mult_apply(*x, *y)
            yx = ring.mult_apply(*y, *x)
            sign = -1 if (x[0] % 2 and y[0] % 2) else 1
            if xy != tuple(sign * t for t in yx):
                out.append(f"{key}: graded commutativity fails at {at1}x{at2}")
    return out


def validate_atlas(atlas: StrataAtlas) -> AtlasReport:
    """Check the multiplicative and functorial axioms the builders rely on.

    Pure: no state is mutated, the report lists every violated identity.
    Beyond ring sanity, restriction functoriality, restrictions being ring
    maps, the projection formula and gysin-after-restriction, this also
    certifies restriction-after-gysin, naturality of divisor classes and
    base change across transversal squares; the row builders need all of
    them for their differentials to square to zero.
    """
    violations: list[str] = []
    for key, stratum in sorted(atlas.strata.items()):
        violations.extend(_ring_violations(key, stratum.ring))

    ncomp = len(atlas.components)
    covers = sorted(atlas.restrictions)

    # restriction functoriality: both cover orders into a double intersection
    for skey in atlas.keys_sorted():
        extra = [a for a in range(ncomp) if a not in skey[0]]
        for a, b in itertools.combinations(extra, 2):
            deep = set(skey[0]) | {a, b}
            for tkey in atlas.intersection_components(deep, [skey]):
                up = _rho_walk(atlas, skey, tkey, ascending=True)
                down = _rho_walk(atlas, skey, tkey, ascending=False)
                if up != down:
                    violations.append(
                        f"restriction to {tkey} from {skey} depends on the path"
                    )

    for skey, tkey in covers:
        ring_s, ring_t = atlas.ring(skey), atlas.ring(tkey)
        basis_s, basis_t = list(ring_s.basis_vectors()), list(ring_t.basis_vectors())
        rest = atlas.restrictions[(skey, tkey)]
        gys = atlas.gysin[(tkey, skey)]
        a = (set(tkey[0]) - set(skey[0])).pop()
        c_s = (2, (1, 1), atlas.divisor_class(a, skey))
        c_t = (2, (1, 1), atlas.divisor_class(a, tkey))

        # restriction is a ring map
        if restrict(rest, ring_t, (0, (0, 0), ring_s.unit))[2] != ring_t.unit:
            violations.append(f"{skey}->{tkey}: restriction does not fix the unit")
        for at1, x in basis_s:
            rx = restrict(rest, ring_t, x)
            for at2, y in basis_s:
                lhs = restrict(rest, ring_t, ring_s.product(x, y))
                rhs = ring_t.product(rx, restrict(rest, ring_t, y))
                if lhs != rhs:
                    violations.append(
                        f"{skey}->{tkey}: restriction not multiplicative at {at1}x{at2}"
                    )

        # projection formula: gysin(x . rho(y)) = gysin(x) . y
        for at1, x in basis_t:
            gx = push_forward(gys, ring_s, x)
            for at2, y in basis_s:
                prod_t = ring_t.product(x, restrict(rest, ring_t, y))
                if push_forward(gys, ring_s, prod_t) != ring_s.product(gx, y):
                    violations.append(
                        f"{tkey}->{skey}: projection formula fails at {at1}x{at2}"
                    )

        # gysin after restriction, summed over the pieces of s . D_a,
        # = multiplication by the divisor class upstairs
        pieces = atlas.children[(skey, a)]
        for at, y in basis_s if pieces[0] == tkey else ():
            rhs = ring_s.product(c_s, y)
            lhs = zero_vector(len(rhs[2]))
            for vkey in pieces:
                ry = restrict(atlas.restrictions[(skey, vkey)], atlas.ring(vkey), y)
                piece = push_forward(atlas.gysin[(vkey, skey)], ring_s, ry)
                lhs = tuple(p + q for p, q in zip(lhs, piece[2]))
            if lhs != rhs[2]:
                violations.append(
                    f"{skey}->{tkey}: gysin-after-restriction fails at {at}"
                )

        # restriction after gysin = multiplication by the divisor class downstairs
        for at, x in basis_t:
            lhs = restrict(rest, ring_t, push_forward(gys, ring_s, x))
            if lhs != ring_t.product(c_t, x):
                violations.append(
                    f"{tkey}->{skey}: restriction-after-gysin fails at {at}"
                )

        # divisor classes restrict to divisor classes
        for other in range(ncomp):
            c_up = (2, (1, 1), atlas.divisor_class(other, skey))
            if restrict(rest, ring_t, c_up)[2] != atlas.divisor_class(other, tkey):
                violations.append(
                    f"{skey}->{tkey}: divisor class of component {other} "
                    "does not restrict correctly"
                )

    # base change across transversal squares
    for skey in atlas.keys_sorted():
        ring_s = atlas.ring(skey)
        extra = [a for a in range(ncomp) if a not in skey[0]]
        for a, b in itertools.permutations(extra, 2):
            for tkey in atlas.children.get((skey, a), ()):
                ring_t = atlas.ring(tkey)
                for wkey in atlas.children.get((skey, b), ()):
                    ring_w = atlas.ring(wkey)
                    vs = [
                        v
                        for v in atlas.children.get((tkey, b), ())
                        if atlas.leq(v, wkey)
                    ]
                    for at, x in ring_t.basis_vectors():
                        gx = push_forward(atlas.gysin[(tkey, skey)], ring_s, x)
                        lhs = restrict(atlas.restrictions[(skey, wkey)], ring_w, gx)[2]
                        rhs = zero_vector(len(lhs))
                        for vkey in vs:
                            rx = restrict(
                                atlas.restrictions[(tkey, vkey)], atlas.ring(vkey), x
                            )
                            piece = push_forward(atlas.gysin[(vkey, wkey)], ring_w, rx)
                            rhs = tuple(p + q for p, q in zip(rhs, piece[2]))
                        if lhs != rhs:
                            violations.append(
                                f"base change fails on square {skey}/{tkey}/{wkey} "
                                f"at {at}"
                            )

    return AtlasReport(ok=not violations, violations=tuple(violations))
