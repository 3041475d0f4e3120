"""Frozen per-pair references for `nchodge.pairings`.

`chain_map_check`, `add_elements` and `scale_element` are the Leibniz check
as it stood before it learnt to compute each basis product once and get
dx.y and x.dy from the stored products by bilinearity, kept verbatim as an
oracle for `test_pairings.py`.  They evaluate the product three times and
apply the differential once for every basis pair, so the library's verdict
must equal theirs on every pairing, broken or not.

`evaluate(pairing, left, right)` is `GradedPairing.evaluate` as it stood
before products were compiled into tables of basis products: it resolves
each term pair through `pairing._resolver` (cached per pairing by
`_targets`), restricts both factors to each target's stratum with
`atlas.restrict` and multiplies them with the ring's `mult_apply`.  The
reference check evaluates through it, so the oracle shares no product code
with the library, and the library's `evaluate` must return the same
element, key for key and `Fraction` for `Fraction`.

`resolve_log_XD` and `resolve_extraordinary` are the term-pair resolvers
of `cup_log_XD` and `cup_extraordinary` as they stood before both products
shared one rule: one branch per cone side of the right factor, and one
closure for the local product.  Each returns the (target term, sign) list
of a term pair, in order.

`express_in_space` and `_classes` are the class coordinates as they stood
before one `solve` took every cycle of a block at once: one elimination of
[representatives | boundaries | v] per vector, through
`reference_linalg.solve`, the one-vector `solve` of that time, and an empty
space answered without an elimination.  Every class map and block pairing
the library builds must equal theirs, entry for entry.
"""

from __future__ import annotations

import weakref

from family_basis import iter_basis
from reference_linalg import solve

from nchodge.atlas import StrataAtlas, restrict
from nchodge.complexes import Element, PureTerm
from nchodge.errors import DimensionMismatch
from nchodge.linalg import CohomologySpace, RationalMatrix, Vector
from nchodge.pairings import GradedPairing, sign_shuffle


def add_elements(left: Element, right: Element) -> Element:
    out = dict(left)
    for key, vec in right.items():
        have = out.get(key)
        if have is None:
            out[key] = vec
        else:
            out[key] = tuple(a + b for a, b in zip(have, vec))
    return {k: v for k, v in out.items() if any(x != 0 for x in v)}


def scale_element(elem: Element, sign: int) -> Element:
    if sign == 1:
        return elem
    return {k: tuple(sign * x for x in v) for k, v in elem.items()}


# pairing -> (its resolved term pairs, the set of its target terms)
_RESOLVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _targets(pairing: GradedPairing, t1: PureTerm, t2: PureTerm):
    if pairing not in _RESOLVED:
        _RESOLVED[pairing] = ({}, set(pairing.target.terms))
    resolved, target_terms = _RESOLVED[pairing]
    cached = resolved.get((t1, t2))
    if cached is None:
        rho = pairing.atlas.rho
        cached = tuple(
            (t3, sign, pairing.atlas.ring(t3.stratum),
             rho(t1.stratum, t3.stratum), rho(t2.stratum, t3.stratum))
            for t3, sign in pairing._resolver(t1, t2)
            if t3 in target_terms
        )
        resolved[(t1, t2)] = cached
    return cached


def evaluate(pairing: GradedPairing, left_elem: Element, right_elem: Element) -> Element:
    out: Element = {}
    for (t1, ab1), x in left_elem.items():
        # untwisted: the slice of H^j(stratum) the coordinates live in
        x1 = (t1.j, (ab1[0] - t1.k, ab1[1] - t1.k), x)
        for (t2, ab2), y in right_elem.items():
            y1 = (t2.j, (ab2[0] - t2.k, ab2[1] - t2.k), y)
            for t3, sign, ring, rho1, rho2 in _targets(pairing, t1, t2):
                x2 = restrict(rho1, ring, x1)
                if all(c == 0 for c in x2[2]):
                    continue
                y2 = restrict(rho2, ring, y1)
                z = ring.mult_apply(*x2, *y2)
                if all(c == 0 for c in z):
                    continue
                if sign != 1:
                    z = tuple(sign * c for c in z)
                key = (t3, (ab1[0] + ab2[0], ab1[1] + ab2[1]))
                have = out.get(key)
                out[key] = (
                    z if have is None else tuple(a + b for a, b in zip(have, z))
                )
    return {k: v for k, v in out.items() if any(x != 0 for x in v)}


def chain_map_check(pairing: GradedPairing) -> bool:
    """Leibniz identity d(xy) = dx.y + (-1)^deg(x) x.dy on every basis pair."""
    left_basis = list(iter_basis(pairing.left))
    right_basis = [
        (q2, m2, ab2, e2, pairing.right.apply_d(q2, m2, e2))
        for q2, m2, ab2, e2 in iter_basis(pairing.right)
    ]
    for q1, m1, ab1, e1 in left_basis:
        de1 = pairing.left.apply_d(q1, m1, e1)
        sign = -1 if m1 % 2 else 1
        for q2, m2, ab2, e2, de2 in right_basis:
            product = evaluate(pairing, e1, e2)
            lhs = pairing.target.apply_d(q1 + q2, m1 + m2, product)
            rhs = add_elements(
                evaluate(pairing, de1, e2),
                scale_element(evaluate(pairing, e1, de2), sign),
            )
            # both sides hold no all-zero pieces, so == compares the elements
            if lhs != rhs:
                return False
    return True


def resolve_log_XD(atlas: StrataAtlas, t1: PureTerm, t2: PureTerm):
    left_set = set(t1.res)
    if left_set & set(t2.res):
        return []
    merged = tuple(sorted(left_set | set(t2.res)))
    base_sign = sign_shuffle(t1.res, t2.res) * (
        -1 if (t1.j * t2.k) % 2 else 1
    )
    out = []
    if t2.side == "s":
        for tkey in atlas.intersection_components(
            merged, [t1.stratum, t2.stratum]
        ):
            t3 = PureTerm(
                tkey, t1.j + t2.j, t1.k + t2.k, 0,
                simp=atlas.x_key, res=merged, side="s",
            )
            out.append((t3, base_sign))
    elif t2.side == "t":
        cone_sign = base_sign * (
            -1 if ((t1.j + t1.k) * (t2.p + 1)) % 2 else 1
        )
        for tkey in atlas.intersection_components(
            set(t2.stratum[0]) | left_set, [t1.stratum, t2.stratum]
        ):
            t3 = PureTerm(
                tkey, t1.j + t2.j, t1.k + t2.k, t2.p,
                res=merged, simp=t2.simp, side="t", shift=1,
            )
            out.append((t3, cone_sign))
    return out


def resolve_extraordinary(atlas: StrataAtlas, t1: PureTerm, t2: PureTerm):
    sign = -1 if ((t1.j + t1.k) * t2.p) % 2 else 1
    merged = set(t1.res) | set(t2.stratum[0])
    out = []
    for tkey in atlas.intersection_components(merged, [t1.stratum, t2.stratum]):
        t3 = PureTerm(
            tkey, t1.j + t2.j, t1.k, t2.p, res=t1.res, simp=t2.stratum
        )
        out.append((t3, sign))
    return out


def express_in_space(space: CohomologySpace | None, vec: Vector) -> Vector | None:
    """Coordinates of a cycle's class in the representative basis."""
    columns = () if space is None else (*space.representatives, *space.boundaries)
    if not columns:
        return () if all(x == 0 for x in vec) else None
    matrix = RationalMatrix.from_columns(columns, len(vec))
    sol = solve(matrix, vec)
    if sol is None:
        return None
    return sol[: len(space.representatives)]


def _classes(space: CohomologySpace | None, cycles, failure: str) -> list[Vector]:
    """Class coordinates of each cycle; a non-cycle raises DimensionMismatch."""
    out = [express_in_space(space, vec) for vec in cycles]
    if any(coords is None for coords in out):
        raise DimensionMismatch(failure)
    return out
