"""Frozen per-pair references for `nchodge.pairings`.

`chain_map_check`, `add_elements` and `scale_element` are the Leibniz check
as it stood before it learnt to compute each basis product once and get
dx.y and x.dy from the stored products by bilinearity, kept verbatim as an
oracle for `test_pairings.py`.  They evaluate the product three times and
apply the differential once for every basis pair, so the library's verdict
must equal theirs on every pairing, broken or not.

`resolve_log_XD` and `resolve_extraordinary` are the term-pair resolvers
of `cup_log_XD` and `cup_extraordinary` as they stood before both products
shared one rule: one branch per cone side of the right factor, and one
closure for the local product.  Each returns the (target term, sign) list
of a term pair, in order.
"""

from __future__ import annotations

from nchodge.atlas import StrataAtlas
from nchodge.complexes import Element, PureTerm
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


def chain_map_check(pairing: GradedPairing) -> bool:
    """Leibniz identity d(xy) = dx.y + (-1)^deg(x) x.dy on every basis pair."""
    left_basis = list(pairing.left.iter_basis())
    right_basis = [
        (q2, m2, ab2, e2, pairing.right.apply_d(q2, m2, e2))
        for q2, m2, ab2, e2 in pairing.right.iter_basis()
    ]
    for q1, m1, ab1, e1 in left_basis:
        de1 = pairing.left.apply_d(q1, m1, e1)
        sign = -1 if m1 % 2 else 1
        for q2, m2, ab2, e2, de2 in right_basis:
            product = pairing.evaluate(e1, e2)
            lhs = pairing.target.apply_d(q1 + q2, m1 + m2, product)
            rhs = add_elements(
                pairing.evaluate(de1, e2),
                scale_element(pairing.evaluate(e1, de2), sign),
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
