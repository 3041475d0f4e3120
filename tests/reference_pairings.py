"""Frozen per-pair reference for `nchodge.pairings.chain_map_check`.

These are `chain_map_check`, `add_elements` and `scale_element` as they
stood before the check learnt to compute each basis product once and get
dx.y and x.dy from the stored products by bilinearity, kept verbatim as an
oracle for `test_pairings.py`.  They evaluate the product three times and
apply the differential once for every basis pair, so the library's verdict
must equal theirs on every pairing, broken or not.
"""

from __future__ import annotations

from nchodge.complexes import Element
from nchodge.pairings import GradedPairing


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
