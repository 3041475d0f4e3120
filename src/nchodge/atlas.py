"""Combinatorial atlas of a normal crossing compactification.

The atlas records the closed strata of an arrangement of smooth divisor
components inside a smooth projective ambient space: one PureHodgeRing per
stratum, restriction maps along codimension-one inclusions, the matching
Gysin maps, and the divisor classes.  Everything downstream (weight rows,
cup products, duality reports) is computed from this data alone.

Strata are keyed by (sorted tuple of component indices, label); the label
separates the connected components of one deep intersection and is empty
whenever intersections are connected.  The ambient space is the unique
stratum with the empty index tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BadParams,
    DimensionMismatch,
    LatticeError,
    MissingStratum,
    UnknownStratum,
)
from .linalg import RationalMatrix, Vector, vector, zero_vector
from .rings import Bidegree, GradedVector, PureHodgeRing, truncated_polynomial_ring

StratumKey = tuple[tuple[int, ...], str]
BlockMap = dict[tuple[int, Bidegree], RationalMatrix]
Leg = tuple[PureHodgeRing, BlockMap, BlockMap]  # ring_v, a map into v, one out of v


def key_to_string(key: StratumKey) -> str:
    """Printable form of a stratum key: comma-joined indices, then |label.

    The ambient stratum prints as the empty string.
    """
    indices, label = key
    text = ",".join(str(a) for a in indices)
    return f"{text}|{label}" if label else text


def key_from_string(text: str) -> StratumKey:
    head, sep, label = text.partition("|")
    head = head.strip()
    try:
        indices = tuple(int(piece) for piece in head.split(",")) if head else ()
    except ValueError as exc:
        raise BadParams(f"bad stratum key {text!r}: {exc}") from None
    if list(indices) != sorted(set(indices)):
        raise BadParams(f"bad stratum key {text!r}: indices must be sorted and unique")
    return (indices, label if sep else "")


@dataclass(frozen=True)
class Stratum:
    indices: tuple[int, ...]
    label: str
    ring: PureHodgeRing

    @property
    def key(self) -> StratumKey:
        return (self.indices, self.label)

    @property
    def dim(self) -> int:
        return self.ring.dim


def identity_blockmap(ring: PureHodgeRing) -> BlockMap:
    return {
        (j, ab): RationalMatrix.identity(d)
        for j in ring.degrees()
        for ab, d in ring.slices(j)
    }


def compose_blockmaps(second: BlockMap, first: BlockMap) -> BlockMap:
    """Blocks of `second after first`; absent keys act as zero."""
    out: BlockMap = {}
    for key, mat in first.items():
        follow = second.get(key)
        if follow is not None:
            out[key] = follow @ mat
    return out


def gysin_slice(j: int, ab: Bidegree) -> tuple[int, Bidegree]:
    """Where a Gysin block on slice (j, ab) lands: one Tate twist up."""
    return j + 2, (ab[0] + 1, ab[1] + 1)


def restrict(bm: BlockMap, ring: PureHodgeRing, x: GradedVector) -> GradedVector:
    """Image of x under a restriction map into `ring`; a block keeps its slice.
    Absent blocks act as zero."""
    j, ab, v = x
    mat = bm.get((j, ab))
    if mat is None:
        return j, ab, zero_vector(ring.slice_dim(j, ab))
    return j, ab, mat.apply(v)


def push_forward(bm: BlockMap, ring: PureHodgeRing, x: GradedVector) -> GradedVector:
    """Image of x under a Gysin map into `ring`, in gysin_slice of its slice.
    Absent blocks act as zero."""
    j, ab, v = x
    jt, abt = gysin_slice(j, ab)
    mat = bm.get((j, ab))
    if mat is None:
        return jt, abt, zero_vector(ring.slice_dim(jt, abt))
    return jt, abt, mat.apply(v)


class StrataAtlas:
    """Strata, restrictions, Gysin maps and divisor classes of one model."""

    def __init__(
        self,
        components: tuple[str, ...] | list[str],
        strata: list[Stratum] | tuple[Stratum, ...],
        restrictions: dict[tuple[StratumKey, StratumKey], BlockMap],
        gysin: dict[tuple[StratumKey, StratumKey], BlockMap],
        divisor_classes: dict[tuple[int, StratumKey], Vector],
    ):
        self.components = tuple(components)
        self.strata: dict[StratumKey, Stratum] = {}
        for stratum in strata:
            if stratum.key in self.strata:
                raise LatticeError(f"duplicate stratum key {stratum.key}")
            self.strata[stratum.key] = stratum
        self.restrictions = dict(restrictions)
        self.gysin = dict(gysin)
        self.divisor_classes = dict(divisor_classes)
        self._rho_cache: dict[tuple[StratumKey, StratumKey], BlockMap] = {}
        self._finalize()

    # -- structural bookkeeping -------------------------------------------

    def _finalize(self) -> None:
        ambient = [s for s in self.strata.values() if s.indices == ()]
        if len(ambient) != 1:
            raise LatticeError("need exactly one ambient stratum (empty index set)")
        self.x_key: StratumKey = ambient[0].key
        self.dim = ambient[0].dim

        valid = range(len(self.components))
        by_index: dict[tuple[int, ...], list[StratumKey]] = {}
        for stratum in self.strata.values():
            idx = stratum.indices
            if list(idx) != sorted(set(idx)) or any(a not in valid for a in idx):
                raise LatticeError(f"bad index tuple on stratum {stratum.key}")
            if stratum.dim != self.dim - len(idx):
                raise DimensionMismatch(
                    f"stratum {stratum.key}: dim {stratum.dim}, expected "
                    f"{self.dim - len(idx)}"
                )
            by_index.setdefault(idx, []).append(stratum.key)
        self.by_index = {idx: tuple(sorted(keys)) for idx, keys in by_index.items()}

        self.parent: dict[tuple[StratumKey, int], StratumKey] = {}
        children: dict[tuple[StratumKey, int], list[StratumKey]] = {}
        for (skey, tkey) in self.restrictions:
            self._check_key(skey)
            self._check_key(tkey)
            si, ti = set(skey[0]), set(tkey[0])
            extra = ti - si
            if not (si < ti and len(extra) == 1):
                raise LatticeError(f"restriction {skey} -> {tkey} is not a cover")
            a = extra.pop()
            if (tkey, a) in self.parent:
                raise LatticeError(f"ambiguous parent of {tkey} along {a}")
            self.parent[(tkey, a)] = skey
            children.setdefault((skey, a), []).append(tkey)
        self.children = {key: tuple(sorted(v)) for key, v in children.items()}

        for stratum in self.strata.values():
            for a in stratum.indices:
                if (stratum.key, a) not in self.parent:
                    raise LatticeError(
                        f"stratum {stratum.key} has no parent along component {a}"
                    )

        for pair in self.gysin:
            skey, tkey = pair[1], pair[0]
            if (skey, tkey) not in self.restrictions:
                raise LatticeError(f"gysin map {pair} without matching restriction")
        for (skey, tkey) in self.restrictions:
            if (tkey, skey) not in self.gysin:
                raise LatticeError(f"restriction {skey} -> {tkey} without gysin map")

        self._check_blockmap_shapes()
        self._descendants: dict[StratumKey, frozenset[StratumKey]] = {}
        for key in sorted(self.strata, key=lambda k: -len(k[0])):
            descend = {key}
            for a in range(len(self.components)):
                for child in self.children.get((key, a), ()):
                    descend |= self._descendants[child]
            self._descendants[key] = frozenset(descend)

        for (a, skey), cls in self.divisor_classes.items():
            if a not in valid:
                raise LatticeError(f"divisor class for unknown component {a}")
            self._check_key(skey)
            expect = self.strata[skey].ring.slice_dim(2, (1, 1))
            if len(cls) != expect:
                raise DimensionMismatch(
                    f"divisor class ({a}, {skey}): length {len(cls)}, expected {expect}"
                )

    def _check_key(self, key: StratumKey) -> None:
        if key not in self.strata:
            raise UnknownStratum(f"no stratum {key} in atlas")

    def _check_blockmap_shapes(self) -> None:
        # both kinds of map are keyed (source, target)
        for kind, maps in (("restriction", self.restrictions), ("gysin", self.gysin)):
            for (skey, tkey), bm in maps.items():
                src, tgt = self.strata[skey].ring, self.strata[tkey].ring
                for (j, ab), mat in bm.items():
                    lands = gysin_slice(j, ab) if kind == "gysin" else (j, ab)
                    want = (tgt.slice_dim(*lands), src.slice_dim(j, ab))
                    if mat.shape != want:
                        raise DimensionMismatch(
                            f"{kind} {skey}->{tkey} block {(j, ab)}: "
                            f"shape {mat.shape}, expected {want}"
                        )

    # -- queries ------------------------------------------------------------

    def stratum(self, key: StratumKey) -> Stratum:
        self._check_key(key)
        return self.strata[key]

    def ring(self, key: StratumKey) -> PureHodgeRing:
        return self.stratum(key).ring

    def keys_sorted(self) -> tuple[StratumKey, ...]:
        return tuple(sorted(self.strata, key=lambda k: (len(k[0]), k)))

    def components_of(self, indices) -> tuple[StratumKey, ...]:
        return self.by_index.get(tuple(sorted(set(indices))), ())

    def leq(self, below: StratumKey, above: StratumKey) -> bool:
        """True iff `below` is contained in the closure of `above`."""
        return below in self._descendants[above]

    def descendants(self, key: StratumKey) -> frozenset[StratumKey]:
        """The strata contained in the closure of `key`, itself included."""
        return self._descendants[key]

    def intersection_components(self, indices, under) -> tuple[StratumKey, ...]:
        """Components with the given index set lying inside all of `under`."""
        return tuple(
            key
            for key in self.components_of(indices)
            if all(self.leq(key, up) for up in under)
        )

    def meet(self, a: StratumKey, b: StratumKey) -> tuple[StratumKey, ...]:
        """Components of the intersection of two strata; the smaller one
        alone when one lies in the other."""
        if self.leq(a, b):
            return (a,)
        if self.leq(b, a):
            return (b,)
        return self.intersection_components(set(a[0]) | set(b[0]), (a, b))

    def divisor_class(self, a: int, key: StratumKey) -> Vector:
        cls = self.divisor_classes.get((a, key))
        if cls is None:
            return zero_vector(self.ring(key).slice_dim(2, (1, 1)))
        return cls

    def divisor_connected_components(self) -> int:
        """Connected components of the whole divisor: depth-one pieces glued
        along the pairwise intersections that contain a common stratum."""
        pieces = [key for key in self.strata if len(key[0]) == 1]
        root = {key: key for key in pieces}

        def find(key):
            while root[key] != key:
                root[key] = root[root[key]]
                key = root[key]
            return key

        for key in self.strata:
            if len(key[0]) != 2:
                continue
            a, b = key[0]
            pa = find(self.parent[(key, b)])
            pb = find(self.parent[(key, a)])
            if pa != pb:
                root[pa] = pb
        return len({find(key) for key in pieces})

    def gysin_map(self, tkey: StratumKey, skey: StratumKey) -> BlockMap:
        try:
            return self.gysin[(tkey, skey)]
        except KeyError:
            raise LatticeError(f"no gysin map {tkey} -> {skey}") from None

    def rho(self, skey: StratumKey, tkey: StratumKey) -> BlockMap:
        """Restriction from `skey` to any stratum `tkey` below it, composed
        along covers in ascending component order."""
        cached = self._rho_cache.get((skey, tkey))
        if cached is None:
            path = self._rho_path(skey, tkey, ascending=True)
            cached = self._compose_path(skey, path)
            self._rho_cache[(skey, tkey)] = cached
        return cached

    def _rho_path(
        self, skey: StratumKey, tkey: StratumKey, ascending: bool
    ) -> tuple[tuple[StratumKey, StratumKey], ...]:
        """The covers from `skey` down to `tkey`, adding the missing
        components in ascending (or descending) order."""
        if not self.leq(tkey, skey):
            raise MissingStratum(f"{tkey} does not lie inside {skey}")
        current = skey
        path = []
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
            path.append((current, options[0]))
            current = options[0]
        return tuple(path)

    def _compose_path(
        self, skey: StratumKey, path: tuple[tuple[StratumKey, StratumKey], ...]
    ) -> BlockMap:
        """The restrictions along a path of covers out of `skey`, composed from
        the first cover's blocks on the slices of `skey`'s ring, in order."""
        bm = identity_blockmap(self.ring(skey))
        if path:
            first = self.restrictions[path[0]]
            bm = {key: first[key] for key in bm if key in first}
        for cover in path[1:]:
            bm = compose_blockmaps(self.restrictions[cover], bm)
        return bm


# -- axiom validation --------------------------------------------------------


@dataclass(frozen=True)
class AtlasReport:
    ok: bool
    violations: tuple[str, ...]

    def __str__(self) -> str:
        if self.ok:
            return "atlas valid"
        return "atlas invalid:\n" + "\n".join(f"  - {v}" for v in self.violations)


def _ring_failures(ring: PureHodgeRing) -> list[tuple[str, object]]:
    out: list[tuple[str, object]] = []
    for j in ring.degrees():
        for (a, b), d in ring.slices(j):
            if ring.slice_dim(j, (b, a)) != d:
                out.append(("{s}: Hodge symmetry fails at {at}", (j, (a, b))))
    basis = list(ring.basis_vectors())
    unit = (0, (0, 0), ring.unit)
    for at, x in basis:
        if ring.product(unit, x) != x:
            out.append(("{s}: unit fails on the left at {at}", at))
        if ring.product(x, unit) != x:
            out.append(("{s}: unit fails on the right at {at}", at))
    for at1, x in basis:
        for at2, y in basis:
            xy = ring.mult_apply(*x, *y)
            yx = ring.mult_apply(*y, *x)
            sign = -1 if (x[0] % 2 and y[0] % 2) else 1
            if xy != tuple(sign * t for t in yx):
                out.append(
                    ("{s}: graded commutativity fails at {at[0]}x{at[1]}", (at1, at2))
                )
    return out


def _cover_failures(
    ring_s: PureHodgeRing,
    ring_t: PureHodgeRing,
    rest: BlockMap,
    gys: BlockMap,
    c_s: Vector,
    c_t: Vector,
    classes: list[tuple[Vector, Vector]],
    pieces: list[Leg],
) -> list[tuple[str, object]]:
    """Failed identities of one cover s -> t along component a: `rest` and
    `gys` are its two maps, c_s and c_t the class of a on both ends, `classes`
    every component's class on both ends, and `pieces` the legs s -> v -> s
    through every piece v of s . D_a if t is the first of them, else none."""
    out: list[tuple[str, object]] = []
    basis_s, basis_t = list(ring_s.basis_vectors()), list(ring_t.basis_vectors())
    c_s, c_t = (2, (1, 1), c_s), (2, (1, 1), c_t)

    # restriction is a ring map
    if restrict(rest, ring_t, (0, (0, 0), ring_s.unit))[2] != ring_t.unit:
        out.append(("{s}->{t}: restriction does not fix the unit", None))
    for at1, x in basis_s:
        rx = restrict(rest, ring_t, x)
        for at2, y in basis_s:
            lhs = restrict(rest, ring_t, ring_s.product(x, y))
            rhs = ring_t.product(rx, restrict(rest, ring_t, y))
            if lhs != rhs:
                out.append((
                    "{s}->{t}: restriction not multiplicative at {at[0]}x{at[1]}",
                    (at1, at2),
                ))

    # projection formula: gysin(x . rho(y)) = gysin(x) . y
    for at1, x in basis_t:
        gx = push_forward(gys, ring_s, x)
        for at2, y in basis_s:
            prod_t = ring_t.product(x, restrict(rest, ring_t, y))
            if push_forward(gys, ring_s, prod_t) != ring_s.product(gx, y):
                out.append((
                    "{t}->{s}: projection formula fails at {at[0]}x{at[1]}",
                    (at1, at2),
                ))

    # gysin after restriction, summed over the pieces of s . D_a, = c_a(s) times
    for at, y in basis_s if pieces else ():
        if _through(pieces, ring_s, y) != ring_s.product(c_s, y):
            out.append(("{s}->{t}: gysin-after-restriction fails at {at}", at))

    # restriction after gysin = multiplication by the divisor class downstairs
    for at, x in basis_t:
        lhs = restrict(rest, ring_t, push_forward(gys, ring_s, x))
        if lhs != ring_t.product(c_t, x):
            out.append(("{t}->{s}: restriction-after-gysin fails at {at}", at))

    # divisor classes restrict to divisor classes
    for other, (up, down) in enumerate(classes):
        if restrict(rest, ring_t, (2, (1, 1), up))[2] != down:
            out.append((
                "{s}->{t}: divisor class of component {at} does not restrict correctly",
                other,
            ))
    return out


def _through(legs: list[Leg], ring_w: PureHodgeRing, x: GradedVector) -> GradedVector:
    """The sum over the `legs` v of pushing x into w after restricting it to v."""
    j, ab = gysin_slice(x[0], x[1])
    total = zero_vector(ring_w.slice_dim(j, ab))
    for ring_v, rest, gys in legs:
        piece = push_forward(gys, ring_w, restrict(rest, ring_v, x))[2]
        total = tuple(p + q for p, q in zip(total, piece))
    return j, ab, total


def _base_change_failures(
    ring_s: PureHodgeRing,
    ring_t: PureHodgeRing,
    ring_w: PureHodgeRing,
    gys_ts: BlockMap,
    rest_sw: BlockMap,
    legs: list[Leg],
) -> list[tuple[str, object]]:
    """Where restricting to w after pushing t into s differs from the sum
    over the pieces v of t and w of pushing into w after restricting to v;
    `legs` holds (ring_v, rest t -> v, gysin v -> w) per piece."""
    out: list[tuple[str, object]] = []
    for at, x in ring_t.basis_vectors():
        gx = push_forward(gys_ts, ring_s, x)
        if restrict(rest_sw, ring_w, gx) != _through(legs, ring_w, x):
            out.append(("base change fails on square {s}/{t}/{w} at {at}", at))
    return out


def _ring_content(ring: PureHodgeRing) -> tuple:
    return (
        ring.dim,
        tuple(sorted((j, tuple(sorted(s.items()))) for j, s in ring.hodge.items())),
        tuple(sorted((key, tuple(sheets)) for key, sheets in ring.mult.items())),
        ring.unit,
        ring.fundamental,
    )


def validate_atlas(atlas: StrataAtlas) -> AtlasReport:
    """Check the multiplicative and functorial axioms the builders rely on.

    Pure: no state is mutated, the report lists every violated identity.
    Beyond ring sanity (Hodge symmetry h^{a,b} = h^{b,a}, the unit, graded
    commutativity), restriction functoriality, restrictions being ring
    maps, the projection formula and gysin-after-restriction, this also
    certifies restriction-after-gysin, naturality of divisor classes and
    base change across transversal squares; the row builders need all of
    them for their differentials to square to zero.

    Each identity is checked once per distinct content: a ring once per
    equal ring, a cover once per equal (rings, maps, divisor classes on both
    ends, legs through its pieces), a base-change square once per equal
    (rings, maps) of its corners and legs, and path independence once per
    equal (ring, maps along both paths).  Rings, block maps and class
    vectors are numbered by value in one table, and an identity reads
    nothing else, so it holds on every instance of a content or on none.
    A failed identity is stored as its message template and the place
    `at` where it fails; each instance formats the stored templates, in
    the order of a check per instance, with its own stratum keys `s`, `t`
    and `w` through `str.format`, which substitutes a label as a value, so
    braces in it stay text.  The lattice walks still run per instance, so
    a LatticeError or MissingStratum is raised where it was.  The tables
    live for this call only.
    """
    violations: list[str] = []
    memo: dict[tuple, list[tuple[str, object]]] = {}

    def check(content: tuple, failures, **keys) -> None:
        # `failures()` runs once per content; every instance gets messages
        found = memo.get(content)
        if found is None:
            found = memo[content] = failures()
        for template, at in found:
            violations.append(template.format(at=at, **keys))

    strata, rests, gyses = atlas.strata, atlas.restrictions, atlas.gysin
    ids: dict = {}  # a ring's, block map's or class vector's content -> number
    ring_of = {
        key: ids.setdefault(_ring_content(s.ring), len(ids))
        for key, s in strata.items()
    }
    rest_of, gys_of = (
        {pair: ids.setdefault(frozenset(bm.items()), len(ids)) for pair, bm in maps}
        for maps in (rests.items(), gyses.items())
    )
    ncomp = len(atlas.components)
    classes = {
        key: tuple(atlas.divisor_class(a, key) for a in range(ncomp))
        for key in strata
    }
    class_of = {
        key: tuple(ids.setdefault(c, len(ids)) for c in cls)
        for key, cls in classes.items()
    }

    for key, stratum in sorted(strata.items()):
        check(("ring", ring_of[key]), lambda: _ring_failures(stratum.ring), s=key)

    # restriction functoriality: both cover orders into a double intersection
    for skey in atlas.keys_sorted():
        extra = [a for a in range(ncomp) if a not in skey[0]]
        for a, b in itertools.combinations(extra, 2):
            deep = set(skey[0]) | {a, b}
            for tkey in atlas.intersection_components(deep, [skey]):
                up = atlas._rho_path(skey, tkey, ascending=True)
                down = atlas._rho_path(skey, tkey, ascending=False)
                check(  # two covers per path
                    ("path", ring_of[skey], *(rest_of[cover] for cover in up + down)),
                    lambda: []
                    if atlas._compose_path(skey, up) == atlas._compose_path(skey, down)
                    else [("restriction to {t} from {s} depends on the path", None)],
                    s=skey,
                    t=tkey,
                )

    # covers s -> t grouped by (s, a), which keeps their sorted order; the
    # summed gysin-after-restriction identity is checked at the first piece
    for (skey, a), ts in sorted(atlas.children.items()):
        legs = [(ring_of[v], rest_of[(skey, v)], gys_of[(v, skey)]) for v in ts]
        for tkey, leg in zip(ts, legs):
            vs = ts if tkey == ts[0] else ()
            cls_s, cls_t = classes[skey], classes[tkey]
            check(
                ("cover", ring_of[skey], *leg, class_of[skey][a], class_of[tkey][a],
                 class_of[skey], class_of[tkey], tuple(legs) if vs else ()),
                lambda: _cover_failures(
                    strata[skey].ring, strata[tkey].ring, rests[(skey, tkey)],
                    gyses[(tkey, skey)], cls_s[a], cls_t[a], list(zip(cls_s, cls_t)),
                    [(strata[v].ring, rests[(skey, v)], gyses[(v, skey)]) for v in vs],
                ),
                s=skey,
                t=tkey,
            )

    # base change across transversal squares
    for skey in atlas.keys_sorted():
        extra = [a for a in range(ncomp) if a not in skey[0]]
        for a, b in itertools.permutations(extra, 2):
            for tkey in atlas.children.get((skey, a), ()):
                for wkey in atlas.children.get((skey, b), ()):
                    vs = [
                        v
                        for v in atlas.children.get((tkey, b), ())
                        if atlas.leq(v, wkey)
                    ]
                    check(
                        ("square", ring_of[skey], ring_of[tkey], ring_of[wkey],
                         gys_of[(tkey, skey)], rest_of[(skey, wkey)],
                         *((ring_of[v], rest_of[(tkey, v)], gys_of[(v, wkey)])
                           for v in vs)),
                        lambda: _base_change_failures(
                            strata[skey].ring, strata[tkey].ring, strata[wkey].ring,
                            gyses[(tkey, skey)], rests[(skey, wkey)],
                            [(strata[v].ring, rests[(tkey, v)], gyses[(v, wkey)])
                             for v in vs],
                        ),
                        s=skey,
                        t=tkey,
                        w=wkey,
                    )

    return AtlasReport(ok=not violations, violations=tuple(violations))


# -- generators ---------------------------------------------------------------


def generic_arrangement(n: int, m: int) -> StrataAtlas:
    """Projective n-space with m hyperplanes in general position.

    Every k-fold intersection (k <= n) is a single linear subspace of
    dimension n-k with the truncated polynomial ring on the hyperplane
    class; all restrictions send h to h and every divisor class is h.
    """
    if not (isinstance(n, int) and isinstance(m, int)) or n < 1 or m < 0:
        raise BadParams(f"generic arrangement needs int n >= 1, m >= 0, got {(n, m)}")
    components = tuple(f"H{i}" for i in range(m))
    strata = []
    for k in range(min(n, m) + 1):
        for combo in itertools.combinations(range(m), k):
            strata.append(
                Stratum(indices=combo, label="", ring=truncated_polynomial_ring(n - k))
            )
    restrictions: dict[tuple[StratumKey, StratumKey], BlockMap] = {}
    gysin: dict[tuple[StratumKey, StratumKey], BlockMap] = {}
    for stratum in strata:
        k = len(stratum.indices)
        if k == min(n, m):
            continue
        skey = (stratum.indices, "")
        for a in range(m):
            if a in stratum.indices:
                continue
            tkey = (tuple(sorted(stratum.indices + (a,))), "")
            dim_t = n - k - 1
            restrictions[(skey, tkey)] = {
                (2 * c, (c, c)): RationalMatrix([[1]]) for c in range(dim_t + 1)
            }
            gysin[(tkey, skey)] = {
                (2 * c, (c, c)): RationalMatrix([[1]]) for c in range(dim_t + 1)
            }
    divisor_classes: dict[tuple[int, StratumKey], Vector] = {}
    for stratum in strata:
        if stratum.dim >= 1:
            for a in range(m):
                divisor_classes[(a, (stratum.indices, ""))] = vector([1])
    return StrataAtlas(components, strata, restrictions, gysin, divisor_classes)
