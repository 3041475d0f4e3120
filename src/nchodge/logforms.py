"""Differential forms with log poles and polynomial coefficients on a chart.

A chart has coordinates z_1..z_n, a normal crossing divisor z_1...z_l = 0,
a residue index set I = {1..k}, and a monomial ideal generated by the z_j
with j in the chart's ideal set.  Forms are stored in the canonical basis
xi_B = xi_{b_1} ^ ... ^ xi_{b_r} (ascending), where xi_i = dz_i/z_i for
i <= l and xi_i = dz_i above.  In this basis dz_i for i <= l is the
monomial z_i xi_i, and all the filtration bookkeeping is monomial by
monomial: a term z^E xi_B has weight |B cap {1..l}| minus the number of
those indices whose variable divides z^E.

Coefficients are polynomials, not germs; every statement checked here
preserves coefficient degree, so truncated enumeration is faithful.

Storage.  A form holds one dict {key: int numerator} without zeros and one
positive int denominator sharing no factor with all the numerators, so equal
forms store equal data.  A key packs a monomial z^E xi_B: the low n bits are
the basis mask (bit i - 1 set when i is in B), and above them variable i
owns the `_W`-bit field at bit n + _W (i - 1), `_W - 1` value bits (so an
exponent is at most `_LIMIT` = 32767) under one guard bit.  Keys depend on n
only, so a form and its residue on a slice read the same keys.  A monomial
product is the sum of two keys; the bases meet when the masks share a bit,
and an exponent sum past the limit sets a guard bit, on which `wedge`
raises.  `LogPolyForm.terms` decodes the keys into the caller's view
{basis: {exponents: coefficient}}, integer-first as in `linalg` (an int
when integral, else a Fraction), which `str()` and `monomials` print.

What the kernel needs to know about a basis depends only on the chart, so
each `LogChart` holds it, worked out in `__post_init__` beside its index
sets: the masks (the fields of its ideal and of its omitted variables among
them) and dicts that fill an entry on first lookup: `sign` (front << n |
back -> the sign of sorting two disjoint masks, for `wedge` and `residue`),
`d` (B -> (field, shift, key delta, sign) per live i outside B, for
`exterior_d`), `poles` (B -> count and guard bits of B's divisor indices,
for `weight_level`), `dz` (B -> the key of dz_B), `pool` (degree -> the
packed `_exponent_pool`) and `slices` (I -> `chart.restrict(I)`).  None of
them holds a form or a result, and `==` and `hash` read only the five
fields, so equal charts built apart compare and hash equal, each with its
own tables.  A form keeps its degree once it is found.

The public `LogPolyForm(chart, terms)` checks and converts caller data, and
every function that takes caller data goes through it: `form`, `xi`,
`dz_form`, the pieces of `from_regular` and `claim_witness`'s cut of `eta`
and `zeta` to the slice.  Forms the kernel builds out of valid forms go
through `LogPolyForm._built`, which only drops zeros and reduces the
fraction, because each output already meets every check the constructor
makes: a wedge basis is the union of two disjoint live bases and exponents
add, so a coordinate that is zero on the chart stays zero; `exterior_d`
adds a live index missing from the basis and lowers only a positive
exponent; `residue` keeps the monomials that vanish on the slice and strips
the sliced indices; and the random forms and the claim's generators draw
live bases and exponents from the packed pool, which skips every omitted
coordinate.  `_draw` (each monomial and coefficient) and `random_form` (each
basis) read `rng.getrandbits` inline, the other draws through `_below` or
`rng.sample`; `_below` states that each reads the stream as the stdlib's
`randrange`, `choice` and `sample` do, so a seed draws the same forms.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    BadParams,
    ChartMismatch,
    DegreeMismatch,
    NonHomogeneous,
    WeightTooLow,
)
from .linalg import EchelonSpan, int_first
from .reports import CheckLine, CheckReport

Exponents = tuple[int, ...]
Poly = dict[Exponents, int | Fraction]

_W = 16  # bits per exponent field: the value bits, then one guard bit
_GUARD = 1 << (_W - 1)
_LIMIT = _GUARD - 1  # the largest exponent a field holds, and its value mask


# -- polynomial coefficients ---------------------------------------------------


def _coeff(value):
    """`value` as an exact coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    return int_first(value if type(value) is Fraction else Fraction(value))


def poly_const(n: int, value) -> Poly:
    value = _coeff(value)
    if not value:
        return {}
    return {(0,) * n: value}


def monomial(n: int, powers: dict[int, int], coeff=1) -> Poly:
    """z^powers with 1-based variable keys."""
    coeff = _coeff(coeff)
    if not coeff:
        return {}
    exps = [0] * n
    for var, e in powers.items():
        if not 1 <= var <= n:
            raise BadParams(f"variable z_{var} outside 1..{n}")
        if e < 0:
            raise BadParams("negative exponent")
        exps[var - 1] += e
    return {tuple(exps): coeff}


def format_poly(a: Poly) -> str:
    if not a:
        return "0"
    parts = []
    for e, c in sorted(a.items()):
        names = "".join(
            f"z{i + 1}" if p == 1 else f"z{i + 1}^{p}"
            for i, p in enumerate(e)
            if p
        )
        if not names:
            parts.append(str(c))
        elif c == 1:
            parts.append(names)
        elif c == -1:
            parts.append(f"-{names}")
        else:
            parts.append(f"{c}*{names}")
    return " + ".join(parts).replace("+ -", "- ")


# -- packed keys ---------------------------------------------------------------


def _shift(n: int, i: int) -> int:
    """The lowest bit of variable i's field (1-based) in a key on n variables."""
    return n + _W * (i - 1)


def _pack(n: int, e: Exponents) -> int:
    """The key of z^e with the empty basis."""
    if max(e, default=0) > _LIMIT:
        raise BadParams(f"exponent {max(e)} in {e} is above the limit {_LIMIT}")
    return sum(x << _shift(n, i) for i, x in enumerate(e, 1))


def _unpack(n: int, key: int) -> tuple[frozenset[int], Exponents]:
    """(B, E) of the key of z^E xi_B."""
    basis = frozenset(i for i in range(1, n + 1) if key >> (i - 1) & 1)
    return basis, tuple(key >> _shift(n, i) & _LIMIT for i in range(1, n + 1))


def _mask(indices) -> int:
    return sum(1 << (i - 1) for i in indices)


def _shuffle_sign(front: int, back: int) -> int:
    """Sign of sorting the indices of mask `front` followed by those of `back`."""
    inversions = 0
    while back:
        low = back & -back
        inversions += (front >> low.bit_length()).bit_count()
        back ^= low
    return -1 if inversions & 1 else 1


# -- charts --------------------------------------------------------------------


_set = object.__setattr__


class _Table(dict):
    """A dict that builds an entry from its key on first lookup and keeps it."""

    __slots__ = ("_build",)

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


@dataclass(frozen=True)
class LogChart:
    """Local model: coordinates z_1..z_n, divisor z_1...z_l = 0, residue
    indices {1..k}, closed stratum cut out by the z_j with j in `ideal`.

    Beside the five fields, `__post_init__` sets the index sets and the
    layout the kernel reads (see the module notes): `mask` (the basis bits),
    `live_bits` (one bit per live index, ascending), `guard` and `limit`
    (every guard bit, every value bit), `ideal_fields` and `omitted_fields`,
    and the tables `sign`, `d`, `poles`, `dz`, `pool` and `slices`."""

    n: int
    l: int
    k: int
    ideal: frozenset[int]
    omitted: frozenset[int] = frozenset()

    def __post_init__(self):
        n, l, ideal, omitted = self.n, self.l, frozenset(self.ideal), frozenset(self.omitted)
        _set(self, "ideal", ideal)
        _set(self, "omitted", omitted)
        if not (0 <= self.k <= l <= n):
            raise BadParams(f"need k <= l <= n, got k={self.k} l={l} n={n}")
        if not all(1 <= j <= l for j in ideal):
            raise BadParams("ideal indices must cut divisor branches (1..l)")
        if not all(1 <= i <= n for i in omitted):
            raise BadParams("omitted indices outside 1..n")
        residue_set = frozenset(range(1, self.k + 1))
        if residue_set & omitted:
            raise BadParams("residue indices were already set to zero")
        live = [i for i in range(1, n + 1) if i not in omitted]
        logs = [i for i in live if i <= l]
        mask = (1 << n) - 1

        def fields(indices, bits=_LIMIT):
            return sum(bits << _shift(n, i) for i in indices)

        def d_entry(b):
            return tuple(
                (fields([i]), _shift(n, i), (1 << (i - 1)) - (i > l) * fields([i], 1),
                 _shuffle_sign(1 << (i - 1), b))
                for i in live if not b >> (i - 1) & 1
            )

        def poles(b):
            # z^E xi_B has a pole at each divisor index in B whose exponent is 0
            at = [i for i in logs if b >> (i - 1) & 1]
            return len(at), fields(at, _GUARD)

        # set beside the fields: `==`, `hash` and `repr` read the five fields only
        vars(self).update(
            residue_set=residue_set,
            j1=ideal & residue_set,
            j2=ideal - residue_set,
            log_indices=frozenset(logs),
            live_indices=frozenset(live),
            mask=mask,
            live_bits=tuple(1 << (i - 1) for i in live),
            guard=fields(range(1, n + 1), _GUARD),
            limit=fields(range(1, n + 1)),
            ideal_fields=fields(ideal),
            omitted_fields=fields(omitted),
            sign=_Table(lambda pair: _shuffle_sign(pair >> n, pair & mask)),
            d=_Table(d_entry),
            poles=_Table(poles),
            dz=_Table(lambda b: b + fields([i for i in logs if b >> (i - 1) & 1], 1)),
            pool=_Table(lambda degree: tuple(
                _pack(n, e) for e in _exponent_pool(n, degree, omitted))),
            slices=_Table(self.restrict),
        )

    def __reduce__(self):
        # the tables hold closures, which do not pickle: a copy builds its own
        return LogChart, (self.n, self.l, self.k, self.ideal, self.omitted)

    def restrict(self, indices) -> "LogChart":
        """Chart of the slice z_i = 0 for i in `indices`."""
        indices = frozenset(indices)
        if not indices <= self.live_indices:
            raise BadParams("cannot restrict to an index already zero or out of range")
        return LogChart(
            n=self.n,
            l=self.l,
            k=0,
            ideal=self.ideal - indices,
            omitted=self.omitted | indices,
        )


# -- forms ---------------------------------------------------------------------


class LogPolyForm:
    """Finite sum of poly * xi_B terms on one chart."""

    __slots__ = ("chart", "_nums", "_den", "_degree")

    def __init__(self, chart: LogChart, terms: dict):
        n, omitted = chart.n, chart.omitted_fields
        exact: dict[int, int | Fraction] = {}
        for b, poly in terms.items():
            b = frozenset(b)
            if not all(1 <= i <= n for i in b):
                raise BadParams("basis index outside 1..n")
            poly = {e: k for e, c in dict(poly).items() if (k := _coeff(c)) != 0}
            for e in poly:
                if len(e) != n or any(type(x) is not int or x < 0 for x in e):
                    raise BadParams(f"bad exponent tuple {e} for n={n}")
            packed = {_pack(n, e): c for e, c in poly.items()}
            dead = b & chart.omitted
            if dead:
                # pullback to the slice: dz-type factors vanish, xi-type
                # factors are only legal when the coefficient cancels them
                for i in sorted(dead):
                    if i <= chart.l and any(e[i - 1] == 0 for e in poly):
                        raise BadParams(
                            f"xi_{i} has a pole along the slice z_{i} = 0"
                        )
                continue
            bmask = _mask(b)
            for key, c in packed.items():
                if not key & omitted:
                    exact[key | bmask] = exact.get(key | bmask, 0) + c
        den = math.lcm(*(c.denominator for c in exact.values()))
        _set(self, "chart", chart)
        _set(self, "_nums", {key: c.numerator * (den // c.denominator)
                             for key, c in exact.items() if c})
        _set(self, "_den", den)

    @classmethod
    def _built(cls, chart: LogChart, nums: dict[int, int], den: int) -> "LogPolyForm":
        """The form sum nums[key] / den from keys the kernel built out of
        valid forms: zero numerators dropped and the fraction reduced, with no
        other check."""
        if 0 in nums.values():
            nums = {key: v for key, v in nums.items() if v}
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {key: v // g for key, v in nums.items()}
                den //= g
        new = object.__new__(cls)
        _set(new, "chart", chart)
        _set(new, "_nums", nums)
        _set(new, "_den", den)
        return new

    def __setattr__(self, name, value):
        raise AttributeError("LogPolyForm is immutable")

    @property
    def terms(self) -> MappingProxyType:
        """A read-only view {basis: {exponents: coefficient}}, decoded afresh,
        coefficients integer-first."""
        n, den = self.chart.n, self._den
        out: dict[frozenset[int], Poly] = {}
        for key, v in self._nums.items():
            b, e = _unpack(n, key)
            out.setdefault(b, {})[e] = v if den == 1 else int_first(Fraction(v, den))
        return MappingProxyType(out)

    def is_zero(self) -> bool:
        return not self._nums

    def degree(self) -> int | None:
        """Form degree; None for the zero form.  A form keeps it once found."""
        if not hasattr(self, "_degree"):
            mask = self.chart.mask
            sizes = {(key & mask).bit_count() for key in self._nums}
            if len(sizes) > 1:
                raise NonHomogeneous(f"mixed form degrees {sorted(sizes)}")
            _set(self, "_degree", sizes.pop() if sizes else None)
        return self._degree

    def monomials(self):
        """Yield (B, exponents, coefficient) over all monomial terms."""
        terms = self.terms
        for b in sorted(terms, key=sorted):
            for e, c in sorted(terms[b].items()):
                yield b, e, c

    def __add__(self, other: "LogPolyForm") -> "LogPolyForm":
        _same_chart(self, other)
        den = math.lcm(self._den, other._den)
        up, up_other = den // self._den, den // other._den
        out = {key: v * up for key, v in self._nums.items()}
        get = out.get
        for key, v in other._nums.items():
            out[key] = get(key, 0) + v * up_other
        return LogPolyForm._built(self.chart, out, den)

    def __sub__(self, other: "LogPolyForm") -> "LogPolyForm":
        return self + other.scale(-1)

    def scale(self, c) -> "LogPolyForm":
        c = _coeff(c)
        num = c.numerator
        return LogPolyForm._built(
            self.chart,
            {key: v * num for key, v in self._nums.items()},
            self._den * c.denominator,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogPolyForm)
            and self.chart == other.chart
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self.chart, self._den, frozenset(self._nums.items())))

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for b in sorted(terms, key=sorted):
            poly = format_poly(terms[b])
            basis = "^".join(f"xi{i}" for i in sorted(b)) or "1"
            parts.append(f"({poly}) {basis}" if b else f"({poly})")
        return " + ".join(parts)

    __repr__ = __str__


def _same_chart(a: LogPolyForm, b: LogPolyForm) -> None:
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartMismatch("forms live on different charts")


def form(chart: LogChart, terms: dict) -> LogPolyForm:
    """Build a form; coefficients may be Poly dicts or plain scalars."""
    built = {}
    for b, coeff in terms.items():
        if isinstance(coeff, dict):
            built[frozenset(b)] = coeff
        else:
            built[frozenset(b)] = poly_const(chart.n, coeff)
    return LogPolyForm(chart, built)


def zero_form(chart: LogChart) -> LogPolyForm:
    return LogPolyForm._built(chart, {}, 1)


def _z(chart: LogChart, j: int) -> LogPolyForm:
    """The coordinate z_j as a 0-form: zero when z_j is zero on the chart."""
    key = 1 << _shift(chart.n, j)
    return LogPolyForm._built(chart, {} if key & chart.omitted_fields else {key: 1}, 1)


def xi(chart: LogChart, *indices: int) -> LogPolyForm:
    """The basis form xi_{i_1} ^ ... (indices need not be sorted)."""
    wanted = list(indices)
    if len(set(wanted)) != len(wanted):
        return zero_form(chart)
    sign = 1
    for i, a in enumerate(wanted):
        for b in wanted[i + 1 :]:
            if b < a:
                sign = -sign
    return form(chart, {frozenset(wanted): sign})


def dz_form(chart: LogChart, j: int) -> LogPolyForm:
    """dz_j in the canonical basis: z_j xi_j on a divisor branch, xi_j above."""
    if not 1 <= j <= chart.n:
        raise BadParams(f"no coordinate z_{j}")
    if j in chart.omitted:
        return zero_form(chart)
    if j <= chart.l:
        return LogPolyForm(chart, {frozenset([j]): monomial(chart.n, {j: 1})})
    return form(chart, {frozenset([j]): 1})


def from_regular(chart: LogChart, terms: dict) -> LogPolyForm:
    """Sum of poly * dz_{b_1} ^ ... ^ dz_{b_r} over `terms` entries B -> poly."""
    total = zero_form(chart)
    for b, poly in terms.items():
        piece = form(chart, {frozenset(): poly})
        for idx in sorted(b):
            piece = wedge(piece, dz_form(chart, idx))
        total = total + piece
    return total


def wedge(a: LogPolyForm, b: LogPolyForm) -> LogPolyForm:
    _same_chart(a, b)
    chart = a.chart
    n, mask, guard, sign = chart.n, chart.mask, chart.guard, chart.sign
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in a._nums.items():
        m1 = k1 & mask
        front = m1 << n
        for k2, c2 in b._nums.items():
            m2 = k2 & mask
            if m1 & m2:
                continue
            key = k1 + k2
            if key & guard:
                raise BadParams(f"wedge product has an exponent above the limit {_LIMIT}")
            out[key] = get(key, 0) + sign[front | m2] * c1 * c2
    return LogPolyForm._built(a.chart, out, a._den * b._den)


def exterior_d(a: LogPolyForm) -> LogPolyForm:
    """d(f xi_B) = sum_i c_i xi_i ^ xi_B, with c_i = z_i df/dz_i on divisor
    branches (keeping coefficients polynomial) and df/dz_i above."""
    d_of, mask = a.chart.d, a.chart.mask
    out: dict[int, int] = {}
    get = out.get
    for key, c in a._nums.items():
        for field, shift, delta, sign in d_of[key & mask]:
            if key & field:
                target = key + delta
                out[target] = get(target, 0) + sign * ((key & field) >> shift) * c
    return LogPolyForm._built(a.chart, out, a._den)


def weight_level(a: LogPolyForm) -> int:
    """Smallest w with every monomial pole count at most w."""
    a.degree()
    poles_of, mask, limit = a.chart.poles, a.chart.mask, a.chart.limit
    level = 0
    for key in a._nums:
        count, guards = poles_of[key & mask]
        if count > level:
            # key + limit has the guard bit of each positive exponent set
            poles = (guards & ~(key + limit)).bit_count()
            if poles > level:
                level = poles
    return level


def in_ideal_subcomplex(a: LogPolyForm) -> bool:
    """True iff every coefficient lies in the chart's monomial ideal."""
    return all(map(a.chart.ideal_fields.__and__, a._nums))


def residue(a: LogPolyForm, indices) -> LogPolyForm:
    """Poincare residue along the divisor slice z_i = 0, i in `indices`.

    Defined on W_k with k = len(indices): xi_I is moved to the front (sign
    of that shuffle), stripped, and the coefficient restricted to the slice.
    """
    chart = a.chart
    idx = frozenset(indices)
    if not idx:
        raise BadParams("residue needs at least one index")
    if not idx <= chart.log_indices:
        raise BadParams("residue indices must name divisor branches")
    k = len(idx)
    level = weight_level(a)
    if level > k:
        raise WeightTooLow(f"form has weight {level}, residue needs at most {k}")
    n, mask, sign = chart.n, chart.mask, chart.sign
    front = _mask(idx)
    cut = sum(_LIMIT << _shift(n, i) for i in idx)
    out: dict[int, int] = {}
    for key, c in a._nums.items():
        if key & front == front and not key & cut:
            rest = key - front
            out[rest] = c * sign[front << n | rest & mask]
    return LogPolyForm._built(chart.slices[idx], out, a._den)


# -- the two inclusions of the residue claim ------------------------------------


def _exponent_pool(n: int, degree: int, omitted: frozenset[int]) -> tuple[Exponents, ...]:
    """The exponent tuples of total degree at most `degree` that vanish on
    `omitted`: by total, and ascending within a total.  The random forms draw
    from them packed, through each chart's `pool`, so the order fixes what a
    seed produces."""
    live = [i for i in range(n) if i + 1 not in omitted]
    if not live:
        return ((0,) * n,) if degree >= 0 else ()

    def spread(i, total):
        # the exponents of z_(i+1)..z_n that sum to `total`, ascending: an
        # omitted one is 0 and the last live one takes what is left
        if i == live[-1]:
            yield (total,) + (0,) * (n - 1 - i)
            return
        for x in range(total + 1) if i in live else (0,):
            for rest in spread(i + 1, total - x):
                yield (x,) + rest

    return tuple(e for total in range(degree + 1) for e in spread(0, total))


def ideal_weight_generators(chart: LogChart, p: int, degree_bound: int):
    """Monomial forms z^E xi_B spanning (ideal * forms) cap W_k in degree p,
    with coefficient degree at most `degree_bound`."""
    exps = [e for e in chart.pool[degree_bound] if e & chart.ideal_fields]
    for bmask in map(sum, itertools.combinations(chart.live_bits, p)):
        guards = chart.poles[bmask][1]
        for e in exps:
            if (guards & ~(e + chart.limit)).bit_count() <= chart.k:
                yield LogPolyForm._built(chart, {bmask | e: 1}, 1)


def _claim_target_span(chart: LogChart, p: int, degree_bound: int):
    """Span of z_j * (regular forms) + dz_j * (regular forms), j in J2, on
    the residue slice: its one-monomial generators, and each key to a column."""
    sliced = chart.slices[chart.residue_set]
    generators: list[LogPolyForm] = []
    exps = sliced.pool[degree_bound]
    for j in sorted(chart.j2 - sliced.omitted):  # z_j = dz_j = 0 where z_j is omitted
        z_j, dz_j = 1 << _shift(chart.n, j), sliced.dz[1 << (j - 1)]
        for r, lead in ((p - chart.k, z_j), (p - chart.k - 1, dz_j)):
            if r < 0:
                continue
            # dz_j ^ dz_B = 0 for j in B
            bases = map(sum, itertools.combinations(sliced.live_bits, r))
            for bmask in (b for b in bases if not lead & b):
                sign = sliced.sign[(lead & sliced.mask) << chart.n | bmask]
                base = lead + sliced.dz[bmask]
                for e in exps:
                    if (base + e) & sliced.guard:
                        raise BadParams(f"wedge product has an exponent above the limit {_LIMIT}")
                    generators.append(LogPolyForm._built(sliced, {base + e: sign}, 1))
    keys = dict.fromkeys(key for gen in generators for key in gen._nums)
    return generators, {key: n for n, key in enumerate(keys)}


def _claim_combos(rng: random.Random, chart: LogChart, keys: list[int]):
    """25 sums of up to three of the distinct monomials `keys`, each times
    `randrange(-3, 4) / randrange(1, 4)`, as numerators over 6."""
    for _ in range(25):
        acc = {}
        for i in rng.sample(range(len(keys)), min(3, len(keys))):
            acc[keys[i]] = (_below(rng, 7) - 3) * 6 // (_below(rng, 3) + 1)
        yield LogPolyForm._built(chart, acc, 6)


def claim_forward_check(
    chart: LogChart, p: int, seed: int = 0, degree_bound: int = 2
) -> bool:
    """Residues of ideal forms of weight at most k land in the span of
    z_j * forms and dz_j ^ forms on the slice, j running over J2.

    Checks every monomial generator with coefficient degree at most the
    bound, then 25 seeded random combinations of them.
    """
    if chart.k == 0:
        # no residue to take
        return True
    if not chart.j2:
        # empty J2 means C contains the slice, where the claim's right side
        # is the zero subspace
        return all(
            residue(g, chart.residue_set).is_zero()
            for g in ideal_weight_generators(chart, p, degree_bound)
        )
    generators, index = _claim_target_span(chart, p, degree_bound + 1)
    candidates = list(ideal_weight_generators(chart, p, degree_bound))
    keys = [key for g in candidates for key in g._nums]  # one monomial each
    forms = candidates + list(_claim_combos(random.Random(seed), chart, keys))
    for g in forms:  # each a sum of monomials of degree p
        _set(g, "_degree", p if g._nums else None)
    at = chart.residue_set
    residues = [residue(g, at) for g in forms if not g.is_zero()]
    for key in (key for res in residues for key in res._nums):
        index.setdefault(key, len(index))
    span = EchelonSpan(len(index))
    for gen in generators:
        span.add({index[key]: v for key, v in gen._nums.items()})
    return all(span.contains({index[key]: v for key, v in res._nums.items()}) for res in residues)


@dataclass
class WitnessResult:
    omega: LogPolyForm
    checks: CheckReport

    @property
    def ok(self) -> bool:
        return self.checks.ok


def claim_witness(
    chart: LogChart,
    p: int,
    eta: dict[int, LogPolyForm],
    zeta: dict[int, LogPolyForm],
) -> WitnessResult:
    """Build sum_j xi_1^...^xi_k ^ (dz_j ^ eta_j + z_j zeta_j) over j in J2
    and verify: it is an ideal form of weight at most k, its residue along
    {1..k} is sum_j (dz_j ^ eta_j + z_j zeta_j) on the slice, and all other
    residues of the same size vanish.

    eta_j and zeta_j are lifts: forms on the whole chart, of form degree
    p-k-1 and p-k.
    """
    if chart.k < 1:
        raise BadParams("witness needs a positive residue size")
    for name, payload, want in (("eta", eta, p - chart.k - 1), ("zeta", zeta, p - chart.k)):
        for j, value in payload.items():
            if j not in chart.j2:
                raise BadParams(f"{name} index {j} is not in J2")
            deg = value.degree()
            if deg is not None and deg != want:
                raise DegreeMismatch(
                    f"{name}_{j} has degree {deg}, expected {want}"
                )

    front = xi(chart, *sorted(chart.residue_set))
    omega = zero_form(chart)
    for j in sorted(chart.j2):
        eta_j = eta.get(j, zero_form(chart))
        zeta_j = zeta.get(j, zero_form(chart))
        piece = wedge(dz_form(chart, j), eta_j) + wedge(_z(chart, j), zeta_j)
        omega = omega + wedge(front, piece)

    level = weight_level(omega)
    if level <= chart.k:
        sliced = chart.slices[chart.residue_set]
        expected = zero_form(sliced)
        for j in sorted(chart.j2):
            eta_cut = LogPolyForm(sliced, eta.get(j, zero_form(chart)).terms)
            zeta_cut = LogPolyForm(sliced, zeta.get(j, zero_form(chart)).terms)
            expected = expected + wedge(dz_form(sliced, j), eta_cut)
            expected = expected + wedge(_z(sliced, j), zeta_cut)
        along = residue(omega, chart.residue_set) == expected
        others = all(
            residue(omega, other).is_zero()
            for other in itertools.combinations(sorted(chart.log_indices), chart.k)
            if frozenset(other) != chart.residue_set
        )
        detail = ""
    else:
        # size-k residues are only defined on W_k; a lift with extra poles
        # fails here instead of crashing
        along = others = False
        detail = "skipped: omega lies outside the filtration"
    lines = (
        CheckLine("omega lies in the ideal subcomplex",
                  omega.is_zero() or in_ideal_subcomplex(omega)),
        CheckLine(f"omega lies in W_{chart.k}", level <= chart.k, f"weight {level}"),
        CheckLine("residue along {1..k} equals sum dz_j^eta_j + z_j zeta_j", along, detail),
        CheckLine("all other residues of size k vanish", others, detail),
    )
    return WitnessResult(omega, CheckReport("residue claim witness", lines))


# -- random forms for fuzzing ----------------------------------------------------


def _below(rng: random.Random, n: int) -> int:
    """`rng._randbelow(n)`, n >= 1, as Python 3.10 to 3.13 read `getrandbits`:
    each draw here that does not call the stdlib reads the stream that
    `rng.randrange`, `rng.choice` and `rng.sample` would, through it or with
    its loop written inline."""
    k = n.bit_length()
    while (r := rng.getrandbits(k)) >= n:
        pass
    return r


# at 3 (num + 4) + den - 1, num/den as a numerator over 6, the lcm of 1 to 3
_DRAWN = tuple(num * 6 // den for num in range(-4, 5) for den in range(1, 4))


def _draw(rng: random.Random, pool: tuple[int, ...], acc: dict[int, int], bmask: int,
          terms: int) -> None:
    """Add `terms` draws into `acc`: each a key of `pool` plus `bmask` (a
    basis mask, or the key of dz_B), with a coefficient num/den added as its
    numerator over 6.  `random_form` and `random_lift` both draw through it,
    so it alone fixes the order of the monomial draws that the golden draws pin."""
    if terms > 0 and not pool:
        rng.choice(pool)  # the stdlib's IndexError: `_below(rng, 0)` never returns
    bits, size, width = rng.getrandbits, len(pool), len(pool).bit_length()
    for _ in range(terms):
        while (i := bits(width)) >= size:  # `_below` inline, as below
            pass
        while (num := bits(4)) >= 9:
            pass
        while (den := bits(2)) >= 3:
            pass
        key = pool[i] + bmask
        acc[key] = acc.get(key, 0) + _DRAWN[3 * num + den]


def random_form(rng: random.Random, chart: LogChart, p: int, degree: int = 2) -> LogPolyForm:
    """Three random bases of size p, each with two random monomials of
    coefficient degree at most `degree`."""
    live, count = chart.live_bits, len(chart.live_bits)
    if p > count:
        return zero_form(chart)
    bits, acc, pool = rng.getrandbits, {}, chart.pool[degree]
    for _ in range(3 if p else 1):  # with no basis to draw, one call draws all six monomials
        # `rng.sample` of the live bits (as of the live indices), its list branch inline
        left, bmask = list(live), 0 if count <= 21 and p >= 0 else sum(rng.sample(live, p))
        for m in range(count, count - p, -1) if count <= 21 else ():
            while (j := bits(m.bit_length())) >= m:
                pass
            bmask += left[j]
            left[j] = left[m - 1]
        _draw(rng, pool, acc, bmask, 2 if p else 6)
    drawn = LogPolyForm._built(chart, acc, 6)
    _set(drawn, "_degree", p if drawn._nums else None)  # each basis drawn has p indices
    return drawn


def random_lift(rng: random.Random, chart: LogChart, degree: int) -> LogPolyForm:
    """Random regular form of form degree `degree` on the whole chart: two
    random bases B, each with a poly * dz_B of two monomials of degree at
    most 1; a basis drawn twice keeps its second poly."""
    drawn: dict[int, dict[int, int]] = {}
    for _ in range(2):
        if degree > len(chart.live_bits):
            break
        bmask = sum(rng.sample(chart.live_bits, degree))
        drawn[bmask] = acc = {}
        _draw(rng, chart.pool[1], acc, chart.dz[bmask], 2)
    nums = {key: v for acc in drawn.values() for key, v in acc.items()}
    return LogPolyForm._built(chart, nums, 6)


def random_ideal_form(rng: random.Random, chart: LogChart, p: int,
                      degree: int = 2) -> LogPolyForm:
    """Random form with every coefficient inside the chart's ideal."""
    if not chart.ideal:
        raise BadParams("chart has an empty ideal")
    base = random_form(rng, chart, p, degree)
    j = sorted(chart.ideal)[_below(rng, len(chart.ideal))]  # as `rng.choice` picks it
    if j in chart.omitted:  # z_j ^ base is zero where z_j is zero
        return zero_form(chart)
    z_j = 1 << _shift(chart.n, j)  # z_j ^ base: base, new and so free to reuse, one higher in z_j
    _set(base, "_nums", {key + z_j: v for key, v in base._nums.items()})
    # base's exponents are at most `degree`: only from `_LIMIT` on can one carry
    if degree >= _LIMIT and any(map(chart.guard.__and__, base._nums)):
        raise BadParams(f"wedge product has an exponent above the limit {_LIMIT}")
    return base
