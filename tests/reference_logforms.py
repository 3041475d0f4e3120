"""Frozen reference for the polynomial kernel of `nchodge.logforms`.

These are the `Fraction`-per-term versions of the polynomial helpers,
`LogPolyForm` construction, `wedge`, `exterior_d`, `residue`,
`weight_level` and the seeded random forms (with `_random_lift`, then in
`nchodge.verify`) as they stood before the kernel went integer-first and
in-place, kept verbatim as an oracle for `test_logforms_oracle.py`.  Every
coefficient here is a `Fraction`; the library may hold the same values as
`int`, so forms are compared by value and by `str()`.

One line changed after the freeze: `LogPolyForm` converts a coefficient
before it drops zeros, so a zero written as a string (`"0"`) gives the zero
term, as the number 0 does, instead of reaching the pole check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from nchodge.errors import BadParams, ChartMismatch, NonHomogeneous, WeightTooLow
from nchodge.logforms import LogChart

Exponents = tuple[int, ...]
Poly = dict[Exponents, Fraction]


def poly_const(n: int, value) -> Poly:
    value = Fraction(value)
    if value == 0:
        return {}
    return {(0,) * n: value}


def monomial(n: int, powers: dict[int, int], coeff=1) -> Poly:
    """z^powers with 1-based variable keys."""
    coeff = Fraction(coeff)
    if coeff == 0:
        return {}
    exps = [0] * n
    for var, e in powers.items():
        if not 1 <= var <= n:
            raise BadParams(f"variable z_{var} outside 1..{n}")
        if e < 0:
            raise BadParams("negative exponent")
        exps[var - 1] += e
    return {tuple(exps): coeff}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def poly_scale(c, a: Poly) -> Poly:
    c = Fraction(c)
    if c == 0:
        return {}
    return {e: c * v for e, v in a.items()}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def poly_restrict(a: Poly, zeroed: frozenset[int]) -> Poly:
    """Set z_i = 0 for i in `zeroed` (1-based)."""
    return {e: c for e, c in a.items() if all(e[i - 1] == 0 for i in zeroed)}


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


class LogPolyForm:
    """Finite sum of poly * xi_B terms on one chart."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: LogChart, terms: dict):
        cleaned: dict[frozenset[int], Poly] = {}
        for b, poly in terms.items():
            b = frozenset(b)
            if not all(1 <= i <= chart.n for i in b):
                raise BadParams("basis index outside 1..n")
            poly = {e: f for e, c in dict(poly).items() if (f := Fraction(c)) != 0}
            for e in poly:
                if len(e) != chart.n or any(x < 0 for x in e):
                    raise BadParams(f"bad exponent tuple {e} for n={chart.n}")
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
            poly = poly_restrict(poly, chart.omitted)
            if poly:
                cleaned[b] = poly_add(cleaned.get(b, {}), poly)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(
            self, "terms", {b: p for b, p in cleaned.items() if p}
        )

    def __setattr__(self, name, value):
        raise AttributeError("LogPolyForm is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Form degree; None for the zero form."""
        sizes = {len(b) for b in self.terms}
        if not sizes:
            return None
        if len(sizes) > 1:
            raise NonHomogeneous(f"mixed form degrees {sorted(sizes)}")
        return sizes.pop()

    def monomials(self):
        """Yield (B, exponents, coefficient) over all monomial terms."""
        for b in sorted(self.terms, key=sorted):
            for e, c in sorted(self.terms[b].items()):
                yield b, e, c

    def __add__(self, other: "LogPolyForm") -> "LogPolyForm":
        _same_chart(self, other)
        merged = {b: dict(p) for b, p in self.terms.items()}
        for b, p in other.terms.items():
            merged[b] = poly_add(merged.get(b, {}), p)
        return LogPolyForm(self.chart, merged)

    def __sub__(self, other: "LogPolyForm") -> "LogPolyForm":
        return self + other.scale(-1)

    def scale(self, c) -> "LogPolyForm":
        return LogPolyForm(
            self.chart, {b: poly_scale(c, p) for b, p in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogPolyForm)
            and self.chart == other.chart
            and self.terms == other.terms
        )

    def __hash__(self):
        frozen = tuple(
            sorted(
                (tuple(sorted(b)), tuple(sorted(p.items())))
                for b, p in self.terms.items()
            )
        )
        return hash((self.chart, frozen))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for b in sorted(self.terms, key=sorted):
            poly = format_poly(self.terms[b])
            basis = "^".join(f"xi{i}" for i in sorted(b)) or "1"
            parts.append(f"({poly}) {basis}" if b else f"({poly})")
        return " + ".join(parts)

    __repr__ = __str__


def _same_chart(a: LogPolyForm, b: LogPolyForm) -> None:
    if a.chart != b.chart:
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
    return LogPolyForm(chart, {})


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
        if isinstance(poly, dict):
            piece = LogPolyForm(chart, {frozenset(): dict(poly)})
        else:
            piece = form(chart, {frozenset(): poly})
        for idx in sorted(b):
            piece = wedge(piece, dz_form(chart, idx))
        total = total + piece
    return total


def wedge(a: LogPolyForm, b: LogPolyForm) -> LogPolyForm:
    _same_chart(a, b)
    out: dict[frozenset[int], Poly] = {}
    for b1, p1 in a.terms.items():
        for b2, p2 in b.terms.items():
            if b1 & b2:
                continue
            inversions = sum(1 for x in b1 for y in b2 if x > y)
            sign = -1 if inversions % 2 else 1
            merged = b1 | b2
            poly = poly_scale(sign, poly_mul(p1, p2))
            out[merged] = poly_add(out.get(merged, {}), poly)
    return LogPolyForm(a.chart, out)


def exterior_d(a: LogPolyForm) -> LogPolyForm:
    """d(f xi_B) = sum_i c_i xi_i ^ xi_B, with c_i = z_i df/dz_i on divisor
    branches (keeping coefficients polynomial) and df/dz_i above."""
    chart = a.chart
    out: dict[frozenset[int], Poly] = {}
    for b, poly in a.terms.items():
        for e, c in poly.items():
            for i in chart.live_indices:
                power = e[i - 1]
                if power == 0 or i in b:
                    continue
                if i <= chart.l:
                    coeff_exp = e
                else:
                    coeff_exp = tuple(
                        x - 1 if idx == i - 1 else x for idx, x in enumerate(e)
                    )
                inversions = sum(1 for y in b if y < i)
                sign = -1 if inversions % 2 else 1
                merged = b | {i}
                add = {coeff_exp: Fraction(power) * c * sign}
                out[merged] = poly_add(out.get(merged, {}), add)
    return LogPolyForm(chart, out)


def weight_level(a: LogPolyForm) -> int:
    """Smallest w with every monomial pole count at most w."""
    a.degree()
    level = 0
    logs = a.chart.log_indices
    for b, e, _ in a.monomials():
        poles = sum(1 for i in b & logs if e[i - 1] == 0)
        level = max(level, poles)
    return level


def in_ideal_subcomplex(a: LogPolyForm) -> bool:
    """True iff every coefficient lies in the chart's monomial ideal."""
    ideal = a.chart.ideal
    for _, e, _ in a.monomials():
        if not any(e[j - 1] > 0 for j in ideal):
            return False
    return True


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
    target = chart.restrict(idx)
    out: dict[frozenset[int], Poly] = {}
    for b, poly in a.terms.items():
        if not idx <= b:
            continue
        rest = b - idx
        inversions = sum(1 for i in idx for y in rest if y < i)
        sign = -1 if inversions % 2 else 1
        restricted = poly_restrict(poly, idx)
        if not restricted:
            continue
        out[rest] = poly_add(out.get(rest, {}), poly_scale(sign, restricted))
    return LogPolyForm(target, out)


def _monomials_up_to(n: int, degree: int):
    """All exponent tuples of total degree <= degree, ascending."""
    for total in range(degree + 1):
        for cuts in itertools.combinations(range(total + n - 1), n - 1):
            exps = []
            prev = -1
            for c in cuts:
                exps.append(c - prev - 1)
                prev = c
            exps.append(total + n - 2 - prev)
            yield tuple(exps)


def random_poly(rng: random.Random, chart: LogChart, degree: int = 2,
                terms: int = 3) -> Poly:
    pool = [
        e
        for e in _monomials_up_to(chart.n, degree)
        if all(e[i - 1] == 0 for i in chart.omitted)
    ]
    out: Poly = {}
    for _ in range(terms):
        e = rng.choice(pool)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            out = poly_add(out, {e: c})
    return out


def random_form(rng: random.Random, chart: LogChart, p: int, degree: int = 2,
                terms: int = 3) -> LogPolyForm:
    live = sorted(chart.live_indices)
    if p > len(live):
        return zero_form(chart)
    built: dict[frozenset[int], Poly] = {}
    for _ in range(terms):
        b = frozenset(rng.sample(live, p))
        built[b] = poly_add(built.get(b, {}), random_poly(rng, chart, degree, 2))
    return LogPolyForm(chart, built)


def random_ideal_form(rng: random.Random, chart: LogChart, p: int,
                      degree: int = 2, terms: int = 3) -> LogPolyForm:
    """Random form with every coefficient inside the chart's ideal."""
    if not chart.ideal:
        raise BadParams("chart has an empty ideal")
    base = random_form(rng, chart, p, degree, terms)
    j = rng.choice(sorted(chart.ideal))
    zj = LogPolyForm(chart, {frozenset(): monomial(chart.n, {j: 1})})
    return wedge(zj, base)


def _random_lift(rng: random.Random, chart: LogChart, degree: int) -> LogPolyForm:
    """Random regular form of the given form degree on the whole chart."""
    live = sorted(chart.live_indices)
    terms = {}
    for _ in range(2):
        if degree > len(live):
            break
        b = frozenset(rng.sample(live, degree))
        terms[b] = random_poly(rng, chart, degree=1, terms=2)
    return from_regular(chart, terms)
