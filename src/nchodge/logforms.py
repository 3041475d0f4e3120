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

A polynomial is a dict {exponents: coefficient} with no zero coefficients.
Coefficients follow the integer-first rule of `linalg`: a value is a Python
int until a division forces a Fraction, and an integral Fraction becomes an
int again, so the values in `LogPolyForm.terms` may be ints (`str()` prints
2 and Fraction(2) alike).  Sums and products accumulate in place into one
output dict through `_add_term`, never copying a polynomial per term.

The public `LogPolyForm(chart, terms)` checks and converts caller data, and
every function that takes caller data goes through it: `form`, `xi`,
`dz_form`, the pieces of `from_regular` and `claim_witness`'s cut of `eta`
and `zeta` to the slice.  Forms the kernel builds out of forms that are
already valid go through `LogPolyForm._built`, which only drops empty
polynomials, because each output already meets every check the constructor
makes:
- `wedge`, `__add__` (so `__sub__`) and `scale` combine valid polynomials
  through `_add_term` or `poly_scale`, so every coefficient is nonzero and
  integer-first; a wedge basis is the union of two disjoint live bases, and
  exponents add, so a coordinate that is zero on the chart stays zero.
- `exterior_d` adds a live index missing from the basis, and lowers an
  exponent only where it is positive.
- `residue` keeps the monomials that vanish on the sliced indices and
  strips those indices from the basis, so the output lives on the slice.
- `random_form`, `ideal_weight_generators` and the monomial coefficients of
  `_claim_target_span` draw bases from the live indices and exponents from
  `_exponent_pool`, which skips every omitted coordinate.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import (
    BadParams,
    ChartMismatch,
    DegreeMismatch,
    NonHomogeneous,
    WeightTooLow,
)
from .linalg import EchelonSpan, _int_first
from .reports import CheckLine, CheckReport

Exponents = tuple[int, ...]
Poly = dict[Exponents, int | Fraction]


# -- polynomial coefficients ---------------------------------------------------


def _coeff(value):
    """`value` as an exact coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    return _int_first(value if type(value) is Fraction else Fraction(value))


def _add_term(acc: Poly, e: Exponents, c) -> None:
    """acc[e] += c in place; the sum stays int-first and is dropped at zero."""
    old = acc.get(e)
    if old is not None:
        c = old + c
    if c:
        acc[e] = _int_first(c)
    elif old is not None:
        del acc[e]


def _add_poly(acc: Poly, a: Poly) -> None:
    """acc += a in place."""
    for e, c in a.items():
        _add_term(acc, e, c)


def _add_product(acc: Poly, a: Poly, b: Poly, sign: int) -> None:
    """acc += sign * a * b in place."""
    for e1, c1 in a.items():
        if sign < 0:
            c1 = -c1
        for e2, c2 in b.items():
            _add_term(acc, tuple(map(add, e1, e2)), c1 * c2)


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


def poly_scale(c, a: Poly) -> Poly:
    c = _coeff(c)
    if not c:
        return {}
    return {e: _int_first(c * v) for e, v in a.items()}


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


# -- charts --------------------------------------------------------------------


@dataclass(frozen=True)
class LogChart:
    """Local model: coordinates z_1..z_n, divisor z_1...z_l = 0, residue
    indices {1..k}, closed stratum cut out by the z_j with j in `ideal`."""

    n: int
    l: int
    k: int
    ideal: frozenset[int]
    omitted: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "ideal", frozenset(self.ideal))
        object.__setattr__(self, "omitted", frozenset(self.omitted))
        if not (0 <= self.k <= self.l <= self.n):
            raise BadParams(f"need k <= l <= n, got k={self.k} l={self.l} n={self.n}")
        if not all(1 <= j <= self.l for j in self.ideal):
            raise BadParams("ideal indices must cut divisor branches (1..l)")
        if not all(1 <= i <= self.n for i in self.omitted):
            raise BadParams("omitted indices outside 1..n")
        if self.residue_set & self.omitted:
            raise BadParams("residue indices were already set to zero")

    @property
    def residue_set(self) -> frozenset[int]:
        return frozenset(range(1, self.k + 1))

    @property
    def j1(self) -> frozenset[int]:
        return self.ideal & self.residue_set

    @property
    def j2(self) -> frozenset[int]:
        return self.ideal - self.residue_set

    @property
    def log_indices(self) -> frozenset[int]:
        return frozenset(range(1, self.l + 1)) - self.omitted

    @property
    def live_indices(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.omitted

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

    __slots__ = ("chart", "terms")

    def __init__(self, chart: LogChart, terms: dict):
        cleaned: dict[frozenset[int], Poly] = {}
        for b, poly in terms.items():
            b = frozenset(b)
            if not all(1 <= i <= chart.n for i in b):
                raise BadParams("basis index outside 1..n")
            poly = {e: k for e, c in dict(poly).items() if (k := _coeff(c)) != 0}
            for e in poly:
                if len(e) != chart.n or any(type(x) is not int or x < 0 for x in e):
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
            if chart.omitted:
                poly = poly_restrict(poly, chart.omitted)
            _add_poly(cleaned.setdefault(b, {}), poly)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(
            self, "terms", {b: p for b, p in cleaned.items() if p}
        )

    @classmethod
    def _built(cls, chart: LogChart, terms: dict) -> "LogPolyForm":
        """A form from terms the kernel built out of valid forms: stored as
        given, empty polynomials dropped, with no copy, conversion or check."""
        new = object.__new__(cls)
        object.__setattr__(new, "chart", chart)
        object.__setattr__(new, "terms", {b: p for b, p in terms.items() if p})
        return new

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
            _add_poly(merged.setdefault(b, {}), p)
        return LogPolyForm._built(self.chart, merged)

    def __sub__(self, other: "LogPolyForm") -> "LogPolyForm":
        return self + other.scale(-1)

    def scale(self, c) -> "LogPolyForm":
        return LogPolyForm._built(
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
            _add_product(out.setdefault(b1 | b2, {}), p1, p2, sign)
    return LogPolyForm._built(a.chart, out)


def exterior_d(a: LogPolyForm) -> LogPolyForm:
    """d(f xi_B) = sum_i c_i xi_i ^ xi_B, with c_i = z_i df/dz_i on divisor
    branches (keeping coefficients polynomial) and df/dz_i above."""
    chart = a.chart
    live = chart.live_indices
    out: dict[frozenset[int], Poly] = {}
    for b, poly in a.terms.items():
        for i in live - b:
            inversions = sum(1 for y in b if y < i)
            sign = -1 if inversions % 2 else 1
            acc = out.setdefault(b | {i}, {})
            for e, c in poly.items():
                power = e[i - 1]
                if power == 0:
                    continue
                if i > chart.l:
                    e = e[: i - 1] + (power - 1,) + e[i:]
                _add_term(acc, e, power * sign * c)
    return LogPolyForm._built(chart, out)


def weight_level(a: LogPolyForm) -> int:
    """Smallest w with every monomial pole count at most w."""
    a.degree()
    level = 0
    logs = a.chart.log_indices
    for b, poly in a.terms.items():
        blogs = b & logs
        for e in poly:
            poles = sum(1 for i in blogs if e[i - 1] == 0)
            level = max(level, poles)
    return level


def in_ideal_subcomplex(a: LogPolyForm) -> bool:
    """True iff every coefficient lies in the chart's monomial ideal."""
    ideal = a.chart.ideal
    for poly in a.terms.values():
        for e in poly:
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
        acc = out.setdefault(rest, {})
        for e, c in poly.items():
            if all(e[i - 1] == 0 for i in idx):
                _add_term(acc, e, -c if inversions % 2 else c)
    return LogPolyForm._built(target, out)


# -- the two inclusions of the residue claim ------------------------------------


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


@functools.lru_cache(maxsize=32)
def _exponent_pool(n: int, degree: int, omitted: frozenset[int]) -> tuple[Exponents, ...]:
    """The exponent tuples of `_monomials_up_to` that vanish on `omitted`, in
    the same order; `random_poly` draws from it, so the order fixes what a
    seed produces.  One `verify --suite logforms` run asks for 7 to 12 keys.
    """
    return tuple(
        e
        for e in _monomials_up_to(n, degree)
        if all(e[i - 1] == 0 for i in omitted)
    )


def _monomial_index(a: LogPolyForm, index: dict) -> None:
    for b, e, _ in a.monomials():
        index.setdefault((b, e), len(index))


def _flatten(a: LogPolyForm, index: dict) -> tuple[Fraction, ...]:
    vec = [Fraction(0)] * len(index)
    for b, e, c in a.monomials():
        vec[index[(b, e)]] = c
    return tuple(vec)


def ideal_weight_generators(chart: LogChart, p: int, degree_bound: int):
    """Monomial forms z^E xi_B spanning (ideal * forms) cap W_k in degree p,
    with coefficient degree at most `degree_bound`."""
    logs = chart.log_indices
    live = sorted(chart.live_indices)
    exps = [
        e
        for e in _exponent_pool(chart.n, degree_bound, chart.omitted)
        if any(e[j - 1] > 0 for j in chart.ideal)
    ]
    for b in itertools.combinations(live, p):
        bset = frozenset(b)
        blogs = bset & logs
        for e in exps:
            poles = sum(1 for i in blogs if e[i - 1] == 0)
            if poles <= chart.k:
                yield LogPolyForm._built(chart, {bset: {e: 1}})


def _claim_target_span(chart: LogChart, p: int, degree_bound: int):
    """Span of z_j * (regular forms) + dz_j * (regular forms), j in J2, on
    the residue slice; returned as an index map plus an echelon span."""
    sliced = chart.restrict(chart.residue_set)
    live = sorted(sliced.live_indices)
    generators: list[LogPolyForm] = []
    exps = _exponent_pool(chart.n, degree_bound, sliced.omitted)
    for j in sorted(chart.j2):
        zj = LogPolyForm(sliced, {frozenset(): monomial(chart.n, {j: 1})})
        dzj = dz_form(sliced, j)
        for r, lead in ((p - chart.k, zj), (p - chart.k - 1, dzj)):
            if r < 0:
                continue
            for b in itertools.combinations(live, r):
                base = from_regular(sliced, {frozenset(b): 1})
                for e in exps:
                    coeff = LogPolyForm._built(sliced, {frozenset(): {e: 1}})
                    gen = wedge(lead, wedge(coeff, base))
                    if not gen.is_zero():
                        generators.append(gen)
    index: dict = {}
    for gen in generators:
        _monomial_index(gen, index)
    return generators, index


def claim_forward_check(
    chart: LogChart, p: int, seed: int = 0, degree_bound: int = 2, combos: int = 25
) -> bool:
    """Residues of ideal forms of weight at most k land in the span of
    z_j * forms and dz_j ^ forms on the slice, j running over J2.

    Checks every monomial generator with coefficient degree at most the
    bound, then seeded random combinations of them.
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
    residues = [residue(g, chart.residue_set) for g in candidates]
    rng = random.Random(seed)
    for _ in range(combos):
        picks = rng.sample(range(len(candidates)), min(3, len(candidates)))
        combo = zero_form(chart)
        for i in picks:
            combo = combo + candidates[i].scale(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            )
        if combo.is_zero():
            continue
        residues.append(residue(combo, chart.residue_set))
    for res in residues:
        _monomial_index(res, index)
    span = EchelonSpan(len(index))
    for gen in generators:
        span.add(_flatten(gen, index))
    return all(span.contains(_flatten(res, index)) for res in residues)


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
        zj = LogPolyForm(chart, {frozenset(): monomial(chart.n, {j: 1})})
        piece = wedge(dz_form(chart, j), eta_j) + wedge(zj, zeta_j)
        omega = omega + wedge(front, piece)

    lines = []
    lines.append(
        CheckLine(
            "omega lies in the ideal subcomplex",
            omega.is_zero() or in_ideal_subcomplex(omega),
        )
    )
    in_wk = weight_level(omega) <= chart.k
    lines.append(
        CheckLine(
            f"omega lies in W_{chart.k}",
            in_wk,
            f"weight {weight_level(omega)}",
        )
    )
    if not in_wk:
        # size-k residues are only defined on W_k; a lift with extra poles
        # fails here instead of crashing
        detail = "skipped: omega lies outside the filtration"
        lines.append(
            CheckLine("residue along {1..k} equals sum dz_j^eta_j + z_j zeta_j", False, detail)
        )
        lines.append(CheckLine("all other residues of size k vanish", False, detail))
        return WitnessResult(omega, CheckReport("residue claim witness", tuple(lines)))
    sliced = chart.restrict(chart.residue_set)
    expected = zero_form(sliced)
    for j in sorted(chart.j2):
        eta_j = eta.get(j, zero_form(chart))
        zeta_j = zeta.get(j, zero_form(chart))
        eta_cut = LogPolyForm(sliced, dict(eta_j.terms))
        zeta_cut = LogPolyForm(sliced, dict(zeta_j.terms))
        zj = LogPolyForm(sliced, {frozenset(): monomial(chart.n, {j: 1})})
        expected = expected + wedge(dz_form(sliced, j), eta_cut) + wedge(zj, zeta_cut)
    lines.append(
        CheckLine(
            "residue along {1..k} equals sum dz_j^eta_j + z_j zeta_j",
            residue(omega, chart.residue_set) == expected,
        )
    )
    others_ok = True
    for other in itertools.combinations(sorted(chart.log_indices), chart.k):
        if frozenset(other) == chart.residue_set:
            continue
        if not residue(omega, other).is_zero():
            others_ok = False
            break
    lines.append(CheckLine("all other residues of size k vanish", others_ok))
    return WitnessResult(omega, CheckReport("residue claim witness", tuple(lines)))


# -- random forms for fuzzing ----------------------------------------------------


def random_poly(rng: random.Random, chart: LogChart, degree: int = 2,
                terms: int = 3) -> Poly:
    pool = _exponent_pool(chart.n, degree, chart.omitted)
    out: Poly = {}
    for _ in range(terms):
        e = rng.choice(pool)
        num, den = rng.randint(-4, 4), rng.randint(1, 3)
        _add_term(out, e, num // den if num % den == 0 else Fraction(num, den))
    return out


def random_form(rng: random.Random, chart: LogChart, p: int, degree: int = 2,
                terms: int = 3) -> LogPolyForm:
    live = sorted(chart.live_indices)
    if p > len(live):
        return zero_form(chart)
    built: dict[frozenset[int], Poly] = {}
    for _ in range(terms):
        b = frozenset(rng.sample(live, p))
        poly = random_poly(rng, chart, degree, 2)
        if built.setdefault(b, poly) is not poly:
            _add_poly(built[b], poly)
    return LogPolyForm._built(chart, built)


def random_ideal_form(rng: random.Random, chart: LogChart, p: int,
                      degree: int = 2, terms: int = 3) -> LogPolyForm:
    """Random form with every coefficient inside the chart's ideal."""
    if not chart.ideal:
        raise BadParams("chart has an empty ideal")
    base = random_form(rng, chart, p, degree, terms)
    j = rng.choice(sorted(chart.ideal))
    zj = LogPolyForm(chart, {frozenset(): monomial(chart.n, {j: 1})})
    return wedge(zj, base)
