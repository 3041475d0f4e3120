"""The log-forms suite's identities on every monomial form of the fuzz charts.

`verify --suite logforms` samples random forms.  Its identities are linear
in one form (d^2 = 0, closure of the ideal subcomplex under d) or bilinear
in two (W_a ^ W_b lies in W_(a+b), and form degrees add under wedge), and
each space is spanned by the monomial forms z^E xi_B it holds: W_w by those
with at most w poles, the ideal subcomplex by those whose z^E lies in the
ideal.  So checking every monomial form, or pair of them, up to the degree
bound checks each identity on the whole space.  On the seven charts of
`FUZZ_CHARTS` (two with n = 2, three with n = 3, two with n = 4):

- d^2 = 0 on all 768 forms z^E xi_B with |E| <= 2 (C(n+2, 2) exponents
  times 2^n bases: 24, 80 or 240 per chart);
- closure under d on every ideal monomial form with |E| <= 3;
- the W bound and the degree law on all 46,464 pairs (b, c) with |E| <= 2
  on both sides and c of form degree at most 1 (C(n+2, 2)^2 2^n (n+1)
  pairs per chart: 432, 3,200 or 18,000).
"""

import itertools

import pytest

from nchodge.logforms import (
    LogPolyForm,
    _exponent_pool,
    exterior_d,
    in_ideal_subcomplex,
    weight_level,
    wedge,
)
from nchodge.verify import FUZZ_CHARTS

from test_logforms_oracle import chart_id


def bases(chart, top=None):
    live = sorted(chart.live_indices)
    top = len(live) if top is None else top
    return [frozenset(b) for r in range(top + 1) for b in itertools.combinations(live, r)]


def monomial_forms(chart, degree, top=None):
    """Every z^E xi_B with |E| <= degree and |B| <= top, coefficient 1."""
    exps = _exponent_pool(chart.n, degree, chart.omitted)
    return [LogPolyForm(chart, {b: {e: 1}}) for b in bases(chart, top) for e in exps]


def test_form_and_pair_counts():
    assert sum(len(monomial_forms(c, 2)) for c in FUZZ_CHARTS) == 768
    assert sum(
        len(monomial_forms(c, 2)) * len(monomial_forms(c, 2, top=1)) for c in FUZZ_CHARTS
    ) == 46_464


@pytest.mark.parametrize("chart", FUZZ_CHARTS, ids=chart_id)
def test_d_squared_vanishes_on_every_monomial(chart):
    for a in monomial_forms(chart, 2):
        assert exterior_d(exterior_d(a)).is_zero(), a


@pytest.mark.parametrize("chart", FUZZ_CHARTS, ids=chart_id)
def test_ideal_subcomplex_closed_under_d_on_every_monomial(chart):
    ideal_forms = [a for a in monomial_forms(chart, 3) if in_ideal_subcomplex(a)]
    assert ideal_forms
    for a in ideal_forms:
        da = exterior_d(a)
        assert da.is_zero() or in_ideal_subcomplex(da), a


@pytest.mark.parametrize("chart", FUZZ_CHARTS, ids=chart_id)
def test_wedge_respects_w_and_f_on_every_monomial_pair(chart):
    left = [(b, weight_level(b), b.degree()) for b in monomial_forms(chart, 2)]
    right = [(c, weight_level(c), c.degree()) for c in monomial_forms(chart, 2, top=1)]
    for b, wb, db in left:
        for c, wc, dc in right:
            prod = wedge(b, c)
            if prod.is_zero():
                continue
            assert weight_level(prod) <= wb + wc, (b, c)
            assert prod.degree() == db + dc, (b, c)
