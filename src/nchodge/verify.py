"""Verification suites: structure, duality, exactness, log forms.

Each suite returns a CheckReport with one line per check.  The randomized
parts take an explicit seed and echo it in the line details, so reruns are
reproducible and reports byte-stable.
"""

from __future__ import annotations

import random

from .atlas import StrataAtlas, key_to_string, validate_atlas
from .complexes import SELECTORS, build, cone_morphism
from .errors import BadParams
from .logforms import (
    _LIMIT,
    LogChart,
    _below,
    claim_forward_check,
    claim_witness,
    exterior_d,
    in_ideal_subcomplex,
    random_form,
    random_ideal_form,
    random_lift,
    weight_level,
    wedge,
)
from .pairings import (
    chain_map_check,
    cup_extraordinary,
    cup_log_XD,
    fujiki_duality_report,
    les_check,
)
from .reports import CheckLine, CheckReport
from .tables import compare_tables, compute_table, euler_check

SUITES = ("consistency", "fujiki", "les", "cup", "logforms", "all")

FUZZ_CHARTS = (
    LogChart(2, 2, 1, frozenset({1})),
    LogChart(2, 2, 2, frozenset({1})),
    LogChart(3, 3, 1, frozenset({2})),
    LogChart(3, 3, 1, frozenset({1, 2})),
    LogChart(3, 2, 2, frozenset({1, 2})),
    LogChart(4, 3, 2, frozenset({2, 3})),
    LogChart(4, 4, 2, frozenset({1, 4})),
)


def suite_consistency(atlas: StrataAtlas) -> CheckReport:
    """Atlas invariants, d^2 = 0, euler counts, and the agreement of the
    two models of the relative and local theories."""
    lines: list[CheckLine] = []
    report = validate_atlas(atlas)
    detail = "" if report.ok else "; ".join(report.violations[:3])
    lines.append(CheckLine("atlas invariants", report.ok, detail))
    if not report.ok:
        # the remaining checks presuppose a valid atlas
        return CheckReport("consistency", tuple(lines))

    selectors = list(SELECTORS)
    if atlas.components:
        selectors.append("sslog")
        selectors += [
            f"nbhd:{key_to_string(key)}"
            for key in atlas.keys_sorted()
            if key[0]
        ]
    else:
        selectors.remove("D")
    tables = {}
    for sel in selectors:
        family = build(atlas, sel)
        lines.append(
            CheckLine(f"d^2 = 0 on {sel}", family.differentials_square_to_zero())
        )
        table = compute_table(family)
        tables[sel] = table
        lines.append(CheckLine(f"euler count on {sel}", euler_check(family, table)))

    for model, tilde in (("XD", "XD-tilde"), ("locD", "locD-tilde")):
        diff = compare_tables(tables[model], tables[tilde])
        detail = "; ".join(diff.differences[:3])
        lines.append(CheckLine(f"{model} agrees with {tilde}", diff.equal, detail))
    if not atlas.components:
        for sel in ("XD", "log"):
            diff = compare_tables(tables[sel], tables["X"])
            lines.append(
                CheckLine(f"empty divisor: {sel} collapses to X", diff.equal)
            )
        lines.append(
            CheckLine(
                "empty divisor: locD is acyclic",
                not tables["locD"].degrees(),
            )
        )
        lines.append(
            CheckLine(
                "empty divisor: locD-tilde is empty",
                not tables["locD-tilde"].degrees(),
            )
        )
    return CheckReport("consistency", tuple(lines))


def suite_fujiki(atlas: StrataAtlas) -> CheckReport:
    report = fujiki_duality_report(atlas)
    return CheckReport("fujiki", report.lines)


def suite_les(atlas: StrataAtlas) -> CheckReport:
    report = les_check(atlas)
    return CheckReport("les", report.lines)


def suite_cup(atlas: StrataAtlas) -> CheckReport:
    """Leibniz identity for both products, injectivity of the two
    comparison maps whose cones define the local theories."""
    lines: list[CheckLine] = []
    cup = cup_log_XD(atlas)
    lines.append(CheckLine("cup product is a chain map", chain_map_check(cup)))
    ext = cup_extraordinary(atlas)
    lines.append(
        CheckLine("extraordinary product is a chain map", chain_map_check(ext))
    )
    for selector in ("locD", "locD-tilde"):
        morphism = cone_morphism(atlas, selector)
        lines.append(
            CheckLine(
                f"{morphism.label} is blockwise injective",
                morphism.blockwise_injective(),
            )
        )
    return CheckReport("cup", tuple(lines))


def _chart_name(chart: LogChart) -> str:
    ideal = ",".join(str(j) for j in sorted(chart.ideal))
    return f"chart(n={chart.n},l={chart.l},k={chart.k},J={{{ideal}}})"


def suite_logforms(seed: int = 0, trials: int = 100, degree_bound: int = 2) -> CheckReport:
    """Closure of the ideal subcomplex, d^2 = 0, filtration bounds for
    wedge, the forward residue inclusion, and the witness construction,
    on a fixed battery of charts."""
    lines: list[CheckLine] = []
    for chart in FUZZ_CHARTS:
        name = _chart_name(chart)
        rng = random.Random(f"{seed}:{chart.n}:{chart.l}:{chart.k}:{sorted(chart.ideal)}")
        closure_ok = True
        dd_ok = True
        mult_ok = True
        for _ in range(trials):
            p = _below(rng, chart.n)  # as `rng.randrange(0, chart.n)` draws it
            a = random_ideal_form(rng, chart, p)
            if not a.is_zero():
                if not in_ideal_subcomplex(a):
                    closure_ok = False
                da = exterior_d(a)
                if not (da.is_zero() or in_ideal_subcomplex(da)):
                    closure_ok = False
            b = random_form(rng, chart, _below(rng, chart.n))
            if not exterior_d(exterior_d(b)).is_zero():
                dd_ok = False
            c = random_form(rng, chart, _below(rng, 2))
            prod = wedge(b, c)
            if not prod.is_zero():
                if weight_level(prod) > weight_level(b) + weight_level(c):
                    mult_ok = False
                if prod.degree() != b.degree() + c.degree():
                    mult_ok = False
        lines.append(
            CheckLine(f"{name}: ideal subcomplex closed under d", closure_ok,
                      f"{trials} trials, seed {seed}")
        )
        lines.append(CheckLine(f"{name}: d^2 = 0", dd_ok, f"{trials} trials"))
        lines.append(
            CheckLine(f"{name}: wedge respects W and F bounds", mult_ok)
        )
        if chart.k >= 1:
            forward = all(
                claim_forward_check(chart, p, seed=seed, degree_bound=degree_bound)
                for p in range(chart.k, min(chart.n, chart.k + 2) + 1)
            )
            lines.append(
                CheckLine(
                    f"{name}: residues of ideal forms land in the slice ideal",
                    forward,
                    f"degree bound {degree_bound}",
                )
            )
        if chart.k >= 1 and chart.j2:
            witness_ok = True
            for p in (chart.k + 1, chart.k + 2):
                if p > chart.n:
                    continue
                eta = {
                    j: random_lift(rng, chart, p - chart.k - 1)
                    for j in sorted(chart.j2)
                }
                zeta = {
                    j: random_lift(rng, chart, p - chart.k)
                    for j in sorted(chart.j2)
                }
                if not claim_witness(chart, p, eta, zeta).ok:
                    witness_ok = False
            lines.append(
                CheckLine(f"{name}: witness form passes all residue checks",
                          witness_ok)
            )
    return CheckReport("logforms", tuple(lines))


def run_suite(
    name: str,
    atlas: StrataAtlas | None = None,
    seed: int = 0,
    degree_bound: int = 2,
) -> CheckReport:
    name = name.strip().lower()
    if name not in SUITES:
        raise BadParams(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")
    if name in ("logforms", "all") and degree_bound < 1:
        # Below 1 there are no ideal forms to take residues of: nothing to check.
        raise BadParams(f"suite {name!r} needs a degree bound >= 1, got {degree_bound}")
    if name in ("logforms", "all") and degree_bound + 1 > _LIMIT:
        # the claim's target span reaches one degree past the bound
        raise BadParams(f"suite {name!r} needs a degree bound below the exponent limit "
                        f"{_LIMIT}, got {degree_bound}")
    if name == "logforms":
        return suite_logforms(seed=seed, degree_bound=degree_bound)
    if atlas is None:
        raise BadParams(f"suite {name!r} needs an atlas")
    if name == "consistency":
        return suite_consistency(atlas)
    if name == "fujiki":
        return suite_fujiki(atlas)
    if name == "les":
        return suite_les(atlas)
    if name == "cup":
        return suite_cup(atlas)
    consistency = suite_consistency(atlas)
    lines: list[CheckLine] = list(consistency.lines)
    if not consistency.ok:
        lines.append(
            CheckLine("remaining suites", False, "skipped: consistency failed")
        )
        return CheckReport("all", tuple(lines))
    if atlas.components:
        lines += suite_fujiki(atlas).lines
        lines += suite_les(atlas).lines
        lines += suite_cup(atlas).lines
    else:
        lines.append(
            CheckLine("duality, sequence and cup suites", True, "skipped: empty divisor")
        )
    lines += suite_logforms(seed=seed, degree_bound=degree_bound).lines
    return CheckReport("all", tuple(lines))
