"""Identity suites for the algebroid structure.

Each suite runs one family of identities, exhaustively on small basis
data and on seeded random samples, and returns one ``CheckReport`` per
identity.  The command line front end prints these; the test suite
asserts on them.  Keeping them here means CI can run every suite without
going through the CLI.

Conventions: "exhaustive up to grade G" ranges over tuples of basis
forests whose *total* grade is at most G (the bound controls problem
size, so it applies to the whole operand tuple).  Exhaustive operands
are dressed with random coefficient polynomials where the identity
involves coefficients.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .algebroid import (
    AlgebroidElement,
    TensorElement,
    antipode_concat,
    concat_mul,
    coproduct,
    counit,
    gl_antipode,
    gl_product,
    theta,
    triangle,
    word_action,
    word_splits,
)
from .coeffs import AromaGenerator, CoeffPoly
from .trees import (DEFAULT_MAX_GRADE, EMPTY_FOREST, CapacityError, Forest,
                    forests_of_grade, trees_of_size)


@dataclass
class CheckReport:
    """Outcome of checking one identity over many cases."""

    suite: str
    axiom: str
    cases: int
    failures: int
    max_grade: int
    seed: int
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        out = f"axiom={self.axiom} cases={self.cases} status={status}"
        if self.witness is not None:
            out += f" witness={self.witness}"
        return out


# ---------------------------------------------------------------------------
# Random data


_BASES = ("g", "h")


def random_tree(rng: random.Random, max_size: int):
    size = rng.randint(1, max_size)
    return rng.choice(trees_of_size(size))


def random_forest(rng: random.Random, max_grade: int) -> Forest:
    grade = rng.randint(0, max_grade)
    return rng.choice(forests_of_grade(grade))


def random_scalar(rng: random.Random) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def random_poly(rng: random.Random, max_terms: int = 2, max_degree: int = 2) -> CoeffPoly:
    """A small random coefficient polynomial of degree <= max_degree,
    never zero."""
    out = CoeffPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        budget = rng.randint(0, max_degree)
        gens = []
        for _ in range(rng.randint(0, 2)):
            base = rng.choice(_BASES)
            applied = ()
            if budget > 0 and rng.random() < 0.6:
                t = random_tree(rng, budget)
                applied = (t,)
                budget -= t.size
            gens.append(AromaGenerator(base, applied))
        mono = tuple(sorted(gens, key=lambda g: g.sort_key))
        out = out + CoeffPoly({mono: random_scalar(rng)})
    if out.is_zero():
        out = CoeffPoly.one()
    return out


def random_element(rng: random.Random, max_grade: int, coeffs: bool = True) -> AlgebroidElement:
    """A random element of combined grade (word grade + coefficient
    degree) at most max_grade."""
    out = AlgebroidElement.zero()
    for _ in range(rng.randint(1, 2)):
        g = rng.randint(0, max_grade)
        w = rng.choice(forests_of_grade(g))
        if coeffs:
            c = random_poly(rng, max_degree=max_grade - g)
        else:
            c = CoeffPoly.scalar(random_scalar(rng))
        out = out + AlgebroidElement.from_forest(w, c)
    if out.is_zero():
        out = AlgebroidElement.unit()
    return out


def basis_tuples(total_grade: int, arity: int) -> Iterator[tuple[Forest, ...]]:
    """All tuples of basis forests whose grades sum to <= total_grade.

    Raises ``CapacityError`` at once when total_grade exceeds
    ``DEFAULT_MAX_GRADE``, the bound forest enumeration enforces; every
    suite starts by building its basis tuples, so this bounds them all.
    """
    if total_grade > DEFAULT_MAX_GRADE:
        raise CapacityError(f"max_grade {total_grade} exceeds bound {DEFAULT_MAX_GRADE}")

    def rec(remaining: int, slots: int):
        if slots == 0:
            yield ()
            return
        for g in range(remaining + 1):
            for w in forests_of_grade(g):
                for rest in rec(remaining - g, slots - 1):
                    yield (w,) + rest
    return rec(total_grade, arity)


def _dress(rng: random.Random, w: Forest, coeffs: bool) -> AlgebroidElement:
    c = random_poly(rng) if coeffs else CoeffPoly.scalar(random_scalar(rng))
    return AlgebroidElement.from_forest(w, c)


def _run(
    suite: str,
    axiom: str,
    cases: Iterable[tuple],
    check: Callable[..., bool],
    max_grade: int,
    seed: int,
) -> CheckReport:
    n = 0
    failures = 0
    witness = None
    for case in cases:
        n += 1
        if not check(*case):
            failures += 1
            if witness is None:
                witness = ";".join(str(c) for c in case)
    return CheckReport(suite, axiom, n, failures, max_grade, seed, witness)


def _mixed_cases(
    rng: random.Random,
    arity: int,
    max_grade: int,
    samples: int,
    sample_grade: int,
    coeffs: bool = True,
) -> list[tuple[AlgebroidElement, ...]]:
    """Exhaustive dressed basis tuples up to max_grade plus random samples."""
    cases = [
        tuple(_dress(rng, w, coeffs) for w in tup)
        for tup in basis_tuples(max_grade, arity)
    ]
    for _ in range(samples):
        cases.append(tuple(random_element(rng, sample_grade, coeffs) for _ in range(arity)))
    return cases


def sweedler_pairs(x: AlgebroidElement):
    """Coproduct legs of an element.  The coefficient rides the first leg,
    which is the only placement compatible with maps that are not linear
    over the coefficient algebra in that slot."""
    for w, f in x.terms.items():
        for w1, w2, m in word_splits(w):
            yield (AlgebroidElement.from_forest(w1, f.scale(m)),
                   AlgebroidElement.from_forest(w2))


# ---------------------------------------------------------------------------
# Suite: weak post-Hopf axioms of the triangle action


def suite_axioms(max_grade: int = 3, samples: int = 200, sample_grade: int = 4,
                 seed: int = 0) -> list[CheckReport]:
    rng = random.Random(seed)
    pairs = _mixed_cases(rng, 2, max_grade, samples, sample_grade)
    triples = _mixed_cases(rng, 3, max_grade, samples, sample_grade)
    singles = _mixed_cases(rng, 1, max_grade, samples, sample_grade)
    reports = []

    def coproduct_of_action(x, y):
        lhs = coproduct(triangle(x, y))
        rhs = TensorElement.zero()
        for x1, x2 in sweedler_pairs(x):
            for y1, y2 in sweedler_pairs(y):
                rhs = rhs + TensorElement.of(triangle(x1, y1), triangle(x2, y2))
        return lhs == rhs

    reports.append(_run("axioms", "coproduct-of-action", pairs,
                        coproduct_of_action, max_grade, seed))

    reports.append(_run("axioms", "action-on-unit", singles,
                        lambda x: triangle(x, AlgebroidElement.unit())
                        == AlgebroidElement.iota(counit(x)),
                        max_grade, seed))

    reports.append(_run("axioms", "unit-acts-trivially", singles,
                        lambda x: triangle(AlgebroidElement.unit(), x) == x,
                        max_grade, seed))

    reports.append(_run("axioms", "counit-of-action", pairs,
                        lambda x, y: triangle(x, AlgebroidElement.iota(counit(y)))
                        == AlgebroidElement.iota(counit(triangle(x, y))),
                        max_grade, seed))

    def coeff_factors_left(x, y):
        f = random_poly(rng)
        return triangle(x.scale(f), y) == triangle(x, y).scale(f)

    reports.append(_run("axioms", "left-coefficients-factor", pairs,
                        coeff_factors_left, max_grade, seed))

    def action_on_product(x, y, z):
        lhs = triangle(x, concat_mul(y, z))
        rhs = AlgebroidElement.zero()
        for (x1, x2), c in coproduct(x).terms.items():
            rhs = rhs + concat_mul(
                triangle(AlgebroidElement.from_forest(x1), y),
                triangle(AlgebroidElement.from_forest(x2), z)).scale(c)
        return lhs == rhs

    reports.append(_run("axioms", "action-on-product", triples,
                        action_on_product, max_grade, seed))

    def action_composition(x, y, z):
        lhs = triangle(x, triangle(y, z))
        rhs = AlgebroidElement.zero()
        for (x1, x2), c in coproduct(x).terms.items():
            inner = concat_mul(
                AlgebroidElement.from_forest(x1),
                triangle(AlgebroidElement.from_forest(x2), y))
            rhs = rhs + triangle(inner, z).scale(c)
        return lhs == rhs

    reports.append(_run("axioms", "action-composition", triples,
                        action_composition, max_grade, seed))

    def action_into_scalars(x):
        f = random_poly(rng)
        v = triangle(x, AlgebroidElement.iota(f))
        return v == AlgebroidElement.iota(counit(v))

    reports.append(_run("axioms", "action-lands-in-scalars", singles,
                        action_into_scalars, max_grade, seed))

    def scalars_act_by_multiplication(x):
        f = random_poly(rng)
        return triangle(AlgebroidElement.iota(f), x) == x.scale(f)

    reports.append(_run("axioms", "scalars-act-by-multiplication", singles,
                        scalars_act_by_multiplication, max_grade, seed))

    return reports


# ---------------------------------------------------------------------------
# Suite: Grossman-Larson structure


def suite_gl(max_grade: int = 4, samples: int = 200, sample_grade: int = 4,
             seed: int = 0) -> list[CheckReport]:
    rng = random.Random(seed)
    pairs = _mixed_cases(rng, 2, max_grade, samples, sample_grade)
    triples = _mixed_cases(rng, 3, max_grade, samples // 2, sample_grade)
    singles = _mixed_cases(rng, 1, max_grade, samples, sample_grade)
    reports = []

    reports.append(_run("gl", "associativity", triples,
                        lambda x, y, z: gl_product(gl_product(x, y), z)
                        == gl_product(x, gl_product(y, z)),
                        max_grade, seed))

    reports.append(_run("gl", "unit", singles,
                        lambda x: gl_product(AlgebroidElement.unit(), x) == x
                        and gl_product(x, AlgebroidElement.unit()) == x,
                        max_grade, seed))

    def coproduct_multiplicative(x, y):
        lhs = coproduct(gl_product(x, y))
        rhs = TensorElement.zero()
        for x1, x2 in sweedler_pairs(x):
            for y1, y2 in sweedler_pairs(y):
                rhs = rhs + TensorElement.of(gl_product(x1, y1), gl_product(x2, y2))
        return lhs == rhs

    reports.append(_run("gl", "coproduct-multiplicative", pairs,
                        coproduct_multiplicative, max_grade, seed))

    def counit_law(x):
        lhs = AlgebroidElement.zero()
        rhs = AlgebroidElement.zero()
        for (x1, x2), c in coproduct(x).terms.items():
            lhs = lhs + AlgebroidElement.from_forest(x2).scale(
                c * counit(AlgebroidElement.from_forest(x1)))
            rhs = rhs + AlgebroidElement.from_forest(x1).scale(
                c * counit(AlgebroidElement.from_forest(x2)))
        return lhs == x and rhs == x

    reports.append(_run("gl", "counit-laws", singles, counit_law, max_grade, seed))

    def counit_of_product(x, y):
        return counit(gl_product(x, y)) == counit(
            gl_product(x, AlgebroidElement.iota(counit(y))))

    reports.append(_run("gl", "counit-of-product", pairs,
                        counit_of_product, max_grade, seed))

    def module_composition(x, y, z):
        return triangle(gl_product(x, y), z) == triangle(x, triangle(y, z))

    reports.append(_run("gl", "action-is-module", triples,
                        module_composition, max_grade, seed))

    return reports


# ---------------------------------------------------------------------------
# Suite: theta (the twisted antipode)


def suite_theta(max_grade: int = 3, samples: int = 100, sample_grade: int = 3,
                seed: int = 0) -> list[CheckReport]:
    rng = random.Random(seed)
    pairs = _mixed_cases(rng, 2, max_grade, samples, sample_grade)
    singles = _mixed_cases(rng, 1, max_grade, samples, sample_grade)
    reports = []

    as_splits = sweedler_pairs

    def right_inverse(x):
        total = AlgebroidElement.zero()
        for x1, x2 in as_splits(x):
            total = total + gl_product(x1, theta(x2))
        return total == AlgebroidElement.iota(counit(x))

    reports.append(_run("theta", "right-inverse", singles, right_inverse,
                        max_grade, seed))

    def left_inverse(x):
        total = AlgebroidElement.zero()
        for x1, x2 in as_splits(x):
            total = total + gl_product(theta(x1), x2)
        return total == AlgebroidElement.iota(counit(theta(x)))

    reports.append(_run("theta", "left-inverse", singles, left_inverse,
                        max_grade, seed))

    reports.append(_run("theta", "anti-automorphism", pairs,
                        lambda x, y: theta(gl_product(x, y))
                        == gl_product(theta(y), theta(x)),
                        max_grade, seed))

    reports.append(_run("theta", "involution", singles,
                        lambda x: theta(theta(x)) == x, max_grade, seed))

    def coproduct_compat(x):
        lhs = coproduct(theta(x))
        rhs = TensorElement.zero()
        for (x1, x2), c in coproduct(x).terms.items():
            rhs = rhs + TensorElement.of(
                theta(AlgebroidElement.from_forest(x1, c)),
                theta(AlgebroidElement.from_forest(x2)))
        return lhs == rhs

    reports.append(_run("theta", "coproduct-compatible", singles,
                        coproduct_compat, max_grade, seed))

    def scalar_twist(x):
        # theta(f x) = sum (theta(x1) > iota(f)) theta(x2)
        f = random_poly(rng)
        lhs = theta(x.scale(f))
        rhs = AlgebroidElement.zero()
        for x1, x2 in as_splits(x):
            rhs = rhs + concat_mul(
                triangle(theta(x1), AlgebroidElement.iota(f)), theta(x2))
        return lhs == rhs

    reports.append(_run("theta", "coefficient-twist", singles, scalar_twist,
                        max_grade, seed))

    def antipode_from_theta(x):
        lhs = antipode_concat(x)
        rhs = AlgebroidElement.zero()
        for x1, x2 in as_splits(x):
            rhs = rhs + triangle(x1, theta(x2))
        return lhs == rhs

    reports.append(_run("theta", "concat-antipode-identity", singles,
                        antipode_from_theta, max_grade, seed))

    def theta_from_antipode(x):
        lhs = theta(x)
        rhs = AlgebroidElement.zero()
        for x1, x2 in as_splits(x):
            rhs = rhs + triangle(theta(x1), antipode_concat(x2))
        return lhs == rhs

    reports.append(_run("theta", "recovers-from-concat-antipode", singles,
                        theta_from_antipode, max_grade, seed))

    def counit_of_theta(x):
        lhs = AlgebroidElement.iota(counit(theta(x)))
        rhs = AlgebroidElement.zero()
        for x1, x2 in as_splits(x):
            rhs = rhs + triangle(theta(x1), AlgebroidElement.iota(counit(x2)))
        return lhs == rhs

    reports.append(_run("theta", "counit-of-theta", singles, counit_of_theta,
                        max_grade, seed))

    def product_recovery(x, y):
        lhs = concat_mul(x, y)
        rhs = AlgebroidElement.zero()
        for x1, x2 in as_splits(x):
            rhs = rhs + gl_product(x1, triangle(theta(x2), y))
        return lhs == rhs

    reports.append(_run("theta", "concat-product-recovery", pairs,
                        product_recovery, max_grade, seed))

    def counit_recovery(x):
        rhs = AlgebroidElement.zero()
        for x1, x2 in as_splits(x):
            rhs = rhs + gl_product(x1, AlgebroidElement.iota(counit(theta(x2))))
        return rhs == x

    reports.append(_run("theta", "counit-recovery", singles, counit_recovery,
                        max_grade, seed))

    reports.append(_run("theta", "fixes-scalars", [
        (AlgebroidElement.iota(random_poly(rng)),) for _ in range(50)
    ], lambda x: theta(x) == x, max_grade, seed))

    return reports


# ---------------------------------------------------------------------------
# Suite: smash-product shape of the gl product


def suite_smash(max_grade: int = 3, samples: int = 200, seed: int = 0) -> list[CheckReport]:
    rng = random.Random(seed)
    cases = []
    for wa, wb in basis_tuples(max_grade, 2):
        cases.append((wa, wb, random_poly(rng), random_poly(rng)))
    for _ in range(samples):
        cases.append((random_forest(rng, max_grade), random_forest(rng, max_grade),
                      random_poly(rng), random_poly(rng)))

    def smash(wa, wb, f, g):
        lhs = gl_product(AlgebroidElement.from_forest(wa, f),
                         AlgebroidElement.from_forest(wb, g))
        rhs = AlgebroidElement.zero()
        for a1, a2, m in word_splits(wa):
            coeff = word_action({a1: 1}, g)
            part = gl_product(AlgebroidElement.from_forest(a2),
                              AlgebroidElement.from_forest(wb))
            rhs = rhs + part.scale(f * coeff).scale(m)
        return lhs == rhs

    return [_run("smash", "gl-factors-through-coefficient-action", cases,
                 smash, max_grade, seed)]


# ---------------------------------------------------------------------------
# Suite: degenerate coefficients (all derivations vanish)


def suite_degenerate(max_grade: int = 5, samples: int = 100, seed: int = 0) -> list[CheckReport]:
    rng = random.Random(seed)
    pairs = _mixed_cases(rng, 2, max_grade, samples, max_grade, coeffs=False)
    triples = _mixed_cases(rng, 3, max_grade, samples, max_grade, coeffs=False)
    singles = _mixed_cases(rng, 1, max_grade, samples, max_grade, coeffs=False)
    reports = []

    reports.append(_run("degenerate", "action-on-unit", singles,
                        lambda x: triangle(x, AlgebroidElement.unit())
                        == AlgebroidElement.iota(counit(x)),
                        max_grade, seed))

    reports.append(_run("degenerate", "unit-acts-trivially", singles,
                        lambda x: triangle(AlgebroidElement.unit(), x) == x,
                        max_grade, seed))

    def action_on_product(x, y, z):
        lhs = triangle(x, concat_mul(y, z))
        rhs = AlgebroidElement.zero()
        for (x1, x2), c in coproduct(x).terms.items():
            rhs = rhs + concat_mul(
                triangle(AlgebroidElement.from_forest(x1), y),
                triangle(AlgebroidElement.from_forest(x2), z)).scale(c)
        return lhs == rhs

    reports.append(_run("degenerate", "action-on-product", triples,
                        action_on_product, max_grade, seed))

    def action_composition(x, y, z):
        lhs = triangle(x, triangle(y, z))
        return lhs == triangle(gl_product(x, y), z)

    reports.append(_run("degenerate", "action-composition", triples,
                        action_composition, max_grade, seed))

    def antipode_commutes(x, y):
        return antipode_concat(triangle(x, y)) == triangle(x, antipode_concat(y))

    reports.append(_run("degenerate", "antipode-commutes-with-action", pairs,
                        antipode_commutes, max_grade, seed))

    def theta_is_gl_antipode(x):
        return theta(x) == gl_antipode(x)

    reports.append(_run("degenerate", "theta-is-gl-antipode", singles,
                        theta_is_gl_antipode, max_grade, seed))

    def concat_hopf(x):
        total = AlgebroidElement.zero()
        for (x1, x2), c in coproduct(x).terms.items():
            total = total + concat_mul(
                antipode_concat(AlgebroidElement.from_forest(x1)),
                AlgebroidElement.from_forest(x2)).scale(c)
        return total == AlgebroidElement.iota(counit(x))

    reports.append(_run("degenerate", "concat-antipode-law", singles,
                        concat_hopf, max_grade, seed))

    return reports


# ---------------------------------------------------------------------------
# Dispatch used by the CLI


SUITES: dict[str, Callable[..., list[CheckReport]]] = {
    "axioms": suite_axioms,
    "gl": suite_gl,
    "theta": suite_theta,
    "smash": suite_smash,
    "degenerate": suite_degenerate,
}
