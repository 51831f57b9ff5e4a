"""Identity suites for the algebroid structure.

Each identity is written once, as a module-level predicate on the
operands of one case.  A suite is a list of ``(axiom, cases, predicate)``
rows run in order by ``_run_suite``, exhaustively on small basis data and
on seeded random samples, with one ``CheckReport`` per row.
:mod:`postlie.braiding` builds its suite on the same runner, so this
module imports nothing from it; the registry ``SUITES`` of all six suites
lives in :mod:`postlie.cli`, whose ``algebra check`` prints their
reports.  The test suite asserts on them.  Keeping them here means CI
can run every suite without going through the CLI.

Conventions: "exhaustive up to grade G" ranges over tuples of basis
forests whose *total* grade is at most G (the bound controls problem
size, so it applies to the whole operand tuple).  The random samples of
this module's suites bound each operand's grade on its own, not the
tuple's: every slot of a sampled case is ``random_element(rng,
sample_grade)``.  Exhaustive operands are dressed with random
coefficient polynomials where the identity involves coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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
from .trees import (DEFAULT_MAX_GRADE, CapacityError, Forest, forests_of_grade,
                    trees_of_size)


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
        out = out + CoeffPoly({tuple(gens): random_scalar(rng)})
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


#: One identity of a suite: its name, its cases, and the predicate that
#: says whether the identity holds on the operands of one case.
Row = tuple[str, Iterable[tuple], Callable[..., bool]]


def _run_suite(suite: str, rows: Sequence[Row], max_grade: int,
               seed: int) -> list[CheckReport]:
    """Run each row's predicate over its cases, row by row, in order.

    A row's cases may be a generator: it is drawn from only when its row
    runs, after every earlier predicate has taken its own draws.
    """
    reports = []
    for axiom, cases, check in rows:
        n = 0
        failures = 0
        witness = None
        for case in cases:
            n += 1
            if not check(*case):
                failures += 1
                if witness is None:
                    witness = ";".join(str(c) for c in case)
        reports.append(CheckReport(suite, axiom, n, failures, max_grade, seed, witness))
    return reports


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
# Identities.  Each is written once and named after the axiom it checks;
# the ones that draw a random coefficient take the suite's generator first.


def coproduct_respects(op, x: AlgebroidElement, y: AlgebroidElement) -> bool:
    """coproduct(op(x, y)) = sum op(x1, y1) (x) op(x2, y2)."""
    lhs = coproduct(op(x, y))
    rhs = TensorElement.zero()
    for x1, x2 in sweedler_pairs(x):
        for y1, y2 in sweedler_pairs(y):
            rhs = rhs + TensorElement.of(op(x1, y1), op(x2, y2))
    return lhs == rhs


def action_on_unit(x):
    return triangle(x, AlgebroidElement.unit()) == AlgebroidElement.iota(counit(x))


def unit_acts_trivially(x):
    return triangle(AlgebroidElement.unit(), x) == x


def counit_of_action(x, y):
    return (triangle(x, AlgebroidElement.iota(counit(y)))
            == AlgebroidElement.iota(counit(triangle(x, y))))


def left_coefficients_factor(rng, x, y):
    f = random_poly(rng)
    return triangle(x.scale(f), y) == triangle(x, y).scale(f)


def action_on_product(x, y, z):
    lhs = triangle(x, concat_mul(y, z))
    rhs = AlgebroidElement.zero()
    for (x1, x2), c in coproduct(x).terms.items():
        rhs = rhs + concat_mul(
            triangle(AlgebroidElement.from_forest(x1), y),
            triangle(AlgebroidElement.from_forest(x2), z)).scale(c)
    return lhs == rhs


def action_composition(x, y, z):
    """x > (y > z) = sum (x1 * (x2 > y)) > z."""
    lhs = triangle(x, triangle(y, z))
    rhs = AlgebroidElement.zero()
    for (x1, x2), c in coproduct(x).terms.items():
        inner = concat_mul(
            AlgebroidElement.from_forest(x1),
            triangle(AlgebroidElement.from_forest(x2), y))
        rhs = rhs + triangle(inner, z).scale(c)
    return lhs == rhs


def action_lands_in_scalars(rng, x):
    f = random_poly(rng)
    v = triangle(x, AlgebroidElement.iota(f))
    return v == AlgebroidElement.iota(counit(v))


def scalars_act_by_multiplication(rng, x):
    f = random_poly(rng)
    return triangle(AlgebroidElement.iota(f), x) == x.scale(f)


def associativity(x, y, z):
    return gl_product(gl_product(x, y), z) == gl_product(x, gl_product(y, z))


def gl_unit(x):
    return (gl_product(AlgebroidElement.unit(), x) == x
            and gl_product(x, AlgebroidElement.unit()) == x)


def counit_laws(x):
    lhs = AlgebroidElement.zero()
    rhs = AlgebroidElement.zero()
    for (x1, x2), c in coproduct(x).terms.items():
        lhs = lhs + AlgebroidElement.from_forest(x2).scale(
            c * counit(AlgebroidElement.from_forest(x1)))
        rhs = rhs + AlgebroidElement.from_forest(x1).scale(
            c * counit(AlgebroidElement.from_forest(x2)))
    return lhs == x and rhs == x


def counit_of_product(x, y):
    return counit(gl_product(x, y)) == counit(
        gl_product(x, AlgebroidElement.iota(counit(y))))


def action_is_module(x, y, z):
    """(x * y) > z = x > (y > z)."""
    return triangle(gl_product(x, y), z) == triangle(x, triangle(y, z))


def right_inverse(x):
    total = AlgebroidElement.zero()
    for x1, x2 in sweedler_pairs(x):
        total = total + gl_product(x1, theta(x2))
    return total == AlgebroidElement.iota(counit(x))


def left_inverse(x):
    total = AlgebroidElement.zero()
    for x1, x2 in sweedler_pairs(x):
        total = total + gl_product(theta(x1), x2)
    return total == AlgebroidElement.iota(counit(theta(x)))


def anti_automorphism(x, y):
    return theta(gl_product(x, y)) == gl_product(theta(y), theta(x))


def involution(x):
    return theta(theta(x)) == x


def theta_coproduct_compatible(x):
    lhs = coproduct(theta(x))
    rhs = TensorElement.zero()
    for (x1, x2), c in coproduct(x).terms.items():
        rhs = rhs + TensorElement.of(
            theta(AlgebroidElement.from_forest(x1, c)),
            theta(AlgebroidElement.from_forest(x2)))
    return lhs == rhs


def coefficient_twist(rng, x):
    """theta(f x) = sum (theta(x1) > iota(f)) theta(x2)."""
    f = random_poly(rng)
    lhs = theta(x.scale(f))
    rhs = AlgebroidElement.zero()
    for x1, x2 in sweedler_pairs(x):
        rhs = rhs + concat_mul(
            triangle(theta(x1), AlgebroidElement.iota(f)), theta(x2))
    return lhs == rhs


def concat_antipode_identity(x):
    lhs = antipode_concat(x)
    rhs = AlgebroidElement.zero()
    for x1, x2 in sweedler_pairs(x):
        rhs = rhs + triangle(x1, theta(x2))
    return lhs == rhs


def recovers_from_concat_antipode(x):
    lhs = theta(x)
    rhs = AlgebroidElement.zero()
    for x1, x2 in sweedler_pairs(x):
        rhs = rhs + triangle(theta(x1), antipode_concat(x2))
    return lhs == rhs


def counit_of_theta(x):
    lhs = AlgebroidElement.iota(counit(theta(x)))
    rhs = AlgebroidElement.zero()
    for x1, x2 in sweedler_pairs(x):
        rhs = rhs + triangle(theta(x1), AlgebroidElement.iota(counit(x2)))
    return lhs == rhs


def concat_product_recovery(x, y):
    lhs = concat_mul(x, y)
    rhs = AlgebroidElement.zero()
    for x1, x2 in sweedler_pairs(x):
        rhs = rhs + gl_product(x1, triangle(theta(x2), y))
    return lhs == rhs


def counit_recovery(x):
    rhs = AlgebroidElement.zero()
    for x1, x2 in sweedler_pairs(x):
        rhs = rhs + gl_product(x1, AlgebroidElement.iota(counit(theta(x2))))
    return rhs == x


def theta_fixes(x):
    return theta(x) == x


def gl_factors_through_coefficient_action(wa, wb, f, g):
    lhs = gl_product(AlgebroidElement.from_forest(wa, f),
                     AlgebroidElement.from_forest(wb, g))
    rhs = AlgebroidElement.zero()
    for a1, a2, m in word_splits(wa):
        coeff = word_action({a1: 1}, g)
        part = gl_product(AlgebroidElement.from_forest(a2),
                          AlgebroidElement.from_forest(wb))
        rhs = rhs + part.scale(f * coeff).scale(m)
    return lhs == rhs


def antipode_commutes_with_action(x, y):
    return antipode_concat(triangle(x, y)) == triangle(x, antipode_concat(y))


def theta_is_gl_antipode(x):
    return theta(x) == gl_antipode(x)


def concat_antipode_law(x):
    total = AlgebroidElement.zero()
    for (x1, x2), c in coproduct(x).terms.items():
        total = total + concat_mul(
            antipode_concat(AlgebroidElement.from_forest(x1)),
            AlgebroidElement.from_forest(x2)).scale(c)
    return total == AlgebroidElement.iota(counit(x))


# ---------------------------------------------------------------------------
# Suites.  Each default is a suite's acceptance-gate size; ``algebra check``
# reads its defaults from these signatures.


def suite_axioms(max_grade: int = 3, samples: int = 200, sample_grade: int = 4,
                 seed: int = 0) -> list[CheckReport]:
    """Weak post-Hopf axioms of the triangle action."""
    rng = random.Random(seed)
    pairs = _mixed_cases(rng, 2, max_grade, samples, sample_grade)
    triples = _mixed_cases(rng, 3, max_grade, samples, sample_grade)
    singles = _mixed_cases(rng, 1, max_grade, samples, sample_grade)
    return _run_suite("axioms", [
        ("coproduct-of-action", pairs, partial(coproduct_respects, triangle)),
        ("action-on-unit", singles, action_on_unit),
        ("unit-acts-trivially", singles, unit_acts_trivially),
        ("counit-of-action", pairs, counit_of_action),
        ("left-coefficients-factor", pairs, partial(left_coefficients_factor, rng)),
        ("action-on-product", triples, action_on_product),
        ("action-composition", triples, action_composition),
        ("action-lands-in-scalars", singles, partial(action_lands_in_scalars, rng)),
        ("scalars-act-by-multiplication", singles,
         partial(scalars_act_by_multiplication, rng)),
    ], max_grade, seed)


def suite_gl(max_grade: int = 4, samples: int = 200, sample_grade: int = 4,
             seed: int = 0) -> list[CheckReport]:
    """Grossman-Larson structure."""
    rng = random.Random(seed)
    pairs = _mixed_cases(rng, 2, max_grade, samples, sample_grade)
    triples = _mixed_cases(rng, 3, max_grade, samples // 2, sample_grade)
    singles = _mixed_cases(rng, 1, max_grade, samples, sample_grade)
    return _run_suite("gl", [
        ("associativity", triples, associativity),
        ("unit", singles, gl_unit),
        ("coproduct-multiplicative", pairs, partial(coproduct_respects, gl_product)),
        ("counit-laws", singles, counit_laws),
        ("counit-of-product", pairs, counit_of_product),
        ("action-is-module", triples, action_is_module),
    ], max_grade, seed)


def suite_theta(max_grade: int = 3, samples: int = 100, sample_grade: int = 3,
                seed: int = 0) -> list[CheckReport]:
    """theta, the twisted antipode."""
    rng = random.Random(seed)
    pairs = _mixed_cases(rng, 2, max_grade, samples, sample_grade)
    singles = _mixed_cases(rng, 1, max_grade, samples, sample_grade)
    # Drawn lazily, after coefficient-twist has taken its draws.
    scalars = ((AlgebroidElement.iota(random_poly(rng)),) for _ in range(50))
    return _run_suite("theta", [
        ("right-inverse", singles, right_inverse),
        ("left-inverse", singles, left_inverse),
        ("anti-automorphism", pairs, anti_automorphism),
        ("involution", singles, involution),
        ("coproduct-compatible", singles, theta_coproduct_compatible),
        ("coefficient-twist", singles, partial(coefficient_twist, rng)),
        ("concat-antipode-identity", singles, concat_antipode_identity),
        ("recovers-from-concat-antipode", singles, recovers_from_concat_antipode),
        ("counit-of-theta", singles, counit_of_theta),
        ("concat-product-recovery", pairs, concat_product_recovery),
        ("counit-recovery", singles, counit_recovery),
        ("fixes-scalars", scalars, theta_fixes),
    ], max_grade, seed)


def suite_smash(max_grade: int = 3, samples: int = 200, seed: int = 0) -> list[CheckReport]:
    """Smash-product shape of the gl product, on words and coefficients."""
    rng = random.Random(seed)
    cases = []
    for wa, wb in basis_tuples(max_grade, 2):
        cases.append((wa, wb, random_poly(rng), random_poly(rng)))
    for _ in range(samples):
        cases.append((random_forest(rng, max_grade), random_forest(rng, max_grade),
                      random_poly(rng), random_poly(rng)))
    return _run_suite("smash", [
        ("gl-factors-through-coefficient-action", cases,
         gl_factors_through_coefficient_action),
    ], max_grade, seed)


def suite_degenerate(max_grade: int = 5, samples: int = 100, seed: int = 0) -> list[CheckReport]:
    """Degenerate coefficients (all derivations vanish): rational scalars
    only, samples up to max_grade."""
    rng = random.Random(seed)
    pairs = _mixed_cases(rng, 2, max_grade, samples, max_grade, coeffs=False)
    triples = _mixed_cases(rng, 3, max_grade, samples, max_grade, coeffs=False)
    singles = _mixed_cases(rng, 1, max_grade, samples, max_grade, coeffs=False)
    return _run_suite("degenerate", [
        ("action-on-unit", singles, action_on_unit),
        ("unit-acts-trivially", singles, unit_acts_trivially),
        ("action-on-product", triples, action_on_product),
        ("action-composition", triples, action_is_module),
        ("antipode-commutes-with-action", pairs, antipode_commutes_with_action),
        ("theta-is-gl-antipode", singles, theta_is_gl_antipode),
        ("concat-antipode-law", singles, concat_antipode_law),
    ], max_grade, seed)
