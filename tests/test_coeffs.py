"""Aroma coefficient polynomials: exact commutative ring with derivations."""

from __future__ import annotations

import copy
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from postlie.coeffs import AromaGenerator, CoeffPoly
from postlie.trees import LEAF, parse_tree

G = AromaGenerator("g")
H = AromaGenerator("h")
T2 = parse_tree("[o]")

gens = st.sampled_from([G, H, G.derive(LEAF), H.derive(T2)])
scalars = st.integers(min_value=-4, max_value=4).map(lambda n: Fraction(n, 3))
monomial_polys = st.lists(gens, min_size=0, max_size=2).map(
    lambda gs: CoeffPoly({tuple(sorted(gs, key=lambda g: g.sort_key)): 1})
)
polys = st.lists(
    st.tuples(monomial_polys, scalars), min_size=0, max_size=3
).map(lambda ps: sum((m.scale(c) for m, c in ps), CoeffPoly.zero()))


# -- generators


def test_generator_identity_ignores_grading():
    assert AromaGenerator("g", base_degree=2) == AromaGenerator("g")
    assert AromaGenerator("g") != AromaGenerator("h")
    assert AromaGenerator("g", base_degree=2).degree == 2


def test_derive_appends_and_interns():
    d = G.derive(LEAF)
    assert d.applied == (LEAF,)
    assert d.degree == 1
    assert d is G.derive(LEAF)
    assert d.derive(T2).degree == 3


def test_generators_are_interned():
    assert AromaGenerator("g") is G
    assert AromaGenerator("g", (LEAF,)) is G.derive(LEAF)
    # The grading is part of the intern key but not of equality.
    graded = AromaGenerator("g", base_degree=2)
    assert graded is AromaGenerator("g", (), 2)
    assert graded is not G and graded == G and hash(graded) == hash(G)
    for gen in (G, G.derive(LEAF).derive(T2), graded):
        assert copy.copy(gen) is gen
        assert copy.deepcopy(gen) is gen
        assert pickle.loads(pickle.dumps(gen)) is gen


def test_concurrent_derivation_gives_one_generator_per_value():
    # A base symbol no other test uses, so every thread races to intern,
    # and a long derivation history makes each generator slow to build.
    letters = [parse_tree("[" + "o" * k + "]") for k in range(1, 21)]
    base = AromaGenerator("race", tuple(letters) * 5)
    n_threads = 4
    results = [None] * n_threads
    start = threading.Barrier(n_threads)

    def work(k):
        start.wait()
        out = []
        for a in letters:
            for b in letters:
                out.append(base.derive(a).derive(b))
        results[k] = out

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for i in range(len(results[0])):
        assert len({id(r[i]) for r in results}) == 1


def test_concurrent_interning_gives_distinct_ranks():
    # Threads race to intern shared generators (one derivation history per
    # round) and their own ones, reading each rank as soon as they get the
    # generator: every rank must be drawn before the generator is
    # published, and each must name one interned object.
    letters = [parse_tree("[" + "o" * k + "]") for k in range(1, 31)]
    bases = [AromaGenerator(f"rank-race-{r}", tuple(letters) * 3) for r in range(8)]
    n_threads = 4
    results = [None] * n_threads
    start = threading.Barrier(n_threads)

    def work(k):
        start.wait()
        out = []
        for r, base in enumerate(bases):
            own = AromaGenerator(f"rank-race-{r}-{k}")
            for a in letters:
                d = base.derive(a)
                for b in letters:
                    out.append((d.rank, d.derive(b).rank))
                    own.derive(a).derive(b).rank
        results[k] = out

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results[0] is not None
    assert all(r == results[0] for r in results)
    interned = list(AromaGenerator._interned.values())
    table = AromaGenerator._by_rank
    assert len({g.rank for g in interned}) == len(interned) == len(table)
    assert all(table[g.rank] is g for g in interned)


def test_generator_str():
    assert str(G) == "g"
    assert str(G.derive(LEAF).derive(T2)) == "g^(o,[o])"


# -- ring structure


def test_constants():
    assert CoeffPoly.zero().is_zero()
    assert CoeffPoly.one().is_constant()
    assert CoeffPoly.scalar(Fraction(2, 3)).constant_value() == Fraction(2, 3)
    assert CoeffPoly.scalar(0) == CoeffPoly.zero()


def test_exact_fractions():
    third = CoeffPoly.scalar(Fraction(1, 3))
    assert (third + third + third) == CoeffPoly.one()


def test_generator_constructor():
    assert CoeffPoly.generator("g") == CoeffPoly.generator(G)
    assert CoeffPoly.generator("g", base_degree=2).degree() == 2


def test_known_product():
    g = CoeffPoly.generator(G)
    h = CoeffPoly.generator(H)
    p = (g + h) * (g - h)
    assert p == g * g - h * h


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CoeffPoly.zero() == a
    assert a * CoeffPoly.one() == a
    assert a - a == CoeffPoly.zero()


@given(polys)
def test_scale_matches_mul(a):
    assert a.scale(Fraction(5, 7)) == CoeffPoly.scalar(Fraction(5, 7)) * a
    assert 3 * a == a + a + a


# -- derivations


def test_leibniz_on_generators():
    g = CoeffPoly.generator(G)
    h = CoeffPoly.generator(H)
    d = (g * h).derive(LEAF)
    assert d == CoeffPoly.generator(G.derive(LEAF)) * h + g * CoeffPoly.generator(
        H.derive(LEAF)
    )


def test_derive_kills_constants():
    assert CoeffPoly.scalar(Fraction(7, 2)).derive(LEAF).is_zero()


@given(polys, polys)
def test_derive_is_linear_leibniz(a, b):
    assert (a + b).derive(T2) == a.derive(T2) + b.derive(T2)
    assert (a * b).derive(T2) == a.derive(T2) * b + a * b.derive(T2)


# -- grading and display


def test_degree_tracking():
    # One grading per base symbol: reuse of "g" at another degree would pick
    # up generators interned elsewhere, so grade a fresh name.
    k2 = CoeffPoly.generator(AromaGenerator("k", base_degree=2))
    assert k2.degree() == 2
    assert (k2 * k2).degree() == 4
    assert k2.derive(T2).degree() == 4
    assert k2.is_homogeneous(2)
    assert not (k2 + CoeffPoly.one()).is_homogeneous(2)


def test_str_is_deterministic():
    g = CoeffPoly.generator(G)
    h = CoeffPoly.generator(H)
    assert str(g * h + h * g) == str(g * h * CoeffPoly.scalar(2))


def test_sorted_terms_ordering():
    g = CoeffPoly.generator(G)
    h = CoeffPoly.generator(H)
    terms = (h + g * g).sorted_terms()
    assert len(terms) == 2
    assert all(isinstance(c, Fraction) for _, c in terms)


# -- integer coefficients against an all-Fraction reference


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2, key=lambda g: g.sort_key))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_derive(a, tau):
    out = {}
    for mono, c in a.items():
        for i, gen in enumerate(mono):
            m = tuple(sorted(mono[:i] + (gen.derive(tau),) + mono[i + 1:],
                             key=lambda g: g.sort_key))
            out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _random_scalar(rng):
    # Integral and fractional values whose products and sums often cancel
    # every denominator.
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 6)))


def _random_pair(rng):
    """A random poly as (CoeffPoly, all-Fraction reference dict)."""
    ref = {}
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.4:
            mono = ()
        else:
            gens = [rng.choice((G, H, G.derive(LEAF), H.derive(T2)))
                    for _ in range(rng.randint(1, 2))]
            mono = tuple(sorted(gens, key=lambda g: g.sort_key))
        ref = _ref_add(ref, {mono: _random_scalar(rng)})
    spelled = {m: (int(c) if c.denominator == 1 and rng.random() < 0.5 else c)
               for m, c in ref.items()}
    return CoeffPoly(spelled), ref


def _assert_matches(p, ref):
    assert {m: Fraction(c) for m, c in p.terms.items()} == ref
    for c in p.terms.values():
        assert type(c) in (int, Fraction)
        assert (type(c) is int) == (Fraction(c).denominator == 1)
    assert all(type(c) is Fraction for _, c in p.sorted_terms())
    if p.is_constant():
        assert type(p.constant_value()) is Fraction
        assert p.constant_value() == ref.get((), Fraction(0))


def test_integer_coefficients_match_fraction_reference():
    rng = random.Random(20061)
    for _ in range(500):
        p, ref = _random_pair(rng)
        _assert_matches(p, ref)
        for _ in range(rng.randint(1, 4)):
            op = rng.choice(("add", "mul", "scale", "derive"))
            if op == "add":
                q, qref = _random_pair(rng)
                p, ref = p + q, _ref_add(ref, qref)
            elif op == "mul":
                q, qref = _random_pair(rng)
                p, ref = p * q, _ref_mul(ref, qref)
            elif op == "scale":
                c = _random_scalar(rng)
                if c.denominator == 1 and rng.random() < 0.5:
                    c = int(c)
                p, ref = p.scale(c), _ref_mul(ref, {(): Fraction(c)} if c else {})
            else:
                tau = rng.choice((LEAF, T2))
                p, ref = p.derive(tau), _ref_derive(ref, tau)
            _assert_matches(p, ref)


# -- the integer form: rank monomials over one denominator


def _assert_lowest_terms(p):
    assert p.den > 0
    assert all(p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    for m in p.num:
        assert list(m) == sorted(m)


def test_lowest_terms_and_canonical_equality():
    rng = random.Random(15015)
    for _ in range(300):
        p, ref = _random_pair(rng)
        for _ in range(rng.randint(1, 5)):
            op = rng.choice(("add", "sub", "neg", "mul", "scale", "derive"))
            if op in ("add", "sub", "mul"):
                q, qref = _random_pair(rng)
                if op == "add":
                    p, ref = p + q, _ref_add(ref, qref)
                elif op == "sub":
                    p, ref = p - q, _ref_add(ref, {m: -c for m, c in qref.items()})
                else:
                    p, ref = p * q, _ref_mul(ref, qref)
            elif op == "neg":
                p, ref = -p, {m: -c for m, c in ref.items()}
            elif op == "scale":
                c = _random_scalar(rng)
                p, ref = p.scale(c), _ref_mul(ref, {(): c} if c else {})
            else:
                tau = rng.choice((LEAF, T2))
                p, ref = p.derive(tau), _ref_derive(ref, tau)
            _assert_lowest_terms(p)
            _assert_matches(p, ref)
        # Equal values built by different routes share one form.
        b, _ = _random_pair(rng)
        for other in ((p + b) - b, p.scale(2).scale(Fraction(1, 2)),
                      CoeffPoly(dict(p.terms))):
            _assert_lowest_terms(other)
            assert other == p and hash(other) == hash(p)


def test_rank_monomials_split_generators_equal_up_to_grading():
    # A rank belongs to one interned object: generators that differ only in
    # base_degree are equal, yet their monomials are not.
    graded = AromaGenerator("g", base_degree=2)
    assert graded == G and graded.rank != G.rank
    assert AromaGenerator._by_rank[graded.rank] is graded
    p, q = CoeffPoly.generator(graded), CoeffPoly.generator(G)
    assert p != q
    assert (p.degree(), q.degree()) == (2, 0)
    assert len((p + q).num) == 2


def test_pickle_carries_generators_not_ranks():
    # Ranks follow the order in which a process interns generators, so a
    # pickled polynomial must be rebuilt from its generator form.
    p = (CoeffPoly.generator(H.derive(T2)) * CoeffPoly.generator(G)).scale(Fraction(2, 3))
    p = p + CoeffPoly.one()
    code = ("import pickle, sys\n"
            "from postlie.coeffs import AromaGenerator\n"
            "for name in 'zyxh': AromaGenerator(name)\n"
            "print(pickle.loads(sys.stdin.buffer.read()))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(p),
                          capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == str(p)
