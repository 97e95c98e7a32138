"""`multiplier`: pushforward and maps inverse to Frobenius, no series.

Each op is one seeded case over F_{p^m}[x_1..x_n] at level e, with
p <= 7, m <= 3, n <= 3 and q^n <= 4096 where q = p^e.  Every answer is
known by construction:

* f is assembled from chosen components f_rho as sum f_rho^q * x^rho, so
  decompose must return exactly those components and recompose must give
  back f;
* a multiplier g = sum d_j^q * h_j^q * x^(top - rho_j), top = q - 1, sends
  f to sum d_j * h_j * f_(rho_j);
* a composite map must agree with the chained maps on f;
* g is a splitting exactly when its only term with every exponent
  congruent to top mod q is x^top with coefficient 1;
* a term gamma of g meets a generator u of a monomial ideal I in exactly
  one reduced monomial b = (top - gamma - u) mod q, where the map gives the
  monomial x^((gamma + u + b - top) / q); the map is compatible with I
  exactly when all those monomials lie in I.  The canonical splitting is
  compatible with every squarefree monomial ideal (full enumeration of the
  basis), and a random multiplier is checked against an ideal it is not
  compatible with (early exit).

Ops come in rounds of fixed size tiers by the number of basis monomials the
compatible check enumerates; the (p, m, n, e) of each slot cycles through
every combination of its tier in a fixed order, so every seed runs the
same mix and a seed only changes the polynomials and ideals.
"""

from __future__ import annotations

import itertools
import random

from harness import Op

PRIMES = (2, 3, 5, 7)
DEGREES = (1, 2, 3)
MAX_BASIS = 4096
# Tier t: the compatible check applies the map to between 2 * 4^t and
# 8 * 4^t products u * b (basis size times generators).
TIERS = 6
ROUND = (5, 0, 2, 1, 4, 3, 0, 2, 1, 4, 3)


def _tier(applies):
    t = 0
    while applies >= 8 * 4 ** t:
        t += 1
    return t


def _combos():
    """tier -> [(p, m, n, e, generators)] in a fixed order."""
    out = {t: [] for t in range(TIERS)}
    for p in PRIMES:
        for n in (1, 2, 3):
            e = 1
            while p ** (e * n) <= MAX_BASIS:
                for m in DEGREES:
                    for gens in range(1, n + 1):
                        t = _tier(p ** (e * n) * gens)
                        if t < TIERS:
                            out[t].append((p, m, n, e, gens))
                e += 1
    rng = random.Random(0)
    for combos in out.values():
        rng.shuffle(combos)
    return out


def _slots():
    combos = _combos()
    turn = {t: 0 for t in combos}
    while True:
        for t in ROUND:
            yield combos[t][turn[t] % len(combos[t])]
            turn[t] += 1


def compatible_by_residues(g, generators, q):
    """Closed-form compatibility of the map with multiplier g (level with
    q = p^e) and the monomial ideal with these generators."""
    top = q - 1
    for u in generators:
        for gamma in g.terms:
            image = tuple((gi + ui + (top - gi - ui) % q - top) // q
                          for gi, ui in zip(gamma, u))
            if not any(all(a <= b for a, b in zip(gen, image))
                       for gen in generators):
                return False
    return True


class Case:
    """Inputs of one op and the answers they must give."""

    def __init__(self, charp, ctx, rng, n, e, gens):
        self.charp = charp
        MultiPoly = charp.MultiPoly
        self.ctx = ctx
        p = ctx.p
        self.n, self.e = n, e
        q = self.q = p ** e
        top = q - 1
        rhos = rng.sample(list(itertools.product(range(q), repeat=n)),
                          min(q ** n, rng.randint(1, 4)))

        def small():
            return self._small(rng, 3, 2)

        # f from its components
        self.components = {rho: small() for rho in rhos}
        terms = {}
        for rho, part in self.components.items():
            for beta, c in part.terms.items():
                terms[tuple(q * b + r for b, r in zip(beta, rho))] = c ** q
        self.f = MultiPoly(ctx, n, terms)

        # a multiplier with a known image of f
        terms, want = {}, MultiPoly.zero(ctx, n)
        for rho in rng.sample(list(itertools.product(range(q), repeat=n)),
                              min(q ** n, rng.randint(1, 3))):
            h, d = small(), ctx.random_nonzero(rng)
            for beta, c in h.terms.items():
                terms[tuple(q * b + top - r for b, r in zip(beta, rho))] = \
                    (d * c) ** q
            if rho in self.components:
                want = want + h * self.components[rho] * d
        self.g = MultiPoly(ctx, n, terms)
        self.image = want

        # maps to compose
        self.outer = charp.CartierMap(rng.randint(1, 2), small())
        self.inner = charp.CartierMap(rng.randint(1, 2), small())

        # a candidate splitting: x^top times c, plus terms off the top
        # residue, plus sometimes a term on it
        c = ctx.one if rng.random() < 0.6 else ctx.random_nonzero(rng)
        terms = {(top,) * n: c}
        for _ in range(rng.randint(0, 2)):
            exp = [rng.randrange(2 * q) for _ in range(n)]
            if all(a % q == top for a in exp):
                exp[0] = (exp[0] + 1) % (2 * q)
            terms[tuple(exp)] = ctx.random_nonzero(rng)
        self.splits = c == ctx.one
        if rng.random() < 0.2:
            terms[tuple(top + q * rng.randint(1, 2) for _ in range(n))] = \
                ctx.random_nonzero(rng)
            self.splits = False
        self.split_g = MultiPoly(ctx, n, terms)

        # the canonical splitting against a squarefree ideal
        self.canonical = charp.canonical_splitting(ctx, n, e)
        squarefree = [s for s in itertools.product((0, 1), repeat=n)
                      if any(s)]
        self.sq_gens = rng.sample(squarefree, gens)
        if not compatible_by_residues(self.canonical.g, self.sq_gens, q):
            raise AssertionError("canonical splitting not compatible with "
                                 f"{self.sq_gens}")

        # a random multiplier against an ideal it is not compatible with
        while True:
            bad_g = self._small(rng, 3, 2 * q)
            bad_gens = [tuple(rng.randint(0, 3) for _ in range(n))
                        for _ in range(rng.randint(1, 2))]
            if any(map(any, bad_gens)) and all(any(u) for u in bad_gens) \
                    and not compatible_by_residues(bad_g, bad_gens, q):
                break
        self.bad = charp.CartierMap(e, bad_g)
        self.bad_gens = bad_gens

    def _small(self, rng, max_terms, max_exp):
        """A nonzero polynomial with up to max_terms terms."""
        ctx, n = self.ctx, self.n
        terms = {tuple(rng.randrange(max_exp + 1) for _ in range(n)):
                 ctx.random_nonzero(rng)
                 for _ in range(rng.randint(1, max_terms))}
        return self.charp.MultiPoly(self.ctx, n, terms)

    def key(self):
        return (self.ctx.p, self.ctx.m, self.n, self.e, self.f, self.g)

    def run(self):
        """The op: every step on this case, returning what it computed."""
        charp, e = self.charp, self.e
        MonomialIdeal = charp.MonomialIdeal
        d = charp.decompose(self.f, e)
        composite = charp.compose(self.outer, self.inner)
        return {
            "components": d.components,
            "recomposed": d.recompose(),
            "image": charp.CartierMap(e, self.g).apply(self.f),
            "composite_e": composite.e,
            "composite": composite.apply(self.f),
            "chained": self.outer.apply(self.inner.apply(self.f)),
            "splits": charp.CartierMap(e, self.split_g).is_splitting(),
            "compatible": charp.check_compatible(
                self.canonical, MonomialIdeal(self.n, self.sq_gens)),
            "incompatible": charp.check_compatible(
                self.bad, MonomialIdeal(self.n, self.bad_gens)),
        }

    def check(self, got):
        want = {
            "components": self.components,
            "recomposed": self.f,
            "image": self.image,
            "composite_e": self.outer.e + self.inner.e,
            "composite": got["chained"],
            "splits": self.splits,
            "compatible": True,
            "incompatible": False,
        }
        wrong = [name for name, value in want.items() if got[name] != value]
        return f"wrong {', '.join(wrong)}" if wrong else None


class Workload:
    """The `multiplier` workload for run.py."""

    limit_s = 10.0
    trace_ops = 500
    children = False
    excluded = [{
        "case": "check_compatible with p^(e*n) above 4096, e.g. "
                "cartier compat --p 2 --vars 3 --e 6",
        "reason": "basis enumeration raises SizeBound above 2^16 and costs "
                  "seconds near it; ROADMAP item 4 replaces it with the "
                  "closed form, so such cases would make a giant op today",
    }]

    def __init__(self, charp, root):
        self.charp = charp

    def setup(self, seed):
        """Field contexts built afresh, as a new process builds them."""
        return {(p, m): self.charp.FieldContext(p, m)
                for p in PRIMES for m in DEGREES}

    def warmup(self, state, seed, in_process=False):
        return list(itertools.islice(self.ops(state, seed, "warmup"),
                                     2 * len(ROUND)))

    def ops(self, state, seed, stream, in_process=True):
        rng = random.Random(f"multiplier:{seed}:{stream}")
        for p, m, n, e, gens in _slots():
            case = Case(self.charp, state[(p, m)], rng, n, e, gens)
            yield Op("multiplier.case", case.key(), case.run, case.check)
