"""Exact arithmetic in finite fields F_{p^m}.

Elements are residue vectors of length m over F_p, representing classes in
F_p[u]/(mu) for a fixed monic irreducible mu of degree m.  The modulus is
chosen deterministically as the lexicographically least monic irreducible
(scanning constant coefficient first), so a given (p, m) always yields the
same field presentation and serialized elements stay stable across runs.

Because finite fields are perfect, the Frobenius map a -> a^p is an
automorphism of order m; p^k-th powers and p^k-th roots are both iterates
of that automorphism.  It is F_p-linear, so each iterate is one m x m
matrix over F_p, built once per field and applied to residue vectors.
"""

from __future__ import annotations

import threading
from operator import mul

from .errors import ContextMismatch, DegreeTooLarge, NotPrime

MAX_PRIME = 1 << 20
MAX_DEGREE = 12


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# Dense univariate polynomial helpers over F_p (ascending coefficient lists),
# used only for modulus search and element arithmetic.
# ---------------------------------------------------------------------------

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] = (out[i + j] + av * bv) % p
    return _trim(out)


def _pmod(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            for i in range(df + 1):
                a[shift + i] = (a[shift + i] - lead * f[i]) % p
        a.pop()
    return _trim(a)


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # make b monic so _pmod applies
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a, b = bm, _pmod(a, bm, p)
    return a


def _ppowmod(base, exp, f, p):
    result = [1]
    base = _pmod(base, f, p)
    while exp:
        if exp & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        exp >>= 1
    return result


def _frob_powers_mod(f, p, k):
    """u^(p^k) mod f, computed by k successive p-th powers."""
    r = [0, 1]
    for _ in range(k):
        r = _ppowmod(r, p, f, p)
    return r


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _psub_x(a, p):
    """a(u) - u over F_p."""
    out = list(a)
    while len(out) < 2:
        out.append(0)
    out[1] = (out[1] - 1) % p
    return _trim(out)


def _is_irreducible(f, p):
    """Rabin test for a monic f of degree >= 1 over F_p."""
    m = len(f) - 1
    if m == 1:
        return True
    # u^(p^m) == u mod f
    if _psub_x(_frob_powers_mod(f, p, m), p):
        return False
    for q in _prime_factors(m):
        h = _psub_x(_frob_powers_mod(f, p, m // q), p)
        g = _pgcd(list(f), h, p)
        if len(g) - 1 != 0:
            return False
    return True


def _least_irreducible(p, m):
    """Lexicographically least monic irreducible of degree m.

    Candidates u^m + sum c_i u^i are scanned with (c_0, c_1, ...) read as
    the base-p digits of an ascending counter, so the scan is total and
    deterministic.
    """
    for code in range(p ** m):
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % p)
            c //= p
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldContext:
    """Fixed presentation of F_{p^m}; one instance per (p, m) pair."""

    __slots__ = ("p", "m", "modulus", "reduction", "_scaling_array",
                 "_frobenius", "zero", "one", "_u")

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.modulus = _least_irreducible(p, m)
        # reduction[k] = residue vector of u^(m+k), k = 0..m-2
        rows = []
        for k in range(m - 1):
            vec = _pmod([0] * (m + k) + [1], list(self.modulus), p)
            vec = vec + [0] * (m - len(vec))
            rows.append(tuple(vec))
        self.reduction = tuple(rows)
        self._frobenius = None
        self.zero = FieldElement(self, (0,) * m)
        self.one = FieldElement(self, (1,) + (0,) * (m - 1))
        self._u = (FieldElement(self, (0, 1) + (0,) * (m - 2))
                   if m >= 2 else None)

    @property
    def scaling_array(self):
        """Read-only int64 array of shape (m, m, m) for the series kernels:
        entry [j] is the F_p matrix of a -> a * u^j on residue vectors, so
        for c = sum c_j u^j the matrix of a -> c * a is sum c_j [j].

        Row k of [j] is the residue vector of u^(j+k).  Built on first use,
        and its slot stays unset until then, so that fields which never
        reach series code pay nothing for it.
        """
        arr = getattr(self, "_scaling_array", None)
        if arr is None:
            import numpy as np
            m = self.m
            powers = np.vstack([
                np.eye(m, dtype=np.int64),
                np.array(self.reduction, dtype=np.int64).reshape(-1, m)])
            arr = np.stack([powers[j:j + m] for j in range(m)])
            arr.setflags(write=False)
            self._scaling_array = arr
        return arr

    def frobenius_matrix(self, j: int) -> tuple:
        """The F_p matrix of a -> a^(p^j) on residue vectors, as a tuple of
        rows: row k is the residue vector of (u^k)^(p^j).

        a = sum a_k u^k with every a_k in F_p, so a^(p^j) is
        sum a_k (u^k)^(p^j).  Built on first use, cached by j mod m.
        """
        return self._frobenius_entry(j % self.m)[0]

    def _frobenius_entry(self, j):
        """(rows, columns) of frobenius_matrix(j) for 0 <= j < m."""
        entries = self._frobenius
        if entries is None:
            entries = self._frobenius = [None] * self.m
        entry = entries[j]
        if entry is None:
            m = self.m
            if j == 0:
                rows = [tuple(int(i == k) for i in range(m))
                        for k in range(m)]
            elif j == 1:
                # (u^k)^p = (u^p)^k
                up, cur, rows = self._u ** self.p, self.one, []
                for _ in range(m):
                    rows.append(cur.coeffs)
                    cur = cur * up
            else:
                # one more Frobenius step applied to each row of level j-1
                rows = [self._conjugate(row, 1)
                        for row in self._frobenius_entry(j - 1)[0]]
            rows = tuple(rows)
            entry = entries[j] = (rows, tuple(zip(*rows)))
        return entry

    def _conjugate(self, coeffs, j):
        """Residue vector of a^(p^j) from that of a, for 0 <= j < m."""
        p = self.p
        return tuple(sum(map(mul, coeffs, col)) % p
                     for col in self._frobenius_entry(j)[1])

    @property
    def order(self) -> int:
        return self.p ** self.m

    def generator(self) -> "FieldElement":
        """The class of u; only defined for proper extensions (m >= 2)."""
        if self._u is None:
            raise ValueError("prime field has no extension generator")
        return self._u

    def elem(self, value) -> "FieldElement":
        """Coerce an int, residue sequence, or element into this field."""
        if isinstance(value, FieldElement):
            if value.ctx is not self:
                raise ContextMismatch("element from a different field")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.m - 1)
            return FieldElement(self, coeffs)
        coeffs = [v % self.p for v in value]
        if len(coeffs) > self.m:
            raise ValueError("residue vector longer than extension degree")
        coeffs += [0] * (self.m - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def elements(self):
        """Iterate all p^m elements (ascending base-p codes); small fields only."""
        for code in range(self.order):
            coeffs = []
            c = code
            for _ in range(self.m):
                coeffs.append(c % self.p)
                c //= self.p
            yield FieldElement(self, tuple(coeffs))

    def random_element(self, rng) -> "FieldElement":
        return FieldElement(
            self, tuple(rng.randrange(self.p) for _ in range(self.m)))

    def random_nonzero(self, rng) -> "FieldElement":
        while True:
            a = self.random_element(rng)
            if a:
                return a

    def _mul_vectors(self, a, b):
        p, m = self.p, self.m
        if m == 1:
            return ((a[0] * b[0]) % p,)
        wide = [0] * (2 * m - 1)
        for i, av in enumerate(a):
            if av:
                for j, bv in enumerate(b):
                    wide[i + j] += av * bv
        out = [wide[i] % p for i in range(m)]
        for k in range(m - 1):
            c = wide[m + k] % p
            if c:
                row = self.reduction[k]
                for i in range(m):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def __repr__(self):
        if self.m == 1:
            return f"FieldContext(p={self.p})"
        return f"FieldContext(p={self.p}, m={self.m})"


class FieldElement:
    """Immutable element of F_{p^m}; arithmetic is exact."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldContext, coeffs: tuple):
        self.ctx = ctx
        self.coeffs = coeffs

    def _check(self, other) -> "FieldElement":
        if isinstance(other, int):
            return self.ctx.elem(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.ctx is not self.ctx:
            raise ContextMismatch("elements from different field contexts")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ctx.p
        return FieldElement(self.ctx, tuple(
            (a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ctx.p
        return FieldElement(self.ctx, tuple(
            (a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self.ctx.elem(other) - self

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(
            self.ctx, self.ctx._mul_vectors(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.ctx.one
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """a^-1 through the norm (Itoh-Tsujii).

        The conjugates a^(p^j), 0 < j < m, multiply to a^(r-1) with
        r = 1 + p + ... + p^(m-1), and a^r = N(a) lies in F_p, so
        a^-1 = a^(r-1) / N(a) takes one inverse in F_p.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        ctx = self.ctx
        rest = ctx.one
        for j in range(1, ctx.m):
            rest = rest * FieldElement(ctx, ctx._conjugate(self.coeffs, j))
        p = ctx.p
        scale = pow((self * rest).coeffs[0], -1, p)
        return FieldElement(ctx, tuple(c * scale % p for c in rest.coeffs))

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.elem(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        if self.ctx.m == 1:
            return str(self.coeffs[0])
        pieces = []
        for i in range(self.ctx.m - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                pieces.append(str(c))
            else:
                upart = "u" if i == 1 else f"u^{i}"
                pieces.append(upart if c == 1 else f"{c}*{upart}")
        return "+".join(pieces) if pieces else "0"

    def __repr__(self):
        return f"<{self} in F_{self.ctx.p}^{self.ctx.m}>" \
            if self.ctx.m > 1 else f"<{self} in F_{self.ctx.p}>"


_REGISTRY: dict = {}
_REGISTRY_LOCK = threading.Lock()


def make_context(p: int, m: int = 1) -> FieldContext:
    """Return the process-wide context for F_{p^m}; idempotent per (p, m)."""
    if not isinstance(p, int) or p < 2:
        raise NotPrime(f"{p} is not prime")
    if p > MAX_PRIME:
        # bound first: keeps the primality scan cheap for absurd inputs
        raise DegreeTooLarge(f"characteristic {p} exceeds bound {MAX_PRIME}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if not isinstance(m, int) or m < 1 or m > MAX_DEGREE:
        raise DegreeTooLarge(
            f"extension degree {m} outside supported range 1..{MAX_DEGREE}")
    key = (p, m)
    with _REGISTRY_LOCK:
        ctx = _REGISTRY.get(key)
        if ctx is None:
            ctx = FieldContext(p, m)
            _REGISTRY[key] = ctx
    return ctx


def frobenius_pow(a: FieldElement, k: int) -> FieldElement:
    """a^(p^k), an iterate of the Frobenius automorphism."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    ctx = a.ctx
    j = k % ctx.m
    if not j:
        return a
    return FieldElement(ctx, ctx._conjugate(a.coeffs, j))


def pth_root(a: FieldElement, k: int) -> FieldElement:
    """The unique b with b^(p^k) = a; exists because finite fields are perfect."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return frobenius_pow(a, (-k) % a.ctx.m)
