"""Exact arithmetic for finite abelian groups, the cyclic module action, characters.

The acting group is cyclic, K = <theta>.  ModuleAction.matrices, the one
read-only int64 stack of theta^0 .. theta^(|K|-1), owns theta's powers:
the table of automorphisms that the semidirect context reads is a read of
it, the order check reads theta^|K| as theta times its last entry, and the
tower model and the probes' module tables read it directly.  An orbit is
one product of the stack with an element, and an orbit average takes the
character at those |K| images with one more.

Everything here is integer/rational arithmetic: group elements are residue
vectors, a character value e^{2 pi i e/N} is its exponent e in Z/N (N the
group exponent), and averages of characters over orbits are kept as integer
polynomials in a primitive root of unity, reduced modulo the corresponding
cyclotomic polynomial.  No floating point enters any equality decision.

ENUMERATION_CAP is the one bound on full enumerations: every routine that
lists the elements of a group, a subgroup, the power stack (and so an
orbit) or a character group compares the size with it and refuses
(SizeCapError) before allocating.  Array products of residues are refused
the same way when their sums could pass the int64 range.

orbit_traces is the one walk of the trace partition of a subgroup, the
classes orbit(d) & D whose sizes the spectral multiplicities realize;
module_factory's AlgebraicTriple keeps it for D, a coordinate subgroup it
builds, so it skips the subgroup check, and orbit_trace_counts is the set
of its class sizes.
"""

from __future__ import annotations

import cmath
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod

import numpy as np

from .errors import (
    CharacterTypeError,
    InvalidElementError,
    InvalidSubgroupError,
    SizeCapError,
)

#: Bound on full enumerations (elements of a group, dual groups, ...).
ENUMERATION_CAP = 10**6
_INT64_MAX = np.iinfo(np.int64).max

Element = tuple[int, ...]


# ---------------------------------------------------------------------------
# groups and automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct sum of cyclic groups Z/n_1 + ... + Z/n_r; elements are residue vectors."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders or any(n < 1 for n in self.orders):
            raise ValueError(f"orders must be positive, got {self.orders}")
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        return prod(self.orders)

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.orders)

    def zero(self) -> Element:
        return (0,) * self.rank

    def contains(self, a) -> bool:
        if not isinstance(a, tuple) or len(a) != len(self.orders):
            return False
        for x, n in zip(a, self.orders):
            # a bool is an int but no coordinate; a plain int skips both isinstance tests
            if (type(x) is not int and (isinstance(x, bool) or not isinstance(x, int))
                    or not 0 <= x < n):
                return False
        return True

    def check(self, a) -> Element:
        if not self.contains(a):
            raise InvalidElementError(f"{a!r} is not an element of {self}")
        return a

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % n for x, y, n in zip(a, b, self.orders))

    def generators(self) -> list[Element]:
        eye = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1 % self.orders[i]
            eye.append(tuple(v))
        return eye

    def elements(self) -> list[Element]:
        return list(self.iter_elements())

    def iter_elements(self) -> Iterator[Element]:
        """The elements in the order of `elements`, one at a time; a group
        over ENUMERATION_CAP is refused before the first."""
        if self.size > ENUMERATION_CAP:
            raise SizeCapError(
                f"group of size {self.size} exceeds enumeration cap {ENUMERATION_CAP}")
        return itertools.product(*[range(n) for n in self.orders])

    def coordinate_subgroup(self, coords) -> list[Element]:
        """Elements supported on the given coordinates, the first coordinate slowest."""
        size = prod(self.orders[c] for c in coords)
        if size > ENUMERATION_CAP:
            raise SizeCapError(
                f"coordinate subgroup of size {size} exceeds cap {ENUMERATION_CAP}")
        out = []
        for values in itertools.product(*[range(self.orders[c]) for c in coords]):
            v = [0] * self.rank
            for c, x in zip(coords, values):
                v[c] = x
            out.append(tuple(v))
        return out

    def element_by_index(self, idx: int) -> Element:
        out = []
        for n in reversed(self.orders):
            out.append(idx % n)
            idx //= n
        return tuple(reversed(out))

    def __str__(self):
        return "Z/" + " + Z/".join(str(n) for n in self.orders)


def _det_mod_p(rows: list[list[int]], p: int) -> int:
    """Determinant of a square integer matrix modulo a prime p."""
    n = len(rows)
    a = [[x % p for x in row] for row in rows]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = (det * a[col][col]) % p
        inv = pow(a[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = (a[r][col] * inv) % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return det % p


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class GroupAutomorphism:
    """Automorphism of a FiniteAbelianGroup given by the images of its generators."""

    group: FiniteAbelianGroup
    images: tuple[Element, ...]

    def __post_init__(self):
        if len(self.images) != self.group.rank:
            raise ValueError("need one image per generator")
        object.__setattr__(self, "images", tuple(tuple(v) for v in self.images))
        for img, n in zip(self.images, self.group.orders):
            self.group.check(img)
            if any(x * n % m for x, m in zip(img, self.group.orders)):
                raise InvalidElementError(
                    f"generator of order {n} mapped to {img}, which has larger order"
                )
        if not self._invertible():
            raise InvalidElementError("generator images do not define a bijection")

    def _invertible(self) -> bool:
        # The induced map on G/pG must be invertible for every prime p | |G|;
        # for finite abelian G that is equivalent to bijectivity.  The primes
        # of |G| are those of its cyclic orders, each factored on its own.
        orders = self.group.orders
        for p in {p for n in orders for p in _prime_factors(n)}:
            idx = [i for i, n in enumerate(orders) if n % p == 0]
            rows = [[self.images[j][i] for j in idx] for i in idx]
            if _det_mod_p(rows, p) == 0:
                return False
        return True

    @property
    def matrix(self) -> np.ndarray:
        """Integer matrix M with column j = image of generator j."""
        return np.array(self.images, dtype=np.int64).T

    def apply(self, a: Element) -> Element:
        return self._apply(self.group.check(a))

    def _apply(self, a: Element) -> Element:
        """The image of an element already known to lie in the group (unchecked)."""
        acc = [0] * len(a)
        for coeff, img in zip(a, self.images):
            if coeff:
                for i, x in enumerate(img):
                    if x:
                        acc[i] += coeff * x
        return tuple(x % n for x, n in zip(acc, self.group.orders))

    @classmethod
    def _unchecked(cls, group: FiniteAbelianGroup, images: tuple[Element, ...]):
        """An automorphism from images known to define one, without the check."""
        phi = object.__new__(cls)
        object.__setattr__(phi, "group", group)
        object.__setattr__(phi, "images", images)
        return phi

    def dual(self) -> "GroupAutomorphism":
        """The adjoint map chi |-> chi o self on the dual group (same orders)."""
        return GroupAutomorphism(self.group, tuple(
            Character(self.group, t).compose_automorphism(self).exponents
            for t in self.group.generators()))


def _int64_sums(terms: int, left: int, right: int, what: str):
    """Refuse sums of `terms` products of integers in [0, left) and [0, right)
    that could pass the int64 range, before any product is formed."""
    if terms * (left - 1) * (right - 1) > _INT64_MAX:
        raise SizeCapError(
            f"{what}: {terms} products of residues below {left} and {right} "
            f"exceed the int64 range")


@dataclass(frozen=True)
class ModuleAction:
    """Action of a cyclic group K = <theta> on a module by automorphisms.

    The acting group has rank one and ``generator_maps`` holds theta alone,
    whose order must divide |K|.  ``matrices`` owns theta's powers: the
    order check, ``powers``, every orbit and every orbit average read it.
    """

    group: FiniteAbelianGroup
    module: FiniteAbelianGroup
    generator_maps: tuple[GroupAutomorphism, ...]

    def __post_init__(self):
        if self.group.rank != 1 or len(self.generator_maps) != 1:
            raise ValueError("the acting group must be cyclic, with one automorphism theta")
        (theta,), (n,) = self.generator_maps, self.group.orders
        if theta.group != self.module:
            raise InvalidElementError("automorphism acts on the wrong module")
        # theta^|K| is theta times the stack's last entry, one product past it
        if not np.array_equal(theta.matrix @ self.matrices[-1] % self._orders[:, None],
                              self.matrices[0]):
            raise InvalidElementError(
                f"assigned automorphism does not have order dividing {n}"
            )

    @cached_property
    def _orders(self) -> np.ndarray:
        """The module's orders as an int64 vector."""
        return np.array(self.module.orders, dtype=np.int64)

    @cached_property
    def matrices(self) -> np.ndarray:
        """theta^0 .. theta^(|K| - 1) as one read-only (|K|, rank, rank) int64
        stack, each power theta times the one before, mod the orders.

        A stack of more than ENUMERATION_CAP entries, or one whose products
        (and those of its rows with residue vectors) could pass the int64
        range, is refused before it is built.
        """
        (kappa,), rank, top = self.group.orders, self.module.rank, max(self.module.orders)
        if kappa * rank * rank > ENUMERATION_CAP:
            raise SizeCapError(
                f"power stack of {kappa} x {rank} x {rank} entries exceeds "
                f"enumeration cap {ENUMERATION_CAP}")
        _int64_sums(rank, top, top, "theta's matrix products")
        theta = self.generator_maps[0].matrix
        mats = np.empty((kappa, rank, rank), dtype=np.int64)
        rows = self._orders[:, None]
        mats[0] = np.eye(rank, dtype=np.int64) % rows
        for k in range(1, kappa):
            np.remainder(theta @ mats[k - 1], rows, out=mats[k])
        mats.setflags(write=False)
        return mats

    @cached_property
    def powers(self) -> tuple[GroupAutomorphism, ...]:
        """theta^0 .. theta^(|K| - 1) as automorphisms, read off the stack:
        the images of the generators are the matrices' columns."""
        return tuple(GroupAutomorphism._unchecked(self.module, tuple(map(tuple, m)))
                     for m in self.matrices.transpose(0, 2, 1).tolist())


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Character(object):
    """Character of a FiniteAbelianGroup, given by an exponent vector."""

    group: FiniteAbelianGroup
    exponents: tuple[int, ...]
    # chi(a) = e^{2 pi i e/N} with N the group exponent and e = sum(w_i a_i) mod N
    _weights: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(t) for t in self.exponents))
        if not self.group.contains(self.exponents):
            raise CharacterTypeError(
                f"exponent vector {self.exponents} invalid for {self.group}"
            )
        n = self.group.exponent
        object.__setattr__(self, "_weights", tuple(
            t * (n // m) for t, m in zip(self.exponents, self.group.orders)
        ))

    def evaluate(self, a: Element) -> int:
        """The exponent e in Z/N of the value chi(a) = e^{2 pi i e/N}, N the group exponent."""
        return self._evaluate(self.group.check(a))

    def _evaluate(self, a: Element) -> int:
        """evaluate at an element already known to lie in the group (unchecked)."""
        return sum(w * x for w, x in zip(self._weights, a)) % self.group.exponent

    def compose_automorphism(self, phi: GroupAutomorphism) -> "Character":
        """The character a |-> self(phi(a))."""
        if phi.group != self.group:
            raise CharacterTypeError("automorphism of the wrong group")
        # img_j has order dividing n_j, so n_j * chi(img_j) is a multiple of N
        n = self.group.exponent
        return Character(self.group, tuple(
            self._evaluate(img) * n_j // n for img, n_j in zip(phi.images, self.group.orders)))


def dual_characters(group: FiniteAbelianGroup) -> list[Character]:
    """All characters of the group; exactly |G| of them, trivial one first."""
    return [Character(group, t) for t in group.elements()]


# ---------------------------------------------------------------------------
# exact cyclotomic sums
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of exact integer polynomial division (remainder must be zero)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        q[i] = c // den[-1]
        for j, d in enumerate(den):
            num[i + j] -= q[i] * d
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d < n:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _reduce_mod_cyclotomic(coeffs: list[int], n: int) -> list[int]:
    """Remainder of an integer polynomial (deg < n) modulo the n-th cyclotomic polynomial."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    out = list(coeffs) + [0] * (n - len(coeffs))
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(deg):
                out[i - deg + j] -= c * phi[j]
    return out[:n]


@dataclass(frozen=True, eq=False)
class CyclotomicSum:
    """An exact value (integer polynomial in a primitive N-th root) / denominator.

    The coefficient vector is kept reduced modulo the N-th cyclotomic
    polynomial and in lowest terms with the denominator, so two sums over
    the same N are the same complex number iff their coefficients and
    denominators agree; over different N, iff their cross-scaled difference
    reduces to the zero vector over a common N.
    """

    root_order: int
    coeffs: tuple[int, ...]
    denominator: int

    @classmethod
    def from_exponents(cls, order: int, exponents, denominator: int = 1) -> "CyclotomicSum":
        """(sum of zeta^e over exponents 0 <= e < order) / denominator, for
        zeta = e^{2 pi i/order}, kept over the least root order that holds every term."""
        exponents = list(exponents)
        g = gcd(order, *exponents)
        raw = [0] * (order // g)
        for e in exponents:
            raw[e // g] += 1
        return cls._normalized(order // g, raw, denominator)

    @classmethod
    def from_fraction(cls, x) -> "CyclotomicSum":
        x = Fraction(x)
        return cls._normalized(1, [x.numerator], x.denominator)

    @classmethod
    def _normalized(cls, n: int, coeffs: list[int], den: int) -> "CyclotomicSum":
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den, coeffs = -den, [-c for c in coeffs]
        red = _reduce_mod_cyclotomic(coeffs, n)
        g = gcd(den, *[abs(c) for c in red]) or 1
        return cls(n, tuple(c // g for c in red), den // g)

    def _embedded(self, n: int) -> list[int]:
        assert n % self.root_order == 0
        step = n // self.root_order
        out = [0] * n
        for j, c in enumerate(self.coeffs):
            out[j * step] += c
        return out

    def __add__(self, other: "CyclotomicSum") -> "CyclotomicSum":
        n = lcm(self.root_order, other.root_order)
        a, b = self._embedded(n), other._embedded(n)
        den = lcm(self.denominator, other.denominator)
        sa, sb = den // self.denominator, den // other.denominator
        return CyclotomicSum._normalized(n, [sa * x + sb * y for x, y in zip(a, b)], den)

    def __neg__(self) -> "CyclotomicSum":
        return CyclotomicSum(self.root_order, tuple(-c for c in self.coeffs), self.denominator)

    def __sub__(self, other: "CyclotomicSum") -> "CyclotomicSum":
        return self + (-other)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def value(self) -> complex:
        n = self.root_order
        return sum(
            c * cmath.exp(2j * cmath.pi * j / n) for j, c in enumerate(self.coeffs) if c
        ) / self.denominator if any(self.coeffs) else 0j

    def equals(self, other: "CyclotomicSum") -> bool:
        if self.root_order == other.root_order:
            return self.coeffs == other.coeffs and self.denominator == other.denominator
        return (self - other).is_zero()

    def __eq__(self, other):
        return isinstance(other, CyclotomicSum) and self.equals(other)

    def __repr__(self):
        return f"CyclotomicSum(N={self.root_order}, coeffs={self.coeffs}, den={self.denominator})"


def cyclo_equal(x: CyclotomicSum, y: CyclotomicSum) -> bool:
    """Exact equality of two cyclotomic sums (integer arithmetic only)."""
    return x.equals(y)


# ---------------------------------------------------------------------------
# orbits, orbit averages and trace counts
# ---------------------------------------------------------------------------


def orbit_images(action: ModuleAction, a: Element) -> np.ndarray:
    """theta^k a for k = 0 .. |K| - 1, one row each: one product of the
    power stack with the checked element.  An orbit of |O| elements appears
    |K|/|O| times."""
    action.module.check(a)
    return action.matrices @ np.array(a, dtype=np.int64) % action._orders


def orbit(action: ModuleAction, a: Element) -> frozenset:
    """The full orbit {theta^k a : k in K}, the distinct rows of orbit_images."""
    return frozenset(map(tuple, orbit_images(action, a).tolist()))


def _weights(action: ModuleAction, chars) -> np.ndarray:
    """The characters' weights as the columns of a (rank, C) int64 array,
    once they are known to live on the module and their sums of products
    with residues to stay in the int64 range."""
    module = action.module
    if any(chi.group != module for chi in chars):
        raise CharacterTypeError("character of the wrong module")
    _int64_sums(module.rank, max(module.orders), module.exponent, "character values")
    return np.array([chi._weights for chi in chars], dtype=np.int64).reshape(-1, module.rank).T


def conjugate_exponents(action: ModuleAction, chi: Character) -> list[Element]:
    """The exponent vectors of chi o theta^k for k = 0 .. |K| - 1: one
    product of chi's weights with the power stack gives chi(theta^k e_j) in
    Z/N, rescaled to Z/n_j as Character.compose_automorphism does."""
    n = action.module.exponent
    values = _weights(action, (chi,))[:, 0] @ action.matrices % n
    return list(map(tuple, (values * action._orders // n).tolist()))


def orbit_averages(action: ModuleAction, chars, images: np.ndarray) -> list[CyclotomicSum]:
    """The average of each character over the orbit whose orbit_images are
    given, as exact cyclotomic sums: one product of the images with the
    characters' weights gives every exponent.

    Every element of the orbit counts |K|/|orbit| times among the images,
    and CyclotomicSum divides that common factor out of the coefficients
    and the denominator, so each sum is the one over the distinct elements.
    """
    n = action.module.exponent
    exponents = (images @ _weights(action, chars) % n).T.tolist()
    return [CyclotomicSum.from_exponents(n, e, len(images)) for e in exponents]


def orbit_average(action: ModuleAction, chi: Character, a: Element) -> CyclotomicSum:
    """Average of the character over the orbit of a, as an exact cyclotomic sum."""
    return orbit_averages(action, (chi,), orbit_images(action, a))[0]


def verify_subgroup(group: FiniteAbelianGroup, elems) -> frozenset:
    """Check that a finite set is a subgroup; raises InvalidSubgroupError.

    The span of the set is grown one element at a time, and every sum it
    produces must stay in the set.  A finite set that contains its own span
    is closed under addition, hence under negation, so this is the subgroup
    test with one addition per element of the set.
    """
    s = frozenset(elems)
    for a in s:
        group.check(a)
    zero = group.zero()
    if zero not in s:
        raise InvalidSubgroupError("subgroup must contain 0")
    # the span, grown in place: `members` for lookup, `span` in growth order
    members, span = {zero}, [zero]
    for g in s:
        if g in members:
            continue
        # adjoin the cosets span + m*g, m = 1, 2, ..., until m*g is in the span
        base, step = len(span), g
        while step not in members:
            for j in range(base):
                x = group.add(span[j], step)
                if x not in s:
                    raise InvalidSubgroupError(
                        f"not closed under addition: {span[j]} + {step} = {x}"
                    )
                members.add(x)
                span.append(x)
            step = group.add(step, g)
    return s


def orbit_traces(action: ModuleAction, subgroup) -> tuple[tuple[Element, ...], ...]:
    """The traces orbit(d) intersected with the subgroup, d nonzero in it: a
    partition of its nonzero elements, each trace sorted, ordered by least
    element.

    Every d in one trace has the same trace, so each is walked once, from its
    least element.  The zero subgroup has no nonzero d, so no trace.
    """
    return _traces(action, verify_subgroup(action.module, subgroup))


def _traces(action: ModuleAction, d_set: frozenset) -> tuple[tuple[Element, ...], ...]:
    """orbit_traces of a set known to be a subgroup, a coordinate subgroup
    that the program built, say, without verify_subgroup."""
    traces, seen = [], {action.module.zero()}
    for d in sorted(d_set):
        if d not in seen:
            trace = tuple(sorted(orbit(action, d) & d_set))
            seen.update(trace)
            traces.append(trace)
    return tuple(traces)


def orbit_trace_counts(action: ModuleAction, subgroup) -> set[int]:
    """The set of counts #(orbit(d) intersected with the subgroup), d nonzero in it."""
    return {len(trace) for trace in orbit_traces(action, subgroup)}
