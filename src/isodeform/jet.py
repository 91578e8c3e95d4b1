"""Truncated multivariate Taylor (jet) arithmetic.

A jet of order K at a point records the value and all partial derivatives
of a function up to order K.  Jets form a commutative ring (with division
by units, i.e. jets whose value is nonzero), so ordinary formulas evaluate
to exact derivatives: no symbolic differentiation, no finite-difference
truncation error.

Storage is one coefficient slot per monomial multi-index |alpha| <= K in
graded lexicographic order; the slot holds the Taylor coefficient
c_alpha = (d^alpha f) / alpha!.  Because each unordered derivative index
tuple owns exactly one slot, symmetry of the derivative tensors is
structural: the full-index accessors (d2, d3, d4) replicate the single
stored slot bit-identically.

Coefficients are one numpy array of shape (*shape, size, *batch): a jet
can carry any batch shape (e.g. every node of a sample grid at once), and
a tensor of jets (a Jacobian, a metric) has leading ``shape`` axes.  All
operations are elementwise over batch and entries, and a tensor is
multiplied entry by entry, each entry one contiguous (size, *batch) block
(numpy's ``take`` copies a strided source whole before it gathers).  A
product adds the coefficient products of each target slot one at a time in
a fixed pair order, independent of the batch, so each member of a batched
product is bit-equal to the same product taken alone, broadcast axes
included.

The product kernel has two paths with the same sums.  When the pair table
times the batch size fits in GATHER_BUDGET doubles, both operands are
gathered for the whole table at once and the ranks are added as slices of
that one temporary.  Above the budget, the pairs are gathered, multiplied
and added one rank at a time, so no temporary grows past one rank.  The
budget is set by glibc's allocator, not by arithmetic.  Once glibc frees
an mmapped chunk, its mmap threshold rises to that chunk's size and its
trim threshold to twice that.  A gathered product holds three temporaries
of the table's size at the top of the heap; when they add up to more than
the trim threshold, every such product trims the heap on free and faults
it back in on the next call.  At (n, K, batch) = (3, 3, 729), order-3
jets on a 9^3 grid, a warm verify of sphere3 makes 130 products.
Gathered whole (61,236 doubles), each took a median 355-398 us and 114
minor faults; per rank, where no temporary exceeds 20 x 729 doubles,
119-128 us and 2 faults (timed on a shared 2-core x86-64 VM).  The
largest gather left below the budget is (4, 2, 1024), order-2 jets at a
1024-point chunk in four variables (46,080 doubles).

The one contraction, ``contract``, sums elementwise products in order, so
each entry is its sum of scalar jet products, bit for bit; ``mat_mul``
contracts a row with a column for each entry.  Determinants, the adjugate
inverse and the generalized cross product go through one memoized minor
expansion over entries (``minor_dets``): every minor is expanded along its
first row, a sub-minor shared by several expansions is computed once and
freed after its last read, and each result is bit-equal to the plain
recursive expansion.  It works on any commutative ring, so the float
normal in ``linalg`` uses it too.

A jet tensor's zero pattern ``nz`` is None when nothing is known, or bools
of its tensor shape, False where every coefficient of an entry is zero.
``grad`` and ``diff`` flag an entry whose block is zero.  Without reading
coefficients, a product is then zero where a factor is, a sum where both
terms are, and a float constant added keeps the zeros where it is 0;
negation, finite scaling, indexing, ``.T``, ``stack`` and the tensors built
entry by entry carry the pattern, and ``recip`` and composed functions drop
it.  No arithmetic touches a known zero: a product writes it as zeros,
``contract`` skips a zero term, and ``minor_dets`` a zero entry's term with
the reads of its minor.  Results equal full arithmetic's up to the sign of
a zero, but a zero entry times NaN or inf is 0, not NaN.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import HypothesisError

MIN_DIVISOR = 1e-300  # underflow guard for division by a jet
# doubles of coefficient products a jet product may gather at once (384
# KiB per temporary): below (3, 3, 729), whose gathered temporaries make
# glibc trim and refault the heap, above (4, 2, 1024) (module docstring)
GATHER_BUDGET = 3 * 2**14
# glibc raises its mmap threshold to the size of an mmapped block it frees,
# and its trim threshold to twice that (mallopt(3)).  A sample chunk's jet
# tensors take and give back up to about 22 MB at once; freeing one
# untouched block of HEAP_KEEP bytes here keeps that memory in the heap for
# the next chunk, instead of trimming it and faulting it back in: about
# 11,300 minor faults per warm pointwise verify without it, 3 with it
HEAP_KEEP = 24 * 2**20
np.empty(HEAP_KEEP // 8)

_MAX_ORDER = 4


def _monomials(n_vars: int, order: int) -> list[tuple[int, ...]]:
    """All exponent tuples with |alpha| <= order, graded lex order."""

    def of_degree(deg, nv):
        if nv == 1:
            yield (deg,)
            return
        for first in range(deg, -1, -1):
            for rest in of_degree(deg - first, nv - 1):
                yield (first,) + rest

    out: list[tuple[int, ...]] = []
    for deg in range(order + 1):
        out.extend(of_degree(deg, n_vars))
    return out


@lru_cache(maxsize=None)
def jet_space(n_vars: int, order: int) -> "JetSpace":
    return JetSpace(n_vars, order)


class JetSpace:
    """Precomputed index tables for jets with a fixed (n_vars, order).

    Do not construct directly; use :func:`jet_space` so that identical
    spaces are shared and mixing checks reduce to an identity test.
    """

    def __init__(self, n_vars: int, order: int):
        if n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {n_vars}")
        if not (0 <= order <= _MAX_ORDER):
            raise ValueError(f"order must be in 0..{_MAX_ORDER}, got {order}")
        self.n_vars = n_vars
        self.order = order
        self.monomials = _monomials(n_vars, order)
        self.size = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        # slot of the pure power k e_i, by variable i and k = 0..order
        self._pure = [
            [self.index[tuple(k * (v == i) for v in range(n_vars))] for k in range(order + 1)]
            for i in range(n_vars)
        ]

        # multiplication table: all (i, j) with deg_i + deg_j <= order.  A
        # target's pairs are ranked in (i, j) order; the table lists the
        # rank-0 pair of every target, then the rank-1 pairs, and so on.
        # Within a rank the targets run by descending pair count (stable),
        # so the targets that have a rank-r pair are a prefix of that order.
        by_target: list[list[tuple[int, int]]] = [[] for _ in range(self.size)]
        for i, a in enumerate(self.monomials):
            for j, b in enumerate(self.monomials):
                if sum(a) + sum(b) <= order:
                    by_target[self.index[tuple(x + y for x, y in zip(a, b))]].append((i, j))
        counts = np.array([len(p) for p in by_target])
        perm = np.argsort(-counts, kind="stable")
        ranked = [
            [by_target[t][r] for t in perm if counts[t] > r]
            for r in range(int(counts.max()))
        ]
        flat = [p for rank in ranked for p in rank]
        self._mul_ii = np.array([p[0] for p in flat])
        self._mul_jj = np.array([p[1] for p in flat])
        offsets = np.cumsum([len(rank) for rank in ranked])
        # (start, length) of each rank r >= 1 in the table
        self._mul_ranks = [(int(o), len(rank)) for o, rank in zip(offsets, ranked[1:])]
        # the (i, j) index arrays of each rank, rank 0 first
        self._mul_rank_pairs = [
            (self._mul_ii[s : s + m], self._mul_jj[s : s + m])
            for s, m in [(0, self.size)] + self._mul_ranks
        ]
        self._mul_unperm = np.argsort(perm)

        # differentiation tables: child coef[beta] = (beta_i+1) * coef[beta+e_i]
        self._diff_src = []
        self._diff_fac = []
        if order >= 1:
            child = jet_space(n_vars, order - 1)
            for v in range(n_vars):
                src = np.empty(child.size, dtype=np.intp)
                fac = np.empty(child.size)
                for ci, m in enumerate(child.monomials):
                    up = list(m)
                    up[v] += 1
                    src[ci] = self.index[tuple(up)]
                    fac[ci] = up[v]
                self._diff_src.append(src)
                self._diff_fac.append(fac)
            # one row per variable, so ``grad`` gathers every partial at once
            self._diff_src = np.array(self._diff_src)
            self._diff_fac = np.array(self._diff_fac)

        # full-index derivative accessor tables (index grid + alpha! factors)
        self._deriv_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for k in range(1, order + 1):
            shape = (n_vars,) * k
            idx = np.empty(shape, dtype=np.intp)
            fac = np.empty(shape)
            for multi in np.ndindex(shape):
                alpha = [0] * n_vars
                for v in multi:
                    alpha[v] += 1
                idx[multi] = self.index[tuple(alpha)]
                fac[multi] = math.prod(math.factorial(a) for a in alpha)
            self._deriv_tables[k] = (idx, fac)

    def __repr__(self):
        return f"JetSpace(n_vars={self.n_vars}, order={self.order})"

    def constant(self, value, batch_ndim: int = 0) -> "JetScalar":
        value = np.asarray(value, dtype=float)
        shape = (1,) * batch_ndim if value.ndim == 0 and batch_ndim else value.shape
        coef = np.zeros((self.size,) + shape)
        coef[0] = value
        return JetScalar(self, coef)

    def variable(self, i: int, at) -> "JetScalar":
        """The coordinate function u_i seeded at the point(s) `at` (0-based i).

        In an order-0 space this degrades to a constant: only the value
        survives.
        """
        if not 0 <= i < self.n_vars:
            raise ValueError(f"variable index {i} out of range for n_vars={self.n_vars}")
        return self.univariate(i, [np.asarray(at, dtype=float), 1.0])

    def univariate(self, i: int, coeffs) -> "JetScalar":
        """The jet of g(u_i) from the Taylor coefficients of g at u_i.

        coeffs[k] (a float or an array of the batch shape of coeffs[0]) goes
        to the pure-power slot k e_i, for k up to the order; every other slot
        is zero.  This is what composing g with the seeded u_i gives, without
        the products.
        """
        coef = np.zeros((self.size,) + np.shape(coeffs[0]))
        for slot, c in zip(self._pure[i], coeffs):
            coef[slot] = c
        return JetScalar(self, coef)


class JetScalar:
    """One jet, or a tensor of jets: Taylor coefficients in a JetSpace.

    ``coef`` has shape (*shape, size, *batch): ``ndim`` tensor axes, then
    the slot axis, then the batch, so a scalar jet (ndim 0) is (size,
    *batch) and every entry's coefficients are one contiguous block.
    Indexing reads the tensor axes: ``A[i, j]`` is the jet with
    coefficients ``coef[i, j]``, and ``None`` adds a unit axis.  Jets of one
    batch ndim combine elementwise with their tensor axes broadcast as
    numpy's are, so ``h * A`` scales every entry of A by the scalar h.  A
    float array operand is a constant tensor (``np.eye(n) - A``).  ``nz`` is
    the zero pattern (module docstring).
    """

    __slots__ = ("space", "coef", "ndim", "nz")
    __array_ufunc__ = None  # an array operand defers to the jet's method

    def __init__(self, space: JetSpace, coef: np.ndarray, ndim: int = 0, nz=None):
        self.space = space
        self.coef = coef
        self.ndim = ndim
        self.nz = nz

    # -- accessors ---------------------------------------------------------

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def n_vars(self) -> int:
        return self.space.n_vars

    @property
    def shape(self) -> tuple:
        """The tensor shape: the ``ndim`` leading axes of ``coef``."""
        return self.coef.shape[: self.ndim]

    @property
    def _slot(self) -> tuple:
        """Index prefix that reaches the slot axis."""
        return (slice(None),) * self.ndim

    @property
    def value(self):
        """Values, shape (*shape, *batch)."""
        return self.coef[self._slot + (0,)]

    @property
    def d1(self):
        """Gradient, shape (*shape, n_vars, *batch)."""
        return self._full(1)

    def _full(self, k: int):
        if k > self.order:
            raise ValueError(f"derivative order {k} exceeds jet order {self.order}")
        idx, fac = self.space._deriv_tables[k]
        return self.coef.take(idx, axis=self.ndim) * self._over_batch(fac)

    def d2(self):
        """Full symmetric Hessian, shape (*shape, n, n, *batch)."""
        return self._full(2)

    def d3(self):
        return self._full(3)

    def d4(self):
        return self._full(4)

    def _like(self, coef: np.ndarray, space: JetSpace | None = None, nz=None) -> "JetScalar":
        return JetScalar(space or self.space, coef, self.ndim, nz)

    def _over_batch(self, a: np.ndarray) -> np.ndarray:
        """``a`` with a unit axis appended for each batch axis."""
        return a.reshape(a.shape + (1,) * (self.coef.ndim - self.ndim - 1))

    def diff(self, i: int) -> "JetScalar":
        """The jet of the partial derivative d/du_i (order drops by one)."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        sp = self.space
        child = jet_space(sp.n_vars, sp.order - 1)
        out = self.coef.take(sp._diff_src[i], axis=self.ndim)
        out *= self._over_batch(sp._diff_fac[i])
        return self._like(out, child, _seed_pattern(out, self.ndim))

    def grad(self) -> "JetScalar":
        """The partials d/du_l as a new last tensor axis l (order drops by one)."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        sp = self.space
        out = self.coef.take(sp._diff_src, axis=self.ndim)
        out *= self._over_batch(sp._diff_fac)
        child = jet_space(sp.n_vars, sp.order - 1)
        return JetScalar(child, out, self.ndim + 1, _seed_pattern(out, self.ndim + 1))

    def truncated(self, order: int) -> "JetScalar":
        """Copy of this jet truncated to a lower order."""
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError(f"cannot raise jet order {self.order} -> {order}")
        child = jet_space(self.n_vars, order)
        return self._like(self.coef[self._slot + (slice(child.size),)], child, self.nz)

    # -- tensor axes --------------------------------------------------------

    def __getitem__(self, key) -> "JetScalar":
        coef = self.coef[key]
        ndim = coef.ndim - self.coef.ndim + self.ndim
        if ndim < 0:
            raise IndexError(f"too many indices for a jet tensor of ndim {self.ndim}")
        return JetScalar(self.space, coef, ndim, None if self.nz is None else self.nz[key])

    def __iter__(self):
        return (self[i] for i in range(self.shape[0]))

    @property
    def T(self) -> "JetScalar":
        """The transpose of the last two tensor axes."""
        nz = None if self.nz is None else self.nz.swapaxes(-2, -1)
        return self._like(self.coef.swapaxes(self.ndim - 2, self.ndim - 1), nz=nz)

    # -- ring operations ----------------------------------------------------

    def _lift(self, c, slot: bool):
        """A float array operand's axes as tensor axes, for the values (or,
        with ``slot``, the coefficients)."""
        if isinstance(c, np.ndarray) and c.ndim:
            c = self._over_batch(c)
            return c[..., None] if slot else c
        return c

    def _check(self, other: "JetScalar"):
        if self.space is not other.space:
            raise ValueError(f"mixed jets: {self.space} vs {other.space}")

    def _shifted(self, c):
        """The pattern once the constant c is added to the values: an entry
        stays zero where c is 0."""
        return None if self.nz is None else self.nz | (np.asarray(c) != 0)

    def _scaled(self, coef: np.ndarray, c, divide: bool) -> "JetScalar":
        """The jet of ``coef``, the coefficients times or over the float c:
        zeros stay zero unless c is not finite, or zero as a divisor."""
        keep = self.nz is not None and np.isfinite(c).all() and not (divide and np.any(c == 0))
        return self._like(coef, nz=_fit(self.nz, coef.shape[: self.ndim]) if keep else None)

    def __add__(self, other):
        if isinstance(other, JetScalar):
            self._check(other)
            nz = _join(self.nz, other.nz)
            return JetScalar(self.space, self.coef + other.coef, max(self.ndim, other.ndim), nz)
        out = self.coef.copy()
        out[self._slot + (0,)] += self._lift(other, False)
        return self._like(out, nz=self._shifted(other))

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.coef, nz=self.nz)

    def __sub__(self, other):
        if isinstance(other, JetScalar):
            self._check(other)
            nz = _join(self.nz, other.nz)
            return JetScalar(self.space, self.coef - other.coef, max(self.ndim, other.ndim), nz)
        out = self.coef.copy()
        out[self._slot + (0,)] -= self._lift(other, False)
        return self._like(out, nz=self._shifted(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, JetScalar):
            return self._scaled(self.coef * self._lift(other, True), other, False)
        self._check(other)
        nd = max(self.ndim, other.ndim)
        nz = _meet(self.nz, other.nz)
        if _zero(nz):
            coef = np.zeros(_broadcast(self.coef, other.coef))
        else:
            coef = _product(self.space, self.coef, other.coef, self.ndim, other.ndim, nz)
        return JetScalar(self.space, coef, nd, _fit(nz, coef.shape[:nd]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, JetScalar):
            return self * recip(other)
        return self._scaled(self.coef / self._lift(other, True), other, True)

    def __rtruediv__(self, other):
        return recip(self) * other

    def __pow__(self, e):
        if isinstance(e, (int, np.integer)) or (isinstance(e, float) and e.is_integer()):
            return _int_pow(self, int(e))
        return powf(self, float(e))

    def __repr__(self):
        v = self.value
        head = f"{v:.6g}" if np.ndim(v) == 0 else f"batch{np.shape(v)}"
        return f"JetScalar(order={self.order}, n={self.n_vars}, value={head})"


def _fit(nz, shape: tuple):
    """A pattern broadcast to the tensor shape of the jet that carries it."""
    return nz if nz is None or nz.shape == shape else np.broadcast_to(nz, shape)


def _meet(p, q):
    """The pattern of a product: an entry is zero where a factor is."""
    return q if p is None else p if q is None else p & q


def _join(p, q):
    """The pattern of a sum: an entry is zero where both terms are."""
    return None if p is None or q is None else p | q


def _zero(nz) -> bool:
    """Whether a pattern marks every entry zero."""
    return nz is not None and not (np.count_nonzero(nz) if nz.ndim else nz)


def _seed_pattern(coef: np.ndarray, ndim: int):
    """The pattern of derivative coefficients (*shape, size, *batch): an
    entry is zero when its block is.  Only an entry whose first coefficient
    is zero is read whole."""
    flat = coef.reshape(coef.shape[:ndim] + (-1,))
    nz = flat[..., :1].any(axis=-1)  # the first coefficient, if any
    if ndim == 0:
        return nz or flat.any()
    for e in zip(*np.nonzero(~nz)):
        nz[e] = flat[e].any()
    return nz


def _broadcast(a: np.ndarray, b: np.ndarray) -> tuple:
    return a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)


def _product(sp: JetSpace, a: np.ndarray, b: np.ndarray, sa: int, sb: int, nz=None, out=None):
    """The coefficients of the product of jets with coefficients a and b,
    tensor ndims sa and sb and pattern nz, written to ``out`` when given; a
    tensor entry by entry, each one contiguous block, zeros where nz is."""
    shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
    out = np.empty(shape) if out is None else out
    if sa or sb:
        nd = max(sa, sb)
        a = np.broadcast_to(a, shape[:nd] + a.shape[sa:])
        b = np.broadcast_to(b, shape[:nd] + b.shape[sb:])
        nz = _fit(nz, shape[:nd])
        for e in np.ndindex(shape[:nd]):
            if nz is None or nz[e]:
                _product(sp, a[e], b[e], 0, 0, None, out[e])
            else:
                out[e] = 0.0
        return out
    # each coefficient is summed rank by rank, in pair order
    if len(sp._mul_ii) * out.size <= GATHER_BUDGET * sp.size:
        prod = a.take(sp._mul_ii, axis=0) * b.take(sp._mul_jj, axis=0)
        acc = prod[: sp.size]
        for start, m in sp._mul_ranks:
            acc[:m] += prod[start : start + m]
    else:
        (ii, jj), *ranks = sp._mul_rank_pairs
        acc = a.take(ii, axis=0) * b.take(jj, axis=0)
        for ii, jj in ranks:
            acc[: len(ii)] += a.take(ii, axis=0) * b.take(jj, axis=0)
    # the indices are in range: "clip" writes to out without a buffer
    return acc.take(sp._mul_unperm, axis=0, out=out, mode="clip")


def _zero_delta(a: JetScalar) -> JetScalar:
    out = a.coef.copy()
    out[a._slot + (0,)] = 0.0
    return a._like(out)


def _compose(a: JetScalar, coeffs: list) -> JetScalar:
    """Evaluate sum_k coeffs[k] * (a - a0)^k by Horner; exact to order K
    because the delta jet has zero constant term."""
    delta = _zero_delta(a)
    res = a._like(np.zeros_like(a.coef))
    value = a._slot + (0,)
    res.coef[value] = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        res = res * delta
        res.coef[value] = res.coef[value] + coeffs[k]
    return res


def reciprocal(v):
    """1/v for the value(s) of a divisor, under the rule of division by a jet."""
    v = np.asarray(v)
    if np.any(np.abs(v) <= MIN_DIVISOR) or not np.all(np.isfinite(v)):
        bad = v.flat[int(np.argmin(np.abs(v)))] if v.size else v
        raise HypothesisError(f"division by a jet with value {float(bad)}")
    return 1.0 / v


def require_positive(v, what: str) -> None:
    """The rule of log, sqrt and non-integer powers: each value of the
    argument positive and finite, else HypothesisError naming the least."""
    v = np.asarray(v)
    if np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise HypothesisError(f"{what} of a jet with value {float(np.min(v))}")


def recip(a: JetScalar) -> JetScalar:
    v = np.asarray(a.value)
    coeffs = [reciprocal(v)]
    for _ in range(a.order):
        coeffs.append(-coeffs[-1] / v)
    return _compose(a, coeffs)


def _int_pow(a: JetScalar, e: int) -> JetScalar:
    if e < 0:
        return _int_pow(recip(a), -e)
    result = a.space.constant(1.0, batch_ndim=a.coef.ndim - a.ndim - 1)
    base = a
    while e:
        if e & 1:
            result = result * base
        base = base * base if e > 1 else base
        e >>= 1
    return result


# Univariate Taylor coefficients g^(k)(v) / k!, k = 0..order, of each DSL
# function at the value(s) v; log and sqrt raise HypothesisError off their
# domain, which the DSL evaluator turns into an ExprError at the offending
# node.  A jet function composes them with its argument; the DSL evaluator
# also writes them straight into the slots of a bare coordinate.


def _sin_taylor(v, order: int, shift: int = 0) -> list:
    s, c = np.sin(v), np.cos(v)
    table = [s, c, -s, -c]  # the derivatives of sin; cos starts one later
    return [table[(k + shift) % 4] / math.factorial(k) for k in range(order + 1)]


def _cos_taylor(v, order: int) -> list:
    return _sin_taylor(v, order, 1)


def _exp_taylor(v, order: int) -> list:
    ev = np.exp(v)
    return [ev / math.factorial(k) for k in range(order + 1)]


def _log_taylor(v, order: int) -> list:
    v = np.asarray(v)
    require_positive(v, "log")
    coeffs = [np.log(v)]
    for k in range(1, order + 1):
        coeffs.append((-1.0) ** (k - 1) / (k * v**k))
    return coeffs


def _pow_taylor(v, r: float, order: int, what: str = "non-integer power") -> list:
    v = np.asarray(v)
    require_positive(v, what)
    # c_k = binom(r, k) v^(r-k), built by the recurrence c_k = c_{k-1}(r-k+1)/(k v)
    coeffs = [v**r]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * (r - k + 1) / (k * v))
    return coeffs


def _sqrt_taylor(v, order: int) -> list:
    return _pow_taylor(v, 0.5, order, "sqrt")


TAYLOR = {
    "sin": _sin_taylor,
    "cos": _cos_taylor,
    "exp": _exp_taylor,
    "log": _log_taylor,
    "sqrt": _sqrt_taylor,
}


def sin(a: JetScalar) -> JetScalar:
    return _compose(a, _sin_taylor(a.value, a.order))


def cos(a: JetScalar) -> JetScalar:
    return _compose(a, _cos_taylor(a.value, a.order))


def exp(a: JetScalar) -> JetScalar:
    return _compose(a, _exp_taylor(a.value, a.order))


def log(a: JetScalar) -> JetScalar:
    return _compose(a, _log_taylor(a.value, a.order))


def sqrt(a: JetScalar) -> JetScalar:
    return _compose(a, _sqrt_taylor(a.value, a.order))


def powf(a: JetScalar, r: float) -> JetScalar:
    """a**r for non-integer real r; requires the jet value to be positive."""
    return _compose(a, _pow_taylor(a.value, r, a.order))


# -- tensor algebra over the jet ring ----------------------------------------
#
# ``stack``, ``contract`` and ``mat_mul`` build and contract jet tensors.
# The minor expansions work entry by entry for any commutative-ring
# elements supporting + - * (and / for the inverse): jets indexed out of a
# tensor, plain floats and float arrays.  Dimensions here are tiny
# (n <= 5), so cofactor expansion is both exact and fast.


def stack(entries) -> JetScalar:
    """The tensor whose leading tensor axes are the axes of the nested list
    ``entries`` of jets of one space and ndim; their batches broadcast."""
    jets = [stack(e) if isinstance(e, (list, tuple)) else e for e in entries]
    for j in jets[1:]:
        jets[0]._check(j)
    coefs = np.broadcast_arrays(*(j.coef for j in jets))
    nz = _patterned(enumerate(j.nz for j in jets), (len(jets),) + jets[0].shape)
    return JetScalar(jets[0].space, np.stack(coefs), jets[0].ndim + 1, nz)


def _patterned(entries, shape: tuple):
    """The pattern of a tensor of ``shape`` from (index, entry pattern)
    pairs; None when no entry has one."""
    nz = None
    for e, p in entries:
        if p is not None:
            if nz is None:
                nz = np.ones(shape, bool)
            nz[e] = p
    return nz


def contract(terms) -> JetScalar:
    """sum_k x_k * y_k over the pairs (x_k, y_k), k in order: each entry is
    equal to its sum of scalar jet products.  After the first term, a term
    that the patterns make zero, and that adds no axes, is skipped.  A
    generator of pairs keeps one term alive at a time."""
    acc = None
    for x, y in terms:
        if acc is not None and isinstance(x, JetScalar) and isinstance(y, JetScalar):
            if _zero(_meet(x.nz, y.nz)) and _broadcast(x.coef, y.coef) == acc.coef.shape:
                continue
        term = x * y
        if acc is None:
            acc = term
        elif acc.coef.shape == term.coef.shape:
            acc.coef += term.coef  # acc is a fresh sum: add in place
            acc.nz = _join(acc.nz, term.nz)
        else:
            acc = acc + term
    return acc


def mat_mul(A: JetScalar, B: JetScalar) -> JetScalar:
    """The matrix product of (n, k) and (k, p) jet tensors, one entry at a
    time: entry (i, j) is the contraction of row i of A with column j of B,
    k ascending, and no temporary outgrows one entry."""
    n, p = A.shape[0], B.shape[1]
    out = np.empty((n, p) + np.broadcast_shapes(A.coef.shape[2:], B.coef.shape[2:]))
    patterns = []
    for i, j in np.ndindex(n, p):
        entry = contract(zip(A[i], B[:, j]))
        out[i, j] = entry.coef
        patterns.append(((i, j), entry.nz))
    return JetScalar(A.space, out, 2, _patterned(patterns, (n, p)))


@lru_cache(maxsize=None)
def _minor_reads(targets: tuple) -> dict:
    """How often ``minor_dets`` reads each minor of two rows or more."""
    reads: dict = {}

    def visit(rows, cols):
        if len(rows) < 2:
            return
        reads[rows, cols] = reads.get((rows, cols), 0) + 1
        if reads[rows, cols] == 1 and len(rows) > 2:
            for j in range(len(cols)):
                visit(rows[1:], cols[:j] + cols[j + 1 :])

    for rows, cols in targets:
        visit(rows, cols)
    return reads


def minor_dets(entry, targets: tuple):
    """Yield the determinant of each minor in ``targets``, in order.

    A minor is (row indices, column indices), both ascending, and ``entry(r,
    c)`` gives the matrix entry.  Each minor is expanded along its first
    row, so every determinant is bit-equal to ``mat_det`` of the minor taken
    alone; a sub-minor shared by several expansions is computed once and
    dropped after its last read.  The generator is lazy: a target's minors
    are computed only when it is asked for.
    """
    uses = dict(_minor_reads(targets))
    memo: dict = {}

    def det(rows, cols):
        if len(rows) == 1:
            return entry(rows[0], cols[0])
        key = (rows, cols)
        out = memo.pop(key, None)
        if out is None:
            if len(rows) == 2:
                (r, s), (a, b) = rows, cols
                out = entry(r, a) * entry(s, b) - entry(r, b) * entry(s, a)
            else:
                for j, c in enumerate(cols):
                    e, sub = entry(rows[0], c), (rows[1:], cols[:j] + cols[j + 1 :])
                    if isinstance(e, JetScalar) and _zero(e.nz):
                        skip(*sub)  # the term is zero
                        continue
                    term = e * det(*sub)
                    if j % 2:
                        term = -term
                    out = term if out is None else out + term
                if out is None:  # every entry of the first row is zero
                    out = e._like(np.zeros(e.coef.shape), nz=e.nz)
        uses[key] -= 1
        if uses[key]:
            memo[key] = out
        return out

    def skip(rows, cols):
        """A read of a minor that a zero entry's term does not make."""
        if len(rows) < 2:
            return
        key = (rows, cols)
        uses[key] -= 1
        # a minor that is never read again and was never expanded will not
        # be: its own reads of its sub-minors are skipped with it
        if not uses[key] and memo.pop(key, None) is None and len(rows) > 2:
            for j in range(len(cols)):
                skip(rows[1:], cols[:j] + cols[j + 1 :])

    try:
        for rows, cols in targets:
            yield det(rows, cols)
    finally:
        # the recursive closures are reference cycles that hold ``entry``,
        # and so the matrix, until the cyclic collector runs: break them
        det = skip = None


def _without(k: int, n: int) -> tuple:
    return tuple(i for i in range(n) if i != k)


def cross_product(entry, n: int) -> list:
    """Generalized cross product of the n columns of an (n+1) x n matrix.

    v_k = (-1)^k det(the matrix with row k deleted), 0-based k, with
    ``entry`` as in ``minor_dets``: orthogonal to every column, with norm
    sqrt(det(J^T J)).
    """
    cols = tuple(range(n))
    dets = minor_dets(entry, tuple((_without(k, n + 1), cols) for k in range(n + 1)))
    return [-d if k % 2 else d for k, d in enumerate(dets)]


def mat_det(M):
    """det of the square matrix M: an (n, n) jet tensor or float array."""
    full = tuple(range(M.shape[0]))
    return next(minor_dets(lambda r, c: M[r, c], ((full, full),)))


def mat_inv(M, gate=None):
    """Adjugate inverse (pivot-free, branch-free: safe for batched jets).

    Returns (inverse, det) for an (n, n) jet tensor or float array M.  The
    cofactors share their minors with det.  A caller that gates det passes
    ``gate``, which is called on det before any division; the reciprocal of
    det is formed once and each cofactor is multiplied by it.
    """
    n = M.shape[0]
    full = tuple(range(n))
    cofactors = tuple((_without(i, n), _without(j, n)) for i in range(n) for j in range(n))
    dets = minor_dets(lambda r, c: M[r, c], ((full, full),) + (cofactors if n > 1 else ()))
    det = next(dets)
    if gate is not None:
        gate(det)
    jets = isinstance(det, JetScalar)
    rdet = recip(det) if jets else 1.0 / det
    inv, patterns = None, []
    for i, j in np.ndindex(n, n):
        cof = next(dets) if n > 1 else 1.0
        entry = (-cof if (i + j) % 2 else cof) * rdet
        patterns.append(((j, i), getattr(entry, "nz", None)))
        entry = entry.coef if jets else entry
        if inv is None:
            inv = np.empty((n, n) + np.shape(entry))
        inv[j, i] = entry
    return (JetScalar(det.space, inv, 2, _patterned(patterns, (n, n))) if jets else inv), det


def values(T: JetScalar) -> np.ndarray:
    """The values of a jet tensor: floats (*batch, *shape), a view of a new
    array that holds no coefficients."""
    return np.moveaxis(T.value.copy(), range(T.ndim), range(-T.ndim, 0))


def d1_values(T: JetScalar) -> np.ndarray:
    """The first partials of a jet tensor: floats (*batch, *shape, n_vars),
    a view of a new array (*shape, n_vars, *batch)."""
    return np.moveaxis(T.d1, range(T.ndim + 1), range(-T.ndim - 1, 0))
