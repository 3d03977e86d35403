"""Integral Chevalley-basis Lie algebras with explicit structure constants,
pinned diagram automorphisms, and nilpotent exponential operators.

The basis is {X_alpha : alpha a root} together with {H_i : i a node}, with
[X_alpha, X_{-alpha}] = H_alpha (the coroot element), [H, X_beta] =
<beta, H> X_beta, and [X_alpha, X_beta] = N_{alpha,beta} X_{alpha+beta}
where |N_{alpha,beta}| = p+1 is fixed by the root strings.  Signs are pinned
on one distinguished (extraspecial) pair per decomposable positive root and
propagated by the Jacobi identity; any consistent choice gives isomorphic
output, which the grading code relies on.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod

from .exactmath import (
    PropertyViolation, frozen_record, kept, pair, vec_add, vec_scale, vec_sub,
)
from .rootdata import DiagramAutomorphism, RootDatum, cycles

MAX_NILPOTENCY = 10


class ChevalleyError(PropertyViolation):
    pass


class ChevalleyAlgebra:
    """Bracket table of the Chevalley basis for one root datum."""

    def __init__(self, datum: RootDatum, order_seed: int | None = None):
        self.datum = datum
        self.order_seed = order_seed
        self._build_order()
        self._build_constants()
        self._build_table()

    # -- construction ------------------------------------------------------

    def _build_order(self) -> None:
        datum = self.datum
        positives = sorted(
            datum.positive_roots, key=lambda r: (datum.height(r), r)
        )
        if self.order_seed is not None:
            rng = random.Random(self.order_seed)
            grouped: dict[int, list] = {}
            for r in positives:
                grouped.setdefault(datum.height(r), []).append(r)
            positives = []
            for h in sorted(grouped):
                block = grouped[h]
                rng.shuffle(block)
                positives.extend(block)
        self.positive_order = tuple(positives)
        self.order_index = {r: i for i, r in enumerate(positives)}
        self.rootset = set(datum.roots)
        self._norm_cache: dict = {}

    def _norm(self, chi) -> Fraction:
        coroots = self.datum.coroots
        return kept(self._norm_cache, chi, lambda: Fraction(sum(pair(chi, c) ** 2 for c in coroots)))

    def _string_length(self, alpha, beta) -> int:
        """max i with beta - i*alpha a root."""
        p = 0
        cur = vec_sub(beta, alpha)
        while cur in self.rootset:
            p += 1
            cur = vec_sub(cur, alpha)
        return p

    def _nval(self, u, v) -> int:
        return kept(self._nval_memo, (u, v), lambda: self._structure_constant(u, v))

    def _structure_constant(self, u, v) -> int:
        c = vec_add(u, v)
        if c not in self.rootset:
            return 0
        datum = self.datum
        upos = datum.is_positive(u)
        vpos = datum.is_positive(v)
        if upos and vpos:
            return self._npos[(u, v)]
        if not upos and not vpos:
            return -self._nval(vec_scale(-1, u), vec_scale(-1, v))
        if not upos:
            return -self._nval(v, u)
        if datum.is_positive(c):
            val = -self._norm(c) / self._norm(u) * self._nval(vec_scale(-1, v), c)
        else:
            val = self._norm(c) / self._norm(v) * self._nval(vec_scale(-1, c), u)
        if Fraction(val).denominator != 1:
            raise ChevalleyError("non-integral structure constant")
        return int(val)

    def _build_constants(self) -> None:
        datum = self.datum
        self._npos: dict = {}
        self._nval_memo: dict = {}
        self.extraspecial: dict = {}
        order = self.order_index
        pos_set = set(self.positive_order)
        by_stage = sorted(
            (r for r in self.positive_order if datum.height(r) >= 2),
            key=lambda r: (datum.height(r), order[r]),
        )
        for gamma in by_stage:
            summands = [
                a for a in self.positive_order
                if vec_sub(gamma, a) in pos_set and order[a] <= order[vec_sub(gamma, a)]
            ]
            if not summands:
                raise ChevalleyError("positive root with no decomposition")
            eps = min(summands, key=lambda a: order[a])
            eta = vec_sub(gamma, eps)
            self.extraspecial[gamma] = (eps, eta)
            p = self._string_length(eps, eta)
            self._npos[(eps, eta)] = p + 1
            self._npos[(eta, eps)] = -(p + 1)
            denom = self._nval(gamma, vec_scale(-1, eps))
            if denom == 0:
                raise ChevalleyError("vanishing denominator in sign propagation")
            for alpha in summands:
                beta = vec_sub(gamma, alpha)
                if alpha == eps:
                    continue
                t1 = 0
                if vec_sub(alpha, eps) in self.rootset:
                    t1 = self._nval(vec_scale(-1, eps), alpha) * self._nval(
                        vec_sub(alpha, eps), beta
                    )
                t3 = 0
                if vec_sub(beta, eps) in self.rootset:
                    t3 = self._nval(beta, vec_scale(-1, eps)) * self._nval(
                        vec_sub(beta, eps), alpha
                    )
                num = -(t1 + t3)
                if num % denom != 0:
                    raise ChevalleyError("non-integral propagated constant")
                n = num // denom
                expected = self._string_length(alpha, beta) + 1
                if abs(n) != expected:
                    raise ChevalleyError(
                        f"constant {n} does not match root string {expected}"
                    )
                self._npos[(alpha, beta)] = n
                self._npos[(beta, alpha)] = -n

    def _build_table(self) -> None:
        datum = self.datum
        n = datum.rank
        labels = [("x", r) for r in datum.roots] + [("h", i) for i in range(n)]
        self.labels = tuple(labels)
        self.dimension = len(labels)
        table: dict = {}
        for i, a in enumerate(labels):
            for b in labels:
                table[(a, b)] = self._bracket_basis(a, b)
        self.table = table
        for alpha in datum.roots:
            for beta in datum.roots:
                if vec_add(alpha, beta) in self.rootset:
                    if abs(self._nval(alpha, beta)) not in (1, 2, 3):
                        raise ChevalleyError("structure constant out of range")

    def _bracket_basis(self, a, b) -> dict:
        datum = self.datum
        if a[0] == "h" and b[0] == "h":
            return {}
        if a[0] == "h":
            coeff = pair(b[1], datum.simple_coroots[a[1]])
            return {b: coeff} if coeff else {}
        if b[0] == "h":
            coeff = -pair(a[1], datum.simple_coroots[b[1]])
            return {a: coeff} if coeff else {}
        alpha, beta = a[1], b[1]
        total = vec_add(alpha, beta)
        if all(x == 0 for x in total):
            cocoeff = datum.cocoeffs[datum.root_index[alpha]]
            return {("h", i): c for i, c in enumerate(cocoeff) if c}
        if total in self.rootset:
            return {("x", total): self._nval(alpha, beta)}
        return {}

    # -- element operations -------------------------------------------------

    def structure_constant(self, alpha, beta) -> int:
        if vec_add(alpha, beta) not in self.rootset:
            return 0
        return self._nval(alpha, beta)

    def bracket(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for la, ca in u.items():
            for lb, cb in v.items():
                for lc, cc in self.table[(la, lb)].items():
                    val = out.get(lc, 0) + ca * cb * cc
                    if val:
                        out[lc] = val
                    elif lc in out:
                        del out[lc]
        return out

    def basis_element(self, label) -> dict:
        return {label: Fraction(1)}

    def x(self, root) -> dict:
        return {("x", root): Fraction(1)}


@lru_cache(maxsize=None)
def structure_constants(
    datum: RootDatum, order_seed: int | None = None
) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(datum, order_seed)


# ---------------------------------------------------------------------------
# exponentials of nilpotent adjoints


@frozen_record
class ExpAd:
    """The operator exp(t * ad X_alpha); exact because ad X_alpha is nilpotent."""

    algebra: ChevalleyAlgebra
    root: tuple
    t: Fraction

    def apply(self, elt: dict) -> dict:
        alg = self.algebra
        gen = alg.x(self.root)
        acc = dict(elt)
        term = dict(elt)
        k = 0
        while term:
            k += 1
            if k > MAX_NILPOTENCY:
                raise ChevalleyError("adjoint operator is not nilpotent")
            term = alg.bracket(gen, term)
            term = {l: c * self.t / k for l, c in term.items() if c}
            for l, c in term.items():
                val = acc.get(l, 0) + c
                if val:
                    acc[l] = val
                elif l in acc:
                    del acc[l]
        return acc


def exp_ad(alg: ChevalleyAlgebra, root, t) -> ExpAd:
    if root not in alg.rootset:
        raise ChevalleyError("exp_ad requires a root of the algebra")
    return ExpAd(alg, root, Fraction(t))


# ---------------------------------------------------------------------------
# pinned automorphisms


class PinnedAutomorphism:
    """Lift of a diagram automorphism to the Chevalley algebra, pinned to act
    without signs on the simple root vectors and their opposites."""

    def __init__(self, algebra: ChevalleyAlgebra, twist: DiagramAutomorphism):
        self.algebra = algebra
        self.twist = twist
        self._build_signs()
        self._verify()
        self._order = self._compute_order()

    def _build_signs(self) -> None:
        alg = self.algebra
        datum = alg.datum
        signs: dict = {}
        for idx in datum.simple_indices:
            alpha = datum.roots[idx]
            signs[alpha] = 1
            signs[vec_scale(-1, alpha)] = 1
        for gamma in sorted(
            alg.positive_order, key=lambda r: (datum.height(r), alg.order_index[r])
        ):
            if gamma in signs:
                continue
            eps, eta = alg.extraspecial[gamma]
            n_here = alg.structure_constant(eps, eta)
            img = alg.structure_constant(self.twist.apply(eps), self.twist.apply(eta))
            ratio = img // n_here
            if ratio * n_here != img or ratio not in (1, -1):
                raise ChevalleyError("pinned automorphism does not close")
            signs[gamma] = signs[eps] * signs[eta] * ratio
            neps, neta = vec_scale(-1, eps), vec_scale(-1, eta)
            n_neg = alg.structure_constant(neps, neta)
            img_neg = alg.structure_constant(self.twist.apply(neps), self.twist.apply(neta))
            ratio_neg = img_neg // n_neg
            if ratio_neg * n_neg != img_neg or ratio_neg not in (1, -1):
                raise ChevalleyError("pinned automorphism does not close")
            signs[vec_scale(-1, gamma)] = signs[neps] * signs[neta] * ratio_neg
        self.signs = signs

    def apply(self, elt: dict) -> dict:
        out: dict = {}
        for label, coeff in elt.items():
            if label[0] == "x":
                root = label[1]
                target = ("x", self.twist.apply(root))
                val = out.get(target, 0) + coeff * self.signs[root]
            else:
                target = ("h", self.twist.permutation[label[1]])
                val = out.get(target, 0) + coeff
            if val:
                out[target] = val
            elif target in out:
                del out[target]
        return out

    def _verify(self) -> None:
        alg = self.algebra
        for a in alg.labels:
            ea = self.apply(alg.basis_element(a))
            for b in alg.labels:
                eb = self.apply(alg.basis_element(b))
                lhs = self.apply(alg.bracket(alg.basis_element(a), alg.basis_element(b)))
                rhs = alg.bracket(ea, eb)
                if lhs != rhs:
                    raise ChevalleyError(
                        "pinned automorphism does not preserve the bracket"
                    )

    @cached_property
    def orbit_signs(self) -> dict:
        """Each root -> (k, s): k the size of its twist orbit, s the product of
        the signs around it, so that the lift to the k-th power is s on X_root."""
        datum = self.algebra.datum
        index = datum.root_index
        out = {}
        for cycle in cycles([index[self.twist.apply(r)] for r in datum.roots]):
            orbit = [datum.roots[i] for i in cycle]
            out.update(dict.fromkeys(orbit, (len(orbit), prod(self.signs[r] for r in orbit))))
        return out

    def _compute_order(self) -> int:
        """The lcm over the twist orbits of k, or 2k where the sign s is -1."""
        order = lcm(*(k if s == 1 else 2 * k for k, s in self.orbit_signs.values()))
        if order % self.twist.order != 0:
            raise ChevalleyError("automorphism order mismatch")
        return order

    @property
    def order(self) -> int:
        return self._order


@lru_cache(maxsize=None)
def pinned_automorphism(
    alg: ChevalleyAlgebra, twist: DiagramAutomorphism
) -> PinnedAutomorphism:
    return PinnedAutomorphism(alg, twist)


def orbit_sign(alg: ChevalleyAlgebra, pinned: PinnedAutomorphism, root) -> int:
    """Sign of gamma-hat^k on X_root, k the twist-orbit size of the root."""
    return pinned.orbit_signs[root][1]
