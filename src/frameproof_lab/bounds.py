"""Closed-form bound evaluation with explicit hypothesis flags.

Every bound in the package is reported together with the side conditions it
needs; an entry is applicable only when all of its hypotheses hold, and
inapplicable entries are kept in the report with the failed condition named
rather than dropped.  All arithmetic is exact (integers and Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import ParameterError, lambda_of
from .gf import factorize


@dataclass(frozen=True)
class Hypothesis:
    text: str
    ok: bool

    def to_json(self) -> dict:
        return {"text": self.text, "ok": self.ok}


@dataclass(frozen=True)
class BoundEntry:
    quantity: str
    value: int | Fraction
    direction: str  # "upper" | "lower" | "exact"
    source: str
    hypotheses: tuple[Hypothesis, ...]

    @property
    def applicable(self) -> bool:
        return all(h.ok for h in self.hypotheses)

    def to_json(self) -> dict:
        val = self.value
        return {
            "quantity": self.quantity,
            "value": str(val) if isinstance(val, Fraction) else val,
            "direction": self.direction,
            "source": self.source,
            "applicable": self.applicable,
            "hypotheses": [h.to_json() for h in self.hypotheses],
        }


@dataclass(frozen=True)
class BoundReport:
    quantity: str
    entries: tuple[BoundEntry, ...]

    def applicable(self, direction: str | None = None) -> list[BoundEntry]:
        return [
            e
            for e in self.entries
            if e.applicable and (direction is None or e.direction == direction)
        ]

    def exact_value(self) -> int | Fraction | None:
        """An exact entry, or a pinched upper == lower pair, for the headline
        quantity; None when the bounds leave a gap."""
        own = [e for e in self.applicable() if e.quantity == self.quantity]
        for e in own:
            if e.direction == "exact":
                return e.value
        uppers = [e.value for e in own if e.direction == "upper"]
        lowers = [e.value for e in own if e.direction == "lower"]
        if uppers and lowers and min(uppers) == max(lowers):
            return min(uppers)
        return None

    def to_json(self) -> dict:
        exact = self.exact_value()
        return {
            "quantity": self.quantity,
            "exact": str(exact) if isinstance(exact, Fraction) else exact,
            "entries": [e.to_json() for e in self.entries],
        }


def _prime_power_floor(q: int) -> int:
    """Smallest maximal prime-power divisor p_i^{e_i} in the factorization of q."""
    return min(p**e for p, e in factorize(q))


def hypergraph_bounds(
    n: int,
    k: int,
    c: int,
    s: int,
    m_value: int,
    packing_size: int | None = None,
    design_available: bool = False,
) -> BoundReport:
    """Bounds on the largest threshold-safe k-uniform family on [n].

    m_value must be the matching number for (k, t, lam) at (s+1, c-s+1);
    it is taken as input so the solver stays the single source of truth.
    """
    if not 2 <= k <= n:
        raise ParameterError(f"need n >= k >= 2, got n={n}, k={k}")
    lam, t = lambda_of(c, s, k)
    s0 = min(s, c - s)
    quantity = f"f_{{{c},{s}}}({n},{k})"
    total_n = comb(n, t)
    total_k = comb(k, t)
    if not 0 <= m_value <= total_k:
        raise ParameterError(f"matching number m={m_value} outside [0..C({k},{t})={total_k}]")
    if packing_size is not None and not 0 <= packing_size <= total_n // total_k:
        raise ParameterError(
            f"packing size {packing_size} outside [0..C({n},{t})//C({k},{t})={total_n // total_k}]"
        )
    denom = total_k - m_value
    entries: list[BoundEntry] = []

    hyp_denom = Hypothesis(f"C(k,t) - m = {denom} > 0", denom > 0)
    n0 = denom * t + t - 1 if denom > 0 else None
    hyp_n0 = Hypothesis(
        f"n >= n0 = (C(k,t)-m)t + t-1 = {n0}", n0 is not None and n >= n0
    )
    entries.append(
        BoundEntry(
            quantity,
            Fraction(total_n, denom) if denom > 0 else 0,
            "upper",
            "own-subset counting",
            (hyp_denom, hyp_n0),
        )
    )

    if packing_size is not None:
        entries.append(
            BoundEntry(
                quantity,
                packing_size,
                "lower",
                "packing construction",
                (Hypothesis(f"supplied packing has strength t={t}", True),),
            )
        )

    hyp_lam = Hypothesis(
        f"1 <= lam <= min(s, c-s) (lam={lam}, s0={s0})", 1 <= lam <= s0
    )
    hyp_design = Hypothesis(f"an ({n},{k},{t})-design is available", design_available)
    entries.append(
        BoundEntry(
            quantity,
            Fraction(total_n, total_k),
            "exact",
            "design exactness",
            (hyp_lam, hyp_design, hyp_n0),
        )
    )

    crit_threshold = Fraction(denom * (t + c), s0) + t - 1 if denom > 0 else None
    entries.append(
        BoundEntry(
            f"g_{{{c},{s}}}({n},{k})",
            Fraction(s0 * total_n, denom) if denom > 0 else 0,
            "upper",
            "critical own-subset counting (factor s0)",
            (
                hyp_denom,
                Hypothesis(
                    f"n >= (C(k,t)-m)(t+c)/s0 + t-1 = {crit_threshold}",
                    crit_threshold is not None and n >= crit_threshold,
                ),
            ),
        )
    )
    return BoundReport(quantity, tuple(entries))


def code_bounds(n: int, c: int, s: int, q: int, m_value: int) -> BoundReport:
    """Bounds on the largest threshold-safe code in [q]^n.

    m_value must be the matching number for (n, t, lam) at (s+1, c-s+1).
    """
    if q < 2:
        raise ParameterError(f"alphabet size q={q} must be >= 2")
    if n < 2:
        raise ParameterError(f"length n={n} must be >= 2")
    lam, t = lambda_of(c, s, n)
    s0 = min(s, c - s)
    quantity = f"f^{{{q}}}_{{{c},{s}}}({n})"
    total = comb(n, t)
    if not 0 <= m_value <= total:
        raise ParameterError(f"matching number m={m_value} outside [0..C({n},{t})={total}]")
    denom = total - m_value
    qt = q**t
    entries: list[BoundEntry] = []

    hyp_denom = Hypothesis(f"C(n,t) - m = {denom} > 0", denom > 0)
    q_min = Fraction(t * denom, n - t + 1)
    entries.append(
        BoundEntry(
            quantity,
            Fraction(total, denom) * qt if denom > 0 else 0,
            "upper",
            "own-subsequence counting",
            (hyp_denom, Hypothesis(f"q >= t(C(n,t)-m)/(n-t+1) = {q_min}", q >= q_min)),
        )
    )

    hyp_lam = Hypothesis(
        f"1 <= lam <= min(s, c-s) (lam={lam}, s0={s0})", 1 <= lam <= s0
    )
    entries.append(
        BoundEntry(
            quantity,
            qt,
            "upper",
            "small-alphabet pigeonhole",
            (hyp_lam, Hypothesis(f"q > c - lam = {c - lam}", q > c - lam)),
        )
    )

    pe = _prime_power_floor(q)
    n_lo = max(Fraction(2 * c, c - s), c - lam)
    entries.append(
        BoundEntry(
            quantity,
            qt,
            "exact",
            "distance-code exactness",
            (
                Hypothesis(f"q >= c (q={q}, c={c})", q >= c),
                hyp_lam,
                Hypothesis(f"n >= max(2c/(c-s), c-lam) = {n_lo}", n >= n_lo),
                Hypothesis(f"n <= p1^e1 + 1 = {pe + 1}", n <= pe + 1),
            ),
        )
    )

    q_min_crit = Fraction(t * denom, s0 * (n - t + 1))
    entries.append(
        BoundEntry(
            f"g^{{{q}}}_{{{c},{s}}}({n})",
            Fraction(s0 * total, denom) * qt if denom > 0 else 0,
            "upper",
            "critical own-subsequence counting (factor s0)",
            (
                hyp_denom,
                Hypothesis(
                    f"q >= t(C(n,t)-m)/(s0(n-t+1)) = {q_min_crit}", q >= q_min_crit
                ),
                Hypothesis(f"s0 * q^t >= c+1 = {c + 1}", s0 * qt >= c + 1),
            ),
        )
    )
    return BoundReport(quantity, tuple(entries))
