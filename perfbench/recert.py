"""Independent re-certifier for laserlab value-table cache files.

It reads a cache file as plain JSON and re-derives every stored value
bottom-up in 50-digit mpmath arithmetic. It imports nothing from laserlab,
so a fault shared by the search and the program's own `cache verify`
cannot hide here.

- Class sizes come from polynomial coefficients. The block triples of
  CW_q are the permutations of (0,0,2), with one term each, and of
  (0,1,1), with q terms each. So class (a,b,c) of CW_q^s is nonzero iff
  x^a y^b z^c has a nonzero coefficient in
  (x^2 + y^2 + z^2 + q(xy + yz + zx))^s.
- A merged class (0,J,K) is the matrix multiplication tensor <N,1,1>, and
  N is the coefficient of x^J y^K in (x^2 + q xy + y^2)^s. Its value is
  tau ln N.
- Any other class at level s splits into pairs of classes at level s/2.
  Its value is the refined bound of the stored alpha on that split:
  sum alpha L + (H(x) + H(y) + H(z))/3 + (H(alpha) - D)/2.
  D bounds the largest entropy with alpha's marginals. It is the Gibbs
  dual bound ln sum_S exp(m_i + m_j + m_k) - sum g m, which holds for any
  multipliers m, so the stored ones are used as they are.
- The headline claim is re-derived from the file alone: the top value
  must clear t ln(q+2), and then omega <= 3 tau.

Each entry's claim may exceed its re-derived value by at most 1e-9, since
the stored claims are rounded doubles. The headline needs a margin of
1e-30 instead. That margin is far above the rounding error of 50-digit
arithmetic on tables of this size.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import mpmath

DPS = 50
ENTRY_SLACK = "1e-9"
HEADLINE_MARGIN = "1e-30"


class Rejected(ValueError):
    """The file does not support one of its claims."""


def _poly_power(base: dict[tuple, int], s: int) -> dict[tuple, int]:
    out: dict[tuple, int] = {tuple(0 for _ in next(iter(base))): 1}
    for _ in range(s):
        nxt: dict[tuple, int] = {}
        for e1, c1 in out.items():
            for e2, c2 in base.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nxt[e] = nxt.get(e, 0) + c1 * c2
        out = nxt
    return out


@dataclass
class Report:
    """Outcome of re-certifying one cache file."""

    q: int
    t: int
    tau: str
    entries: int = 0
    failures: list[str] = field(default_factory=list)
    top_value: float | None = None
    margin: float | None = None
    headline: bool = False

    @property
    def ok(self) -> bool:
        return self.headline and not self.failures

    @property
    def omega(self) -> float:
        """3 tau, the omega bound the file supports when `ok`."""
        return 3 * float(self.tau)


class _Table:
    def __init__(self, doc: dict):
        self.q = int(doc["q"])
        self.t = int(doc["t"])
        self.tau = mpmath.mpf(doc["tau"])
        if self.q < 0 or self.t < 1 or self.t & (self.t - 1):
            raise Rejected(f"bad header q={self.q} t={self.t}")
        if not (mpmath.mpf(2) / 3 <= self.tau <= 1):
            raise Rejected(f"tau {doc['tau']} outside [2/3, 1]")
        self.entries: dict[tuple[int, tuple[int, int, int]], dict] = {}
        for e in doc["entries"]:
            key = (int(e["I"]), int(e["J"]), int(e["K"]))
            if list(key) != sorted(key) or sum(key) % 2:
                raise Rejected(f"non-canonical entry key {key}")
            level = sum(key) // 2
            if (level, key) in self.entries:
                raise Rejected(f"duplicate entry {key}")
            self.entries[(level, key)] = e
        self.top = doc["top"]
        self._counts: dict[int, dict] = {}
        self._merged: dict[int, dict] = {}
        self._values: dict[tuple[int, tuple], mpmath.mpf] = {}

    def class_size(self, s: int, key: tuple[int, int, int]) -> int:
        if s not in self._counts:
            q = self.q
            base = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
            if q:
                base.update({(1, 1, 0): q, (0, 1, 1): q, (1, 0, 1): q})
            self._counts[s] = _poly_power(base, s)
        return self._counts[s].get(tuple(key), 0)

    def merged_count(self, s: int, J: int, K: int) -> int:
        if s not in self._merged:
            self._merged[s] = _poly_power({(2, 0): 1, (1, 1): self.q, (0, 2): 1}, s)
        return self._merged[s].get((J, K), 0)

    def split(self, s: int, key: tuple[int, int, int]) -> dict[tuple, tuple]:
        """Inner support of a class: child -> complement, both nonzero at s/2."""
        half = s // 2
        I, J, K = key
        out = {}
        for a in range(I + 1):
            for b in range(J + 1):
                c = s - a - b
                if not 0 <= c <= K:
                    continue
                child, comp = (a, b, c), (I - a, J - b, K - c)
                if self.class_size(half, child) and self.class_size(half, comp):
                    out[child] = comp
        return out

    def value(self, s: int, key: tuple[int, int, int]) -> mpmath.mpf:
        key = tuple(sorted(key))
        memo = self._values.get((s, key))
        if memo is not None:
            return memo
        if not self.class_size(s, key):
            raise Rejected(f"class {key} at level {s} is the zero tensor")
        if key[0] == 0:
            v = self.tau * mpmath.log(self.merged_count(s, key[1], key[2]))
        else:
            entry = self.entries.get((s, key))
            if entry is None:
                raise Rejected(f"no entry for class {key} at level {s}")
            if s % 2:
                raise Rejected(f"class {key} at odd level {s} cannot split")
            inner = self.split(s, key)
            L = {
                child: self.value(s // 2, child) + self.value(s // 2, comp)
                for child, comp in inner.items()
            }
            v = refined_value(L, entry.get("alpha"), entry.get("dual_multipliers"), f"class {key}")
        self._values[(s, key)] = v
        return v


def _entropy(ps) -> mpmath.mpf:
    return -mpmath.fsum(p * mpmath.log(p) for p in ps if p > 0)


def _number(text) -> mpmath.mpf:
    try:
        v = mpmath.mpf(text)
    except ValueError:
        v = mpmath.mpf(float(text))  # "-Infinity", which the cache writes for dead labels
    if mpmath.isnan(v):
        raise Rejected(f"not a number: {text!r}")
    return v


def refined_value(L: dict, alpha_json, mults_json, where: str) -> mpmath.mpf:
    """The refined bound of a stored alpha on a support with values L."""
    if not alpha_json:
        raise Rejected(f"{where}: no alpha stored")
    if not mults_json:
        raise Rejected(f"{where}: no dual multipliers stored")
    w: dict[tuple, mpmath.mpf] = {}
    for item in alpha_json:
        trip = (int(item["i"]), int(item["j"]), int(item["k"]))
        if trip not in L:
            raise Rejected(f"{where}: alpha triple {trip} outside the inner support")
        if trip in w:
            raise Rejected(f"{where}: alpha triple {trip} listed twice")
        p = _number(item["w"])
        if not (mpmath.isfinite(p) and p >= 0):
            raise Rejected(f"{where}: alpha weight {item['w']} at {trip}")
        w[trip] = p
    total = mpmath.fsum(w.values())
    if not total > 0:
        raise Rejected(f"{where}: alpha has no mass")
    w = {trip: p / total for trip, p in w.items()}
    gx: dict[int, mpmath.mpf] = {}
    gy: dict[int, mpmath.mpf] = {}
    gz: dict[int, mpmath.mpf] = {}
    for (i, j, k), p in w.items():
        gx[i] = gx.get(i, 0) + p
        gy[j] = gy.get(j, 0) + p
        gz[k] = gz.get(k, 0) + p
    log_v = mpmath.fsum(p * L[trip] for trip, p in w.items())
    log_b = (_entropy(gx.values()) + _entropy(gy.values()) + _entropy(gz.values())) / 3
    log_n = _entropy(w.values())

    sides = []
    for side, marg in (("x", gx), ("y", gy), ("z", gz)):
        stored = mults_json.get(side)
        if not isinstance(stored, dict):
            raise Rejected(f"{where}: no {side} multipliers")
        m = {}
        for label, p in marg.items():
            if p > 0:
                if str(label) not in stored:
                    raise Rejected(f"{where}: missing {side} multiplier for label {label}")
                m[label] = _number(stored[str(label)])
        sides.append(m)
    mx, my, mz = sides
    terms = [
        mx[i] + my[j] + mz[k]
        for (i, j, k) in L
        if gx.get(i, 0) > 0 and gy.get(j, 0) > 0 and gz.get(k, 0) > 0
    ]
    finite = [v for v in terms if mpmath.isfinite(v)]
    if any(v == mpmath.inf for v in terms) or not finite:
        raise Rejected(f"{where}: dual multipliers give no finite bound")
    peak = max(finite)
    log_z = peak + mpmath.log(mpmath.fsum(mpmath.exp(v - peak) for v in finite))
    dot = (
        mpmath.fsum(p * mx[i] for i, p in gx.items() if p > 0)
        + mpmath.fsum(p * my[j] for j, p in gy.items() if p > 0)
        + mpmath.fsum(p * mz[k] for k, p in gz.items() if p > 0)
    )
    dual = log_z - dot
    if not mpmath.isfinite(dual):
        raise Rejected(f"{where}: dual bound is not finite")
    return log_v + log_b + (log_n - max(dual, log_n)) / 2


def certify(doc: dict) -> Report:
    """Re-derive every entry and the headline claim of one parsed cache file."""
    with mpmath.workdps(DPS):
        try:
            table = _Table(doc)
        except (KeyError, TypeError, ValueError) as exc:
            return Report(q=-1, t=-1, tau="0", failures=[f"unreadable table: {exc!r}"])
        report = Report(q=table.q, t=table.t, tau=str(doc["tau"]))
        slack = mpmath.mpf(ENTRY_SLACK)
        for (s, key), entry in sorted(table.entries.items()):
            report.entries += 1
            try:
                claimed = _number(entry["log_value"])
                got = table.value(s, key)
            except (KeyError, TypeError, ValueError) as exc:
                report.failures.append(f"class {key} at level {s}: {exc}")
                continue
            if not got >= claimed - slack:
                report.failures.append(
                    f"class {key} at level {s}: claims {mpmath.nstr(claimed, 15)},"
                    f" re-derived {mpmath.nstr(got, 15)}"
                )
        try:
            t = table.t
            support = {}
            for I in range(2 * t + 1):
                for J in range(2 * t + 1 - I):
                    trip = (I, J, 2 * t - I - J)
                    if table.class_size(t, trip):
                        support[trip] = table.value(t, trip)
            top = table.top
            if top.get("alpha") is None:
                top_value = max(support.values())
            else:
                top_value = refined_value(support, top["alpha"], top.get("dual_multipliers"), "top")
            claimed = _number(top["log_value"])
        except (KeyError, TypeError, ValueError) as exc:
            report.failures.append(f"top: {exc}")
            return report
        if not top_value >= claimed - slack:
            report.failures.append(
                f"top: claims {mpmath.nstr(claimed, 15)}, re-derived {mpmath.nstr(top_value, 15)}"
            )
        threshold = t * mpmath.log(table.q + 2)
        report.top_value = float(top_value)
        report.margin = float(top_value - threshold)
        report.headline = bool(top_value >= threshold + mpmath.mpf(HEADLINE_MARGIN))
        return report


def tampered_copies(doc: dict) -> dict[str, dict]:
    """Two copies of a table that a sound checker must reject.

    One lowers tau by 1e-4, which lowers every merged value. The other
    raises the claim of the highest-level entry by 1e-6, well above the
    per-entry slack.
    """
    low_tau = copy.deepcopy(doc)
    with mpmath.workdps(DPS):
        low_tau["tau"] = mpmath.nstr(mpmath.mpf(doc["tau"]) - mpmath.mpf("1e-4"), 35)
    raised = copy.deepcopy(doc)
    entry = max(raised["entries"], key=lambda e: (e["I"] + e["J"] + e["K"], e["I"], e["J"]))
    with mpmath.workdps(DPS):
        entry["log_value"] = mpmath.nstr(mpmath.mpf(entry["log_value"]) + mpmath.mpf("1e-6"), 35)
    return {"tau_lowered": low_tau, "claim_raised": raised}
