"""Deterministic reproduction reports for the bundled worked examples.

Each operation re-derives one worked scenario from scratch (no seeds, no
sampling) and diffs the computed values against the expected ones recorded
here.  A report line never hides a mismatch: expected values that cannot be
reproduced stay in the report as failures with a note.
"""

from dataclasses import dataclass

from .model import (
    Assignment,
    EnumerationBoundExceeded,
    MalformedProblem,
    Problem,
    complete_partial_profile,
)
from .mechanisms import (
    final_order,
    npb_draft_priority,
    run_bttc,
    run_csd,
    run_npb,
    run_tsd,
    run_ttc,
)
from .partition import canonical_partition
from .verifier import (
    cee_set,
    certify_ri_violation,
    is_improvement,
    scan_ce_efficient_selections,
)


# -- report plumbing ---------------------------------------------------------


@dataclass(frozen=True)
class CheckLine:
    label: str
    ok: bool
    computed: str
    expected: str
    note: str = ""

    def to_dict(self):
        d = {
            "label": self.label,
            "ok": self.ok,
            "computed": self.computed,
            "expected": self.expected,
        }
        if self.note:
            d["note"] = self.note
        return d

    def render(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        body = f"{mark} {self.label}: {self.computed}"
        if not self.ok:
            body += f" (expected {self.expected})"
        if self.note:
            body += f"  [{self.note}]"
        return body


@dataclass(frozen=True)
class ReproReport:
    repro: str
    lines: tuple

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    def to_dict(self):
        return {
            "repro": self.repro,
            "ok": self.ok,
            "lines": [line.to_dict() for line in self.lines],
        }

    def render(self) -> str:
        out = [f"# repro {self.repro}: {'ok' if self.ok else 'FAILED'}"]
        out.extend(line.render() for line in self.lines)
        return "\n".join(out)


def _eq(label, computed, expected, note="") -> CheckLine:
    return CheckLine(label, computed == expected, str(computed), str(expected), note)


def _true(label, ok, detail, note="") -> CheckLine:
    return CheckLine(label, bool(ok), detail, "to hold", note)


# -- worked example: six divisions in two leagues ----------------------------

_INTRO_NAMES = ("A1", "A2", "A3", "B1", "B2", "B3")


def _intro_problem() -> Problem:
    # Six divisions in two groups of three; every division likes worker 2
    # best, then 1, 3, 4, 5, 6.  Exogenous priority is 1..6.
    order = (2, 1, 3, 4, 5, 6)
    return Problem(
        profile=complete_partial_profile([order] * 6),
        partition=canonical_partition(6),
        names=_INTRO_NAMES,
    )


def _intro_worker(w: int) -> str:
    return _INTRO_NAMES[w - 1].lower()


def _intro_assignment_str(assignment: Assignment) -> str:
    return ", ".join(
        f"{_INTRO_NAMES[i - 1]}->{_intro_worker(w)}" for i, w in assignment.items()
    )


def repro_intro_example() -> ReproReport:
    problem = _intro_problem()
    lines = []

    csd, csd_trace = run_csd(problem)
    expected = Assignment((4, 5, 6, 2, 1, 3))
    lines.append(
        _eq("intro/csd-assignment", _intro_assignment_str(csd), _intro_assignment_str(expected))
    )
    got_steps = tuple((s.chooser, s.worker, s.kind) for s in csd_trace.steps)
    want_steps = (
        (1, 4, "start"),
        (4, 2, "owner-call"),
        (2, 5, "owner-call"),
        (5, 1, "owner-call"),
        (3, 6, "fallback"),
        (6, 3, "owner-call"),
    )
    lines.append(_eq("intro/csd-trace", got_steps, want_steps))

    tsd, tsd_trace = run_tsd(problem)
    noms = tuple((s.chooser, s.worker) for s in tsd_trace.steps)
    lines.append(
        _eq(
            "intro/tsd-nominations",
            noms,
            ((1, 4), (2, 5), (3, 6), (4, 2), (5, 1), (6, 3)),
        )
    )
    forder = final_order(problem, "tsd")
    lines.append(_eq("intro/tsd-group-orders", forder.group_orders, ((2, 1, 3), (4, 5, 6))))

    note = (
        "documented deviation: the stated second-stage picks just restate the "
        "nominations; an actual second-stage serial dictatorship in the "
        "determined order (A2 first) hands A2 its best remaining worker b1"
    )
    lines.append(
        _eq(
            "intro/tsd-assignment",
            _intro_assignment_str(tsd),
            _intro_assignment_str(expected),
            note,
        )
    )
    lines.append(
        _eq("intro/tsd-equals-csd", _intro_assignment_str(tsd), _intro_assignment_str(csd), note)
    )
    return ReproReport("intro", tuple(lines))


# -- worked example: the ten four-division profiles --------------------------

_MUS = {
    "mu1": (2, 3, 4, 1),
    "mu2": (3, 1, 4, 2),
    "mu3": (3, 4, 2, 1),
    "mu4": (4, 3, 1, 2),
    "mu5": (4, 3, 2, 1),
}

# Rows list only the three workers other than the division's own; the own
# worker is appended last before use.
_P = {
    1: ((2, 3, 4), (3, 4, 1), (4, 2, 1), (1, 2, 3)),
    2: ((3, 4, 2), (1, 3, 4), (4, 2, 1), (2, 1, 3)),
    3: ((4, 2, 3), (3, 1, 4), (1, 4, 2), (2, 1, 3)),
    4: ((3, 2, 4), (3, 4, 1), (4, 2, 1), (1, 2, 3)),
    5: ((3, 4, 2), (3, 1, 4), (4, 2, 1), (2, 1, 3)),
    6: ((4, 2, 3), (3, 1, 4), (4, 1, 2), (2, 1, 3)),
    7: ((4, 2, 3), (3, 1, 4), (4, 2, 1), (2, 1, 3)),
    8: ((3, 4, 2), (3, 1, 4), (4, 2, 1), (1, 2, 3)),
    9: ((3, 4, 2), (3, 4, 1), (4, 2, 1), (1, 2, 3)),
    10: ((3, 4, 2), (3, 4, 1), (2, 4, 1), (1, 2, 3)),
}

_E = {
    1: ("mu1",),
    2: ("mu2",),
    3: ("mu4",),
    4: ("mu1", "mu2", "mu3"),
    5: ("mu1", "mu2", "mu4", "mu5"),
    6: ("mu1", "mu2", "mu4"),
    7: ("mu1", "mu2", "mu4", "mu5"),
    8: ("mu1", "mu2", "mu3", "mu5"),
    9: ("mu1", "mu2", "mu3", "mu5"),
    10: ("mu3", "mu5"),
}

# Improvement pairs used to rule assignments out: label, division whose
# worker improves, base profile, improved profile, row that changes, and the
# pairwise flip (loser-then-winner before, winner-then-loser after).
_RI_ITEMS = (
    ("tables/ri-1", 3, 1, 4, 1, (2, 3), ""),
    ("tables/ri-2", 3, 2, 5, 2, (1, 3), ""),
    ("tables/ri-3", 4, 3, 6, 3, (1, 4), ""),
    ("tables/ri-4", 1, 7, 6, 3, (2, 1), ""),
    ("tables/ri-5", 1, 5, 8, 4, (2, 1), ""),
    ("tables/ri-6", 4, 10, 9, 3, (2, 4), ""),
    ("tables/ri-7", 2, 9, 4, 1, (4, 2), ""),
    ("tables/ri-8", 4, 10, 9, 3, (2, 4), "same pair re-applied in the alternative branch"),
)

# Profitable deviations: label, division, true profile, misreport profile,
# worker under the stated truthful assignment, worker under the stated
# post-deviation assignment.
_SP_ITEMS = (
    ("tables/sp-1", 2, 8, 9, 1, 3),
    ("tables/sp-2", 1, 4, 9, 2, 3),
    ("tables/sp-3", 2, 8, 9, 4, 3),
)


def _table_profile(k: int):
    return complete_partial_profile(_P[k])


def repro_n4_tables() -> ReproReport:
    lines = []
    profiles = {k: _table_profile(k) for k in _P}

    known = {m: name for name, m in _MUS.items()}
    for k in sorted(_P):
        got = cee_set(profiles[k])
        got_names = sorted(known.get(t, str(t)) for t in got)
        lines.append(
            _eq(
                f"tables/E{k}",
                "{" + ", ".join(got_names) + "}",
                "{" + ", ".join(_E[k]) + "}",
            )
        )

    for label, div, kb, ki, row, flip, note in _RI_ITEMS:
        base, improved = profiles[kb], profiles[ki]
        lo, hi = flip
        facts = [
            base.orders[div - 1] == improved.orders[div - 1],
            all(
                base.orders[j] == improved.orders[j]
                for j in range(4)
                if j not in (div - 1, row - 1)
            ),
            base.prefers(row, lo, div),
            improved.prefers(row, div, lo),
            is_improvement(base, improved, div),
        ]
        detail = (
            f"P{ki} raises worker {div} in row {row} of P{kb} "
            f"({lo} over {div} before, {div} over {lo} after); valid improvement"
        )
        lines.append(_true(label, all(facts), detail, note))

    for label, div, kt, kd, w_true, w_dev in _SP_ITEMS:
        true_p, dev_p = profiles[kt], profiles[kd]
        facts = [
            true_p.with_order(div, dev_p.orders[div - 1]).orders == dev_p.orders,
            true_p.prefers(div, w_dev, w_true),
        ]
        detail = (
            f"P{kd} is a unilateral misreport by division {div} at P{kt}; "
            f"stated outcomes move it from worker {w_true} to {w_dev}, and "
            f"{w_dev} beats {w_true} in its true order"
        )
        lines.append(_true(label, all(facts), detail))

    return ReproReport("tables", tuple(lines))


# -- worked example: backward trading cycles vs plain trading cycles ---------


def _bttc_profiles():
    base = complete_partial_profile([(1, 2, 3), (3, 1, 2), (2, 3, 1)])
    improved = complete_partial_profile([(1, 2, 3), (1, 3, 2), (2, 3, 1)])
    return base, improved


def repro_bttc_ri() -> ReproReport:
    base, improved = _bttc_profiles()
    pb, pi = Problem(profile=base), Problem(profile=improved)
    lines = []

    bttc_b, _ = run_bttc(pb)
    bttc_i, _ = run_bttc(pi)
    lines.append(_eq("bttc/base", bttc_b.mapping, (1, 3, 2)))
    lines.append(_eq("bttc/improved", bttc_i.mapping, (2, 1, 3)))
    lines.append(_eq("ttc/base", run_ttc(pb).mapping, (1, 3, 2)))
    lines.append(_eq("ttc/improved", run_ttc(pi).mapping, (1, 3, 2)))

    lines.append(
        _true(
            "bttc/improvement-relation",
            is_improvement(base, improved, 1),
            "the second profile raises worker 1 in division 2's order, all else equal",
        )
    )
    lines.append(
        _true(
            "bttc/division-1-worse",
            certify_ri_violation(base, improved, 1, bttc_b, bttc_i),
            f"division 1 falls from worker {bttc_b.mapping[0]} to {bttc_i.mapping[0]} "
            "in its unchanged order",
        )
    )
    lines.append(
        _true(
            "ttc/division-1-unharmed",
            run_ttc(pb).mapping[0] == run_ttc(pi).mapping[0] == 1,
            "plain trading cycles keeps division 1 on its own worker both times",
        )
    )
    return ReproReport("bttc", tuple(lines))


# -- worked example: the player draft ----------------------------------------


def _prefix_profile(prefixes, n):
    """Rows given as displayed prefixes over other clubs' players; the rest
    of each row is filled ascending, own player last."""
    rows = []
    for i, prefix in enumerate(prefixes, start=1):
        prefix = tuple(prefix)
        if i in prefix or len(set(prefix)) != len(prefix):
            raise MalformedProblem(f"bad prefix for club {i}: {prefix!r}")
        rest = tuple(w for w in range(1, n + 1) if w != i and w not in prefix)
        rows.append(prefix + rest)
    return complete_partial_profile(rows, n)


def _npb_sp_profiles(n: int):
    if n < 4:
        raise MalformedProblem("the profitable-misreport construction needs n >= 4")
    truthful = [(k + 1,) for k in range(1, n - 2 + 1)]
    truthful.append((1, 2, n))
    truthful.append((1,))
    misreport = list(truthful)
    misreport[n - 2] = (2, 1, n)
    return _prefix_profile(truthful, n), _prefix_profile(misreport, n)


def _npb_ri_profiles(n: int):
    if n < 3:
        raise MalformedProblem("the draft needs at least three clubs")
    high = [(k + 1,) for k in range(1, n - 3 + 1)]
    high.append((n - 1, n))
    high.append((1,))
    high.append((1,))
    low = list(high)
    low[n - 3] = (n, n - 1)
    return _prefix_profile(high, n), _prefix_profile(low, n)


def repro_npb(n: int) -> ReproReport:
    if n < 3:
        raise MalformedProblem("the draft needs at least three clubs")
    if n > _NPB_MAX_N:  # the scenario builds n-by-n profiles
        raise EnumerationBoundExceeded(f"the draft scenario is capped at n={_NPB_MAX_N}")
    lines = []
    mover = n - 1

    high, low = _npb_ri_profiles(n)
    ph, pl = Problem(profile=high), Problem(profile=low)
    out_h, _ = run_npb(ph)
    out_l, _ = run_npb(pl)
    lines.append(
        _true(
            "npb/ri-improvement",
            is_improvement(low, high, mover),
            f"swapping players {n - 1} and {n} at club {n - 2} raises club "
            f"{mover}'s player to the top, all else equal",
        )
    )
    lines.append(_eq("npb/ri-draft-high", npb_draft_priority(ph), tuple(range(1, n + 1))))
    lines.append(
        _eq(
            "npb/ri-draft-low",
            npb_draft_priority(pl),
            tuple(range(1, n - 1)) + (n, n - 1),
        )
    )
    lines.append(_eq("npb/ri-outcome-high", out_h.mapping[mover - 1], n))
    lines.append(_eq("npb/ri-outcome-low", out_l.mapping[mover - 1], 1))
    lines.append(
        _true(
            "npb/ri-violation",
            certify_ri_violation(low, high, mover, out_l, out_h),
            f"club {mover} falls from player 1 to player {n} although its own "
            "player became more attractive",
        )
    )
    if n <= 9:
        lines.append(
            _true(
                "npb/ri-outputs-efficient",
                out_h.mapping in cee_set(high) and out_l.mapping in cee_set(low),
                "both draft outcomes lie in the efficient derangement sets",
            )
        )

    if n >= 4:
        truthful, misreport = _npb_sp_profiles(n)
        pt, pm = Problem(profile=truthful), Problem(profile=misreport)
        out_t, _ = run_npb(pt)
        out_m, _ = run_npb(pm)
        lines.append(
            _true(
                "npb/sp-deviation",
                truthful.with_order(mover, misreport.orders[mover - 1]).orders
                == misreport.orders,
                f"the second profile is a unilateral misreport by club {mover}",
            )
        )
        lines.append(_eq("npb/sp-draft-truthful", npb_draft_priority(pt), tuple(range(1, n + 1))))
        lines.append(
            _eq(
                "npb/sp-draft-misreport",
                npb_draft_priority(pm),
                (2, 1) + tuple(range(3, n + 1)),
            )
        )
        lines.append(_eq("npb/sp-outcome-truthful", out_t.mapping[mover - 1], n))
        lines.append(_eq("npb/sp-outcome-misreport", out_m.mapping[mover - 1], 2))
        lines.append(
            _true(
                "npb/sp-gain",
                truthful.prefers(mover, 2, n),
                f"club {mover} truly prefers player 2 to player {n}, so the "
                "misreport is profitable",
            )
        )
        if n <= 9:
            lines.append(
                _true(
                    "npb/sp-outputs-efficient",
                    out_t.mapping in cee_set(truthful) and out_m.mapping in cee_set(misreport),
                    "both draft outcomes lie in the efficient derangement sets",
                )
            )

    return ReproReport(f"npb(n={n})", tuple(lines))


# -- worked example: three divisions leave no room ----------------------------


def repro_n3_incompatibility() -> ReproReport:
    base = complete_partial_profile([(2, 3), (3, 1), (1, 2)])
    improved = complete_partial_profile([(2, 3), (1, 3), (1, 2)])
    mu_a, mu_b = Assignment((2, 3, 1)), Assignment((3, 1, 2))
    lines = []

    lines.append(_eq("n3/base-set", tuple(cee_set(base)), ((2, 3, 1),)))
    lines.append(_eq("n3/improved-set", tuple(cee_set(improved)), ((2, 3, 1), (3, 1, 2))))
    lines.append(
        _true(
            "n3/improvement-relation",
            is_improvement(base, improved, 1),
            "worker 1 rises in division 2's order, all else equal",
        )
    )
    lines.append(
        _true(
            "n3/branch-keep-trade",
            certify_ri_violation(base, improved, 1, mu_a, mu_b),
            "selecting (3,1,2) after the improvement drops division 1 from "
            "worker 2 to worker 3",
        )
    )

    # The other branch: a rule may select (2,3,1) after the improvement and
    # dodge that pair, but the exhaustive scan shows every such rule still
    # violates the property somewhere else in the 8-profile space.
    scan = scan_ce_efficient_selections(3)
    lines.append(_eq("n3/scan-profiles", scan.profiles, 8))
    lines.append(_eq("n3/scan-rules", scan.rules, 64))
    lines.append(
        _eq(
            "n3/scan-all-violate",
            f"{scan.violating_rules} of {scan.rules} rules violate",
            "64 of 64 rules violate",
        )
    )
    keep = scan_ce_efficient_selections(3, pinned={improved.orders: mu_a.mapping})
    lines.append(
        _true(
            "n3/branch-keep-cycle",
            keep.all_violate,
            "every selection rule that keeps (2,3,1) after the improvement violates "
            "the property at some other improvement pair",
        )
    )
    return ReproReport("n3", tuple(lines))


# -- registry -----------------------------------------------------------------

_NPB_DEFAULT_SIZES = (3, 4, 5, 6, 12)
_NPB_MAX_N = 1000


# id -> report; only npb takes an argument, the number of clubs
_REPROS = {
    "intro": repro_intro_example,
    "tables": repro_n4_tables,
    "bttc": repro_bttc_ri,
    "npb": repro_npb,
    "n3": repro_n3_incompatibility,
}
REPRO_IDS = tuple(_REPROS)


def all_repro_reports(npb_sizes=_NPB_DEFAULT_SIZES):
    """Run every reproduction; the draft scenario at each requested size."""
    reports = []
    for repro_id, report in _REPROS.items():
        calls = [(n,) for n in npb_sizes] if repro_id == "npb" else [()]
        reports.extend(report(*args) for args in calls)
    return reports


def run_repro(repro_id: str, n: int | None = None):
    """Run one reproduction by id; ``npb`` takes the number of clubs."""
    if repro_id not in _REPROS:
        raise MalformedProblem(f"unknown repro id {repro_id!r}")
    args = (n if n is not None else 4,) if repro_id == "npb" else ()
    return _REPROS[repro_id](*args)
