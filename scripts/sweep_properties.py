#!/usr/bin/env python3
"""Sweep properties across mechanisms and sizes, printing one line per check.

The default plan covers the headline facts at desk scale: the order-stage
mechanisms hold SP/RI/EAP, the cyclic-endowment trading mechanism holds
CE-efficiency and SP but fails RI at n=3, the draft holds CE-efficiency but
fails SP (n>=4) and RI (n>=3), and the backward trading variant fails RI.
At n=4 it also checks complete exchange for the order-stage mechanisms and
the serial dictatorship (every division receives another's worker) and
CE-efficiency for the draft.  It also sweeps the classical benchmark those
mechanisms depart from: top trading cycles from the identity endowment
(Shapley and Scarf) is SP, RI and Pareto-efficient over the full n=4 space
(331,776 profiles, one mechanism run per 16**4 classes of profiles it cannot
tell apart), but fails complete exchange.
"""

import argparse
import json
import sys

from reassign.model import MalformedProblem
from reassign.verifier import CHECKS, Scope

DEFAULT_PLAN = (
    ("csd", "sp", 3), ("csd", "ri", 3), ("csd", "eap", 3),
    ("csd", "sp", 4), ("csd", "ri", 4), ("csd", "eap", 4),
    ("tsd", "sp", 3), ("tsd", "ri", 3), ("tsd", "eap", 3),
    ("tsd", "sp", 4), ("tsd", "ri", 4), ("tsd", "eap", 4),
    ("csd", "ce", 4), ("tsd", "ce", 4),
    ("sd", "sp", 4), ("sd", "ri", 4), ("sd", "ce", 4),
    ("cettc", "cee", 4), ("cettc", "sp", 4), ("cettc", "ri", 3),
    ("npb", "cee", 3), ("npb", "cee", 4), ("npb", "sp", 3), ("npb", "sp", 4), ("npb", "ri", 3),
    ("bttc", "ri", 3), ("bttc", "ce", 3),
    ("ttc", "sp", 4), ("ttc", "ri", 4), ("ttc", "pareto", 4), ("ttc", "ce", 3),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mechanism", default=None, help="limit to one mechanism tag")
    parser.add_argument("--property", default=None, choices=sorted(CHECKS),
                        help="limit to one property")
    parser.add_argument("--n", type=int, default=None, help="limit to one size")
    parser.add_argument("--scope", choices=("exhaustive", "sampled"), default="exhaustive")
    parser.add_argument("--count", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args()

    plan = [
        row for row in DEFAULT_PLAN
        if (args.mechanism is None or row[0] == args.mechanism)
        and (args.property is None or row[1] == args.property)
        and (args.n is None or row[2] == args.n)
    ]
    if not plan:
        print("nothing to sweep with those filters", file=sys.stderr)
        return 2

    results = []
    for tag, prop, n in plan:
        try:
            scope = Scope("sampled", n, count=args.count, seed=args.seed) if args.scope == "sampled" else None
            report = CHECKS[prop](tag, n, scope, jobs=args.jobs)
        except MalformedProblem as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results.append(report)
        if args.format == "text":
            print(
                f"{prop:>5} {tag:>6} n={n}: {report.verdict:5}  "
                f"checked={report.checked}  {report.elapsed:.2f}s"
            )
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in results], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
