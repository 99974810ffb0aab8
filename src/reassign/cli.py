"""Command-line front end: run mechanisms on problem files, sweep properties,
build partitions, and emit reproduction reports.

Exit codes: 0 success / property holds, 1 property or reproduction fails,
2 parse error, 3 infeasibility, 4 enumeration bound exceeded.
"""

import argparse
import json
import sys

from . import __version__
from .model import (
    Assignment,
    EnumerationBoundExceeded,
    Infeasible,
    MalformedProblem,
    MechanismId,
    Problem,
    is_derangement,
    problem_from_dict,
    problem_to_dict,
)
from .mechanisms import (
    MECHANISM_TAGS,
    effective_partition,
    run_bttc,
    run_cettc,
    run_csd,
    run_npb,
    run_sd_within_groups,
    run_tsd,
    run_ttc,
)
from .partition import blocks_from_sizes, largest_first_construct
from .repro import REPRO_IDS, all_repro_reports, run_repro
from .verifier import (
    CHECKS,
    Scope,
    cee_set,
    eap_efficient,
    is_ce_efficient,
    pareto_efficient,
)

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_BOUND = 4

_CERTIFICATIONS = ("ce", "cee", "eap", "pareto")


# -- problem file handling -----------------------------------------------------


def parse_problem(text: str) -> Problem:
    """Parse a problem JSON document."""
    return problem_from_dict(json.loads(text))


def serialize_problem(problem: Problem) -> str:
    """Canonical form: 2-space indent, fixed key order, trailing newline.
    parse -> serialize is byte-stable on canonical files."""
    return json.dumps(problem_to_dict(problem), indent=2) + "\n"


def load_problem(path: str) -> Problem:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read())


# -- small parsers ---------------------------------------------------------------


def _parse_ints(text: str, what: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise MalformedProblem(f"{what} must be a comma-separated integer list, got {text!r}")


def _parse_mu0(text: str):
    """cyclic | seed:K | explicit comma list -> (mu0, seed) arguments."""
    if text == "cyclic":
        return "cyclic", None
    if text.startswith("seed:"):
        try:
            return "random", int(text[len("seed:"):])
        except ValueError:
            raise MalformedProblem(f"bad seed in --mu0 {text!r}")
    return _parse_ints(text, "--mu0"), None


def _tool_dict():
    return {"name": "reassign", "version": __version__}


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


# -- run -------------------------------------------------------------------------


def _run_with_trace(problem: Problem, tag: str, mu0, seed, order):
    if tag == "csd":
        return run_csd(problem)
    if tag == "tsd":
        return run_tsd(problem)
    if tag == "cettc":
        return run_cettc(problem, mu0 or "cyclic", seed)
    if tag == "bttc":
        return run_bttc(problem)
    if tag == "ttc":
        return run_ttc(problem), None
    if tag == "npb":
        return run_npb(problem)
    if tag == "sd":
        seq = order or problem.priority
        return run_sd_within_groups(problem, seq), None
    raise MalformedProblem(f"unknown mechanism {tag!r}")


def _certify(name: str, problem: Problem, assignment: Assignment) -> bool:
    if name == "ce":
        return is_derangement(assignment.mapping)
    if name == "cee":
        return is_ce_efficient(problem.profile, assignment)
    if name == "eap":
        return eap_efficient(problem.profile, effective_partition(problem), assignment)
    if name == "pareto":
        return pareto_efficient(problem.profile, assignment)
    raise MalformedProblem(f"unknown certification {name!r}")


def cmd_run(args) -> int:
    problem = load_problem(args.problem)
    mu0, mu0_seed = _parse_mu0(args.mu0)
    seed = args.seed if args.seed is not None else mu0_seed
    order = _parse_ints(args.order, "--order") if args.order else None

    assignment, trace = _run_with_trace(problem, args.mechanism, mu0, seed, order)
    mid = MechanismId(
        args.mechanism,
        mu0=mu0 if args.mechanism == "cettc" else None,
        order=order,
        seed=seed if args.mechanism == "cettc" else None,
    )

    certs = {}
    for name in args.certify or ():
        certs[name] = _certify(name, problem, assignment)

    payload = {
        "tool": _tool_dict(),
        "mechanism": str(mid),
        "problem": args.problem,
        "assignment": list(assignment.mapping),
    }
    if trace is not None:
        payload["trace"] = [
            {"t": s.t, "chooser": s.chooser, "worker": s.worker, "kind": s.kind}
            for s in trace.steps
        ]
    if certs:
        payload["certify"] = dict(certs)

    lines = [f"mechanism {mid}"]
    lines.append(
        "assignment: "
        + " ".join(
            f"{problem.name_of(i)}->{problem.name_of(w)}" for i, w in assignment.items()
        )
    )
    if trace is not None:
        lines.append("trace:")
        for s in trace.steps:
            lines.append(
                f"  t={s.t} {s.kind}: {problem.name_of(s.chooser)} takes "
                f"{problem.name_of(s.worker)}"
            )
    for name, ok in certs.items():
        lines.append(f"certify {name}: {'holds' if ok else 'FAILS'}")
    _emit(args, payload, "\n".join(lines))

    if certs and not all(certs.values()):
        return EXIT_FAILS
    return EXIT_OK


# -- verify ----------------------------------------------------------------------


def _witness_text(witness: dict) -> str:
    out = ["witness:"]
    for key in ("kind", "division", "outcome", "improved_outcome", "deviant_outcome", "detail"):
        if key in witness:
            out.append(f"  {key}: {witness[key]}")
    for key in ("problem", "improved_problem", "deviant_problem"):
        if key in witness and isinstance(witness[key], dict):
            out.append(f"  {key} (replayable problem file):")
            doc = json.dumps(witness[key], indent=2)
            out.extend("    " + line for line in doc.splitlines())
    for key in sorted(set(witness) - {
        "kind", "division", "outcome", "improved_outcome", "deviant_outcome",
        "detail", "problem", "improved_problem", "deviant_problem",
    }):
        out.append(f"  {key}: {witness[key]}")
    return "\n".join(out)


def cmd_verify(args) -> int:
    if args.property not in CHECKS:
        raise MalformedProblem(
            f"unknown property {args.property!r}; pick from {', '.join(sorted(CHECKS))}"
        )
    mu0, mu0_seed = _parse_mu0(args.mu0)
    seed = mu0_seed
    order = _parse_ints(args.order, "--order") if args.order else None
    mid = MechanismId(
        args.mechanism,
        mu0=mu0 if args.mechanism == "cettc" else None,
        order=order,
        seed=seed,
    )

    scope = None
    if args.scope == "sampled":
        scope = Scope("sampled", args.n, count=args.count, seed=args.sample_seed)

    check = CHECKS[args.property]
    kwargs = {}
    if args.property != "own-position":
        kwargs["jobs"] = args.jobs
    report = check(mid, args.n, scope, **kwargs)

    payload = {"tool": _tool_dict(), **report.to_dict()}
    lines = [
        f"property {report.prop} for {report.mechanism}: {report.verdict}",
        f"scope: {report.scope.to_dict()}",
        f"checked: {report.checked} profiles, comparisons: {report.comparisons}",
        f"elapsed: {report.elapsed:.3f}s",
    ]
    if report.note:
        lines.append(f"note: {report.note}")
    if report.witness:
        lines.append(_witness_text(report.witness))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if report.holds else EXIT_FAILS


# -- partition -------------------------------------------------------------------


def cmd_partition(args) -> int:
    if bool(args.sizes) == bool(args.groups):
        raise MalformedProblem("give exactly one of --sizes or --groups")
    if args.sizes:
        groups = blocks_from_sizes(_parse_ints(args.sizes, "--sizes"))
    else:
        groups = [
            list(_parse_ints(part, "--groups"))
            for part in args.groups.split(";")
            if part
        ]
    partition = largest_first_construct(groups)
    payload = {
        "tool": _tool_dict(),
        "groups": [
            {"divisions": list(g.divisions), "workers": list(g.workers)}
            for g in partition.groups
        ],
    }
    lines = ["partition:"]
    for g in partition.groups:
        lines.append(
            "  divisions " + ",".join(map(str, g.divisions))
            + " <- workers " + ",".join(map(str, g.workers))
        )
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


# -- repro -----------------------------------------------------------------------


def cmd_repro(args) -> int:
    if args.id == "all":
        reports = all_repro_reports()
    elif args.id == "npb":
        reports = [run_repro("npb", args.n)]
    else:
        reports = [run_repro(args.id)]

    payload = {"tool": _tool_dict(), "reports": [r.to_dict() for r in reports]}
    text = "\n\n".join(r.render() for r in reports)
    _emit(args, payload, text)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_FAILS


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reassign",
        description="Mandatory-exchange assignment mechanisms, verification, and goldens.",
    )
    parser.add_argument("--version", action="version", version=f"reassign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a mechanism on a problem file")
    p_run.add_argument("problem", help="path to a problem JSON file")
    p_run.add_argument("--mechanism", required=True, choices=MECHANISM_TAGS)
    p_run.add_argument("--mu0", default="cyclic",
                       help="initial derangement: cyclic, seed:K, or explicit list (cettc)")
    p_run.add_argument("--seed", type=int, default=None, help="seed for --mu0 random")
    p_run.add_argument("--order", default=None,
                       help="fixed division order for sd (default: priority)")
    p_run.add_argument("--certify", action="append", choices=_CERTIFICATIONS,
                       help="certify a property of the output (repeatable)")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="sweep a property of a mechanism")
    p_verify.add_argument("--mechanism", required=True, choices=MECHANISM_TAGS)
    p_verify.add_argument("--property", required=True, choices=sorted(CHECKS))
    p_verify.add_argument("--n", required=True, type=int)
    p_verify.add_argument("--scope", choices=("exhaustive", "sampled"), default="exhaustive")
    p_verify.add_argument("--count", type=int, default=10000, help="samples (sampled scope)")
    p_verify.add_argument("--sample-seed", type=int, default=20240817,
                          help="rng seed (sampled scope)")
    p_verify.add_argument("--mu0", default="cyclic", help="initial derangement (cettc)")
    p_verify.add_argument("--order", default=None, help="fixed division order (sd)")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="worker processes for ce/cee/eap/pareto sweeps")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_part = sub.add_parser("partition", help="build a feasible assignment partition")
    p_part.add_argument("--sizes", default=None, help="group sizes, e.g. 3,3,2")
    p_part.add_argument("--groups", default=None,
                        help="explicit division groups, e.g. 1,2,3;4,5;6,7")
    p_part.add_argument("--format", choices=("text", "json"), default="text")
    p_part.set_defaults(func=cmd_partition)

    p_repro = sub.add_parser("repro", help="re-derive a worked example and diff it")
    p_repro.add_argument("id", choices=REPRO_IDS + ("all",))
    p_repro.add_argument("--n", type=int, default=4, help="number of clubs (npb)")
    p_repro.add_argument("--format", choices=("text", "json"), default="text")
    p_repro.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MalformedProblem as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except EnumerationBoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
