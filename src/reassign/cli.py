"""Command-line front end: run mechanisms on problem files, sweep properties,
build partitions, and emit reproduction reports.

Exit codes: 0 success / property holds, 1 property or reproduction fails,
2 parse error, 3 infeasibility, 4 enumeration bound exceeded.

``main`` may be called repeatedly in one process: the argument parser is
built on the first call and reused, and nothing else outlives a call.
"""

import argparse
import functools
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
    problem_from_dict,
    problem_to_dict,
)
from .mechanisms import MECHANISM_TAGS, MECHANISMS, effective_partition, run_traced
from .partition import blocks_from_sizes, largest_first_construct
from .repro import REPRO_IDS, all_repro_reports, run_repro
from .verifier import CHECKS, ORACLES, Scope

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_BOUND = 4


# -- problem file handling -----------------------------------------------------


def parse_problem(text: str) -> Problem:
    """Parse a problem JSON document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise
    except (RecursionError, ValueError) as exc:  # nested too deeply, or too long an integer
        raise MalformedProblem(f"unreadable JSON: {exc}") from None
    return problem_from_dict(data)


def serialize_problem(problem: Problem) -> str:
    """Canonical form: 2-space indent, fixed key order, trailing newline.
    parse -> serialize is byte-stable on canonical files."""
    return _dumps(problem_to_dict(problem)) + "\n"


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


def _mechanism_id(args, seed=None) -> MechanismId:
    """The mechanism the command names, with only the options it reads
    (``--mu0`` and its seed for cettc, ``--order`` for sd); every option is
    parsed whichever mechanism is named.  ``seed`` overrides a ``seed:K``."""
    mu0, mu0_seed = _parse_mu0(args.mu0)
    order = _parse_ints(args.order, "--order") if args.order else None
    given = {"mu0": mu0, "seed": mu0_seed if seed is None else seed, "order": order}
    options = MECHANISMS[args.mechanism].options
    return MechanismId(args.mechanism, **{k: given[k] for k in options})


def _tool_dict():
    return {"name": "reassign", "version": __version__}


_CONTAINERS = (dict, list, tuple)


@functools.lru_cache(maxsize=None)
def _flat_encode(inner: str):
    """``json.dumps(obj, separators=(",\n" + inner, ": "))``, from one
    encoder object per indent instead of a new one on every call."""
    return json.JSONEncoder(separators=(",\n" + inner, ": ")).encode


def _dumps(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2)``, with every line after the first
    indented by ``pad``, but with every container of scalars written by the
    C encoder (any ``indent`` sends the standard library to its pure-Python
    one)."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return json.dumps(obj)  # a scalar or an empty container: one line either way
    inner = pad + "  "
    is_dict = isinstance(obj, dict)
    if not isinstance(next(iter(obj.values())) if is_dict else obj[0], _CONTAINERS):
        text = _flat_encode(inner)(obj)
        # A bracket past the first is a nested container, or a string
        # holding one; either way the item-wise path below is exact.
        if text.find("{", 1) < 0 and text.find("[", 1) < 0:
            return text[0] + "\n" + inner + text[1:-1] + "\n" + pad + text[-1]
    if not is_dict:
        items = [_dumps(item, inner) for item in obj]
    elif all(type(key) is str for key in obj):
        items = [f"{json.dumps(key)}: {_dumps(value, inner)}" for key, value in obj.items()]
    else:  # keys the encoder converts; JSON escapes every "\n" inside a string
        return json.dumps(obj, indent=2).replace("\n", "\n" + pad)
    brackets = "{}" if is_dict else "[]"
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(_dumps(payload))
    else:
        print(text)


# -- run -------------------------------------------------------------------------


def _certify(name: str, problem: Problem, assignment: Assignment) -> bool:
    partition = effective_partition(problem) if name == "eap" else None
    return ORACLES[name](problem.profile, assignment.mapping, partition)


def cmd_run(args) -> int:
    problem = load_problem(args.problem)
    mid = _mechanism_id(args, args.seed)
    assignment, trace = run_traced(mid, problem)

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
    """Kind, division and outcomes first, then every problem as a replayable
    problem file, then the other keys by name."""
    head = [key for key in ("kind", "division", "outcome", "improved_outcome") if key in witness]
    problems = [key for key in witness if key.endswith("problem")]
    out = ["witness:"]
    out.extend(f"  {key}: {witness[key]}" for key in head)
    for key in problems:
        out.append(f"  {key} (replayable problem file):")
        out.extend("    " + line for line in _dumps(witness[key]).splitlines())
    rest = sorted(set(witness) - set(head) - set(problems))
    out.extend(f"  {key}: {witness[key]}" for key in rest)
    return "\n".join(out)


def cmd_verify(args) -> int:
    if args.property not in CHECKS:
        raise MalformedProblem(
            f"unknown property {args.property!r}; pick from {', '.join(sorted(CHECKS))}"
        )
    mid = _mechanism_id(args)
    scope = None
    if args.scope == "sampled":
        scope = Scope("sampled", args.n, count=args.count, seed=args.sample_seed)
    report = CHECKS[args.property](mid, args.n, scope, jobs=args.jobs)

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
    if args.format == "json":  # render only the format asked for: n may be large
        print(_dumps({"tool": _tool_dict(), "groups": partition.to_list()}))
        return EXIT_OK
    lines = ["partition:"]
    for g in partition.groups:
        lines.append(
            "  divisions " + ",".join(map(str, g.divisions))
            + " <- workers " + ",".join(map(str, g.workers))
        )
    print("\n".join(lines))
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
    p_run.add_argument("--certify", action="append", choices=tuple(ORACLES),
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
                          help="worker processes for exhaustive sweeps other than sp and ri")
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


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call (not at import)."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (json.JSONDecodeError, UnicodeDecodeError, MalformedProblem) as exc:
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
