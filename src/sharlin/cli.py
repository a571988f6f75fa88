"""Command line front end.

Subcommands: ``eval`` (domain operations on inline elements), ``analyze``
(goal-dependent analysis of a program file), ``verify`` (randomized
correctness / optimality suites), ``equiv`` (matcher equivalence suites)
and ``diff`` (matching vs re-unification precision report).

Exit codes: 0 ok, 1 usage, syntax or other input error (library errors
print one ``sharlin: ...`` line, never a traceback), 2 I/O error in
reading input or writing output, 3 verification counterexample. A term
nested too deeply for the library's recursion is an input error too, and
so is running out of memory; the analyzer solves body atoms from an
explicit stack, so no chain of calls is too deep for it. Reports are
byte-deterministic for fixed seeds, at any ``--jobs``; timing is never
part of a report. A config file of
``key=value`` lines can supply defaults for optional long flags, not for
the required ``--program``, ``--goal``, ``--call``, ``--domain`` and
``--op``; explicit flags win, and a key no subcommand knows is an error.
Each value is converted by its flag's own type and must be one of its
choices, and a switch takes only ``true`` or ``false``. The running
subcommand's values are checked whether or not a flag overrides them, and
a bad one exits 1 naming its key and line.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from . import shlin_omega
from .analyzer import (
    AnalysisRequest,
    analyze,
    parse_goal,
    parse_injection,
    parse_program,
)
from .domains import DOMAINS
from .oracle import (
    DOMAIN_TAGS,
    TrialConfig,
    check_equivalences,
    merge_reports,
    render_report,
    run_correctness,
    run_optimality,
)
from .terms import Scanner

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        # argparse drops a failed write; raise it, so main exits 2
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _operand(text: str) -> str:
    if text.startswith("@"):
        return _read_file(text[1:]).strip()
    return text


def _load_config(path: str, known, switches, sub) -> dict:
    """The ``key=value`` lines of ``path`` as defaults by destination. A
    value for the running subcommand ``sub`` is converted and checked as
    its flag would be; argparse never checks a default against choices."""
    flags = {a.dest: a for a in sub._actions}  # noqa: SLF001
    out = {}
    for ln, raw in enumerate(_read_file(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {ln}: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in known:
            raise ValueError(f"unknown config key {key!r} on line {ln}")
        if dest in switches:
            if value not in ("true", "false"):
                raise ValueError(f"config key {key!r} on line {ln} takes true or false, "
                                 f"not {value!r}")
            value = value == "true"
        elif dest in flags:
            try:
                sub._check_value(flags[dest], sub._get_value(flags[dest], value))  # noqa: SLF001
            except argparse.ArgumentError as exc:  # exit as the same flag would
                sub.exit(1, f"sharlin: config key {key!r} on line {ln}: {exc}\n")
        out[dest] = value
    return out


def _build_parser() -> _Parser:
    parser = _Parser(prog="sharlin")
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one domain operation")
    p_eval.add_argument(
        "--domain", required=True, choices=sorted(DOMAINS) + ["concrete"]
    )
    p_eval.add_argument(
        "--op", required=True, choices=("match", "union", "project", "alpha")
    )
    p_eval.add_argument(
        "operands", nargs="+",
        help="elements inline or @file; project takes element and {vars}",
    )

    p_an = sub.add_parser("analyze", help="goal-dependent analysis")
    p_an.add_argument("--program", required=True, help="program file")
    p_an.add_argument("--goal", required=True)
    p_an.add_argument("--call", required=True, help="abstract call substitution")
    p_an.add_argument("--domain", required=True, choices=sorted(DOMAINS))
    p_an.add_argument("--mode", default="matching", choices=("matching", "mgu"))
    p_an.add_argument("--inject", help="forward trace injection file")
    p_an.add_argument("--cap", type=int, default=3,
                      help="multiplicity clip during analysis (at least 1)")
    p_an.add_argument("--max-passes", type=int, default=64,
                      help="most fixpoint passes; the last only confirms a stable "
                           "table, so 2 is the least that can succeed")
    p_an.add_argument("--trace", action="store_true")

    p_ver = sub.add_parser("verify", help="randomized theorem suites")
    p_ver.add_argument("kind", choices=("correctness", "optimality"))
    p_ver.add_argument("--domain", default="all", choices=("all",) + DOMAIN_TAGS)
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--max-vars", type=int, default=4,
                       help="largest interest set (correctness pairs only)")
    p_ver.add_argument("--depth", type=int, default=2,
                       help="largest term depth (correctness pairs only)")
    p_ver.add_argument("--cap", type=int, default=3,
                       help="largest multiplicity of random omega elements (at least 1)")
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--json", action="store_true")

    p_eq = sub.add_parser("equiv", help="matcher equivalence suites")
    p_eq.add_argument("--trials", type=int, default=1000)
    p_eq.add_argument("--seed", type=int, default=42)
    p_eq.add_argument("--max-vars", type=int, default=5,
                      help="most variables in an instance (at least 2)")
    p_eq.add_argument("--jobs", type=int, default=1)
    p_eq.add_argument("--json", action="store_true")

    p_diff = sub.add_parser("diff", help="matching vs mgu precision report")
    p_diff.add_argument("--program", required=True)
    p_diff.add_argument("--goal", required=True)
    p_diff.add_argument("--call", required=True)
    p_diff.add_argument("--domain", required=True, choices=sorted(DOMAINS))
    p_diff.add_argument("--inject", help="forward trace injection file")
    p_diff.add_argument("--cap", type=int, default=3,
                        help="multiplicity clip during analysis (at least 1)")

    return parser


def _eval_concrete(args):
    from .existential import UNDEFINED, ematch, parse_existential

    if args.op != "match":
        raise ValueError("the concrete domain only supports the match operation")
    if len(args.operands) != 2:
        raise ValueError("match takes two operands")
    c1 = parse_existential(_operand(args.operands[0]))
    c2 = parse_existential(_operand(args.operands[1]))
    result = ematch(c1, c2)
    return "undefined" if result is UNDEFINED else result


def _cmd_eval(args) -> int:
    d = DOMAINS.get(args.domain)
    if d is None:
        result = _eval_concrete(args)
    elif args.op == "alpha":
        if len(args.operands) != 1:
            raise ValueError("alpha takes one operand")
        result = d.alpha(d.above.parse(_operand(args.operands[0])))
    elif args.op in ("match", "union"):
        if len(args.operands) != 2:
            raise ValueError(f"{args.op} takes two operands")
        e1 = d.parse(_operand(args.operands[0]))
        e2 = d.parse(_operand(args.operands[1]))
        result = d.match(e1, e2) if args.op == "match" else shlin_omega.union_omega(e1, e2)
    else:
        if len(args.operands) != 2:
            raise ValueError("project takes an element and a {v1,v2} variable set")
        e1 = d.parse(_operand(args.operands[0]))
        sc = Scanner(_operand(args.operands[1]))
        sc.expect("{")
        variables = sc.names()
        sc.end()
        result = shlin_omega.project_omega(e1, variables)
    print(result)
    return 0


def _make_request(args) -> AnalysisRequest:
    program = parse_program(_read_file(args.program))
    goal = parse_goal(args.goal)
    call = DOMAINS[args.domain].parse(args.call)
    injection = None
    if getattr(args, "inject", None):
        injection = parse_injection(_read_file(args.inject), args.domain)
    return AnalysisRequest(
        program=program,
        goal=goal,
        call=call,
        domain=args.domain,
        mode=getattr(args, "mode", "matching"),
        cap=args.cap,
        max_passes=getattr(args, "max_passes", 64),
        injection=injection,
    )


def _cmd_analyze(args) -> int:
    _check_least(args, cap=1, max_passes=1)
    result = analyze(_make_request(args))
    print(result.answer)
    if args.trace:
        print(f"# passes={result.passes} table={result.table_size}")
        for step in result.trace:
            print(
                f"# depth={step.depth} clause={step.clause_index} goal={step.goal}\n"
                f"#   call   {step.call}\n"
                f"#   full   {step.full}\n"
                f"#   entry  {step.entry}\n"
                f"#   exit   {step.exit}\n"
                f"#   answer {step.answer}"
            )
    return 0


def _run(suite, trials: int, jobs: int) -> dict:
    """The report of ``suite(lo, hi)`` over all trials: in-process as one
    chunk, or split into up to ``jobs`` consecutive chunks run in parallel."""
    size = -(-trials // jobs)
    los = range(0, trials, size)
    if len(los) == 1:
        return suite(0, trials)
    his = [min(lo + size, trials) for lo in los]
    with ProcessPoolExecutor(max_workers=min(len(los), os.cpu_count() or 1)) as pool:
        return merge_reports(list(pool.map(suite, los, his)))


def _emit(report: dict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        sys.stdout.write(render_report(report))
    return 0 if not report["failures"] else 3


def _check_least(args, **least) -> None:
    """Reject a flag below its least value, naming the flag (which the
    library's own checks cannot), also when a config file set it."""
    for dest, low in least.items():
        value = getattr(args, dest)
        if value < low:
            raise ValueError(f"--{dest.replace('_', '-')} must be at least {low}, not {value}")


def _cmd_verify(args) -> int:
    _check_least(args, trials=1, depth=1, max_vars=1, cap=1, jobs=1)
    cfg = TrialConfig(
        seed=args.seed,
        trials=args.trials,
        max_term_depth=args.depth,
        max_vars=args.max_vars,
        multiplicity_cap=args.cap,
    )
    domains = (args.domain,) if args.domain in DOMAINS else DOMAIN_TAGS
    if args.kind == "correctness":
        suites = [partial(run_correctness, cfg, domains)]
    else:
        suites = [partial(run_optimality, cfg, d) for d in domains]
    reports = [_run(suite, args.trials, args.jobs) for suite in suites]
    return max(_emit(report, args.json) for report in reports)


def _cmd_equiv(args) -> int:
    _check_least(args, trials=1, max_vars=2, jobs=1)
    cfg = TrialConfig(seed=args.seed, trials=args.trials, max_vars=args.max_vars)
    report = _run(partial(check_equivalences, cfg), args.trials, args.jobs)
    return _emit(report, args.json)


def _cmd_diff(args) -> int:
    _check_least(args, cap=1)
    req = _make_request(args)
    match_result = analyze(req)
    mgu_result = analyze(dataclasses.replace(req, mode="mgu"))
    print(f"matching: {match_result.answer}")
    print(f"mgu:      {mgu_result.answer}")
    extra = sorted(shlin_omega.groups_of(mgu_result.answer)
                   - shlin_omega.groups_of(match_result.answer))
    print("difference: {" + ", ".join(extra) + "}")
    return 0


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a failed write surfaces here, not at exit
        return code
    except OSError as exc:  # reading an input file or writing stdout
        print(f"sharlin: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # stdout is gone: the flush at exit must not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except ValueError as exc:  # every library error a bad argument or input can cause
        print(f"sharlin: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("sharlin: a term is nested too deeply", file=sys.stderr)
        return 1
    except MemoryError:
        print("sharlin: out of memory", file=sys.stderr)
        return 1


def _main(argv) -> int:
    parser = _build_parser()
    args, _ = parser.parse_known_args(argv)
    if args.config:
        # one file serves every subcommand, so each takes the keys it knows
        (commands,) = parser._subparsers._group_actions  # noqa: SLF001
        actions = {sub: sub._actions for sub in commands.choices.values()}  # noqa: SLF001
        known = {sub: {a.dest for a in acts} for sub, acts in actions.items()}
        # a store_true flag is the only kind whose default is False
        switches = {a.dest for acts in actions.values() for a in acts if a.default is False}
        defaults = _load_config(args.config, set().union(*known.values()), switches,
                                commands.choices[args.command])
        for sub, dests in known.items():
            sub.set_defaults(**{k: v for k, v in defaults.items() if k in dests})
    args = parser.parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
        "equiv": _cmd_equiv,
        "diff": _cmd_diff,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
