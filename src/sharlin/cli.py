"""Command line front end.

Subcommands: ``eval`` (domain operations on inline elements), ``analyze``
(goal-dependent analysis of a program file), ``verify`` (randomized
correctness / optimality suites), ``equiv`` (matcher equivalence suites)
and ``diff`` (matching vs re-unification precision report).

Exit codes: 0 ok, 1 usage, syntax or other input error (library errors
print one ``sharlin: ...`` line, never a traceback), 2 I/O error, 3
verification counterexample. A term nested too deeply for the library's
recursion is an input error too, and so is running out of memory (an
analysis without a multiplicity cap can grow without bound). Reports are
byte-deterministic for fixed seeds, at any ``--jobs``; timing is never
part of a report. A config file of ``key=value`` lines can supply
defaults for any long flag; explicit flags win.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from .analyzer import (
    DOMAINS,
    AnalysisRequest,
    FixpointLimitExceeded,
    PredicateMismatch,
    analyze,
    parse_goal,
    parse_injection,
    parse_program,
)
from .oracle import (
    DOMAIN_TAGS,
    TrialConfig,
    check_equivalences,
    merge_reports,
    render_report,
    run_correctness,
    run_optimality,
)
from .shlin_omega import InterestMismatch
from .shlin2 import TooLarge
from .terms import Scanner

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _IoError(str(exc)) from exc


class _IoError(Exception):
    pass


def _operand(text: str) -> str:
    if text.startswith("@"):
        return _read_file(text[1:]).strip()
    return text


def _load_config(path: str) -> dict:
    out = {}
    for ln, raw in enumerate(_read_file(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {ln}: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
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
    p_an.add_argument("--cap", type=int, default=3)
    p_an.add_argument("--max-passes", type=int, default=64)
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
    p_ver.add_argument("--cap", type=int, default=3)
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
    p_diff.add_argument("--cap", type=int, default=3)

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


def _eval_alpha(args):
    from .existential import parse_existential
    from .shlin_omega import alpha_omega, parse_omega
    from .shlin2 import alpha2, parse_two
    from .shlin_sl import alpha_sl

    if len(args.operands) != 1:
        raise ValueError("alpha takes one operand")
    text = _operand(args.operands[0])
    if args.domain == "omega":
        return alpha_omega(parse_existential(text))
    if args.domain == "two":
        return alpha2(parse_omega(text))
    return alpha_sl(parse_two(text))


def _cmd_eval(args) -> int:
    if args.domain == "concrete":
        result = _eval_concrete(args)
    elif args.op == "alpha":
        result = _eval_alpha(args)
    else:
        ops = DOMAINS[args.domain]
        if args.op in ("match", "union"):
            if len(args.operands) != 2:
                raise ValueError(f"{args.op} takes two operands")
            e1 = ops.parse(_operand(args.operands[0]))
            e2 = ops.parse(_operand(args.operands[1]))
            result = ops.match(e1, e2) if args.op == "match" else ops.union(e1, e2)
        else:
            if len(args.operands) != 2:
                raise ValueError("project takes an element and a {v1,v2} variable set")
            e1 = ops.parse(_operand(args.operands[0]))
            sc = Scanner(_operand(args.operands[1]))
            sc.expect("{")
            variables = sc.names()
            sc.end()
            result = ops.project(e1, variables)
    print(result)
    return 0


def _make_request(args) -> AnalysisRequest:
    program = parse_program(_read_file(args.program))
    goal = parse_goal(args.goal)
    ops = DOMAINS[args.domain]
    call = ops.parse(args.call)
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
    size = -(-trials // max(1, jobs))
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


def _cmd_verify(args) -> int:
    cfg = TrialConfig(
        seed=args.seed,
        trials=args.trials,
        max_term_depth=args.depth,
        max_vars=args.max_vars,
        multiplicity_cap=args.cap,
    )
    domains = DOMAIN_TAGS if args.domain == "all" else (args.domain,)
    if args.kind == "correctness":
        suites = [partial(run_correctness, cfg, domains)]
    else:
        suites = [partial(run_optimality, cfg, d) for d in domains]
    reports = [_run(suite, args.trials, args.jobs) for suite in suites]
    return max(_emit(report, args.json) for report in reports)


def _cmd_equiv(args) -> int:
    cfg = TrialConfig(seed=args.seed, trials=args.trials, max_vars=args.max_vars)
    report = _run(partial(check_equivalences, cfg), args.trials, args.jobs)
    return _emit(report, args.json)


def _cmd_diff(args) -> int:
    req = _make_request(args)
    ops = DOMAINS[args.domain]
    match_result = analyze(req)
    mgu_result = analyze(dataclasses.replace(req, mode="mgu"))
    print(f"matching: {match_result.answer}")
    print(f"mgu:      {mgu_result.answer}")
    extra = sorted(ops.groups_of(mgu_result.answer) - ops.groups_of(match_result.answer))
    print("difference: {" + ", ".join(extra) + "}")
    return 0


# library errors that a bad argument or input can cause: all exit 1
_INPUT_ERRORS = (
    ValueError,
    InterestMismatch,
    FixpointLimitExceeded,
    PredicateMismatch,
    TooLarge,
)


def main(argv=None) -> int:
    try:
        return _main(argv)
    except _IoError as exc:
        print(f"sharlin: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
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
        defaults = _load_config(args.config)
        for sub_action in parser._subparsers._group_actions:  # noqa: SLF001
            for sub in sub_action.choices.values():
                known = {a.dest for a in sub._actions}  # noqa: SLF001
                sub.set_defaults(**{k: _coerce(v) for k, v in defaults.items() if k in known})
    args = parser.parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
        "equiv": _cmd_equiv,
        "diff": _cmd_diff,
    }
    return handlers[args.command](args)


def _coerce(value: str):
    if value.isdigit() or (value.startswith("-") and value[1:].isdigit()):
        return int(value)
    if value in ("true", "false"):
        return value == "true"
    return value


if __name__ == "__main__":
    sys.exit(main())
