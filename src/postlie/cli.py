"""Command-line front end.

Subcommands mirror the library one to one: forest enumeration, element
arithmetic, the identity suites, series printing, and the volume and
accuracy experiments.  Every run is fully determined by the subcommand,
the merged configuration and the seed; the seed is echoed in the header
line of all output so runs can be reproduced from their artifacts.

Exit codes: 0 on success and on passing suites, 1 when a suite reports a
failing identity (the counterexample is printed), 2 on usage errors,
malformed configuration, capacity bounds or a numeric experiment leaving
its domain of validity (for example a step too long for the exponential
chart); errors print one ``error:`` line on stderr.

A config file holds flat ``key=value`` lines (``#`` comments allowed)
with keys named like the long flags, underscores for dashes; explicit
flags override file values.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
from typing import Callable, Sequence

from .algebroid import (AlgebroidElement, concat_mul, gl_antipode, gl_product,
                        parse_element, theta, triangle)
from .braiding import check_braiding
from .checks import (CheckReport, suite_axioms, suite_degenerate, suite_gl,
                     suite_smash, suite_theta)
from .series import exp_gl, field_series, modified_field
from .trees import (CapacityError, ConfigurationError, NumericError, ParseError,
                    enumerate_forests)

BINARY_OPS = {
    "gl": gl_product,
    "triangle": triangle,
    "concat": concat_mul,
}
UNARY_OPS = {
    "theta": theta,
    "antipode": gl_antipode,
}
#: Every identity suite by name, as ``algebra check --suite`` takes it.
SUITES: dict[str, Callable[..., list[CheckReport]]] = {
    "axioms": suite_axioms,
    "gl": suite_gl,
    "theta": suite_theta,
    "smash": suite_smash,
    "degenerate": suite_degenerate,
    "braiding": check_braiding,
}
# Largest operand grade the unary ops take.  Timed in fresh processes on
# a 2-core VM, theta and the antipode of the grade-10 words o^10, [o] o^8,
# o^6 [o] [o] and (o [o])^3 o take 0.5 to 0.65 s (0.9 to 1.5 s on the same
# box before grafting went through the coproduct rule); o^11, one grade
# above, takes 1.3 s (5.2 s).
UNARY_MAX_GRADE = 10
# Largest total operand grade, left plus right, that gl and triangle take.
# Same box: o^10 by o takes 0.1 s (1.1 s before), o^7 by o^4 0.1 s
# (0.25 s), and o^10 by o^4, at total grade 14, 0.1 s (14 s and 0.9 GB).
BINARY_MAX_GRADE = 11
# Largest number of terms in each operand, for every op.  The grade bounds
# hold per term, so cost also grows with the term count.  Same box: theta
# or the antipode of o^10 takes 0.5 s (1.2 s before), of the sum of the 4
# longest grade-10 words 0.85 s (1.7 to 1.8 s) and of the 5 longest 1.0 s
# (1.9 s); gl and triangle on 4-term operands of total grade 11 take 0.2 s
# (0.6 to 1.15 s).
MAX_OPERAND_TERMS = 4
# Largest ``algebra check --samples``, the largest suite default.  Sample
# cost is heavy-tailed: timed in fresh processes on a 2-core VM,
# degenerate at --max-grade 6 takes 5.3 s and 398 MB at 100 samples,
# 7.9 s and 523 MB at 200, and 64 s and 3.3 GB at 400; in process,
# axioms at --max-grade 0 takes 8.6 s at 200 samples.
MAX_SAMPLES = 200


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end in one ``error:`` line on
    stderr and exit 2; subparsers are made from the same class."""

    def error(self, message: str):
        self.exit(2, f"error: {' '.join(message.splitlines())}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and ``--suite`` reads ``SUITES`` at parse time."""
    top = _Parser(prog="postlie")
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", default=None,
                        help="key=value file; flags override")

    trees = sub.add_parser("trees", help="forest combinatorics")
    tsub = trees.add_subparsers(dest="action", required=True)
    enum = tsub.add_parser("enumerate", parents=[common])
    enum.add_argument("--max-grade", type=int, default=None)

    algebra = sub.add_parser("algebra", help="element arithmetic and suites")
    asub = algebra.add_subparsers(dest="action", required=True)
    ev = asub.add_parser("eval", parents=[common])
    ev.add_argument("--op", required=True,
                    choices=sorted(BINARY_OPS) + sorted(UNARY_OPS))
    ev.add_argument("--left", required=True, help="element, e.g. 'o [o] + 2 [oo]'")
    ev.add_argument("--right", default=None)
    chk = asub.add_parser("check", parents=[common])
    chk.add_argument("--suite", required=True, choices=SUITES)
    chk.add_argument("--max-grade", type=int, default=None)
    chk.add_argument("--samples", type=int, default=None)

    series = sub.add_parser("series", help="truncated flow series")
    ssub = series.add_subparsers(dest="action", required=True)
    ge = ssub.add_parser("gl-exp", parents=[common])
    ge.add_argument("--order", type=int, default=None)
    mf = ssub.add_parser("modified-field", parents=[common])
    mf.add_argument("--method", choices=("lie-euler", "aromatic"), default=None)
    mf.add_argument("--order", type=int, default=None)

    exp = sub.add_parser("experiment", help="numeric experiments on the group")
    xsub = exp.add_subparsers(dest="action", required=True)
    for kind in ("volume", "order"):
        x = xsub.add_parser(kind, parents=[common])
        x.add_argument("--method", choices=("lie-euler", "aromatic"), default=None)
        x.add_argument("--group", default=None)
        x.add_argument("--field", default=None)
        x.add_argument("--t-min", type=float, default=None)
        x.add_argument("--t-max", type=float, default=None)
        x.add_argument("--t-points", type=int, default=None)
        x.add_argument("--base-point", choices=("random", "identity"), default=None)
        x.add_argument("--derivatives", choices=("analytic", "fd"), default=None)
        x.add_argument("--out", default=None)
        x.add_argument("--threads", type=int, default=None)
    return top


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve(args: argparse.Namespace, key: str, default, cast=None):
    """Flag if given, else config file value, else default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfg = getattr(args, "_config_values", {})
    if key in cfg:
        raw = cfg[key]
        return cast(raw) if cast is not None else raw
    return default


def _size(args: argparse.Namespace, key: str, default):
    """A count or bound: flag, else config value, else default; never
    negative."""
    val = _resolve(args, key, default, int)
    if val is not None and val < 0:
        raise ConfigurationError(f"--{key.replace('_', '-')} must be nonnegative, got {val}")
    return val


def _header(parts: dict) -> str:
    body = " ".join(f"{k}={v}" for k, v in parts.items())
    return f"# postlie {body}"


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_trees(args) -> int:
    grade = _size(args, "max_grade", 3)
    seed = _resolve(args, "seed", 0, int)
    forests = enumerate_forests(grade)
    _emit(_header({"command": "trees-enumerate", "max-grade": grade,
                   "count": len(forests), "seed": seed}))
    for w in forests:
        _emit(str(w))
    return 0


def _parse_operand(op: str, side: str, text: str) -> AlgebroidElement:
    x = parse_element(text)
    if len(x.terms) > MAX_OPERAND_TERMS:
        raise CapacityError(f"--op {op} --{side} has {len(x.terms)} terms, "
                            f"exceeds bound {MAX_OPERAND_TERMS}")
    return x


def _cmd_algebra_eval(args) -> int:
    seed = _resolve(args, "seed", 0, int)
    left = _parse_operand(args.op, "left", args.left)
    if args.op in BINARY_OPS:
        if args.right is None:
            raise ConfigurationError(f"--op {args.op} needs --right")
        right = _parse_operand(args.op, "right", args.right)
        total = left.max_grade() + right.max_grade()
        if args.op != "concat" and total > BINARY_MAX_GRADE:
            raise CapacityError(f"--op {args.op} total operand grade {total} "
                                f"exceeds bound {BINARY_MAX_GRADE}")
        result = BINARY_OPS[args.op](left, right)
    else:
        if args.right is not None:
            raise ConfigurationError(f"--op {args.op} takes no --right")
        if left.max_grade() > UNARY_MAX_GRADE:
            raise CapacityError(f"--op {args.op} operand grade {left.max_grade()} "
                                f"exceeds bound {UNARY_MAX_GRADE}")
        result = UNARY_OPS[args.op](left)
    text = result.dump()
    _emit(_header({"command": "algebra-eval", "op": args.op, "seed": seed}))
    _emit(text)
    return 0


def _cmd_algebra_check(args) -> int:
    suite = SUITES[args.suite]
    given = {"max_grade": _size(args, "max_grade", None),
             "samples": _size(args, "samples", None),
             "seed": _resolve(args, "seed", None, int)}
    given = {key: val for key, val in given.items() if val is not None}
    if given.get("samples", 0) > MAX_SAMPLES:
        raise CapacityError(f"--samples {given['samples']} exceeds bound {MAX_SAMPLES}")
    # Run before printing anything, so a capacity error leaves stdout empty.
    reports = suite(**given)
    # Sizes not given are the suite's own defaults.
    params = inspect.signature(suite).parameters
    _emit(_header({"command": "algebra-check", "suite": args.suite,
                   **{key.replace("_", "-"): given.get(key, params[key].default)
                      for key in ("max_grade", "samples", "seed")}}))
    failed = 0
    for report in reports:
        _emit(report.line())
        if not report.passed:
            failed += 1
    if failed:
        _emit(f"# {failed} identity(ies) failed; first counterexample on the witness field")
        return 1
    return 0


def _cmd_series(args) -> int:
    order = _size(args, "order", 3)
    seed = _resolve(args, "seed", 0, int)
    if args.action == "gl-exp":
        series = exp_gl(field_series(order), order)
        head = {"command": "series-gl-exp", "order": order, "seed": seed}
    else:
        method = _resolve(args, "method", None)
        if method is None:
            raise ConfigurationError("modified-field needs --method")
        series = modified_field(method, order)
        head = {"command": "series-modified-field", "method": method,
                "order": order, "seed": seed}
    text = series.dump()
    _emit(_header(head))
    _emit(text)
    return 0


def _cmd_experiment(args) -> int:
    # Imported here: the only subcommand that needs numpy.
    from . import geomint

    cfg = geomint.ExperimentConfig(
        kind=args.action,
        method=_resolve(args, "method", "lie-euler"),
        group=_resolve(args, "group", "so3"),
        field=_resolve(args, "field", "q33-curl"),
        t_grid=geomint.geometric_grid(_resolve(args, "t_min", 1e-3, float),
                                      _resolve(args, "t_max", 1e-1, float),
                                      _size(args, "t_points", 8)),
        base_point=_resolve(args, "base_point", "random"),
        derivatives=_resolve(args, "derivatives", "analytic"),
        seed=_resolve(args, "seed", 0, int),
        out=_resolve(args, "out", None),
        threads=_resolve(args, "threads", 1, int),
    )
    if cfg.out:
        # Fail on an unwritable target before any row runs.  Appending
        # creates the file but keeps an existing one's contents until the
        # result replaces them.
        with open(cfg.out, "a"):
            pass
    result = geomint.run_experiment(cfg)
    _emit(_header({"command": f"experiment-{cfg.kind}", "method": cfg.method,
                   "group": cfg.group, "field": cfg.field,
                   "t-points": len(cfg.t_grid), "threads": cfg.threads,
                   "seed": cfg.seed}))
    _emit(result.csv())
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(result.csv())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse in Python 3.11 parses the explicit value of ``--left=--``
        # as an empty list; every flag here takes exactly one value.
        for key, val in vars(args).items():
            if isinstance(val, list):
                raise ConfigurationError(f"--{key.replace('_', '-')} needs a value")
        if getattr(args, "config", None):
            args._config_values = _load_config(args.config)
        if args.command == "trees":
            return _cmd_trees(args)
        if args.command == "algebra":
            if args.action == "eval":
                return _cmd_algebra_eval(args)
            return _cmd_algebra_check(args)
        if args.command == "series":
            return _cmd_series(args)
        return _cmd_experiment(args)
    except (ConfigurationError, ParseError, CapacityError, NumericError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
