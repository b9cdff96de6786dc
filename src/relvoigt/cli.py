"""Command-line interface: point evaluation, grid sweeps, verification.

Subcommands:

* ``eval <function> --<param> <value> ...``: one evaluation, printed as
  ``key = value`` lines or JSON with ``--json``.
* ``sweep <function> --axis <name> --start --stop --steps [--scale]``:
  grid sweep to CSV (default) or JSON, with the remaining parameters
  fixed via the same flags as eval.
* ``verify <suite>``: run a cross-validation suite and print a report
  table; each check applies the tolerance its own rule states.

Exit codes: 0 success, 1 usage error, 2 domain/parameter error from the
library, 3 verification failure.  All output goes to stdout unless
``--output PATH`` is given; configuration is flags-only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections.abc import Iterator
from dataclasses import asdict
from typing import TextIO

from .errors import RelVoigtError
from .result import EvalResult
from .sweep import FUNCTIONS, SweepSpec, json_payload, run_sweep, write_csv
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "build_parser"]

# every parameter name of FUNCTIONS, in order of first appearance
_PARAM_FLAGS = tuple(dict.fromkeys(n for names, _, _ in FUNCTIONS.values() for n in names))


class _UsageError(Exception):
    pass


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text/CSV")
    parser.add_argument("--output", metavar="PATH", help="write to PATH instead of stdout")


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for name in _PARAM_FLAGS:
        parser.add_argument(f"--{name}", type=float, metavar="X", help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relvoigt",
        description="Relativistic and classical Voigt profile evaluation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    p_eval.add_argument("function", choices=sorted(FUNCTIONS))
    _add_param_flags(p_eval)
    _add_common(p_eval)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a grid")
    p_sweep.add_argument("function", choices=sorted(FUNCTIONS))
    p_sweep.add_argument("--axis", required=True, metavar="NAME", help="parameter to sweep")
    p_sweep.add_argument("--start", required=True, type=float)
    p_sweep.add_argument("--stop", required=True, type=float)
    p_sweep.add_argument("--steps", required=True, type=int)
    p_sweep.add_argument("--scale", choices=("linear", "log"), default="linear")
    _add_param_flags(p_sweep)
    _add_common(p_sweep)

    p_verify = sub.add_parser("verify", help="run a cross-validation suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    _add_common(p_verify)

    return parser


def _given_params(args: argparse.Namespace) -> dict[str, float]:
    return {
        name: getattr(args, name)
        for name in _PARAM_FLAGS
        if getattr(args, name) is not None
    }


def _collect_params(args: argparse.Namespace, names: tuple[str, ...]) -> dict[str, float]:
    given = _given_params(args)
    missing = [n for n in names if n not in given]
    extra = [k for k in given if k not in names]
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing " + ", ".join(f"--{n}" for n in missing))
        if extra:
            parts.append("unexpected " + ", ".join(f"--{k}" for k in extra))
        raise _UsageError(
            f"{args.function} takes {', '.join('--' + n for n in names)}: "
            + "; ".join(parts)
        )
    return {n: float(given[n]) for n in names}


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """stdout, or the file at path opened for writing."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _emit(text: str, path: str | None) -> None:
    with _output(path) as out:
        out.write(text)


def _eval_note(function: str, params: dict[str, float]) -> str | None:
    if function != "h2" or params["a"] != 0.0:
        return None
    if params["u1"] == params["u2"]:
        return (
            "one-sided limits a -> 0+- diverge at u1 == u2; "
            "0 is the odd-symmetry convention at a = 0"
        )
    return (
        "one-sided limits a -> 0+- are nonzero with opposite signs; "
        "0 is the odd-symmetry convention at a = 0"
    )


def _cmd_eval(args: argparse.Namespace) -> int:
    names, evaluate, _ = FUNCTIONS[args.function]
    params = _collect_params(args, names)
    result = evaluate(params)
    note = _eval_note(args.function, params)

    if isinstance(result, EvalResult):
        value, err, method = result.value, result.error_estimate, result.method
    else:
        value, err, method = float(result), None, None

    if args.json:
        payload = {
            "function": args.function,
            "params": {k: params[k] for k in names},
            "value": value,
        }
        if err is not None:
            payload["error_estimate"] = err
            payload["method"] = method
        if note is not None:
            payload["note"] = note
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"value = {value!r}"]
        if err is not None:
            lines.append(f"error_estimate = {err!r}")
            lines.append(f"method = {method}")
        if note is not None:
            lines.append(f"note = {note}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    given = _given_params(args)
    spec = SweepSpec(
        function=args.function,
        fixed=given,
        axis=args.axis,
        start=args.start,
        stop=args.stop,
        steps=args.steps,
        scale=args.scale,
    )
    rows = run_sweep(spec)
    if args.json:
        _emit(json.dumps(json_payload(spec, rows), indent=2) + "\n", args.output)
    else:
        with _output(args.output) as out:
            write_csv(spec, rows, out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suite(args.suite)
    if args.json:
        text = json.dumps([asdict(r) for r in reports], indent=2) + "\n"
    else:
        width = max(len(r.name) for r in reports)
        lines = [
            f"{'check':<{width}}  points  max abs dev  max rel dev  tolerance  status"
        ]
        for r in reports:
            lines.append(
                f"{r.name:<{width}}  {r.grid_size:>6}  {r.max_abs_deviation:>11.3e}"
                f"  {r.max_rel_deviation:>11.3e}  {r.tolerance:>9.1e}"
                f"  {'pass' if r.passed else 'FAIL'}"
            )
        failed = sum(1 for r in reports if not r.passed)
        lines.append(
            f"{len(reports)} checks: "
            + ("all passed" if failed == 0 else f"{failed} FAILED")
        )
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0 if all(r.passed for r in reports) else 3


_COMMANDS = {"eval": _cmd_eval, "sweep": _cmd_sweep, "verify": _cmd_verify}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; the CLI contract
        # reserves 2 for domain errors, so usage problems map to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except RelVoigtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
