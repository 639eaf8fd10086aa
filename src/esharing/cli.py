"""Command-line interface: scenario ingestion, analysis commands, batch runs.

``_PARSERS`` maps each command to its help text and the function that adds
its arguments.  An argv of the shape ``[--format X] COMMAND ...``, X a format
and COMMAND a command's full name, is parsed after COMMAND by that command's
parser alone; every other shape (help first, no command, an unknown or
abbreviated one, an abbreviated or unknown ``--format``) builds the parser
of every command, whose help and errors are argparse's own.  ``_COMMANDS``
maps each scenario command to its handler; ``_FAILURES`` maps each error to
its stderr label and exit code (0 success, 1 usage, file or report problems,
2 infeasible model, 3 non-convergence).  Reports are JSON (default) or flat
CSV key/value rows.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import math
import os
import shutil
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import equilibrium
from .errors import (
    ContractBreach,
    EsharingError,
    FileError,
    Infeasible,
    IterationLimit,
    MaxIterExceeded,
    NonFiniteResult,
    NonRadialWarning,
    UnboundedCost,
    WeakSensitivityWarning,
)
from .market import Scenario, clear_market, clearing_kkt_residual
from .network import dc_flow_oracle, is_radial, line_flows
from .scenario_io import (
    _json,
    dump_scenario,
    gen_scenario,
    load_scenario,
    read_scenario_file,
)

OUTPUT_DIR_ENV = "ESHARING_OUT"
_RECLEAR_TOL = 1e-6  # README contract: re-clearing the equilibrium bids


class UsageError(EsharingError):
    """Bad flags or arguments."""


@dataclass(frozen=True, eq=False)
class RunReport:
    """One command's outcome; ``fmt`` is the requested rendering, not content."""

    command: str
    scenario: str | None
    digest: str | None
    elapsed_s: float
    results: dict
    residuals: dict
    fmt: str = "json"

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "scenario": self.scenario,
            "digest": self.digest,
            "elapsed_s": self.elapsed_s,
            "results": self.results,
            "residuals": self.residuals,
        }


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _plain(value):
    """``value`` with numpy arrays and scalars made Python lists and numbers."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, list):
        rows.append((prefix, ",".join(map(str, value))))
    else:
        rows.append((prefix, value))


def render_report(report: RunReport, fmt: str) -> str:
    doc = _plain(report.to_dict())
    if fmt == "json":
        return _json(doc)
    rows: list = []
    _flatten("", doc, rows)
    buf = io.StringIO()
    import csv as _csv

    writer = _csv.writer(buf)
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _nonfinite_key(value, key: str):
    """The dotted key of the first infinite or NaN number in ``value``."""
    if isinstance(value, dict):
        items = ((f"{key}.{k}", v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((key, v) for v in value)
    elif isinstance(value, float):
        return None if math.isfinite(value) else key
    elif isinstance(value, (np.floating, np.ndarray)):
        return None if np.all(np.isfinite(value)) else key
    else:
        return None
    return next(filter(None, (_nonfinite_key(v, k) for k, v in items)), None)


def _check_report(results: dict, residuals: dict) -> None:
    """Refuse to report an infinite or NaN number, or an equilibrium whose
    bids re-clear to prices further than ``_RECLEAR_TOL`` from its own.  The
    first means the computation overflowed, as it does for magnitudes near
    1e308; the second happens when a tiny ``a`` swamps the programs."""
    for section, values in (("results", results), ("residuals", residuals)):
        key = _nonfinite_key(values, section)
        if key is not None:
            raise NonFiniteResult(f"{key} is infinite or NaN; no report written")
    gap = residuals.get("clearing_price_gap", 0.0)
    if gap > _RECLEAR_TOL:
        raise ContractBreach(
            f"residuals.clearing_price_gap is {gap:.3g}, above the re-clear "
            f"bound {_RECLEAR_TOL:g}; no report written")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _load(path: str) -> tuple:
    """The scenario in the file at ``path`` and the digest of the bytes it
    was parsed from, read once: a command may overwrite the file later."""
    data = read_scenario_file(path)
    return load_scenario(path, data), _digest(data)


def _parse_vector(text: str, n: int, what: str, unread=()) -> np.ndarray:
    try:
        vals = np.array([float(v) for v in text.replace(";", ",").split(",")])
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from exc
    if vals.shape != (n,):
        raise UsageError(f"expected {n} values for {what}, got {vals.size}")
    # ``unread`` is a slot the command ignores, which may hold any number
    if not np.isfinite(np.delete(vals, unread)).all():
        raise UsageError(f"{what} must be finite, got {text!r}")
    return vals


def _scenario_arg(p) -> None:
    p.add_argument("scenario", help="scenario JSON file")


def _clear_args(p) -> None:
    _scenario_arg(p)
    p.add_argument("--bids", required=True, help="comma-separated bids")


def _bid_args(p) -> None:
    _scenario_arg(p)
    p.add_argument("--eps", type=float, default=None, help="stop tolerance")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--trace", default=None, help="write per-iteration CSV here")


def _brlab_args(p) -> None:
    _scenario_arg(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--prosumer", type=int, default=None,
                      help="1-based prosumer index to scan")
    p.add_argument("--fix-bids", default=None,
                   help="full bid vector; the scan starts at the scanned "
                        "slot when it is finite")
    mode.add_argument("--classify-2bus", action="store_true",
                      help="closed-form regime of the symmetric two-bus game")
    mode.add_argument("--verify", default=None, metavar="BIDS",
                      help="check an equilibrium candidate bid vector")
    p.add_argument("--tol", type=float, default=None,
                   help="with --verify: largest gap allowed (default 1e-6)")
    p.add_argument("--regulated", action="store_true",
                   help="use regulated payments in scans")
    p.add_argument("--csv", default=None, help="write the scan curve here")


def _gen_args(p) -> None:
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--style", choices=("default", "tight"), default="default")
    p.add_argument("-o", "--output", default=None, help="output path")


def _batch_args(p) -> None:
    p.add_argument("--dir", required=True)
    p.add_argument("--out", default=None,
                   help=f"report directory (default $" + OUTPUT_DIR_ENV +
                        " or the scenario directory)")


# each command: (help text, function that adds its arguments), in the order
# ``esharing --help`` lists them
_PARSERS = {
    "validate": ("check scenario and network invariants", _scenario_arg),
    "clear": ("clear the market for a given bid vector", _clear_args),
    "gne": ("regulated-mechanism equilibrium", _scenario_arg),
    "ve": ("variational equilibrium (radial closed form)", _scenario_arg),
    "social": ("social optimum", _scenario_arg),
    "selfsuff": ("self-sufficiency costs", _scenario_arg),
    "poa": ("efficiency ratio and its bound", _scenario_arg),
    "bid": ("run the iterative bidding protocol", _bid_args),
    "brlab": ("best-response analysis of the unregulated game", _brlab_args),
    "gen": ("generate a random radial scenario", _gen_args),
    "batch": ("evaluate every scenario in a directory", _batch_args),
}


_FORMATS = ("json", "csv")


def _formatter():
    """argparse's help formatter at the terminal's width, read once here;
    left to itself, argparse reads the width again for every argument."""
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def build_parser() -> _Parser:
    """The parser of every command."""
    formatter = _formatter()
    parser = _Parser(prog="esharing", formatter_class=formatter,
                     description="Equilibrium engine for networked "
                                 "energy-sharing markets")
    parser.add_argument("--format", choices=_FORMATS, default="json",
                        help="report format (default json)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _PARSERS.items():
        add_args(sub.add_parser(name, help=help_text, formatter_class=formatter))
    return parser


def _command_parser(command: str) -> _Parser:
    """The parser of ``command`` alone: ``build_parser``'s subparser of it."""
    parser = _Parser(prog=f"esharing {command}", formatter_class=_formatter())
    _PARSERS[command][1](parser)
    return parser


def _invoked(argv: list) -> tuple | None:
    """``(format, command, rest)`` when ``argv`` is ``[--format X] COMMAND
    REST...``, with X a format (also as ``--format=X``) and COMMAND a
    command's full name; None for any other shape (no command, an unknown
    or abbreviated name, ``-h`` first, ``--form``, an unknown format),
    which needs the parser of every command to parse, list or refuse."""
    fmt = "json"
    if argv[:1] == ["--format"] and len(argv) > 1:
        fmt, argv = argv[1], argv[2:]
    elif argv and argv[0].startswith("--format="):
        fmt, argv = argv[0][len("--format="):], argv[1:]
    if fmt not in _FORMATS or not argv or argv[0] not in _PARSERS:
        return None
    # the top-level parser reads "--=X" (and, on some Python versions,
    # "-=X") anywhere as an ambiguous abbreviation of its own options
    if any(a.startswith(("-=", "--=")) for a in argv):
        return None
    return fmt, argv[0], argv[1:]


def _parse(argv: list) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the parser of the command
    alone when ``argv`` has a shape :func:`_invoked` recognises."""
    invoked = _invoked(argv)
    if invoked is None:
        return build_parser().parse_args(argv)
    fmt, command, rest = invoked
    args = _command_parser(command).parse_args(rest)
    args.command, args.format = command, fmt
    return args


# ---------------------------------------------------------------------------
# command bodies


def _cmd_validate(scenario: Scenario, _args=None) -> tuple:
    net = scenario.network
    checks = {"prosumer_count": scenario.size, "radial": is_radial(net),
              "slack": net.slack}
    # PTDF against the nodal-equation oracle on deterministic probes, one per
    # column: probe i buys a unit at bus i+1 and sells it at the last bus
    probes = np.eye(net.bus_count, net.bus_count - 1)
    probes[-1] = -1.0
    worst = float(np.abs(line_flows(net, probes)
                         - dc_flow_oracle(net, -probes)).max(initial=0.0))
    return {"ok": True, **checks}, {"ptdf_oracle_gap": worst}


def _cmd_clear(scenario: Scenario, args) -> tuple:
    bids = _parse_vector(args.bids, scenario.size, "--bids")
    out = clear_market(scenario, bids)
    results = {
        "prices": out.prices, "quantities": out.quantities, "eta": out.eta,
        "alpha_lower": out.alpha_lower, "alpha_upper": out.alpha_upper,
        "flows": out.flows,
    }
    return results, {"clearing_kkt": clearing_kkt_residual(scenario, bids, out)}


def _cmd_gne(scenario: Scenario, _args=None, eqm=None) -> tuple:
    if eqm is None:
        eqm = equilibrium.improved_gne(scenario)
    ok, margins = equilibrium.pareto_check(scenario, eqm)
    rent = equilibrium.congestion_rent(scenario, eqm)
    results = {
        "p_bar": eqm.p_bar, "b_bar": eqm.b_bar, "lambda_r": eqm.lambda_r,
        "kappa": eqm.kappa, "tau_lower": eqm.tau_lower,
        "tau_upper": eqm.tau_upper, "costs": eqm.costs,
        "total_disutility": eqm.total_disutility,
        "net_payment": eqm.net_payment, "pareto_ok": ok,
        "pareto_margins": margins,
    }
    residuals = {
        "clearing_price_gap": eqm.clearing_residual,
        "price_structure": equilibrium.price_structure_residual(scenario, eqm),
        "net_payment_vs_rent": abs(eqm.net_payment - rent),
    }
    return results, residuals


def _batch_entry(scenario: Scenario, _args) -> tuple:
    """``gne``'s report plus ``poa``, both from one equilibrium."""
    eqm = equilibrium.improved_gne(scenario)
    results, residuals = _cmd_gne(scenario, eqm=eqm)
    results["poa"] = equilibrium.poa(scenario, eqm)
    return results, residuals


def _cmd_ve(scenario: Scenario, _args) -> tuple:
    ve = equilibrium.variational_equilibrium(scenario)
    return ({"p_bar": ve.p_bar, "b_bar": ve.b_bar, "prices": ve.prices,
             "radial": is_radial(scenario.network)}, {})


def _cmd_social(scenario: Scenario, _args) -> tuple:
    so = equilibrium.social_optimum(scenario)
    return ({"p_tilde": so.p_tilde, "kappa": so.kappa,
             "tau_lower": so.tau_lower, "tau_upper": so.tau_upper,
             "costs": so.cost_per_prosumer, "total_cost": so.total_cost}, {})


def _cmd_selfsuff(scenario: Scenario, _args) -> tuple:
    costs, total = equilibrium.self_sufficiency(scenario)
    return {"costs": costs, "total": total}, {}


def _cmd_bid(scenario: Scenario, args) -> tuple:
    from . import bidding

    try:
        config = bidding.BiddingConfig(epsilon=args.eps, max_iter=args.max_iter)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    eqm = equilibrium.improved_gne(scenario)
    result = bidding.run_bidding(scenario, config)  # may raise MaxIterExceeded
    fejer = bidding.fejer_check(result.trace, eqm)
    results = {
        "iterations": result.iterations, "production": result.production,
        "bids": result.bids, "prices": result.prices,
        "final_delta": result.final_delta,
        "fejer_monotone": fejer.monotone,
        "gap_to_equilibrium": float(np.abs(result.bids - eqm.b_bar).max()),
    }
    residuals = {"fejer_violation": fejer.max_violation}
    if not args.trace:
        return results, residuals
    return results, residuals, functools.partial(
        bidding.write_trace_csv, result.trace, args.trace, eqm=eqm)


# each brlab flag that only some modes read, and those modes
_BRLAB_FLAGS = {"--fix-bids": ("--prosumer",), "--csv": ("--prosumer",),
                "--tol": ("--verify",), "--regulated": ("--prosumer", "--verify")}


def _cmd_brlab(scenario: Scenario, args) -> tuple:
    from . import brlab

    n = scenario.size
    mode = ("--classify-2bus" if args.classify_2bus else
            "--verify" if args.verify is not None else "--prosumer")
    for flag, modes in _BRLAB_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False and mode not in modes:
            raise UsageError(f"{flag} does not apply to {mode}")
    if args.tol is not None and not 0.0 <= args.tol < np.inf:
        raise UsageError(f"--tol must be finite and >= 0, got {args.tol}")
    if args.classify_2bus:
        if n != 2 or abs(scenario.a - 1.0) > 1e-12 \
                or np.any(scenario.d != 0.0) or scenario.c[0] != scenario.c[1]:
            raise UsageError(
                "--classify-2bus needs 2 buses, a=1, d=0, equal c")
        # parallel lines share the transfer by weight, so the corridor
        # carries up to min_l F_l W / w_l, W the total weight
        net = scenario.network
        limit = float((net.limits * (net.weights.sum() / net.weights)).min(
            initial=np.inf))
        cls = brlab.classify_gne_2bus(float(scenario.c[0]),
                                      float(scenario.D[0]),
                                      float(scenario.D[1]), limit)
        results = {"regime": cls.regime, "p_bar": cls.p_bar}
        if cls.regime == "unique":
            results["b_bar"] = cls.b_bar
            results["lam_bar"] = cls.lam_bar
        else:
            results["b2_interval"] = list(cls.b2_interval)
        return results, {}
    if args.verify is not None:
        b = _parse_vector(args.verify, n, "--verify bids")
        check = brlab.verify_gne(scenario, b, regulated=args.regulated,
                                 tol=1e-6 if args.tol is None else args.tol)
        return ({"is_gne": check.is_gne, "gaps": check.gaps,
                 "incumbent_costs": check.incumbent_costs,
                 "best_bids": check.best_bids, "tol": check.tol}, {})
    if args.fix_bids is None:
        raise UsageError("--prosumer requires --fix-bids")
    if not 1 <= args.prosumer <= n:
        raise UsageError(f"--prosumer must be in 1..{n}")
    i = args.prosumer - 1
    b = _parse_vector(args.fix_bids, n, "--fix-bids", unread=i)
    scan = brlab.best_response(scenario, i, np.delete(b, i),
                               regulated=args.regulated,
                               start=b[i] if math.isfinite(b[i]) else None)
    if args.csv:
        brlab.write_scan_csv(scan, args.csv)
    return ({"prosumer": args.prosumer, "interval": list(scan.interval),
             "local_minima": [list(mc) for mc in scan.local_minima],
             "best_bid": scan.best_bid, "best_cost": scan.best_cost,
             "regulated": scan.regulated}, {})


# each scenario command: (scenario, parsed arguments) -> (results, residuals)
# or (results, residuals, write), where write() writes the command's file
_COMMANDS = {
    "validate": _cmd_validate, "clear": _cmd_clear, "gne": _cmd_gne,
    "ve": _cmd_ve, "social": _cmd_social, "selfsuff": _cmd_selfsuff,
    "poa": lambda scenario, _args: (equilibrium.poa(scenario), {}),
    "bid": _cmd_bid, "brlab": _cmd_brlab,
}


def _run(command: str, path: str, compute, args=None,
         fmt: str = "json") -> RunReport:
    """Load the scenario at ``path``, run ``compute(scenario, args)`` on it,
    check its figures and only then write its file; the clock starts after
    the load."""
    scenario, digest = _load(path)
    started = time.perf_counter()
    results, residuals, *write = compute(scenario, args)
    _check_report(results, residuals)
    for write_file in write:
        write_file()
    return RunReport(command=command, scenario=path, digest=digest,
                     elapsed_s=time.perf_counter() - started,
                     results=results, residuals=residuals, fmt=fmt)


def _output_dir(explicit: str | None, fallback: str) -> str:
    return explicit or os.environ.get(OUTPUT_DIR_ENV) or fallback


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:  # after a failed write or rename, leave no partial file
        if os.path.isfile(tmp):
            os.remove(tmp)


def _cmd_gen(args, fmt: str) -> tuple:
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    try:
        scenario = gen_scenario(args.seed, args.size, style=args.style)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out_dir = _output_dir(None, os.getcwd())
    path = args.output or os.path.join(
        out_dir, f"generated_seed{args.seed}_size{args.size}.json")
    dump_scenario(scenario, path, units="unspecified",
                  labels={"name": scenario.label})
    report = RunReport(command="gen", scenario=path,
                       digest=_digest(read_scenario_file(path)),
                       elapsed_s=0.0,
                       results={"path": path, "size": args.size,
                                "seed": args.seed, "style": args.style,
                                "a": scenario.a,
                                "radial": is_radial(scenario.network)},
                       residuals={}, fmt=fmt)
    return report, 0


def _cmd_batch(args, fmt: str) -> tuple:
    directory = args.dir
    if not os.path.isdir(directory):
        raise FileError(f"not a directory: {directory}")
    out_dir = _output_dir(args.out, directory)
    os.makedirs(out_dir, exist_ok=True)
    names = sorted(f for f in os.listdir(directory)
                   if f.endswith(".json") and not f.endswith(".report.json"))
    summary = {}
    failures = 0
    for name in names:
        try:
            report = _run("batch/gne", os.path.join(directory, name),
                          _batch_entry)
            out_path = os.path.join(
                out_dir, name[:-len(".json")] + ".report.json")
            _atomic_write(out_path, render_report(report, "json") + "\n")
            summary[name] = "ok"
        except _ANY_FAILURE as exc:
            summary[name] = f"error: {exc}"
            failures += 1
    report = RunReport(command="batch", scenario=directory, digest=None,
                       elapsed_s=0.0,
                       results={"evaluated": len(names), "failures": failures,
                                "files": summary, "out_dir": out_dir},
                       residuals={}, fmt=fmt)
    return report, (1 if failures else 0)


# every failure a command reports: a package error, an output path that
# cannot be written, or running out of memory
_ANY_FAILURE = (EsharingError, OSError, MemoryError)

# (error type, stderr label, exit code), matched in order; the last row
# takes FileError, NonFiniteResult, ContractBreach and the rest
_FAILURES = (
    (UsageError, "usage error", 1),
    (UnboundedCost, "unbounded cost", 1),
    (MaxIterExceeded, "did not converge", 3),
    (IterationLimit, "solver did not converge", 3),
    (Infeasible, "infeasible", 2),
    (_ANY_FAILURE, "error", 1),
)


def _show_warning(fallback, message, category, *args, **kwargs):
    """A package warning as one labelled stderr line, others as ``fallback``."""
    if issubclass(category, (NonRadialWarning, WeakSensitivityWarning)):
        print(f"warning: {message}", file=sys.stderr)
    else:
        fallback(message, category, *args, **kwargs)


# an overflow shows up as a non-finite figure, which _check_report refuses
# with one error line, so numpy need not warn of it first
@np.errstate(over="ignore", invalid="ignore")
def run_command(argv) -> tuple:
    """Execute one CLI invocation.  Returns ``(RunReport | None, exit_code)``."""
    with warnings.catch_warnings():
        warnings.showwarning = functools.partial(_show_warning,
                                                 warnings.showwarning)
        try:
            args = _parse(list(argv))
            if args.command == "gen":
                return _cmd_gen(args, args.format)
            if args.command == "batch":
                return _cmd_batch(args, args.format)
            return _run(args.command, args.scenario, _COMMANDS[args.command],
                        args, args.format), 0
        except _ANY_FAILURE as exc:
            label, code = next((label, code) for kind, label, code in _FAILURES
                               if isinstance(exc, kind))
            # numpy names the allocation that failed; Python's own
            # MemoryError has no message
            print(f"{label}: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return None, code


def main(argv=None) -> int:
    report, code = run_command(sys.argv[1:] if argv is None else argv)
    if report is not None:
        try:
            print(render_report(report, report.fmt), flush=True)
        except BrokenPipeError:
            # the reader closed early; with stdout on the null device the
            # flush at interpreter shutdown cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
