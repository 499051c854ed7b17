"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``analyze`` surfaces
domain geometry, ``bounds`` the closed-form caps, ``estimate`` and
``sweep`` the witness search, ``families`` the divergence schedules,
``poincare`` the one-dimensional constant, and ``verify`` the seeded
property suites.

Output is JSON (default) or CSV with a fixed, documented column set per
command and a header row always present.  Both formats render the values
of :func:`verify.jsonify`, which writes non-finite numbers as the strings
"inf"/"-inf"/"nan", so every emitted file round-trips through strict
parsers.  Identical flags and seed produce byte-identical output.

Exit codes: 0 success, 1 property failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import search, verify
from .bounds import POINCARE_GRID, directional_upper_bound, poincare_constant
from .geometry import (
    E1,
    E2,
    ConvexDomain,
    Direction,
    DomainError,
    diamond,
    disc,
    domain_from_json,
    parallelogram,
    square,
    triangle,
    vertical_support_classification,
    width,
    width_extremes,
)

COUNTEREXAMPLE_PATH = "normratio-counterexample.json"

_PRESET_PARAM_DEFAULTS = {
    "triangle": "0,0,2,0,1,1",
    "parallelogram": "2,1",
}


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _parse_p(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "infinity"):
        return math.inf
    try:
        p = float(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid p: {text!r}")
    if not p >= 1.0:
        raise argparse.ArgumentTypeError("p must satisfy 1 <= p <= inf")
    return p


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}")
    return seed


class _Once(argparse.Action):
    """Store a flag's value, refusing a second one: a repeated flag
    would otherwise drop all but its last value without a word."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, self.dest, values)


def _add_domain_flags(sub):
    sub.add_argument("--domain", metavar="FILE",
                     help="JSON file with a 'vertices' array")
    sub.add_argument("--preset",
                     choices=["disc", "square", "diamond", "triangle",
                              "parallelogram"],
                     help="built-in domain")
    sub.add_argument("--n", type=int,
                     help="vertex count for the disc preset (default 512)")
    sub.add_argument("--params", metavar="CSV",
                     help="preset parameters: triangle 'ax,ay,bx,by,cx,cy', "
                          "parallelogram 'base,slope'")


def _add_direction_flags(sub):
    sub.add_argument("--h1", type=float, metavar="DEG",
                     help="first direction, degrees from the x-axis "
                          "(default 0)")
    sub.add_argument("--h2", type=float, metavar="DEG",
                     help="second direction, degrees (default 90)")


def _add_output_flags(sub):
    sub.add_argument("--format", choices=["json", "csv"], default="json")
    sub.add_argument("--out", metavar="PATH",
                     help="write output here instead of stdout")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="normratio",
        description="Ratios of directional derivative norms of concave "
                    "functions on convex domains: bounds, witnesses, and "
                    "property verification.")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("analyze", help="domain geometry report")
    _add_domain_flags(s)
    _add_output_flags(s)

    s = sp.add_parser("bounds", help="upper bound for the norm ratio")
    _add_domain_flags(s)
    _add_direction_flags(s)
    _add_output_flags(s)
    s.add_argument("--p", type=_parse_p, default=1.0)

    s = sp.add_parser("estimate", help="lower bound via witness search")
    _add_domain_flags(s)
    _add_direction_flags(s)
    _add_output_flags(s)
    s.add_argument("--p", type=_parse_p, default=1.0)
    s.add_argument("--budget", type=int, default=200)
    s.add_argument("--seed", type=_parse_seed, default=42)

    s = sp.add_parser("verify", help="seeded property suites")
    _add_output_flags(s)
    s.add_argument("--suite", choices=sorted(verify.SUITES), action=_Once,
                   help="run one suite (default: all)")
    s.add_argument("--cases", type=int, default=verify.DEFAULT_CASES)
    s.add_argument("--seed", type=_parse_seed, default=42)
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--replay", metavar="FILE",
                   help="re-run the case from a serialized counterexample")

    s = sp.add_parser("families", help="ratio schedules of the divergent "
                                       "function families")
    _add_domain_flags(s)
    _add_direction_flags(s)
    _add_output_flags(s)
    s.add_argument("--family", required=True,
                   choices=["u-omega", "u-omega-vertical", "u-phi-eps"])
    s.add_argument("--p", type=_parse_p, default=math.inf)

    s = sp.add_parser("poincare", help="one-dimensional variational constant")
    _add_output_flags(s)
    s.add_argument("--p", type=_parse_p, default=2.0)

    s = sp.add_parser("sweep", help="estimates over a grid of orthogonal "
                                    "direction pairs")
    _add_domain_flags(s)
    _add_output_flags(s)
    s.add_argument("--p", type=_parse_p, default=1.0)
    s.add_argument("--budget", type=int, default=60)
    s.add_argument("--seed", type=_parse_seed, default=42)

    return ap


def _resolve_domain(args) -> ConvexDomain:
    if (args.domain is None) == (args.preset is None):
        raise CliInputError("exactly one of --domain or --preset is required")
    source = f"--preset {args.preset}" if args.preset else "--domain"
    if args.n is not None and args.preset != "disc":
        raise CliInputError(f"--n does not apply to {source}")
    if args.params is not None and args.preset not in _PRESET_PARAM_DEFAULTS:
        raise CliInputError(f"--params does not apply to {source}")
    if args.domain is not None:
        try:
            with open(args.domain) as f:
                obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise CliInputError(
                f"parse error in {args.domain} at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}")
        except OSError as exc:
            raise CliInputError(str(exc))
        return domain_from_json(obj)
    name = args.preset
    if name == "disc":
        return disc(512 if args.n is None else args.n)
    if name == "square":
        return square()
    if name == "diamond":
        return diamond()
    params_text = (_PRESET_PARAM_DEFAULTS[name] if args.params is None
                   else args.params)
    try:
        params = [float(tok) for tok in params_text.split(",")]
    except ValueError:
        raise CliInputError(f"malformed --params: {params_text!r}")
    if name == "triangle":
        if len(params) != 6:
            raise CliInputError("triangle needs 6 parameters ax,ay,bx,by,cx,cy")
        return triangle(*params)
    if len(params) != 2:
        raise CliInputError("parallelogram needs 2 parameters base,slope")
    return parallelogram(*params)


def _resolve_directions(args):
    h1 = E1 if args.h1 is None else Direction.from_angle(math.radians(args.h1))
    h2 = E2 if args.h2 is None else Direction.from_angle(math.radians(args.h2))
    return h1, h2


class CliInputError(Exception):
    pass


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _fmt_cell(x) -> str:
    x = verify.jsonify(x)     # plain Python values, non-finite as text
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _render(obj: dict, columns, rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(verify.jsonify(obj), indent=2) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def _deg(h: Direction) -> float:
    return math.degrees(h.angle())


# ---------------------------------------------------------------------------
# commands: each returns (json_obj, csv_columns, csv_rows, exit_code)
# ---------------------------------------------------------------------------


def cmd_analyze(args):
    dom = _resolve_domain(args)
    w_x, w_y = width(dom, E2), width(dom, E1)
    we = width_extremes(dom)
    info = vertical_support_classification(dom)
    iA, iB = info.extremes
    A, B = dom.vertices[iA], dom.vertices[iB]
    rise = float(B[1] - A[1])
    obj = {
        "command": "analyze",
        "n_vertices": dom.n,
        "area": dom.area,
        "w_x": w_x,
        "w_y": w_y,
        "w_max": we.w_max,
        "w_min": we.w_min,
        "w_max_angle_deg": _deg(we.h_max),
        "w_min_angle_deg": _deg(we.h_min),
        "left_angular": info.left_angular,
        "right_angular": info.right_angular,
        "angular": info.left_angular and info.right_angular,
        "m": info.max_slope,
        "extreme_left": [float(A[0]), float(A[1])],
        "extreme_right": [float(B[0]), float(B[1])],
        "rise": rise,
    }
    row = dict(obj)
    row["extreme_left_x"], row["extreme_left_y"] = obj["extreme_left"]
    row["extreme_right_x"], row["extreme_right_y"] = obj["extreme_right"]
    cols = ["n_vertices", "area", "w_x", "w_y", "w_max", "w_min",
            "w_max_angle_deg", "w_min_angle_deg", "left_angular",
            "right_angular", "angular", "m", "extreme_left_x",
            "extreme_left_y", "extreme_right_x", "extreme_right_y", "rise"]
    return obj, cols, [row], 0


def cmd_bounds(args):
    dom = _resolve_domain(args)
    h1, h2 = _resolve_directions(args)
    rep = directional_upper_bound(dom, h1, h2, args.p)
    obj = {"command": "bounds", **rep.to_dict()}
    row = {"kind": rep.kind, "p": rep.p, "value": rep.value,
           "h1_deg": _deg(h1), "h2_deg": _deg(h2), "attained": rep.attained}
    cols = ["kind", "p", "value", "h1_deg", "h2_deg", "attained"]
    return obj, cols, [row], 0


def cmd_estimate(args):
    dom = _resolve_domain(args)
    h1, h2 = _resolve_directions(args)
    est = search.estimate_kp_lower(dom, args.p, h1, h2,
                                   budget=args.budget, seed=args.seed)
    obj = {"command": "estimate", **est.to_dict()}
    row = {"p": est.p, "h1_deg": _deg(h1), "h2_deg": _deg(h2),
           "best_ratio": est.best_ratio, "upper_bound": est.upper_bound,
           "gap": est.gap, "evaluations": est.evaluations, "seed": est.seed}
    cols = ["p", "h1_deg", "h2_deg", "best_ratio", "upper_bound", "gap",
            "evaluations", "seed"]
    return obj, cols, [row], 0


def cmd_verify(args):
    if args.replay:
        try:
            with open(args.replay) as f:
                ce = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliInputError(f"cannot read counterexample: {exc}")
        try:
            results = [verify.replay(ce)]
        except (KeyError, ValueError) as exc:
            raise CliInputError(f"malformed counterexample: {exc}")
    else:
        results = verify.run_all(
            cases=args.cases, seed=args.seed, tol=args.tol,
            suites=[args.suite] if args.suite else verify.SUITES)
    passed = all(r.passed for r in results)
    ce_path = None
    if not passed and not args.replay:
        try:
            with open(COUNTEREXAMPLE_PATH, "w") as f:
                json.dump(verify.jsonify(verify.first_failure(results)), f,
                          indent=2)
            ce_path = COUNTEREXAMPLE_PATH
            print(f"counterexample written to {ce_path}", file=sys.stderr)
        except OSError as exc:
            print(f"error: cannot write {COUNTEREXAMPLE_PATH}: "
                  f"{exc.strerror}", file=sys.stderr)
    obj = {
        "command": "verify",
        "passed": passed,
        "suites": [r.to_dict() for r in results],
        "counterexample_path": ce_path,
    }
    cols = ["suite", "cases", "checks", "violations", "passed", "seed", "tol"]
    rows = [r.to_dict() for r in results]
    return obj, cols, rows, 0 if passed else 1


def cmd_families(args):
    dom = _resolve_domain(args)
    h1, h2 = _resolve_directions(args)
    try:
        if args.family == "u-phi-eps":
            raw = search.phi_eps_schedule_ratios(dom, args.p, h1=h1, h2=h2)
            key = "eps"
        elif args.family == "u-omega-vertical":
            anchor = search.vertical_omega_anchor(dom)
            raw = search.omega_schedule_ratios(dom, args.p, h1, h2,
                                               anchor=anchor)
            key = "omega"
        else:
            raw = search.omega_schedule_ratios(dom, args.p, h1, h2)
            key = "omega"
    except ValueError as exc:
        raise CliInputError(f"family {args.family} inapplicable: {exc}")
    rows = [
        {"parameter": r[key], "norm_h1": r["norm_h1"],
         "norm_h2": r["norm_h2"], "ratio": r["ratio"]}
        for r in raw if r.get("ratio") is not None
    ]
    obj = {"command": "families", "family": args.family, "p": args.p,
           "h1_deg": _deg(h1), "h2_deg": _deg(h2), "rows": rows}
    cols = ["parameter", "norm_h1", "norm_h2", "ratio"]
    return obj, cols, rows, 0


def cmd_poincare(args):
    value = poincare_constant(args.p)
    obj = {"command": "poincare", "p": args.p, "n": POINCARE_GRID,
           "value": value}
    cols = ["p", "n", "value"]
    return obj, cols, [obj], 0


def cmd_sweep(args):
    dom = _resolve_domain(args)
    estimates = search.directional_sweep(dom, args.p, budget=args.budget,
                                         seed=args.seed)
    rows = [
        {"h1_deg": _deg(e.h1), "h2_deg": _deg(e.h2),
         "best_ratio": e.best_ratio, "upper_bound": e.upper_bound,
         "gap": e.gap}
        for e in estimates
    ]
    obj = {"command": "sweep", "p": args.p, "seed": args.seed,
           "budget": args.budget, "rows": rows}
    cols = ["h1_deg", "h2_deg", "best_ratio", "upper_bound", "gap"]
    return obj, cols, rows, 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "bounds": cmd_bounds,
    "estimate": cmd_estimate,
    "verify": cmd_verify,
    "families": cmd_families,
    "poincare": cmd_poincare,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        obj, cols, rows, code = _COMMANDS[args.command](args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: invalid domain: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _render(obj, cols, rows, args.format)
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
