"""Command-line front end for the catalog reproduction pipelines.

Verbs:

- ``table-row NAME``: catalog group -> orbits -> incidence matrix ->
  reduction -> screens -> solver, compared against the expectation table.
- ``table-all``: the same for every catalog group.
- ``verify-theory``: re-check the counting identities behind the
  involution exclusions, including brute-force cross-checks in small
  dimensions.
- ``solve PATH``: run the exact-cover solver on a problem file.
- ``orbits NAME LAYER``: orbit partition of one subspace layer.
- ``km-build NAME``: build and reduce the incidence matrix only.

Exit codes: 0 when expectations matched (or the job simply ran), 1 on a
mismatch or data error, 2 on a usage or parse error.
"""

import argparse
import json
import math
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from . import catalog
from .catalog import CatalogFormatError, UnknownGroupError
from .cover import ForcedConflictError, ProblemFormatError, dlx_solve, parse_problem
from .designs import (
    DesignParams,
    admissible_involution_types,
    f7_residue_mod7,
    involution_census,
    is_admissible,
    steiner_triple_admissible,
)
from .gf2 import involution_normal_form, involution_type
from .km import (
    VerdictKind,
    build_km_matrix,
    dump_km,
    feasibility_screen,
    forced_by_length_residue,
    reduce_km,
    to_cover_problem,
)
from .orbits import (
    fixed_subspaces,
    group_closure,
    orbits,
    read_orbit_cache,
    write_orbit_cache,
)

T_DIM = 2
K_DIM = 3
V_DIM = 7
LAMBDA = 1
DEFAULT_TIMEOUT = 60.0

# a run verdict is consistent with a catalog verdict class when it either
# reproduces the recorded outcome or is inconclusive (timeout)
VERDICT_CONSISTENT = {
    "zero-row": ("zero-row",),
    "orbit-sum": ("orbit-sum",),
    "solved-unsat": ("unsat", "timeout"),
    "open": ("timeout",),
}


class UsageError(ValueError):
    """Bad flag/verb combination detected after argument parsing."""


class OrbitCacheError(ValueError):
    """An orbit cache file exists but belongs to a different computation."""


@dataclass(frozen=True)
class RunReport:
    """Everything one pipeline run produced, next to what was expected."""

    group: str
    order: int
    iso_type: str
    t_signature: str
    k_signature: str
    reduced_signature: str
    n_rows: int
    n_cols: int
    verdict: str
    expected_verdict: str
    nodes: int
    elapsed: float
    matched: bool
    detail: str


def _effective_timeout(args):
    if getattr(args, "no_timeout", False):
        return None
    explicit = getattr(args, "timeout", None)
    return DEFAULT_TIMEOUT if explicit is None else explicit


def _seconds(text):
    """argparse type for ``--timeout``: a finite number of seconds >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds >= 0, got {text!r}"
        )
    return value


def _orbit_layer(group, r, cache_dir):
    """Compute one orbit partition, consulting/filling the cache directory."""
    if cache_dir is None:
        return orbits(group, V_DIM, r)
    cache_dir = Path(cache_dir)
    path = cache_dir / f"{catalog.file_stem(group.name)}_r{r}.orb"
    if path.exists():
        part, name, order = read_orbit_cache(path)
        if (name, order, part.v, part.r) != (group.name, group.order, V_DIM, r):
            raise OrbitCacheError(f"{path} was written for a different computation")
        return part
    part = orbits(group, V_DIM, r)
    cache_dir.mkdir(parents=True, exist_ok=True)
    write_orbit_cache(path, part, group)
    return part


def _pipeline(name, cache_dir):
    spec = catalog.load_group(name)
    row = catalog.table_row(name)
    group = spec.closure()
    t_part = _orbit_layer(group, T_DIM, cache_dir)
    k_part = _orbit_layer(group, K_DIM, cache_dir)
    matrix = build_km_matrix(group, T_DIM, K_DIM, V_DIM, row_part=t_part, col_part=k_part)
    reduced = reduce_km(matrix, LAMBDA)
    return spec, row, matrix, reduced


def _fixed_block_constraint(spec, reduced):
    """Count constraint pinning how many fixed blocks a solution selects."""
    if spec.order != 2:
        raise UsageError("--force-fixed-blocks applies to groups of order 2 only")
    inv = spec.generators[0]
    s = involution_type(inv).s
    census = involution_census(V_DIM, s)
    if not census.admissible:
        raise UsageError(f"type ({V_DIM},{s}) admits no invariant design")
    count = int(census.fixed_blocks)
    members = tuple(i for i, n in enumerate(reduced.kept_lengths) if n == 1)
    return (members, count)


def _run_group(name, args):
    start = time.monotonic()
    spec, row, matrix, reduced = _pipeline(name, getattr(args, "orbit_cache", None))
    dump_path = getattr(args, "dump_km", None)
    if dump_path:
        Path(dump_path).write_text(dump_km(matrix, LAMBDA))

    constraints = []
    if getattr(args, "force_fixed_blocks", False):
        # validate the flag even when a screen ends the run early
        constraints.append(_fixed_block_constraint(spec, reduced))

    nodes = 0
    screen = feasibility_screen(reduced, LAMBDA)
    if screen.kind is not VerdictKind.UNKNOWN:
        verdict = screen.kind.value
        detail = screen.witness
    else:
        forced = forced_by_length_residue(reduced, LAMBDA)
        problem = to_cover_problem(
            reduced, LAMBDA, forced=forced, count_constraints=constraints
        )
        try:
            result = dlx_solve(
                problem,
                max_solutions=getattr(args, "max_solutions", 1),
                timeout=_effective_timeout(args),
            )
            verdict = result.status.value
            nodes = result.nodes
            detail = f"{len(result.solutions)} solution(s), {len(forced)} forced row(s)"
        except ForcedConflictError as exc:
            verdict = "unsat"
            detail = f"forced rows conflict: {exc}"

    t_sig = matrix.row_orbits.signature()
    k_sig = matrix.col_orbits.signature()
    red_sig = reduced.kept_signature()
    matched = (
        t_sig == row.t_signature
        and k_sig == row.k_signature
        and red_sig == row.reduced_signature
        and reduced.shape == (row.n_rows, row.n_cols)
        and verdict in VERDICT_CONSISTENT[row.verdict_class]
    )
    return RunReport(
        group=spec.name,
        order=spec.order,
        iso_type=spec.iso_type,
        t_signature=t_sig,
        k_signature=k_sig,
        reduced_signature=red_sig,
        n_rows=reduced.shape[0],
        n_cols=reduced.shape[1],
        verdict=verdict,
        expected_verdict=row.verdict_class,
        nodes=nodes,
        elapsed=time.monotonic() - start,
        matched=matched,
        detail=detail,
    )


def _print_report(report):
    print(f"group: {report.group} (order {report.order}, type {report.iso_type})")
    print(f"t-orbits: {report.t_signature}")
    print(f"k-orbits: {report.k_signature}")
    print(f"reduced:  {report.reduced_signature}  ({report.n_rows} x {report.n_cols})")
    print(f"verdict: {report.verdict}  [expected: {report.expected_verdict}]")
    print(f"nodes: {report.nodes}  elapsed: {report.elapsed:.2f}s  ({report.detail})")
    print(f"match: {'yes' if report.matched else 'NO'}")


def cmd_table_row(args):
    report = _run_group(args.name, args)
    if args.json:
        print(json.dumps({"verb": "table-row", **asdict(report)}, sort_keys=True))
    else:
        _print_report(report)
    return 0 if report.matched else 1


def cmd_table_all(args):
    reports = [_run_group(name, args) for name in catalog.catalog_names()]
    all_matched = all(r.matched for r in reports)
    if args.json:
        print(
            json.dumps(
                {
                    "verb": "table-all",
                    "matched": all_matched,
                    "reports": [asdict(r) for r in reports],
                },
                sort_keys=True,
            )
        )
    else:
        for r in reports:
            flag = "yes" if r.matched else "NO"
            print(
                f"{r.group:9s} {r.verdict:9s} [expected: {r.expected_verdict}]"
                f"  match={flag}  nodes={r.nodes}  {r.elapsed:.2f}s"
            )
        total = sum(r.matched for r in reports)
        print(f"matched {total}/{len(reports)}")
    return 0 if all_matched else 1


def run_theory_suites(v_max):
    """Execute every identity suite up to v_max; returns (counts, failures)."""
    suites = Counter()
    failures = []

    def check(suite, label, ok):
        suites[suite] += 1
        if not ok:
            failures.append(f"{suite}: {label}")

    for v in range(3, v_max + 1):
        for s in range(1, v // 2 + 1):
            c = involution_census(v, s)
            check(
                "census-identities",
                f"point partition v={v} s={s}",
                c.fixed_points + 2 * c.two_orbits == 2**v - 1,
            )
            lhs = 3 * Fraction(c.f3) + 21 * c.f7
            rhs = (2 ** (v - s) - 1) * (2 ** (v - s - 1) - 1)
            check("census-identities", f"fixed block tally v={v} s={s}", lhs == rhs)

    for v in range(3, v_max + 1):
        if not steiner_triple_admissible(v):
            continue
        for s in range(1, v // 2 + 1):
            c = involution_census(v, s)
            check(
                "residue-rule",
                f"v={v} s={s}",
                c.admissible == (f7_residue_mod7(v, s) % 7 == 0),
            )
        by_census = {
            s for s in range(1, v // 2 + 1) if involution_census(v, s).admissible
        }
        check(
            "type-classification",
            f"v={v}",
            admissible_involution_types(v) == by_census,
        )

    for v in range(7, v_max + 1):
        check(
            "triple-admissibility",
            f"v={v}",
            steiner_triple_admissible(v) == is_admissible(DesignParams(2, v, 3, 1)),
        )

    for v in range(3, min(v_max, 8) + 1):
        for s in range(1, v // 2 + 1):
            c = involution_census(v, s)
            group = group_closure((involution_normal_form(v, s),), name=f"A_{v}_{s}")
            lens = Counter(orbits(group, v, 1).lengths)
            check(
                "point-orbit-cross-check",
                f"v={v} s={s} fixed points",
                lens.get(1, 0) == c.fixed_points,
            )
            check(
                "point-orbit-cross-check",
                f"v={v} s={s} swapped pairs",
                lens.get(2, 0) == c.two_orbits,
            )
            check(
                "point-orbit-cross-check",
                f"v={v} s={s} fixed enumeration",
                len(fixed_subspaces(group, v, 1)) == c.fixed_points,
            )

    pinned = {7: {3}, 9: {1, 3, 4}, 13: {3, 6}}
    for v, types in pinned.items():
        if v <= v_max:
            check("pinned-examples", f"types({v})", admissible_involution_types(v) == types)

    return dict(suites), failures


def cmd_verify_theory(args):
    if args.v_max < 3:
        raise UsageError("--v-max must be at least 3")
    suites, failures = run_theory_suites(args.v_max)
    ok = not failures
    if args.json:
        print(
            json.dumps(
                {
                    "verb": "verify-theory",
                    "v_max": args.v_max,
                    "checks": suites,
                    "failures": failures,
                    "ok": ok,
                },
                sort_keys=True,
            )
        )
    else:
        for name in sorted(suites):
            print(f"{name}: {suites[name]} checks")
        for line in failures:
            print(f"FAIL {line}")
        print("ok" if ok else f"{len(failures)} failure(s)")
    return 0 if ok else 1


def cmd_solve(args):
    try:
        text = Path(args.path).read_text()
    except FileNotFoundError:
        raise UsageError(f"no such problem file: {args.path}")
    problem = parse_problem(text)
    start = time.monotonic()
    try:
        result = dlx_solve(
            problem,
            max_solutions=args.max_solutions,
            timeout=_effective_timeout(args),
        )
        status, nodes, solutions = result.status.value, result.nodes, result.solutions
        note = ""
    except ForcedConflictError as exc:
        status, nodes, solutions = "unsat", 0, ()
        note = f"forced rows conflict: {exc}"
    elapsed = time.monotonic() - start
    if args.json:
        print(
            json.dumps(
                {
                    "verb": "solve",
                    "path": str(args.path),
                    "status": status,
                    "nodes": nodes,
                    "elapsed": elapsed,
                    "solutions": [list(sol) for sol in solutions],
                    "note": note,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"status: {status}{'  (' + note + ')' if note else ''}")
        print(f"nodes: {nodes}  elapsed: {elapsed:.2f}s")
        for sol in solutions:
            print("solution:", " ".join(str(r) for r in sol))
    return 0


def cmd_orbits(args):
    spec = catalog.load_group(args.name)
    row = catalog.table_row(args.name)
    group = spec.closure()
    part = _orbit_layer(group, args.layer, args.orbit_cache)
    sig = part.signature()
    expected = {T_DIM: row.t_signature, K_DIM: row.k_signature}.get(args.layer)
    matched = expected is None or sig == expected
    if args.json:
        print(
            json.dumps(
                {
                    "verb": "orbits",
                    "group": spec.name,
                    "layer": args.layer,
                    "n_orbits": part.n_orbits,
                    "signature": sig,
                    "expected": expected,
                    "matched": matched,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"group: {spec.name}  layer: {args.layer}")
        print(f"orbits: {part.n_orbits}")
        print(f"signature: {sig}")
        if expected is not None:
            print(f"expected:  {expected}")
            print(f"match: {'yes' if matched else 'NO'}")
    return 0 if matched else 1


def cmd_km_build(args):
    spec, row, matrix, reduced = _pipeline(args.name, args.orbit_cache)
    if args.dump_km:
        Path(args.dump_km).write_text(dump_km(matrix, LAMBDA))
    screen = feasibility_screen(reduced, LAMBDA)
    t_sig = matrix.row_orbits.signature()
    k_sig = matrix.col_orbits.signature()
    red_sig = reduced.kept_signature()
    matched = (
        t_sig == row.t_signature
        and k_sig == row.k_signature
        and red_sig == row.reduced_signature
        and reduced.shape == (row.n_rows, row.n_cols)
    )
    if args.json:
        print(
            json.dumps(
                {
                    "verb": "km-build",
                    "group": spec.name,
                    "t_signature": t_sig,
                    "k_signature": k_sig,
                    "reduced_signature": red_sig,
                    "n_rows": reduced.shape[0],
                    "n_cols": reduced.shape[1],
                    "zero_rows": len(reduced.zero_rows),
                    "screen": screen.kind.value,
                    "matched": matched,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"group: {spec.name}")
        print(f"t-orbits: {t_sig}")
        print(f"k-orbits: {k_sig}")
        print(f"reduced:  {red_sig}  ({reduced.shape[0]} x {reduced.shape[1]})")
        print(f"zero rows: {len(reduced.zero_rows)}  screen: {screen.kind.value}")
        print(f"match: {'yes' if matched else 'NO'}")
    return 0 if matched else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gf2designs",
        description="Orbit-incidence searches for small binary q-Steiner systems.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_timeout(sp):
        group = sp.add_mutually_exclusive_group()
        group.add_argument(
            "--timeout",
            type=_seconds,
            default=None,
            metavar="SECONDS",
            help=f"solver budget per instance (default {DEFAULT_TIMEOUT:g}s)",
        )
        group.add_argument(
            "--no-timeout",
            action="store_true",
            help="let the solver run to completion",
        )

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    def add_cache(sp):
        sp.add_argument(
            "--orbit-cache",
            metavar="DIR",
            default=None,
            help="directory holding reusable orbit partition files",
        )

    tr = sub.add_parser("table-row", help="reproduce one catalog row end to end")
    tr.add_argument("name", help="catalog group, e.g. G_{4,2} or G_4_2")
    tr.add_argument("--max-solutions", type=int, default=1, metavar="N")
    tr.add_argument(
        "--force-fixed-blocks",
        action="store_true",
        help="add the fixed-block count constraint (order-2 groups)",
    )
    tr.add_argument("--dump-km", metavar="PATH", help="write the incidence matrix")
    add_timeout(tr)
    add_cache(tr)
    add_json(tr)
    tr.set_defaults(func=cmd_table_row)

    ta = sub.add_parser("table-all", help="reproduce every catalog row")
    ta.add_argument("--max-solutions", type=int, default=1, metavar="N")
    add_timeout(ta)
    add_cache(ta)
    add_json(ta)
    ta.set_defaults(func=cmd_table_all)

    vt = sub.add_parser("verify-theory", help="re-check the counting identities")
    vt.add_argument("--v-max", type=int, default=31, metavar="V")
    add_json(vt)
    vt.set_defaults(func=cmd_verify_theory)

    so = sub.add_parser("solve", help="solve an exact-cover problem file")
    so.add_argument("path")
    so.add_argument("--max-solutions", type=int, default=1, metavar="N")
    add_timeout(so)
    add_json(so)
    so.set_defaults(func=cmd_solve)

    ob = sub.add_parser("orbits", help="orbit partition of one subspace layer")
    ob.add_argument("name", help="catalog group")
    ob.add_argument("layer", type=int, choices=range(0, V_DIM + 1), metavar="LAYER")
    add_cache(ob)
    add_json(ob)
    ob.set_defaults(func=cmd_orbits)

    kb = sub.add_parser("km-build", help="build and reduce the incidence matrix")
    kb.add_argument("name", help="catalog group")
    kb.add_argument("--dump-km", metavar="PATH", help="write the incidence matrix")
    add_cache(kb)
    add_json(kb)
    kb.set_defaults(func=cmd_km_build)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProblemFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UnknownGroupError as exc:
        print(f"unknown group: {exc.args[0]}", file=sys.stderr)
        return 2
    except (CatalogFormatError, OrbitCacheError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
