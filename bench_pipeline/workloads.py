"""The benchmark's three workloads, timed from outside the program.

A workload is a fixed list of operations, each a sequence of calls into
the public functions of ``catalog``, ``orbits``, ``km`` and ``cover``.
One round runs every operation once, in order.  ``keep`` turns an
operation's raw output into the plain data its checks need, outside the
timed part, and ``check`` runs the checks after the last round.

Spans are recorded around each layer call by the code here, never inside
the program.  Untraced rounds pass :data:`NO_TRACE`, which records
nothing; a traced round passes a :class:`Tracer` and also wraps the
kernel that ``cover.dlx_solve`` calls, so the kernel's share of each
solve is its own span.
"""

import random
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace

from gf2designs import _dlx_py, catalog, cover
from gf2designs.cover import dlx_solve
from gf2designs.designs import DesignParams, verify_design
from gf2designs.gf2 import GF2Matrix
from gf2designs.grassmannian import grassmannian_index
from gf2designs.km import (
    build_km_matrix,
    feasibility_screen,
    forced_by_length_residue,
    reduce_km,
    to_cover_problem,
)
from gf2designs.orbits import group_closure, orbits

import checks

TABLE = Path(catalog.__file__).with_name("data") / "table1.tsv"

# the six fastest solver eliminations and their node counts, which a
# given column heuristic fixes: they must repeat exactly on every run
UNSAT_NODES = {
    "G_{3,3}": 1,
    "G_{4,4}": 4,
    "G_{6,2}": 25_904,
    "G_{6,3}": 6_121,
    "G_{8,1}": 8_830_102,
    "G_{9,1}": 9_347_931,
}
# rows small enough for the pure-Python twin
TWIN_ROWS = ("G_{6,2}", "G_{6,3}")
# how many enumerated spreads are expanded to blocks and verified as designs
DESIGN_SAMPLE = 64


class Tracer:
    """Spans and counts of one traced round, kept in memory.

    A span is [name, start, end, parent index, operation label]; spans
    opened inside another span name it as their parent.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.operation = None
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), None, parent, self.operation]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name, n):
        self.counts[name] += n

    def totals(self):
        """{span name: (summed duration, summed self time)} in seconds.

        A span's self time is its duration less what its child spans cover.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = defaultdict(lambda: [0.0, 0.0])
        for (name, start, end, _, _), self_time in zip(self.spans, own):
            out[name][0] += end - start
            out[name][1] += self_time
        return {name: tuple(v) for name, v in out.items()}

    def per_operation(self):
        """{operation label: {span name: seconds}}, durations summed."""
        out = defaultdict(Counter)
        for name, start, end, _, op in self.spans:
            out[op][name] += end - start
        return {op: dict(spans) for op, spans in out.items()}


class _NoTrace:
    operation = None

    def span(self, name):
        return nullcontext()

    def count(self, name, n):
        pass


NO_TRACE = _NoTrace()


@contextmanager
def kernel_spans(tr, kernel, name):
    """Make ``cover.dlx_solve`` run ``kernel``, with a span around each call."""
    real = cover._kernel

    def solve(*args):
        with tr.span(name):
            code, sols, nodes = kernel.solve(*args)
        tr.count(f"{name}.nodes", nodes)
        tr.count(f"{name}.solutions", len(sols))
        return code, sols, nodes

    cover._kernel = SimpleNamespace(
        BACKEND=kernel.BACKEND,
        EXHAUSTED=kernel.EXHAUSTED,
        LIMIT=kernel.LIMIT,
        TIMED_OUT=kernel.TIMED_OUT,
        solve=solve,
    )
    try:
        yield
    finally:
        cover._kernel = real


def front_end(tr, group, v, t, k):
    """Orbits, KM build, reduction, both screens, forcing and cover conversion."""
    with tr.span("orbits.t"):
        t_part = orbits(group, v, t)
    with tr.span("orbits.k"):
        k_part = orbits(group, v, k)
    with tr.span("km.build"):
        matrix = build_km_matrix(group, t, k, v, row_part=t_part, col_part=k_part)
    with tr.span("km.reduce"):
        reduced = reduce_km(matrix, 1)
    with tr.span("km.screen"):
        screen = feasibility_screen(reduced, 1)
        forced = forced_by_length_residue(reduced, 1)
    with tr.span("km.cover"):
        problem = to_cover_problem(reduced, 1, forced=forced)
    tr.count("orbits.t_orbits", t_part.n_orbits)
    tr.count("orbits.k_orbits", k_part.n_orbits)
    tr.count("km.entries", sum(len(row) for row in matrix.entries))
    return SimpleNamespace(
        group=group, matrix=matrix, reduced=reduced, screen=screen,
        forced=forced, problem=problem,
    )


def catalog_front_end(tr, name):
    # parse the group file on every call, as a fresh table-row run does
    catalog.load_group.cache_clear()
    with tr.span("catalog.load"):
        group = catalog.load_group(name).closure()
    return front_end(tr, group, 7, 2, 3)


def front_end_record(fe):
    """Plain data the orbit-system and table checks read."""
    m, r = fe.matrix, fe.reduced
    return {
        "order": fe.group.order,
        "t_lengths": m.row_orbits.lengths,
        "k_lengths": m.col_orbits.lengths,
        "t_signature": m.row_orbits.signature(),
        "k_signature": m.col_orbits.signature(),
        "reduced_signature": r.kept_signature(),
        "shape": r.shape,
        "kept_columns": r.kept_columns,
        "screen": fe.screen.kind.value,
        "forced": fe.forced,
        "entries": m.entries,
        "cover_shape": (fe.problem.n_cols, fe.problem.n_rows),
    }


def solve_record(result):
    return {
        "status": result.status.value,
        "exhausted": result.exhausted,
        "nodes": result.nodes,
        "n_solutions": len(result.solutions),
    }


class FrontendCatalog:
    """All 25 catalog groups through the front end, with no search."""

    name = "frontend-catalog"
    layers = ((7, 2), (7, 3))

    def __init__(self):
        self.table = checks.read_table(TABLE)

    def operations(self):
        return [(name, lambda tr, n=name: catalog_front_end(tr, n)) for name in self.table]

    def keep(self, label, out):
        return front_end_record(out)

    def check(self, kept, seed, stats):
        problems = []
        for label, rec in kept:
            problems += [f"{label}: {p}" for p in checks.check_against_table(rec, self.table[label])]
            problems += [f"{label}: {p}" for p in checks.check_orbit_system(rec, 7, 2, 3)]
        return problems


class SolveUnsat(FrontendCatalog):
    """The six fastest solver eliminations: front end, then search to exhaustion."""

    name = "solve-unsat"

    def operations(self):
        def run(tr, name):
            fe = catalog_front_end(tr, name)
            with tr.span("cover.solve"):
                fe.result = dlx_solve(fe.problem, max_solutions=1)
            return fe

        return [(name, lambda tr, n=name: run(tr, n)) for name in UNSAT_NODES]

    def keep(self, label, out):
        return {**front_end_record(out), **solve_record(out.result), "problem": out.problem}

    def check(self, kept, seed, stats):
        problems = super().check(kept, seed, stats)
        for label, rec in kept:
            problems += [f"{label}: {p}" for p in checks.check_unsat(rec, UNSAT_NODES[label])]
        # the pure-Python twin must visit the compiled kernel's nodes
        twin = Tracer()
        last = dict(kept)
        with kernel_spans(twin, _dlx_py, "dlx_py.solve"):
            for label in (row for row in TWIN_ROWS if row in last):
                rec = solve_record(dlx_solve(last[label]["problem"], max_solutions=1))
                problems += [
                    f"{label} on the Python twin: {p}"
                    for p in checks.check_unsat(rec, last[label]["nodes"])
                ]
        seconds = twin.totals().get("dlx_py.solve", (0.0,))[0]
        if seconds:
            stats["dlx_py.nodes_per_s"] = twin.counts["dlx_py.solve.nodes"] / seconds
        return problems


class EnumerateSpreads:
    """Every plane spread of F_2^6: the 1-(6,3,1)_2 designs, trivial group."""

    name = "enumerate-spreads"
    layers = ((6, 1), (6, 3))
    label = "spreads-(6,3)"

    def operations(self):
        def run(tr):
            with tr.span("catalog.load"):
                group = group_closure((GF2Matrix.identity(6),), name="trivial-6")
            fe = front_end(tr, group, 6, 1, 3)
            with tr.span("cover.solve"):
                fe.result = dlx_solve(fe.problem, max_solutions=None)
            return fe

        return [(self.label, run)]

    def keep(self, label, out):
        import numpy as np

        reps = out.matrix.col_orbits
        planes = [reps.representative(c) for c in out.reduced.kept_columns]
        rec = {**front_end_record(out), **solve_record(out.result), "planes": planes}
        rec["solutions"] = np.array(out.result.solutions, dtype=np.int16)
        return rec

    def check(self, kept, seed, stats):
        problems = []
        count = checks.desarguesian_spread_count(3)
        rng = random.Random(seed)
        for label, rec in kept:
            problems += checks.check_orbit_system(rec, 6, 1, 3)
            if rec["screen"] != "unknown" or rec["forced"]:
                problems.append(f"screen {rec['screen']} forced {rec['forced']}: want neither")
            if rec["status"] != "sat" or not rec["exhausted"]:
                problems.append(f"status {rec['status']}, exhausted {rec['exhausted']}")
            masks = [checks.point_mask(p.rows) for p in rec["planes"]]
            problems += checks.check_spreads(rec["solutions"], masks, 63, count)
            sols = rec["solutions"]
            for i in sorted(rng.sample(range(len(sols)), min(DESIGN_SAMPLE, len(sols)))):
                blocks = [rec["planes"][j] for j in sols[i]]
                if not verify_design(blocks, DesignParams(1, 6, 3, 1)):
                    problems.append(f"solution {i} is not a 1-(6,3,1)_2 design")
                    break
        return problems


WORKLOADS = {w.name: w for w in (FrontendCatalog, SolveUnsat, EnumerateSpreads)}


def setup(workload):
    """Build the Grassmannian indices the workload's first call uses."""
    for v, k in workload.layers:
        grassmannian_index(v, k)
