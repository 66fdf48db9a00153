"""Pure-Python dancing-links kernel.

The sparse 0/1 matrix lives in parallel integer lists: ``left/right/
up/down`` are node links, node 0 is the root, nodes 1..n_cols are the
column headers, and data nodes follow in row-major build order.  The
compiled twin implements the same algorithm with the same column
heuristic, row order, and node accounting, so the two backends report
identical node counts.

Exact-count side constraints are tracked incrementally: ``selected`` and
``alive`` count the chosen and the still-visible rows of each constraint
subset, and a constraint is violated when ``selected`` overshoots the
target or ``selected + alive`` can no longer reach it.  Rows enter and
leave visibility exactly once per cover/uncover, so the counters stay
consistent along the whole search tree.
"""

import time

BACKEND = "python"

EXHAUSTED = 0
LIMIT = 1
TIMED_OUT = 2


def solve(n_cols, rows, constraints, max_solutions, deadline):
    """Run exhaustive Algorithm X; returns (status, solutions, nodes).

    rows: sequence of nonempty, strictly ascending column-index tuples.
    constraints: sequence of (row-id tuple, exact target) pairs.
    deadline: time.monotonic() deadline, negative for none.
    """
    nh = n_cols + 1
    left = [h - 1 if h else nh - 1 for h in range(nh)]
    right = [h + 1 if h + 1 < nh else 0 for h in range(nh)]
    up = list(range(nh))
    down = list(range(nh))
    colof = list(range(nh))
    rowof = [-1] * nh
    size = [0] * nh

    for rid, cols in enumerate(rows):
        first = -1
        for c in cols:
            h = c + 1
            node = len(left)
            up.append(up[h])
            down.append(h)
            down[up[h]] = node
            up[h] = node
            colof.append(h)
            rowof.append(rid)
            size[h] += 1
            if first < 0:
                left.append(node)
                right.append(node)
                first = node
            else:
                last = left[first]
                left.append(last)
                right.append(first)
                right[last] = node
                left[first] = node

    ncons = len(constraints)
    target = [t for _, t in constraints]
    selected = [0] * ncons
    alive = [0] * ncons
    row_cons = [[] for _ in rows]
    for k, (members, _) in enumerate(constraints):
        for r in members:
            row_cons[r].append(k)
            alive[k] += 1

    nviol = 0
    for k in range(ncons):
        if selected[k] > target[k] or selected[k] + alive[k] < target[k]:
            nviol += 1

    def bump(k, dsel, dalv):
        nonlocal nviol
        t = target[k]
        s = selected[k]
        a = alive[k]
        before = s > t or s + a < t
        s += dsel
        a += dalv
        selected[k] = s
        alive[k] = a
        after = s > t or s + a < t
        if after != before:
            nviol += 1 if after else -1

    def cover(h):
        right[left[h]] = right[h]
        left[right[h]] = left[h]
        i = down[h]
        while i != h:
            j = right[i]
            while j != i:
                up[down[j]] = up[j]
                down[up[j]] = down[j]
                size[colof[j]] -= 1
                j = right[j]
            for k in row_cons[rowof[i]]:
                bump(k, 0, -1)
            i = down[i]

    def uncover(h):
        i = up[h]
        while i != h:
            for k in row_cons[rowof[i]]:
                bump(k, 0, 1)
            j = left[i]
            while j != i:
                size[colof[j]] += 1
                up[down[j]] = j
                down[up[j]] = j
                j = left[j]
            i = up[i]
        right[left[h]] = h
        left[right[h]] = h

    def choose():
        best = right[0]
        bsize = size[best]
        c = right[best]
        while c != 0:
            if size[c] < bsize:
                best = c
                bsize = size[c]
            c = right[c]
        return best

    solutions = []
    sel_rows = []
    stack = []
    nodes = 0
    status = EXHAUSTED
    h = node = 0
    mode = 0  # 0 descend, 1 try row, 2 backtrack
    while True:
        if mode == 0:
            if nviol:
                mode = 2
                continue
            if right[0] == 0:
                solutions.append(sorted(sel_rows))
                if len(solutions) >= max_solutions:
                    status = LIMIT
                    break
                mode = 2
                continue
            h = choose()
            cover(h)
            node = down[h]
            mode = 1
        elif mode == 1:
            if node == h:
                uncover(h)
                mode = 2
                continue
            nodes += 1
            if (
                (nodes & 0xFFFF) == 0
                and deadline >= 0
                and time.monotonic() >= deadline
            ):
                status = TIMED_OUT
                break
            r = rowof[node]
            for k in row_cons[r]:
                bump(k, 1, 0)
            sel_rows.append(r)
            j = right[node]
            while j != node:
                cover(colof[j])
                j = right[j]
            stack.append((h, node))
            mode = 0
        else:
            if not stack:
                break
            h, node = stack.pop()
            j = left[node]
            while j != node:
                uncover(colof[j])
                j = left[j]
            sel_rows.pop()
            for k in row_cons[rowof[node]]:
                bump(k, -1, 0)
            node = down[node]
            mode = 1
    return status, solutions, nodes
