/* Exact-cover kernel: Knuth's Algorithm X over bitsets.
 *
 * Same algorithm, column heuristic, row order and node accounting as the
 * pure-Python dancing-links twin in _dlx_py.py, so both report identical
 * node counts: a node is one row tried, the column branched on is the
 * first active column of least size, and its rows are tried in ascending
 * order.  Built into a shared library on first import and called through
 * ctypes by _dlx.py.
 *
 * The state at each depth is a bitset of the active rows (those meeting
 * no covered column) and, per column, a key: its count of active rows,
 * plus COVERED once the column is covered, so choosing a column is one
 * pass for the least key.  Selecting a row copies the keys one depth down
 * and drops the rows it conflicts with; backtracking restores nothing but
 * the exact-count side constraints.  A selection that empties an active
 * column is abandoned at once, since the search below it would branch on
 * that column and try no row.  The exact-count side constraints are
 * tracked incrementally: `selected` and `alive` count the chosen and the
 * still-active member rows of each constraint, which is violated when
 * `selected` overshoots its target or `selected + alive` can no longer
 * reach it.
 */
#define _POSIX_C_SOURCE 200809L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

enum { EXHAUSTED = 0, LIMIT = 1, TIMED_OUT = 2 };
enum { NO_MEMORY = -1, BAD_INDEX = -2 };

/* added to the key of a covered column, above any count of rows */
#define COVERED (1 << 30)

typedef uint64_t word;
typedef void (*solution_fn)(const int *rows, int n);

/* The matrix and the search state; depth d owns 4 bitsets and n_cols + 1
 * keys. */
struct search {
    int n_cols, n_rows, rw, stride, n_cons;
    word *colmask;      /* rw words per column: the rows that cover it */
    int *padded;        /* stride columns per row, padded with n_cols */
    int *cstart, *cidx; /* constraints of row r: cidx[cstart[r] .. cstart[r + 1] - 1] */
    int *target;
    int depths;
    word *bits;   /* active rows, rows of the chosen column, untried, dropped */
    int *keys, *sel;
    int *selected, *alive, nviol;
    long long nodes;
};

static double monotonic_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

static inline int violated(int s, int a, int t)
{
    return s > t || s + a < t;
}

static inline void bump(struct search *s, int r, int dsel, int dalv)
{
    for (int kk = s->cstart[r]; kk < s->cstart[r + 1]; kk++) {
        int k = s->cidx[kk];
        int before = violated(s->selected[k], s->alive[k], s->target[k]);
        s->selected[k] += dsel;
        s->alive[k] += dalv;
        s->nviol += violated(s->selected[k], s->alive[k], s->target[k]) - before;
    }
}

/* The rows in `set` leave the active matrix.  With `stop`, returns early
 * once an active column is emptied, leaving the keys unfinished: that state
 * fails without trying a row. */
static inline int drop_rows(struct search *s, int *restrict key, const word *restrict set,
                            int stop)
{
    const int rw = s->rw, stride = s->stride;
    const int *restrict padded = s->padded;
    int dead = 0;
    if (s->n_cons)
        for (int w = 0; w < rw; w++)
            for (word b = set[w]; b; b &= b - 1)
                bump(s, w * 64 + __builtin_ctzll(b), 0, -1);
    for (int w = 0; w < rw; w++)
        for (word b = set[w]; b; b &= b - 1) {
            const int *cols = padded + (size_t)(w * 64 + __builtin_ctzll(b)) * stride;
            for (int p = 0; p < stride; p++)
                dead |= --key[cols[p]] == 0;
            if (stop && dead)
                return 1;
        }
    return 0;
}

static inline void restore_rows(struct search *s, const word *set)
{
    if (s->n_cons)
        for (int w = 0; w < s->rw; w++)
            for (word b = set[w]; b; b &= b - 1)
                bump(s, w * 64 + __builtin_ctzll(b), 0, 1);
}

/* The column to branch on, or -1 when every column is covered. */
static inline int choose(const int *key, int n)
{
    int least = COVERED;
    for (int c = 0; c < n; c++)
        least = key[c] < least ? key[c] : least;
    if (least == COVERED)
        return -1;
    for (int c = 0;; c++)
        if (key[c] == least)
            return c;
}

static inline word *bits_at(const struct search *s, int depth)
{
    return s->bits + (size_t)depth * 4 * s->rw;
}

static inline int *keys_at(const struct search *s, int depth)
{
    return s->keys + (size_t)depth * (s->n_cols + 1);
}

/* Make room for the state one depth below `depth`. */
static int reserve(struct search *s, int depth)
{
    if (depth + 1 < s->depths)
        return 0;
    int depths = 2 * s->depths + 8;
    word *bits = realloc(s->bits, ((size_t)depths * 4 * s->rw + 1) * sizeof *bits);
    if (bits)
        s->bits = bits;
    int *keys = realloc(s->keys, ((size_t)depths * (s->n_cols + 1) + 1) * sizeof *keys);
    if (keys)
        s->keys = keys;
    int *sel = realloc(s->sel, depths * sizeof *sel);
    if (sel)
        s->sel = sel;
    if (!bits || !keys || !sel)
        return NO_MEMORY;
    s->depths = depths;
    return 0;
}

/* Select row x at `depth`, leaving the state one depth below; `skip` holds
 * rows already dropped at `depth` (those of the column branched on). */
static inline int select_row(struct search *s, int depth, int x, const word *skip)
{
    const int rw = s->rw;
    word *act = bits_at(s, depth), *gone = act + 3 * rw, *next = act + 4 * rw;
    int *key = keys_at(s, depth), *nkey = key + s->n_cols + 1;
    memcpy(nkey, key, (s->n_cols + 1) * sizeof *nkey);
    for (int v = 0; v < rw; v++) {
        next[v] = act[v] & ~skip[v];
        gone[v] = 0;
    }
    for (int p = 0; p < s->stride; p++) {
        int c = s->padded[(size_t)x * s->stride + p];
        if (c == s->n_cols)
            break;
        const word *rows = s->colmask + (size_t)c * rw;
        nkey[c] += COVERED;
        for (int v = 0; v < rw; v++)
            gone[v] |= next[v] & rows[v];
    }
    for (int v = 0; v < rw; v++)
        next[v] &= ~gone[v];
    bump(s, x, 1, 0);
    s->sel[depth] = x;
    return drop_rows(s, nkey, gone, 1);
}

/* Algorithm X from the root state at depth 0; each solution goes to
 * on_solution as its rows in selection order. */
static int run(struct search *s, long long max_solutions, double deadline,
               solution_fn on_solution)
{
    const int rw = s->rw, nc = s->n_cols;
    long long nsol = 0;
    int depth = 0, x;
    word *act, *hrows, *todo, *gone;

descend:
    if (reserve(s, depth))
        return NO_MEMORY;
    act = bits_at(s, depth);
    hrows = act + rw;
    todo = hrows + rw;
    if (s->nviol)
        goto backtrack;
    {
        int h = choose(keys_at(s, depth), nc);
        if (h < 0) {
            on_solution(s->sel, depth);
            if (++nsol >= max_solutions)
                return LIMIT;
            goto backtrack;
        }
        const word *rows = s->colmask + (size_t)h * rw;
        for (int v = 0; v < rw; v++)
            todo[v] = hrows[v] = act[v] & rows[v];
        drop_rows(s, keys_at(s, depth), hrows, 0);
    }
try_row:
    {
        int w = 0;
        while (w < rw && !todo[w])
            w++;
        if (w == rw) {
            restore_rows(s, hrows);
            goto backtrack;
        }
        x = w * 64 + __builtin_ctzll(todo[w]);
        todo[w] &= todo[w] - 1;
    }
    s->nodes++;
    if ((s->nodes & 0xFFFF) == 0 && deadline >= 0 && monotonic_seconds() >= deadline)
        return TIMED_OUT;
    if (select_row(s, depth, x, hrows)) {
        /* an emptied column: the child fails without trying a row */
        restore_rows(s, act + 3 * rw);
        bump(s, x, -1, 0);
        goto try_row;
    }
    depth++;
    goto descend;
backtrack:
    if (depth == 0)
        return EXHAUSTED;
    depth--;
    act = bits_at(s, depth);
    hrows = act + rw;
    todo = hrows + rw;
    gone = todo + rw;
    restore_rows(s, gone);
    bump(s, s->sel[depth], -1, 0);
    goto try_row;
}

/* Link the matrix and set up the root state: column bitsets, padded rows,
 * the constraints of each row, every row active and no column covered;
 * returns 0, or a negative code. */
static int build(struct search *s, const int *row_start, const int *cols,
                 const int *con_start, const int *con_rows, const int *targets)
{
    const int rw = s->rw;
    if (reserve(s, 0))
        return NO_MEMORY;
    word *act = bits_at(s, 0);
    int *key = keys_at(s, 0);
    memset(act, 0, rw * sizeof *act);
    memset(key, 0, (s->n_cols + 1) * sizeof *key);
    for (int r = 0; r < s->n_rows; r++) {
        int *padded = s->padded + (size_t)r * s->stride;
        act[r >> 6] |= (word)1 << (r & 63);
        for (int p = 0; p < s->stride; p++)
            padded[p] = s->n_cols;
        for (int p = row_start[r]; p < row_start[r + 1]; p++) {
            int c = cols[p];
            if (c < 0 || c >= s->n_cols)
                return BAD_INDEX;
            padded[p - row_start[r]] = c;
            s->colmask[(size_t)c * rw + (r >> 6)] |= (word)1 << (r & 63);
            key[c]++;
        }
    }
    for (int k = 0; k < s->n_cons; k++) {
        s->target[k] = targets[k];
        for (int p = con_start[k]; p < con_start[k + 1]; p++) {
            if (con_rows[p] < 0 || con_rows[p] >= s->n_rows)
                return BAD_INDEX;
            s->cstart[con_rows[p] + 1]++;
            s->alive[k]++;
        }
        s->nviol += violated(0, s->alive[k], s->target[k]);
    }
    for (int r = 0; r < s->n_rows; r++)
        s->cstart[r + 1] += s->cstart[r];
    /* fill advances each row's start to its end; shift the starts back */
    for (int k = 0; k < s->n_cons; k++)
        for (int p = con_start[k]; p < con_start[k + 1]; p++)
            s->cidx[s->cstart[con_rows[p]]++] = k;
    for (int r = s->n_rows; r > 0; r--)
        s->cstart[r] = s->cstart[r - 1];
    s->cstart[0] = 0;
    return 0;
}

/* Run exhaustive Algorithm X; returns EXHAUSTED, LIMIT or TIMED_OUT, or a
 * negative code for failed allocation or an index out of range.
 *
 * Row r covers columns cols[row_start[r]] .. cols[row_start[r + 1] - 1].
 * Constraint k asks for exactly targets[k] of the rows
 * con_rows[con_start[k]] .. con_rows[con_start[k + 1] - 1].  deadline is in
 * CLOCK_MONOTONIC seconds, the clock of Python's time.monotonic() on Linux,
 * and negative for none; it is checked every 65,536 nodes.  on_solution
 * receives each solution's rows in selection order.
 */
int dlx_solve(int n_cols, int n_rows, const int *row_start, const int *cols,
              int n_cons, const int *con_start, const int *con_rows,
              const int *targets, long long max_solutions, double deadline,
              solution_fn on_solution, long long *nodes_out)
{
    struct search s = {
        .n_cols = n_cols, .n_rows = n_rows, .rw = (n_rows + 63) / 64,
        .stride = 1, .n_cons = n_cons,
    };
    for (int r = 0; r < n_rows; r++)
        if (row_start[r + 1] - row_start[r] > s.stride)
            s.stride = row_start[r + 1] - row_start[r];
    s.colmask = calloc((size_t)(n_cols + 1) * s.rw + 1, sizeof *s.colmask);
    s.padded = malloc(((size_t)n_rows * s.stride + 1) * sizeof *s.padded);
    s.cstart = calloc(n_rows + 1, sizeof *s.cstart);
    s.cidx = malloc((con_start[n_cons] + 1) * sizeof *s.cidx);
    s.target = malloc((n_cons + 1) * sizeof *s.target);
    s.selected = calloc(n_cons + 1, sizeof *s.selected);
    s.alive = calloc(n_cons + 1, sizeof *s.alive);
    int status = NO_MEMORY;
    if (s.colmask && s.padded && s.cstart && s.cidx && s.target && s.selected && s.alive) {
        status = build(&s, row_start, cols, con_start, con_rows, targets);
        if (!status)
            status = run(&s, max_solutions, deadline, on_solution);
    }
    *nodes_out = s.nodes;
    free(s.colmask);
    free(s.padded);
    free(s.cstart);
    free(s.cidx);
    free(s.target);
    free(s.bits);
    free(s.keys);
    free(s.sel);
    free(s.selected);
    free(s.alive);
    return status;
}
