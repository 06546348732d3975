/*
 * refsolver: the benchmark's fixed reference SAT solver.
 *
 * A small deterministic CDCL solver in the MiniSat lineage (Een and
 * Sorensson, "An Extensible SAT-solver", SAT 2003): two watched literals,
 * first-UIP clause learning with local minimisation, VSIDS decisions over a
 * binary heap, Luby restarts, phase saving and LBD-ranked learnt-clause
 * deletion.  Nothing in it is random, so one formula always takes the same
 * search and the same number of conflicts.
 *
 * Usage: refsolver [-l LOGFILE] FILE.cnf
 *
 * Prints SAT-competition output ("s SATISFIABLE" plus "v" lines, or
 * "s UNSATISFIABLE") and exits 10 or 20, the protocol sepdfa's solve()
 * expects.  With -l, appends one line per call to LOGFILE:
 *   vars=V clauses=C bytes=B verdict=sat|unsat conflicts=K seconds=S
 * where S is the solver's own wall time from start to exit.  Any error
 * exits 1 with a message on stderr.
 */

#define _POSIX_C_SOURCE 199309L

#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef struct {
    int *data;
    int size;
    int cap;
} ivec;

static void die(const char *msg)
{
    fprintf(stderr, "refsolver: %s\n", msg);
    exit(1);
}

static void *xrealloc(void *ptr, size_t bytes)
{
    void *out = realloc(ptr, bytes ? bytes : 1);
    if (out == NULL)
        die("out of memory");
    return out;
}

static void push(ivec *v, int x)
{
    if (v->size == v->cap) {
        v->cap = v->cap ? 2 * v->cap : 4;
        v->data = xrealloc(v->data, (size_t)v->cap * sizeof(int));
    }
    v->data[v->size++] = x;
}

/* Literal l encodes variable l >> 1, negated when l & 1 is set. */
#define VAR(l) ((l) >> 1)
#define NEG(l) ((l) ^ 1)

/* Clause arena: [size][lbd][lit0][lit1]...; lbd is 0 for original
 * clauses and DELETED for learnt clauses dropped by reduce_db. */
#define C_SIZE(cr) (arena.data[cr])
#define C_LBD(cr) (arena.data[(cr) + 1])
#define C_LITS(cr) (&arena.data[(cr) + 2])
#define DELETED (-1)

static int nvars;
static ivec arena;
static ivec *watches;      /* per literal: (clause, blocker) pairs */
static signed char *lval;  /* per literal: 1 true, -1 false, 0 unset */
static int *level;
static int *reason;        /* clause that implied the variable, or -1 */
static unsigned char *phase; /* saved sign bit for the next decision */
static unsigned char *seen;
static int *trail;
static int trail_size;
static int qhead;
static ivec trail_lim;
static ivec learnts;       /* arena offsets of live learnt clauses */
static double max_learnts;

static double *activity;
static double var_inc = 1.0;
static int *heap;          /* max-heap of variables by activity */
static int heap_size;
static int *heap_pos;      /* position in heap, or -1 */

static long conflicts;
static int *level_stamp;
static int stamp;

static int decision_level(void) { return trail_lim.size; }

static void heap_up(int i)
{
    int v = heap[i];
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (activity[heap[parent]] >= activity[v])
            break;
        heap[i] = heap[parent];
        heap_pos[heap[i]] = i;
        i = parent;
    }
    heap[i] = v;
    heap_pos[v] = i;
}

static void heap_down(int i)
{
    int v = heap[i];
    for (;;) {
        int child = 2 * i + 1;
        if (child >= heap_size)
            break;
        if (child + 1 < heap_size
            && activity[heap[child + 1]] > activity[heap[child]])
            child++;
        if (activity[heap[child]] <= activity[v])
            break;
        heap[i] = heap[child];
        heap_pos[heap[i]] = i;
        i = child;
    }
    heap[i] = v;
    heap_pos[v] = i;
}

static void heap_insert(int v)
{
    if (heap_pos[v] >= 0)
        return;
    heap[heap_size] = v;
    heap_pos[v] = heap_size;
    heap_size++;
    heap_up(heap_size - 1);
}

static int heap_pop(void)
{
    int top = heap[0];
    heap_pos[top] = -1;
    heap_size--;
    if (heap_size > 0) {
        heap[0] = heap[heap_size];
        heap_pos[heap[0]] = 0;
        heap_down(0);
    }
    return top;
}

static void bump(int v)
{
    activity[v] += var_inc;
    if (activity[v] > 1e100) {
        for (int i = 0; i < nvars; i++)
            activity[i] *= 1e-100;
        var_inc *= 1e-100;
    }
    if (heap_pos[v] >= 0)
        heap_up(heap_pos[v]);
}

static void enqueue(int lit, int from)
{
    int v = VAR(lit);
    lval[lit] = 1;
    lval[NEG(lit)] = -1;
    level[v] = decision_level();
    reason[v] = from;
    trail[trail_size++] = lit;
}

static void watch(int cr)
{
    int *c = C_LITS(cr);
    push(&watches[NEG(c[0])], cr);
    push(&watches[NEG(c[0])], c[1]);
    push(&watches[NEG(c[1])], cr);
    push(&watches[NEG(c[1])], c[0]);
}

static int new_clause(const int *lits, int size, int lbd)
{
    int cr = arena.size;
    if ((long)arena.size + size + 2 > 0x7fffffffL)
        die("clause arena full");
    push(&arena, size);
    push(&arena, lbd);
    for (int i = 0; i < size; i++)
        push(&arena, lits[i]);
    return cr;
}

/* Unit propagation; returns the conflicting clause or -1. */
static int propagate(void)
{
    while (qhead < trail_size) {
        int p = trail[qhead++];
        int false_lit = NEG(p);
        ivec *ws = &watches[p];
        int *w = ws->data;
        int n = ws->size;
        int i = 0, j = 0;
        while (i < n) {
            int cr = w[i];
            int blocker = w[i + 1];
            i += 2;
            if (lval[blocker] == 1) {
                w[j++] = cr;
                w[j++] = blocker;
                continue;
            }
            int *c = C_LITS(cr);
            if (c[0] == false_lit) {
                c[0] = c[1];
                c[1] = false_lit;
            }
            int first = c[0];
            if (first != blocker && lval[first] == 1) {
                w[j++] = cr;
                w[j++] = first;
                continue;
            }
            int size = C_SIZE(cr);
            int moved = 0;
            for (int k = 2; k < size; k++) {
                if (lval[c[k]] != -1) {
                    c[1] = c[k];
                    c[k] = false_lit;
                    push(&watches[NEG(c[1])], cr);
                    push(&watches[NEG(c[1])], first);
                    moved = 1;
                    break;
                }
            }
            if (moved)
                continue;
            w[j++] = cr;
            w[j++] = first;
            if (lval[first] == -1) {
                while (i < n)
                    w[j++] = w[i++];
                ws->size = j;
                qhead = trail_size;
                return cr;
            }
            enqueue(first, cr);
        }
        ws->size = j;
    }
    return -1;
}

static void backtrack(int lvl)
{
    if (decision_level() <= lvl)
        return;
    int stop = trail_lim.data[lvl];
    for (int i = trail_size - 1; i >= stop; i--) {
        int lit = trail[i];
        int v = VAR(lit);
        lval[lit] = 0;
        lval[NEG(lit)] = 0;
        reason[v] = -1;
        phase[v] = (unsigned char)(lit & 1);
        heap_insert(v);
    }
    trail_size = stop;
    qhead = stop;
    trail_lim.size = lvl;
}

/* First-UIP analysis of a conflict.  Leaves the learnt clause in out, the
 * asserting literal first and a literal of the backjump level second. */
static void analyze(int confl, ivec *out, int *bt_level, int *lbd)
{
    static ivec toclear;
    int path = 0;
    int p = -1;
    int idx = trail_size - 1;
    out->size = 0;
    push(out, 0);
    toclear.size = 0;
    do {
        int *c = C_LITS(confl);
        int size = C_SIZE(confl);
        for (int k = (p == -1) ? 0 : 1; k < size; k++) {
            int q = c[k];
            int v = VAR(q);
            if (seen[v] || level[v] == 0)
                continue;
            seen[v] = 1;
            push(&toclear, v);
            bump(v);
            if (level[v] >= decision_level())
                path++;
            else
                push(out, q);
        }
        while (!seen[VAR(trail[idx])])
            idx--;
        p = trail[idx];
        idx--;
        confl = reason[VAR(p)];
        seen[VAR(p)] = 0;
        path--;
    } while (path > 0);
    out->data[0] = NEG(p);

    /* Drop literals implied by the rest of the clause. */
    int j = 1;
    for (int i = 1; i < out->size; i++) {
        int v = VAR(out->data[i]);
        int cr = reason[v];
        int keep = (cr == -1);
        if (!keep) {
            int *c = C_LITS(cr);
            for (int k = 1; k < C_SIZE(cr); k++) {
                int u = VAR(c[k]);
                if (!seen[u] && level[u] > 0) {
                    keep = 1;
                    break;
                }
            }
        }
        if (keep)
            out->data[j++] = out->data[i];
    }
    out->size = j;
    for (int i = 0; i < toclear.size; i++)
        seen[toclear.data[i]] = 0;

    *bt_level = 0;
    if (out->size > 1) {
        int best = 1;
        for (int i = 2; i < out->size; i++)
            if (level[VAR(out->data[i])] > level[VAR(out->data[best])])
                best = i;
        int tmp = out->data[1];
        out->data[1] = out->data[best];
        out->data[best] = tmp;
        *bt_level = level[VAR(out->data[1])];
    }
    stamp++;
    *lbd = 0;
    for (int i = 0; i < out->size; i++) {
        int l = level[VAR(out->data[i])];
        if (level_stamp[l] != stamp) {
            level_stamp[l] = stamp;
            (*lbd)++;
        }
    }
}

static int locked(int cr)
{
    int first = C_LITS(cr)[0];
    return lval[first] == 1 && reason[VAR(first)] == cr;
}

static int by_quality(const void *a, const void *b)
{
    int x = *(const int *)a, y = *(const int *)b;
    if (C_LBD(x) != C_LBD(y))
        return C_LBD(x) - C_LBD(y);
    return (y > x) - (y < x); /* younger (later) clauses first */
}

/* Delete the worse half of the learnt clauses with LBD above 2. */
static void reduce_db(void)
{
    qsort(learnts.data, (size_t)learnts.size, sizeof(int), by_quality);
    int keep_count = learnts.size / 2;
    int j = 0;
    for (int i = 0; i < learnts.size; i++) {
        int cr = learnts.data[i];
        if (i < keep_count || C_LBD(cr) <= 2 || locked(cr)) {
            learnts.data[j++] = cr;
        } else {
            C_LBD(cr) = DELETED;
        }
    }
    learnts.size = j;
    for (int l = 0; l < 2 * nvars; l++) {
        ivec *ws = &watches[l];
        int k = 0;
        for (int i = 0; i < ws->size; i += 2) {
            if (C_LBD(ws->data[i]) == DELETED)
                continue;
            ws->data[k++] = ws->data[i];
            ws->data[k++] = ws->data[i + 1];
        }
        ws->size = k;
    }
    max_learnts *= 1.1;
}

static long luby(long i)
{
    long size = 1, seq = 0;
    while (size < i + 1) {
        seq++;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) >> 1;
        seq--;
        i = i % size;
    }
    return 1L << seq;
}

/* 10 satisfiable, 20 unsatisfiable, 0 restart requested. */
static int search(long budget)
{
    static ivec learnt;
    long here = 0;
    for (;;) {
        int confl = propagate();
        if (confl != -1) {
            conflicts++;
            here++;
            if (decision_level() == 0)
                return 20;
            int bt, lbd;
            analyze(confl, &learnt, &bt, &lbd);
            backtrack(bt);
            if (learnt.size == 1) {
                enqueue(learnt.data[0], -1);
            } else {
                int cr = new_clause(learnt.data, learnt.size, lbd);
                push(&learnts, cr);
                watch(cr);
                enqueue(learnt.data[0], cr);
            }
            var_inc *= 1.0 / 0.95;
            continue;
        }
        if (here >= budget) {
            backtrack(0);
            return 0;
        }
        if (learnts.size - trail_size >= max_learnts)
            reduce_db();
        int next = -1;
        while (heap_size > 0) {
            int v = heap_pop();
            if (lval[2 * v] == 0) {
                next = 2 * v + phase[v];
                break;
            }
        }
        if (next == -1)
            return 10;
        push(&trail_lim, trail_size);
        enqueue(next, -1);
    }
}

static int cmp_int(const void *a, const void *b)
{
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

static char *read_file(const char *path, long *len)
{
    FILE *f = fopen(path, "rb");
    if (f == NULL)
        die("cannot open input file");
    size_t cap = 1 << 16, size = 0;
    char *buf = xrealloc(NULL, cap + 1);
    size_t got;
    while ((got = fread(buf + size, 1, cap - size, f)) > 0) {
        size += got;
        if (size == cap) {
            cap *= 2;
            buf = xrealloc(buf, cap + 1);
        }
    }
    if (ferror(f))
        die("cannot read input file");
    fclose(f);
    buf[size] = '\0';
    *len = (long)size;
    return buf;
}

static int next_int(char **pos, int *out)
{
    char *s = *pos;
    while (*s == ' ' || *s == '\t' || *s == '\r' || *s == '\n')
        s++;
    if (*s == '\0')
        return 0;
    int sign = 1;
    if (*s == '-') {
        sign = -1;
        s++;
    }
    if (*s < '0' || *s > '9')
        die("malformed DIMACS input");
    long x = 0;
    while (*s >= '0' && *s <= '9') {
        x = 10 * x + (*s - '0');
        if (x > 0x7fffffffL)
            die("number out of range in DIMACS input");
        s++;
    }
    *pos = s;
    *out = (int)(sign * x);
    return 1;
}

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

int main(int argc, char **argv)
{
    double started = now();
    const char *log_path = NULL;
    const char *cnf_path = NULL;
    for (int i = 1; i < argc; i++) {
        if (strcmp(argv[i], "-l") == 0 && i + 1 < argc)
            log_path = argv[++i];
        else if (cnf_path == NULL)
            cnf_path = argv[i];
        else
            die("usage: refsolver [-l LOGFILE] FILE.cnf");
    }
    if (cnf_path == NULL)
        die("usage: refsolver [-l LOGFILE] FILE.cnf");

    long bytes;
    char *text = read_file(cnf_path, &bytes);
    char *pos = text;
    int declared_clauses = -1;
    /* Header and comments come first; clauses follow the "p" line. */
    for (;;) {
        while (*pos == ' ' || *pos == '\t' || *pos == '\r' || *pos == '\n')
            pos++;
        if (*pos == 'c') {
            while (*pos && *pos != '\n')
                pos++;
            continue;
        }
        if (*pos != 'p')
            die("missing DIMACS header");
        if (sscanf(pos, "p cnf %d %d", &nvars, &declared_clauses) != 2
            || nvars < 0 || declared_clauses < 0)
            die("malformed DIMACS header");
        while (*pos && *pos != '\n')
            pos++;
        break;
    }

    int nlits = 2 * nvars;
    watches = xrealloc(NULL, (size_t)nlits * sizeof(ivec));
    memset(watches, 0, (size_t)nlits * sizeof(ivec));
    lval = xrealloc(NULL, (size_t)nlits);
    memset(lval, 0, (size_t)nlits);
    level = xrealloc(NULL, (size_t)nvars * sizeof(int));
    reason = xrealloc(NULL, (size_t)nvars * sizeof(int));
    phase = xrealloc(NULL, (size_t)nvars);
    seen = xrealloc(NULL, (size_t)nvars);
    trail = xrealloc(NULL, (size_t)nvars * sizeof(int));
    activity = xrealloc(NULL, (size_t)nvars * sizeof(double));
    heap = xrealloc(NULL, (size_t)nvars * sizeof(int));
    heap_pos = xrealloc(NULL, (size_t)nvars * sizeof(int));
    level_stamp = xrealloc(NULL, ((size_t)nvars + 1) * sizeof(int));
    memset(seen, 0, (size_t)nvars);
    memset(level_stamp, 0, ((size_t)nvars + 1) * sizeof(int));
    for (int v = 0; v < nvars; v++) {
        reason[v] = -1;
        level[v] = 0;
        phase[v] = 1;
        activity[v] = 0.0;
        heap_pos[v] = -1;
    }
    for (int v = 0; v < nvars; v++)
        heap_insert(v);

    int ok = 1;
    int clauses_read = 0;
    ivec clause = {0};
    int lit;
    while (next_int(&pos, &lit)) {
        if (lit != 0) {
            int v = lit > 0 ? lit : -lit;
            if (v > nvars)
                die("literal exceeds the declared variable count");
            push(&clause, 2 * (v - 1) + (lit < 0));
            continue;
        }
        clauses_read++;
        qsort(clause.data, (size_t)clause.size, sizeof(int), cmp_int);
        int j = 0, tautology = 0;
        for (int i = 0; i < clause.size; i++) {
            if (j > 0 && clause.data[i] == clause.data[j - 1])
                continue;
            if (j > 0 && clause.data[i] == NEG(clause.data[j - 1]))
                tautology = 1;
            clause.data[j++] = clause.data[i];
        }
        clause.size = 0;
        if (tautology || !ok)
            continue;
        if (j == 0) {
            ok = 0;
        } else if (j == 1) {
            int l = clause.data[0];
            if (lval[l] == -1)
                ok = 0;
            else if (lval[l] == 0)
                enqueue(l, -1);
        } else {
            watch(new_clause(clause.data, j, 0));
        }
    }
    if (clause.size != 0)
        die("last clause is not terminated by 0");
    if (clauses_read != declared_clauses)
        die("clause count differs from the DIMACS header");
    free(text);

    max_learnts = clauses_read / 3.0 < 2000.0 ? 2000.0 : clauses_read / 3.0;
    int verdict = 20;
    if (ok && propagate() == -1) {
        for (long restart = 0;; restart++) {
            verdict = search(100 * luby(restart));
            if (verdict != 0)
                break;
        }
    }

    if (verdict == 10) {
        fputs("s SATISFIABLE\n", stdout);
        int col = 0;
        for (int v = 0; v < nvars; v++) {
            if (col == 0)
                fputs("v", stdout);
            printf(" %d", lval[2 * v] == 1 ? v + 1 : -(v + 1));
            if (++col == 16) {
                fputs("\n", stdout);
                col = 0;
            }
        }
        fputs(col ? " 0\n" : "v 0\n", stdout);
    } else {
        fputs("s UNSATISFIABLE\n", stdout);
    }
    if (fflush(stdout) != 0)
        die("cannot write output");

    if (log_path != NULL) {
        FILE *log = fopen(log_path, "a");
        if (log == NULL)
            die("cannot open log file");
        fprintf(log, "vars=%d clauses=%d bytes=%ld verdict=%s conflicts=%ld "
                "seconds=%.6f\n", nvars, clauses_read, bytes,
                verdict == 10 ? "sat" : "unsat", conflicts, now() - started);
        if (fclose(log) != 0)
            die("cannot write log file");
    }
    return verdict;
}
