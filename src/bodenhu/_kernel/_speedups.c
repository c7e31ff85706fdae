/*
 * Compiled kernel, written against the CPython C API: the scan, the
 * single-alpha decision, the realisation of candidate partitions and the
 * JSON writer.
 *
 * Twin of pure.py: the same entry points with the same arguments and the
 * same results, bit for bit.  The two scan entry points return the same
 * (violations, stats) in the same order; alpha_shapes, rate_orders and
 * realise_shapes return the same lists; realise returns the same witness;
 * dumps returns the same text.
 *
 *   scan_shapes          enumerates the set partitions itself, in the
 *                        canonical order of partitions.iter_partition_shapes
 *                        (the block of the lowest free slot first, its
 *                        co-members in ascending submask order), and scans
 *                        each one.  This is the whole exhaustive scan.
 *   scan_partition_batch scans shapes handed over by the caller.
 *
 * Every shape is a set partition of the n slots: the shape walk makes only
 * those, and read_partition refuses any other block input (the shapes of a
 * batch, the blocks of realise) with ValueError, as pure.py does.  A shape's
 * violation records start with its tuple of masks.
 *
 * scan_shapes and realise_shapes share one shape walk, enumerate_shapes,
 * which hands each shape to a per-shape callback.  Both scan entries feed
 * scan_shape.  Per shape, the degree assignments run as an odometer with
 * the rightmost digit fastest (next_degrees, shared with realise_shape),
 * and the cyclic orders as the lexicographic permutations of order[1:] with
 * order[0] == 0.  On a partition q is the row sums of P, and reversing a
 * cyclic order negates the multiset of its rotation values, so one r0 and
 * one prefix scan of a representative with order[1] < order[L-1] decide it
 * and its reverse (0, order[L-1], ..., order[1]) together; the records of
 * each degree assignment are then sorted back into lexicographic order.
 * The loops run on C integers; Python objects are made only for a violation
 * record and for the stats dict, which is built once at the end of a call.
 *
 * Each formula is written once, as in pure.py: cross_terms, pairing (one
 * entry of P, which place_degrees fills in), and rotations.  rate_orders
 * takes q as the row sums of P; scan_shape, as pure.py's scan does, takes
 * the closed form q[i] = delta(block i, one-vector), O(L) instead of O(L^2)
 * per candidate, and calls rotations only to record a violation.
 *
 * scan_shape rules out most candidates before it builds P, by a bound on
 * all their orders at once (the bounding step of branch and bound).  Every
 * rotation value of an order is r_0 of some order, a signed sum of the
 * P[i][j] over i < j, so it is at most B = sum_{i<j} |P[i][j]|.  A violating
 * order has all its rotation values in bar..B.  Two cyclically consecutive
 * ones differ by r_l - r_{l+1} = 2 q[order[l]], and every block comes up in
 * every order, so 2 |q[b]| <= B - bar for every block b.  So when
 * B - 2 max |q| < bar no order meets the margin: the candidate still counts
 * in candidates and classes, and its ordering walk is skipped.  The bound
 * is not slack: some violations at N = 11 and 12 meet it with equality, as
 * does every one-block violation, so B - 2 max |q| <= bar would drop them.
 * The argument needs q to be the row sums of P (so the values run round the
 * cycle), true of every shape since each partitions the n slots.
 * B costs O(L) per candidate: head[m] holds the sum over the pairs
 * i < j < m and depends only on digits 0..m-1 of the degree odometer, so
 * when digit k moves, head[k+1..L] are rebuilt from head[k], and a move of
 * the last digit alone adds the L - 1 terms |P[i][L-1]|.  At N = 10 the
 * walk runs for 0.29% of the candidates in small mode and 0.17% in
 * semismall mode (the one-sided B - 2 max q would keep 5.1% and 2.6%);
 * pure.py keeps the unbounded walk as the oracle.
 *
 * Capacity: at most 30 slots and 16 blocks per shape (the package cap is 14
 * slots), the same limits pure.py enforces.  For those sizes every pairing
 * and rotation value is far inside 64-bit range.
 *
 *   alpha_shapes         lists the partitions of n slots into the
 *                        admissible blocks at one weight vector.
 *   rate_orders          rates every cyclic ordering of one partition.
 *   realise              decides one candidate partition: a witness point
 *                        (nums, den) of W(n, s), or None.
 *   realise_shapes       realises every candidate of one (n, s): the shapes
 *                        of the shape walk, the degrees as an odometer with
 *                        the rightmost digit fastest (itertools.product
 *                        order).
 *   dumps                writes the text of json.dumps(payload, indent=2)
 *                        into one growing byte buffer; see below.
 *
 * The realisation runs pure.py's Fourier-Motzkin step for step in int64,
 * every sum and product checked with __builtin_*_overflow.  For N <= 9 the
 * largest row entry is 468 and the largest witness integer 161,280, far
 * inside that range; past it the entries raise OverflowError and
 * _kernel/__init__.py re-runs the call on pure.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* Must equal pure.KERNEL_API; _kernel/__init__.py refuses any other. */
#define KERNEL_API 6
#define MAX_SLOTS 30
#define MAX_BLOCKS 16
/* s = -sum(degs) <= sum(rank - 1) <= MAX_BLOCKS * MAX_SLOTS */
#define MAX_S (MAX_BLOCKS * MAX_SLOTS)
/* rate_orders' degree bound: every rotation value stays below 2^50 */
#define MAX_DEGREE (1LL << 32)

typedef long long i64;
typedef unsigned long long u64;

/* Per-call stats: counts indexed by s, plus the order in which each s was
 * first seen, so the dict keeps pure.py's insertion order. */
typedef struct {
    u64 candidates[MAX_S + 1];
    u64 classes[MAX_S + 1];
    int seen[MAX_S + 1];
    int nseen;
} Stats;

/* One shape to scan: blocks that partition the n slots.  key, the tuple of
 * masks that leads its violation records, is made on the shape's first
 * violation and released by the caller. */
typedef struct {
    u64 masks[MAX_BLOCKS];
    int L;
    PyObject *key;
} Shape;

/* What one call shares across its shapes. */
typedef struct {
    int n, s_filter, semismall;
    PyObject *violations;
    Stats stats;
} Scan;

/* Advance a[0..m-1] to the next lexicographic permutation; 0 after the last. */
static inline int
next_perm(i64 *a, int m)
{
    int i = m - 2, j;
    i64 t;
    while (i >= 0 && a[i] >= a[i + 1])
        i--;
    if (i < 0)
        return 0;
    j = m - 1;
    while (a[j] <= a[i])
        j--;
    t = a[i]; a[i] = a[j]; a[j] = t;
    for (i++, j = m - 1; i < j; i++, j--) {
        t = a[i]; a[i] = a[j]; a[j] = t;
    }
    return 1;
}

/* Advance the degree odometer degs, digit i over lo[i]..-1, rightmost digit
 * fastest.  Returns the lowest digit that moved (the digits after it were
 * reset), or -1 after the last assignment. */
static inline int
next_degrees(int L, i64 *degs, const i64 *lo)
{
    for (int k = L - 1; k >= 0; k--) {
        if (++degs[k] <= -1)
            return k;
        degs[k] = lo[k];
    }
    return -1;
}

/* A new list (as_list) or tuple of the values; NULL on error. */
static PyObject *
int_seq(const i64 *values, int len, int as_list)
{
    PyObject *seq = as_list ? PyList_New(len) : PyTuple_New(len);
    if (seq == NULL)
        return NULL;
    for (int i = 0; i < len; i++) {
        PyObject *v = PyLong_FromLongLong(values[i]);
        if (v == NULL) {
            Py_DECREF(seq);
            return NULL;
        }
        if (as_list)
            PyList_SET_ITEM(seq, i, v);
        else
            PyTuple_SET_ITEM(seq, i, v);
    }
    return seq;
}

/* The masks of sh as a new tuple; NULL on error. */
static PyObject *
masks_tuple(const Shape *sh)
{
    i64 masks[MAX_BLOCKS];
    for (int i = 0; i < sh->L; i++)
        masks[i] = (i64)sh->masks[i];
    return int_seq(masks, sh->L, 0);
}

/* Read the block masks of seq, a PySequence_Fast, into masks and check that
 * they partition the n slots, as pure._read_partition does: n in 0..30, and
 * masks nonempty, within the n slots, pairwise disjoint and covering every
 * slot.  Each mask written covers a new slot, so at most n are.  -1 with
 * ValueError set when they do not. */
static int
read_partition(int n, PyObject *seq, u64 *masks)
{
    u64 covered = 0;
    if (n < 0 || n > MAX_SLOTS) {
        PyErr_SetString(PyExc_ValueError, "kernel supports 0 to 30 slots");
        return -1;
    }
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(
            PySequence_Fast_GET_ITEM(seq, i), &overflow);
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (overflow || v <= 0 || (u64)v >> n || (covered & (u64)v)) {
            PyErr_SetString(PyExc_ValueError, "blocks must be nonempty, "
                            "pairwise disjoint and within n slots");
            return -1;
        }
        covered |= (u64)v;
        masks[i] = (u64)v;
    }
    if (covered != (1ULL << n) - 1) {
        PyErr_SetString(PyExc_ValueError, "blocks must cover every slot");
        return -1;
    }
    return 0;
}

/* X[i][j] = #{(a, b) in block i x block j : b > a} - #{b <= a}, slot a on
 * bit a: on disjoint blocks r_i r_j - 2 #{b < a}, delta's cross term. */
static inline void
cross_terms(int L, const u64 *sup, i64 X[][MAX_BLOCKS])
{
    for (int j = 0; j < L; j++) {
        const i64 rank = __builtin_popcountll(sup[j]);
        X[j][j] = 0;
        for (int i = 0; i < j; i++) {
            i64 x = 0;
            for (u64 m = sup[i]; m; m &= m - 1)
                x += 2 * __builtin_popcountll(sup[j] >> __builtin_ctzll(m) >> 1)
                     - rank;
            X[i][j] = x;
            X[j][i] = -x;
        }
    }
}

/* P[i][j] = 2(r_i d_j - r_j d_i) + X[i][j], one entry of the pairing matrix. */
static inline i64
pairing(const i64 *ranks, const i64 *degs, i64 X[][MAX_BLOCKS], int i, int j)
{
    return 2 * (ranks[i] * degs[j] - ranks[j] * degs[i]) + X[i][j];
}

/* The pairing matrix P. */
static inline void
place_degrees(int L, const i64 *ranks, const i64 *degs, i64 X[][MAX_BLOCKS],
              i64 p[][MAX_BLOCKS])
{
    for (int i = 0; i < L; i++)
        for (int j = 0; j < L; j++)
            p[i][j] = pairing(ranks, degs, X, i, j);
}

/* The L rotation values of order into rots: r_0 sums p over its ordered
 * pairs, r_{l+1} = r_l - 2 q[order[l]].  Returns the least. */
static inline i64
rotations(int L, i64 p[][MAX_BLOCKS], const i64 *q, const i64 *order,
          i64 *rots)
{
    i64 r = 0, least;
    for (int u = 0; u < L; u++)
        for (int v = u + 1; v < L; v++)
            r += p[order[u]][order[v]];
    least = r;
    for (int l = 0; l < L; l++) {
        rots[l] = r;
        if (r < least)
            least = r;
        r -= 2 * q[order[l]];
    }
    return least;
}

/* Append (key, degs, order, rots) to the violations; -1 on error. */
static int
record_violation(Scan *scan, Shape *sh, const i64 *degs, const i64 *order,
                 i64 p[][MAX_BLOCKS], const i64 *q)
{
    const int L = sh->L;
    i64 rots[MAX_BLOCKS];
    rotations(L, p, q, order, rots);
    if (sh->key == NULL && (sh->key = masks_tuple(sh)) == NULL)
        return -1;
    PyObject *d = int_seq(degs, L, 0), *o = int_seq(order, L, 0);
    PyObject *r = int_seq(rots, L, 0);
    PyObject *rec = (d && o && r) ? PyTuple_Pack(4, sh->key, d, o, r) : NULL;
    int rc = rec ? PyList_Append(scan->violations, rec) : -1;
    Py_XDECREF(d);
    Py_XDECREF(o);
    Py_XDECREF(r);
    Py_XDECREF(rec);
    return rc;
}

/* Sort the records appended from index start on.  They differ only in their
 * orders, so this puts them in lexicographic order; -1 on error. */
static int
sort_tail(PyObject *list, Py_ssize_t start)
{
    Py_ssize_t end = PyList_GET_SIZE(list);
    if (end - start < 2)
        return 0;
    PyObject *tail = PyList_GetSlice(list, start, end);
    int rc = (tail && PyList_Sort(tail) == 0)
                 ? PyList_SetSlice(list, start, end, tail) : -1;
    Py_XDECREF(tail);
    return rc;
}

/* Walk the cyclic orders of one candidate with pairing matrix p and append
 * its violations, in lexicographic order; -1 on error. */
static int
walk_orders(Scan *scan, Shape *sh, const i64 *degs, i64 p[][MAX_BLOCKS],
            const i64 *q, i64 bar)
{
    const int L = sh->L;
    i64 order[MAX_BLOCKS + 1], reverse[MAX_BLOCKS];
    const Py_ssize_t first = PyList_GET_SIZE(scan->violations);

    for (int i = 0; i <= L; i++)
        order[i] = i;
    reverse[0] = 0;
    do {
        /* from L = 3 on, each reverse pair is decided by its lower member;
         * below that an order is its own reverse */
        if (L >= 3 && order[1] > order[L - 1])
            continue;
        i64 r0 = 0, pre = 0, maxpre = 0, minpre = 0;
        for (int u = 0; u < L; u++) {
            const i64 *pu = p[order[u]];
            for (int v = u + 1; v < L; v++)
                r0 += pu[order[v]];
        }
        for (int l = 0; l < L - 1; l++) {
            pre += q[order[l]];
            if (pre > maxpre)
                maxpre = pre;
            if (pre < minpre)
                minpre = pre;
        }
        /* the least rotation value of the order, and of its reverse */
        if (r0 - 2 * maxpre >= bar
            && record_violation(scan, sh, degs, order, p, q) < 0)
            return -1;
        if (L >= 3 && 2 * minpre - r0 >= bar) {
            for (int u = 1; u < L; u++)
                reverse[u] = order[L - u];
            if (record_violation(scan, sh, degs, reverse, p, q) < 0)
                return -1;
        }
    } while (L > 1 && next_perm(order + 1, L - 1));
    return L >= 3 ? sort_tail(scan->violations, first) : 0;
}

/* Scan one shape; -1 on error. */
static int
scan_shape(Scan *scan, Shape *sh)
{
    const int n = scan->n, L = sh->L;
    i64 ranks[MAX_BLOCKS], T[MAX_BLOCKS], degs[MAX_BLOCKS], lo[MAX_BLOCKS];
    i64 q[MAX_BLOCKS], head[MAX_BLOCKS + 1];
    i64 X[MAX_BLOCKS][MAX_BLOCKS], p[MAX_BLOCKS][MAX_BLOCKS];
    /* a rotation meets the margin L - 1 (semismall: exceeds it) */
    const i64 bar = L - 1 + (scan->semismall ? 1 : 0);
    Stats *stats = &scan->stats;
    u64 nperm = 1;

    for (int i = 0; i < L; i++) {
        ranks[i] = __builtin_popcountll(sh->masks[i]);
        T[i] = 0;
        for (u64 m = sh->masks[i]; m; m &= m - 1)
            T[i] += n - 2 * __builtin_ctzll(m) - 1;
        /* degree range is -(rank - 1) .. -1: empty below rank 2 */
        if (ranks[i] < 2)
            return 0;
        lo[i] = degs[i] = -(ranks[i] - 1);
    }
    cross_terms(L, sh->masks, X);
    for (int i = 2; i < L; i++)
        nperm *= (u64)i;

    /* head[m] = sum of |P[i][j]| over i < j < m, so B = head[L]; it depends
     * on digits 0..m-1 of the degree odometer, and a moved digit k changes
     * head[k + 1] and every later one */
    head[0] = head[1] = 0;
    int moved = 0;
    do {
        i64 s_val = 0;
        for (int i = 0; i < L; i++)
            s_val -= degs[i];
        for (int m = moved > 1 ? moved : 1; m < L; m++) {
            i64 h = head[m];
            for (int i = 0; i < m; i++)
                h += llabs(pairing(ranks, degs, X, i, m));
            head[m + 1] = h;
        }
        if (scan->s_filter == 0 || s_val == scan->s_filter) {
            if (stats->candidates[s_val] == 0)
                stats->seen[stats->nseen++] = (int)s_val;
            stats->candidates[s_val] += 1;
            stats->classes[s_val] += nperm;

            /* q[i] = delta(block i, one-vector), in closed form */
            i64 qmax = 0;
            for (int i = 0; i < L; i++) {
                q[i] = -2 * ranks[i] * s_val - 2 * n * degs[i] + T[i];
                const i64 size = llabs(q[i]);
                if (size > qmax)
                    qmax = size;
            }
            /* below the bound B - 2 max |q| no order meets the margin */
            if (head[L] - 2 * qmax >= bar) {
                place_degrees(L, ranks, degs, X, p);
                if (walk_orders(scan, sh, degs, p, q, bar) < 0)
                    return -1;
            }
        }
    } while ((moved = next_degrees(L, degs, lo)) >= 0);
    return 0;
}

/* Scan shape sh and release its key; -1 on error. */
static int
scan_and_release(void *scan, Shape *sh)
{
    int rc = scan_shape(scan, sh);
    Py_CLEAR(sh->key);
    return rc;
}

/* A walk over the set partitions of the slots into blocks of size >= 2:
 * visit(ctx, sh) runs on every shape of at least min_len blocks and
 * returns -1 on error.  acc holds the blocks chosen so far; n <= 30 slots
 * give at most 15 of them. */
typedef struct {
    int min_len;
    int (*visit)(void *ctx, Shape *sh);
    void *ctx;
    u64 acc[MAX_BLOCKS];
} ShapeWalk;

/* Enumerate the completions of the blocks acc[0..depth-1] over the slots of
 * remaining, as partitions.iter_partition_shapes does, and visit each
 * complete shape with its masks sorted ascending; -1 on error. */
static int
enumerate_shapes(ShapeWalk *walk, u64 remaining, int depth)
{
    const u64 *acc = walk->acc;
    if (remaining == 0) {
        Shape sh = {.L = depth, .key = NULL};
        if (depth < walk->min_len)
            return 0;
        for (int i = 0; i < depth; i++) {
            int j = i;
            for (; j > 0 && sh.masks[j - 1] > acc[i]; j--)
                sh.masks[j] = sh.masks[j - 1];
            sh.masks[j] = acc[i];
        }
        return walk->visit(walk->ctx, &sh);
    }
    if (depth + __builtin_popcountll(remaining) / 2 < walk->min_len)
        return 0;
    const u64 low = remaining & -remaining, rest = remaining ^ low;
    if (rest == 0)
        return 0; /* a lone slot cannot form a block of size >= 2 */
    for (u64 s = rest & -rest;; s = (s - rest) & rest) {
        const u64 left = rest ^ s;
        if (__builtin_popcountll(left) != 1) {
            /* a choice of the first two blocks is the unit of work between
             * Ctrl-C checks: below the first block {0, 1} alone lies the
             * whole scan of n - 2 slots */
            if (depth <= 1 && PyErr_CheckSignals() < 0)
                return -1;
            walk->acc[depth] = low | s;
            if (enumerate_shapes(walk, left, depth + 1) < 0)
                return -1;
        }
        if (s == rest)
            return 0;
    }
}

static PyObject *
stats_dict(const Stats *stats)
{
    PyObject *dict = PyDict_New();
    if (dict == NULL)
        return NULL;
    for (int i = 0; i < stats->nseen; i++) {
        int s = stats->seen[i];
        PyObject *key = PyLong_FromLong(s);
        PyObject *val = Py_BuildValue("[KK]", stats->candidates[s],
                                      stats->classes[s]);
        int rc = (key && val) ? PyDict_SetItem(dict, key, val) : -1;
        Py_XDECREF(key);
        Py_XDECREF(val);
        if (rc < 0) {
            Py_DECREF(dict);
            return NULL;
        }
    }
    return dict;
}

/* Set up the state of one call; -1 on error. */
static int
scan_init(Scan *scan, int n, int s_filter, int semismall)
{
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "n must be non-negative");
        return -1;
    }
    if (n > MAX_SLOTS) {
        PyErr_SetString(PyExc_ValueError, "kernel supports at most 30 slots");
        return -1;
    }
    memset(scan, 0, sizeof(*scan));
    scan->n = n;
    scan->s_filter = s_filter;
    scan->semismall = semismall;
    scan->violations = PyList_New(0);
    return scan->violations ? 0 : -1;
}

/* (violations, stats) if ok, else NULL; releases the violations list. */
static PyObject *
scan_result(Scan *scan, int ok)
{
    PyObject *dict = ok ? stats_dict(&scan->stats) : NULL;
    PyObject *result = dict ? PyTuple_Pack(2, scan->violations, dict) : NULL;
    Py_XDECREF(dict);
    Py_DECREF(scan->violations);
    return result;
}

PyDoc_STRVAR(scan_shapes_doc,
"scan_shapes(n, s_filter, semismall, min_len)\n"
"--\n\n"
"Enumerate every partition shape of n slots and scan it for\n"
"rotation-criterion violations.\n\n"
"Same contract as pure.scan_shapes; see that function's docstring.");

static PyObject *
scan_shapes(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "s_filter", "semismall", "min_len", NULL};
    int n, s_filter, semismall, min_len;
    Scan scan;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iipi:scan_shapes", kwlist,
                                     &n, &s_filter, &semismall, &min_len))
        return NULL;
    if (scan_init(&scan, n, s_filter, semismall) < 0)
        return NULL;
    ShapeWalk walk = {.min_len = min_len, .visit = scan_and_release,
                      .ctx = &scan};
    int ok = n < 2 || enumerate_shapes(&walk, (1ULL << n) - 1, 0) == 0;
    return scan_result(&scan, ok);
}

PyDoc_STRVAR(scan_batch_doc,
"scan_partition_batch(n, s_filter, semismall, min_len, masks_list)\n"
"--\n\n"
"Scan a batch of partition shapes for rotation-criterion violations.\n\n"
"Same contract as pure.scan_partition_batch; see that function's docstring.");

static PyObject *
scan_partition_batch(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "s_filter", "semismall", "min_len",
                             "masks_list", NULL};
    int n, s_filter, semismall, min_len, ok = 0;
    PyObject *masks_arg, *shapes;
    Scan scan;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iipiO:scan_partition_batch",
                                     kwlist, &n, &s_filter, &semismall,
                                     &min_len, &masks_arg))
        return NULL;
    if (scan_init(&scan, n, s_filter, semismall) < 0)
        return NULL;
    shapes = PySequence_Fast(masks_arg, "masks_list must be iterable");
    if (shapes == NULL)
        return scan_result(&scan, 0);

    Py_ssize_t nshapes = PySequence_Fast_GET_SIZE(shapes);
    for (Py_ssize_t pi = 0; pi < nshapes; pi++) {
        Shape sh = {.key = NULL};
        PyObject *shape = PySequence_Fast(PySequence_Fast_GET_ITEM(shapes, pi),
                                          "each shape must be iterable");
        if (shape == NULL)
            goto done;
        const Py_ssize_t L = PySequence_Fast_GET_SIZE(shape);
        int rc = 0;
        if (L >= min_len && L > MAX_BLOCKS) {
            PyErr_SetString(PyExc_ValueError,
                            "kernel supports at most 16 blocks");
            rc = -1;
        } else if (L >= min_len) {
            sh.L = (int)L;
            rc = read_partition(n, shape, sh.masks);
            if (rc == 0)
                rc = scan_and_release(&scan, &sh);
        }
        Py_DECREF(shape);
        if (rc < 0)
            goto done;
    }
    ok = 1;
done:
    Py_DECREF(shapes);
    return scan_result(&scan, ok);
}

/*
 * Single-alpha entry points.  alpha_shapes keeps the caller's int objects:
 * each emitted shape holds the very masks it was given, as pure.py's does.
 * Its per-slot block lists are one array of the input's size, grouped by
 * lowest slot with a counting sort that keeps the input order.
 */

typedef struct {
    int min_len;
    const u64 *masks;            /* the blocks, grouped by lowest slot */
    PyObject **ints;             /* the caller's int for each entry */
    Py_ssize_t start[MAX_SLOTS + 1]; /* slot i: start[i] .. start[i+1]-1 */
    Py_ssize_t acc[MAX_BLOCKS];  /* chosen blocks, as indices into masks */
    unsigned long visits;
    PyObject *shapes;
} ShapeSearch;

/* Append the chosen blocks as a tuple of masks, ascending; -1 on error. */
static int
emit_shape(ShapeSearch *ss, int depth)
{
    Py_ssize_t idx[MAX_BLOCKS];
    for (int i = 0; i < depth; i++) {
        int j = i;
        for (; j > 0 && ss->masks[idx[j - 1]] > ss->masks[ss->acc[i]]; j--)
            idx[j] = idx[j - 1];
        idx[j] = ss->acc[i];
    }
    PyObject *shape = PyTuple_New(depth);
    if (shape == NULL)
        return -1;
    for (int i = 0; i < depth; i++) {
        Py_INCREF(ss->ints[idx[i]]);
        PyTuple_SET_ITEM(shape, i, ss->ints[idx[i]]);
    }
    int rc = PyList_Append(ss->shapes, shape);
    Py_DECREF(shape);
    return rc;
}

/* Cover the lowest slot of remaining with each block of that slot that
 * fits.  Blocks have rank >= 2 within 30 slots, so depth stays below 16.
 * -1 on error. */
static int
search_shapes(ShapeSearch *ss, u64 remaining, int depth)
{
    if (remaining == 0)
        return depth >= ss->min_len ? emit_shape(ss, depth) : 0;
    if (depth + __builtin_popcountll(remaining) / 2 < ss->min_len)
        return 0;
    /* a search can run long without emitting a shape */
    if ((++ss->visits & 0xfff) == 0 && PyErr_CheckSignals() < 0)
        return -1;
    const int slot = __builtin_ctzll(remaining);
    for (Py_ssize_t i = ss->start[slot]; i < ss->start[slot + 1]; i++) {
        const u64 m = ss->masks[i];
        if ((m & remaining) == m) {
            ss->acc[depth] = i;
            if (search_shapes(ss, remaining ^ m, depth + 1) < 0)
                return -1;
        }
    }
    return 0;
}

PyDoc_STRVAR(alpha_shapes_doc,
"alpha_shapes(n, masks, min_len)\n"
"--\n\n"
"The partitions of n slots into the given admissible blocks, as sorted\n"
"mask tuples.\n\n"
"Same contract as pure.alpha_shapes; see that function's docstring.");

static PyObject *
alpha_shapes(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "masks", "min_len", NULL};
    int n, min_len;
    PyObject *masks_arg, *given, *result = NULL;
    Py_ssize_t count[MAX_SLOTS + 1] = {0}, fill[MAX_SLOTS];
    ShapeSearch ss;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOi:alpha_shapes", kwlist,
                                     &n, &masks_arg, &min_len))
        return NULL;
    if (n < 0 || n > MAX_SLOTS) {
        PyErr_SetString(PyExc_ValueError, "kernel supports 0 to 30 slots");
        return NULL;
    }
    given = PySequence_Fast(masks_arg, "masks must be iterable");
    if (given == NULL)
        return NULL;
    const Py_ssize_t k = PySequence_Fast_GET_SIZE(given);
    u64 *values = PyMem_Malloc((k + 1) * sizeof(u64));
    u64 *grouped = PyMem_Malloc((k + 1) * sizeof(u64));
    PyObject **ints = PyMem_Malloc((k + 1) * sizeof(PyObject *));
    if (values == NULL || grouped == NULL || ints == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < k; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(given, i);
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(item, &overflow);
        if (v == -1 && PyErr_Occurred())
            goto done;
        if (overflow || v <= 0 || (u64)v >> n
            || __builtin_popcountll((u64)v) < 2) {
            PyErr_Format(PyExc_ValueError,
                         "mask %R is not a block of rank >= 2 within %d slots",
                         item, n);
            goto done;
        }
        values[i] = (u64)v;
        count[__builtin_ctzll((u64)v) + 1]++;
    }
    memset(&ss, 0, sizeof(ss));
    for (int slot = 0; slot < n; slot++) {
        ss.start[slot + 1] = ss.start[slot] + count[slot + 1];
        fill[slot] = ss.start[slot];
    }
    /* the borrowed ints stay alive: given holds them until the end */
    for (Py_ssize_t i = 0; i < k; i++) {
        Py_ssize_t at = fill[__builtin_ctzll(values[i])]++;
        grouped[at] = values[i];
        ints[at] = PySequence_Fast_GET_ITEM(given, i);
    }
    ss.min_len = min_len;
    ss.masks = grouped;
    ss.ints = ints;
    ss.shapes = PyList_New(0);
    if (ss.shapes == NULL)
        goto done;
    if (n >= 2 && search_shapes(&ss, (1ULL << n) - 1, 0) < 0)
        Py_CLEAR(ss.shapes);
    result = ss.shapes;
done:
    PyMem_Free(values);
    PyMem_Free(grouped);
    PyMem_Free(ints);
    Py_DECREF(given);
    return result;
}

/* Interned keys of rate_orders' dicts, made when the module is created. */
static PyObject *key_order, *key_rotations, *key_violates;

/* {"order": [...], "rotation_deltas": [...], "violates": flag}, or NULL. */
static PyObject *
rated_order(const i64 *order, const i64 *rots, int L, int violates)
{
    PyObject *o = int_seq(order, L, 1), *r = int_seq(rots, L, 1);
    PyObject *dict = (o && r) ? PyDict_New() : NULL;
    if (dict != NULL
        && (PyDict_SetItem(dict, key_order, o) < 0
            || PyDict_SetItem(dict, key_rotations, r) < 0
            || PyDict_SetItem(dict, key_violates,
                              violates ? Py_True : Py_False) < 0))
        Py_CLEAR(dict);
    Py_XDECREF(o);
    Py_XDECREF(r);
    return dict;
}

/* Read item as an integer in lo..hi into *out; -1 with an exception set
 * (ValueError naming what when it is out of range). */
static int
bounded_int(PyObject *item, i64 lo, i64 hi, const char *what, i64 *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(item, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v < lo || v > hi) {
        PyErr_Format(PyExc_ValueError, what, item);
        return -1;
    }
    *out = v;
    return 0;
}

PyDoc_STRVAR(rate_orders_doc,
"rate_orders(masks, degs, semismall)\n"
"--\n\n"
"Every cyclic ordering of one partition, rated by its rotation values.\n\n"
"Same contract as pure.rate_orders; see that function's docstring.");

static PyObject *
rate_orders(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"masks", "degs", "semismall", NULL};
    PyObject *masks_arg, *degs_arg, *masks, *degs = NULL;
    PyObject *orderings = NULL, *result = NULL;
    int semismall;
    u64 sup[MAX_BLOCKS];
    i64 mask, rank[MAX_BLOCKS], deg[MAX_BLOCKS], q[MAX_BLOCKS];
    i64 X[MAX_BLOCKS][MAX_BLOCKS], pair[MAX_BLOCKS][MAX_BLOCKS];
    i64 order[MAX_BLOCKS], rots[MAX_BLOCKS];

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOp:rate_orders", kwlist,
                                     &masks_arg, &degs_arg, &semismall))
        return NULL;
    masks = PySequence_Fast(masks_arg, "masks must be iterable");
    if (masks == NULL)
        return NULL;
    degs = PySequence_Fast(degs_arg, "degs must be iterable");
    if (degs == NULL)
        goto done;
    const Py_ssize_t L = PySequence_Fast_GET_SIZE(masks);
    if (L < 2) {
        PyErr_SetString(PyExc_ValueError,
                        "rotation values need at least two blocks");
        goto done;
    }
    if (L > MAX_BLOCKS) {
        PyErr_SetString(PyExc_ValueError, "kernel supports at most 16 blocks");
        goto done;
    }
    if (PySequence_Fast_GET_SIZE(degs) != L) {
        PyErr_SetString(PyExc_ValueError,
                        "masks and degrees differ in length");
        goto done;
    }
    for (Py_ssize_t i = 0; i < L; i++) {
        if (bounded_int(PySequence_Fast_GET_ITEM(masks, i), 1,
                        (1LL << MAX_SLOTS) - 1,
                        "mask %R outside 1..2^30 - 1", &mask) < 0
            || bounded_int(PySequence_Fast_GET_ITEM(degs, i), -MAX_DEGREE,
                           MAX_DEGREE, "degree %R outside -2^32..2^32",
                           &deg[i]) < 0)
            goto done;
        sup[i] = (u64)mask;
        rank[i] = __builtin_popcountll(sup[i]);
    }
    cross_terms((int)L, sup, X);
    place_degrees((int)L, rank, deg, X, pair);
    for (int i = 0; i < L; i++) {
        q[i] = 0;
        for (int j = 0; j < L; j++)
            q[i] += pair[i][j];
    }

    Py_ssize_t nperm = 1, first = -1, idx = 0;
    for (int i = 2; i < L; i++)
        nperm *= i;
    orderings = PyList_New(nperm);
    if (orderings == NULL)
        goto done;
    const i64 bar = semismall ? L : L - 1;
    for (int i = 0; i < L; i++)
        order[i] = i;
    do {
        const i64 least = rotations((int)L, pair, q, order, rots);
        if (least >= bar && first < 0)
            first = idx;
        PyObject *rated = rated_order(order, rots, (int)L, least >= bar);
        if (rated == NULL)
            goto done;
        PyList_SET_ITEM(orderings, idx, rated);
        if ((++idx & 0x3ff) == 0 && PyErr_CheckSignals() < 0)
            goto done;
    } while (next_perm(order + 1, (int)L - 1));
    result = Py_BuildValue("(On)", orderings, first);
done:
    Py_XDECREF(orderings);
    Py_XDECREF(degs);
    Py_DECREF(masks);
    return result;
}

/*
 * Partition realisation, step for step as pure.py's realise and
 * _solve_strict, so the witnesses are the same integers: the wall gate, the
 * pivot on each block's lowest slot, the chain rows in order, each divided
 * by the gcd of its coefficients and bound, deduplicated keeping the
 * tightest bound, Fourier-Motzkin eliminating the lowest-index variable of
 * least pos * neg, and back-substitution of midpoints on integers over a
 * common denominator.  Every product and sum is checked; one that leaves
 * int64 raises OverflowError, on which _kernel/__init__.py re-runs the call
 * on pure.py.
 */

enum { FM_OK = 0, FM_EMPTY = 1, FM_OVERFLOW = -1, FM_NOMEM = -2,
       FM_BROKEN = -3 };

/* Return FM_OVERFLOW from the enclosing function when cond holds. */
#define CHECKED(cond)                                                       \
    do {                                                                    \
        if (cond)                                                           \
            return FM_OVERFLOW;                                             \
    } while (0)
#define ADD(a, b, out) __builtin_add_overflow((a), (b), (out))
#define SUB(a, b, out) __builtin_sub_overflow((a), (b), (out))
#define MUL(a, b, out) __builtin_mul_overflow((a), (b), (out))

/* Strict rows c.y < b over k variables, in insertion order, each stored as
 * its k coefficients followed by b; size counts int64 entries. */
typedef struct {
    i64 *data;
    Py_ssize_t len, size;
} Rows;

/* The Fourier-Motzkin workspace of one call, reused by its candidates:
 * rows[0] holds the chain rows and rows[t + 1] those left after the t-th
 * elimination, which removed variable elim[t]. */
typedef struct {
    Rows rows[MAX_SLOTS + 1];
    int elim[MAX_SLOTS];
} FM;

static void
fm_free(FM *fm)
{
    for (int t = 0; t <= MAX_SLOTS; t++)
        PyMem_Free(fm->rows[t].data);
}

/* Set the exception for a failed FM_ code; returns -1. */
static int
fm_raise(int rc)
{
    if (rc == FM_NOMEM)
        PyErr_NoMemory();
    else if (rc == FM_OVERFLOW)
        PyErr_SetString(PyExc_OverflowError,
                        "realisation leaves 64-bit integers");
    else
        PyErr_SetString(PyExc_AssertionError,
                        "Fourier-Motzkin interval must be nonempty");
    return -1;
}

static inline u64
gcd_u64(u64 a, u64 b)
{
    while (b) {
        const u64 r = a % b;
        a = b;
        b = r;
    }
    return a;
}

static inline u64
abs_u64(i64 x)
{
    return x < 0 ? -(u64)x : (u64)x;
}

/* Append a copy of row (stride entries, not inside r) to r. */
static int
rows_push(Rows *r, const i64 *row, int stride)
{
    if ((r->len + 1) * stride > r->size) {
        Py_ssize_t size = r->size ? 2 * r->size : 64 * (MAX_SLOTS + 1);
        while (size < (r->len + 1) * stride)
            size *= 2;
        i64 *data = PyMem_Realloc(r->data, size * sizeof(i64));
        if (data == NULL)
            return FM_NOMEM;
        r->data = data;
        r->size = size;
    }
    memcpy(r->data + r->len++ * stride, row, stride * sizeof(i64));
    return FM_OK;
}

/* Divide row (k coefficients and b) by the gcd of its entries, then add it
 * to r unless a row with the same coefficients is there, which keeps the
 * smaller b.  A zero row 0 < b is dropped, or FM_EMPTY when b <= 0. */
static int
insert_row(Rows *r, i64 *row, int k)
{
    u64 g = 0;
    int zero = 1;
    for (int v = 0; v <= k; v++)
        g = gcd_u64(g, abs_u64(row[v]));
    CHECKED(g > (u64)INT64_MAX);
    for (int v = 0; v <= k; v++) {
        if (g > 1)
            row[v] /= (i64)g;
        if (v < k && row[v])
            zero = 0;
    }
    if (zero)
        return row[k] <= 0 ? FM_EMPTY : FM_OK;
    for (Py_ssize_t i = 0; i < r->len; i++) {
        i64 *old = r->data + i * (k + 1);
        if (memcmp(old, row, k * sizeof(i64)) == 0) {
            if (row[k] < old[k])
                old[k] = row[k];
            return FM_OK;
        }
    }
    return rows_push(r, row, k + 1);
}

/* *less = a b < c d. */
static inline int
products_less(i64 a, i64 b, i64 c, i64 d, int *less)
{
    i64 x, y;
    CHECKED(MUL(a, b, &x) || MUL(c, d, &y));
    *less = x < y;
    return FM_OK;
}

/* Eliminate the variables of fm->rows[0] until none has a nonzero
 * coefficient, then back-substitute: values[0..k-1] over *den, or
 * FM_EMPTY. */
static int
fm_solve(FM *fm, int k, i64 *values, i64 *den)
{
    const int stride = k + 1;
    int steps = 0, rc;
    u64 done = 0;
    i64 row[MAX_SLOTS + 1];
    for (;;) {
        const Rows *rows = &fm->rows[steps];
        int j = -1;
        i64 best = 0;
        for (int v = 0; v < k; v++) {
            i64 pos = 0, neg = 0;
            if (done >> v & 1)
                continue;
            for (Py_ssize_t i = 0; i < rows->len; i++) {
                const i64 c = rows->data[i * stride + v];
                pos += c > 0;
                neg += c < 0;
            }
            if ((pos || neg) && (j < 0 || pos * neg < best)) {
                j = v;
                best = pos * neg;
            }
        }
        if (j < 0)
            break;
        Rows *keep = &fm->rows[steps + 1];
        keep->len = 0;
        for (Py_ssize_t i = 0; i < rows->len; i++)
            if (rows->data[i * stride + j] == 0
                && (rc = rows_push(keep, rows->data + i * stride, stride)))
                return rc;
        for (Py_ssize_t u = 0; u < rows->len; u++) {
            const i64 *cu = rows->data + u * stride;
            if (cu[j] <= 0)
                continue;
            for (Py_ssize_t l = 0; l < rows->len; l++) {
                const i64 *cl = rows->data + l * stride;
                i64 m, x, y;
                if (cl[j] >= 0)
                    continue;
                CHECKED(SUB((i64)0, cl[j], &m));
                for (int v = 0; v <= k; v++)
                    CHECKED(MUL(m, cu[v], &x) || MUL(cu[j], cl[v], &y)
                            || ADD(x, y, &row[v]));
                if ((rc = insert_row(keep, row, k)) != FM_OK)
                    return rc;
            }
        }
        fm->elim[steps++] = j;
        done |= 1ULL << j;
    }

    /* A row c.y < b bounds y_j by (b den - c.values) / (c_j den): below
     * when c_j < 0, above when c_j > 0.  values[j] is still 0. */
    *den = 1;
    for (int v = 0; v < k; v++)
        values[v] = 0;
    while (steps-- > 0) {
        const int j = fm->elim[steps];
        const Rows *rows = &fm->rows[steps];
        int has_lo = 0, has_hi = 0, less;
        i64 lo_p = 0, lo_q = 1, hi_p = 0, hi_q = 1, p, q, g, scale;
        for (Py_ssize_t i = 0; i < rows->len; i++) {
            const i64 *c = rows->data + i * stride;
            i64 dot = 0, bd, x;
            if (c[j] == 0)
                continue;
            for (int v = 0; v < k; v++)
                CHECKED(MUL(c[v], values[v], &x) || ADD(dot, x, &dot));
            CHECKED(MUL(c[k], *den, &bd));
            if (c[j] < 0) {
                CHECKED(SUB((i64)0, c[j], &x) || SUB(dot, bd, &p)
                        || MUL(x, *den, &q));
                if (has_lo && (rc = products_less(lo_p, q, p, lo_q, &less)))
                    return rc;
                if (!has_lo || less) {
                    lo_p = p;
                    lo_q = q;
                    has_lo = 1;
                }
            } else {
                CHECKED(SUB(bd, dot, &p) || MUL(c[j], *den, &q));
                if (has_hi && (rc = products_less(p, hi_q, hi_p, q, &less)))
                    return rc;
                if (!has_hi || less) {
                    hi_p = p;
                    hi_q = q;
                    has_hi = 1;
                }
            }
        }
        if (has_lo && has_hi) {
            i64 x, y;
            if ((rc = products_less(lo_p, hi_q, hi_p, lo_q, &less)))
                return rc;
            if (!less)
                return FM_BROKEN;
            CHECKED(MUL(lo_p, hi_q, &x) || MUL(hi_p, lo_q, &y)
                    || ADD(x, y, &p) || MUL(lo_q, hi_q, &x)
                    || MUL((i64)2, x, &q));
        } else if (has_hi) {
            CHECKED(SUB(hi_p, hi_q, &p));
            q = hi_q;
        } else if (has_lo) {
            CHECKED(ADD(lo_p, lo_q, &p));
            q = lo_q;
        } else {
            p = 0;
            q = 1;
        }
        /* q > 0, so the gcd fits */
        g = (i64)gcd_u64(abs_u64(p), (u64)q);
        p /= g;
        q /= g;
        scale = q / (i64)gcd_u64((u64)*den, (u64)q);
        if (scale > 1) {
            for (int v = 0; v < k; v++)
                CHECKED(MUL(values[v], scale, &values[v]));
            CHECKED(MUL(*den, scale, den));
        }
        CHECKED(MUL(p, *den / q, &values[j]));
    }
    return FM_OK;
}

/* pure.wall_meets for a proper mask: *meets says whether the wall
 * sum_{mask} x = -d_check meets the open W(n, s). */
static int
wall_meets(int n, int s, u64 mask, i64 d_check, int *meets)
{
    i64 t, f[MAX_SLOTS + 1] = {0};
    CHECKED(SUB((i64)0, d_check, &t));
    for (int j = 1; j <= n; j++)
        f[j] = f[j - 1] + (i64)(mask >> (n - j) & 1);
    int below = f[s] < t, above = f[s] > t;
    *meets = 1;
    for (int i = 0; i < s; i++)
        for (int j = s + 1; j <= n; j++) {
            const i64 value = f[i] * (j - s) + f[j] * (s - i);
            i64 scale;
            CHECKED(MUL(t, (i64)(j - i), &scale));
            below |= value < scale;
            above |= value > scale;
            if (below && above)
                return FM_OK;
        }
    *meets = 0;
    return FM_OK;
}

/* Decide the blocks masks[0..L-1] with degrees degs, nonempty, disjoint
 * and covering the n slots: FM_OK with the witness nums[0..n-1] over *den,
 * or FM_EMPTY when no point of W(n, s) realises them. */
static int
realise_blocks(FM *fm, int n, int L, const u64 *masks, const i64 *degs,
               i64 *nums, i64 *den)
{
    i64 s = 0, deg_of[MAX_SLOTS], values[MAX_SLOTS], row[MAX_SLOTS + 1];
    u64 pivots = 0, rest[MAX_SLOTS];
    int index_of[MAX_SLOTS], k = 0, meets, rc;

    for (int i = 0; i < L; i++)
        CHECKED(SUB(s, degs[i], &s));
    if (s <= 0 || s >= n)
        return FM_EMPTY;
    for (int i = 0; L > 1 && i < L; i++) {
        if ((rc = wall_meets(n, (int)s, masks[i], degs[i], &meets)))
            return rc;
        if (!meets)
            return FM_EMPTY;
    }
    /* pivot p of a block: x_p = -d_check - sum of x over rest[p] */
    for (int i = 0; i < L; i++) {
        const int p = __builtin_ctzll(masks[i]);
        pivots |= 1ULL << p;
        deg_of[p] = degs[i];
        rest[p] = masks[i] & (masks[i] - 1);
    }
    for (int v = 0; v < n; v++)
        index_of[v] = pivots >> v & 1 ? -1 : k++;

    /* the chain -x_1 < 0, x_i - x_{i+1} < 0, x_n < 1: row r has +x_r
     * (slot r - 1) unless r = 0 and -x_{r+1} (slot r) unless r = n */
    fm->rows[0].len = 0;
    for (int r = 0; r <= n; r++) {
        memset(row, 0, (k + 1) * sizeof(i64));
        row[k] = r == n;
        for (int term = 0; term < 2; term++) {
            const int v = r - 1 + term, a = term ? -1 : 1;
            if (v < 0 || v >= n)
                continue;
            if (index_of[v] >= 0) {
                row[index_of[v]] += a;
                continue;
            }
            CHECKED(a > 0 ? ADD(row[k], deg_of[v], &row[k])
                          : SUB(row[k], deg_of[v], &row[k]));
            for (u64 m = rest[v]; m; m &= m - 1)
                row[index_of[__builtin_ctzll(m)]] -= a;
        }
        if ((rc = insert_row(&fm->rows[0], row, k)) != FM_OK)
            return rc;
    }
    if ((rc = fm_solve(fm, k, values, den)) != FM_OK)
        return rc;

    for (int v = 0; v < n; v++)
        if (index_of[v] >= 0)
            nums[v] = values[index_of[v]];
    for (int p = 0; p < n; p++) {
        if (index_of[p] >= 0)
            continue;
        CHECKED(MUL(deg_of[p], *den, &nums[p])
                || SUB((i64)0, nums[p], &nums[p]));
        for (u64 m = rest[p]; m; m &= m - 1)
            CHECKED(SUB(nums[p], nums[__builtin_ctzll(m)], &nums[p]));
    }
    return FM_OK;
}

/* (nums, den) as a new tuple, or NULL. */
static PyObject *
witness(const i64 *nums, int n, i64 den)
{
    PyObject *t = int_seq(nums, n, 0), *d = PyLong_FromLongLong(den);
    PyObject *pair = (t && d) ? PyTuple_Pack(2, t, d) : NULL;
    Py_XDECREF(t);
    Py_XDECREF(d);
    return pair;
}

PyDoc_STRVAR(realise_doc,
"realise(n, masks, degs)\n"
"--\n\n"
"(nums, den), a point of W(n, s) realising the blocks, or None.\n\n"
"Same contract as pure.realise; see that function's docstring.  Raises\n"
"OverflowError where 64-bit integers do not suffice.");

static PyObject *
realise(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "masks", "degs", NULL};
    PyObject *masks_arg, *degs_arg, *masks, *degs = NULL, *result = NULL;
    u64 block[MAX_SLOTS];
    i64 deg[MAX_SLOTS], nums[MAX_SLOTS], den;
    int n;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOO:realise", kwlist, &n,
                                     &masks_arg, &degs_arg))
        return NULL;
    masks = PySequence_Fast(masks_arg, "masks must be iterable");
    if (masks == NULL)
        return NULL;
    if (read_partition(n, masks, block) < 0)
        goto done;
    degs = PySequence_Fast(degs_arg, "degs must be iterable");
    if (degs == NULL)
        goto done;
    const Py_ssize_t L = PySequence_Fast_GET_SIZE(masks);
    if (PySequence_Fast_GET_SIZE(degs) != L) {
        PyErr_SetString(PyExc_ValueError, "masks and degrees differ in length");
        goto done;
    }
    for (Py_ssize_t i = 0; i < L; i++) {
        deg[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(degs, i));
        if (deg[i] == -1 && PyErr_Occurred())
            goto done;
    }
    FM fm;
    memset(&fm, 0, sizeof(fm));
    const int rc = realise_blocks(&fm, n, (int)L, block, deg, nums, &den);
    fm_free(&fm);
    if (rc == FM_OK)
        result = witness(nums, n, den);
    else if (rc == FM_EMPTY)
        result = Py_NewRef(Py_None);
    else
        fm_raise(rc);
done:
    Py_XDECREF(degs);
    Py_DECREF(masks);
    return result;
}

/* What realise_shapes shares across its shapes. */
typedef struct {
    int n, s;
    FM fm;
    PyObject *found;
} Realisation;

/* Append (masks, degs, nums, den) to found; -1 on error. */
static int
record_found(PyObject *found, const Shape *sh, const i64 *degs,
             const i64 *nums, int n, i64 den)
{
    PyObject *m = masks_tuple(sh), *d = int_seq(degs, sh->L, 0);
    PyObject *x = int_seq(nums, n, 0), *q = PyLong_FromLongLong(den);
    PyObject *rec = (m && d && x && q) ? PyTuple_Pack(4, m, d, x, q) : NULL;
    int rc = rec ? PyList_Append(found, rec) : -1;
    Py_XDECREF(m);
    Py_XDECREF(d);
    Py_XDECREF(x);
    Py_XDECREF(q);
    Py_XDECREF(rec);
    return rc;
}

/* Realise every degree assignment of shape sh that sums to -s, the
 * degrees -(r_i - 1)..-1 as an odometer, rightmost digit fastest; -1 on
 * error. */
static int
realise_shape(void *ctx, Shape *sh)
{
    Realisation *re = ctx;
    const int L = sh->L;
    i64 degs[MAX_BLOCKS], lo[MAX_BLOCKS], nums[MAX_SLOTS], den, most = 0;
    for (int i = 0; i < L; i++) {
        lo[i] = degs[i] = 1 - __builtin_popcountll(sh->masks[i]);
        most -= lo[i];
    }
    if (re->s < L || re->s > most)
        return 0; /* no assignment sums to -s */
    do {
        i64 s = 0;
        for (int i = 0; i < L; i++)
            s -= degs[i];
        if (s == re->s) {
            const int rc = realise_blocks(&re->fm, re->n, L, sh->masks, degs,
                                          nums, &den);
            if (rc < 0)
                return fm_raise(rc);
            if (rc == FM_OK
                && record_found(re->found, sh, degs, nums, re->n, den) < 0)
                return -1;
        }
    } while (next_degrees(L, degs, lo) >= 0);
    return 0;
}

PyDoc_STRVAR(realise_shapes_doc,
"realise_shapes(n, s, min_len)\n"
"--\n\n"
"Every candidate partition of n slots with total degree -s that some\n"
"point of W(n, s) realises, as (masks, degs, nums, den).\n\n"
"Same contract as pure.realise_shapes; see that function's docstring.\n"
"Raises OverflowError where 64-bit integers do not suffice.");

static PyObject *
realise_shapes(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "s", "min_len", NULL};
    int n, s, min_len;
    Realisation re;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iii:realise_shapes", kwlist,
                                     &n, &s, &min_len))
        return NULL;
    if (n < 0 || n > MAX_SLOTS) {
        PyErr_SetString(PyExc_ValueError, "kernel supports 0 to 30 slots");
        return NULL;
    }
    memset(&re, 0, sizeof(re));
    re.n = n;
    re.s = s;
    re.found = PyList_New(0);
    if (re.found == NULL)
        return NULL;
    ShapeWalk walk = {.min_len = min_len, .visit = realise_shape, .ctx = &re};
    if (0 < s && s < n && enumerate_shapes(&walk, (1ULL << n) - 1, 0) < 0)
        Py_CLEAR(re.found);
    fm_free(&re.fm);
    return re.found;
}

/*
 * JSON writer.  The output is pure ASCII: strings go through
 * json.encoder.encode_basestring_ascii unless they are printable ASCII
 * without a quote or a backslash, which are copied as they are.  It accepts
 * exactly pure.dumps's types (exact dict with str keys, list, str, int,
 * bool, None, float) and raises the same TypeError for anything else.
 */

typedef struct {
    char *data;
    Py_ssize_t len;
    Py_ssize_t cap;
} Buf;

/* json.encoder.encode_basestring_ascii, imported on the first dumps call */
static PyObject *encode_ascii;

/* Room for len more bytes at the end of b; returns where they start. */
static char *
buf_grow(Buf *b, Py_ssize_t len)
{
    if (b->len + len > b->cap) {
        Py_ssize_t cap = b->cap ? b->cap : 4096;
        while (cap < b->len + len)
            cap *= 2;
        char *data = PyMem_Realloc(b->data, cap);
        if (data == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        b->data = data;
        b->cap = cap;
    }
    b->len += len;
    return b->data + b->len - len;
}

static int
buf_write(Buf *b, const char *text, Py_ssize_t len)
{
    char *out = buf_grow(b, len);
    if (out == NULL)
        return -1;
    memcpy(out, text, len);
    return 0;
}

/* An optional separator (sep != 0), a newline and two spaces per level. */
static int
buf_newline(Buf *b, char sep, int depth)
{
    Py_ssize_t len = (sep != 0) + 1 + 2 * (Py_ssize_t)depth;
    char *out = buf_grow(b, len);
    if (out == NULL)
        return -1;
    memset(out, ' ', len);
    if (sep != 0)
        *out++ = sep;
    *out = '\n';
    return 0;
}

/* Append an ASCII str, consuming the reference; text may be NULL. */
static int
buf_steal_ascii(Buf *b, PyObject *text)
{
    if (text == NULL)
        return -1;
    int rc = -1;
    if (!PyUnicode_Check(text) || !PyUnicode_IS_ASCII(text))
        PyErr_SetString(PyExc_SystemError, "JSON text must be an ASCII str");
    else
        rc = buf_write(b, (const char *)PyUnicode_1BYTE_DATA(text),
                       PyUnicode_GET_LENGTH(text));
    Py_DECREF(text);
    return rc;
}

static const char *
type_name(PyObject *value)
{
    const char *name = Py_TYPE(value)->tp_name;
    const char *dot = strrchr(name, '.');
    return dot != NULL ? dot + 1 : name;
}

static int
write_str(Buf *b, PyObject *text)
{
    if (PyUnicode_IS_ASCII(text)) {
        const Py_UCS1 *chars = PyUnicode_1BYTE_DATA(text);
        Py_ssize_t len = PyUnicode_GET_LENGTH(text);
        Py_ssize_t i = 0;
        while (i < len && chars[i] >= 0x20 && chars[i] < 0x7f
               && chars[i] != '"' && chars[i] != '\\')
            i++;
        if (i == len) {
            char *out = buf_grow(b, len + 2);
            if (out == NULL)
                return -1;
            out[0] = '"';
            memcpy(out + 1, chars, len);
            out[len + 1] = '"';
            return 0;
        }
    }
    return buf_steal_ascii(b, PyObject_CallOneArg(encode_ascii, text));
}

static int
write_int(Buf *b, PyObject *value)
{
    int overflow;
    long long x = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (overflow)
        return buf_steal_ascii(b, PyLong_Type.tp_repr(value));
    if (x == -1 && PyErr_Occurred())
        return -1;
    char digits[32];
    int len = snprintf(digits, sizeof digits, "%lld", x);
    return buf_write(b, digits, len);
}

static int
write_float(Buf *b, PyObject *value)
{
    double x = PyFloat_AS_DOUBLE(value);
    if (Py_IS_NAN(x))
        return buf_write(b, "NaN", 3);
    if (Py_IS_INFINITY(x) && x > 0)
        return buf_write(b, "Infinity", 8);
    if (Py_IS_INFINITY(x))
        return buf_write(b, "-Infinity", 9);
    return buf_steal_ascii(b, PyFloat_Type.tp_repr(value));
}

static int write_value(Buf *b, PyObject *value, int depth);

/* Items are held while they are written: writing allocates, and a garbage
 * collection it triggers could run code that mutates the payload. */
static int
write_list(Buf *b, PyObject *list, int depth)
{
    if (PyList_GET_SIZE(list) == 0)
        return buf_write(b, "[]", 2);
    if (Py_EnterRecursiveCall(" while encoding a JSON array"))
        return -1;
    int rc = 0;
    for (Py_ssize_t i = 0; rc == 0 && i < PyList_GET_SIZE(list); i++) {
        PyObject *item = PyList_GET_ITEM(list, i);
        Py_INCREF(item);
        if (buf_newline(b, i ? ',' : '[', depth + 1) < 0
            || write_value(b, item, depth + 1) < 0)
            rc = -1;
        Py_DECREF(item);
    }
    Py_LeaveRecursiveCall();
    if (rc < 0 || buf_newline(b, 0, depth) < 0)
        return -1;
    return buf_write(b, "]", 1);
}

static int
write_dict(Buf *b, PyObject *dict, int depth)
{
    if (PyDict_GET_SIZE(dict) == 0)
        return buf_write(b, "{}", 2);
    if (Py_EnterRecursiveCall(" while encoding a JSON object"))
        return -1;
    Py_ssize_t pos = 0;
    PyObject *key;
    PyObject *item;
    char sep = '{';
    int rc = 0;
    while (rc == 0 && PyDict_Next(dict, &pos, &key, &item)) {
        if (!PyUnicode_CheckExact(key)) {
            PyErr_Format(PyExc_TypeError, "keys must be str, not %s",
                         type_name(key));
            rc = -1;
            break;
        }
        Py_INCREF(key);
        Py_INCREF(item);
        if (buf_newline(b, sep, depth + 1) < 0 || write_str(b, key) < 0
            || buf_write(b, ": ", 2) < 0 || write_value(b, item, depth + 1) < 0)
            rc = -1;
        Py_DECREF(key);
        Py_DECREF(item);
        sep = ',';
    }
    Py_LeaveRecursiveCall();
    if (rc < 0 || buf_newline(b, 0, depth) < 0)
        return -1;
    return buf_write(b, "}", 1);
}

static int
write_value(Buf *b, PyObject *value, int depth)
{
    if (PyUnicode_CheckExact(value))
        return write_str(b, value);
    if (PyLong_CheckExact(value))
        return write_int(b, value);
    if (value == Py_None)
        return buf_write(b, "null", 4);
    if (value == Py_True)
        return buf_write(b, "true", 4);
    if (value == Py_False)
        return buf_write(b, "false", 5);
    if (PyFloat_CheckExact(value))
        return write_float(b, value);
    if (PyList_CheckExact(value))
        return write_list(b, value, depth);
    if (PyDict_CheckExact(value))
        return write_dict(b, value, depth);
    PyErr_Format(PyExc_TypeError, "Object of type %s is not JSON serializable",
                 type_name(value));
    return -1;
}

PyDoc_STRVAR(dumps_doc,
"dumps(payload) -> str\n\n"
"The text of json.dumps(payload, indent=2); see pure.dumps.");

static PyObject *
dumps(PyObject *Py_UNUSED(self), PyObject *payload)
{
    if (encode_ascii == NULL) {
        PyObject *encoder = PyImport_ImportModule("json.encoder");
        if (encoder == NULL)
            return NULL;
        encode_ascii = PyObject_GetAttrString(encoder,
                                              "encode_basestring_ascii");
        Py_DECREF(encoder);
        if (encode_ascii == NULL)
            return NULL;
    }
    Buf b = {NULL, 0, 0};
    PyObject *result = NULL;
    if (write_value(&b, payload, 0) == 0) {
        result = PyUnicode_New(b.len, 127);
        if (result != NULL)
            memcpy(PyUnicode_1BYTE_DATA(result), b.data, b.len);
    }
    PyMem_Free(b.data);
    return result;
}

static PyMethodDef speedups_methods[] = {
    {"scan_shapes", (PyCFunction)(void (*)(void))scan_shapes,
     METH_VARARGS | METH_KEYWORDS, scan_shapes_doc},
    {"scan_partition_batch", (PyCFunction)(void (*)(void))scan_partition_batch,
     METH_VARARGS | METH_KEYWORDS, scan_batch_doc},
    {"alpha_shapes", (PyCFunction)(void (*)(void))alpha_shapes,
     METH_VARARGS | METH_KEYWORDS, alpha_shapes_doc},
    {"rate_orders", (PyCFunction)(void (*)(void))rate_orders,
     METH_VARARGS | METH_KEYWORDS, rate_orders_doc},
    {"realise", (PyCFunction)(void (*)(void))realise,
     METH_VARARGS | METH_KEYWORDS, realise_doc},
    {"realise_shapes", (PyCFunction)(void (*)(void))realise_shapes,
     METH_VARARGS | METH_KEYWORDS, realise_shapes_doc},
    {"dumps", dumps, METH_O, dumps_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    "bodenhu._kernel._speedups",
    "Compiled kernel and JSON writer; twin of pure.py, same contract, "
    "bit-identical output.",
    -1,
    speedups_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    if (key_order == NULL
        && ((key_order = PyUnicode_InternFromString("order")) == NULL
            || (key_rotations = PyUnicode_InternFromString("rotation_deltas"))
                   == NULL
            || (key_violates = PyUnicode_InternFromString("violates"))
                   == NULL)) {
        Py_CLEAR(key_order);
        Py_CLEAR(key_rotations);
        return NULL;
    }
    PyObject *module = PyModule_Create(&speedups_module);
    if (module != NULL && PyModule_AddIntConstant(module, "KERNEL_API",
                                                  KERNEL_API) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
