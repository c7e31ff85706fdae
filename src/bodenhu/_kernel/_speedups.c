/*
 * Compiled kernel, written against the CPython C API: the scan, the
 * single-alpha decision, the realisation of candidate partitions, the block
 * formatter and the JSON writer.
 *
 * Twin of pure.py: the same entry points with the same arguments and the
 * same results, bit for bit.  The two scan entry points return the same
 * (violations, stats) in the same order; admissible returns the same dict
 * in the same order; alpha_shapes, rate_orders, walls and blocks return the
 * same lists; realise_shapes returns the same tables and rows; realise
 * returns the same witness; dumps returns the same text.
 *
 *   scan_shapes          enumerates the set partitions itself, in the
 *                        canonical order of partitions.iter_partition_shapes
 *                        (the block of the lowest free slot first, its
 *                        co-members in ascending submask order), and scans
 *                        each one: the whole exhaustive scan without a
 *                        settle callable, and with one the scan that stops
 *                        each s at its first accepted candidate (below).
 *   scan_partition_batch scans shapes handed over by the caller.
 *
 * Settle mode.  With a settle callable, scan_shape hands each violating
 * candidate of a total s not yet settled to settle_first, which keeps only
 * its lexicographically first violating order and calls settle with that
 * record; a true result sets bit s of Scan.done.  From then on scan_shape
 * rates no candidate of that s, and walk_shapes skips every node whose
 * reachable totals are all in done (the reach test, at ShapeWalk), so the
 * call ends once every live s is settled.  pure.py does not prune: it
 * enumerates everything and calls settle for the same candidates, so
 * compiled == pure checks the reach test.  The stats then come from the
 * closed form (closed_form_dict over the labelled table), not from the
 * candidates met; without settle, done only holds the totals s_filter
 * keeps out, which the walk never tests.
 *
 * Every shape is a set partition of the n slots: the shape walk makes only
 * those, and read_partition refuses any other block input (the shapes of a
 * batch and of rate_orders, the blocks of realise) with ValueError, as
 * pure.py does.  A shape's violation records start with its tuple of masks.
 *
 * One shape walk, walk_shapes, serves scan_shapes, realise_shapes and
 * alpha_shapes and hands each shape to a per-entry callback.  They differ
 * only in where the blocks of the lowest free slot come from: every submask
 * of the free slots for scan_shapes and realise_shapes, the listed
 * admissible blocks for alpha_shapes.
 * Both scan entries feed scan_shape.  Per shape, the degree assignments run
 * as an odometer with the rightmost digit fastest (next_degrees, shared with
 * realise_shape), and the cyclic orders as the lexicographic permutations
 * of order[1:] with order[0] == 0.  On a partition q is the row sums of P,
 * and reversing a cyclic order negates the multiset of its rotation values,
 * so one r0 and one prefix scan of a representative with order[1] <
 * order[L-1] decide it and its reverse (0, order[L-1], ..., order[1])
 * together; the records of each degree assignment are then sorted back into
 * lexicographic order.  The loops run on C integers; Python objects are made
 * only for a violation record, the settle call and the stats dict, built
 * once per call.
 *
 * Each formula is written once, as in pure.py: cross_terms, pairing (one
 * entry of P, which place_degrees fills in), and rotations.  rate_orders
 * takes q as the row sums of P; scan_shape, as pure.py's scan does, takes
 * the closed form q[i] = delta(block i, one-vector), O(L) instead of O(L^2)
 * per candidate, and calls rotations only to record a violation: walk_orders
 * inlines r_0 and the prefix extremes, as two folds through rotations took
 * +4.6% and +0.8% in the median of 10 concurrent N = 14 pairs; the walk's
 * share grows with N (orders decided per candidate: 0.02 / 0.08 / 0.21 /
 * 0.72 at N = 10 / 11 / 12 / 13, small mode).
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
 * the last digit alone adds the L - 1 terms |P[i][L-1]|; a candidate that
 * is not rated (its s kept out or settled) defers the rebuild to the next
 * one that is.  The odometer keeps s along too (next_degrees).  At N = 10 the
 * walk runs for 0.29% of the candidates in small mode and 0.17% in
 * semismall mode (the one-sided B - 2 max q would keep 5.1% and 2.6%);
 * pure.py keeps the unbounded walk as the oracle.
 *
 * Capacity: at most 30 slots and 16 blocks per shape (the package cap is 14
 * slots), the same limits pure.py enforces.  For those sizes every pairing
 * and rotation value is far inside 64-bit range.
 *
 * Arguments: every entry reads each argument through one reader per kind,
 * as pure.py's through its _read_*: read_n (the slot count), read_int (an
 * integer, saturated at the ends of int64, where it still compares as the
 * exact value), read_ints (a list of masks or degrees, copied into a fixed
 * array), read_partition (read masks that partition the slots),
 * read_settle (None or a callable) and read_pair (a (mask, degree) pair of
 * blocks); the semismall flag is read by the "p" format, whose one truth
 * test pure.py's _read_flag makes too, and
 * rate_orders reads its shapes one at a time after it, as pure.py's
 * _read_shapes does.  A non-integer raises TypeError before any other
 * check, as in pure.py, and no integer argument raises OverflowError but a
 * degree of realise, or a scaled entry or denominator of admissible, past
 * int64 (see below).  Every entry takes its arguments by position or by
 * pure.py's parameter names.
 *
 *   admissible           maps every mask of rank >= 2 whose scaled subset
 *                        sum the denominator divides to its degree, at one
 *                        weight vector, by a meet-in-the-middle search.
 *   alpha_shapes         lists the partitions of n slots into the
 *                        admissible blocks at one weight vector, each a
 *                        tuple of the caller's int objects.
 *   rate_orders          rates every cyclic ordering of each partition of
 *                        a list, in one call (read_rated reads each shape
 *                        and its degrees, rate_shape rates it).
 *   realise              decides one candidate partition: a witness point
 *                        (nums, den) of W(n, s), or None.
 *   realise_shapes       realises every candidate of one (n, s): the shapes
 *                        of the shape walk, the degrees as an odometer with
 *                        the rightmost digit fastest (itertools.product
 *                        order); returns the distinct blocks and reduced
 *                        witness entries once each, interned exactly
 *                        (Intern), and per realisable candidate a row of
 *                        indices into them.
 *   walls                lists the nonempty walls of one W(n, s) as
 *                        (mask, d_check) pairs through wall_meets, the
 *                        closed form of realise's wall gate.
 *   blocks               formats (mask, degree) pairs, each read by
 *                        read_pair, as the CLI's payload blocks
 *                        {"support": [...], "degree": d}: the package's
 *                        one block formatter.
 *   dumps                writes the text of json.dumps(payload, indent=2)
 *                        into one growing byte buffer; see below.
 *
 * The realisation runs pure.py's Fourier-Motzkin step for step in int64,
 * every sum and product checked with __builtin_*_overflow.  For N <= 9 the
 * largest row entry is 468 and the largest witness integer 161,280, far
 * inside that range; past it, or for a degree past int64, the entries raise
 * OverflowError and _kernel/__init__.py re-runs the call on pure.py.
 * admissible checks its subset sums the same way and raises OverflowError
 * past int64, and for a scaled entry or denominator past it, as for a
 * weight vector whose common denominator passes 2^64.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* Must equal pure.KERNEL_API; _kernel/__init__.py refuses any other. */
#define KERNEL_API 16
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

/* What one call shares across its shapes.  done holds bit s for every
 * total s that needs no more work: kept out by s_filter or, with a settle
 * callable, settled. */
typedef struct {
    int n, semismall;
    PyObject *violations, *settle;
    u64 done;
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
 * fastest, and keep *s = -sum(degs) along.  Returns the lowest digit that
 * moved (the digits after it were reset), or -1 after the last
 * assignment. */
static inline int
next_degrees(int L, i64 *degs, const i64 *lo, i64 *s)
{
    for (int k = L - 1; k >= 0; k--) {
        *s -= 1;
        if (++degs[k] <= -1)
            return k;
        *s += degs[k] - lo[k];
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

/* The argument readers (see the header): the "O&" converters read_int,
 * read_n and read_ints return 1 on success and 0 with the exception set;
 * each entry passes all its arguments through one
 * PyArg_ParseTupleAndKeywords call. */

/* An integer (TypeError otherwise) into *(i64 *)out, saturated at the ends
 * of int64: every comparison an entry makes with a number inside int64
 * comes out as it would for the exact value.  realise_blocks, the one place
 * that computes with what was read, refuses a degree at either end. */
static int
read_int(PyObject *obj, void *out)
{
    int overflow;
    const i64 v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return 0;
    *(i64 *)out = overflow > 0 ? INT64_MAX : overflow < 0 ? INT64_MIN : v;
    return 1;
}

/* The slot count n: read_int, then 0..30 (ValueError otherwise), into
 * *(int *)out. */
static int
read_n(PyObject *obj, void *out)
{
    i64 n;
    if (!read_int(obj, &n))
        return 0;
    if (n < 0 || n > MAX_SLOTS) {
        PyErr_SetString(PyExc_ValueError, "kernel supports 0 to 30 slots");
        return 0;
    }
    *(int *)out = (int)n;
    return 1;
}

/* The settle argument of scan_shapes: None, or a callable (TypeError
 * otherwise), borrowed into *(PyObject **)out. */
static int
read_settle(PyObject *obj, void *out)
{
    if (obj != Py_None && !PyCallable_Check(obj)) {
        PyErr_SetString(PyExc_TypeError, "settle must be None or callable");
        return 0;
    }
    *(PyObject **)out = obj;
    return 1;
}

/* A list of masks or degrees: len counts every value given, and v holds the
 * first MAX_SLOTS of them (past those, each overwrites v[MAX_SLOTS]).  No
 * entry uses more: a partition of n <= 30 slots has at most n blocks. */
typedef struct {
    i64 v[MAX_SLOTS + 1];
    Py_ssize_t len;
} Ints;

/* An iterable (TypeError otherwise) of integers, each read as read_int
 * does, into *(Ints *)out; nothing is held afterwards.  A list is read in
 * place, as pure.py's iteration reads it: each item is held while it is
 * read and the length is taken again after it, since an __index__ method
 * may change the list. */
static int
read_ints(PyObject *obj, void *out)
{
    Ints *ints = out;
    PyObject *seq = PySequence_Fast(obj, "expected an iterable of integers");
    if (seq == NULL)
        return 0;
    int ok = 1;
    Py_ssize_t i = 0;
    for (; ok && i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *item = Py_NewRef(PySequence_Fast_GET_ITEM(seq, i));
        ok = read_int(item, &ints->v[i < MAX_SLOTS ? i : MAX_SLOTS]);
        Py_DECREF(item);
    }
    ints->len = i;
    Py_DECREF(seq);
    return ok;
}

/* Check that the read blocks partition the n slots, as
 * pure._read_partition does: at most most of them (most <= MAX_SLOTS),
 * nonempty, within the n slots, pairwise disjoint and covering every slot;
 * copy them into masks.  -1 with ValueError set when they do not. */
static int
read_partition(int n, const Ints *blocks, u64 *masks, int most)
{
    u64 covered = 0;
    if (blocks->len > most) {
        PyErr_Format(PyExc_ValueError, "kernel supports at most %d blocks",
                     most);
        return -1;
    }
    for (Py_ssize_t i = 0; i < blocks->len; i++) {
        const i64 v = blocks->v[i];
        if (v <= 0 || (u64)v >> n || (covered & (u64)v)) {
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

/* A (mask, degree) pair of blocks, read as pure._read_pair reads it:
 * unpacked as Python unpacks two targets, an exact tuple of two at once and
 * any other iterable by taking at most three values from it (TypeError for
 * an item that is not iterable, ValueError for fewer or more than two
 * values), the mask by read_int and the degree by PyNumber_Index, which
 * gives the exact int pure's _read_int returns, as a new reference in
 * *degree; then ValueError unless the mask lies in 1..2^30 - 1.  0, or -1
 * with the exception set and nothing held. */
static int
read_pair(PyObject *pair, u64 *mask, PyObject **degree)
{
    PyObject *item[3];
    int got = 0;
    if (PyTuple_CheckExact(pair) && PyTuple_GET_SIZE(pair) == 2) {
        for (; got < 2; got++)
            item[got] = Py_NewRef(PyTuple_GET_ITEM(pair, got));
    } else {
        PyObject *iter = PyObject_GetIter(pair);
        if (iter == NULL)
            return -1;
        while (got < 3 && (item[got] = PyIter_Next(iter)) != NULL)
            got++;
        Py_DECREF(iter);
    }
    i64 v = 0;
    *degree = NULL;
    if (PyErr_Occurred())
        ; /* raised by the iteration, as unpacking would raise it */
    else if (got != 2)
        PyErr_SetString(PyExc_ValueError,
                        "a block must be a (mask, degree) pair");
    else if (read_int(item[0], &v))
        *degree = PyNumber_Index(item[1]);
    for (int i = 0; i < got; i++)
        Py_DECREF(item[i]);
    if (*degree == NULL)
        return -1;
    if (v < 1 || v >= 1LL << MAX_SLOTS) {
        PyErr_SetString(PyExc_ValueError,
                        "a block mask must lie in 1..2^30 - 1");
        Py_CLEAR(*degree);
        return -1;
    }
    *mask = (u64)v;
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

/* Append (a, b, c, d) to list, taking the four new references (NULL where
 * a call failed), and release all five; -1 on error. */
static int
append_record(PyObject *list, PyObject *a, PyObject *b, PyObject *c,
              PyObject *d)
{
    PyObject *rec = (a && b && c && d) ? PyTuple_Pack(4, a, b, c, d) : NULL;
    int rc = rec ? PyList_Append(list, rec) : -1;
    Py_XDECREF(a);
    Py_XDECREF(b);
    Py_XDECREF(c);
    Py_XDECREF(d);
    Py_XDECREF(rec);
    return rc;
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
    return append_record(scan->violations, Py_NewRef(sh->key),
                         int_seq(degs, L, 0), int_seq(order, L, 0),
                         int_seq(rots, L, 0));
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

/* Keep the first of the records that one candidate of total s appended
 * from index first on, its lexicographically first violating order, and
 * pass it to the settle callable; a true result settles s.  -1 on error. */
static int
settle_first(Scan *scan, Py_ssize_t first, i64 s)
{
    PyObject *list = scan->violations;
    const Py_ssize_t end = PyList_GET_SIZE(list);
    if (end == first)
        return 0;
    if (PyList_SetSlice(list, first + 1, end, NULL) < 0)
        return -1;
    PyObject *record = Py_NewRef(PyList_GET_ITEM(list, first));
    PyObject *result = PyObject_Call(scan->settle, record, NULL);
    const int truth = result ? PyObject_IsTrue(result) : -1;
    Py_DECREF(record);
    Py_XDECREF(result);
    if (truth > 0)
        scan->done |= 1ULL << s;
    return truth < 0 ? -1 : 0;
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
    i64 s_val = 0;

    for (int i = 0; i < L; i++) {
        ranks[i] = __builtin_popcountll(sh->masks[i]);
        T[i] = 0;
        for (u64 m = sh->masks[i]; m; m &= m - 1)
            T[i] += n - 2 * __builtin_ctzll(m) - 1;
        /* degree range is -(rank - 1) .. -1: empty below rank 2 */
        if (ranks[i] < 2)
            return 0;
        lo[i] = degs[i] = -(ranks[i] - 1);
        s_val -= lo[i];
    }
    cross_terms(L, sh->masks, X);
    for (int i = 2; i < L; i++)
        nperm *= (u64)i;

    /* head[m] = sum of |P[i][j]| over i < j < m, so B = head[L]; it depends
     * on digits 0..m-1 of the degree odometer, and a moved digit k changes
     * head[k + 1] and every later one.  They are rebuilt only for a
     * candidate that is rated, from the lowest digit moved since the last
     * rebuild, stale. */
    head[0] = head[1] = 0;
    int moved = 0, stale = 0;
    do {
        if (moved < stale)
            stale = moved;
        if (scan->done >> s_val & 1)
            continue;
        for (int m = stale > 1 ? stale : 1; m < L; m++) {
            i64 h = head[m];
            for (int i = 0; i < m; i++)
                h += llabs(pairing(ranks, degs, X, i, m));
            head[m + 1] = h;
        }
        stale = L;
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
            const Py_ssize_t first = PyList_GET_SIZE(scan->violations);
            place_degrees(L, ranks, degs, X, p);
            if (walk_orders(scan, sh, degs, p, q, bar) < 0
                || (scan->settle && settle_first(scan, first, s_val) < 0))
                return -1;
        }
    } while ((moved = next_degrees(L, degs, lo, &s_val)) >= 0);
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
 * returns -1 on error.  The blocks come from blocks, grouped by lowest
 * slot (slot i: start[i] .. start[i+1]-1), or from every submask of the
 * free slots when blocks is NULL.  acc holds the blocks chosen so far;
 * n <= 30 slots give at most 15 of them.
 *
 * The reach test: a shape of L blocks has its total s in [L, n - L], so a
 * node with d blocks placed and slots still free reaches only the s in
 * [k, n - k], k = max(d + 1, min_len), and a complete shape of L blocks
 * those in [L, n - L]; reach[k] has their bits.  When done is given and
 * *done covers every bit of a node's reach, the walk skips the node, and
 * an ancestor stops as soon as it is covered; while *done is 0 nothing is
 * tested. */
typedef struct {
    i64 min_len;
    int (*visit)(void *ctx, Shape *sh);
    void *ctx;
    const u64 *blocks;
    Py_ssize_t start[MAX_SLOTS + 1];
    unsigned long nodes;
    const u64 *done;
    u64 reach[MAX_SLOTS + 1];
    u64 acc[MAX_BLOCKS];
    Py_ssize_t pick[MAX_BLOCKS]; /* acc[d] is blocks[pick[d]], if listed */
} ShapeWalk;

/* Whether every total the reach bits name needs no more work. */
static inline int
covered(const ShapeWalk *walk, u64 reach)
{
    return walk->done && *walk->done && !(reach & ~*walk->done);
}

/* Enumerate the completions of the blocks acc[0..depth-1] over the slots of
 * remaining, covering its lowest slot first, and visit each complete shape
 * with its masks sorted ascending; -1 on error.  Every submask gives the
 * order of partitions.iter_partition_shapes, and so do the listed blocks
 * when they are ascending. */
static int
walk_shapes(ShapeWalk *walk, u64 remaining, int depth)
{
    const u64 *acc = walk->acc;
    /* below the first block {0, 1} alone lies the whole walk of n - 2
     * slots, and a walk over listed blocks can run long without a shape */
    if (((++walk->nodes & 0xfff) == 0 || depth <= 1)
        && PyErr_CheckSignals() < 0)
        return -1;
    if (remaining == 0) {
        Shape sh = {.L = depth, .key = NULL};
        if (depth < walk->min_len || covered(walk, walk->reach[depth]))
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
    /* k <= depth + popcount / 2 <= n / 2 */
    const u64 reach =
        walk->reach[depth + 1 > walk->min_len ? depth + 1 : walk->min_len];
    if (covered(walk, reach))
        return 0;
    /* the blocks of the lowest free slot: its listed blocks that fit, in
     * their order, or that slot with each nonempty submask s of the other
     * free slots, ascending, that leaves no lone slot (none when it is lone
     * itself) */
    const u64 low = remaining & -remaining, rest = remaining ^ low;
    const int slot = __builtin_ctzll(low);
    Py_ssize_t i = walk->start[slot];
    for (u64 s = 0;;) {
        u64 m;
        if (walk->blocks) {
            if (i == walk->start[slot + 1])
                return 0;
            m = walk->blocks[i++];
            if ((m & remaining) != m)
                continue;
            walk->pick[depth] = i - 1;
        } else {
            if (s == rest)
                return 0;
            s = (s - rest) & rest;
            m = low | s;
            if (__builtin_popcountll(rest ^ s) == 1)
                continue;
        }
        walk->acc[depth] = m;
        if (walk_shapes(walk, remaining ^ m, depth + 1) < 0)
            return -1;
        if (covered(walk, reach))
            return 0;
    }
}

__extension__ typedef unsigned __int128 u128;

/* A new int of value v; NULL on error. */
static PyObject *
long_from_u128(u128 v)
{
    if (v >> 64 == 0)
        return PyLong_FromUnsignedLongLong((u64)v);
    PyObject *high = PyLong_FromUnsignedLongLong((u64)(v >> 64));
    PyObject *bits = PyLong_FromLong(64);
    PyObject *shifted = high && bits ? PyNumber_Lshift(high, bits) : NULL;
    PyObject *low = PyLong_FromUnsignedLongLong((u64)v);
    PyObject *out = shifted && low ? PyNumber_Or(shifted, low) : NULL;
    Py_XDECREF(high);
    Py_XDECREF(bits);
    Py_XDECREF(shifted);
    Py_XDECREF(low);
    return out;
}

/* dict[s] = [candidates, classes]; -1 on error. */
static int
set_counts(PyObject *dict, int s, u128 candidates, u128 classes)
{
    PyObject *key = PyLong_FromLong(s);
    PyObject *val = Py_BuildValue("[NN]", long_from_u128(candidates),
                                  long_from_u128(classes));
    int rc = (key && val) ? PyDict_SetItem(dict, key, val) : -1;
    Py_XDECREF(key);
    Py_XDECREF(val);
    return rc;
}

/* The stats as counted, keys in the order first seen; NULL on error. */
static PyObject *
stats_dict(const Stats *stats)
{
    PyObject *dict = PyDict_New();
    for (int i = 0; dict && i < stats->nseen; i++) {
        const int s = stats->seen[i];
        if (set_counts(dict, s, stats->candidates[s], stats->classes[s]) < 0)
            Py_CLEAR(dict);
    }
    return dict;
}

/* The candidate counts in closed form.  labelled[m][L][s] counts the set
 * partitions of m labelled slots into L blocks of rank >= 2, each block of
 * rank r with a degree -e, 1 <= e <= r - 1, the e summing to s: by the
 * block of the lowest slot (Flajolet and Sedgewick, Analytic
 * Combinatorics, ch. II),
 *   f(m, L, s) = sum_r C(m - 1, r - 1) sum_{e=1}^{r-1} f(m - r, L - 1, s - e).
 * Rows m are built on first use, up to the largest n asked for; no row
 * changes once built.  128 bits hold every count up to 30 slots: the
 * ordering classes, f times (L - 1)!, reach about 2.2e30 there. */
static u128 labelled[MAX_SLOTS + 1][MAX_SLOTS / 2 + 1][MAX_SLOTS + 1];
static int labelled_rows = -1; /* rows 0..labelled_rows are built */

static void
build_labelled(int n)
{
    for (int m = labelled_rows + 1; m <= n; m++) {
        if (m == 0) {
            labelled[0][0][0] = 1;
            continue;
        }
        u64 binom = 1; /* C(m - 1, r - 1) */
        for (int r = 2; r <= m; r++) {
            binom = binom * (u64)(m - r + 1) / (u64)(r - 1);
            for (int L = 1; L <= m / 2; L++)
                for (int t = 0; t <= m - r; t++) {
                    const u128 f = labelled[m - r][L - 1][t];
                    if (f == 0)
                        continue;
                    for (int e = 1; e < r; e++)
                        labelled[m][L][t + e] += binom * f;
                }
        }
    }
    if (n > labelled_rows)
        labelled_rows = n;
}

/* The stats a full scan of n slots counts, from the closed form, with the
 * keys ascending: s -> [candidates, classes] over the shapes of at least
 * min_len blocks, for s_filter alone unless it is 0, every s with a
 * candidate; NULL on error. */
static PyObject *
closed_form_dict(int n, i64 s_filter, i64 min_len)
{
    PyObject *dict = PyDict_New();
    build_labelled(n);
    for (int s = 1; dict && s < n; s++) {
        u128 candidates = 0, classes = 0, nperm = 1;
        if (s_filter && s != s_filter)
            continue;
        for (int L = 1; L <= n / 2; L++) {
            if (L >= 2)
                nperm *= (u128)(L - 1);
            if (L >= min_len) {
                candidates += labelled[n][L][s];
                classes += labelled[n][L][s] * nperm;
            }
        }
        if (candidates && set_counts(dict, s, candidates, classes) < 0)
            Py_CLEAR(dict);
    }
    return dict;
}

/* Set up the state of one call; -1 on error. */
static int
scan_init(Scan *scan, int n, i64 s_filter, int semismall)
{
    memset(scan, 0, sizeof(*scan));
    scan->n = n;
    scan->semismall = semismall;
    /* the totals s_filter keeps out need no work */
    scan->done = 0 < s_filter && s_filter < 64 ? ~(1ULL << s_filter)
                 : s_filter ? ~0ULL : 0;
    scan->violations = PyList_New(0);
    return scan->violations ? 0 : -1;
}

/* (violations, dict), taking the reference to dict, or NULL when dict is
 * NULL; releases the violations list. */
static PyObject *
scan_result(Scan *scan, PyObject *dict)
{
    PyObject *result = dict ? PyTuple_Pack(2, scan->violations, dict) : NULL;
    Py_XDECREF(dict);
    Py_DECREF(scan->violations);
    return result;
}

PyDoc_STRVAR(scan_shapes_doc,
"scan_shapes(n, s_filter, semismall, min_len, settle=None)\n"
"--\n\n"
"Enumerate every partition shape of n slots and scan it for\n"
"rotation-criterion violations; with settle, stop each s at the first\n"
"candidate that settle accepts.\n\n"
"Same contract as pure.scan_shapes; see that function's docstring.");

static PyObject *
scan_shapes(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "s_filter", "semismall", "min_len",
                             "settle", NULL};
    int n, semismall;
    i64 s_filter, min_len;
    PyObject *settle = Py_None;
    Scan scan;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O&O&pO&|O&:scan_shapes",
                                     kwlist, read_n, &n, read_int, &s_filter,
                                     &semismall, read_int, &min_len,
                                     read_settle, &settle)
        || scan_init(&scan, n, s_filter, semismall) < 0)
        return NULL;
    ShapeWalk walk = {.min_len = min_len, .visit = scan_and_release,
                      .ctx = &scan};
    if (settle != Py_None) {
        scan.settle = settle;
        walk.done = &scan.done;
        for (int k = 1; 2 * k <= n; k++)
            walk.reach[k] = (2ULL << (n - k)) - (1ULL << k);
    }
    int ok = n < 2 || walk_shapes(&walk, (1ULL << n) - 1, 0) == 0;
    PyObject *dict = !ok ? NULL
                     : settle == Py_None ? stats_dict(&scan.stats)
                     : closed_form_dict(n, s_filter, min_len);
    return scan_result(&scan, dict);
}

PyDoc_STRVAR(scan_batch_doc,
"scan_partition_batch(n, s_filter, semismall, min_len, masks_list)\n"
"--\n\n"
"Scan a batch of partition shapes for rotation-criterion violations.\n\n"
"Same contract as pure.scan_partition_batch; see that function's docstring.");

/* Scan one shape of a batch unless it has fewer than min_len blocks, which
 * pure.py skips before reading it; -1 on error. */
static int
scan_given(Scan *scan, PyObject *shape, i64 min_len)
{
    Shape sh = {.key = NULL};
    Ints blocks;
    const Py_ssize_t L = PyObject_Length(shape);
    if (L < 0)
        return -1;
    if (L < min_len)
        return 0;
    if (L > MAX_BLOCKS) {
        PyErr_SetString(PyExc_ValueError, "kernel supports at most 16 blocks");
        return -1;
    }
    if (!read_ints(shape, &blocks)
        || read_partition(scan->n, &blocks, sh.masks, MAX_BLOCKS) < 0)
        return -1;
    sh.L = (int)blocks.len;
    return scan_and_release(scan, &sh);
}

static PyObject *
scan_partition_batch(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "s_filter", "semismall", "min_len",
                             "masks_list", NULL};
    int n, semismall;
    i64 s_filter, min_len;
    PyObject *masks_list, *shape;
    Scan scan;

    if (!PyArg_ParseTupleAndKeywords(args, kwds,
                                     "O&O&pO&O:scan_partition_batch", kwlist,
                                     read_n, &n, read_int, &s_filter,
                                     &semismall, read_int, &min_len,
                                     &masks_list)
        || scan_init(&scan, n, s_filter, semismall) < 0)
        return NULL;
    PyObject *shapes = PyObject_GetIter(masks_list);
    int ok = shapes != NULL;
    while (ok && (shape = PyIter_Next(shapes)) != NULL) {
        ok = scan_given(&scan, shape, min_len) == 0;
        Py_DECREF(shape);
    }
    Py_XDECREF(shapes);
    ok = ok && !PyErr_Occurred();
    return scan_result(&scan, ok ? stats_dict(&scan.stats) : NULL);
}

/* What alpha_shapes shares with its visit: the shapes found, the walk, and
 * objs[i], the caller's int object of the walk's listed block i. */
typedef struct {
    PyObject *shapes;
    PyObject *const *objs;
    const ShapeWalk *walk;
} Listing;

/* Append the masks of sh to the listing as a tuple of the caller's int
 * objects, as pure.py's shapes hold them; -1 on error. */
static int
append_shape(void *ctx, Shape *sh)
{
    const Listing *li = ctx;
    PyObject *shape = PyTuple_New(sh->L);
    if (shape == NULL)
        return -1;
    for (int i = 0; i < sh->L; i++) {
        int d = 0;
        while (li->walk->acc[d] != sh->masks[i])
            d++;
        PyTuple_SET_ITEM(shape, i, Py_NewRef(li->objs[li->walk->pick[d]]));
    }
    int rc = PyList_Append(li->shapes, shape);
    Py_DECREF(shape);
    return rc;
}

PyDoc_STRVAR(alpha_shapes_doc,
"alpha_shapes(n, masks, min_len)\n"
"--\n\n"
"The partitions of n slots into the given admissible blocks, as sorted\n"
"mask tuples.\n\n"
"Same contract as pure.alpha_shapes; see that function's docstring.");

/* The shape walk over the given blocks, grouped by lowest slot with a
 * counting sort that keeps the input order.  The shapes hold the caller's
 * int objects, as pure.py's do, so they share one object per block. */
static PyObject *
alpha_shapes(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "masks", "min_len", NULL};
    int n;
    i64 min_len, v;
    PyObject *masks, *given, *shapes = NULL;
    Py_ssize_t count[MAX_SLOTS + 1] = {0}, fill[MAX_SLOTS];

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O&OO&:alpha_shapes", kwlist,
                                     read_n, &n, &masks, read_int, &min_len))
        return NULL;
    /* any number of masks, so read_ints, which keeps MAX_SLOTS, does not
     * serve: each is read in turn, as pure.py does, from a list copy that
     * holds every int object the shapes share */
    given = PySequence_List(masks);
    if (given == NULL)
        return NULL;
    const Py_ssize_t k = PyList_GET_SIZE(given);
    u64 *values = PyMem_Malloc((k + 1) * sizeof(u64));
    u64 *grouped = PyMem_Malloc((k + 1) * sizeof(u64));
    PyObject **objs = PyMem_Malloc((k + 1) * sizeof(PyObject *));
    if (values == NULL || grouped == NULL || objs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < k; i++) {
        PyObject *item = PyList_GET_ITEM(given, i);
        /* pure.py keeps operator.index(item), an exact int */
        if (!PyLong_CheckExact(item)) {
            if ((item = PyNumber_Index(item)) == NULL)
                goto done;
            PyList_SetItem(given, i, item);
        }
        if (!read_int(item, &v))
            goto done;
        if (v <= 0 || (u64)v >> n || __builtin_popcountll((u64)v) < 2) {
            PyErr_Format(PyExc_ValueError,
                         "mask %R is not a block of rank >= 2 within %d slots",
                         item, n);
            goto done;
        }
        values[i] = (u64)v;
        count[__builtin_ctzll((u64)v) + 1]++;
    }
    shapes = PyList_New(0);
    if (shapes == NULL)
        goto done;
    ShapeWalk walk = {.min_len = min_len, .visit = append_shape,
                      .blocks = grouped};
    Listing li = {.shapes = shapes, .objs = objs, .walk = &walk};
    walk.ctx = &li;
    for (int slot = 0; slot < n; slot++) {
        walk.start[slot + 1] = walk.start[slot] + count[slot + 1];
        fill[slot] = walk.start[slot];
    }
    /* the borrowed objects stay alive: given holds them until the end */
    for (Py_ssize_t i = 0; i < k; i++) {
        const Py_ssize_t at = fill[__builtin_ctzll(values[i])]++;
        grouped[at] = values[i];
        objs[at] = PyList_GET_ITEM(given, i);
    }
    if (n >= 2 && walk_shapes(&walk, (1ULL << n) - 1, 0) < 0)
        Py_CLEAR(shapes);
done:
    PyMem_Free(values);
    PyMem_Free(grouped);
    PyMem_Free(objs);
    Py_DECREF(given);
    return shapes;
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

/* One listed shape of rate_orders, read as pure._read_shapes reads it: its
 * masks by read_ints, which must partition the n slots into 2..MAX_BLOCKS
 * blocks, into sup and *L; then each mask's degree, looked up in degree
 * with the mask as an int key and read by read_int, into degs; then the
 * degree bound.  0, or -1 with the exception set. */
static int
read_rated(int n, PyObject *shape, PyObject *degree, u64 *sup, i64 *degs,
           int *L)
{
    Ints masks;
    if (!read_ints(shape, &masks))
        return -1;
    if (masks.len < 2) {
        PyErr_SetString(PyExc_ValueError,
                        "rotation values need at least two blocks");
        return -1;
    }
    if (read_partition(n, &masks, sup, MAX_BLOCKS) < 0)
        return -1;
    *L = (int)masks.len;
    for (int i = 0; i < *L; i++) {
        PyObject *key = PyLong_FromUnsignedLongLong(sup[i]);
        PyObject *d = key != NULL ? PyObject_GetItem(degree, key) : NULL;
        const int ok = d != NULL && read_int(d, &degs[i]);
        Py_XDECREF(key);
        Py_XDECREF(d);
        if (!ok)
            return -1;
    }
    for (int i = 0; i < *L; i++)
        if (degs[i] < -MAX_DEGREE || degs[i] > MAX_DEGREE) {
            PyErr_SetString(PyExc_ValueError,
                            "degrees must lie within -2^32..2^32");
            return -1;
        }
    return 0;
}

/* The rated orderings of one shape as a new list, or NULL; *first is the
 * index of its first violating ordering, or -1.  *rated counts the
 * orderings of the whole call, so signals are checked every 1,024 of them
 * across shapes. */
static PyObject *
rate_shape(int L, const u64 *sup, const i64 *degs, int semismall,
           Py_ssize_t *first, Py_ssize_t *rated)
{
    i64 rank[MAX_BLOCKS], q[MAX_BLOCKS];
    i64 X[MAX_BLOCKS][MAX_BLOCKS], pair[MAX_BLOCKS][MAX_BLOCKS];
    i64 order[MAX_BLOCKS], rots[MAX_BLOCKS];

    for (int i = 0; i < L; i++)
        rank[i] = __builtin_popcountll(sup[i]);
    cross_terms(L, sup, X);
    place_degrees(L, rank, degs, X, pair);
    for (int i = 0; i < L; i++) {
        q[i] = 0;
        for (int j = 0; j < L; j++)
            q[i] += pair[i][j];
    }

    Py_ssize_t nperm = 1, idx = 0;
    for (int i = 2; i < L; i++)
        nperm *= i;
    PyObject *orderings = PyList_New(nperm);
    if (orderings == NULL)
        return NULL;
    const i64 bar = semismall ? L : L - 1;
    int ok = 1;
    *first = -1;
    for (int i = 0; i < L; i++)
        order[i] = i;
    do {
        const i64 least = rotations(L, pair, q, order, rots);
        if (least >= bar && *first < 0)
            *first = idx;
        PyObject *one = rated_order(order, rots, L, least >= bar);
        if (one != NULL)
            PyList_SET_ITEM(orderings, idx++, one);
        ok = one != NULL
             && ((++*rated & 0x3ff) != 0 || PyErr_CheckSignals() == 0);
    } while (ok && next_perm(order + 1, L - 1));
    if (!ok)
        Py_CLEAR(orderings);
    return orderings;
}

PyDoc_STRVAR(rate_orders_doc,
"rate_orders(n, shapes, degree, semismall)\n"
"--\n\n"
"Every cyclic ordering of each listed partition, rated by its rotation\n"
"values.\n\n"
"Same contract as pure.rate_orders; see that function's docstring.");

static PyObject *
rate_orders(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "shapes", "degree", "semismall", NULL};
    int n, semismall, L;
    PyObject *shapes, *degree, *shape;
    u64 sup[MAX_BLOCKS];
    i64 degs[MAX_BLOCKS];
    Py_ssize_t j = -1, rated = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O&OOp:rate_orders", kwlist,
                                     read_n, &n, &shapes, &degree, &semismall))
        return NULL;
    PyObject *iter = PyObject_GetIter(shapes);
    if (iter == NULL)
        return NULL;
    PyObject *ratings = PyList_New(0), *first = Py_NewRef(Py_None);
    while (ratings != NULL && (shape = PyIter_Next(iter)) != NULL) {
        const int rc = read_rated(n, shape, degree, sup, degs, &L);
        Py_DECREF(shape);
        PyObject *orderings =
            rc == 0 ? rate_shape(L, sup, degs, semismall, &j, &rated) : NULL;
        if (orderings != NULL && j >= 0 && first == Py_None) {
            Py_SETREF(first, Py_BuildValue("(nn)", PyList_GET_SIZE(ratings),
                                           j));
            if (first == NULL)
                Py_CLEAR(orderings);
        }
        if (orderings == NULL || PyList_Append(ratings, orderings) < 0)
            Py_CLEAR(ratings);
        Py_XDECREF(orderings);
    }
    Py_DECREF(iter);
    PyObject *result = NULL;
    if (ratings != NULL && !PyErr_Occurred())
        result = PyTuple_Pack(2, ratings, first);
    Py_XDECREF(ratings);
    Py_XDECREF(first);
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

/* Append (mask, d_check) to found for every nonempty wall of W(n, s), in
 * the order of pure.walls; -1 on error. */
static int
list_walls(PyObject *found, int n, int s)
{
    int meets, rc;
    for (u64 mask = 1; mask < 1ULL << n; mask += 2) {
        /* a call at 30 slots runs over 2^29 masks */
        if ((mask & 0xfff) == 1 && PyErr_CheckSignals() < 0)
            return -1;
        /* d_check in -(r - 1)..-1 and -s - d_check in -(n - r - 1)..-1,
         * none unless 2 <= r <= n - 2 */
        const int r = __builtin_popcountll(mask);
        const int lo = 1 - (r < s ? r : s), hi = n - r - s < 0 ? n - r - s : 0;
        for (int d = lo; d < hi; d++) {
            if ((rc = wall_meets(n, s, mask, d, &meets)))
                return fm_raise(rc);
            if (!meets)
                continue;
            PyObject *wall = Py_BuildValue("(Ki)", mask, d);
            rc = wall ? PyList_Append(found, wall) : -1;
            Py_XDECREF(wall);
            if (rc < 0)
                return -1;
        }
    }
    return 0;
}

PyDoc_STRVAR(walls_doc,
"walls(n, s)\n"
"--\n\n"
"The nonempty walls of W(n, s) as (mask, d_check) pairs.\n\n"
"Same contract as pure.walls; see that function's docstring.");

static PyObject *
walls(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "s", NULL};
    int n;
    i64 s;
    PyObject *found;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O&O&:walls", kwlist,
                                     read_n, &n, read_int, &s))
        return NULL;
    if (s <= 0 || s >= n) {
        PyErr_SetString(PyExc_ValueError,
                        "the weight sum s must lie strictly between 0 and n");
        return NULL;
    }
    if ((found = PyList_New(0)) != NULL && list_walls(found, n, (int)s) < 0)
        Py_CLEAR(found);
    return found;
}

/* Interned keys of the dicts of blocks, made when the module is created. */
static PyObject *key_support, *key_degree;

/* {"support": the 1-based slots of mask ascending, "degree": degree} as a
 * new dict, or NULL. */
static PyObject *
block_dict(u64 mask, PyObject *degree)
{
    PyObject *support = PyList_New(__builtin_popcountll(mask));
    for (Py_ssize_t i = 0; support != NULL && mask; mask &= mask - 1, i++) {
        PyObject *slot = PyLong_FromLong(__builtin_ctzll(mask) + 1);
        if (slot == NULL)
            Py_CLEAR(support);
        else
            PyList_SET_ITEM(support, i, slot);
    }
    PyObject *dict = support != NULL ? PyDict_New() : NULL;
    if (dict != NULL
        && (PyDict_SetItem(dict, key_support, support) < 0
            || PyDict_SetItem(dict, key_degree, degree) < 0))
        Py_CLEAR(dict);
    Py_XDECREF(support);
    return dict;
}

PyDoc_STRVAR(blocks_doc,
"blocks(pairs)\n"
"--\n\n"
"The payload block {\"support\": [...], \"degree\": d} of each\n"
"(mask, degree) pair, in input order.\n\n"
"Same contract as pure.blocks; see that function's docstring.");

static PyObject *
blocks(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"pairs", NULL};
    PyObject *pairs, *pair, *degree;
    u64 mask;
    Py_ssize_t read = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:blocks", kwlist, &pairs))
        return NULL;
    PyObject *iter = PyObject_GetIter(pairs);
    if (iter == NULL)
        return NULL;
    PyObject *found = PyList_New(0);
    while (found != NULL && (pair = PyIter_Next(iter)) != NULL) {
        const int rc = read_pair(pair, &mask, &degree);
        Py_DECREF(pair);
        PyObject *block = rc == 0 ? block_dict(mask, degree) : NULL;
        if (rc == 0)
            Py_DECREF(degree);
        /* a list of any length: signals are checked every 4,096 pairs */
        if (block == NULL || PyList_Append(found, block) < 0
            || ((++read & 0xfff) == 0 && PyErr_CheckSignals() < 0))
            Py_CLEAR(found);
        Py_XDECREF(block);
    }
    Py_DECREF(iter);
    if (found != NULL && PyErr_Occurred())
        Py_CLEAR(found);
    return found;
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

    /* a degree at either end of int64 may stand for one read_int saturated */
    for (int i = 0; i < L; i++)
        CHECKED(degs[i] == INT64_MIN || degs[i] == INT64_MAX
                || SUB(s, degs[i], &s));
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
    Ints blocks, degs;
    u64 masks[MAX_SLOTS];
    i64 nums[MAX_SLOTS], den;
    int n;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O&O&O&:realise", kwlist,
                                     read_n, &n, read_ints, &blocks,
                                     read_ints, &degs)
        || read_partition(n, &blocks, masks, MAX_SLOTS) < 0)
        return NULL;
    if (degs.len != blocks.len) {
        PyErr_SetString(PyExc_ValueError, "masks and degrees differ in length");
        return NULL;
    }
    FM fm;
    memset(&fm, 0, sizeof(fm));
    const int rc = realise_blocks(&fm, n, (int)blocks.len, masks, degs.v,
                                  nums, &den);
    fm_free(&fm);
    if (rc == FM_OK)
        return witness(nums, n, den);
    if (rc == FM_EMPTY)
        return Py_NewRef(Py_None);
    fm_raise(rc);
    return NULL;
}

/*
 * realise_shapes interns what its candidates share: Intern holds the
 * distinct (a, b) pairs of int64 it was given, in first-use order, and
 * finds each by open addressing on the exact pair, so no two pairs share a
 * key however large they are.  One table holds the blocks (mask, d_check),
 * one the witness entries as reduced (p, q).
 */
typedef struct {
    i64 *pairs;          /* pair i at pairs[2i], pairs[2i + 1] */
    Py_ssize_t len, cap; /* pairs held and room for; cap a power of 2 */
    Py_ssize_t *slots;   /* 2 cap slots: the index of a pair + 1, or 0 */
} Intern;

static void
intern_free(Intern *t)
{
    PyMem_Free(t->pairs);
    PyMem_Free(t->slots);
}

/* The first free slot for (a, b) or the slot holding it, in 2 cap slots. */
static inline Py_ssize_t *
intern_slot(const Intern *t, i64 a, i64 b)
{
    const u64 mask = 2 * (u64)t->cap - 1;
    u64 h = ((u64)a * 0x9E3779B97F4A7C15ULL ^ (u64)b) * 0xBF58476D1CE4E5B9ULL;
    for (h ^= h >> 31;; h++) {
        Py_ssize_t *slot = &t->slots[h & mask];
        const Py_ssize_t at = *slot - 1;
        if (at < 0 || (t->pairs[2 * at] == a && t->pairs[2 * at + 1] == b))
            return slot;
    }
}

/* The index of (a, b) in t, appended when new; -1 when out of memory. */
static Py_ssize_t
intern_pair(Intern *t, i64 a, i64 b)
{
    if (t->len == t->cap) {
        const Py_ssize_t cap = t->cap ? 2 * t->cap : 64;
        i64 *pairs = PyMem_Realloc(t->pairs, 2 * cap * sizeof(i64));
        Py_ssize_t *slots = PyMem_Calloc(2 * cap, sizeof(Py_ssize_t));
        if (pairs == NULL || slots == NULL) {
            PyMem_Free(slots);
            if (pairs != NULL)
                t->pairs = pairs;
            return -1;
        }
        PyMem_Free(t->slots);
        t->pairs = pairs;
        t->slots = slots;
        t->cap = cap;
        for (Py_ssize_t i = 0; i < t->len; i++)
            *intern_slot(t, pairs[2 * i], pairs[2 * i + 1]) = i + 1;
    }
    Py_ssize_t *slot = intern_slot(t, a, b);
    if (*slot == 0) {
        t->pairs[2 * t->len] = a;
        t->pairs[2 * t->len + 1] = b;
        *slot = ++t->len;
    }
    return *slot - 1;
}

/* What realise_shapes shares across its shapes.  rows holds, for each
 * realisable candidate, its block count L, its L block indices and its n
 * entry indices. */
typedef struct {
    int n;
    i64 s;
    FM fm;
    Intern blocks, entries;
    Py_ssize_t *rows, len, size, nrows;
} Realisation;

/* Append index to re->rows; -1 when index is -1 or out of memory. */
static int
push_index(Realisation *re, Py_ssize_t index)
{
    if (index < 0)
        return -1;
    if (re->len == re->size) {
        const Py_ssize_t size = re->size ? 2 * re->size : 1024;
        Py_ssize_t *rows = PyMem_Realloc(re->rows, size * sizeof(Py_ssize_t));
        if (rows == NULL)
            return -1;
        re->rows = rows;
        re->size = size;
    }
    re->rows[re->len++] = index;
    return 0;
}

/* Record a realisable candidate: intern its blocks and its witness
 * entries nums[v] / den, den > 0, each reduced; FM_NOMEM on error. */
static int
record_found(Realisation *re, const Shape *sh, const i64 *degs,
             const i64 *nums, i64 den)
{
    if (push_index(re, sh->L) < 0)
        return FM_NOMEM;
    for (int i = 0; i < sh->L; i++)
        if (push_index(re, intern_pair(&re->blocks, (i64)sh->masks[i],
                                       degs[i])) < 0)
            return FM_NOMEM;
    for (int v = 0; v < re->n; v++) {
        /* 1 <= g <= den, so both quotients are exact and in range */
        const i64 g = (i64)gcd_u64(abs_u64(nums[v]), (u64)den);
        if (push_index(re, intern_pair(&re->entries, nums[v] / g, den / g))
            < 0)
            return FM_NOMEM;
    }
    re->nrows++;
    return FM_OK;
}

/* Realise every degree assignment of shape sh that sums to -s, the
 * degrees -(r_i - 1)..-1 as an odometer, rightmost digit fastest; -1 on
 * error. */
static int
realise_shape(void *ctx, Shape *sh)
{
    Realisation *re = ctx;
    const int L = sh->L;
    i64 degs[MAX_BLOCKS], lo[MAX_BLOCKS], nums[MAX_SLOTS], den, s = 0;
    for (int i = 0; i < L; i++) {
        lo[i] = degs[i] = 1 - __builtin_popcountll(sh->masks[i]);
        s -= lo[i];
    }
    if (re->s < L || re->s > s)
        return 0; /* no assignment sums to -s */
    do {
        if (s == re->s) {
            int rc = realise_blocks(&re->fm, re->n, L, sh->masks, degs, nums,
                                    &den);
            if (rc == FM_OK)
                rc = record_found(re, sh, degs, nums, den);
            if (rc < 0)
                return fm_raise(rc);
        }
    } while (next_degrees(L, degs, lo, &s) >= 0);
    return 0;
}

/* The pairs of t as a new list of 2-tuples; NULL on error. */
static PyObject *
pair_list(const Intern *t)
{
    PyObject *list = PyList_New(t->len);
    for (Py_ssize_t i = 0; list != NULL && i < t->len; i++) {
        PyObject *pair = int_seq(t->pairs + 2 * i, 2, 0);
        if (pair == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, pair);
    }
    return list;
}

/* A new tuple of the len objects index[at[0..len-1]]; NULL on error. */
static PyObject *
index_tuple(PyObject **index, const Py_ssize_t *at, Py_ssize_t len)
{
    PyObject *t = PyTuple_New(len);
    for (Py_ssize_t i = 0; t != NULL && i < len; i++)
        PyTuple_SET_ITEM(t, i, Py_NewRef(index[at[i]]));
    return t;
}

/* (blocks, entries, rows) of a finished realisation, the rows' indices
 * sharing one int object per value; NULL on error. */
static PyObject *
realised(const Realisation *re)
{
    const Py_ssize_t most = re->blocks.len > re->entries.len
                                ? re->blocks.len : re->entries.len;
    PyObject **index = PyMem_Calloc(most + 1, sizeof(PyObject *));
    PyObject *blocks = pair_list(&re->blocks);
    PyObject *entries = pair_list(&re->entries);
    PyObject *rows = PyList_New(re->nrows), *result = NULL;
    if (index == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (blocks == NULL || entries == NULL || rows == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < most; i++)
        if ((index[i] = PyLong_FromSsize_t(i)) == NULL)
            goto done;
    const Py_ssize_t *at = re->rows;
    for (Py_ssize_t r = 0; r < re->nrows; r++) {
        const Py_ssize_t L = *at++;
        PyObject *b = index_tuple(index, at, L);
        PyObject *e = index_tuple(index, at + L, re->n);
        PyObject *row = (b && e) ? PyTuple_Pack(2, b, e) : NULL;
        Py_XDECREF(b);
        Py_XDECREF(e);
        if (row == NULL)
            goto done;
        PyList_SET_ITEM(rows, r, row);
        at += L + re->n;
    }
    result = PyTuple_Pack(3, blocks, entries, rows);
done:
    for (Py_ssize_t i = 0; index != NULL && i < most; i++)
        Py_XDECREF(index[i]);
    PyMem_Free(index);
    Py_XDECREF(blocks);
    Py_XDECREF(entries);
    Py_XDECREF(rows);
    return result;
}

PyDoc_STRVAR(realise_shapes_doc,
"realise_shapes(n, s, min_len)\n"
"--\n\n"
"Every candidate partition of n slots with total degree -s that some\n"
"point of W(n, s) realises, as (blocks, entries, rows).\n\n"
"Same contract as pure.realise_shapes; see that function's docstring.\n"
"Raises OverflowError where 64-bit integers do not suffice.");

static PyObject *
realise_shapes(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "s", "min_len", NULL};
    i64 min_len;
    Realisation re;
    PyObject *result = NULL;

    memset(&re, 0, sizeof(re));
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O&O&O&:realise_shapes",
                                     kwlist, read_n, &re.n, read_int, &re.s,
                                     read_int, &min_len))
        return NULL;
    ShapeWalk walk = {.min_len = min_len, .visit = realise_shape, .ctx = &re};
    if (!(0 < re.s && re.s < re.n)
        || walk_shapes(&walk, (1ULL << re.n) - 1, 0) == 0)
        result = realised(&re);
    fm_free(&re.fm);
    intern_free(&re.blocks);
    intern_free(&re.entries);
    PyMem_Free(re.rows);
    return result;
}

/*
 * Admissible blocks at one weight vector nums / denom, as pure.py's
 * admissible finds them: the subset sums of the low half nums[0..h-1] and
 * of the high half nums[h..n-1], h = n / 2, in checked int64; the low
 * halves sorted by residue modulo denom, ties by mask; and for each high
 * half, ascending, a bisection for the low halves of the residue that
 * completes an integer, which come in ascending mask order.  A scaled
 * entry or denominator past int64, or a sum past it, raises OverflowError,
 * on which _kernel/__init__.py re-runs the call on pure.py.
 */

/* One low half: the residue of its scaled sum modulo denom, and its mask. */
typedef struct {
    i64 residue;
    u64 lo;
} Half;

static int
half_order(const void *a, const void *b)
{
    const Half *x = a, *y = b;
    if (x->residue != y->residue)
        return x->residue < y->residue ? -1 : 1;
    return (x->lo > y->lo) - (x->lo < y->lo);
}

/* sums[m] = the sum of values[0..k-1] over the bits of m, every m < 2^k;
 * FM_OVERFLOW when one leaves int64. */
static int
subset_sum_table(const i64 *values, int k, i64 *sums)
{
    sums[0] = 0;
    for (int i = 0; i < k; i++)
        for (u64 m = 0; m < 1ULL << i; m++)
            CHECKED(ADD(sums[m], values[i], &sums[m | 1ULL << i]));
    return FM_OK;
}

/* Set admissible's OverflowError; returns -1. */
static int
admissible_overflow(void)
{
    PyErr_SetString(PyExc_OverflowError,
                    "admissible blocks leave 64-bit integers");
    return -1;
}

/* Insert mask: -(sum // denom) into found for every mask of rank >= 2
 * whose scaled sum denom divides, ascending, from the tables low, high and
 * the sorted halves; -1 with the exception set on error. */
static int
insert_admissible(PyObject *found, int h, u64 nhigh, const i64 *low,
                  const i64 *high, const Half *halves, i64 denom)
{
    const u64 nlow = 1ULL << h;
    for (u64 hi = 0; hi < nhigh; hi++) {
        if (PyErr_CheckSignals() < 0)
            return -1;
        /* the low residue that completes an integer: -high[hi] mod denom */
        const i64 r = high[hi] % denom, want = r > 0 ? denom - r : -r;
        u64 a = 0, b = nlow;
        while (a < b) {
            const u64 mid = a + (b - a) / 2;
            if (halves[mid].residue < want)
                a = mid + 1;
            else
                b = mid;
        }
        for (; a < nlow && halves[a].residue == want; a++) {
            const u64 mask = halves[a].lo | hi << h;
            i64 sum, degree;
            if (__builtin_popcountll(mask) < 2)
                continue;
            if (ADD(low[halves[a].lo], high[hi], &sum)
                || SUB((i64)0, sum / denom, &degree))
                return admissible_overflow();
            PyObject *key = PyLong_FromUnsignedLongLong(mask);
            PyObject *value = key ? PyLong_FromLongLong(degree) : NULL;
            const int rc = value ? PyDict_SetItem(found, key, value) : -1;
            Py_XDECREF(key);
            Py_XDECREF(value);
            if (rc < 0)
                return -1;
        }
    }
    return 0;
}

PyDoc_STRVAR(admissible_doc,
"admissible(n, nums, denom)\n"
"--\n\n"
"The admissible blocks at the weight vector nums / denom: a dict from\n"
"every mask of rank >= 2 whose scaled subset sum denom divides to its\n"
"degree, ascending.\n\n"
"Same contract as pure.admissible; see that function's docstring.  Raises\n"
"OverflowError where 64-bit integers do not suffice.");

static PyObject *
admissible(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "nums", "denom", NULL};
    int n, rc = -1;
    Ints nums;
    i64 denom;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O&O&O&:admissible", kwlist,
                                     read_n, &n, read_ints, &nums, read_int,
                                     &denom))
        return NULL;
    if (nums.len != n) {
        PyErr_SetString(PyExc_ValueError, "nums must hold n values");
        return NULL;
    }
    if (denom <= 0) {
        PyErr_SetString(PyExc_ValueError, "denom must be positive");
        return NULL;
    }
    /* a value at either end of int64 may stand for one read_int saturated */
    int saturated = denom == INT64_MAX;
    for (int i = 0; i < n; i++)
        saturated |= nums.v[i] == INT64_MIN || nums.v[i] == INT64_MAX;
    if (saturated) {
        admissible_overflow();
        return NULL;
    }
    const int h = n / 2;
    const u64 nlow = 1ULL << h, nhigh = 1ULL << (n - h);
    i64 *low = PyMem_Malloc(nlow * sizeof(i64));
    i64 *high = PyMem_Malloc(nhigh * sizeof(i64));
    Half *halves = PyMem_Malloc(nlow * sizeof(Half));
    PyObject *found = PyDict_New();
    if (low == NULL || high == NULL || halves == NULL || found == NULL) {
        if (found != NULL)
            PyErr_NoMemory();
        goto done;
    }
    if (subset_sum_table(nums.v, h, low) != FM_OK
        || subset_sum_table(nums.v + h, n - h, high) != FM_OK) {
        admissible_overflow();
        goto done;
    }
    for (u64 lo = 0; lo < nlow; lo++) {
        const i64 r = low[lo] % denom;
        halves[lo] = (Half){r < 0 ? r + denom : r, lo};
    }
    qsort(halves, nlow, sizeof(Half), half_order);
    rc = insert_admissible(found, h, nhigh, low, high, halves, denom);
done:
    PyMem_Free(low);
    PyMem_Free(high);
    PyMem_Free(halves);
    if (rc < 0)
        Py_CLEAR(found);
    return found;
}

/*
 * JSON writer.  The output is pure ASCII: strings go through
 * json.encoder.encode_basestring_ascii unless they are printable ASCII
 * without a quote or a backslash, which are copied as they are.  It accepts
 * exactly pure.dumps's types (exact dict with str keys, list, str, int,
 * bool and None) and raises the same TypeError for anything else, a float
 * included.
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

/* An int inside int64 is written by a digit loop, lowest digit first, on
 * its magnitude as u64, which INT64_MIN also has; a larger one by repr. */
static int
write_int(Buf *b, PyObject *value)
{
    int overflow;
    const i64 x = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (overflow)
        return buf_steal_ascii(b, PyLong_Type.tp_repr(value));
    if (x == -1 && PyErr_Occurred())
        return -1;
    char digits[20];
    char *const end = digits + sizeof digits;
    char *p = end;
    u64 u = x < 0 ? 0 - (u64)x : (u64)x;
    do {
        *--p = (char)('0' + u % 10);
        u /= 10;
    } while (u != 0);
    if (x < 0)
        *--p = '-';
    return buf_write(b, p, end - p);
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
    if (PyList_CheckExact(value))
        return write_list(b, value, depth);
    if (PyDict_CheckExact(value))
        return write_dict(b, value, depth);
    PyErr_Format(PyExc_TypeError, "Object of type %s is not JSON serializable",
                 type_name(value));
    return -1;
}

PyDoc_STRVAR(dumps_doc,
"dumps(payload)\n"
"--\n\n"
"The text of json.dumps(payload, indent=2); see pure.dumps.");

static PyObject *
dumps(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"payload", NULL};
    PyObject *payload;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:dumps", kwlist, &payload))
        return NULL;
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
    {"admissible", (PyCFunction)(void (*)(void))admissible,
     METH_VARARGS | METH_KEYWORDS, admissible_doc},
    {"alpha_shapes", (PyCFunction)(void (*)(void))alpha_shapes,
     METH_VARARGS | METH_KEYWORDS, alpha_shapes_doc},
    {"rate_orders", (PyCFunction)(void (*)(void))rate_orders,
     METH_VARARGS | METH_KEYWORDS, rate_orders_doc},
    {"realise", (PyCFunction)(void (*)(void))realise,
     METH_VARARGS | METH_KEYWORDS, realise_doc},
    {"realise_shapes", (PyCFunction)(void (*)(void))realise_shapes,
     METH_VARARGS | METH_KEYWORDS, realise_shapes_doc},
    {"walls", (PyCFunction)(void (*)(void))walls,
     METH_VARARGS | METH_KEYWORDS, walls_doc},
    {"blocks", (PyCFunction)(void (*)(void))blocks,
     METH_VARARGS | METH_KEYWORDS, blocks_doc},
    {"dumps", (PyCFunction)(void (*)(void))dumps,
     METH_VARARGS | METH_KEYWORDS, dumps_doc},
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
                   == NULL
            || (key_support = PyUnicode_InternFromString("support")) == NULL
            || (key_degree = PyUnicode_InternFromString("degree")) == NULL)) {
        Py_CLEAR(key_order);
        Py_CLEAR(key_rotations);
        Py_CLEAR(key_violates);
        Py_CLEAR(key_support);
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
