/*
 * Compiled scan kernel, written against the CPython C API.
 *
 * Twin of pure.py: same arguments, same (violations, stats) result, bit for
 * bit, in the same enumeration order.  Per shape, the degree assignments run
 * as an odometer with the rightmost digit fastest, and the cyclic orders as
 * the lexicographic permutations of order[1:] with order[0] == 0.  The loops
 * run on C integers; Python objects are made only for a violation record and
 * for the stats dict, which is built once at the end of the call.
 *
 * Capacity: at most 30 slots and 16 blocks per shape (the package cap is 14
 * slots), the same limits pure.py enforces.  For those sizes every pairing
 * and rotation value is far inside 64-bit range.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define MAX_SLOTS 30
#define MAX_BLOCKS 16
/* s = -sum(degs) <= sum(rank - 1) <= MAX_BLOCKS * MAX_SLOTS */
#define MAX_S (MAX_BLOCKS * MAX_SLOTS)

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

/* Advance a[0..m-1] to the next lexicographic permutation; 0 after the last. */
static int
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

static PyObject *
int_tuple(const i64 *values, int len)
{
    PyObject *tup = PyTuple_New(len);
    if (tup == NULL)
        return NULL;
    for (int i = 0; i < len; i++) {
        PyObject *v = PyLong_FromLongLong(values[i]);
        if (v == NULL) {
            Py_DECREF(tup);
            return NULL;
        }
        PyTuple_SET_ITEM(tup, i, v);
    }
    return tup;
}

/* Append (pi, degs, order, rots) to violations; -1 on error. */
static int
record_violation(PyObject *violations, Py_ssize_t pi, const i64 *degs,
                 const i64 *order, const i64 *q, i64 r0, int L)
{
    i64 rots[MAX_BLOCKS];
    i64 pre = 0;
    for (int l = 0; l < L; l++) {
        rots[l] = r0 - 2 * pre;
        pre += q[order[l]];
    }
    /* For L == 0 pure.py's order is still (0,). */
    PyObject *d = int_tuple(degs, L), *o = int_tuple(order, L > 0 ? L : 1);
    PyObject *r = int_tuple(rots, L);
    PyObject *rec = (d && o && r) ? Py_BuildValue("(nOOO)", pi, d, o, r) : NULL;
    int rc = rec ? PyList_Append(violations, rec) : -1;
    Py_XDECREF(d);
    Py_XDECREF(o);
    Py_XDECREF(r);
    Py_XDECREF(rec);
    return rc;
}

/* Scan one shape of L blocks; -1 on error. */
static int
scan_shape(int n, int s_filter, int semismall, Py_ssize_t pi,
           const u64 *masks, int L, PyObject *violations, Stats *stats)
{
    i64 ranks[MAX_BLOCKS], T[MAX_BLOCKS], degs[MAX_BLOCKS], lo[MAX_BLOCKS];
    i64 q[MAX_BLOCKS], order[MAX_BLOCKS + 1];
    i64 X[MAX_BLOCKS][MAX_BLOCKS], p[MAX_BLOCKS][MAX_BLOCKS];
    int pos[MAX_BLOCKS][MAX_SLOTS];
    const i64 threshold = L - 1;
    u64 nperm = 1;

    for (int i = 0; i < L; i++) {
        ranks[i] = 0;
        T[i] = 0;
        for (int k = 0; k < n; k++) {
            if (masks[i] >> k & 1) {
                pos[i][ranks[i]++] = k + 1;
                T[i] += n - 2 * (k + 1) + 1;
            }
        }
        /* degree range is -(rank - 1) .. -1: empty below rank 2 */
        if (ranks[i] < 2)
            return 0;
        lo[i] = -(ranks[i] - 1);
    }
    for (int i = 0; i < L; i++) {
        for (int j = i + 1; j < L; j++) {
            i64 x = 0;
            for (int a = 0; a < ranks[i]; a++)
                for (int b = 0; b < ranks[j]; b++)
                    x += pos[j][b] > pos[i][a] ? 1 : -1;
            X[i][j] = x;
            X[j][i] = -x;
        }
    }
    for (int i = 2; i < L; i++)
        nperm *= (u64)i;

    for (int i = 0; i < L; i++)
        degs[i] = lo[i];
    for (;;) {
        i64 s_val = 0;
        for (int i = 0; i < L; i++)
            s_val -= degs[i];
        if (s_filter == 0 || s_val == s_filter) {
            if (stats->candidates[s_val] == 0)
                stats->seen[stats->nseen++] = (int)s_val;
            stats->candidates[s_val] += 1;
            stats->classes[s_val] += nperm;

            for (int i = 0; i < L; i++)
                q[i] = -2 * ranks[i] * s_val - 2 * n * degs[i] + T[i];
            for (int i = 0; i < L; i++)
                for (int j = 0; j < L; j++)
                    if (i != j)
                        p[i][j] = 2 * (ranks[i] * degs[j] - ranks[j] * degs[i])
                                  + X[i][j];

            for (int i = 0; i <= L; i++)
                order[i] = i;
            do {
                i64 r0 = 0, pre = 0, maxpre = 0;
                for (int u = 0; u < L; u++) {
                    const i64 *pu = p[order[u]];
                    for (int v = u + 1; v < L; v++)
                        r0 += pu[order[v]];
                }
                for (int l = 0; l < L - 1; l++) {
                    pre += q[order[l]];
                    if (pre > maxpre)
                        maxpre = pre;
                }
                i64 minrot = r0 - 2 * maxpre;
                if (minrot > threshold || (!semismall && minrot == threshold)) {
                    if (record_violation(violations, pi, degs, order, q, r0, L) < 0)
                        return -1;
                }
            } while (L > 1 && next_perm(order + 1, L - 1));
        }

        /* advance the degree odometer, rightmost digit fastest */
        int k = L - 1;
        for (; k >= 0; k--) {
            if (++degs[k] <= -1)
                break;
            degs[k] = lo[k];
        }
        if (k < 0)
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

PyDoc_STRVAR(scan_doc,
"scan_partition_batch(n, s_filter, semismall, min_len, masks_list)\n"
"--\n\n"
"Scan a batch of partition shapes for rotation-criterion violations.\n\n"
"Same contract as pure.scan_partition_batch; see that function's docstring.");

static PyObject *
scan_partition_batch(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "s_filter", "semismall", "min_len",
                             "masks_list", NULL};
    int n, s_filter, semismall, min_len;
    PyObject *masks_arg, *shapes, *violations, *dict, *result = NULL;
    Stats stats = {0};

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iipiO:scan_partition_batch",
                                     kwlist, &n, &s_filter, &semismall,
                                     &min_len, &masks_arg))
        return NULL;
    if (n > MAX_SLOTS) {
        PyErr_SetString(PyExc_ValueError, "kernel supports at most 30 slots");
        return NULL;
    }
    shapes = PySequence_Fast(masks_arg, "masks_list must be iterable");
    if (shapes == NULL)
        return NULL;
    violations = PyList_New(0);
    if (violations == NULL)
        goto done;

    Py_ssize_t nshapes = PySequence_Fast_GET_SIZE(shapes);
    for (Py_ssize_t pi = 0; pi < nshapes; pi++) {
        u64 masks[MAX_BLOCKS];
        PyObject *shape = PySequence_Fast(PySequence_Fast_GET_ITEM(shapes, pi),
                                          "each shape must be iterable");
        if (shape == NULL)
            goto done;
        Py_ssize_t L = PySequence_Fast_GET_SIZE(shape);
        if (L < min_len) {
            Py_DECREF(shape);
            continue;
        }
        if (L > MAX_BLOCKS) {
            Py_DECREF(shape);
            PyErr_SetString(PyExc_ValueError,
                            "kernel supports at most 16 blocks");
            goto done;
        }
        for (Py_ssize_t i = 0; i < L; i++) {
            /* the low bits of any int, negative ones too, as pure.py's >> */
            masks[i] = PyLong_AsUnsignedLongLongMask(
                PySequence_Fast_GET_ITEM(shape, i));
            if (masks[i] == (u64)-1 && PyErr_Occurred()) {
                Py_DECREF(shape);
                goto done;
            }
        }
        Py_DECREF(shape);
        if (scan_shape(n, s_filter, semismall, pi, masks, (int)L, violations,
                       &stats) < 0)
            goto done;
    }

    dict = stats_dict(&stats);
    if (dict != NULL) {
        result = PyTuple_Pack(2, violations, dict);
        Py_DECREF(dict);
    }
done:
    Py_XDECREF(violations);
    Py_DECREF(shapes);
    return result;
}

static PyMethodDef speedups_methods[] = {
    {"scan_partition_batch", (PyCFunction)(void (*)(void))scan_partition_batch,
     METH_VARARGS | METH_KEYWORDS, scan_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    "bodenhu._kernel._speedups",
    "Compiled scan kernel; twin of pure.py, same contract, bit-identical "
    "output.",
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
    return PyModule_Create(&speedups_module);
}
