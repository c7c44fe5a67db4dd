"""Optional compiled kernel for level-wise exact GBM fits.

The few-shot regime fits thousands of tiny trees; even the fully batched
numpy engine pays a few microseconds of dispatch per array expression,
which dominates when nodes hold a dozen rows.  This module compiles a
small, dependency-free C implementation of the *same* level-wise frontier
algorithm (one batched scan per depth level over presorted segments,
stable position-cut partition, preorder struct-of-arrays emission) and
drives whole boosting loops, for any number of independent fits over
shared scratch buffers, in one call.

Build strategy: the C source below is written to a per-user cache
directory and compiled with the system C compiler into a plain shared
library (no Python headers needed), then loaded through ``cffi``'s ABI
mode.  Everything is best-effort: no compiler, no ``cffi``, a failed
build, or ``REPRO_NO_KERNEL=1`` simply mean :func:`get_kernel` returns
``None`` and callers use the pure-numpy engine — results are equivalent
(see ``tests/test_ml_levelwise.py`` which pins the two paths against each
other).

Floating-point discipline: compiled with ``-ffp-contract=off`` (no FMA
contraction) so candidate scores are the same IEEE double operations the
numpy engine and the scalar reference perform; cumulative sums run in the
same stable feature order, so split decisions — including exact ties —
agree with the reference scan.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

from repro.env import get_bool

_CDEF = """
long gbm_fit_batch(
    long n_jobs, const long *job_matrix,
    const long *mat_n, const long *mat_f, const long *mat_off,
    const double *xt, const long *order,
    const double *y, const long *y_off,
    const long *n_estimators, const double *learning_rate, const long *max_depth,
    const double *lam, const double *mcw, const double *gamma,
    const long *early_stop, const double *base_score,
    long *rounds_out, double *losses, long *tree_start, int *depth_out,
    int *feat_out, double *thr_out, int *left_out, int *right_out,
    double *val_out, long *nsamp_out);
"""

_SOURCE = r"""
/* Level-wise exact-mode GBM fits (squared loss, unit hessian, full rows
 * and columns), many independent jobs per call.  Each job mirrors
 * repro.ml.tree._grow_exact: the frontier of each depth level is a set
 * of contiguous row segments over a per-feature presorted order; the
 * split search scans every (node, feature) of the level; accepted splits
 * partition segments by a stable position cut (never re-sorting); nodes
 * are laid out in preorder at emission.
 *
 * Layout: job j fits matrix job_matrix[j] (rows mat_n, features mat_f,
 * its transposed values and stable per-feature sort order at mat_off in
 * xt/order) against y + y_off[j].  Jobs write their trees one after the
 * other: tree k of the whole call owns nodes tree_start[k] to
 * tree_start[k + 1] of the node arrays and has depth depth_out[k] and
 * post-round loss losses[k]; rounds_out[j] counts job j's trees.
 *
 * Numerical contract: cumulative gradient sums run sequentially in the
 * stable sort order (bitwise-identical to the scalar reference), scores
 * use the exact expression gl*gl/(hl+lam) + gr*gr/(hr+lam), and the
 * best split is the strictly-greater feature-major scan, so ties resolve
 * to the lowest (feature, position) pair.
 */
#include <stdlib.h>
#include <math.h>

typedef struct {
    long start;      /* first column of the segment in part[] */
    long size;
    double g;        /* gradient sum over the segment's rows */
    long bfs;        /* index of this node in the BFS arrays */
} Seg;

/* Scratch shared by every job of one call, sized for the largest. */
typedef struct {
    long *part, *part2, *posof;
    double *grad, *pred;
    Seg *segs, *segs2;
    double *b_val, *b_thr;
    long *b_n, *b_feat, *b_child, *b_sz, *b_pos;
} Scratch;

static void scratch_free(Scratch *s)
{
    free(s->part); free(s->part2); free(s->posof); free(s->grad);
    free(s->pred); free(s->segs); free(s->segs2); free(s->b_val);
    free(s->b_thr); free(s->b_n); free(s->b_feat); free(s->b_child);
    free(s->b_sz); free(s->b_pos);
}

static int scratch_alloc(Scratch *s, long fn, long n, long max_nodes)
{
    s->part = malloc((size_t)fn * sizeof(long));
    s->part2 = malloc((size_t)fn * sizeof(long));
    s->posof = malloc((size_t)fn * sizeof(long));
    s->grad = malloc((size_t)n * sizeof(double));
    s->pred = malloc((size_t)n * sizeof(double));
    s->segs = malloc((size_t)(n + 1) * sizeof(Seg));
    s->segs2 = malloc((size_t)(n + 1) * sizeof(Seg));
    s->b_val = malloc((size_t)max_nodes * sizeof(double));
    s->b_thr = malloc((size_t)max_nodes * sizeof(double));
    s->b_n = malloc((size_t)max_nodes * sizeof(long));
    s->b_feat = malloc((size_t)max_nodes * sizeof(long));
    s->b_child = malloc((size_t)max_nodes * sizeof(long));
    s->b_sz = malloc((size_t)max_nodes * sizeof(long));
    s->b_pos = malloc((size_t)max_nodes * sizeof(long));
    return s->part && s->part2 && s->posof && s->grad && s->pred && s->segs
        && s->segs2 && s->b_val && s->b_thr && s->b_n && s->b_feat
        && s->b_child && s->b_sz && s->b_pos;
}

/* One GBM fit; returns its number of boosting rounds.  Its trees become
 * trees k0, k0 + 1, ... of the call (tree_start[k0] is already set). */
static long fit_one(
    Scratch *s, const double *xt, const long *order, long n, long f,
    const double *y, long n_estimators, double learning_rate,
    long max_depth, double lam, double mcw, double gamma,
    long early_stop, double base_score, long k0,
    double *losses, long *tree_start, int *depth_out,
    int *feat_out, double *thr_out, int *left_out, int *right_out,
    double *val_out, long *nsamp_out)
{
    long *part = s->part, *part2 = s->part2, *posof = s->posof;
    double *grad = s->grad, *pred = s->pred;
    Seg *segs = s->segs, *segs2 = s->segs2;
    double *b_val = s->b_val, *b_thr = s->b_thr;
    long *b_n = s->b_n, *b_feat = s->b_feat, *b_child = s->b_child;
    long *b_sz = s->b_sz, *b_pos = s->b_pos;

    for (long j = 0; j < f; j++)
        for (long i = 0; i < n; i++) posof[j * n + order[j * n + i]] = i;
    for (long i = 0; i < n; i++) {
        pred[i] = base_score;
        grad[i] = pred[i] - y[i];
    }

    double best_loss = INFINITY;
    long rounds_since_best = 0;
    long rounds = 0;

    for (long t = 0; t < n_estimators; t++) {
        /* ---- grow one tree, level by level ---- */
        for (long j = 0; j < f * n; j++) part[j] = order[j];
        double g_root = 0.0;
        for (long i = 0; i < n; i++) g_root += grad[i];

        long nseg = 1;
        segs[0].start = 0; segs[0].size = n; segs[0].g = g_root; segs[0].bfs = 0;
        long n_bfs = 1;
        b_n[0] = n; b_feat[0] = -1; b_child[0] = -1;
        long tree_depth = 0;

        for (long depth = 0; nseg > 0; depth++) {
            long nseg2 = 0;
            long o2 = 0; /* next level's write cursor into part2 */
            for (long sg = 0; sg < nseg; sg++) {
                long st = segs[sg].start, sz = segs[sg].size;
                double gsum = segs[sg].g;
                long bi = segs[sg].bfs;
                double value = -gsum / ((double)sz + lam);
                b_val[bi] = value;
                long bf = -1, bj = -1;
                double best = -INFINITY, bcum = 0.0;
                /* min_samples_split is 2: a single row never splits */
                if (depth < max_depth && sz >= 2) {
                    for (long feat = 0; feat < f; feat++) {
                        const long *rows = part + feat * n + st;
                        const double *xv = xt + feat * n;
                        double cum = 0.0;
                        for (long j = 0; j < sz - 1; j++) {
                            cum += grad[rows[j]];
                            if (xv[rows[j]] == xv[rows[j + 1]]) continue;
                            double hl = (double)(j + 1);
                            double hr = (double)(sz - j - 1);
                            if (hl < mcw || hr < mcw) continue;
                            double gr = gsum - cum;
                            double sc = cum * cum / (hl + lam)
                                      + gr * gr / (hr + lam);
                            if (sc > best) { best = sc; bf = feat; bj = j; bcum = cum; }
                        }
                    }
                }
                int split = 0;
                if (bf >= 0) {
                    double parent = gsum * gsum / ((double)sz + lam);
                    double gain = 0.5 * (best - parent) - gamma;
                    if (gain > 1e-12) split = 1;
                }
                if (!split) {
                    /* leaf: fold its contribution into pred immediately */
                    const long *rows = part + st;
                    for (long j = 0; j < sz; j++)
                        pred[rows[j]] += learning_rate * value;
                    continue;
                }
                const long *rows_bf = part + bf * n + st;
                double va = xt[bf * n + rows_bf[bj]];
                double vb = xt[bf * n + rows_bf[bj + 1]];
                b_feat[bi] = bf;
                b_thr[bi] = 0.5 * (va + vb);
                b_child[bi] = n_bfs;
                long nl = bj + 1, nr = sz - nl;
                /* stable two-way partition of every feature's order by the
                 * winning feature's position cut (no re-sort below root) */
                long cut = posof[bf * n + rows_bf[bj]];
                const long *pcut = posof + bf * n;
                for (long feat = 0; feat < f; feat++) {
                    const long *src = part + feat * n + st;
                    long *dl = part2 + feat * n + o2;
                    long *dr = dl + nl;
                    for (long j = 0; j < sz; j++) {
                        long r = src[j];
                        if (pcut[r] <= cut) *dl++ = r; else *dr++ = r;
                    }
                }
                segs2[nseg2].start = o2; segs2[nseg2].size = nl;
                segs2[nseg2].g = bcum; segs2[nseg2].bfs = n_bfs;
                nseg2++;
                segs2[nseg2].start = o2 + nl; segs2[nseg2].size = nr;
                segs2[nseg2].g = gsum - bcum; segs2[nseg2].bfs = n_bfs + 1;
                nseg2++;
                b_n[n_bfs] = nl; b_feat[n_bfs] = -1; b_child[n_bfs] = -1;
                b_n[n_bfs + 1] = nr; b_feat[n_bfs + 1] = -1; b_child[n_bfs + 1] = -1;
                n_bfs += 2;
                o2 += sz;
                tree_depth = depth + 1;
            }
            { long *tmp = part; part = part2; part2 = tmp; }
            { Seg *tmp = segs; segs = segs2; segs2 = tmp; }
            nseg = nseg2;
        }

        /* ---- preorder layout: subtree sizes bottom-up (children always
         * have larger BFS indices), then positions top-down ---- */
        for (long i = n_bfs - 1; i >= 0; i--) {
            b_sz[i] = 1;
            if (b_feat[i] >= 0)
                b_sz[i] += b_sz[b_child[i]] + b_sz[b_child[i] + 1];
        }
        b_pos[0] = 0;
        for (long i = 0; i < n_bfs; i++) {
            if (b_feat[i] >= 0) {
                long lc = b_child[i];
                b_pos[lc] = b_pos[i] + 1;
                b_pos[lc + 1] = b_pos[i] + 1 + b_sz[lc];
            }
        }
        long k = k0 + t;
        long base = tree_start[k];
        for (long i = 0; i < n_bfs; i++) {
            long p = base + b_pos[i];
            val_out[p] = b_val[i];
            nsamp_out[p] = b_n[i];
            if (b_feat[i] >= 0) {
                long lc = b_child[i];
                feat_out[p] = (int)b_feat[i];
                thr_out[p] = b_thr[i];
                left_out[p] = (int)b_pos[lc];
                right_out[p] = (int)b_pos[lc + 1];
            } else {
                feat_out[p] = -1;
                thr_out[p] = 0.0;
                left_out[p] = -1;
                right_out[p] = -1;
            }
        }
        tree_start[k + 1] = base + n_bfs;
        depth_out[k] = (int)tree_depth;

        /* ---- post-round residual doubles as the next gradient ---- */
        double loss = 0.0;
        for (long i = 0; i < n; i++) {
            double gi = pred[i] - y[i];
            grad[i] = gi;
            loss += gi * gi;
        }
        loss /= (double)n;
        losses[k] = loss;
        rounds = t + 1;
        if (early_stop >= 0) {  /* negative = disabled (None in Python) */
            if (loss < best_loss - 1e-12) {
                best_loss = loss;
                rounds_since_best = 0;
            } else {
                rounds_since_best++;
                if (rounds_since_best >= early_stop) break;
            }
        }
    }
    return rounds;
}

long gbm_fit_batch(
    long n_jobs, const long *job_matrix,
    const long *mat_n, const long *mat_f, const long *mat_off,
    const double *xt, const long *order,
    const double *y, const long *y_off,
    const long *n_estimators, const double *learning_rate, const long *max_depth,
    const double *lam, const double *mcw, const double *gamma,
    const long *early_stop, const double *base_score,
    long *rounds_out, double *losses, long *tree_start, int *depth_out,
    int *feat_out, double *thr_out, int *left_out, int *right_out,
    double *val_out, long *nsamp_out)
{
    long max_fn = 1, max_n = 1, max_nodes = 1;
    for (long j = 0; j < n_jobs; j++) {
        long m = job_matrix[j], n = mat_n[m];
        long nodes = 2 * n - 1;  /* a binary tree over n rows */
        if (max_depth[j] < 62 && (1L << (max_depth[j] + 1)) - 1 < nodes)
            nodes = (1L << (max_depth[j] + 1)) - 1;
        if (mat_f[m] * n > max_fn) max_fn = mat_f[m] * n;
        if (n > max_n) max_n = n;
        if (nodes > max_nodes) max_nodes = nodes;
    }
    Scratch s;
    if (!scratch_alloc(&s, max_fn, max_n, max_nodes)) {
        scratch_free(&s);
        return -1;
    }
    long k = 0;
    tree_start[0] = 0;
    for (long j = 0; j < n_jobs; j++) {
        long m = job_matrix[j];
        rounds_out[j] = fit_one(
            &s, xt + mat_off[m], order + mat_off[m], mat_n[m], mat_f[m],
            y + y_off[j], n_estimators[j], learning_rate[j], max_depth[j],
            lam[j], mcw[j], gamma[j], early_stop[j], base_score[j], k,
            losses, tree_start, depth_out,
            feat_out, thr_out, left_out, right_out, val_out, nsamp_out);
        k += rounds_out[j];
    }
    scratch_free(&s);
    return k;
}
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

_kernel = None
_kernel_tried = False


def _cache_dir() -> str:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(root, "repro-ml-kernel")


def _build(tag: str) -> str | None:
    """Compile the kernel into the cache dir; return the .so path."""
    cache = _cache_dir()
    so_path = os.path.join(cache, f"kernel-{tag}.so")
    if os.path.exists(so_path):
        return so_path
    compiler = os.environ.get("CC", "cc")
    try:
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            src = os.path.join(tmp, "kernel.c")
            out = os.path.join(tmp, "kernel.so")
            with open(src, "w") as fh:
                fh.write(_SOURCE)
            subprocess.run(
                [compiler, *_CFLAGS, "-o", out, src],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(out, so_path)  # atomic: concurrent builders race safely
        return so_path
    except Exception:
        return None


def get_kernel():
    """The (ffi, lib) pair, or ``None`` when unavailable.

    Best-effort and cached: the first call may compile the C source; any
    failure (no cffi, no compiler, sandboxed filesystem) permanently
    falls back to ``None`` for this process.
    """
    global _kernel, _kernel_tried
    if _kernel_tried:
        return _kernel
    _kernel_tried = True
    if get_bool("REPRO_NO_KERNEL"):
        return None
    if not sys.platform.startswith(("linux", "darwin")):
        return None
    try:
        import cffi
    except Exception:
        return None
    try:
        ffi = cffi.FFI()
        # The ABI passes numpy int64 buffers as C ``long``; on an ILP32
        # platform that would be a silent stride mismatch, so fall back.
        if ffi.sizeof("long") != 8:
            return None
        ffi.cdef(_CDEF)
    except Exception:
        return None
    tag = hashlib.sha256((_SOURCE + str(_CFLAGS)).encode()).hexdigest()[:16]
    so_path = _build(tag)
    if so_path is None:
        return None
    try:
        lib = ffi.dlopen(so_path)
    except Exception:
        return None
    _kernel = (ffi, lib)
    return _kernel
