/* Compiled hot kernels for the BinarizedAttack reproduction.
 *
 * Built at first use by src/repro/kernels/capi.py:  cc -O2 -fPIC -shared
 * -ffp-contract=off  (the contract flag matters: fused multiply-adds would
 * change the float results away from the numpy parity oracle's).
 *
 * Conventions shared by every kernel:
 *   - `indptr` is always int64 (the Python wrapper normalises it);
 *   - `indices` comes in the CSR's native dtype — every row-walking kernel
 *     is generated for int32 (`_i32`) and int64 (`_i64`) via DEFINE_* macros;
 *   - all arrays are C-contiguous; base-CSR arrays (possibly read-only
 *     memory maps) are only ever read — `const` enforces it at compile time;
 *   - membership and triangle counts are integer results, exact in
 *     float64, so they are bit-identical to the numpy reference; the
 *     store builder's key merge and CSR assembly write integers and the
 *     symmetry walk returns a verdict, so they are exact too;
 *   - the gradient kernel adds the same nonzero terms in the same order as
 *     the numpy hub-mat-vec reference.  Its push walk reads row c in place
 *     of column c, so it REQUIRES a bitwise-symmetric CSR (A == Aᵀ, which
 *     every engine matrix is) and a finite d_e — see scatter_gradient.
 *
 * `long long` is used instead of <stdint.h> int64_t so the cffi cdef and
 * this file agree on the exact token (both are 8-byte integers on every
 * supported LP64/LLP64 platform).
 */

#include <string.h>

typedef long long i64;
typedef int i32;

/* ------------------------------------------------------------------ */
/* sorted-array primitives                                            */
/* ------------------------------------------------------------------ */

#define DEFINE_LOWER_BOUND(SUF, IDX)                                      \
    static i64 lower_bound_##SUF(const IDX *a, i64 lo, i64 hi, i64 key) { \
        while (lo < hi) {                                                 \
            i64 mid = lo + ((hi - lo) >> 1);                              \
            if ((i64)a[mid] < key) lo = mid + 1; else hi = mid;           \
        }                                                                 \
        return lo;                                                        \
    }

DEFINE_LOWER_BOUND(i32, i32)
DEFINE_LOWER_BOUND(i64, i64)

/* ------------------------------------------------------------------ */
/* pair_values: batch edge-membership reads against a base CSR         */
/* ------------------------------------------------------------------ */

#define DEFINE_PAIR_VALUES(SUF, IDX)                                      \
    void repro_pair_values_##SUF(                                         \
            const i64 *indptr, const IDX *indices,                        \
            const i64 *rows, const i64 *cols, i64 npairs, double *out) {  \
        for (i64 k = 0; k < npairs; k++) {                                \
            i64 s = indptr[rows[k]], e = indptr[rows[k] + 1];             \
            i64 p = lower_bound_##SUF(indices, s, e, cols[k]);            \
            out[k] = (p < e && (i64)indices[p] == cols[k]) ? 1.0 : 0.0;   \
        }                                                                 \
    }

DEFINE_PAIR_VALUES(i32, i32)
DEFINE_PAIR_VALUES(i64, i64)

/* ------------------------------------------------------------------ */
/* triangle_counts: diag(A^3) per node, for egonet E features          */
/* ------------------------------------------------------------------ */

/* The forward algorithm (Schank & Wagner 2005; Latapy 2008).  Orient
 * every edge from the lower to the higher (degree, id) endpoint, so each
 * node's out-degree is at most sqrt(2m).  A triangle whose corners rank
 * u < v < w is then found exactly once: as w in out(u) ∩ out(v), on the
 * oriented edge u→v.  Each find credits all three corners, and
 * 2·tri[u] is diag(A^3)[u] — integers, exact in float64.
 *
 * Two passes.  triangle_orient writes the out-lists: `out_ptr` (n + 1)
 * and `out_idx` (`cap` entries, nnz/2 for a symmetric CSR).  It returns
 * 0, or -1 if they overflow `cap`, which only a non-symmetric CSR can
 * cause.  triangle_share counts the triangles found from the nodes
 * u ≡ t (mod T) into its own `tri` and `mark` (n each, set here), and
 * only reads the out-lists, so the T shares can run on T threads at once
 * and their `tri` arrays sum exactly to the whole count.  The
 * intersection marks out(u) in `mark` once per u and scans out(v)
 * against it, so no row needs to be sorted.  About one wedge in five
 * closes a triangle, a pattern no branch predictor learns, so the scan
 * adds the comparison itself instead of branching on it. */
#define DEFINE_TRIANGLE_ORIENT(SUF, IDX)                                  \
    i64 repro_triangle_orient_##SUF(                                      \
            const i64 *indptr, const IDX *indices, i64 n,                 \
            i64 *out_ptr, IDX *out_idx, i64 cap) {                        \
        i64 fill = 0;                                                     \
        out_ptr[0] = 0;                                                   \
        for (i64 u = 0; u < n; u++) {                                     \
            i64 du = indptr[u + 1] - indptr[u];                           \
            for (i64 p = indptr[u]; p < indptr[u + 1]; p++) {             \
                i64 v = (i64)indices[p];                                  \
                i64 dv = indptr[v + 1] - indptr[v];                       \
                if (dv > du || (dv == du && v > u)) {                     \
                    if (fill == cap) return -1;                           \
                    out_idx[fill++] = indices[p];                         \
                }                                                         \
            }                                                             \
            out_ptr[u + 1] = fill;                                        \
        }                                                                 \
        return 0;                                                         \
    }

DEFINE_TRIANGLE_ORIENT(i32, i32)
DEFINE_TRIANGLE_ORIENT(i64, i64)

#define DEFINE_TRIANGLE_SHARE(SUF, IDX)                                   \
    void repro_triangle_share_##SUF(                                      \
            const i64 *out_ptr, const IDX *out_idx, i64 n, i64 t, i64 T,  \
            i64 *tri, i64 *mark) {                                        \
        for (i64 u = 0; u < n; u++) {                                     \
            tri[u] = 0;                                                   \
            mark[u] = -1;                                                 \
        }                                                                 \
        for (i64 u = t; u < n; u += T) {                                  \
            i64 us = out_ptr[u], ue = out_ptr[u + 1];                     \
            for (i64 p = us; p < ue; p++)                                 \
                mark[(i64)out_idx[p]] = u;                                \
            for (i64 p = us; p < ue; p++) {                               \
                i64 v = (i64)out_idx[p], c = 0;                           \
                for (i64 q = out_ptr[v]; q < out_ptr[v + 1]; q++) {       \
                    i64 w = (i64)out_idx[q];                              \
                    i64 h = mark[w] == u;                                 \
                    tri[w] += h;                                          \
                    c += h;                                               \
                }                                                         \
                tri[u] += c;                                              \
                tri[v] += c;                                              \
            }                                                             \
        }                                                                 \
    }

DEFINE_TRIANGLE_SHARE(i32, i32)
DEFINE_TRIANGLE_SHARE(i64, i64)

/* ------------------------------------------------------------------ */
/* merge_novel: union of sorted keys with the first novel new keys     */
/* ------------------------------------------------------------------ */

/* `keys` and `fresh` ascend strictly.  One merge walk copies `keys`,
 * marks each `fresh` key novel when `keys` lacks it, and writes the
 * first `limit` novel keys in place, so `out` (nkeys + min(nfresh, limit)
 * slots) holds the ascending union.  Once `limit` keys are admitted the
 * rest of `keys` is one memcpy.  Returns the union's length.  The numpy
 * reference is repro.graph.sparse.merge_novel (searchsorted + insert). */
i64 repro_merge_novel(const i64 *keys, i64 nkeys, const i64 *fresh,
                      i64 nfresh, i64 limit, i64 *out) {
    i64 i = 0, j = 0, o = 0;
    while (j < nfresh && limit > 0) {
        if (i < nkeys && keys[i] <= fresh[j]) {
            if (keys[i] == fresh[j]) j++;
            out[o++] = keys[i++];
        } else {
            out[o++] = fresh[j++];
            limit--;
        }
    }
    memcpy(out + o, keys + i, (size_t)(nkeys - i) * sizeof(i64));
    return o + nkeys - i;
}

/* ------------------------------------------------------------------ */
/* assemble_csr: symmetric CSR of sorted upper-triangle edge keys      */
/* ------------------------------------------------------------------ */

/* `keys` are the ascending keys u·n + v (u < v) of an undirected graph.
 * Row r of its symmetric CSR is r's lower neighbours (keys (u, r)), then
 * its upper ones (keys (r, v)), each ascending.  A two-pass counting
 * fill: pass one counts every row's entries into `cursor` and prefix-sums
 * them into `indptr`, leaving cursor[r] at row r's first slot; pass two
 * walks the keys again and appends u to row v and v to row u.  Keys
 * ascend, so the lower entries reach each row in ascending u, and all of
 * row u's lower keys (w, u), w < u, precede its first upper key (u, v):
 * each row fills its lower half first.  The row of a key is a cursor that
 * only moves forward, so there is no division.  `cursor` is n scratch
 * slots.  Returns 0, or -1 (before anything but the counts is written)
 * when the keys do not ascend strictly or a key is not a pair u < v < n.
 * The numpy reference is the store builder's _assemble_csr (the upper
 * triangle's tocsc, then two position scatters). */
#define DEFINE_ASSEMBLE_CSR(SUF, IDX)                                     \
    i64 repro_assemble_csr_##SUF(                                         \
            const i64 *keys, i64 m, i64 n, i64 *cursor, IDX *indptr,      \
            IDX *indices) {                                               \
        i64 u = 0, fill = 0;                                              \
        for (i64 r = 0; r < n; r++)                                       \
            cursor[r] = 0;                                                \
        for (i64 k = 0; k < m; k++) {                                     \
            i64 key = keys[k];                                            \
            if (key < 0 || key >= n * n || (k > 0 && key <= keys[k - 1])) \
                return -1;                                                \
            while (key >= (u + 1) * n) u++;                               \
            i64 v = key - u * n;                                          \
            if (v <= u) return -1;                                        \
            cursor[u]++;                                                  \
            cursor[v]++;                                                  \
        }                                                                 \
        indptr[0] = 0;                                                    \
        for (i64 r = 0; r < n; r++) {                                     \
            i64 count = cursor[r];                                        \
            cursor[r] = fill;                                             \
            fill += count;                                                \
            indptr[r + 1] = (IDX)fill;                                    \
        }                                                                 \
        u = 0;                                                            \
        for (i64 k = 0; k < m; k++) {                                     \
            while (keys[k] >= (u + 1) * n) u++;                           \
            i64 v = keys[k] - u * n;                                      \
            indices[cursor[v]++] = (IDX)u;                                \
            indices[cursor[u]++] = (IDX)v;                                \
        }                                                                 \
        return 0;                                                         \
    }

DEFINE_ASSEMBLE_CSR(i32, i32)
DEFINE_ASSEMBLE_CSR(i64, i64)

/* ------------------------------------------------------------------ */
/* is_symmetric: structural symmetry of a CSR by one cursor walk       */
/* ------------------------------------------------------------------ */

/* The rows must already be strictly ascending, free of diagonal entries
 * and within 0..n-1 (repro.graph.sparse.check_csr tests these first).
 * cursor[c] is row c's next unconsumed entry, starting at its first.
 * Rows are walked in ascending r, each from its cursor on; every walked
 * entry (r, c) must find r at row c's cursor, and consumes it.  Every
 * entry is therefore walked, and has its mirror, or was consumed as the
 * mirror of a walked one, so a return of 1 means A == Aᵀ.  On a
 * symmetric CSR row c's lower entries are ascending and are consumed by
 * the rows r < c in ascending r, so each row's walk starts at its first
 * upper entry; an unconsumed lower entry (never mirrored) is walked and
 * fails its own mirror lookup.  Each entry is read at most twice.
 * `cursor` is n scratch slots.  Returns 1 when the structure equals its
 * transpose, else 0.  The numpy reference compares the structure with
 * scipy's tocsc of it. */
#define DEFINE_IS_SYMMETRIC(SUF, IDX)                                     \
    i64 repro_is_symmetric_##SUF(                                         \
            const i64 *indptr, const IDX *indices, i64 n, i64 *cursor) {  \
        for (i64 r = 0; r < n; r++)                                       \
            cursor[r] = indptr[r];                                        \
        for (i64 r = 0; r < n; r++) {                                     \
            for (i64 p = cursor[r]; p < indptr[r + 1]; p++) {             \
                i64 c = (i64)indices[p], q = cursor[c];                   \
                if (q == indptr[c + 1] || (i64)indices[q] != r) return 0; \
                cursor[c] = q + 1;                                        \
            }                                                             \
        }                                                                 \
        return 1;                                                         \
    }

DEFINE_IS_SYMMETRIC(i32, i32)
DEFINE_IS_SYMMETRIC(i64, i64)

/* ------------------------------------------------------------------ */
/* scatter_gradient: per-pair closed-form gradient over candidates     */
/* ------------------------------------------------------------------ */

/* The numpy reference (_scatter_pair_gradient) groups pairs by hub h and,
 * per hub, runs two O(m) sparse mat-vecs against the dense effective hub
 * row x (base row of h, then `x[other] += d` for every Δ entry touching h,
 * in overlay order).  For partner p it therefore sums, for ascending c,
 *
 *     cc += A[p,c] * x[c]          cw += A[p,c] * (x[c] * d_e[c])
 *
 * over every stored c of row p, then adds the Δ fixups of p in overlay
 * order.  The wrapper hands over the reference's stable hub grouping
 * (`order`, and `hubs`/`partners` in grouped order), and this kernel folds
 * x into the dense `work` array once per group, then takes whichever of
 * two walks visits fewer CSR entries:
 *
 *   - pull, cost Σ_{p in group} deg(p): walk each partner's row against
 *     `work` — the reference's term sequence exactly;
 *   - push, cost Σ_{c in row(h) ∪ Δ-added columns} deg(c): for each c of
 *     x's support in ascending order, walk row c and add A[c,p]*x[c] and
 *     A[c,p]*(x[c]*d_e[c]) into per-node accumulators `acc[2p]`,
 *     `acc[2p+1]`, then read them off at the group's partners.
 *
 * Push is bit-identical to pull under two conditions:
 *   - A == Aᵀ bitwise (structure and values).  Push reads row c where pull
 *     reads column c of row p; with symmetry both see the same A[p,c], the
 *     same nonzero terms, in the same ascending-c order.  Every engine CSR
 *     (store, payload, flip-materialised, relaxed base + overlay) is
 *     symmetric; a non-symmetric matrix gets a different, wrong answer;
 *   - d_e is finite.  Pull's extra terms (c outside x's support) are
 *     A[p,c]*0.0 = ±0.0.  Both accumulators start at +0.0 and round-to-
 *     nearest addition never yields -0.0 unless both operands are -0.0, so
 *     an accumulator is never -0.0 and adding ±0.0 leaves it unchanged.
 *
 * Both walks then share the Δ fixups and the final write (finish_pair),
 * which adds the endpoint terms left to right, as numpy's
 * `d_n[rows] + d_n[cols] + d_e[rows] + d_e[cols]` does, and stores the
 * pair's gradient at its caller position order[k]:
 *
 *     grad[order[k]] = d_n[r] + d_n[c] + d_e[r] + d_e[c]
 *                      + ((d_e[h] + d_e[p]) * cc + cw)
 *
 * with (r, c) = (rows, cols)[order[k]].  `work` and `acc` are
 * caller-zeroed and returned to all-zeros: `work` by re-walking x's
 * support, `acc` by a memset when 2·push > n and by re-walking the pushed
 * rows otherwise.  `extra` is scratch for ndelta sorted Δ-added columns.
 *
 * The Δ index.  The hub fold and the fixups each need the Δ entries
 * touching one node, in overlay order.  delta_index links them into
 * per-node lists once per call, in O(|Δ|).  Slots are 1-based, so that
 * zero means "none": slot 2t+1 is entry t seen from du[t], slot 2t+2 the
 * same entry seen from dv[t] (unused when du[t] == dv[t]).  `dhead[x]` is
 * x's first slot and `dnext[s-1]` the slot after s.  A pair whose partner
 * no entry touches skips its fixups after one load, so the Δ work of a
 * call is O(|C| + |Δ|) plus one step per touching (pair, entry), not |Δ|
 * steps per pair.  `dhead` (n entries) is caller-zeroed and returned to
 * all-zeros; `dnext` holds 2·ndelta slots.  With no Δ neither is read, so
 * the caller may pass one-element arrays.
 *
 * Returns the number of CSR entries walked (Σ per group of min(push,
 * pull); ties go to pull). */
static void delta_index(const i64 *du, const i64 *dv, i64 ndelta,
                        i64 *dhead, i64 *dnext) {
    /* Prepend in descending entry order, so each list ascends. */
    for (i64 t = ndelta - 1; t >= 0; t--) {
        if (dv[t] != du[t]) {
            dnext[2 * t + 1] = dhead[dv[t]];
            dhead[dv[t]] = 2 * t + 2;
        }
        dnext[2 * t] = dhead[du[t]];
        dhead[du[t]] = 2 * t + 1;
    }
}

/* The other endpoint of the entry behind 1-based Δ slot s. */
static i64 slot_other(const i64 *du, const i64 *dv, i64 s) {
    i64 t = (s - 1) >> 1;
    return ((s - 1) & 1) ? du[t] : dv[t];
}

static void finish_pair(const double *d_n, const double *d_e,
                        const double *work, const i64 *du, const i64 *dv,
                        const double *dd, const i64 *dhead,
                        const i64 *dnext, i64 r, i64 c, i64 h, i64 p,
                        double cc, double cw, double *grad_k) {
    if (dhead) {
        for (i64 s = dhead[p]; s; s = dnext[s - 1]) {
            i64 other = slot_other(du, dv, s);
            double d = dd[(s - 1) >> 1], hv = work[other];
            cc += d * hv;
            cw += d * hv * d_e[other];
        }
    }
    *grad_k = d_n[r] + d_n[c] + d_e[r] + d_e[c]
              + ((d_e[h] + d_e[p]) * cc + cw);
}

#define DEFINE_SCATTER_GRADIENT(SUF, IDX)                                 \
    /* Walk x's support (row hs..he merged with the sorted extras) in     \
     * ascending column order; accumulate into acc, or zero what an       \
     * accumulating walk touched. */                                      \
    static void push_walk_##SUF(                                          \
            const i64 *indptr, const IDX *indices, const double *data,    \
            const double *d_e, i64 hs, i64 he, const i64 *extra, i64 ne,  \
            const double *work, double *acc, int clear) {                 \
        i64 j = hs, x = 0;                                                \
        while (j < he || x < ne) {                                        \
            i64 c;                                                        \
            if (x == ne || (j < he && (i64)indices[j] < extra[x]))        \
                c = (i64)indices[j++];                                    \
            else                                                          \
                c = extra[x++];                                           \
            if (clear) {                                                  \
                for (i64 i = indptr[c]; i < indptr[c + 1]; i++) {         \
                    i64 p = (i64)indices[i];                              \
                    acc[2 * p] = 0.0;                                     \
                    acc[2 * p + 1] = 0.0;                                 \
                }                                                         \
                continue;                                                 \
            }                                                             \
            double hv = work[c], hw = hv * d_e[c];                        \
            for (i64 i = indptr[c]; i < indptr[c + 1]; i++) {             \
                i64 p = (i64)indices[i];                                  \
                acc[2 * p] += data[i] * hv;                               \
                acc[2 * p + 1] += data[i] * hw;                           \
            }                                                             \
        }                                                                 \
    }                                                                     \
                                                                          \
    i64 repro_scatter_gradient_##SUF(                                     \
            const i64 *indptr, const IDX *indices, const double *data,    \
            const double *d_n, const double *d_e, const i64 *rows,        \
            const i64 *cols, const i64 *order, const i64 *hubs,           \
            const i64 *partners, i64 npairs, const i64 *du,               \
            const i64 *dv, const double *dd, i64 ndelta, i64 n,           \
            i64 *dhead, i64 *dnext, i64 *extra, double *work,             \
            double *acc, double *grad) {                                  \
        i64 walked = 0;                                                   \
        if (ndelta > 0)                                                   \
            delta_index(du, dv, ndelta, dhead, dnext);                    \
        else                                                              \
            dhead = NULL;                                                 \
        for (i64 lo = 0, hi; lo < npairs; lo = hi) {                      \
            i64 h = hubs[lo];                                             \
            for (hi = lo + 1; hi < npairs && hubs[hi] == h; hi++) {}      \
            i64 hs = indptr[h], he = indptr[h + 1], ne = 0;               \
            for (i64 j = hs; j < he; j++)                                 \
                work[(i64)indices[j]] = data[j];                          \
            for (i64 s = dhead ? dhead[h] : 0; s; s = dnext[s - 1]) {     \
                i64 other = slot_other(du, dv, s);                        \
                work[other] += dd[(s - 1) >> 1];                          \
                i64 pos = lower_bound_##SUF(indices, hs, he, other);      \
                if (pos < he && (i64)indices[pos] == other) continue;     \
                i64 q = ne;                                               \
                while (q > 0 && extra[q - 1] > other) q--;                \
                if (q > 0 && extra[q - 1] == other) continue;             \
                memmove(extra + q + 1, extra + q,                         \
                        (size_t)(ne - q) * sizeof(i64));                  \
                extra[q] = other;                                         \
                ne++;                                                     \
            }                                                             \
            i64 push = 0, pull = 0;                                       \
            for (i64 j = hs; j < he; j++) {                               \
                i64 c = (i64)indices[j];                                  \
                push += indptr[c + 1] - indptr[c];                        \
            }                                                             \
            for (i64 x = 0; x < ne; x++)                                  \
                push += indptr[extra[x] + 1] - indptr[extra[x]];          \
            for (i64 k = lo; k < hi; k++)                                 \
                pull += indptr[partners[k] + 1] - indptr[partners[k]];    \
            if (push < pull) {                                            \
                push_walk_##SUF(indptr, indices, data, d_e, hs, he,       \
                                extra, ne, work, acc, 0);                 \
                for (i64 k = lo; k < hi; k++) {                           \
                    i64 p = partners[k], o = order[k];                    \
                    finish_pair(d_n, d_e, work, du, dv, dd, dhead, dnext, \
                                rows[o], cols[o], h, p, acc[2 * p],       \
                                acc[2 * p + 1], grad + o);                \
                }                                                         \
                if (2 * push > n)                                         \
                    memset(acc, 0, (size_t)(2 * n) * sizeof(double));     \
                else                                                      \
                    push_walk_##SUF(indptr, indices, data, d_e, hs, he,   \
                                    extra, ne, work, acc, 1);             \
                walked += push;                                           \
            } else {                                                      \
                for (i64 k = lo; k < hi; k++) {                           \
                    i64 p = partners[k], o = order[k];                    \
                    double cc = 0.0, cw = 0.0;                            \
                    for (i64 i = indptr[p]; i < indptr[p + 1]; i++) {     \
                        i64 c = (i64)indices[i];                          \
                        double hv = work[c];                              \
                        cc += data[i] * hv;                               \
                        cw += data[i] * (hv * d_e[c]);                    \
                    }                                                     \
                    finish_pair(d_n, d_e, work, du, dv, dd, dhead, dnext, \
                                rows[o], cols[o], h, p, cc, cw,           \
                                grad + o);                                \
                }                                                         \
                walked += pull;                                           \
            }                                                             \
            for (i64 j = hs; j < he; j++)                                 \
                work[(i64)indices[j]] = 0.0;                              \
            for (i64 x = 0; x < ne; x++)                                  \
                work[extra[x]] = 0.0;                                     \
        }                                                                 \
        for (i64 t = 0; t < ndelta; t++)                                  \
            dhead[du[t]] = dhead[dv[t]] = 0;                              \
        return walked;                                                    \
    }

DEFINE_SCATTER_GRADIENT(i32, i32)
DEFINE_SCATTER_GRADIENT(i64, i64)
