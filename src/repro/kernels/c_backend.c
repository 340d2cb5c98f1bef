/*
 * C implementations of the two hot kernels of repro.kernels, loaded
 * through ctypes by c_backend.py (which builds this file on first use).
 *
 * Both functions are scalar ports of the numba backend's loops, so the
 * bit-identity argument of numba_backend.py carries over unchanged:
 * merge_level ranks candidates by the same (size, leaves) key, keeps the
 * first of equal leaf sets and applies the same singleton/pair dominance;
 * kahn_propagate computes longest-path values, which are unique whatever
 * the processing order.
 *
 * Contract with the wrapper:
 *   - no static state: every call owns its scratch, so concurrent calls
 *     from threads (ctypes releases the GIL) are safe;
 *   - scratch lives on the heap, sized from the caller's slot count;
 *   - a return of KERNEL_NO_MEMORY means an allocation failed, a return
 *     of KERNEL_BAD_INPUT means an index or count was out of range; in
 *     both cases nothing was read or written out of bounds.
 * The code is integer-only, so its output does not depend on compiler
 * flags.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define KERNEL_OK 0
#define KERNEL_NO_MEMORY 1
#define KERNEL_BAD_INPUT 2

/* Runs below this length are insertion-sorted before merging. */
#define SORT_RUN 16

/* Candidate a ranks after candidate b under the (size, leaves) key. */
static int cand_greater(const int8_t *size, const int32_t *leaves,
                        int64_t a, int64_t b)
{
    if (size[a] != size[b])
        return size[a] > size[b];
    for (int t = 0; t < 3; t++) {
        if (leaves[3 * a + t] != leaves[3 * b + t])
            return leaves[3 * a + t] > leaves[3 * b + t];
    }
    return 0;
}

/* Stable sort of order[0..n) by the candidate key; tmp holds n entries. */
static void sort_candidates(int64_t *order, int64_t *tmp, int64_t n,
                            const int8_t *size, const int32_t *leaves)
{
    for (int64_t lo = 0; lo < n; lo += SORT_RUN) {
        int64_t hi = lo + SORT_RUN < n ? lo + SORT_RUN : n;
        for (int64_t x = lo + 1; x < hi; x++) {
            int64_t current = order[x];
            int64_t y = x - 1;
            while (y >= lo && cand_greater(size, leaves, order[y], current)) {
                order[y + 1] = order[y];
                y--;
            }
            order[y + 1] = current;
        }
    }
    for (int64_t width = SORT_RUN; width < n; width *= 2) {
        for (int64_t lo = 0; lo + width < n; lo += 2 * width) {
            int64_t mid = lo + width;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, out = lo;
            memcpy(tmp + lo, order + lo, (size_t)(hi - lo) * sizeof(int64_t));
            while (i < mid && j < hi) {
                /* Take the right run only when strictly smaller: stable. */
                if (cand_greater(size, leaves, tmp[i], tmp[j]))
                    order[out++] = tmp[j++];
                else
                    order[out++] = tmp[i++];
            }
            while (i < mid)
                order[out++] = tmp[i++];
            while (j < hi)
                order[out++] = tmp[j++];
        }
    }
}

static int has_leaf(const int32_t *cut, int32_t leaf)
{
    return cut[0] == leaf || cut[1] == leaf || cut[2] == leaf;
}

/*
 * One topological level's cut merge (see numpy_backend.merge_level for
 * the contract).  leaves is (num_vars, slots, 3) int32, truths and sizes
 * are (num_vars, slots), counts is (num_vars,); all C-contiguous and
 * written in place for the nodes of batch.  expand_lut is the (8, 256)
 * EXPAND_LUT, width_mask the 7-entry truth-domain mask by cut size.
 */
int merge_level(const int64_t *batch, int64_t batch_len,
                const int64_t *fanin0, const int64_t *fanin1,
                int64_t num_vars, int32_t *leaves, uint8_t *truths,
                int8_t *sizes, int32_t *counts, int64_t slots, int64_t k,
                int64_t max_cuts, int64_t include_trivial, int32_t pad,
                uint8_t trivial_truth, const uint8_t *expand_lut,
                const uint8_t *width_mask)
{
    if (k < 1 || k > 3 || slots < 1 || max_cuts < 0
            || max_cuts + (include_trivial ? 1 : 0) > slots)
        return KERNEL_BAD_INPUT;
    int64_t grid = slots * slots;
    int32_t *cand_leaves = malloc((size_t)grid * 3 * sizeof(int32_t));
    uint8_t *cand_truth = malloc((size_t)grid);
    int8_t *cand_size = malloc((size_t)grid);
    uint8_t *keep = malloc((size_t)grid);
    int64_t *order = malloc((size_t)grid * 2 * sizeof(int64_t));
    int status = KERNEL_OK;
    if (!cand_leaves || !cand_truth || !cand_size || !keep || !order) {
        status = KERNEL_NO_MEMORY;
        goto done;
    }
    int64_t *sort_tmp = order + grid;

    for (int64_t b = 0; b < batch_len; b++) {
        int64_t node = batch[b];
        if (node < 0 || node >= num_vars) {
            status = KERNEL_BAD_INPUT;
            goto done;
        }
        int64_t lit0 = fanin0[node], lit1 = fanin1[node];
        int64_t v0 = lit0 >> 1, v1 = lit1 >> 1;
        if (lit0 < 0 || lit1 < 0 || v0 >= num_vars || v1 >= num_vars) {
            status = KERNEL_BAD_INPUT;
            goto done;
        }
        uint8_t flip0 = (lit0 & 1) ? 0xFF : 0;
        uint8_t flip1 = (lit1 & 1) ? 0xFF : 0;
        int64_t c0 = counts[v0], c1 = counts[v1];
        if (c0 < 0 || c0 > slots || c1 < 0 || c1 > slots) {
            status = KERNEL_BAD_INPUT;
            goto done;
        }
        int64_t n_cand = 0;
        for (int64_t s0 = 0; s0 < c0; s0++) {
            int64_t row0 = v0 * slots + s0;
            int64_t sz0 = sizes[row0];
            const int32_t *l0 = leaves + 3 * row0;
            if (sz0 < 0 || sz0 > 3) {
                status = KERNEL_BAD_INPUT;
                goto done;
            }
            for (int64_t s1 = 0; s1 < c1; s1++) {
                int64_t row1 = v1 * slots + s1;
                int64_t sz1 = sizes[row1];
                const int32_t *l1 = leaves + 3 * row1;
                if (sz1 < 0 || sz1 > 3) {
                    status = KERNEL_BAD_INPUT;
                    goto done;
                }
                /* Sorted-list union of the two leaf sets, tracking which
                 * fan-in contributed each union position (the EXPAND_LUT
                 * masks) and bailing out past k distinct leaves. */
                int32_t union_leaves[3];
                int64_t i = 0, j = 0, out = 0;
                int mask0 = 0, mask1 = 0, feasible = 1;
                while (i < sz0 || j < sz1) {
                    int32_t a = i < sz0 ? l0[i] : INT32_MAX;
                    int32_t c = j < sz1 ? l1[j] : INT32_MAX;
                    if (out >= k) {
                        feasible = 0;
                        break;
                    }
                    if (a < c) {
                        union_leaves[out] = a;
                        mask0 |= 1 << out;
                        i++;
                    } else if (c < a) {
                        union_leaves[out] = c;
                        mask1 |= 1 << out;
                        j++;
                    } else {
                        union_leaves[out] = a;
                        mask0 |= 1 << out;
                        mask1 |= 1 << out;
                        i++;
                        j++;
                    }
                    out++;
                }
                if (!feasible)
                    continue;
                uint8_t t0 = expand_lut[mask0 * 256 + truths[row0]] ^ flip0;
                uint8_t t1 = expand_lut[mask1 * 256 + truths[row1]] ^ flip1;
                cand_truth[n_cand] = (uint8_t)(t0 & t1 & width_mask[out]);
                cand_size[n_cand] = (int8_t)out;
                for (int64_t t = 0; t < 3; t++)
                    cand_leaves[3 * n_cand + t] = t < out ? union_leaves[t] : pad;
                n_cand++;
            }
        }

        for (int64_t x = 0; x < n_cand; x++)
            order[x] = x;
        sort_candidates(order, sort_tmp, n_cand, cand_size, cand_leaves);

        /* Dedup: equal leaf sets are adjacent after the sort (equal leaves
         * imply equal size); keep the first occurrence. */
        for (int64_t x = 0; x < n_cand; x++) {
            int64_t ci = order[x];
            int duplicate = 0;
            if (x > 0) {
                int64_t pi = order[x - 1];
                duplicate = cand_leaves[3 * ci] == cand_leaves[3 * pi]
                    && cand_leaves[3 * ci + 1] == cand_leaves[3 * pi + 1]
                    && cand_leaves[3 * ci + 2] == cand_leaves[3 * pi + 2];
            }
            keep[ci] = !duplicate;
        }

        /* Dominance: singletons dominate any superset, pairs dominate
         * covering triples.  Clearing a victim before later candidates
         * check it is safe: dominance is transitive and singletons are
         * never dominated, so whatever killed a pair kills its triples. */
        for (int64_t x = 0; x < n_cand; x++) {
            int64_t ci = order[x];
            int8_t size_c = cand_size[ci];
            if (!keep[ci] || size_c < 2)
                continue;
            const int32_t *cut = cand_leaves + 3 * ci;
            for (int64_t y = 0; y < n_cand; y++) {
                int64_t cj = order[y];
                if (cand_size[cj] >= size_c)
                    break; /* sorted by size: no smaller cuts remain */
                if (!keep[cj])
                    continue;
                const int32_t *sub = cand_leaves + 3 * cj;
                if ((cand_size[cj] == 1 && has_leaf(cut, sub[0]))
                        || (cand_size[cj] == 2 && size_c == 3
                            && has_leaf(cut, sub[0])
                            && has_leaf(cut, sub[1]))) {
                    keep[ci] = 0;
                    break;
                }
            }
        }

        int64_t kept = 0;
        for (int64_t x = 0; x < n_cand && kept < max_cuts; x++) {
            int64_t ci = order[x];
            if (!keep[ci])
                continue;
            int64_t row = node * slots + kept;
            memcpy(leaves + 3 * row, cand_leaves + 3 * ci, 3 * sizeof(int32_t));
            truths[row] = cand_truth[ci];
            sizes[row] = cand_size[ci];
            kept++;
        }
        if (include_trivial) {
            int64_t row = node * slots + kept;
            leaves[3 * row] = (int32_t)node;
            truths[row] = trivial_truth;
            sizes[row] = 1;
            kept++;
        }
        counts[node] = (int32_t)kept;
    }

done:
    free(cand_leaves);
    free(cand_truth);
    free(cand_size);
    free(keep);
    free(order);
    return status;
}

/*
 * In-place longest-path propagation over a CSR producer->consumer index
 * (see numpy_backend.kahn_propagate): indptr has n + 1 entries into
 * consumers (num_edges entries); indegree and values have n entries and
 * indegree is consumed as scratch.  A node is pushed only when its
 * indegree is, or drops to, exactly zero, so at most n nodes are ever
 * pushed and the n-entry stack cannot overflow.
 */
int kahn_propagate(const int64_t *indptr, const int64_t *consumers,
                   int64_t num_edges, int64_t *indegree, int64_t *values,
                   int64_t n)
{
    int64_t *stack = malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (!stack)
        return KERNEL_NO_MEMORY;
    int status = KERNEL_OK;
    int64_t top = 0;
    for (int64_t node = 0; node < n; node++) {
        if (indegree[node] == 0)
            stack[top++] = node;
    }
    while (top > 0) {
        int64_t node = stack[--top];
        int64_t start = indptr[node], end = indptr[node + 1];
        if (start < 0 || end < start || end > num_edges) {
            status = KERNEL_BAD_INPUT;
            break;
        }
        int64_t relaxed = values[node] + 1;
        for (int64_t e = start; e < end; e++) {
            int64_t child = consumers[e];
            if (child < 0 || child >= n) {
                status = KERNEL_BAD_INPUT;
                goto done;
            }
            if (values[child] < relaxed)
                values[child] = relaxed;
            if (--indegree[child] == 0)
                stack[top++] = child;
        }
    }
done:
    free(stack);
    return status;
}
