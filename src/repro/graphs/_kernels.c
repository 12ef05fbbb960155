/* Weighted shortest-path kernels over CSR slabs.
 *
 * Compiled on demand by repro.graphs._ckernels (cc -O3 -shared) and called
 * through ctypes; when no C compiler is available the pure-Python kernels in
 * repro.graphs.csr run instead.  Both tiers implement the same contract, and
 * the differential tests assert bit-identical distances and predecessors
 * against the dict-based reference engine.
 *
 * Shared semantics (identical to the Python kernels):
 *
 *   - Nodes settle in (distance, node id) order.
 *   - Equal-distance predecessor ties resolve toward the smaller id.
 *   - Distances are IEEE doubles accumulated as dist[pred] + weight, so the
 *     floating-point results match the Python engines bit for bit.
 *   - The scratch arena (dist / pred / seen) is generation-stamped: a search
 *     touches O(settled + scanned) state, never O(n), which keeps truncated
 *     searches (k-nearest, radius) cheap inside large batches.
 *
 * Three kernels, static: the batch layer below is their only caller, so
 * every search goes through a batched entry point.
 *
 *   spt_heap4 -- Dijkstra over an indexed 4-ary heap with position-tracked
 *     decrease-key.  Each node is stored at most once (pos[] tracks its
 *     slot), so there are no stale entries, no tuple allocation, and no
 *     per-search allocation at all: heap and pos are preallocated n-slot
 *     arena arrays.
 *
 *   spt_dial -- Dial-style bucket queue for graphs whose weights are all
 *     integer multiples of one power-of-two quantum.  Distances are then
 *     exact multiples of the quantum, bucket indices are exact integers, and
 *     the circular bucket ring needs only max_quanta + 1 slots.  Entries are
 *     lazily deleted: a decrease appends a fresh entry and the stale one is
 *     dropped when its slot is swept (dist[node] no longer matches the
 *     slot's level).  Each directed edge relaxes at most once, so the entry
 *     pool is bounded by 2m + 1 slots.  A slot's live entries are all at
 *     its distance, so they settle in ascending id order (order_ids).
 *
 *   spt_bfs -- level-ordered BFS for unit-weight graphs (hop-count
 *     topologies: G(n,m), the Internet-like maps, real AS-links datasets).
 *     Each frontier is put in ascending id order (order_ids) before it
 *     settles, the truncated last level of a k-nearest search included,
 *     which reproduces the (distance, id) settle order at truncation
 *     boundaries and makes the first discoverer of a node its min-id
 *     parent -- the heap kernel's tie-break with no per-edge comparison.
 *     Distances are written at settlement, not discovery, exactly like the
 *     Python BFS kernel.
 *
 * Ordering a level costs no comparisons: node ids are integers in [0, n),
 * so order_ids runs ceil(log2(n) / 8) byte-radix passes over the level.
 * Its scratch is the unused tail of the settle-order array: the nodes of a
 * level are distinct and not yet settled, so settled + count <= n and
 * order[settled .. settled + count) is free until they settle into it.
 *
 * Below the kernels: slab and ingestion helpers, the batch layer (a whole
 * build phase per call, fanned over threads), and the churn layer (a whole
 * event pass per call: repair_rows, closest_refold, vicinity_candidates,
 * vicinity_repair, vicinity_commit, shift_offsets).  The churn layer
 * repairs search results in place instead of searching; its header states
 * the contract that keeps a repaired row bit-identical to these kernels'
 * output -- one float add per relaxation, parent = min-id tight neighbour,
 * and why the order in which equal-distance nodes leave its heap cannot
 * change the fixpoint.  Last, the overlay layer (overlay_fingers): Disco's
 * finger draws for a whole overlay build, on a replay of CPython's
 * Mersenne Twister.
 */

#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

#define RADIUS_NONE 0
#define RADIUS_STRICT 1
#define RADIUS_INCLUSIVE 2

/* Sort ids[0..count), node ids in [0, n), ascending: LSD byte-radix passes
 * between ids and scratch (count slots), or an insertion sort where that
 * beats the passes' 256-entry histogram sweeps. */
#define ORDER_INSERTION_MAX 24

static void order_ids(i64 *ids, i64 count, i64 n, i64 *scratch)
{
    if (count <= ORDER_INSERTION_MAX) {
        for (i64 i = 1; i < count; i++) {
            i64 id = ids[i], j = i;
            for (; j > 0 && ids[j - 1] > id; j--)
                ids[j] = ids[j - 1];
            ids[j] = id;
        }
        return;
    }
    i64 *src = ids, *dst = scratch;
    for (int shift = 0; ((n - 1) >> shift) != 0; shift += 8) {
        i64 start[256] = {0};
        for (i64 i = 0; i < count; i++)
            start[(src[i] >> shift) & 255]++;
        i64 position = 0;
        for (int digit = 0; digit < 256; digit++) {
            i64 size = start[digit];
            start[digit] = position;
            position += size;
        }
        for (i64 i = 0; i < count; i++)
            dst[start[(src[i] >> shift) & 255]++] = src[i];
        i64 *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != ids)
        memcpy(ids, src, sizeof(i64) * (size_t)count);
}

static i64 setup_targets(i64 n, const i64 *targets, i64 num_targets,
                         unsigned char *tflag)
{
    i64 remaining = 0;
    memset(tflag, 0, (size_t)n);
    for (i64 t = 0; t < num_targets; t++) {
        if (!tflag[targets[t]]) {
            tflag[targets[t]] = 1;
            remaining++;
        }
    }
    return remaining;
}

/* ------------------------------------------------------------------ heap4 */

static i64 spt_heap4(
    i64 n,
    const i64 *offsets, const i64 *neighbors, const double *weights,
    i64 source,
    double *dist, i64 *pred, i64 *seen, i64 generation,
    i64 *order,
    i64 *heap, i64 *pos,
    i64 k,                       /* <= 0: unbounded */
    double radius, i64 radius_mode,
    const i64 *targets, i64 num_targets, unsigned char *tflag)
{
    i64 settled = 0, size = 1, remaining = 0;

    if (num_targets > 0)
        remaining = setup_targets(n, targets, num_targets, tflag);

    seen[source] = generation;
    dist[source] = 0.0;
    pred[source] = -1;
    heap[0] = source;
    pos[source] = 0;

    while (size) {
        if (k > 0 && settled >= k)
            break;
        i64 node = heap[0];
        double d = dist[node];
        if (radius_mode == RADIUS_INCLUSIVE) {
            if (d > radius)
                break;
        } else if (radius_mode == RADIUS_STRICT) {
            if (d >= radius && node != source)
                break;
        }

        /* pop-min: move the last leaf to the root and sift it down. */
        size--;
        if (size) {
            i64 moved = heap[size];
            double md = dist[moved];
            i64 i = 0;
            for (;;) {
                i64 child = (i << 2) + 1;
                if (child >= size)
                    break;
                i64 end = child + 4;
                if (end > size)
                    end = size;
                i64 best = child;
                i64 bn = heap[child];
                double bd = dist[bn];
                for (i64 j = child + 1; j < end; j++) {
                    i64 cn = heap[j];
                    double cd = dist[cn];
                    if (cd < bd || (cd == bd && cn < bn)) {
                        best = j;
                        bn = cn;
                        bd = cd;
                    }
                }
                if (bd < md || (bd == md && bn < moved)) {
                    heap[i] = bn;
                    pos[bn] = i;
                    i = best;
                } else {
                    break;
                }
            }
            heap[i] = moved;
            pos[moved] = i;
        }

        order[settled++] = node;
        if (remaining > 0 && tflag[node]) {
            tflag[node] = 0;
            if (--remaining == 0)
                break;
        }

        for (i64 e = offsets[node]; e < offsets[node + 1]; e++) {
            i64 nb = neighbors[e];
            double candidate = d + weights[e];
            if (seen[nb] != generation) {
                seen[nb] = generation;
                dist[nb] = candidate;
                pred[nb] = node;
                /* insert at the end and sift up */
                i64 i = size++;
                while (i) {
                    i64 parent = (i - 1) >> 2;
                    i64 pn = heap[parent];
                    double pd = dist[pn];
                    if (candidate < pd || (candidate == pd && nb < pn)) {
                        heap[i] = pn;
                        pos[pn] = i;
                        i = parent;
                    } else {
                        break;
                    }
                }
                heap[i] = nb;
                pos[nb] = i;
            } else {
                double current = dist[nb];
                if (candidate < current) {
                    /* decrease-key: update in place and sift up from pos. */
                    dist[nb] = candidate;
                    pred[nb] = node;
                    i64 i = pos[nb];
                    while (i) {
                        i64 parent = (i - 1) >> 2;
                        i64 pn = heap[parent];
                        double pd = dist[pn];
                        if (candidate < pd || (candidate == pd && nb < pn)) {
                            heap[i] = pn;
                            pos[pn] = i;
                            i = parent;
                        } else {
                            break;
                        }
                    }
                    heap[i] = nb;
                    pos[nb] = i;
                } else if (candidate == current && node < pred[nb]) {
                    pred[nb] = node;
                }
            }
        }
    }
    return settled;
}

/* ------------------------------------------------------------------- dial */

static i64 spt_dial(
    i64 n,
    const i64 *offsets, const i64 *neighbors, const double *weights,
    i64 source,
    double *dist, i64 *pred, i64 *seen, i64 generation,
    i64 *order,
    double quantum, i64 num_slots,   /* max_quanta + 1 circular slots */
    i64 *head,                       /* num_slots entries, reset on exit */
    i64 *pool_node, i64 *pool_next,  /* 2m + 1 entries */
    i64 *batch,                      /* n-slot scratch for one bucket */
    i64 k,
    double radius, i64 radius_mode,
    const i64 *targets, i64 num_targets, unsigned char *tflag)
{
    i64 settled = 0, pending = 1, pool_used = 0, remaining = 0;
    i64 level_q = 0; /* current level in quanta */
    double inv_quantum = 1.0 / quantum;
    i64 slot, stop = 0;

    if (num_targets > 0)
        remaining = setup_targets(n, targets, num_targets, tflag);

    for (slot = 0; slot < num_slots; slot++)
        head[slot] = -1;

    seen[source] = generation;
    dist[source] = 0.0;
    pred[source] = -1;
    pool_node[0] = source;
    pool_next[0] = -1;
    head[0] = 0;
    pool_used = 1;

    while (pending && !stop) {
        slot = level_q % num_slots;
        i64 entry = head[slot];
        if (entry < 0) {
            level_q++;
            continue;
        }
        head[slot] = -1;
        double level = (double)level_q * quantum;

        if (radius_mode == RADIUS_INCLUSIVE) {
            if (level > radius)
                break;
        } else if (radius_mode == RADIUS_STRICT) {
            if (level >= radius && level_q > 0)
                break;
        }

        /* Collect the live entries; everything in this slot either has
         * dist == level (live, final) or was decreased away (stale). */
        i64 count = 0;
        while (entry >= 0) {
            i64 node = pool_node[entry];
            pending--;
            if (dist[node] == level)
                batch[count++] = node;
            entry = pool_next[entry];
        }
        /* The live entries are distinct (a node is re-appended only on a
         * strict decrease, which lands in another slot) and unsettled, so
         * settled + count <= n and the tail of order is free scratch. */
        order_ids(batch, count, n, order + settled);

        for (i64 b = 0; b < count; b++) {
            i64 node = batch[b];
            if (k > 0 && settled >= k) {
                stop = 1;
                break;
            }
            order[settled++] = node;
            if (remaining > 0 && tflag[node]) {
                tflag[node] = 0;
                if (--remaining == 0) {
                    stop = 1;
                    break;
                }
            }
            for (i64 e = offsets[node]; e < offsets[node + 1]; e++) {
                i64 nb = neighbors[e];
                double candidate = level + weights[e];
                if (seen[nb] != generation) {
                    seen[nb] = generation;
                } else {
                    double current = dist[nb];
                    if (candidate < current) {
                        /* fall through to the append below */
                    } else {
                        if (candidate == current && node < pred[nb])
                            pred[nb] = node;
                        continue;
                    }
                }
                dist[nb] = candidate;
                pred[nb] = node;
                i64 cslot = (i64)(candidate * inv_quantum) % num_slots;
                pool_node[pool_used] = nb;
                pool_next[pool_used] = head[cslot];
                head[cslot] = pool_used;
                pool_used++;
                pending++;
            }
        }
        level_q++;
    }

    /* Leave the ring clean for the next search (only slots that may still
     * hold entries: those of pending stale nodes).  O(num_slots). */
    for (slot = 0; slot < num_slots; slot++)
        head[slot] = -1;
    return settled;
}

/* -------------------------------------------------------------------- bfs */

static i64 spt_bfs(
    i64 n,
    const i64 *offsets, const i64 *neighbors,
    i64 source,
    double *dist, i64 *pred, i64 *seen, i64 generation,
    i64 *order,
    i64 *frontier, i64 *next_frontier,  /* n slots each */
    i64 k,                              /* <= 0: unbounded */
    double radius, i64 radius_mode,
    const i64 *targets, i64 num_targets, unsigned char *tflag)
{
    i64 settled = 0, remaining = 0;
    i64 fsize = 1;
    double level = 0.0;

    if (num_targets > 0)
        remaining = setup_targets(n, targets, num_targets, tflag);

    seen[source] = generation;
    pred[source] = -1;
    frontier[0] = source;

    while (fsize) {
        if (radius_mode == RADIUS_INCLUSIVE) {
            if (level > radius)
                break;
        } else if (radius_mode == RADIUS_STRICT) {
            if (level >= radius && level > 0.0)
                break;
        }
        /* Frontier nodes are distinct (stamped seen at discovery) and
         * unsettled, so settled + fsize <= n and the tail of order is free
         * scratch.  The truncated level is ordered whole as well: its
         * smallest ids are the ones that settle. */
        order_ids(frontier, fsize, n, order + settled);
        if (k > 0) {
            i64 room = k - settled;
            if (fsize >= room) {
                /* The truncated level is settled without scanning its
                 * edges: anything it would discover can never settle. */
                for (i64 i = 0; i < room; i++) {
                    i64 node = frontier[i];
                    dist[node] = level;
                    order[settled++] = node;
                }
                break;
            }
        }
        i64 nsize = 0, stop = 0;
        for (i64 i = 0; i < fsize; i++) {
            i64 node = frontier[i];
            dist[node] = level;
            order[settled++] = node;
            if (remaining > 0 && tflag[node]) {
                tflag[node] = 0;
                if (--remaining == 0) {
                    stop = 1;
                    break;
                }
            }
            for (i64 e = offsets[node]; e < offsets[node + 1]; e++) {
                i64 nb = neighbors[e];
                if (seen[nb] != generation) {
                    seen[nb] = generation;
                    pred[nb] = node;
                    next_frontier[nsize++] = nb;
                }
            }
        }
        if (stop)
            break;
        i64 *swap = frontier;
        frontier = next_frontier;
        next_frontier = swap;
        fsize = nsize;
        level += 1.0;
    }
    return settled;
}

/* ------------------------------------------------------------- slab helper
 *
 * counts[src[i]] += 1 for every i -- S4 cluster sizes over a flat members
 * slab.  Values must already be bounds-checked by the caller. */
void bincount_i64(const i64 *src, i64 count, i64 *counts)
{
    for (i64 i = 0; i < count; i++)
        counts[src[i]]++;
}

/* ------------------------------------------------------- ingestion helpers
 *
 * Used by the streaming topology ingestion (repro.graphs.ingest) to turn
 * flat canonical edge arrays into CSR slabs without materializing a Python
 * object per edge.  Pure-Python fallbacks live next to the callers.
 */

/* Scatter canonical undirected edges into CSR arc slabs.  Edge j places its
 * two directed arcs at cursor[eu[j]]++ and cursor[ev[j]]++, reproducing the
 * arc order TopologyBuilder.freeze gives a builder whose add_edge calls
 * arrived in the same edge order (each new edge appends one arc to both
 * endpoint rows).  cursor must start as a copy of offsets[0..n-1]. */
void csr_fill(i64 num_edges,
              const i64 *eu, const i64 *ev, const double *ew,
              i64 *cursor, i64 *nbrs, double *wts)
{
    for (i64 j = 0; j < num_edges; j++) {
        i64 u = eu[j], v = ev[j];
        double w = ew[j];
        i64 p = cursor[u]++;
        nbrs[p] = v;
        wts[p] = w;
        p = cursor[v]++;
        nbrs[p] = u;
        wts[p] = w;
    }
}

/* Collapse duplicate canonical edges in arrival order, keeping the first
 * occurrence with the minimum weight over all occurrences -- exactly
 * Topology.add_edge's duplicate policy.  eu/ev hold canonical endpoints
 * (eu[j] < ev[j]); the three arrays are compacted in place and the deduped
 * edge count is returned.  Scratch: group (n + 1 slots), eorder (m slots),
 * stamp and firstj (n slots each); all are overwritten.
 *
 * The pass groups edges by their lo endpoint with a stable counting sort,
 * so one n-slot stamp array distinguishes (lo, hi) pairs: within lo's
 * group, stamp[hi] == lo + 1 marks an already-seen pair and firstj[hi]
 * remembers its first (arrival-order) edge index. */
i64 dedup_edges(i64 m, i64 n,
                i64 *eu, i64 *ev, double *ew,
                i64 *group, i64 *eorder, i64 *stamp, i64 *firstj)
{
    if (m <= 0)
        return m;
    memset(group, 0, sizeof(i64) * (size_t)(n + 1));
    for (i64 j = 0; j < m; j++)
        group[eu[j] + 1]++;
    for (i64 u = 0; u < n; u++)
        group[u + 1] += group[u];
    for (i64 j = 0; j < m; j++)
        eorder[group[eu[j]]++] = j;
    memset(stamp, 0, sizeof(i64) * (size_t)n);
    i64 dropped = 0;
    for (i64 p = 0; p < m; p++) {
        i64 j = eorder[p];
        i64 lo = eu[j], hi = ev[j];
        if (stamp[hi] == lo + 1) {
            i64 f = firstj[hi];
            if (ew[j] < ew[f])
                ew[f] = ew[j];
            eu[j] = -1; /* dropped; compacted out below */
            dropped++;
        } else {
            stamp[hi] = lo + 1;
            firstj[hi] = j;
        }
    }
    if (!dropped)
        return m;
    i64 w = 0;
    for (i64 j = 0; j < m; j++) {
        if (eu[j] >= 0) {
            if (w != j) {
                eu[w] = eu[j];
                ev[w] = ev[j];
                ew[w] = ew[j];
            }
            w++;
        }
    }
    return w;
}

/* ------------------------------------------------------------- batch layer
 *
 * Batched entry points: one FFI call runs a whole phase of the substrate
 * build (all landmark SPTs, all vicinity searches, ...) with the source
 * loop inside C, optionally fanned out over POSIX threads.  Determinism is
 * structural, not synchronized:
 *
 *   - sources partition into contiguous chunks (ceil-sized, ascending),
 *     one chunk per thread;
 *   - each source owns a disjoint destination row (spt_rows_batch,
 *     k_nearest_batch, target_distances_batch), or each chunk grows a
 *     private buffer that the main thread concatenates in chunk order
 *     after the join (radius_batch);
 *   - the closest-landmark fold keeps per-thread partial rows over each
 *     (ascending) chunk and merges them in chunk order with the same
 *     strict < as the serial ascending fold, which resolves every
 *     equal-distance tie to the smallest landmark id either way.
 *
 * So any thread count produces byte-identical output, with no locks in
 * the search path.  Every thread owns a full scratch arena (dist / pred /
 * seen / order plus the active kernel's queue state), malloc'd per call;
 * the searches themselves are the unmodified kernels above, which touch
 * only their arguments.  Entry points return -1 on allocation failure so
 * the Python driver can fall back to the Python tier's kernels.
 */

#define KERNEL_HEAP 0
#define KERNEL_DIAL 1
#define KERNEL_BFS 2

typedef struct {
    /* graph + kernel selection, shared read-only across threads */
    i64 n;
    const i64 *offsets;
    const i64 *neighbors;
    const double *weights;
    i64 kernel;
    double quantum;
    i64 num_slots;
    i64 num_arcs;
    const i64 *sources;
    /* spt_rows_batch */
    double *dist_out;
    i64 *parent_out;
    double fill;
    int fold;
    /* k_nearest_batch / radius_batch */
    i64 k;
    i64 cap;
    i64 *members;
    double *dists;
    i64 *parents;
    i64 *counts;
    const double *radii;
    i64 radius_mode;
    /* target_distances_batch */
    const i64 *tgt_offsets;
    const i64 *tgt_nodes;
    double *tdist_out;
} batch_shared;

typedef struct {
    const batch_shared *shared;
    i64 begin, end;              /* source-index range [begin, end) */
    double *pb_dist;             /* closest-fold partials (spt mode) */
    i64 *pb_landmark;
    i64 *rm;                     /* growable chunk rows (radius mode) */
    double *rd;
    i64 *rp;
    i64 rcount, rcap;
    i64 fail_index;              /* first unreachable flat target, -1: none */
    int failed;                  /* allocation failure inside the thread */
} batch_task;

typedef struct {
    double *dist;
    i64 *pred;
    i64 *seen;                   /* calloc'd: generations start at 1 */
    i64 *order;
    unsigned char *tflag;
    i64 *heap, *pos;             /* heap kernel */
    i64 *head, *pool_node, *pool_next, *batch;  /* dial kernel */
    i64 *frontier, *next_frontier;              /* bfs kernel */
    i64 generation;
} batch_arena;

static void arena_release(batch_arena *a)
{
    free(a->dist); free(a->pred); free(a->seen); free(a->order);
    free(a->tflag);
    free(a->heap); free(a->pos);
    free(a->head); free(a->pool_node); free(a->pool_next); free(a->batch);
    free(a->frontier); free(a->next_frontier);
}

static int arena_setup(batch_arena *a, const batch_shared *s)
{
    i64 n = s->n;
    memset(a, 0, sizeof(*a));
    a->dist = malloc(sizeof(double) * (size_t)n);
    a->pred = malloc(sizeof(i64) * (size_t)n);
    a->seen = calloc((size_t)n, sizeof(i64));
    a->order = malloc(sizeof(i64) * (size_t)n);
    a->tflag = malloc((size_t)(n > 0 ? n : 1));
    int ok = a->dist && a->pred && a->seen && a->order && a->tflag;
    if (ok && s->kernel == KERNEL_DIAL) {
        a->head = malloc(sizeof(i64) * (size_t)s->num_slots);
        a->pool_node = malloc(sizeof(i64) * (size_t)(s->num_arcs + 1));
        a->pool_next = malloc(sizeof(i64) * (size_t)(s->num_arcs + 1));
        a->batch = malloc(sizeof(i64) * (size_t)n);
        ok = a->head && a->pool_node && a->pool_next && a->batch;
    } else if (ok && s->kernel == KERNEL_BFS) {
        a->frontier = malloc(sizeof(i64) * (size_t)n);
        a->next_frontier = malloc(sizeof(i64) * (size_t)n);
        ok = a->frontier && a->next_frontier;
    } else if (ok) {
        a->heap = malloc(sizeof(i64) * (size_t)n);
        a->pos = malloc(sizeof(i64) * (size_t)n);
        ok = a->heap && a->pos;
    }
    if (!ok) {
        arena_release(a);
        return -1;
    }
    return 0;
}

static i64 arena_search(batch_arena *a, const batch_shared *s, i64 source,
                        i64 k, double radius, i64 radius_mode,
                        const i64 *targets, i64 num_targets)
{
    a->generation++;
    if (s->kernel == KERNEL_BFS)
        return spt_bfs(s->n, s->offsets, s->neighbors, source,
                       a->dist, a->pred, a->seen, a->generation, a->order,
                       a->frontier, a->next_frontier,
                       k, radius, radius_mode, targets, num_targets,
                       a->tflag);
    if (s->kernel == KERNEL_DIAL)
        return spt_dial(s->n, s->offsets, s->neighbors, s->weights, source,
                        a->dist, a->pred, a->seen, a->generation, a->order,
                        s->quantum, s->num_slots,
                        a->head, a->pool_node, a->pool_next, a->batch,
                        k, radius, radius_mode, targets, num_targets,
                        a->tflag);
    return spt_heap4(s->n, s->offsets, s->neighbors, s->weights, source,
                     a->dist, a->pred, a->seen, a->generation, a->order,
                     a->heap, a->pos,
                     k, radius, radius_mode, targets, num_targets, a->tflag);
}

/* Contiguous ceil-sized chunks over the source indices, one task each.
 * Returns the task count. */
static i64 batch_tasks(batch_task *tasks, const batch_shared *shared,
                       i64 num_sources, i64 threads)
{
    i64 count = threads < 1 ? 1 : threads;
    if (count > num_sources)
        count = num_sources;
    i64 size = (num_sources + count - 1) / count;
    count = (num_sources + size - 1) / size;
    for (i64 t = 0; t < count; t++) {
        memset(&tasks[t], 0, sizeof(batch_task));
        tasks[t].shared = shared;
        tasks[t].begin = t * size;
        tasks[t].end = (t + 1) * size;
        if (tasks[t].end > num_sources)
            tasks[t].end = num_sources;
        tasks[t].fail_index = -1;
    }
    return count;
}

/* Run one task per thread (the calling thread takes task 0) and join.
 * A failed pthread_create degrades to running that task inline. */
static void batch_run(batch_task *tasks, i64 count, void *(*fn)(void *))
{
    if (count <= 1) {
        if (count == 1)
            fn(&tasks[0]);
        return;
    }
    pthread_t *tids = malloc(sizeof(pthread_t) * (size_t)(count - 1));
    unsigned char *live = calloc((size_t)(count - 1), 1);
    if (!tids || !live) {
        free(tids);
        free(live);
        for (i64 t = 0; t < count; t++)
            fn(&tasks[t]);
        return;
    }
    for (i64 t = 1; t < count; t++) {
        if (pthread_create(&tids[t - 1], NULL, fn, &tasks[t]) == 0)
            live[t - 1] = 1;
        else
            fn(&tasks[t]);
    }
    fn(&tasks[0]);
    for (i64 t = 1; t < count; t++)
        if (live[t - 1])
            pthread_join(tids[t - 1], NULL);
    free(tids);
    free(live);
}

static void *spt_rows_worker(void *arg)
{
    batch_task *task = arg;
    const batch_shared *s = task->shared;
    i64 n = s->n;
    batch_arena arena;
    if (arena_setup(&arena, s)) {
        task->failed = 1;
        return NULL;
    }
    if (s->fold) {
        task->pb_dist = malloc(sizeof(double) * (size_t)n);
        task->pb_landmark = malloc(sizeof(i64) * (size_t)n);
        if (!task->pb_dist || !task->pb_landmark) {
            task->failed = 1;
            arena_release(&arena);
            return NULL;
        }
        for (i64 v = 0; v < n; v++) {
            task->pb_dist[v] = INFINITY;
            task->pb_landmark[v] = -1;
        }
    }
    for (i64 i = task->begin; i < task->end; i++) {
        i64 source = s->sources[i];
        arena_search(&arena, s, source, 0, -1.0, RADIUS_NONE, NULL, 0);
        double *row = s->dist_out + i * n;
        i64 *prow = s->parent_out + i * n;
        i64 generation = arena.generation;
        for (i64 v = 0; v < n; v++) {
            if (arena.seen[v] == generation) {
                row[v] = arena.dist[v];
                prow[v] = arena.pred[v];
            } else {
                /* Unreached: the fill contract of CSRGraph.spt_rows. */
                row[v] = s->fill;
                prow[v] = -1;
            }
        }
        if (s->fold) {
            /* Fold the *filled* row, matching the Python tier, which
             * folds each slab row after the fill repair. */
            for (i64 v = 0; v < n; v++) {
                if (row[v] < task->pb_dist[v]) {
                    task->pb_dist[v] = row[v];
                    task->pb_landmark[v] = source;
                }
            }
        }
    }
    arena_release(&arena);
    return NULL;
}

/* Dense SPT rows for num_sources sources: row i of dist_out / parent_out
 * (length n each) belongs to sources[i].  When best_dist / best_landmark
 * are non-NULL (n slots, seeded +inf / -1 by the caller), the closest-
 * landmark fold runs in the same pass.  Returns 0, or -1 on allocation
 * failure (outputs are then unspecified; the caller falls back). */
i64 spt_rows_batch(
    i64 n,
    const i64 *offsets, const i64 *neighbors, const double *weights,
    i64 kernel, double quantum, i64 num_slots,
    const i64 *sources, i64 num_sources,
    double *dist_out, i64 *parent_out, double fill,
    double *best_dist, i64 *best_landmark,
    i64 threads)
{
    if (num_sources <= 0)
        return 0;
    batch_shared shared;
    memset(&shared, 0, sizeof(shared));
    shared.n = n;
    shared.offsets = offsets;
    shared.neighbors = neighbors;
    shared.weights = weights;
    shared.kernel = kernel;
    shared.quantum = quantum;
    shared.num_slots = num_slots;
    shared.num_arcs = offsets[n];
    shared.sources = sources;
    shared.dist_out = dist_out;
    shared.parent_out = parent_out;
    shared.fill = fill;
    shared.fold = best_dist != NULL && best_landmark != NULL;
    i64 max_tasks = threads < 1 ? 1 : threads;
    batch_task *tasks = malloc(sizeof(batch_task) * (size_t)max_tasks);
    if (!tasks)
        return -1;
    i64 count = batch_tasks(tasks, &shared, num_sources, threads);
    batch_run(tasks, count, spt_rows_worker);
    int failed = 0;
    for (i64 t = 0; t < count; t++)
        if (tasks[t].failed)
            failed = 1;
    if (!failed && shared.fold) {
        /* Merge the per-chunk partials in chunk order: chunks ascend in
         * source order and the strict < keeps the first (smallest-id)
         * winner, so this is the serial ascending fold exactly. */
        for (i64 t = 0; t < count; t++) {
            for (i64 v = 0; v < n; v++) {
                if (tasks[t].pb_dist[v] < best_dist[v]) {
                    best_dist[v] = tasks[t].pb_dist[v];
                    best_landmark[v] = tasks[t].pb_landmark[v];
                }
            }
        }
    }
    for (i64 t = 0; t < count; t++) {
        free(tasks[t].pb_dist);
        free(tasks[t].pb_landmark);
    }
    free(tasks);
    return failed ? -1 : 0;
}

static void *k_nearest_worker(void *arg)
{
    batch_task *task = arg;
    const batch_shared *s = task->shared;
    batch_arena arena;
    if (arena_setup(&arena, s)) {
        task->failed = 1;
        return NULL;
    }
    for (i64 i = task->begin; i < task->end; i++) {
        i64 count = arena_search(&arena, s, s->sources[i], s->k, -1.0,
                                 RADIUS_NONE, NULL, 0);
        i64 base = i * s->cap;
        for (i64 j = 0; j < count; j++) {
            i64 node = arena.order[j];
            s->members[base + j] = node;
            s->dists[base + j] = arena.dist[node];
            s->parents[base + j] = arena.pred[node];
        }
        s->counts[i] = count;
    }
    arena_release(&arena);
    return NULL;
}

/* Truncated k-nearest rows for num_sources sources.  members / dists /
 * parents must hold num_sources * min(k, n) entries; source i's row is
 * written provisionally at i * min(k, n) and the rows are compacted left
 * serially after the join (a no-op on connected graphs, where every row
 * fills).  row_ends[i] receives the cumulative end position of row i.
 * Returns the total fill, or -1 on allocation failure. */
i64 k_nearest_batch(
    i64 n,
    const i64 *offsets, const i64 *neighbors, const double *weights,
    i64 kernel, double quantum, i64 num_slots,
    const i64 *sources, i64 num_sources, i64 k,
    i64 *members, double *dists, i64 *parents,
    i64 *row_ends,
    i64 threads)
{
    if (num_sources <= 0)
        return 0;
    batch_shared shared;
    memset(&shared, 0, sizeof(shared));
    shared.n = n;
    shared.offsets = offsets;
    shared.neighbors = neighbors;
    shared.weights = weights;
    shared.kernel = kernel;
    shared.quantum = quantum;
    shared.num_slots = num_slots;
    shared.num_arcs = offsets[n];
    shared.sources = sources;
    shared.k = k;
    shared.cap = k < n ? k : n;
    shared.members = members;
    shared.dists = dists;
    shared.parents = parents;
    shared.counts = row_ends;
    i64 max_tasks = threads < 1 ? 1 : threads;
    batch_task *tasks = malloc(sizeof(batch_task) * (size_t)max_tasks);
    if (!tasks)
        return -1;
    i64 count = batch_tasks(tasks, &shared, num_sources, threads);
    batch_run(tasks, count, k_nearest_worker);
    int failed = 0;
    for (i64 t = 0; t < count; t++)
        if (tasks[t].failed)
            failed = 1;
    free(tasks);
    if (failed)
        return -1;
    i64 position = 0;
    for (i64 i = 0; i < num_sources; i++) {
        i64 row = row_ends[i];
        i64 base = i * shared.cap;
        if (position != base && row > 0) {
            memmove(members + position, members + base,
                    sizeof(i64) * (size_t)row);
            memmove(dists + position, dists + base,
                    sizeof(double) * (size_t)row);
            memmove(parents + position, parents + base,
                    sizeof(i64) * (size_t)row);
        }
        position += row;
        row_ends[i] = position;
    }
    return position;
}

static int radius_reserve(batch_task *task, i64 extra)
{
    if (task->rcount + extra <= task->rcap)
        return 0;
    i64 cap = task->rcap ? task->rcap : 1024;
    while (cap < task->rcount + extra)
        cap *= 2;
    i64 *rm = realloc(task->rm, sizeof(i64) * (size_t)cap);
    if (rm)
        task->rm = rm;
    double *rd = realloc(task->rd, sizeof(double) * (size_t)cap);
    if (rd)
        task->rd = rd;
    i64 *rp = realloc(task->rp, sizeof(i64) * (size_t)cap);
    if (rp)
        task->rp = rp;
    if (!rm || !rd || !rp)
        return -1;
    task->rcap = cap;
    return 0;
}

static void *radius_worker(void *arg)
{
    batch_task *task = arg;
    const batch_shared *s = task->shared;
    batch_arena arena;
    if (arena_setup(&arena, s)) {
        task->failed = 1;
        return NULL;
    }
    for (i64 i = task->begin; i < task->end; i++) {
        i64 count = arena_search(&arena, s, s->sources[i], 0, s->radii[i],
                                 s->radius_mode, NULL, 0);
        if (radius_reserve(task, count)) {
            task->failed = 1;
            break;
        }
        for (i64 j = 0; j < count; j++) {
            i64 node = arena.order[j];
            task->rm[task->rcount] = node;
            task->rd[task->rcount] = arena.dist[node];
            task->rp[task->rcount] = arena.pred[node];
            task->rcount++;
        }
        s->counts[i] = count;
    }
    arena_release(&arena);
    return NULL;
}

/* Radius-bounded rows (radii[i] bounds sources[i]; radius_mode is
 * RADIUS_STRICT or RADIUS_INCLUSIVE).  Row sizes are unknown upfront, so
 * each chunk grows a private buffer and the main thread concatenates them
 * in chunk order after the join into freshly malloc'd arrays returned via
 * the out pointers (release with buffer_free).  row_ends[i] receives the
 * cumulative end of row i.  Returns the total entry count, or -1 on
 * allocation failure (out pointers are then untouched). */
i64 radius_batch(
    i64 n,
    const i64 *offsets, const i64 *neighbors, const double *weights,
    i64 kernel, double quantum, i64 num_slots,
    const i64 *sources, i64 num_sources,
    const double *radii, i64 radius_mode,
    i64 *row_ends,
    i64 **out_members, double **out_dists, i64 **out_parents,
    i64 threads)
{
    if (num_sources <= 0) {
        *out_members = malloc(sizeof(i64));
        *out_dists = malloc(sizeof(double));
        *out_parents = malloc(sizeof(i64));
        return (*out_members && *out_dists && *out_parents) ? 0 : -1;
    }
    batch_shared shared;
    memset(&shared, 0, sizeof(shared));
    shared.n = n;
    shared.offsets = offsets;
    shared.neighbors = neighbors;
    shared.weights = weights;
    shared.kernel = kernel;
    shared.quantum = quantum;
    shared.num_slots = num_slots;
    shared.num_arcs = offsets[n];
    shared.sources = sources;
    shared.radii = radii;
    shared.radius_mode = radius_mode;
    shared.counts = row_ends;
    i64 max_tasks = threads < 1 ? 1 : threads;
    batch_task *tasks = malloc(sizeof(batch_task) * (size_t)max_tasks);
    if (!tasks)
        return -1;
    i64 count = batch_tasks(tasks, &shared, num_sources, threads);
    batch_run(tasks, count, radius_worker);
    int failed = 0;
    i64 total = 0;
    for (i64 t = 0; t < count; t++) {
        if (tasks[t].failed)
            failed = 1;
        total += tasks[t].rcount;
    }
    i64 *members = NULL;
    double *dists = NULL;
    i64 *parents = NULL;
    if (!failed) {
        members = malloc(sizeof(i64) * (size_t)(total ? total : 1));
        dists = malloc(sizeof(double) * (size_t)(total ? total : 1));
        parents = malloc(sizeof(i64) * (size_t)(total ? total : 1));
        if (!members || !dists || !parents)
            failed = 1;
    }
    i64 position = 0;
    for (i64 t = 0; t < count; t++) {
        if (!failed && tasks[t].rcount) {
            memcpy(members + position, tasks[t].rm,
                   sizeof(i64) * (size_t)tasks[t].rcount);
            memcpy(dists + position, tasks[t].rd,
                   sizeof(double) * (size_t)tasks[t].rcount);
            memcpy(parents + position, tasks[t].rp,
                   sizeof(i64) * (size_t)tasks[t].rcount);
            position += tasks[t].rcount;
        }
        free(tasks[t].rm);
        free(tasks[t].rd);
        free(tasks[t].rp);
    }
    free(tasks);
    if (failed) {
        free(members);
        free(dists);
        free(parents);
        return -1;
    }
    for (i64 i = 0; i < num_sources; i++)
        row_ends[i] += i ? row_ends[i - 1] : 0;
    *out_members = members;
    *out_dists = dists;
    *out_parents = parents;
    return total;
}

void buffer_free(void *ptr)
{
    free(ptr);
}

static void *target_distances_worker(void *arg)
{
    batch_task *task = arg;
    const batch_shared *s = task->shared;
    batch_arena arena;
    if (arena_setup(&arena, s)) {
        task->failed = 1;
        return NULL;
    }
    for (i64 i = task->begin; i < task->end && task->fail_index < 0; i++) {
        i64 source = s->sources[i];
        i64 t0 = s->tgt_offsets[i], t1 = s->tgt_offsets[i + 1];
        arena_search(&arena, s, source, 0, -1.0, RADIUS_NONE,
                     s->tgt_nodes + t0, t1 - t0);
        i64 generation = arena.generation;
        for (i64 t = t0; t < t1; t++) {
            i64 node = s->tgt_nodes[t];
            /* A target settled iff it was stamped: early stop requires
             * every target settled, and at exhaustion every discovered
             * node is settled -- same invariant as the serial driver. */
            if (arena.seen[node] != generation) {
                task->fail_index = t;
                break;
            }
            s->tdist_out[t] = arena.dist[node];
        }
    }
    arena_release(&arena);
    return NULL;
}

/* Early-stopping distance extraction: source i settles until the targets
 * tgt_nodes[tgt_offsets[i] .. tgt_offsets[i+1]) are reached, writing
 * their distances into the aligned dist_out slots.  Returns 0 on success,
 * -1 on allocation failure, and -(flat_index + 2) when a target is
 * unreachable (flat_index is the smallest failing tgt_nodes position, so
 * the Python driver can name the pair in its error). */
i64 target_distances_batch(
    i64 n,
    const i64 *offsets, const i64 *neighbors, const double *weights,
    i64 kernel, double quantum, i64 num_slots,
    const i64 *sources, i64 num_sources,
    const i64 *tgt_offsets, const i64 *tgt_nodes,
    double *dist_out,
    i64 threads)
{
    if (num_sources <= 0)
        return 0;
    batch_shared shared;
    memset(&shared, 0, sizeof(shared));
    shared.n = n;
    shared.offsets = offsets;
    shared.neighbors = neighbors;
    shared.weights = weights;
    shared.kernel = kernel;
    shared.quantum = quantum;
    shared.num_slots = num_slots;
    shared.num_arcs = offsets[n];
    shared.sources = sources;
    shared.tgt_offsets = tgt_offsets;
    shared.tgt_nodes = tgt_nodes;
    shared.tdist_out = dist_out;
    i64 max_tasks = threads < 1 ? 1 : threads;
    batch_task *tasks = malloc(sizeof(batch_task) * (size_t)max_tasks);
    if (!tasks)
        return -1;
    i64 count = batch_tasks(tasks, &shared, num_sources, threads);
    batch_run(tasks, count, target_distances_worker);
    int failed = 0;
    i64 fail_index = -1;
    for (i64 t = 0; t < count; t++) {
        if (tasks[t].failed)
            failed = 1;
        if (tasks[t].fail_index >= 0 &&
            (fail_index < 0 || tasks[t].fail_index < fail_index))
            fail_index = tasks[t].fail_index;
    }
    free(tasks);
    if (failed)
        return -1;
    if (fail_index >= 0)
        return -(fail_index + 2);
    return 0;
}

/* ------------------------------------------------------------- churn layer
 *
 * One call per topology event for each pass the churn engine
 * (repro.dynamics.engine) runs over its flat slabs: landmark SPT row
 * repair, the closest-landmark refold, the vicinity candidate filter, the
 * repair of the full rows of an improving event without a search, and the
 * commit-and-bill of recomputed vicinity rows.  All five are serial
 * (REPRO_KERNEL_THREADS does not reach them), allocate O(n) scratch per
 * call -- never O(rows * n) -- and check every id they are handed before
 * the first write to a slab (the candidate filter, which writes only its
 * output list, checks the rows it reads as it reads them): -2 reports a
 * bad id, -1 a failed allocation.  Buffer lengths and item types are the
 * ctypes wrappers' to check (they cannot be seen from here); the graph
 * slabs are trusted as CSRGraph built them.  The Python twins live in
 * repro.graphs.incremental (repair_rows) and repro.dynamics.passes (the
 * other four).
 *
 * The repair contract (shared with repro.graphs.incremental, and the reason
 * a repaired row is bit-identical to a fresh search on the mutated graph):
 *
 *   - Distances are the fixpoint of dist[v] = min over arcs (u, v) of
 *     dist[u] + w(u, v), each candidate formed by that single float add --
 *     the same add, on the same operands, the search kernels perform.  The
 *     repair seeds the nodes whose value may have moved and settles them in
 *     nondecreasing distance, so every value it writes is the minimum of
 *     the same candidate set a full search would see.
 *   - Parents are a pure function of the converged distances: the min-id
 *     neighbour on a tight arc (dist[u] + w == dist[v]), -1 for the root
 *     and for unreachable nodes.  They are re-derived by a neighbour scan
 *     for every node whose tight set may have changed.
 *   - Heap tie order therefore cannot change the result: equal-distance
 *     nodes may pop in any order, but a popped node only ever offers
 *     dist + w to its neighbours, the minimum over those offers is order-
 *     free, and no parent is taken from the pop order.
 *
 * Rows use the dynamics fill: +inf / -1 for unreachable nodes.
 */

#define REPAIR_WORSEN_EDGE 0
#define REPAIR_WORSEN_DETACH 1
#define REPAIR_IMPROVE 2

#define VICINITY_REL_SLACK 1e-9

typedef struct {
    i64 *ids;
    i64 count, cap;
} id_list;

static int id_list_extend(id_list *list, const i64 *ids, i64 count)
{
    if (list->count + count > list->cap) {
        i64 cap = list->cap;
        while (cap < list->count + count)
            cap *= 2;
        i64 *grown = realloc(list->ids, sizeof(i64) * (size_t)cap);
        if (!grown)
            return -1;
        list->ids = grown;
        list->cap = cap;
    }
    if (count)
        memcpy(list->ids + list->count, ids, sizeof(i64) * (size_t)count);
    list->count += count;
    return 0;
}

typedef struct {
    i64 n;
    const i64 *offsets;
    const i64 *neighbors;
    const double *weights;
    /* n slots each, shared by every row of one call */
    i64 *stamp;      /* == generation: in the region / already improved */
    i64 *mark;       /* == generation: queued for re-canonicalization */
    i64 generation;
    i64 *region;     /* the nodes whose distance may move, then moved */
    double *before;  /* before[i]: pre-event distance of region[i] */
    i64 *recanon;
    i64 *heap, *pos; /* indexed 4-ary heap; pos[v] < 0: not queued */
    i64 *scratch;    /* order_ids */
} repair_ctx;

/* Queue node, or move it up after its key dist[node] decreased. */
static i64 repair_heap_raise(const repair_ctx *c, const double *dist,
                             i64 size, i64 node)
{
    i64 *heap = c->heap, *pos = c->pos;
    i64 i = pos[node];
    if (i < 0)
        i = size++;
    double d = dist[node];
    while (i) {
        i64 up = (i - 1) >> 2;
        i64 un = heap[up];
        double ud = dist[un];
        if (d < ud || (d == ud && node < un)) {
            heap[i] = un;
            pos[un] = i;
            i = up;
        } else {
            break;
        }
    }
    heap[i] = node;
    pos[node] = i;
    return size;
}

static i64 repair_heap_pop(const repair_ctx *c, const double *dist,
                           i64 *size_io)
{
    i64 *heap = c->heap, *pos = c->pos;
    i64 size = *size_io - 1;
    i64 top = heap[0];
    pos[top] = -1;
    if (size) {
        i64 moved = heap[size];
        double md = dist[moved];
        i64 i = 0;
        for (;;) {
            i64 child = (i << 2) + 1;
            if (child >= size)
                break;
            i64 end = child + 4 < size ? child + 4 : size;
            i64 best = child;
            for (i64 j = child + 1; j < end; j++) {
                double jd = dist[heap[j]], bd = dist[heap[best]];
                if (jd < bd || (jd == bd && heap[j] < heap[best]))
                    best = j;
            }
            i64 bn = heap[best];
            double bd = dist[bn];
            if (bd < md || (bd == md && bn < moved)) {
                heap[i] = bn;
                pos[bn] = i;
                i = best;
            } else {
                break;
            }
        }
        heap[i] = moved;
        pos[moved] = i;
    }
    *size_io = size;
    return top;
}

static void repair_queue_recanon(repair_ctx *c, i64 node, i64 *count)
{
    if (c->mark[node] != c->generation) {
        c->mark[node] = c->generation;
        c->recanon[(*count)++] = node;
    }
}

/* Re-derive the parent of every node queued in recanon plus the
 * neighbours of the moved nodes region[0 .. moved); append the ascending
 * moved / re-parented ids to the two output lists. */
static int repair_finish(repair_ctx *c, const double *dist, i64 *parent,
                         i64 root, i64 moved, i64 queued,
                         id_list *dist_out, id_list *parent_out)
{
    const i64 *offsets = c->offsets, *neighbors = c->neighbors;
    for (i64 i = 0; i < moved; i++) {
        i64 node = c->region[i];
        repair_queue_recanon(c, node, &queued);
        for (i64 e = offsets[node]; e < offsets[node + 1]; e++)
            repair_queue_recanon(c, neighbors[e], &queued);
    }
    i64 reparented = 0;
    for (i64 i = 0; i < queued; i++) {
        i64 node = c->recanon[i];
        i64 canon = -1;
        double target = dist[node];
        if (node != root && target != INFINITY) {
            for (i64 e = offsets[node]; e < offsets[node + 1]; e++) {
                i64 nb = neighbors[e];
                if (dist[nb] + c->weights[e] == target &&
                    (canon < 0 || nb < canon))
                    canon = nb;
            }
        }
        if (canon != parent[node]) {
            parent[node] = canon;
            c->recanon[reparented++] = node;
        }
    }
    order_ids(c->region, moved, c->n, c->scratch);
    order_ids(c->recanon, reparented, c->n, c->scratch);
    if (id_list_extend(dist_out, c->region, moved) ||
        id_list_extend(parent_out, c->recanon, reparented))
        return -1;
    return 0;
}

/* Worsen: the subtree under `top` (children are the neighbours pointing
 * back; `top`'s own arcs are top_arcs when it was detached) is closed
 * under worsening.  Its distances are re-derived from the best offer of
 * each node's neighbours outside it, then relaxed inside it. */
static int repair_worsen(repair_ctx *c, double *dist, i64 *parent, i64 root,
                         i64 top, const i64 *top_arcs, i64 num_top_arcs,
                         const i64 *extra, i64 num_extra,
                         id_list *dist_out, id_list *parent_out)
{
    const i64 *offsets = c->offsets, *neighbors = c->neighbors;
    const double *weights = c->weights;
    i64 generation = ++c->generation;
    i64 *region = c->region;
    i64 count = 1;
    region[0] = top;
    c->stamp[top] = generation;
    for (i64 i = 0; i < count; i++) {
        i64 node = region[i];
        const i64 *arcs = neighbors + offsets[node];
        i64 degree = offsets[node + 1] - offsets[node];
        if (node == top && top_arcs) {
            arcs = top_arcs;
            degree = num_top_arcs;
        }
        for (i64 a = 0; a < degree; a++) {
            i64 child = arcs[a];
            if (parent[child] == node && c->stamp[child] != generation) {
                c->stamp[child] = generation;
                region[count++] = child;
            }
        }
    }
    if (top == root) {
        /* The root keeps 0.0 / -1; everything under it is the region.  (A
         * detached root has no arc left, so its stale stamp is never read.) */
        region++;
        count--;
        if (!count)
            return 0;
    }
    i64 size = 0;
    for (i64 i = 0; i < count; i++) {
        i64 node = region[i];
        double seed = INFINITY;
        for (i64 e = offsets[node]; e < offsets[node + 1]; e++) {
            i64 nb = neighbors[e];
            if (c->stamp[nb] == generation)
                continue;
            double candidate = dist[nb] + weights[e];
            if (candidate < seed)
                seed = candidate;
        }
        c->before[i] = dist[node];
        dist[node] = seed;
        if (seed < INFINITY)
            size = repair_heap_raise(c, dist, size, node);
    }
    while (size) {
        i64 node = repair_heap_pop(c, dist, &size);
        double d = dist[node];
        for (i64 e = offsets[node]; e < offsets[node + 1]; e++) {
            i64 nb = neighbors[e];
            if (c->stamp[nb] != generation)
                continue;
            double candidate = d + weights[e];
            if (candidate < dist[nb]) {
                dist[nb] = candidate;
                size = repair_heap_raise(c, dist, size, nb);
            }
        }
    }
    i64 queued = 0;
    for (i64 i = 0; i < count; i++)
        repair_queue_recanon(c, region[i], &queued);
    for (i64 i = 0; i < num_extra; i++)
        repair_queue_recanon(c, extra[i], &queued);
    i64 moved = 0;
    for (i64 i = 0; i < count; i++)
        if (dist[region[i]] != c->before[i])
            c->region[moved++] = region[i];
    return repair_finish(c, dist, parent, root, moved, queued,
                         dist_out, parent_out);
}

static i64 repair_arc_weight(const repair_ctx *c, i64 u, i64 v, double *w)
{
    for (i64 e = c->offsets[u]; e < c->offsets[u + 1]; e++) {
        if (c->neighbors[e] == v) {
            *w = c->weights[e];
            return 0;
        }
    }
    return -1;
}

/* Improve: every edge of the set offers dist + w across itself in both
 * directions; strict improvements propagate outward over the whole graph.
 * A node improved by several edges is recorded once. */
static int repair_improve(repair_ctx *c, double *dist, i64 *parent, i64 root,
                          const i64 *edges, i64 num_edges,
                          id_list *dist_out, id_list *parent_out)
{
    const i64 *offsets = c->offsets, *neighbors = c->neighbors;
    const double *weights = c->weights;
    i64 generation = ++c->generation;
    i64 moved = 0, size = 0;
    for (i64 j = 0; j < 2 * num_edges; j++) {
        i64 from = edges[j], to = edges[j ^ 1];
        double w = 0.0;
        repair_arc_weight(c, from, to, &w);
        if (dist[from] == INFINITY)
            continue;
        double candidate = dist[from] + w;
        if (candidate < dist[to]) {
            dist[to] = candidate;
            if (c->stamp[to] != generation) {
                c->stamp[to] = generation;
                c->region[moved++] = to;
            }
            size = repair_heap_raise(c, dist, size, to);
        }
    }
    while (size) {
        i64 node = repair_heap_pop(c, dist, &size);
        double d = dist[node];
        for (i64 e = offsets[node]; e < offsets[node + 1]; e++) {
            i64 nb = neighbors[e];
            double candidate = d + weights[e];
            if (candidate < dist[nb]) {
                dist[nb] = candidate;
                if (c->stamp[nb] != generation) {
                    c->stamp[nb] = generation;
                    c->region[moved++] = nb;
                }
                size = repair_heap_raise(c, dist, size, nb);
            }
        }
    }
    i64 queued = 0;
    for (i64 j = 0; j < 2 * num_edges; j++)
        repair_queue_recanon(c, edges[j], &queued);
    return repair_finish(c, dist, parent, root, moved, queued,
                         dist_out, parent_out);
}

/* Repair every row of the dist / parent slabs (row i, n entries, rooted at
 * roots[i]) after one event on the graph, which is passed as mutated:
 *
 *   REPAIR_WORSEN_EDGE    ids = {u, v}: the edge was removed or made
 *                         heavier; a row is touched only if it was one of
 *                         the row's tree arcs.
 *   REPAIR_WORSEN_DETACH  ids = {node, old neighbours...}: every edge of
 *                         node was removed.
 *   REPAIR_IMPROVE        ids = {u0, v0, u1, v1, ...}: the edges were added
 *                         or made lighter; their weights are read from the
 *                         graph.
 *
 * The rows with a change are listed, ascending, in rows (num_rows slots,
 * like dist_ends and parent_ends); dist_ends[j] / parent_ends[j] receive
 * the cumulative end of row rows[j]'s ascending id list inside
 * *out_dist_changed / *out_parent_changed, two freshly malloc'd arrays
 * (release with buffer_free).  Returns the number of changed rows, -1 on
 * allocation failure (rows may then be partly repaired) or -2 on a bad id
 * or an improved edge the graph does not have, checked before any row is
 * touched. */
i64 repair_rows(
    i64 n,
    const i64 *offsets, const i64 *neighbors, const double *weights,
    const i64 *roots, i64 num_rows, double *dist, i64 *parent,
    i64 mode, const i64 *ids, i64 num_ids,
    i64 *rows, i64 *dist_ends, i64 *parent_ends,
    i64 **out_dist_changed, i64 **out_parent_changed)
{
    repair_ctx c;
    memset(&c, 0, sizeof(c));
    c.n = n;
    c.offsets = offsets;
    c.neighbors = neighbors;
    c.weights = weights;
    for (i64 i = 0; i < num_rows; i++)
        if (roots[i] < 0 || roots[i] >= n)
            return -2;
    for (i64 i = 0; i < num_ids; i++)
        if (ids[i] < 0 || ids[i] >= n)
            return -2;
    if (mode == REPAIR_WORSEN_EDGE ? num_ids != 2
        : mode == REPAIR_WORSEN_DETACH ? num_ids < 1
        : mode == REPAIR_IMPROVE ? num_ids % 2 != 0
        : 1)
        return -2;
    if (mode == REPAIR_IMPROVE) {
        double w;
        for (i64 j = 0; j < num_ids; j++)
            if (repair_arc_weight(&c, ids[j], ids[j ^ 1], &w))
                return -2;
    }
    /* One block: stamp and mark start at 0 (generations count from 1). */
    size_t slots = (size_t)(n > 0 ? n : 1);
    i64 *block = calloc(8 * slots, sizeof(i64));
    id_list dist_out = {malloc(sizeof(i64) * 256), 0, 256};
    id_list parent_out = {malloc(sizeof(i64) * 256), 0, 256};
    int failed = !block || !dist_out.ids || !parent_out.ids;
    if (!failed) {
        c.stamp = block;
        c.mark = block + slots;
        c.region = block + 2 * slots;
        c.before = (double *)(block + 3 * slots);
        c.recanon = block + 4 * slots;
        c.heap = block + 5 * slots;
        c.pos = block + 6 * slots;
        c.scratch = block + 7 * slots;
        memset(c.pos, 0xff, sizeof(i64) * slots);
    }
    i64 changed = 0, dist_seen = 0, parent_seen = 0;
    for (i64 i = 0; i < num_rows && !failed; i++) {
        double *row = dist + i * n;
        i64 *prow = parent + i * n;
        i64 root = roots[i];
        if (mode == REPAIR_IMPROVE) {
            failed = repair_improve(&c, row, prow, root, ids, num_ids / 2,
                                    &dist_out, &parent_out);
        } else if (mode == REPAIR_WORSEN_DETACH) {
            i64 node = ids[0];
            /* An already-unreachable node detaching changes nothing. */
            if (row[node] != INFINITY || node == root)
                failed = repair_worsen(&c, row, prow, root, node, ids + 1,
                                       num_ids - 1, ids, 1,
                                       &dist_out, &parent_out);
        } else {
            i64 u = ids[0], v = ids[1];
            i64 top = prow[v] == u ? v : prow[u] == v ? u : -1;
            if (top >= 0)
                failed = repair_worsen(&c, row, prow, root, top, NULL, 0,
                                       ids, 2, &dist_out, &parent_out);
        }
        if (dist_out.count != dist_seen || parent_out.count != parent_seen) {
            rows[changed] = i;
            dist_ends[changed] = dist_seen = dist_out.count;
            parent_ends[changed] = parent_seen = parent_out.count;
            changed++;
        }
    }
    free(block);
    if (failed) {
        free(dist_out.ids);
        free(parent_out.ids);
        return -1;
    }
    *out_dist_changed = dist_out.ids;
    *out_parent_changed = parent_out.ids;
    return changed;
}

/* After repair_rows: refold closest landmarks and find the addresses the
 * event made stale.  The change lists are repair_rows' output (rows,
 * *_ends, *_changed; the totals are the lengths of the two id arrays).
 *
 *   Refold: for every node in dist_changed (each once), the closest
 *   landmark is the minimum of its column over the dist slab's rows, taken
 *   in row order with a strict < so that ties stay on the earlier
 *   (smaller-id) landmark -- roots must ascend, as in spt_rows_batch.  A
 *   node no landmark reaches folds to -1 / +inf.  The nodes whose pair
 *   changed go to refolded (n slots) in first-occurrence order, their
 *   count to *num_refolded.
 *
 *   Stale addresses: a node's address is its closest landmark plus its
 *   path in that landmark's tree, so it is stale when the node was
 *   refolded, or when it hangs (in the repaired tree: children are the
 *   neighbours pointing back) under a node of parent_changed in the row of
 *   its closest landmark.  They go to dirty (n slots), ascending.
 *
 * Returns the dirty count, -1 on allocation failure, -2 on a row index, an
 * end or an id out of range (checked before any write). */
i64 closest_refold(
    i64 n, const i64 *offsets, const i64 *neighbors,
    const i64 *roots, i64 num_rows, const double *dist, const i64 *parent,
    const i64 *rows, i64 num_changed,
    const i64 *dist_ends, const i64 *dist_changed, i64 dist_total,
    const i64 *parent_ends, const i64 *parent_changed, i64 parent_total,
    i64 *closest, double *closest_dist,
    i64 *refolded, i64 *num_refolded, i64 *dirty)
{
    for (i64 j = 0; j < num_changed; j++) {
        i64 dist_lo = j ? dist_ends[j - 1] : 0;
        i64 parent_lo = j ? parent_ends[j - 1] : 0;
        if (rows[j] < 0 || rows[j] >= num_rows ||
            dist_ends[j] < dist_lo || dist_ends[j] > dist_total ||
            parent_ends[j] < parent_lo || parent_ends[j] > parent_total)
            return -2;
    }
    for (i64 i = 0; i < dist_total; i++)
        if (dist_changed[i] < 0 || dist_changed[i] >= n)
            return -2;
    for (i64 i = 0; i < parent_total; i++)
        if (parent_changed[i] < 0 || parent_changed[i] >= n)
            return -2;
    /* flag[v]: 1 refolded, 2 dirty; seen[v] == j + 1: walked in row j. */
    size_t slots = (size_t)(n > 0 ? n : 1);
    i64 *seen = calloc(3 * slots, sizeof(i64));
    unsigned char *flag = calloc(slots, 1);
    if (!seen || !flag) {
        free(seen);
        free(flag);
        return -1;
    }
    i64 *stack = seen + slots, *scratch = seen + 2 * slots;
    i64 moved = 0, count = 0;
    for (i64 i = 0; i < dist_total; i++) {
        i64 node = dist_changed[i];
        if (flag[node])
            continue;
        flag[node] = 1;
        i64 best = -1;
        double best_dist = INFINITY;
        for (i64 r = 0; r < num_rows; r++) {
            double d = dist[r * n + node];
            if (d < best_dist) {
                best_dist = d;
                best = roots[r];
            }
        }
        if (best != closest[node] || best_dist != closest_dist[node]) {
            closest[node] = best;
            closest_dist[node] = best_dist;
            refolded[moved++] = node;
            flag[node] = 2;
            dirty[count++] = node;
        }
    }
    for (i64 j = 0; j < num_changed; j++) {
        i64 landmark = roots[rows[j]];
        const i64 *prow = parent + rows[j] * n;
        i64 depth = 0;
        for (i64 i = j ? parent_ends[j - 1] : 0; i < parent_ends[j]; i++) {
            if (seen[parent_changed[i]] != j + 1) {
                seen[parent_changed[i]] = j + 1;
                stack[depth++] = parent_changed[i];
            }
        }
        while (depth) {
            i64 node = stack[--depth];
            if (closest[node] == landmark && flag[node] != 2) {
                flag[node] = 2;
                dirty[count++] = node;
            }
            for (i64 e = offsets[node]; e < offsets[node + 1]; e++) {
                i64 child = neighbors[e];
                if (prow[child] == node && seen[child] != j + 1) {
                    seen[child] = j + 1;
                    stack[depth++] = child;
                }
            }
        }
    }
    order_ids(dirty, count, n, scratch);
    free(seen);
    free(flag);
    *num_refolded = moved;
    return count;
}

/* The nodes whose vicinity row an event changes, ascending, into out (n
 * slots): a radius prefilter picks the rows to read, and each row read is
 * judged by the relaxations the event adds to or takes from the search that
 * produced it.  Every quantity of that second test is rooted at the row's
 * own node, so it compares exactly and needs no slack.
 *
 *   The event is the edge set arcs = {u0, v0, u1, v1, ...} (num_arcs pairs,
 *   each tested in both directions a -> b), worsened when weights is NULL
 *   -- removed or made heavier -- and otherwise improved: added or made
 *   lighter, to weights[i] for pair i.
 *
 *   Prefilter: row_u (and row_v unless NULL) are the distance rows rooted
 *   at the event's endpoints in the graph that has the edges at their
 *   lighter weight; node x is read when every endpoint is inside radius[x]
 *   (+inf for a component-limited vicinity), widened by the relative slack
 *   the engine documents (_REL_SLACK) because these rows are summed from
 *   the other end.  A row the event changes has both ends of some event
 *   arc inside its radius in that graph.
 *
 *   Row test: x's stored row is members / dists / parents[x * stride ..]
 *   with lengths[x] entries in settle order; it is full at stride entries
 *   and (R, z) is then its last entry.  A truncated search is a function of
 *   the relaxations out of its settled nodes (the contract at the top of
 *   this file), so it can only leave the stored row at a relaxation over
 *   an event arc a -> b out of a member a:
 *     worsen   b is a member and parents[b] == a (a tree arc of the row; a
 *              slack arc stays slack, a tight arc that is not the min-id
 *              one leaves the parent alone, an arc to a non-member only
 *              moved a tentative distance that never settled);
 *     improve  with c = dists[a] + w, the add the kernel would perform: b
 *              is a member and c < dists[b], or c == dists[b] and
 *              a < parents[b]; or b is not a member and the row is not
 *              full or (c, b) < (R, z).
 *
 * Returns the count, -1 on allocation failure, or -2 when an arc endpoint,
 * or the length or a member of a row that is read, is out of range (only
 * out is ever written).  Evaluated exactly like the Python twin: the build
 * passes -ffp-contract=off so radius + slack * radius is two roundings here
 * too. */
i64 vicinity_candidates(
    i64 n, const double *row_u, const double *row_v, const double *radius,
    const i64 *arcs, i64 num_arcs, const double *weights,
    i64 stride, const i64 *members, const double *dists, const i64 *parents,
    const i64 *lengths, i64 *out)
{
    i64 num_ends = 2 * num_arcs;
    for (i64 j = 0; j < num_ends; j++)
        if (arcs[j] < 0 || arcs[j] >= n)
            return -2;
    /* slot[v] - 1: the number of endpoint v among the event's distinct
     * endpoints; end[j]: that number for arcs[j]; at[e]: where endpoint e
     * sits in the row being read, -1 when it is not a member. */
    size_t slots = (size_t)(n > 0 ? n : 1);
    i64 *slot = calloc(slots + 2 * (size_t)num_ends, sizeof(i64));
    if (!slot)
        return -1;
    i64 *end = slot + slots, *at = end + num_ends;
    i64 distinct = 0;
    for (i64 j = 0; j < num_ends; j++) {
        if (!slot[arcs[j]])
            slot[arcs[j]] = ++distinct;
        end[j] = slot[arcs[j]] - 1;
    }
    i64 count = 0;
    for (i64 node = 0; node < n; node++) {
        double reach = radius[node];
        if (reach < INFINITY)
            reach += VICINITY_REL_SLACK * reach;
        if (!(row_u[node] <= reach) || (row_v && !(row_v[node] <= reach)))
            continue;
        i64 width = lengths[node];
        if (width < 0 || width > stride) {
            count = -2;
            break;
        }
        const i64 *m = members + node * stride, *p = parents + node * stride;
        const double *d = dists + node * stride;
        for (i64 e = 0; e < distinct; e++)
            at[e] = -1;
        i64 read = 0;
        for (; read < width && m[read] >= 0 && m[read] < n; read++)
            if (slot[m[read]])
                at[slot[m[read]] - 1] = read;
        if (read < width) {
            count = -2;
            break;
        }
        int changes = 0;
        for (i64 j = 0; j < num_ends && !changes; j++) {
            i64 ja = at[end[j]], jb = at[end[j ^ 1]];
            if (ja < 0)
                continue;
            i64 a = arcs[j], b = arcs[j ^ 1];
            if (!weights) {
                changes = jb >= 0 && p[jb] == a;
                continue;
            }
            double c = d[ja] + weights[j >> 1];
            if (jb >= 0)
                changes = c < d[jb] || (c == d[jb] && a < p[jb]);
            else
                changes = width < stride || c < d[width - 1] ||
                          (c == d[width - 1] && b < m[width - 1]);
        }
        if (changes)
            out[count++] = node;
    }
    free(slot);
    return count;
}

/* Relax every arc out of a in the row under vicinity_repair (a node is a
 * member or an entrant when its stamp is the row's generation). */
static i64 repair_relax(repair_ctx *c, double *dist, i64 *parent, i64 size,
                        i64 a, double R, i64 z)
{
    for (i64 e = c->offsets[a]; e < c->offsets[a + 1]; e++) {
        i64 b = c->neighbors[e];
        double offer = dist[a] + c->weights[e];
        if (c->stamp[b] != c->generation) {
            if (offer > R || (offer == R && b > z))
                continue;
            c->stamp[b] = c->generation;
        } else if (offer == dist[b]) {
            if (a < parent[b])
                parent[b] = a;
            continue;
        } else if (!(offer < dist[b])) {
            continue;
        }
        dist[b] = offer;
        parent[b] = a;
        size = repair_heap_raise(c, dist, size, b);
    }
    return size;
}

/* Rebuild the full stored rows of the candidates after an improving event,
 * without a search: row i goes to out_*[i * stride ..) in the k-nearest
 * kernel's layout.  The graph is passed as mutated and sources are the
 * endpoints of the edges it added or made lighter.  Every arc out of a
 * source in the row offers c = d[a] + w, and the offers seed a small
 * Dijkstra that relaxes only out of nodes whose distance dropped: a member
 * b takes an offer when c < d[b] (only the parent when c == d[b] and
 * a < p[b]), a non-member only when (c, b) < (R, z), the row's last entry.
 * (An unchanged arc out of a member that kept its distance cannot pass
 * either test: the stored row already holds its offer.)  The dropped nodes
 * pop in (distance, id) order; merged with the members that kept their
 * distance and cut at stride they are the kernel's settle order with its
 * min-id tight parents.  Returns num_candidates * stride, -1 on allocation
 * failure, or -2 when a source or a candidate is out of range, or a
 * candidate's row is not full (short rows are the kernel's) or holds a
 * member out of range or twice (checked before any write). */
i64 vicinity_repair(
    i64 n, const i64 *offsets, const i64 *neighbors, const double *weights,
    const i64 *sources, i64 num_sources,
    const i64 *candidates, i64 num_candidates,
    i64 stride, const i64 *members, const double *dists, const i64 *parents,
    const i64 *lengths,
    i64 *out_members, double *out_dists, i64 *out_parents)
{
    repair_ctx c = {.n = n, .offsets = offsets, .neighbors = neighbors,
                    .weights = weights};
    for (i64 j = 0; j < num_sources; j++)
        if (sources[j] < 0 || sources[j] >= n)
            return -2;
    /* stamp and mark start at 0 (generations count from 1); then the heap,
     * the dropped nodes, and the row's distances and parents by node. */
    size_t slots = (size_t)(n > 0 ? n : 1);
    i64 *block = calloc(7 * slots, sizeof(i64));
    if (!block)
        return -1;
    c.stamp = block;
    c.mark = block + slots;
    c.heap = block + 2 * slots;
    c.pos = block + 3 * slots;
    c.region = block + 4 * slots;
    double *dist = (double *)(block + 5 * slots);
    i64 *parent = block + 6 * slots;
    i64 status = num_candidates * stride;
    for (i64 i = 0; i < num_candidates && status >= 0; i++) {
        i64 node = candidates[i], generation = ++c.generation;
        if (node < 0 || node >= n || stride < 1 || lengths[node] != stride)
            status = -2;
        for (i64 j = 0; j < stride && status >= 0; j++) {
            i64 member = members[node * stride + j];
            if (member < 0 || member >= n || c.stamp[member] == generation)
                status = -2;
            else
                c.stamp[member] = generation;
        }
    }
    memset(c.pos, 0xff, sizeof(i64) * slots);
    for (i64 i = 0; i < num_candidates && status >= 0; i++) {
        i64 base = candidates[i] * stride, size = 0, num_dropped = 0;
        const i64 *m = members + base, *p = parents + base;
        const double *d = dists + base;
        i64 generation = ++c.generation, *dropped = c.region;
        for (i64 j = 0; j < stride; j++) {
            c.stamp[m[j]] = generation;
            dist[m[j]] = d[j];
            parent[m[j]] = p[j];
        }
        double R = d[stride - 1];
        i64 z = m[stride - 1];
        for (i64 j = 0; j < num_sources; j++)
            if (c.stamp[sources[j]] == generation)
                size = repair_relax(&c, dist, parent, size, sources[j], R, z);
        while (size) {
            i64 q = repair_heap_pop(&c, dist, &size);
            c.mark[q] = generation;
            dropped[num_dropped++] = q;
            size = repair_relax(&c, dist, parent, size, q, R, z);
        }
        /* Every member is in the row stream or among the dropped, so the
         * two hold at least stride entries between them. */
        i64 kept = 0, taken = 0;
        for (i64 w = i * stride; w < (i + 1) * stride; w++) {
            while (kept < stride && c.mark[m[kept]] == generation)
                kept++;
            i64 next;
            if (kept < stride &&
                (taken == num_dropped || d[kept] < dist[dropped[taken]] ||
                 (d[kept] == dist[dropped[taken]] &&
                  m[kept] < dropped[taken])))
                next = m[kept++];
            else
                next = dropped[taken++];
            out_members[w] = next;
            out_dists[w] = dist[next];
            out_parents[w] = parent[next];
        }
    }
    free(block);
    return status;
}

/* Compare the recomputed vicinity rows of the candidates against the
 * stored fixed-stride slabs, store the ones that differ, and bill them.
 *
 * Candidate i's new row is fresh_*[offsets[i] .. offsets[i + 1]) (members
 * in settle order, at most stride of them); node x's stored row is
 * members / dists / parents[x * stride ..] with lengths[x] entries.  A row
 * whose members or distances differ is billed the distinct members in the
 * symmetric difference of its old and new (member, distance) pairs -- a
 * member that came, went, or moved -- and a row that differs in parents
 * only is stored unbilled.  Storing a row also updates radius[x]: its last
 * (farthest) distance when the row is full, +inf when the vicinity is
 * component-limited.  The stored nodes go to changed (num_candidates
 * slots) and the bill to *billed; returns the stored count, -1 on
 * allocation failure, or -2 when a candidate, an offset, a stored length or
 * a stored or fresh member is out of range (checked before any write). */
i64 vicinity_commit(
    i64 n, i64 stride,
    const i64 *candidates, i64 num_candidates,
    const i64 *offsets,
    const i64 *fresh_members, const double *fresh_dists,
    const i64 *fresh_parents, i64 fresh_total,
    i64 *members, double *dists, i64 *parents, i64 *lengths, double *radius,
    i64 *changed, i64 *billed)
{
    if (num_candidates > 0 && offsets[0] != 0)
        return -2;
    for (i64 i = 0; i < num_candidates; i++) {
        i64 node = candidates[i], width = offsets[i + 1] - offsets[i];
        if (node < 0 || node >= n || width < 0 || width > stride ||
            offsets[i + 1] > fresh_total ||
            lengths[node] < 0 || lengths[node] > stride)
            return -2;
        for (i64 j = 0; j < lengths[node]; j++)
            if (members[node * stride + j] < 0 ||
                members[node * stride + j] >= n)
                return -2;
    }
    for (i64 p = 0; p < fresh_total; p++)
        if (fresh_members[p] < 0 || fresh_members[p] >= n)
            return -2;
    /* slot[m] - 1: position of member m in the stored row being billed,
     * valid while owner[m] names that row's candidate index + 1. */
    size_t slots = (size_t)(n > 0 ? n : 1);
    i64 *owner = calloc(2 * slots, sizeof(i64));
    if (!owner)
        return -1;
    i64 *slot = owner + slots;
    i64 count = 0, bill = 0;
    for (i64 i = 0; i < num_candidates; i++) {
        i64 node = candidates[i];
        i64 lo = offsets[i], width = offsets[i + 1] - offsets[i];
        i64 base = node * stride, old_width = lengths[node];
        const i64 *fm = fresh_members + lo;
        const double *fd = fresh_dists + lo;
        const i64 *fp = fresh_parents + lo;
        int differs = width != old_width;
        for (i64 j = 0; j < width && !differs; j++)
            differs = fm[j] != members[base + j] || fd[j] != dists[base + j];
        if (differs) {
            for (i64 j = 0; j < old_width; j++) {
                owner[members[base + j]] = i + 1;
                slot[members[base + j]] = j;
            }
            i64 kept = 0;
            for (i64 j = 0; j < width; j++) {
                if (owner[fm[j]] == i + 1) {
                    kept++;
                    if (dists[base + slot[fm[j]]] != fd[j])
                        bill++;          /* moved */
                } else {
                    bill++;              /* came */
                }
            }
            bill += old_width - kept;    /* went */
        } else if (!memcmp(fp, parents + base, sizeof(i64) * (size_t)width)) {
            continue;
        }
        memcpy(members + base, fm, sizeof(i64) * (size_t)width);
        memcpy(dists + base, fd, sizeof(double) * (size_t)width);
        memcpy(parents + base, fp, sizeof(i64) * (size_t)width);
        lengths[node] = width;
        radius[node] = width == stride && width ? fd[width - 1] : INFINITY;
        changed[count++] = node;
    }
    free(owner);
    *billed = bill;
    return count;
}

/* CSR offsets after row `row` gained delta arcs (a splice): every offset
 * past the row moves by delta. */
void shift_offsets(i64 *offsets, i64 count, i64 row, i64 delta)
{
    for (i64 node = row + 1; node < count; node++)
        offsets[node] += delta;
}

/* ----------------------------------------------------------- overlay layer
 *
 * Disco's dissemination overlay (repro.core.overlay) draws every node's
 * Symphony-style harmonic fingers here, in one call per overlay build.  A
 * node's draws come from its own random.Random(seed), so the stream is
 * CPython's MT19937, replayed below word for word from _randommodule.c:
 * init_genrand, init_by_array (the key is the seed's 32-bit words, least
 * significant first: one word below 2**32, two otherwise), genrand_uint32
 * and genrand_res53.  Each attempt then does what the Python twin
 * (repro.core.overlay._choose_fingers) does, with the same libm exp / log
 * and exact integer arithmetic: a region is 2**(64 - k) hash values, 2**64
 * when k = 0, and a drawn distance can reach 2**64, so both are unsigned
 * 128-bit (unsigned __int128: GCC and Clang on 64-bit targets).  A double compared with an integer is compared exactly, as
 * Python compares a float with an int: distance < limit is
 * (u128)distance < limit for a finite distance >= 1.
 */

typedef unsigned __int128 u128;

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfU
#define MT_UPPER_MASK 0x80000000U
#define MT_LOWER_MASK 0x7fffffffU

typedef struct {
    uint32_t mt[MT_N];
    int index;
} mt_state;

static void mt_init_genrand(uint32_t *mt, uint32_t s)
{
    mt[0] = s;
    for (int i = 1; i < MT_N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + (uint32_t)i;
}

/* random.Random(seeds[l]) in each of MT_LANES states, 0 <= seed < 2**64:
 * init_by_array(key) from base = init_genrand(19650218), which every seed
 * shares.  The key is the seed's 32-bit words, least significant first --
 * one word below 2**32, two otherwise -- so the first loop's k runs N times
 * and its step s adds key[j] + j with j = s mod key_length: add[l][s & 1]
 * for either length.  The lanes' recurrences are independent and run side
 * by side, which lets the CPU overlap their serial multiply chains. */
#define MT_LANES 4

static void mt_init_by_array(mt_state *states, const uint32_t *base,
                             const uint64_t *seeds)
{
    uint32_t add[MT_LANES][2];
    for (int l = 0; l < MT_LANES; l++) {
        uint32_t low = (uint32_t)seeds[l], high = (uint32_t)(seeds[l] >> 32);
        add[l][0] = low;
        add[l][1] = seeds[l] >> 32 ? high + 1U : low;
        memcpy(states[l].mt, base, sizeof states[l].mt);
        states[l].index = MT_N;
    }
    int i = 1;
    for (int k = 0; k < MT_N; k++) {
        for (int l = 0; l < MT_LANES; l++) {
            uint32_t *mt = states[l].mt;
            mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) +
                    add[l][k & 1];
        }
        if (++i >= MT_N) {
            for (int l = 0; l < MT_LANES; l++)
                states[l].mt[0] = states[l].mt[MT_N - 1];
            i = 1;
        }
    }
    for (int k = MT_N - 1; k; k--) {
        for (int l = 0; l < MT_LANES; l++) {
            uint32_t *mt = states[l].mt;
            mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) -
                    (uint32_t)i;
        }
        if (++i >= MT_N) {
            for (int l = 0; l < MT_LANES; l++)
                states[l].mt[0] = states[l].mt[MT_N - 1];
            i = 1;
        }
    }
    for (int l = 0; l < MT_LANES; l++)
        states[l].mt[0] = 0x80000000U;
}

/* genrand_uint32.  CPython regenerates all N words when the last one has
 * been read; new word kk reads the old words kk and kk + 1 (word 0 for
 * kk = N - 1, already new) and word (kk + M) mod N, old above kk and new
 * below it.  Regenerating each word just before it is read therefore gives
 * the same words, and a node that reads a few dozen of them pays for those
 * only. */
static uint32_t mt_genrand_uint32(mt_state *state)
{
    static const uint32_t mag01[2] = {0x0U, MT_MATRIX_A};
    uint32_t *mt = state->mt;
    if (state->index >= MT_N)
        state->index = 0;
    int kk = state->index++;
    uint32_t y = (mt[kk] & MT_UPPER_MASK) |
                 (mt[kk + 1 < MT_N ? kk + 1 : 0] & MT_LOWER_MASK);
    mt[kk] = mt[(kk + MT_M) % MT_N] ^ (y >> 1) ^ mag01[y & 0x1U];
    y = mt[kk];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

/* random.Random.random(): 53 random bits in [0, 1). */
static double mt_random(mt_state *state)
{
    uint32_t a = mt_genrand_uint32(state) >> 5;
    uint32_t b = mt_genrand_uint32(state) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* The node whose hash is circularly closest to value, the exclude node
 * left out, ties to the smaller id: the five ring slots around value's
 * insertion point (n >= 4). */
static i64 overlay_resolve(i64 n, const i64 *order, const uint64_t *hashes,
                           uint64_t value, i64 exclude)
{
    i64 lo = 0, hi = n;
    while (lo < hi) {
        i64 mid = lo + (hi - lo) / 2;
        if (hashes[mid] < value)
            lo = mid + 1;
        else
            hi = mid;
    }
    i64 best = -1;
    u128 best_distance = (u128)1 << 64;
    for (i64 offset = -2; offset <= 2; offset++) {
        i64 position = ((lo + offset) % n + n) % n;
        i64 node = order[position];
        if (node == exclude)
            continue;
        uint64_t forward = value - hashes[position];
        uint64_t backward = (uint64_t)0 - forward;
        uint64_t distance = forward < backward ? forward : backward;
        if (distance < best_distance ||
            (distance == best_distance && node < best)) {
            best = node;
            best_distance = distance;
        }
    }
    return best;
}

/* One node's harmonic draws (n >= 4): the Python twin's loop, attempt for
 * attempt.  Writes up to num_fingers ids to out; returns how many. */
static i64 overlay_draw(i64 n, i64 node, i64 num_fingers, const i64 *order,
                        const uint64_t *hashes, const i64 *position,
                        i64 prefix_bits, mt_state *rng, i64 *out)
{
    i64 index = position[node];
    uint64_t own_hash = hashes[index];
    uint64_t after = hashes[(index + 1) % n];
    uint64_t before = hashes[(index + n - 1) % n];
    u128 region_size = (u128)1 << (64 - prefix_bits);
    u128 mask = region_size - 1;
    uint64_t own_offset = (uint64_t)(own_hash & mask);
    uint64_t region_start = own_hash - own_offset;
    u128 up = 0, down = 0;
    /* Limits below which a draw can only land on a ring neighbour; both 0
     * when the node or a neighbour shares its hash (see _choose_fingers). */
    if (after != own_hash && after != hashes[(index + 2) % n] &&
        before != own_hash && before != hashes[(index + n - 2) % n]) {
        u128 to_after = (uint64_t)(after - own_hash);
        u128 to_before = (uint64_t)(own_hash - before);
        u128 to_end = region_size - own_offset;
        u128 to_start = (u128)own_offset + 1;
        up = to_after < to_end ? to_after : to_end;
        down = to_before < to_start ? to_before : to_start;
    }
    i64 successor = order[(index + 1) % n];
    i64 predecessor = order[(index + n - 1) % n];
    double log_size = log((double)(region_size > 2 ? region_size : 2));
    i64 count = 0;
    for (i64 attempt = 0; count < num_fingers && attempt < num_fingers * 20;
         attempt++) {
        double distance = exp(mt_random(rng) * log_size);
        u128 whole = (u128)distance;
        u128 offset;
        if (mt_random(rng) < 0.5) {
            if (whole < up)
                continue;
            offset = ((u128)own_offset + whole) & mask;
        } else {
            if (whole < down)
                continue;
            offset = ((u128)own_offset - whole) & mask;
        }
        i64 finger = overlay_resolve(
            n, order, hashes, region_start + (uint64_t)offset, node);
        int known = finger == successor || finger == predecessor;
        for (i64 f = 0; f < count && !known; f++)
            known = out[f] == finger;
        if (!known)
            out[count++] = finger;
    }
    return count;
}

/* Every node's outgoing fingers, node v's in fingers[v * num_fingers ..]
 * and padded with -1.  order / hashes / position are the ring (nodes by
 * (hash, id), their hashes, each node's slot); prefix_bits[v] is v's k and
 * seeds[v] its random.Random seed.  Rings of three nodes or fewer draw no
 * finger.  Returns 0, or -2 (before any write) when an order or position
 * entry is outside [0, n) or a prefix length outside [0, 64].  Nodes are
 * seeded MT_LANES at a time and then draw one after the other. */
i64 overlay_fingers(i64 n, i64 num_fingers, const i64 *order,
                    const uint64_t *hashes, const i64 *position,
                    const i64 *prefix_bits, const uint64_t *seeds,
                    i64 *fingers)
{
    if (n < 0 || num_fingers < 0)
        return -2;
    for (i64 i = 0; i < n; i++)
        if (order[i] < 0 || order[i] >= n || position[i] < 0 ||
            position[i] >= n || prefix_bits[i] < 0 || prefix_bits[i] > 64)
            return -2;
    if (n <= 3 || !num_fingers) {
        for (i64 slot = 0; slot < n * num_fingers; slot++)
            fingers[slot] = -1;
        return 0;
    }
    uint32_t base[MT_N];
    mt_init_genrand(base, 19650218U);
    mt_state lanes[MT_LANES];
    for (i64 first = 0; first < n; first += MT_LANES) {
        i64 width = n - first < MT_LANES ? n - first : MT_LANES;
        uint64_t group[MT_LANES] = {0};
        memcpy(group, seeds + first, sizeof(uint64_t) * (size_t)width);
        mt_init_by_array(lanes, base, group);
        for (i64 l = 0; l < width; l++) {
            i64 node = first + l, *out = fingers + node * num_fingers;
            i64 count = overlay_draw(n, node, num_fingers, order, hashes,
                                     position, prefix_bits[node], &lanes[l],
                                     out);
            for (i64 f = count; f < num_fingers; f++)
                out[f] = -1;
        }
    }
    return 0;
}
