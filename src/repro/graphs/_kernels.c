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
 * Three kernels:
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

i64 spt_heap4(
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

i64 spt_dial(
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

i64 spt_bfs(
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

/* ------------------------------------------------------------ slab helpers
 *
 * Small flat-array passes used by the slab-direct substrate build: they move
 * kernel results (scratch-arena rows, settle orders) into SubstrateTables
 * slabs without boxing each element through a Python object.  All of them
 * have pure-Python fallbacks in repro.graphs.csr / repro.core.landmarks.
 */

/* dst[i] = src[idx[i]] -- extract a settle-ordered row from an arena. */
void gather_f64(const i64 *idx, const double *src, double *dst, i64 count)
{
    for (i64 i = 0; i < count; i++)
        dst[i] = src[idx[i]];
}

void gather_i64(const i64 *idx, const i64 *src, i64 *dst, i64 count)
{
    for (i64 i = 0; i < count; i++)
        dst[i] = src[idx[i]];
}

/* One ascending-landmark step of the closest-landmark sweep.  best_dist is
 * initialised to +inf, landmarks are processed in ascending id order, and
 * the strict < keeps equal-distance ties on the smaller landmark id --
 * exactly the reference semantics of repro.core.landmarks.closest_landmarks.
 */
void closest_update(i64 n, const double *dist, i64 landmark,
                    double *best_dist, i64 *best_landmark)
{
    for (i64 v = 0; v < n; v++) {
        if (dist[v] < best_dist[v]) {
            best_dist[v] = dist[v];
            best_landmark[v] = landmark;
        }
    }
}

/* counts[src[i]] += 1 for every i -- S4 cluster sizes over a flat members
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
 * arc order of CSRGraph.from_topology over a dict Topology whose add_edge
 * calls arrived in the same edge order (each new edge appends one arc to
 * both endpoint rows).  cursor must start as a copy of offsets[0..n-1]. */
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
 * the Python driver can fall back to its serial loop.
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
                /* Unreached: the fill contract of spt_rows_into. */
                row[v] = s->fill;
                prow[v] = -1;
            }
        }
        if (s->fold) {
            /* Fold the *filled* row, matching the serial path, which
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
