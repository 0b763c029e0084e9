/*
 * Native lane and timing walks.
 *
 * Two entry points walk one engine over a trace bundle's access columns
 * on a set-associative cache, warmup and measured windows in one pass,
 * and reproduce bit for bit what the reference walks in Python compute:
 *
 *   - walk_lane: one lane of repro.sim.engine's lane walk (the cache,
 *     lane and engine counters), and optionally the per-access hit
 *     flags, which make the engine-less walk the no-prefetch baseline
 *     replay (repro.sim.baseline);
 *   - walk_timing: repro.sim.timing's fetch loop
 *     (_run_timing_reference): the in-flight map with deletion, the
 *     touched set, the issue-queue clock, the overlap and trap-drain
 *     rules, the warmup window and the perfect L1-I.  Its float
 *     constants come from Python and every sum is taken in the loop's
 *     order; with contraction off (the build passes -ffp-contract=off)
 *     the doubles it returns are the loop's.
 *
 * Both share the cache (repro.cache.icache.InstructionCache: any
 * associativity, LRU, FIFO or random replacement, free ways filled
 * lowest index first), the engines' predict sides and the PIF
 * train-plan replay.  The engines are exact types of the repository's
 * prefetchers, each starting from empty learned state:
 *
 *   - none (NullPrefetcher): no candidates;
 *   - next-line, triggered on every access or on misses only;
 *   - stride, with two-delta confirmation;
 *   - discontinuity, with its fully-associative LRU table;
 *   - TIFS: the stream scan in MRU order (advance past the first window
 *     holding the block, refill from the miss log, queue the refilled
 *     blocks absent from the old window, repeats included), then on a
 *     would-be miss the log append, the index lookup and insert, and
 *     on a miss no stream matched, a stream allocated after the
 *     block's previous position.  The miss log is a bounded ring, the
 *     index bounded set-associative with per-set LRU or unbounded;
 *   - PIF: the SAB window probe in MRU order, window slide and refill
 *     from the history ring, index lookup and stream allocation on a
 *     miss, the order-preserving candidate dedup, and the train side
 *     replayed from the lane-independent train plan
 *     (repro.sim.trainplan): per region emission, the history append
 *     and, for tagged triggers, the index insert.  Every trap-level
 *     channel has its own history ring, index and SAB file, sized by
 *     the caller.  The retire-order PIF replays its plan at every
 *     correct-path access; the fetch-order one (AccessOrderPIF) at
 *     every access, wrong path included, from a plan built over the
 *     access columns.
 *
 * The caller (repro.sim.engine) checks dtypes, lengths and value ranges
 * before passing pointers, including that no candidate block can leave
 * int64; this file reads only within the lengths it is given and writes
 * only to the output arrays and to memory it allocates.  Allocation
 * failure returns WALK_ENOMEM with everything freed; nothing here
 * aborts.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define WALK_OK 0
#define WALK_ENOMEM 1

/* Channel keys are trap levels (uint8 access column, plan keys < 256). */
#define MAX_KEYS 256

/* A free hash slot.  The caller's range checks keep every block and
 * candidate above it, and decoded region blocks are at least -62, so no
 * real value collides with it. */
#define EMPTY INT64_MIN

/* config[CFG_ENGINE]; repro.sim.engine's _NATIVE_ENGINES sets them. */
enum {
    ENGINE_NONE, ENGINE_NEXT_LINE, ENGINE_STRIDE, ENGINE_DISCONTINUITY,
    ENGINE_PIF, ENGINE_TIFS
};

/* config[CFG_POLICY]; repro.sim.engine._NATIVE_POLICIES sets them. */
enum { POLICY_LRU, POLICY_FIFO, POLICY_RANDOM };

/* config[] layout; repro.sim.engine._NATIVE_CONFIG names the same. */
enum {
    CFG_ENGINE, CFG_N_SETS, CFG_WAYS, CFG_POLICY, CFG_WARMUP, CFG_PERFECT,
    CFG_HITS, CFG_DEGREE, CFG_MISS_ONLY, CFG_TABLE_ENTRIES, CFG_SEPARATE,
    CFG_ACCESS_ORDER, CFG_PRECEDING, CFG_SUCCEEDING, CFG_BLOCK_BITS,
    CFG_SAB_COUNT, CFG_WINDOW, CFG_HISTORY_MAIN, CFG_HISTORY_HANDLER,
    CFG_INDEX_SETS_MAIN, CFG_INDEX_SETS_HANDLER, CFG_INDEX_WAYS,
    CFG_STREAMS, CFG_WINDOW_BLOCKS, CFG_HISTORY_BLOCKS, CFG_INDEX_SETS
};

/* out_lane[] layout; repro.sim.engine._NATIVE_OUT names the same.  The
 * first nine are CacheStats fields. */
enum {
    OUT_DEMAND_ACCESSES, OUT_DEMAND_HITS, OUT_DEMAND_MISSES,
    OUT_USEFUL_PREFETCHES, OUT_PREFETCH_REQUESTS, OUT_PREFETCH_FILLS,
    OUT_PREFETCH_DROPS, OUT_EVICTIONS, OUT_EVICTED_UNUSED, OUT_REMAINING,
    OUT_TRIGGERS, OUT_ISSUED, OUT_STREAM_ALLOCATIONS, OUT_RETIRED,
    OUT_CHANNELS, OUT_LEVELS, OUT_FETCH_MISSES, OUT_LATE_HITS,
    OUT_INDEX_INSERTIONS, OUT_INDEX_HITS, OUT_INDEX_MISSES
};

/* One out_channels[] row per channel, in creation order;
 * repro.sim.engine._NATIVE_CHANNEL names the same. */
enum {
    CH_KEY, CH_REGIONS_RECORDED, CH_INDEX_INSERTIONS,
    CH_STREAM_ALLOCATIONS, CH_WINDOW_ADVANCES, CH_REGIONS_EMITTED,
    CH_PASSED, CH_DISCARDED, CH_INDEX_HITS, CH_INDEX_MISSES,
    CH_SAB_ALLOCATIONS, CH_FIELDS
};

/* walk_timing's constants[] (repro.sim.timing._loop_constants) and
 * out_timing[] (the loop's three accumulators). */
enum { K_BASE, K_OVERLAP, K_L2_LATENCY, K_MEMORY_LATENCY, K_PER_RETIRE };
enum { T_CYCLES, T_STALLS, T_INSTRUCTIONS };

typedef union {
    int64_t i;
    double d;
} Value;

/* Open addressing with linear probing, EMPTY keys free; deletion shifts
 * the rest of the probe run back, so there are no tombstones. */
typedef struct {
    int64_t *keys;
    Value *values;
    int64_t mask;
    int64_t used;
} Map;

/* A history record as the predict side reads it: the trigger's block
 * and the region bit vector.  (The record's tagged flag only decides
 * the index insert at append time, so it is not stored.) */
typedef struct {
    int64_t block;
    int64_t bits;
} Region;

typedef struct {
    int64_t pointer;     /* next history position a refill reads */
    int64_t len;         /* regions in the window, head first */
    Region *window;      /* window_regions slots */
} Sab;

/* IndexTable: key -> history position, bounded set-associative with
 * per-set LRU, or unbounded. */
typedef struct {
    int64_t sets;        /* 0: the unbounded index, in map */
    int64_t ways;
    int64_t *keys;       /* sets x ways, each set LRU first */
    int64_t *values;
    int64_t *fill;
    Map map;
    int64_t insertions;
    int64_t hits;
    int64_t misses;
} Index;

typedef struct {
    Region *ring;        /* history ring, positions modulo capacity */
    int64_t capacity;
    int64_t tail;        /* position the next append takes */
    Index index;
    Sab *sabs;           /* sab_count SABs */
    Sab **order;         /* active SABs, most recently matched first */
    int64_t active;
    Region *windows;
    int64_t stats[CH_FIELDS];
} Channel;

/* MT19937 as CPython's random module runs it. */
#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t state[MT_N];
    int index;
} Mt;

/* The cache: one slot per (set, way), a set's ways adjacent.  A slot
 * holds a tag, a flag (bit 0 = installed by a prefetch, bit 1 =
 * demanded since) and a stamp: the tick of its last demand hit or fill
 * under LRU, of its fill under FIFO.  Free ways fill lowest index first
 * and the walks never invalidate, so a set's first fill[set] ways hold
 * its blocks and the rest are free.  The LRU or FIFO victim is the way
 * with the smallest stamp; a random victim is the set's next
 * Random(0).randrange(ways), each set drawing from its own generator as
 * RandomPolicy does. */
typedef struct {
    int64_t n_sets;
    int64_t ways;
    int policy;
    int64_t *tags;
    uint8_t *flags;
    int64_t *stamps;
    int64_t *fill;
    int64_t tick;
    Mt *rngs;            /* random: one generator per set */
    int shift;           /* random: 32 - ways.bit_length() */
    int64_t misses;
    int64_t useful;
    int64_t evictions;
    int64_t evicted_unused;
} Cache;

/* DiscontinuityPrefetcher's LRUCache: a pool of entries in a list from
 * least (head) to most (tail) recently used, found through map. */
typedef struct {
    Map map;             /* key -> entry */
    int64_t *keys;
    int64_t *values;
    int64_t *prev;
    int64_t *next;
    int64_t capacity;
    int64_t size;
    int64_t head;
    int64_t tail;
} Lru;

/* One TIFS replay of the miss log: the window is the blocks read at
 * pointer, kept as read (the ring may overwrite them since). */
typedef struct {
    int64_t pointer;     /* miss-log position the window starts at */
    int64_t len;
    int64_t *window;     /* window_blocks slots */
} Stream;

/* The train plan's five columns (repro.sim.trainplan.PIFTrainPlan). */
typedef struct {
    int64_t n;
    const int64_t *at;
    const int64_t *key;
    const int64_t *trigger;
    const uint8_t *survives;
    const int64_t *bits;
} Plan;

typedef struct {
    const int64_t *config;
    int engine;
    Cache cache;
    int64_t *cand;       /* one access's candidate blocks */
    int64_t n_cand;
    int64_t triggers;
    int64_t issued;
    /* next-line, stride, discontinuity */
    int64_t degree;
    int miss_only;
    int has_last;
    int64_t last;        /* last triggered / last / previous block */
    int has_stride;
    int64_t stride;
    int confirmed;
    Lru table;
    /* PIF */
    int64_t preceding;
    int64_t succeeding;
    int64_t width;       /* preceding + succeeding bits per vector */
    int64_t sab_count;
    int64_t window;
    Channel *channels[MAX_KEYS];
    int64_t created[MAX_KEYS];   /* channel keys in creation order */
    int64_t n_channels;
    int64_t stream_allocations;
    int64_t cand_regions;
    int64_t *seen_keys;  /* dedup set, valid where seen_gen == gen */
    uint32_t *seen_gen;
    int64_t seen_mask;
    uint32_t gen;
    int access_order;    /* the plan's steps are accesses, not retires */
    Plan plan;
    int64_t step;        /* train steps taken */
    int64_t event;
    int64_t next_event;
    int64_t retired;
    uint8_t pending[MAX_KEYS];
    /* TIFS */
    int64_t *log;        /* miss log ring, positions modulo log_capacity */
    int64_t log_capacity;
    int64_t log_tail;    /* position the next append takes */
    Index log_index;
    int64_t stream_capacity;
    int64_t window_blocks;
    int64_t n_streams;
    Stream *stream_slots;    /* stream_capacity slots */
    Stream **stream_order;   /* live streams, most recently used first */
    int64_t *stream_windows; /* stream_capacity + 1 windows */
    int64_t *spare;      /* the window no stream holds; refills read here */
} Walk;

/* Python's % for a positive modulus. */
static int64_t py_mod(int64_t value, int64_t modulus)
{
    int64_t rest = value % modulus;
    return rest < 0 ? rest + modulus : rest;
}

static uint64_t mix(int64_t key)
{
    uint64_t hash = (uint64_t)key * UINT64_C(0x9E3779B97F4A7C15);
    return hash ^ (hash >> 29);
}

/* ---------------------------------------------------------------- maps */

/* An empty map of slots (a power of two); on failure the map holds
 * what map_free releases. */
static int map_init(Map *map, int64_t slots)
{
    int64_t slot;
    map->keys = malloc((size_t)slots * sizeof(int64_t));
    map->values = malloc((size_t)slots * sizeof(Value));
    map->mask = slots - 1;
    map->used = 0;
    if (map->keys == NULL || map->values == NULL)
        return WALK_ENOMEM;
    for (slot = 0; slot < slots; slot++)
        map->keys[slot] = EMPTY;
    return WALK_OK;
}

static void map_free(Map *map)
{
    free(map->keys);
    free(map->values);
}

/* The slot holding key, or the free slot where it would go. */
static int64_t map_probe(const Map *map, int64_t key)
{
    uint64_t slot = mix(key) & (uint64_t)map->mask;
    while (map->keys[slot] != EMPTY && map->keys[slot] != key)
        slot = (slot + 1) & (uint64_t)map->mask;
    return (int64_t)slot;
}

/* The slot holding key, or -1. */
static int64_t map_find(const Map *map, int64_t key)
{
    int64_t slot = map_probe(map, key);
    return map->keys[slot] == EMPTY ? -1 : slot;
}

static int map_grow(Map *map)
{
    Map grown;
    int64_t slot;
    if (map_init(&grown, 2 * (map->mask + 1)) != WALK_OK) {
        map_free(&grown);
        return WALK_ENOMEM;
    }
    for (slot = 0; slot <= map->mask; slot++) {
        if (map->keys[slot] != EMPTY) {
            int64_t probe = map_probe(&grown, map->keys[slot]);
            grown.keys[probe] = map->keys[slot];
            grown.values[probe] = map->values[slot];
        }
    }
    grown.used = map->used;
    map_free(map);
    *map = grown;
    return WALK_OK;
}

/* key -> value, added or replaced; the map doubles at half load. */
static int map_put(Map *map, int64_t key, Value value)
{
    int64_t slot = map_probe(map, key);
    if (map->keys[slot] == EMPTY) {
        if (2 * (map->used + 1) > map->mask + 1) {
            if (map_grow(map) != WALK_OK)
                return WALK_ENOMEM;
            slot = map_probe(map, key);
        }
        map->keys[slot] = key;
        map->used++;
    }
    map->values[slot] = value;
    return WALK_OK;
}

/* Remove the entry at slot: later entries of its probe run that may sit
 * at the hole move back into it. */
static void map_delete(Map *map, int64_t slot)
{
    const uint64_t mask = (uint64_t)map->mask;
    uint64_t hole = (uint64_t)slot, probe = hole;
    for (;;) {
        uint64_t home;
        probe = (probe + 1) & mask;
        if (map->keys[probe] == EMPTY)
            break;
        home = mix(map->keys[probe]) & mask;
        if (((probe - home) & mask) >= ((probe - hole) & mask)) {
            map->keys[hole] = map->keys[probe];
            map->values[hole] = map->values[probe];
            hole = probe;
        }
    }
    map->keys[hole] = EMPTY;
    map->used--;
}

/* ----------------------------------------------------------- MT19937 */

/* init_genrand, then init_by_array(key): CPython's random_seed for a
 * non-negative int seed passes its 32-bit words as the key. */
static void mt_seed(Mt *mt, const uint32_t *key, int key_length)
{
    uint32_t *state = mt->state;
    int i = 1, j = 0, k;
    state[0] = UINT32_C(19650218);
    for (k = 1; k < MT_N; k++)
        state[k] = UINT32_C(1812433253) * (state[k - 1]
                                           ^ (state[k - 1] >> 30))
                   + (uint32_t)k;
    for (k = MT_N > key_length ? MT_N : key_length; k; k--) {
        state[i] = (state[i] ^ ((state[i - 1] ^ (state[i - 1] >> 30))
                                * UINT32_C(1664525)))
                   + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            state[0] = state[MT_N - 1];
            i = 1;
        }
        if (j >= key_length)
            j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        state[i] = (state[i] ^ ((state[i - 1] ^ (state[i - 1] >> 30))
                                * UINT32_C(1566083941)))
                   - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            state[0] = state[MT_N - 1];
            i = 1;
        }
    }
    state[0] = UINT32_C(0x80000000);
    mt->index = MT_N;
}

/* genrand_uint32. */
static uint32_t mt_next(Mt *mt)
{
    uint32_t *state = mt->state, y;
    if (mt->index >= MT_N) {
        int k;
        for (k = 0; k < MT_N; k++) {
            y = (state[k] & UINT32_C(0x80000000))
                | (state[(k + 1) % MT_N] & UINT32_C(0x7fffffff));
            state[k] = state[(k + MT_M) % MT_N] ^ (y >> 1)
                       ^ (y & 1 ? UINT32_C(0x9908b0df) : 0);
        }
        mt->index = 0;
    }
    y = state[mt->index++];
    y ^= y >> 11;
    y ^= (y << 7) & UINT32_C(0x9d2c5680);
    y ^= (y << 15) & UINT32_C(0xefc60000);
    return y ^ (y >> 18);
}

/* --------------------------------------------------------------- cache */

/* The slot of set holding block, or -1. */
static int64_t cache_find(const Cache *cache, int64_t set, int64_t block)
{
    const int64_t base = set * cache->ways, end = base + cache->fill[set];
    int64_t slot;
    for (slot = base; slot < end; slot++)
        if (cache->tags[slot] == block)
            return slot;
    return -1;
}

/* The way of a full set that a fill evicts.  A random draw is
 * _randbelow(ways): getrandbits(k) with k = ways.bit_length(), that is
 * the generator's next word shifted right by 32 - k, drawn again while
 * it is ways or more. */
static int64_t cache_victim(Cache *cache, int64_t set)
{
    const int64_t *stamps = cache->stamps + set * cache->ways;
    int64_t way, victim = 0;
    if (cache->policy == POLICY_RANDOM) {
        do
            victim = mt_next(&cache->rngs[set]) >> cache->shift;
        while (victim >= cache->ways);
        return victim;
    }
    for (way = 1; way < cache->ways; way++)
        if (stamps[way] < stamps[victim])
            victim = way;
    return victim;
}

/* InstructionCache._fill of an absent block: the lowest free way, else
 * the victim, evicted. */
static void cache_fill(Cache *cache, int64_t set, int64_t block,
                       uint8_t flag)
{
    int64_t slot = set * cache->ways;
    if (cache->fill[set] < cache->ways) {
        slot += cache->fill[set]++;
    } else {
        slot += cache_victim(cache, set);
        cache->evictions++;
        if (cache->flags[slot] == 1)
            cache->evicted_unused++;
    }
    cache->tags[slot] = block;
    cache->flags[slot] = flag;
    cache->stamps[slot] = ++cache->tick;
}

/* InstructionCache.access: 0 miss (the block is filled), 1 hit, 2 the
 * first demand hit on a prefetched block.  (The timing loop fills its
 * misses later, but nothing reads the cache in between.) */
static int cache_access(Cache *cache, int64_t block)
{
    const int64_t set = py_mod(block, cache->n_sets);
    const int64_t slot = cache_find(cache, set, block);
    if (slot < 0) {
        cache->misses++;
        cache_fill(cache, set, block, 0);
        return 0;
    }
    if (cache->policy == POLICY_LRU)
        cache->stamps[slot] = ++cache->tick;
    if (cache->flags[slot] == 1) {
        cache->flags[slot] = 3;
        cache->useful++;
        return 2;
    }
    cache->flags[slot] |= 2;
    return 1;
}

/* ----------------------------------------------- discontinuity table */

static void lru_unlink(Lru *lru, int64_t entry)
{
    if (lru->prev[entry] >= 0)
        lru->next[lru->prev[entry]] = lru->next[entry];
    else
        lru->head = lru->next[entry];
    if (lru->next[entry] >= 0)
        lru->prev[lru->next[entry]] = lru->prev[entry];
    else
        lru->tail = lru->prev[entry];
}

static void lru_append(Lru *lru, int64_t entry)
{
    lru->prev[entry] = lru->tail;
    lru->next[entry] = -1;
    if (lru->tail >= 0)
        lru->next[lru->tail] = entry;
    else
        lru->head = entry;
    lru->tail = entry;
}

/* LRUCache.get: 1 and the value, promoted to MRU, or 0. */
static int lru_get(Lru *lru, int64_t key, int64_t *value)
{
    const int64_t slot = map_find(&lru->map, key);
    int64_t entry;
    if (slot < 0)
        return 0;
    entry = lru->map.values[slot].i;
    lru_unlink(lru, entry);
    lru_append(lru, entry);
    *value = lru->values[entry];
    return 1;
}

/* LRUCache.put: key -> value at MRU, evicting the LRU entry when full.
 * The map holds at most capacity keys in at least twice as many slots,
 * so it never grows. */
static void lru_put(Lru *lru, int64_t key, int64_t value)
{
    const int64_t slot = map_find(&lru->map, key);
    int64_t entry;
    Value found;
    if (slot >= 0) {
        entry = lru->map.values[slot].i;
        lru_unlink(lru, entry);
    } else {
        if (lru->size < lru->capacity) {
            entry = lru->size++;
        } else {
            entry = lru->head;
            lru_unlink(lru, entry);
            map_delete(&lru->map, map_find(&lru->map, lru->keys[entry]));
        }
        lru->keys[entry] = key;
        found.i = entry;
        map_put(&lru->map, key, found);
    }
    lru->values[entry] = value;
    lru_append(lru, entry);
}

/* --------------------------------------------------------------- index */

/* An empty index of sets x ways (sets 0: unbounded); on failure the
 * index holds what index_free releases. */
static int index_init(Index *index, int64_t sets, int64_t ways)
{
    index->sets = sets;
    index->ways = ways;
    if (sets == 0)
        return map_init(&index->map, 16);
    index->keys = malloc((size_t)(sets * ways) * sizeof(int64_t));
    index->values = malloc((size_t)(sets * ways) * sizeof(int64_t));
    index->fill = calloc((size_t)sets, sizeof(int64_t));
    return index->keys == NULL || index->values == NULL
           || index->fill == NULL ? WALK_ENOMEM : WALK_OK;
}

static void index_free(Index *index)
{
    free(index->keys);
    free(index->values);
    free(index->fill);
    map_free(&index->map);
}

/* IndexTable._set_for's fold; keys are non-negative. */
static int64_t index_set(const Index *index, int64_t key)
{
    return ((key >> 2) ^ (key >> 9) ^ (key >> 17)) % index->sets;
}

/* IndexTable.lookup: the recorded position for key, or -1. */
static int64_t index_lookup(Index *index, int64_t key)
{
    int64_t position = -1;
    if (index->sets) {
        const int64_t set = index_set(index, key);
        int64_t *keys = index->keys + set * index->ways;
        int64_t *values = index->values + set * index->ways;
        int64_t fill = index->fill[set], way;
        for (way = 0; way < fill; way++) {
            if (keys[way] == key) {
                /* LRUCache.get promotes the hit to MRU. */
                position = values[way];
                memmove(keys + way, keys + way + 1,
                        (size_t)(fill - 1 - way) * sizeof(int64_t));
                memmove(values + way, values + way + 1,
                        (size_t)(fill - 1 - way) * sizeof(int64_t));
                keys[fill - 1] = key;
                values[fill - 1] = position;
                break;
            }
        }
    } else {
        int64_t slot = map_find(&index->map, key);
        if (slot >= 0)
            position = index->map.values[slot].i;
    }
    if (position < 0)
        index->misses++;
    else
        index->hits++;
    return position;
}

/* IndexTable.insert: key -> position, evicting the set's LRU entry. */
static int index_insert(Index *index, int64_t key, int64_t position)
{
    if (index->sets) {
        const int64_t set = index_set(index, key);
        int64_t *keys = index->keys + set * index->ways;
        int64_t *values = index->values + set * index->ways;
        int64_t fill = index->fill[set], way;
        for (way = 0; way < fill && keys[way] != key; way++)
            ;
        if (way == fill && fill == index->ways)
            way = 0;                  /* full: the LRU entry goes */
        else if (way == fill)
            fill++;
        memmove(keys + way, keys + way + 1,
                (size_t)(fill - 1 - way) * sizeof(int64_t));
        memmove(values + way, values + way + 1,
                (size_t)(fill - 1 - way) * sizeof(int64_t));
        keys[fill - 1] = key;
        values[fill - 1] = position;
        index->fill[set] = fill;
    } else {
        Value value;
        value.i = position;
        if (map_put(&index->map, key, value) != WALK_OK)
            return WALK_ENOMEM;
    }
    index->insertions++;
    return WALK_OK;
}

/* ------------------------------------------------------------- PIF */

static void channel_free(Channel *channel)
{
    if (channel == NULL)
        return;
    free(channel->ring);
    index_free(&channel->index);
    free(channel->sabs);
    free(channel->order);
    free(channel->windows);
    free(channel);
}

/* The channel for key, created on first use (in the order
 * ProactiveInstructionFetch._channel creates them); NULL when out of
 * memory. */
static Channel *channel_for(Walk *walk, int64_t key)
{
    Channel *channel = walk->channels[key];
    int64_t slot;
    if (channel != NULL)
        return channel;
    channel = calloc(1, sizeof(Channel));
    if (channel == NULL)
        return NULL;
    channel->capacity = walk->config[key ? CFG_HISTORY_HANDLER
                                         : CFG_HISTORY_MAIN];
    channel->ring = malloc((size_t)channel->capacity * sizeof(Region));
    channel->sabs = calloc((size_t)walk->sab_count, sizeof(Sab));
    channel->order = calloc((size_t)walk->sab_count, sizeof(Sab *));
    channel->windows = malloc((size_t)(walk->sab_count * walk->window)
                              * sizeof(Region));
    if (index_init(&channel->index,
                   walk->config[key ? CFG_INDEX_SETS_HANDLER
                                    : CFG_INDEX_SETS_MAIN],
                   walk->config[CFG_INDEX_WAYS]) != WALK_OK
            || channel->ring == NULL || channel->sabs == NULL
            || channel->order == NULL || channel->windows == NULL) {
        channel_free(channel);
        return NULL;
    }
    for (slot = 0; slot < walk->sab_count; slot++)
        channel->sabs[slot].window = channel->windows + slot * walk->window;
    channel->stats[CH_KEY] = key;
    walk->channels[key] = channel;
    walk->created[walk->n_channels++] = key;
    return channel;
}

/* SpatialRegionRecord.blocks: the trigger block, then the bit-vector
 * blocks left to right, appended to the access's candidates. */
static void emit_blocks(Walk *walk, Region region)
{
    int64_t *out = walk->cand + walk->n_cand;
    int64_t bit;
    *out++ = region.block;
    for (bit = 0; bit < walk->width && (region.bits >> bit); bit++)
        if ((region.bits >> bit) & 1)
            *out++ = region.block + (bit < walk->preceding
                                     ? bit - walk->preceding
                                     : bit - walk->preceding + 1);
    walk->n_cand = out - walk->cand;
    walk->cand_regions++;
}

/* StreamAddressBuffer._refill over HistoryBuffer.read_run. */
static void refill(Walk *walk, Channel *channel, Sab *sab)
{
    int64_t needed = walk->window - sab->len;
    int64_t position = sab->pointer, end;
    if (needed <= 0 || position < 0 || position >= channel->tail
            || position < channel->tail - channel->capacity)
        return;
    end = position + needed < channel->tail ? position + needed
                                            : channel->tail;
    for (; position < end; position++) {
        Region region = channel->ring[position % channel->capacity];
        sab->window[sab->len++] = region;
        emit_blocks(walk, region);
    }
    sab->pointer = end;
}

/* The first window slot whose region holds block, or -1 (the SAB's
 * first-cover block map, probed directly). */
static int64_t window_slot(const Walk *walk, const Sab *sab, int64_t block)
{
    int64_t slot;
    for (slot = 0; slot < sab->len; slot++) {
        int64_t offset = block - sab->window[slot].block;
        if (offset == 0)
            return slot;
        if (offset >= -walk->preceding && offset <= walk->succeeding) {
            int64_t bit = offset < 0 ? offset + walk->preceding
                                     : offset + walk->preceding - 1;
            if ((sab->window[slot].bits >> bit) & 1)
                return slot;
        }
    }
    return -1;
}

/* SABFile.advance's probe: slide the first matching SAB, refill
 * it and promote it to MRU. */
static void advance_streams(Walk *walk, Channel *channel, int64_t block)
{
    int64_t position, slot = -1;
    Sab *sab = NULL;
    for (position = 0; position < channel->active; position++) {
        slot = window_slot(walk, channel->order[position], block);
        if (slot >= 0) {
            sab = channel->order[position];
            break;
        }
    }
    if (sab == NULL)
        return;
    if (slot > 0) {
        memmove(sab->window, sab->window + slot,
                (size_t)(sab->len - slot) * sizeof(Region));
        sab->len -= slot;
        refill(walk, channel, sab);
    }
    memmove(channel->order + 1, channel->order,
            (size_t)position * sizeof(Sab *));
    channel->order[0] = sab;
    channel->stats[CH_WINDOW_ADVANCES]++;
}

/* SABFile.allocate: a new stream at start, replacing the LRU SAB
 * when the file is full. */
static void allocate_stream(Walk *walk, Channel *channel, int64_t start)
{
    Sab *sab;
    if (channel->active < walk->sab_count)
        sab = &channel->sabs[channel->active++];
    else
        sab = channel->order[walk->sab_count - 1];
    memmove(channel->order + 1, channel->order,
            (size_t)(channel->active - 1) * sizeof(Sab *));
    channel->order[0] = sab;
    sab->pointer = start;
    sab->len = 0;
    channel->stats[CH_SAB_ALLOCATIONS]++;
    channel->stats[CH_STREAM_ALLOCATIONS]++;
    refill(walk, channel, sab);
}

/* Drop repeats from the access's candidates, keeping first
 * occurrences in order.  One region never repeats a block. */
static void dedup_candidates(Walk *walk)
{
    int64_t read, kept = 0;
    if (walk->cand_regions < 2)
        return;
    if (++walk->gen == 0) {
        memset(walk->seen_gen, 0,
               (size_t)(walk->seen_mask + 1) * sizeof(uint32_t));
        walk->gen = 1;
    }
    for (read = 0; read < walk->n_cand; read++) {
        int64_t block = walk->cand[read];
        uint64_t slot = mix(block) & (uint64_t)walk->seen_mask;
        while (walk->seen_gen[slot] == walk->gen
                && walk->seen_keys[slot] != block)
            slot = (slot + 1) & (uint64_t)walk->seen_mask;
        if (walk->seen_gen[slot] == walk->gen)
            continue;
        walk->seen_gen[slot] = walk->gen;
        walk->seen_keys[slot] = block;
        walk->cand[kept++] = block;
    }
    walk->n_cand = kept;
}

/* ------------------------------------------------------------ TIFS */

/* HistoryBuffer.read_run_values(position, window_blocks) of the miss
 * log into out: the live blocks from position on; none when position
 * is at or past the tail, or overwritten.  Returns how many. */
static int64_t log_read(const Walk *walk, int64_t position, int64_t *out)
{
    int64_t end = position + walk->window_blocks, len = 0;
    if (position >= walk->log_tail
            || position < walk->log_tail - walk->log_capacity)
        return 0;
    if (end > walk->log_tail)
        end = walk->log_tail;
    for (; position < end; position++)
        out[len++] = walk->log[position % walk->log_capacity];
    return len;
}

/* TIFSPrefetcher._refill: re-read the window at the stream's pointer,
 * queue every block of it absent from the old window (repeats
 * included), and keep it as the stream's window, even when empty. */
static void tifs_refill(Walk *walk, Stream *stream)
{
    int64_t *fresh = walk->spare;
    const int64_t len = log_read(walk, stream->pointer, fresh);
    int64_t read, slot;
    for (read = 0; read < len; read++) {
        for (slot = 0; slot < stream->len
                       && stream->window[slot] != fresh[read]; slot++)
            ;
        if (slot == stream->len)
            walk->cand[walk->n_cand++] = fresh[read];
    }
    walk->spare = stream->window;
    stream->window = fresh;
    stream->len = len;
}

/* The stream scan: advance the first stream (most recently used first)
 * whose window holds block to just past it, refill it and promote it
 * to most recently used.  1 when a stream matched. */
static int tifs_advance(Walk *walk, int64_t block)
{
    int64_t position, slot;
    for (position = 0; position < walk->n_streams; position++) {
        Stream *stream = walk->stream_order[position];
        for (slot = 0; slot < stream->len; slot++) {
            if (stream->window[slot] == block) {
                stream->pointer += slot + 1;
                tifs_refill(walk, stream);
                memmove(walk->stream_order + 1, walk->stream_order,
                        (size_t)position * sizeof(Stream *));
                walk->stream_order[0] = stream;
                return 1;
            }
        }
    }
    return 0;
}

/* TIFSPrefetcher._allocate: a stream at pointer, all of its window
 * queued; it joins the list as most recently used, dropping the least
 * recently used one from a full list, only when its window is not
 * empty. */
static void tifs_allocate(Walk *walk, int64_t pointer)
{
    const int64_t len = log_read(walk, pointer, walk->spare);
    Stream *stream;
    int64_t *window;
    walk->triggers++;
    walk->stream_allocations++;
    memcpy(walk->cand + walk->n_cand, walk->spare,
           (size_t)len * sizeof(int64_t));
    walk->n_cand += len;
    if (len == 0)
        return;
    if (walk->n_streams < walk->stream_capacity)
        stream = &walk->stream_slots[walk->n_streams++];
    else
        stream = walk->stream_order[walk->n_streams - 1];
    memmove(walk->stream_order + 1, walk->stream_order,
            (size_t)(walk->n_streams - 1) * sizeof(Stream *));
    walk->stream_order[0] = stream;
    window = stream->window;
    stream->window = walk->spare;
    walk->spare = window;
    stream->pointer = pointer;
    stream->len = len;
}

/* ------------------------------------------------- the shared walk */

/* The engine's on_demand_access for one access with result code
 * code: its candidates into walk->cand, its counters updated. */
static int predict(Walk *walk, int64_t block, int64_t pc, uint8_t trap,
                   int code)
{
    int64_t step;
    walk->n_cand = 0;
    switch (walk->engine) {
    case ENGINE_NEXT_LINE:
        if ((code && walk->miss_only) || (walk->has_last
                                          && block == walk->last))
            return WALK_OK;
        walk->has_last = 1;
        walk->last = block;
        walk->triggers++;
        for (step = 1; step <= walk->degree; step++)
            walk->cand[walk->n_cand++] = block + step;
        break;
    case ENGINE_STRIDE:
        if (walk->has_last && block == walk->last)
            return WALK_OK;
        if (walk->has_last) {
            const int64_t stride = block - walk->last;
            if (walk->has_stride && stride == walk->stride && stride != 0)
                walk->confirmed = 1;
            else if (walk->has_stride)
                walk->confirmed = 0;
            walk->has_stride = 1;
            walk->stride = stride;
            if (walk->confirmed) {
                walk->triggers++;
                for (step = 1; step <= walk->degree; step++)
                    walk->cand[walk->n_cand++] = block + stride * step;
            }
        }
        walk->has_last = 1;
        walk->last = block;
        break;
    case ENGINE_DISCONTINUITY:
        if (walk->has_last && walk->last != block) {
            int64_t target;
            if (code == 0 && block != walk->last + 1)
                lru_put(&walk->table, walk->last, block);
            walk->triggers++;
            for (step = 1; step <= walk->degree; step++)
                walk->cand[walk->n_cand++] = block + step;
            if (lru_get(&walk->table, block, &target)) {
                walk->cand[walk->n_cand++] = target;
                walk->cand[walk->n_cand++] = target + 1;
            }
        }
        walk->has_last = 1;
        walk->last = block;
        break;
    case ENGINE_PIF: {
        Channel *channel = channel_for(walk, walk->config[CFG_SEPARATE]
                                             ? trap : 0);
        if (channel == NULL)
            return WALK_ENOMEM;
        walk->cand_regions = 0;
        if (channel->active)
            advance_streams(walk, channel, block);
        if (code == 0) {
            const int64_t start = index_lookup(&channel->index, pc);
            walk->triggers++;
            if (start >= 0) {
                allocate_stream(walk, channel, start);
                walk->stream_allocations++;
            }
        }
        if (walk->n_cand)
            dedup_candidates(walk);
        break;
    }
    case ENGINE_TIFS: {
        /* The scan reads the log before this access's append, an
         * allocation after it. */
        const int matched = walk->n_streams && tifs_advance(walk, block);
        if (code != 1) {
            /* A would-be miss: a miss, or a first demand hit on a
             * prefetched block. */
            const int64_t position = walk->log_tail++;
            int64_t previous;
            walk->log[position % walk->log_capacity] = block;
            previous = index_lookup(&walk->log_index, block);
            if (index_insert(&walk->log_index, block, position) != WALK_OK)
                return WALK_ENOMEM;
            if (code == 0 && !matched && previous >= 0)
                tifs_allocate(walk, previous + 1);
        }
        break;
    }
    default:
        break;
    }
    walk->issued += walk->n_cand;
    return WALK_OK;
}

/* The train side of one access with result code code, which the walks
 * call at every correct-path access, or at every access when the plan
 * is built over the access columns: PIF's train-plan event at this
 * step, if any. */
static int train(Walk *walk, int code)
{
    const Plan *plan = &walk->plan;
    int64_t event = walk->event, key;
    Channel *channel;
    if (walk->step++ != walk->next_event)
        return WALK_OK;
    key = plan->key[event];
    channel = channel_for(walk, key);
    if (channel == NULL)
        return WALK_ENOMEM;
    if (plan->trigger[event] >= 0) {
        channel->stats[CH_REGIONS_EMITTED]++;
        if (plan->survives[event]) {
            const int64_t position = channel->tail++;
            Region *record = &channel->ring[position % channel->capacity];
            record->block = plan->trigger[event]
                            >> walk->config[CFG_BLOCK_BITS];
            record->bits = plan->bits[event];
            channel->stats[CH_PASSED]++;
            channel->stats[CH_REGIONS_RECORDED]++;
            if (walk->pending[key]
                    && index_insert(&channel->index, plan->trigger[event],
                                    position) != WALK_OK)
                return WALK_ENOMEM;
        } else {
            channel->stats[CH_DISCARDED]++;
        }
    }
    /* The region opening here records this access's tag. */
    walk->pending[key] = code != 2;
    walk->event = ++event;
    walk->next_event = event < plan->n ? plan->at[event] : -1;
    return WALK_OK;
}

static void walk_free(Walk *walk)
{
    int64_t key;
    for (key = 0; key < MAX_KEYS; key++)
        channel_free(walk->channels[key]);
    free(walk->cand);
    free(walk->seen_keys);
    free(walk->seen_gen);
    free(walk->cache.tags);
    free(walk->cache.flags);
    free(walk->cache.stamps);
    free(walk->cache.fill);
    free(walk->cache.rngs);
    map_free(&walk->table.map);
    free(walk->table.keys);
    free(walk->table.values);
    free(walk->table.prev);
    free(walk->table.next);
    free(walk->log);
    index_free(&walk->log_index);
    free(walk->stream_slots);
    free(walk->stream_order);
    free(walk->stream_windows);
}

/* An empty cache and engine for config; on failure the walk holds what
 * walk_free releases. */
static int walk_init(Walk *walk, const int64_t *config, Plan plan)
{
    Cache *cache = &walk->cache;
    int64_t max_cand, seen_slots, slot, slots, table_slots;
    memset(walk, 0, sizeof(*walk));
    walk->config = config;
    walk->engine = (int)config[CFG_ENGINE];
    walk->degree = config[CFG_DEGREE];
    walk->miss_only = config[CFG_MISS_ONLY] != 0;
    walk->preceding = config[CFG_PRECEDING];
    walk->succeeding = config[CFG_SUCCEEDING];
    walk->width = walk->preceding + walk->succeeding;
    walk->sab_count = config[CFG_SAB_COUNT];
    walk->window = config[CFG_WINDOW];
    walk->access_order = config[CFG_ACCESS_ORDER] != 0;
    walk->plan = plan;
    walk->next_event = plan.n ? plan.at[0] : -1;
    walk->window_blocks = config[CFG_WINDOW_BLOCKS];
    /* A PIF access slides in at most window - 1 regions and allocates
     * at most window more; a discontinuity trigger adds a target and
     * its successor to the next lines; a TIFS access refills or
     * allocates one window. */
    max_cand = 2 * walk->window * (walk->width + 1);
    if (walk->degree + 2 > max_cand)
        max_cand = walk->degree + 2;
    if (walk->window_blocks > max_cand)
        max_cand = walk->window_blocks;
    for (seen_slots = 16; seen_slots < 2 * max_cand; seen_slots *= 2)
        ;
    walk->seen_mask = seen_slots - 1;
    walk->cand = malloc((size_t)max_cand * sizeof(int64_t));
    walk->seen_keys = malloc((size_t)seen_slots * sizeof(int64_t));
    walk->seen_gen = calloc((size_t)seen_slots, sizeof(uint32_t));
    cache->n_sets = config[CFG_N_SETS];
    cache->ways = config[CFG_WAYS];
    cache->policy = (int)config[CFG_POLICY];
    slots = cache->n_sets * cache->ways;
    cache->tags = malloc((size_t)slots * sizeof(int64_t));
    cache->flags = malloc((size_t)slots);
    cache->stamps = malloc((size_t)slots * sizeof(int64_t));
    cache->fill = calloc((size_t)cache->n_sets, sizeof(int64_t));
    if (walk->cand == NULL || walk->seen_keys == NULL
            || walk->seen_gen == NULL || cache->tags == NULL
            || cache->flags == NULL || cache->stamps == NULL
            || cache->fill == NULL)
        return WALK_ENOMEM;
    if (cache->policy == POLICY_RANDOM) {
        /* Every set starts from Random(0), seeded once and copied. */
        const uint32_t key = 0;
        int bits = 0;
        cache->rngs = malloc((size_t)cache->n_sets * sizeof(Mt));
        if (cache->rngs == NULL)
            return WALK_ENOMEM;
        mt_seed(&cache->rngs[0], &key, 1);
        for (slot = 1; slot < cache->n_sets; slot++)
            cache->rngs[slot] = cache->rngs[0];
        while (cache->ways >> bits)
            bits++;
        cache->shift = 32 - bits;
    }
    if (walk->engine == ENGINE_DISCONTINUITY) {
        Lru *table = &walk->table;
        table->capacity = config[CFG_TABLE_ENTRIES];
        table->head = table->tail = -1;
        for (table_slots = 16; table_slots < 2 * table->capacity;
             table_slots *= 2)
            ;
        table->keys = malloc((size_t)table->capacity * sizeof(int64_t));
        table->values = malloc((size_t)table->capacity * sizeof(int64_t));
        table->prev = malloc((size_t)table->capacity * sizeof(int64_t));
        table->next = malloc((size_t)table->capacity * sizeof(int64_t));
        if (map_init(&table->map, table_slots) != WALK_OK
                || table->keys == NULL || table->values == NULL
                || table->prev == NULL || table->next == NULL)
            return WALK_ENOMEM;
    }
    if (walk->engine == ENGINE_TIFS) {
        /* The log is never pre-filled: only live positions are read. */
        walk->log_capacity = config[CFG_HISTORY_BLOCKS];
        walk->stream_capacity = config[CFG_STREAMS];
        walk->log = malloc((size_t)walk->log_capacity * sizeof(int64_t));
        walk->stream_slots = calloc((size_t)walk->stream_capacity,
                                    sizeof(Stream));
        walk->stream_order = calloc((size_t)walk->stream_capacity,
                                    sizeof(Stream *));
        walk->stream_windows = malloc(
            (size_t)((walk->stream_capacity + 1) * walk->window_blocks)
            * sizeof(int64_t));
        if (index_init(&walk->log_index, config[CFG_INDEX_SETS],
                       config[CFG_INDEX_WAYS]) != WALK_OK
                || walk->log == NULL || walk->stream_slots == NULL
                || walk->stream_order == NULL
                || walk->stream_windows == NULL)
            return WALK_ENOMEM;
        for (slot = 0; slot < walk->stream_capacity; slot++)
            walk->stream_slots[slot].window = walk->stream_windows
                                              + slot * walk->window_blocks;
        walk->spare = walk->stream_windows
                      + walk->stream_capacity * walk->window_blocks;
    }
    return WALK_OK;
}

/* The counters both walks report. */
static void walk_report(const Walk *walk, int64_t n_access,
                        int64_t *out_lane, int64_t *out_channels)
{
    int64_t key;
    out_lane[OUT_DEMAND_ACCESSES] = n_access;
    out_lane[OUT_DEMAND_HITS] = n_access - walk->cache.misses;
    out_lane[OUT_DEMAND_MISSES] = walk->cache.misses;
    out_lane[OUT_USEFUL_PREFETCHES] = walk->cache.useful;
    out_lane[OUT_EVICTIONS] = walk->cache.evictions;
    out_lane[OUT_EVICTED_UNUSED] = walk->cache.evicted_unused;
    out_lane[OUT_TRIGGERS] = walk->triggers;
    out_lane[OUT_ISSUED] = walk->issued;
    out_lane[OUT_STREAM_ALLOCATIONS] = walk->stream_allocations;
    out_lane[OUT_RETIRED] = walk->retired;
    out_lane[OUT_CHANNELS] = walk->n_channels;
    out_lane[OUT_INDEX_INSERTIONS] = walk->log_index.insertions;
    out_lane[OUT_INDEX_HITS] = walk->log_index.hits;
    out_lane[OUT_INDEX_MISSES] = walk->log_index.misses;
    for (key = 0; key < walk->n_channels; key++) {
        const Channel *channel = walk->channels[walk->created[key]];
        int64_t *row = out_channels + key * CH_FIELDS;
        memcpy(row, channel->stats, CH_FIELDS * sizeof(int64_t));
        row[CH_INDEX_INSERTIONS] = channel->index.insertions;
        row[CH_INDEX_HITS] = channel->index.hits;
        row[CH_INDEX_MISSES] = channel->index.misses;
    }
}

/* ------------------------------------------------------ entry points */

int walk_lane(int64_t n_access, const int64_t *blocks, const int64_t *pcs,
              const uint8_t *traps, const uint8_t *wrong_paths,
              int64_t n_events, const int64_t *event_at,
              const int64_t *event_key, const int64_t *event_trigger,
              const uint8_t *event_survives, const int64_t *event_bits,
              const int64_t *config, int64_t *out_lane,
              int64_t *out_levels, int64_t *out_channels,
              uint8_t *out_hits)
{
    const Plan plan = {n_events, event_at, event_key, event_trigger,
                       event_survives, event_bits};
    const int64_t warmup = config[CFG_WARMUP];
    const int hits = config[CFG_HITS] != 0;
    int64_t requests = 0, fills = 0, drops = 0, remaining = 0;
    int64_t n_levels = 0, level_slot[MAX_KEYS], access, read;
    int status = WALK_ENOMEM;
    Walk walk;

    for (access = 0; access < MAX_KEYS; access++)
        level_slot[access] = -1;
    if (walk_init(&walk, config, plan) != WALK_OK)
        goto done;
    for (access = 0; access < n_access; access++) {
        const int64_t block = blocks[access];
        const int code = cache_access(&walk.cache, block);
        if (hits)
            out_hits[access] = code != 0;
        if (code == 0 && access >= warmup && !wrong_paths[access]) {
            const uint8_t level = traps[access];
            remaining++;
            if (level_slot[level] < 0) {
                level_slot[level] = n_levels++;
                out_levels[2 * level_slot[level]] = level;
                out_levels[2 * level_slot[level] + 1] = 0;
            }
            out_levels[2 * level_slot[level] + 1]++;
        }
        if (predict(&walk, block, pcs[access], traps[access], code)
                != WALK_OK)
            goto done;
        /* InstructionCache.prefetch per candidate. */
        requests += walk.n_cand;
        for (read = 0; read < walk.n_cand; read++) {
            const int64_t candidate = walk.cand[read];
            const int64_t set = py_mod(candidate, walk.cache.n_sets);
            if (cache_find(&walk.cache, set, candidate) >= 0) {
                drops++;
                continue;
            }
            cache_fill(&walk.cache, set, candidate, 1);
            fills++;
        }
        walk.retired += !wrong_paths[access];
        if ((walk.access_order || !wrong_paths[access])
                && train(&walk, code) != WALK_OK)
            goto done;
    }
    walk_report(&walk, n_access, out_lane, out_channels);
    out_lane[OUT_PREFETCH_REQUESTS] = requests;
    out_lane[OUT_PREFETCH_FILLS] = fills;
    out_lane[OUT_PREFETCH_DROPS] = drops;
    out_lane[OUT_REMAINING] = remaining;
    out_lane[OUT_LEVELS] = n_levels;
    status = WALK_OK;
done:
    walk_free(&walk);
    return status;
}

/* The timing loop's issue: one candidate per cycle through the shared
 * port, skipping blocks resident or in flight; *port ends at the last
 * issue cycle. */
static int issue(Walk *walk, Map *in_flight, Map *touched,
                 const double *constants, double now, double *port)
{
    double issue_at = *port > now ? *port : now;
    int64_t read;
    for (read = 0; read < walk->n_cand; read++) {
        const int64_t candidate = walk->cand[read];
        const int64_t set = py_mod(candidate, walk->cache.n_sets);
        Value ready;
        if (cache_find(&walk->cache, set, candidate) >= 0
                || map_find(in_flight, candidate) >= 0)
            continue;
        issue_at += 1.0;
        ready.d = issue_at + (map_find(touched, candidate) >= 0
                              ? constants[K_L2_LATENCY]
                              : constants[K_MEMORY_LATENCY]);
        if (map_put(in_flight, candidate, ready) != WALK_OK
                || map_put(touched, candidate, ready) != WALK_OK)
            return WALK_ENOMEM;
        cache_fill(&walk->cache, set, candidate, 1);
    }
    *port = issue_at;
    return WALK_OK;
}

int walk_timing(int64_t n_access, const int64_t *blocks,
                const int64_t *pcs, const uint8_t *traps,
                const uint8_t *wrong_paths, int64_t n_events,
                const int64_t *event_at, const int64_t *event_key,
                const int64_t *event_trigger,
                const uint8_t *event_survives, const int64_t *event_bits,
                const int64_t *config, const double *constants,
                int64_t *out_lane, int64_t *out_channels,
                double *out_timing)
{
    const Plan plan = {n_events, event_at, event_key, event_trigger,
                       event_survives, event_bits};
    const int64_t warmup = config[CFG_WARMUP];
    const int perfect = config[CFG_PERFECT] != 0;
    const double base = constants[K_BASE];
    const double per_retire = constants[K_PER_RETIRE];
    double now = 0.0, port = 0.0;
    double cycles = 0.0, instructions = 0.0, stalls = 0.0;
    int64_t fetch_misses = 0, late_hits = 0, previous_tl = -1, access;
    int status = WALK_ENOMEM;
    Map in_flight, touched;
    Walk walk;
    Value none;

    none.i = 0;
    memset(&walk, 0, sizeof(walk));
    memset(&in_flight, 0, sizeof(in_flight));
    memset(&touched, 0, sizeof(touched));
    if (map_init(&in_flight, 1024) != WALK_OK
            || map_init(&touched, 1024) != WALK_OK
            || walk_init(&walk, config, plan) != WALK_OK)
        goto done;
    for (access = 0; access < n_access; access++) {
        const int64_t block = blocks[access];
        const int code = cache_access(&walk.cache, block);
        double start, hide, stall = 0.0;
        if (wrong_paths[access]) {
            /* Wrong-path fetches overlap resolution: cache effects
             * only. */
            if (map_put(&touched, block, none) != WALK_OK
                    || predict(&walk, block, pcs[access], traps[access],
                               code) != WALK_OK
                    || (walk.n_cand
                        && issue(&walk, &in_flight, &touched, constants,
                                 now, &port) != WALK_OK)
                    || (walk.access_order
                        && train(&walk, code) != WALK_OK))
                goto done;
            continue;
        }
        start = now;
        now += base;
        hide = constants[K_OVERLAP];
        if (previous_tl >= 0 && traps[access] != previous_tl)
            hide = 0.0;
        previous_tl = traps[access];
        if (!perfect) {
            const int64_t slot = map_find(&in_flight, block);
            if (code) {
                if (slot >= 0) {
                    const double ready = in_flight.values[slot].d;
                    if (ready > now) {
                        stall = (ready - now) - hide;
                        if (stall < 0.0)
                            stall = 0.0;
                        late_hits++;
                    }
                    if (ready <= now + stall)
                        map_delete(&in_flight, slot);
                }
            } else {
                if (access >= warmup)
                    fetch_misses++;
                if (slot >= 0) {
                    stall = (in_flight.values[slot].d - now) - hide;
                    late_hits++;
                    map_delete(&in_flight, slot);
                } else {
                    stall = (map_find(&touched, block) >= 0
                             ? constants[K_L2_LATENCY]
                             : constants[K_MEMORY_LATENCY]) - hide;
                }
                if (stall < 0.0)
                    stall = 0.0;
            }
        }
        now += stall;
        walk.retired++;
        if (map_put(&touched, block, none) != WALK_OK
                || predict(&walk, block, pcs[access], traps[access], code)
                   != WALK_OK
                || (walk.n_cand
                    && issue(&walk, &in_flight, &touched, constants, now,
                             &port) != WALK_OK)
                || train(&walk, code) != WALK_OK)
            goto done;
        if (access >= warmup) {
            cycles += now - start;
            instructions += per_retire;
            stalls += stall;
        }
    }
    walk_report(&walk, n_access, out_lane, out_channels);
    out_lane[OUT_FETCH_MISSES] = fetch_misses;
    out_lane[OUT_LATE_HITS] = late_hits;
    out_timing[T_CYCLES] = cycles;
    out_timing[T_STALLS] = stalls;
    out_timing[T_INSTRUCTIONS] = instructions;
    status = WALK_OK;
done:
    map_free(&in_flight);
    map_free(&touched);
    walk_free(&walk);
    return status;
}
