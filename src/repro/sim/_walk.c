/*
 * Native lane and timing walks.
 *
 * Two entry points walk one engine over a trace bundle's access columns
 * on a 2-way LRU/FIFO cache, warmup and measured windows in one pass,
 * and reproduce bit for bit what the Python walks compute:
 *
 *   - walk_lane: one lane of repro.sim.engine's fast kernel (the
 *     reference lane walk's cache, lane and engine counters);
 *   - walk_timing: repro.sim.timing's fetch loop (_run_timing_fast):
 *     the in-flight map with deletion, the touched set, the issue-queue
 *     clock, the overlap and trap-drain rules, the warmup window and
 *     the perfect L1-I.  Its float constants come from Python and every
 *     sum is taken in the loop's order; with contraction off (the build
 *     passes -ffp-contract=off) the doubles it returns are the loop's.
 *
 * Both share the cache (InstructionCache.access_fast, fill and prefetch
 * on the 2-way geometry), the engines' predict sides and the PIF
 * train-plan replay.  The engines are exact types of the repository's
 * prefetchers, each starting from empty learned state:
 *
 *   - none (NullPrefetcher): no candidates;
 *   - next-line, triggered on every access or on misses only;
 *   - stride, with two-delta confirmation;
 *   - discontinuity, with its fully-associative LRU table;
 *   - PIF: the SAB window probe in MRU order, window slide and refill
 *     from the history ring, index lookup and stream allocation on a
 *     miss, the order-preserving candidate dedup, and the train side
 *     replayed from the lane-independent train plan
 *     (repro.sim.trainplan): per region emission, the history append
 *     and, for tagged triggers, the index insert.  Every trap-level
 *     channel has its own history ring, index (bounded set-associative
 *     with per-set LRU, or unbounded) and SAB file, sized by the
 *     caller.
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

/* A free cache way or hash slot.  The caller's range checks keep every
 * block and candidate above it, and decoded region blocks are at least
 * -62, so no real value collides with it. */
#define EMPTY INT64_MIN

/* config[CFG_ENGINE]; repro.sim.engine's _NATIVE_ENGINES sets them. */
enum {
    ENGINE_NONE, ENGINE_NEXT_LINE, ENGINE_STRIDE, ENGINE_DISCONTINUITY,
    ENGINE_PIF
};

/* config[] layout; repro.sim.engine._NATIVE_CONFIG names the same. */
enum {
    CFG_ENGINE, CFG_N_SETS, CFG_MRU_ON_ACCESS, CFG_WARMUP, CFG_PERFECT,
    CFG_DEGREE, CFG_MISS_ONLY, CFG_TABLE_ENTRIES, CFG_SEPARATE,
    CFG_PRECEDING, CFG_SUCCEEDING, CFG_BLOCK_BITS, CFG_SAB_COUNT,
    CFG_WINDOW, CFG_HISTORY_MAIN, CFG_HISTORY_HANDLER,
    CFG_INDEX_SETS_MAIN, CFG_INDEX_SETS_HANDLER, CFG_INDEX_WAYS
};

/* out_lane[] layout; repro.sim.engine._NATIVE_OUT names the same.  The
 * first nine are CacheStats fields. */
enum {
    OUT_DEMAND_ACCESSES, OUT_DEMAND_HITS, OUT_DEMAND_MISSES,
    OUT_USEFUL_PREFETCHES, OUT_PREFETCH_REQUESTS, OUT_PREFETCH_FILLS,
    OUT_PREFETCH_DROPS, OUT_EVICTIONS, OUT_EVICTED_UNUSED, OUT_REMAINING,
    OUT_TRIGGERS, OUT_ISSUED, OUT_STREAM_ALLOCATIONS, OUT_RETIRED,
    OUT_CHANNELS, OUT_LEVELS, OUT_FETCH_MISSES, OUT_LATE_HITS
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

typedef struct {
    Region *ring;        /* history ring, positions modulo capacity */
    int64_t capacity;
    int64_t tail;        /* position the next append takes */
    int64_t index_sets;  /* 0: the unbounded index, in map */
    int64_t *set_keys;   /* index_sets x ways, each set LRU first */
    int64_t *set_values;
    int64_t *set_fill;
    Map map;
    Sab *sabs;           /* sab_count SABs */
    Sab **order;         /* active SABs, most recently matched first */
    int64_t active;
    Region *windows;
    int64_t stats[CH_FIELDS];
} Channel;

/* The 2-way cache: one slot per (set, way), tags EMPTY when free, flag
 * bit 0 = installed by a prefetch, bit 1 = demanded since, and per set
 * the most recently used (LRU) or filled (FIFO) way. */
typedef struct {
    int64_t n_sets;
    int mru_on_access;
    int64_t *tags;
    uint8_t *flags;
    uint8_t *mru;
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
    int64_t ways;
    Channel *channels[MAX_KEYS];
    int64_t created[MAX_KEYS];   /* channel keys in creation order */
    int64_t n_channels;
    int64_t stream_allocations;
    int64_t cand_regions;
    int64_t *seen_keys;  /* dedup set, valid where seen_gen == gen */
    uint32_t *seen_gen;
    int64_t seen_mask;
    uint32_t gen;
    Plan plan;
    int64_t event;
    int64_t next_event;
    int64_t retired;
    uint8_t pending[MAX_KEYS];
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

/* --------------------------------------------------------------- cache */

/* InstructionCache._install on the 2-way geometry: fill a free way,
 * else evict the way other than the set's MRU one. */
static void cache_fill(Cache *cache, int64_t set, int64_t block,
                       uint8_t flag)
{
    int64_t slot = 2 * set;
    if (cache->tags[slot] != EMPTY) {
        if (cache->tags[slot + 1] != EMPTY) {
            slot += 1 - cache->mru[set];
            cache->evictions++;
            if (cache->flags[slot] == 1)
                cache->evicted_unused++;
        } else {
            slot++;
        }
    }
    cache->tags[slot] = block;
    cache->flags[slot] = flag;
    cache->mru[set] = (uint8_t)(slot & 1);
}

/* InstructionCache.access_fast: 0 miss (the block is filled), 1 hit,
 * 2 the first demand hit on a prefetched block.  (The timing loop
 * fills its misses later, but nothing reads the cache in between.) */
static int cache_access(Cache *cache, int64_t block)
{
    const int64_t set = py_mod(block, cache->n_sets);
    int64_t slot = 2 * set;
    if (cache->tags[slot] != block)
        slot = cache->tags[slot + 1] == block ? slot + 1 : -1;
    if (slot < 0) {
        cache->misses++;
        cache_fill(cache, set, block, 0);
        return 0;
    }
    if (cache->mru_on_access)
        cache->mru[set] = (uint8_t)(slot & 1);
    if (cache->flags[slot] == 1) {
        cache->flags[slot] = 3;
        cache->useful++;
        return 2;
    }
    cache->flags[slot] |= 2;
    return 1;
}

static int cache_contains(const Cache *cache, int64_t set, int64_t block)
{
    return cache->tags[2 * set] == block || cache->tags[2 * set + 1] == block;
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

/* ------------------------------------------------------------- PIF */

static void channel_free(Channel *channel)
{
    if (channel == NULL)
        return;
    free(channel->ring);
    free(channel->set_keys);
    free(channel->set_values);
    free(channel->set_fill);
    map_free(&channel->map);
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
    int64_t sets, slot;
    int failed;
    if (channel != NULL)
        return channel;
    channel = calloc(1, sizeof(Channel));
    if (channel == NULL)
        return NULL;
    channel->capacity = walk->config[key ? CFG_HISTORY_HANDLER
                                         : CFG_HISTORY_MAIN];
    sets = walk->config[key ? CFG_INDEX_SETS_HANDLER : CFG_INDEX_SETS_MAIN];
    channel->index_sets = sets;
    channel->ring = malloc((size_t)channel->capacity * sizeof(Region));
    channel->sabs = calloc((size_t)walk->sab_count, sizeof(Sab));
    channel->order = calloc((size_t)walk->sab_count, sizeof(Sab *));
    channel->windows = malloc((size_t)(walk->sab_count * walk->window)
                              * sizeof(Region));
    if (sets) {
        channel->set_keys = malloc((size_t)(sets * walk->ways)
                                   * sizeof(int64_t));
        channel->set_values = malloc((size_t)(sets * walk->ways)
                                     * sizeof(int64_t));
        channel->set_fill = calloc((size_t)sets, sizeof(int64_t));
        failed = channel->set_keys == NULL || channel->set_values == NULL
                 || channel->set_fill == NULL;
    } else {
        failed = map_init(&channel->map, 16) != WALK_OK;
    }
    if (failed || channel->ring == NULL || channel->sabs == NULL
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

/* IndexTable._set_for's fold; keys are non-negative. */
static int64_t index_set(const Channel *channel, int64_t key)
{
    return ((key >> 2) ^ (key >> 9) ^ (key >> 17)) % channel->index_sets;
}

/* IndexTable.lookup: the recorded position for pc, or -1. */
static int64_t index_lookup(Channel *channel, int64_t pc, int64_t ways)
{
    int64_t position = -1;
    if (channel->index_sets) {
        int64_t set = index_set(channel, pc);
        int64_t *keys = channel->set_keys + set * ways;
        int64_t *values = channel->set_values + set * ways;
        int64_t fill = channel->set_fill[set], way;
        for (way = 0; way < fill; way++) {
            if (keys[way] == pc) {
                /* LRUCache.get promotes the hit to MRU. */
                position = values[way];
                memmove(keys + way, keys + way + 1,
                        (size_t)(fill - 1 - way) * sizeof(int64_t));
                memmove(values + way, values + way + 1,
                        (size_t)(fill - 1 - way) * sizeof(int64_t));
                keys[fill - 1] = pc;
                values[fill - 1] = position;
                break;
            }
        }
    } else {
        int64_t slot = map_find(&channel->map, pc);
        if (slot >= 0)
            position = channel->map.values[slot].i;
    }
    channel->stats[position < 0 ? CH_INDEX_MISSES : CH_INDEX_HITS]++;
    return position;
}

/* IndexTable.insert: key -> position, evicting the set's LRU entry. */
static int index_insert(Channel *channel, int64_t key, int64_t position,
                        int64_t ways)
{
    if (channel->index_sets) {
        int64_t set = index_set(channel, key);
        int64_t *keys = channel->set_keys + set * ways;
        int64_t *values = channel->set_values + set * ways;
        int64_t fill = channel->set_fill[set], way;
        for (way = 0; way < fill && keys[way] != key; way++)
            ;
        if (way == fill && fill == ways)
            way = 0;                  /* full: the LRU entry goes */
        else if (way == fill)
            fill++;
        memmove(keys + way, keys + way + 1,
                (size_t)(fill - 1 - way) * sizeof(int64_t));
        memmove(values + way, values + way + 1,
                (size_t)(fill - 1 - way) * sizeof(int64_t));
        keys[fill - 1] = key;
        values[fill - 1] = position;
        channel->set_fill[set] = fill;
    } else {
        Value value;
        value.i = position;
        if (map_put(&channel->map, key, value) != WALK_OK)
            return WALK_ENOMEM;
    }
    channel->stats[CH_INDEX_INSERTIONS]++;
    return WALK_OK;
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

/* StreamAddressBuffer._refill_into over HistoryBuffer.read_run. */
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

/* SABFile.advance_into's probe: slide the first matching SAB, refill
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

/* SABFile.allocate_into: a new stream at start, replacing the LRU SAB
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

/* ------------------------------------------------- the shared walk */

/* The engine's on_demand_access_into for one access with result code
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
            const int64_t start = index_lookup(channel, pc, walk->ways);
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
    default:
        break;
    }
    walk->issued += walk->n_cand;
    return WALK_OK;
}

/* The retire side of one correct-path access with result code code:
 * PIF's train-plan event at this retire index, if any. */
static int train(Walk *walk, int code)
{
    const Plan *plan = &walk->plan;
    int64_t event = walk->event, key;
    Channel *channel;
    if (walk->retired++ != walk->next_event)
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
                    && index_insert(channel, plan->trigger[event], position,
                                    walk->ways) != WALK_OK)
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
    free(walk->cache.mru);
    map_free(&walk->table.map);
    free(walk->table.keys);
    free(walk->table.values);
    free(walk->table.prev);
    free(walk->table.next);
}

/* An empty cache and engine for config; on failure the walk holds what
 * walk_free releases. */
static int walk_init(Walk *walk, const int64_t *config, Plan plan)
{
    int64_t max_cand, seen_slots, slot, table_slots;
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
    walk->ways = config[CFG_INDEX_WAYS];
    walk->plan = plan;
    walk->next_event = plan.n ? plan.at[0] : -1;
    /* A PIF access slides in at most window - 1 regions and allocates
     * at most window more; a discontinuity trigger adds a target and
     * its successor to the next lines. */
    max_cand = 2 * walk->window * (walk->width + 1);
    if (walk->degree + 2 > max_cand)
        max_cand = walk->degree + 2;
    for (seen_slots = 16; seen_slots < 2 * max_cand; seen_slots *= 2)
        ;
    walk->seen_mask = seen_slots - 1;
    walk->cand = malloc((size_t)max_cand * sizeof(int64_t));
    walk->seen_keys = malloc((size_t)seen_slots * sizeof(int64_t));
    walk->seen_gen = calloc((size_t)seen_slots, sizeof(uint32_t));
    walk->cache.n_sets = config[CFG_N_SETS];
    walk->cache.mru_on_access = config[CFG_MRU_ON_ACCESS] != 0;
    walk->cache.tags = malloc((size_t)(2 * walk->cache.n_sets)
                              * sizeof(int64_t));
    walk->cache.flags = calloc((size_t)(2 * walk->cache.n_sets), 1);
    walk->cache.mru = calloc((size_t)walk->cache.n_sets, 1);
    if (walk->cand == NULL || walk->seen_keys == NULL
            || walk->seen_gen == NULL || walk->cache.tags == NULL
            || walk->cache.flags == NULL || walk->cache.mru == NULL)
        return WALK_ENOMEM;
    for (slot = 0; slot < 2 * walk->cache.n_sets; slot++)
        walk->cache.tags[slot] = EMPTY;
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
    for (key = 0; key < walk->n_channels; key++)
        memcpy(out_channels + key * CH_FIELDS,
               walk->channels[walk->created[key]]->stats,
               CH_FIELDS * sizeof(int64_t));
}

/* ------------------------------------------------------ entry points */

int walk_lane(int64_t n_access, const int64_t *blocks, const int64_t *pcs,
              const uint8_t *traps, const uint8_t *wrong_paths,
              int64_t n_events, const int64_t *event_at,
              const int64_t *event_key, const int64_t *event_trigger,
              const uint8_t *event_survives, const int64_t *event_bits,
              const int64_t *config, int64_t *out_lane,
              int64_t *out_levels, int64_t *out_channels)
{
    const Plan plan = {n_events, event_at, event_key, event_trigger,
                       event_survives, event_bits};
    const int64_t warmup = config[CFG_WARMUP];
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
            if (cache_contains(&walk.cache, set, candidate)) {
                drops++;
                continue;
            }
            cache_fill(&walk.cache, set, candidate, 1);
            fills++;
        }
        if (!wrong_paths[access] && train(&walk, code) != WALK_OK)
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

/* _issue_prefetches: one candidate per cycle through the shared port,
 * skipping blocks resident or in flight; *port ends at the last issue
 * cycle. */
static int issue(Walk *walk, Map *in_flight, Map *touched,
                 const double *constants, double now, double *port)
{
    double issue_at = *port > now ? *port : now;
    int64_t read;
    for (read = 0; read < walk->n_cand; read++) {
        const int64_t candidate = walk->cand[read];
        const int64_t set = py_mod(candidate, walk->cache.n_sets);
        Value ready;
        if (cache_contains(&walk->cache, set, candidate)
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
                                 now, &port) != WALK_OK))
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
