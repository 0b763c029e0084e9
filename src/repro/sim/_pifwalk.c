/*
 * Native PIF lane walk.
 *
 * One call walks one lane of repro.sim.engine's fast kernel -- an
 * exact-type ProactiveInstructionFetch engine with empty state on a
 * 2-way LRU/FIFO cache -- over a trace bundle's access columns, warmup
 * and measured slices in one pass, and reproduces bit for bit what the
 * reference object walk computes:
 *
 *   - the demand probe and fill of InstructionCache.access_fast;
 *   - PIF's predict side (on_demand_access_into): the SAB window probe
 *     in MRU order, window slide and refill from the history ring,
 *     index lookup and stream allocation on a miss, and the
 *     order-preserving candidate dedup;
 *   - the prefetch installs of InstructionCache.prefetch;
 *   - PIF's train side, replayed from the lane-independent train plan
 *     (repro.sim.trainplan): per region emission, the history append
 *     and, for tagged triggers, the index insert.
 *
 * Every trap-level channel has its own history ring, index (bounded
 * set-associative with per-set LRU, or unbounded) and SAB file, sized
 * by the caller.  The caller (repro.sim.engine._walk_lane_native_pif)
 * checks dtypes, lengths and value ranges before passing pointers;
 * this file reads only within the lengths it is given and writes only
 * to the output arrays and to memory it allocates.  Allocation failure
 * returns PIFWALK_ENOMEM with everything freed; nothing here aborts.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define PIFWALK_OK 0
#define PIFWALK_ENOMEM 1

/* Channel keys are trap levels (uint8 access column, plan keys < 256). */
#define MAX_KEYS 256

/* A free cache way or hash slot.  Blocks are non-negative and decoded
 * region blocks are at least -62, so no real value collides with it. */
#define EMPTY INT64_MIN

/* config[] layout, in the order repro.sim.engine._walk_lane_native_pif
 * builds it. */
enum {
    CFG_N_SETS, CFG_MRU_ON_ACCESS, CFG_SEPARATE, CFG_PRECEDING,
    CFG_SUCCEEDING, CFG_BLOCK_BITS, CFG_SAB_COUNT, CFG_WINDOW, CFG_WARMUP,
    CFG_HISTORY_MAIN, CFG_HISTORY_HANDLER, CFG_INDEX_SETS_MAIN,
    CFG_INDEX_SETS_HANDLER, CFG_INDEX_WAYS
};

/* out_lane[] layout; repro.sim.engine._NATIVE_LANE names the same. */
enum {
    OUT_DEMAND_ACCESSES, OUT_DEMAND_HITS, OUT_DEMAND_MISSES,
    OUT_USEFUL_PREFETCHES, OUT_PREFETCH_REQUESTS, OUT_PREFETCH_FILLS,
    OUT_PREFETCH_DROPS, OUT_EVICTIONS, OUT_EVICTED_UNUSED, OUT_REMAINING,
    OUT_ISSUED, OUT_STREAM_ALLOCATIONS, OUT_RETIRED, OUT_CHANNELS,
    OUT_LEVELS
};

/* One out_channels[] row per channel, in creation order;
 * repro.sim.engine._NATIVE_CHANNEL names the same. */
enum {
    CH_KEY, CH_REGIONS_RECORDED, CH_INDEX_INSERTIONS,
    CH_STREAM_ALLOCATIONS, CH_WINDOW_ADVANCES, CH_REGIONS_EMITTED,
    CH_PASSED, CH_DISCARDED, CH_INDEX_HITS, CH_INDEX_MISSES,
    CH_SAB_ALLOCATIONS, CH_FIELDS
};

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
    int64_t index_sets;  /* 0: the unbounded index */
    int64_t *set_keys;   /* index_sets x ways, each set LRU first */
    int64_t *set_values;
    int64_t *set_fill;
    int64_t *map_keys;   /* unbounded index: open addressing */
    int64_t *map_values;
    int64_t map_mask;
    int64_t map_used;
    Sab *sabs;           /* sab_count SABs */
    Sab **order;         /* active SABs, most recently matched first */
    int64_t active;
    Region *windows;
    int64_t stats[CH_FIELDS];
} Channel;

/* The lane's 2-way cache: one slot per (set, way), tags EMPTY when
 * free, flag bit 0 = installed by a prefetch, bit 1 = demanded since,
 * and per set the most recently used (LRU) or filled (FIFO) way. */
typedef struct {
    int64_t n_sets;
    int64_t *tags;
    uint8_t *flags;
    uint8_t *mru;
    int64_t evictions;
    int64_t evicted_unused;
} Cache;

typedef struct {
    const int64_t *config;
    int64_t preceding;
    int64_t succeeding;
    int64_t width;       /* preceding + succeeding bits per vector */
    int64_t sab_count;
    int64_t window;
    int64_t ways;
    Channel *channels[MAX_KEYS];
    int64_t created[MAX_KEYS];   /* channel keys in creation order */
    int64_t n_channels;
    int64_t *cand;       /* one access's candidate blocks */
    int64_t n_cand;
    int64_t cand_regions;
    int64_t *seen_keys;  /* dedup set, valid where seen_gen == gen */
    uint32_t *seen_gen;
    int64_t seen_mask;
    uint32_t gen;
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

static void channel_free(Channel *channel)
{
    if (channel == NULL)
        return;
    free(channel->ring);
    free(channel->set_keys);
    free(channel->set_values);
    free(channel->set_fill);
    free(channel->map_keys);
    free(channel->map_values);
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
    } else {
        channel->map_mask = 15;   /* grows by doubling at half load */
        channel->map_keys = malloc(16 * sizeof(int64_t));
        channel->map_values = malloc(16 * sizeof(int64_t));
    }
    if (channel->ring == NULL || channel->sabs == NULL
            || channel->order == NULL || channel->windows == NULL
            || (sets && (channel->set_keys == NULL
                         || channel->set_values == NULL
                         || channel->set_fill == NULL))
            || (!sets && (channel->map_keys == NULL
                          || channel->map_values == NULL))) {
        channel_free(channel);
        return NULL;
    }
    if (!sets)
        for (slot = 0; slot <= channel->map_mask; slot++)
            channel->map_keys[slot] = EMPTY;
    for (slot = 0; slot < walk->sab_count; slot++)
        channel->sabs[slot].window = channel->windows + slot * walk->window;
    channel->stats[CH_KEY] = key;
    walk->channels[key] = channel;
    walk->created[walk->n_channels++] = key;
    return channel;
}

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
        uint64_t slot = mix(pc) & (uint64_t)channel->map_mask;
        while (channel->map_keys[slot] != EMPTY) {
            if (channel->map_keys[slot] == pc) {
                position = channel->map_values[slot];
                break;
            }
            slot = (slot + 1) & (uint64_t)channel->map_mask;
        }
    }
    channel->stats[position < 0 ? CH_INDEX_MISSES : CH_INDEX_HITS]++;
    return position;
}

static int map_grow(Channel *channel)
{
    int64_t old_mask = channel->map_mask, mask = 2 * old_mask + 1, slot;
    int64_t *keys = malloc((size_t)(mask + 1) * sizeof(int64_t));
    int64_t *values = malloc((size_t)(mask + 1) * sizeof(int64_t));
    if (keys == NULL || values == NULL) {
        free(keys);
        free(values);
        return PIFWALK_ENOMEM;
    }
    for (slot = 0; slot <= mask; slot++)
        keys[slot] = EMPTY;
    for (slot = 0; slot <= old_mask; slot++) {
        int64_t key = channel->map_keys[slot];
        uint64_t probe;
        if (key == EMPTY)
            continue;
        probe = mix(key) & (uint64_t)mask;
        while (keys[probe] != EMPTY)
            probe = (probe + 1) & (uint64_t)mask;
        keys[probe] = key;
        values[probe] = channel->map_values[slot];
    }
    free(channel->map_keys);
    free(channel->map_values);
    channel->map_keys = keys;
    channel->map_values = values;
    channel->map_mask = mask;
    return PIFWALK_OK;
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
        uint64_t slot;
        if (2 * (channel->map_used + 1) > channel->map_mask + 1
                && map_grow(channel) != PIFWALK_OK)
            return PIFWALK_ENOMEM;
        slot = mix(key) & (uint64_t)channel->map_mask;
        while (channel->map_keys[slot] != EMPTY
                && channel->map_keys[slot] != key)
            slot = (slot + 1) & (uint64_t)channel->map_mask;
        if (channel->map_keys[slot] == EMPTY)
            channel->map_used++;
        channel->map_keys[slot] = key;
        channel->map_values[slot] = position;
    }
    channel->stats[CH_INDEX_INSERTIONS]++;
    return PIFWALK_OK;
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

int pifwalk_lane(int64_t n_access, const int64_t *blocks,
                 const int64_t *pcs, const uint8_t *traps,
                 const uint8_t *wrong_paths, int64_t n_events,
                 const int64_t *event_at, const int64_t *event_key,
                 const int64_t *event_trigger,
                 const uint8_t *event_survives, const int64_t *event_bits,
                 const int64_t *config, int64_t *out_lane,
                 int64_t *out_levels, int64_t *out_channels)
{
    const int mru_on_access = config[CFG_MRU_ON_ACCESS] != 0;
    const int separate = config[CFG_SEPARATE] != 0;
    const int64_t block_bits = config[CFG_BLOCK_BITS];
    const int64_t warmup = config[CFG_WARMUP];
    int64_t demand_misses = 0, useful = 0, requests = 0, fills = 0;
    int64_t drops = 0, remaining = 0;
    int64_t stream_allocations = 0, retired = 0, event = 0, n_levels = 0;
    int64_t next_event = n_events ? event_at[0] : -1;
    int64_t level_slot[MAX_KEYS];
    uint8_t pending[MAX_KEYS];
    int64_t max_cand, seen_slots, access, key;
    int status = PIFWALK_ENOMEM;
    Cache cache;
    Walk walk;

    memset(&cache, 0, sizeof(cache));
    memset(&walk, 0, sizeof(walk));
    memset(pending, 0, sizeof(pending));
    for (key = 0; key < MAX_KEYS; key++)
        level_slot[key] = -1;
    walk.config = config;
    walk.preceding = config[CFG_PRECEDING];
    walk.succeeding = config[CFG_SUCCEEDING];
    walk.width = walk.preceding + walk.succeeding;
    walk.sab_count = config[CFG_SAB_COUNT];
    walk.window = config[CFG_WINDOW];
    walk.ways = config[CFG_INDEX_WAYS];
    /* One access slides in at most window - 1 regions and allocates at
     * most window more. */
    max_cand = 2 * walk.window * (walk.width + 1);
    for (seen_slots = 16; seen_slots < 2 * max_cand; seen_slots *= 2)
        ;
    walk.seen_mask = seen_slots - 1;
    walk.cand = malloc((size_t)max_cand * sizeof(int64_t));
    walk.seen_keys = malloc((size_t)seen_slots * sizeof(int64_t));
    walk.seen_gen = calloc((size_t)seen_slots, sizeof(uint32_t));
    cache.n_sets = config[CFG_N_SETS];
    cache.tags = malloc((size_t)(2 * cache.n_sets) * sizeof(int64_t));
    cache.flags = calloc((size_t)(2 * cache.n_sets), 1);
    cache.mru = calloc((size_t)cache.n_sets, 1);
    if (walk.cand == NULL || walk.seen_keys == NULL
            || walk.seen_gen == NULL || cache.tags == NULL
            || cache.flags == NULL || cache.mru == NULL)
        goto done;
    for (key = 0; key < 2 * cache.n_sets; key++)
        cache.tags[key] = EMPTY;

    for (access = 0; access < n_access; access++) {
        const int64_t block = blocks[access];
        const int64_t set = py_mod(block, cache.n_sets);
        int64_t slot = 2 * set, read;
        int code;
        Channel *channel;

        /* -- demand access (InstructionCache.access_fast) -- */
        if (cache.tags[slot] != block)
            slot = cache.tags[slot + 1] == block ? slot + 1 : -1;
        if (slot >= 0) {
            if (mru_on_access)
                cache.mru[set] = (uint8_t)(slot & 1);
            if (cache.flags[slot] == 1) {
                cache.flags[slot] = 3;
                useful++;
                code = 2;
            } else {
                cache.flags[slot] |= 2;
                code = 1;
            }
        } else {
            demand_misses++;
            code = 0;
            cache_fill(&cache, set, block, 0);
            if (access >= warmup && !wrong_paths[access]) {
                const uint8_t level = traps[access];
                remaining++;
                if (level_slot[level] < 0) {
                    level_slot[level] = n_levels++;
                    out_levels[2 * level_slot[level]] = level;
                    out_levels[2 * level_slot[level] + 1] = 0;
                }
                out_levels[2 * level_slot[level] + 1]++;
            }
        }

        /* -- predict side (on_demand_access_into) -- */
        channel = channel_for(&walk, separate ? traps[access] : 0);
        if (channel == NULL)
            goto done;
        walk.n_cand = 0;
        walk.cand_regions = 0;
        if (channel->active)
            advance_streams(&walk, channel, block);
        if (code == 0) {
            const int64_t start = index_lookup(channel, pcs[access],
                                               walk.ways);
            if (start >= 0) {
                allocate_stream(&walk, channel, start);
                stream_allocations++;
            }
        }

        /* -- prefetch installs (InstructionCache.prefetch) -- */
        if (walk.n_cand) {
            dedup_candidates(&walk);
            requests += walk.n_cand;
            for (read = 0; read < walk.n_cand; read++) {
                const int64_t candidate = walk.cand[read];
                const int64_t cset = py_mod(candidate, cache.n_sets);
                if (cache.tags[2 * cset] == candidate
                        || cache.tags[2 * cset + 1] == candidate) {
                    drops++;
                    continue;
                }
                cache_fill(&cache, cset, candidate, 1);
                fills++;
            }
        }

        /* -- train side: the plan's event at this retire index -- */
        if (wrong_paths[access])
            continue;
        if (retired == next_event) {
            const int64_t event_channel = event_key[event];
            Channel *train = channel_for(&walk, event_channel);
            if (train == NULL)
                goto done;
            if (event_trigger[event] >= 0) {
                train->stats[CH_REGIONS_EMITTED]++;
                if (event_survives[event]) {
                    const int64_t position = train->tail++;
                    Region *record = &train->ring[position
                                                  % train->capacity];
                    record->block = event_trigger[event] >> block_bits;
                    record->bits = event_bits[event];
                    train->stats[CH_PASSED]++;
                    train->stats[CH_REGIONS_RECORDED]++;
                    if (pending[event_channel]
                            && index_insert(train, event_trigger[event],
                                            position, walk.ways)
                               != PIFWALK_OK)
                        goto done;
                } else {
                    train->stats[CH_DISCARDED]++;
                }
            }
            /* The region opening here records this access's tag. */
            pending[event_channel] = code != 2;
            event++;
            next_event = event < n_events ? event_at[event] : -1;
        }
        retired++;
    }

    out_lane[OUT_DEMAND_ACCESSES] = n_access;
    out_lane[OUT_DEMAND_HITS] = n_access - demand_misses;
    out_lane[OUT_DEMAND_MISSES] = demand_misses;
    out_lane[OUT_USEFUL_PREFETCHES] = useful;
    out_lane[OUT_PREFETCH_REQUESTS] = requests;
    out_lane[OUT_PREFETCH_FILLS] = fills;
    out_lane[OUT_PREFETCH_DROPS] = drops;
    out_lane[OUT_EVICTIONS] = cache.evictions;
    out_lane[OUT_EVICTED_UNUSED] = cache.evicted_unused;
    out_lane[OUT_REMAINING] = remaining;
    out_lane[OUT_ISSUED] = requests;
    out_lane[OUT_STREAM_ALLOCATIONS] = stream_allocations;
    out_lane[OUT_RETIRED] = retired;
    out_lane[OUT_CHANNELS] = walk.n_channels;
    out_lane[OUT_LEVELS] = n_levels;
    for (key = 0; key < walk.n_channels; key++)
        memcpy(out_channels + key * CH_FIELDS,
               walk.channels[walk.created[key]]->stats,
               CH_FIELDS * sizeof(int64_t));
    status = PIFWALK_OK;

done:
    for (key = 0; key < MAX_KEYS; key++)
        channel_free(walk.channels[key]);
    free(walk.cand);
    free(walk.seen_keys);
    free(walk.seen_gen);
    free(cache.tags);
    free(cache.flags);
    free(cache.mru);
    return status;
}
