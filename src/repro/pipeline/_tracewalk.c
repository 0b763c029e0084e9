/*
 * Native trace replay.
 *
 * One entry point, replay_trace, runs a synthetic program the way
 * repro.workloads.executor.ProgramExecutor does and feeds every
 * executed block straight into repro.pipeline.frontend.FetchModel's
 * front end.  It reproduces bit for bit what the two compute together:
 * the six TraceBundle columns (the access stream with its wrong-path
 * noise, the block-run collapsed retire stream), the retired
 * instruction count, the seven FrontEndStats counters and the final
 * states of the three random.Random generators involved.
 *
 *   - The executor: the call stack; the loop-state map keyed by (frame
 *     id, block pc), with deletion; trip counts drawn as
 *     max(1, round(gauss(mean, jitter * mean))), or 1 without a draw
 *     once the transaction has passed MAX_TRANSACTION_INSTRUCTIONS or
 *     when the mean is at most 1; the dispatcher's weighted choice of a
 *     transaction root; and interrupt handlers injected at exponential
 *     intervals, each walked with its own stack and root frame.  The
 *     walk stops once the instruction budget is spent, mid-handler
 *     included, and the next interrupt interval is drawn even then.
 *   - The front end: the (last block, trap level) collapse, which
 *     persists across blocks; the hybrid tournament predictor (gshare,
 *     bimodal and chooser tables of 2-bit counters); the
 *     set-associative BTB with LRUCache semantics (a lookup hit
 *     promotes the entry, an update refreshes it); the bounded RAS,
 *     which drops its oldest entry on overflow; and the wrong-path walk
 *     over the static CFG with its guard, shadow stack and RAS peek.
 *   - The draws: MT19937 as CPython's random module runs it; random()
 *     as genrand_res53; randint(a, b) as a + _randbelow(b - a + 1),
 *     getrandbits(k) drawn again while out of range; gauss as CPython's
 *     Box-Muller with its cached second variate; expovariate as
 *     -log(1 - random()) / lambd; round() half to even and int()
 *     truncating.  The rate and the weight totals come from Python
 *     (float sum is compensated since Python 3.12), and the build turns
 *     floating-point contraction off.
 *
 * The caller (repro.pipeline.tracegen) passes the blocks sorted by pc,
 * their kinds as indices into BlockKind.ALL, and the generators' states
 * as random.Random.getstate() holds them; the states are overwritten
 * with the final ones.  The output columns are allocated here, grown as
 * the walk goes and handed over through out_columns whatever the
 * status; the caller copies them and calls replay_free.  Allocation
 * failure returns REPLAY_ENOMEM and control reaching a PC that starts
 * no block REPLAY_EBADPC or REPLAY_EHANDLERPC; nothing here aborts.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPLAY_OK 0
#define REPLAY_ENOMEM 1
#define REPLAY_EBADPC 2        /* application control left the blocks */
#define REPLAY_EHANDLERPC 3    /* handler control left the blocks */

/* BlockKind.ALL. */
enum { KIND_FALL, KIND_COND, KIND_LOOP, KIND_CALL, KIND_JUMP, KIND_RETURN };

/* config[]. */
enum {
    CFG_INSTRUCTIONS,      /* the instruction budget */
    CFG_DISPATCH_PC,
    CFG_MAX_TRANSACTION,   /* MAX_TRANSACTION_INSTRUCTIONS */
    CFG_BLOCK_BITS,
    CFG_GSHARE_ENTRIES,
    CFG_BIMODAL_ENTRIES,
    CFG_CHOOSER_ENTRIES,
    CFG_HISTORY_BITS,
    CFG_BTB_SETS,
    CFG_BTB_WAYS,
    CFG_RAS_DEPTH,
    CFG_MIN_RESOLVE,
    CFG_MAX_RESOLVE,
    CFG_FETCH_QUEUE,
    CFG_FIELDS
};

/* fconfig[]. */
enum {
    FCFG_JITTER,           /* loop_trip_jitter */
    FCFG_IRQ_RATE,         /* expovariate's lambd */
    FCFG_ROOT_TOTAL,       /* sum(transaction_weights) */
    FCFG_HANDLER_TOTAL,    /* sum(handler_weights) */
    FCFG_FIELDS
};

/* out_counts[]: the retired instructions, FrontEndStats in field order,
 * the column lengths and the PC that starts no block. */
enum {
    OUT_INSTRUCTIONS,
    OUT_CONDITIONAL,
    OUT_MISPREDICTED,
    OUT_RAS_MISPREDICTIONS,
    OUT_BTB_MISSES,
    OUT_INDIRECT,
    OUT_WRONG_PATH,
    OUT_CORRECT_PATH,
    OUT_ACCESSES,
    OUT_RETIRES,
    OUT_BAD_PC,
    OUT_FIELDS
};

/* out_columns[]. */
enum {
    COL_ACCESS_BLOCK,      /* int64 */
    COL_ACCESS_PC,         /* int64 */
    COL_ACCESS_TRAP,       /* uint8 */
    COL_ACCESS_WRONG,      /* uint8, 0 or 1 */
    COL_RETIRE_PC,         /* int64 */
    COL_RETIRE_TRAP,       /* uint8 */
    COL_FIELDS
};

/* The generators, in the order of rng_words and gauss_next. */
enum { RNG_EXEC, RNG_IRQ, RNG_FRONT, RNGS };

#define MT_N 624
#define MT_M 397
#define INSTRUCTION_BYTES 4
#define TL_APPLICATION 0
#define TL_INTERRUPT 1
#define TWOPI 6.283185307179586   /* random.TWOPI, 2.0 * math.pi */

/* A random.Random: MT19937 and gauss's cached variate. */
typedef struct {
    uint32_t state[MT_N];
    int index;
    int gauss_ready;       /* gauss_next is not None */
    double gauss_next;
} Rng;

typedef struct {
    int64_t return_pc;
    int64_t frame_id;
} Frame;

/* A call stack and what differs between the application walk and a
 * handler's: the trap level, the generator conditional branches draw
 * from and the frame a loop outside any call belongs to. */
typedef struct {
    Frame *frames;
    int64_t depth;
    int64_t capacity;
    int trap_level;
    Rng *branch_rng;
    int64_t root_frame;
} Context;

/* One entry of the loop-state map; frame_id < 0 marks a free slot. */
typedef struct {
    int64_t frame_id;
    int64_t pc;
    int64_t remaining;
} LoopSlot;

/* Open addressing with linear probing and backward-shift deletion. */
typedef struct {
    LoopSlot *slots;
    int64_t mask;
    int64_t used;
} LoopMap;

/* One executed block: ControlRecord without what the block holds. */
typedef struct {
    int64_t block;         /* index into the block table */
    int trap_level;
    int taken;
    int64_t next_pc;
    int64_t taken_target;
} Record;

typedef struct {
    /* the program */
    int64_t n_blocks;
    const int64_t *pc, *instructions, *target;
    const uint8_t *kind;
    const double *taken_probability, *mean_iterations;
    int64_t n_roots, n_handlers;
    const int64_t *root_entry, *handler_entry;
    const double *root_weight, *handler_weight;
    double root_total, handler_total;
    int64_t dispatch_pc;
    /* the executor */
    Rng rngs[RNGS];
    double jitter, irq_rate;
    int64_t budget, retired, transaction_instructions, max_transaction;
    int64_t frame_counter;
    LoopMap loops;
    Context app, handler;
    /* the front end */
    int block_bits;
    uint8_t *gshare, *bimodal, *chooser;
    int64_t gshare_mask, bimodal_mask, chooser_mask;
    int64_t history, history_mask;
    int64_t btb_sets, btb_ways, btb_tick;
    int64_t *btb_pc, *btb_target, *btb_stamp, *btb_fill;
    int64_t *ras;
    int64_t ras_depth, ras_len;
    int64_t *shadow;       /* the wrong-path walk's shadow stack */
    int64_t last_block;    /* -1: none yet */
    int last_trap;
    int64_t min_resolve, resolve_span, fetch_queue;
    int64_t *counts;       /* out_counts */
    /* the output columns */
    int64_t *access_block, *access_pc, *retire_pc;
    uint8_t *access_trap, *access_wrong, *retire_trap;
    int64_t access_capacity, retire_capacity;
} Walk;

/* ----------------------------------------------------------- MT19937 */

/* genrand_uint32. */
static uint32_t mt_next(Rng *rng)
{
    uint32_t *state = rng->state, y;
    if (rng->index >= MT_N) {
        int k;
        for (k = 0; k < MT_N; k++) {
            y = (state[k] & UINT32_C(0x80000000))
                | (state[(k + 1) % MT_N] & UINT32_C(0x7fffffff));
            state[k] = state[(k + MT_M) % MT_N] ^ (y >> 1)
                       ^ (y & 1 ? UINT32_C(0x9908b0df) : 0);
        }
        rng->index = 0;
    }
    y = state[rng->index++];
    y ^= y >> 11;
    y ^= (y << 7) & UINT32_C(0x9d2c5680);
    y ^= (y << 15) & UINT32_C(0xefc60000);
    return y ^ (y >> 18);
}

/* random(): genrand_res53. */
static double rng_random(Rng *rng)
{
    uint32_t a = mt_next(rng) >> 5, b = mt_next(rng) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* _randbelow(n) for 0 < n < 2**32: getrandbits(n.bit_length()), drawn
 * again while it is n or more. */
static int64_t rng_below(Rng *rng, int64_t n)
{
    int bits = 0;
    int64_t r;
    while (n >> bits)
        bits++;
    do
        r = mt_next(rng) >> (32 - bits);
    while (r >= n);
    return r;
}

/* gauss(mu, sigma). */
static double rng_gauss(Rng *rng, double mu, double sigma)
{
    double z = rng->gauss_next;
    if (!rng->gauss_ready) {
        double x2pi = rng_random(rng) * TWOPI;
        double g2rad = sqrt(-2.0 * log(1.0 - rng_random(rng)));
        z = cos(x2pi) * g2rad;
        rng->gauss_next = sin(x2pi) * g2rad;
        rng->gauss_ready = 1;
    } else {
        rng->gauss_ready = 0;
    }
    return mu + z * sigma;
}

/* ProgramExecutor._weighted_index: the first index whose running sum
 * passes random() * total, else the last. */
static int64_t weighted_index(Rng *rng, const double *weights, int64_t n,
                              double total)
{
    const double point = rng_random(rng) * total;
    double cumulative = 0.0;
    int64_t index;
    for (index = 0; index < n; index++) {
        cumulative += weights[index];
        if (point < cumulative)
            return index;
    }
    return n - 1;
}

/* ------------------------------------------------------------ blocks */

static int64_t end_pc(const Walk *walk, int64_t block)
{
    return walk->pc[block] + walk->instructions[block] * INSTRUCTION_BYTES;
}

static int64_t last_pc(const Walk *walk, int64_t block)
{
    return end_pc(walk, block) - INSTRUCTION_BYTES;
}

/* block_starting_at: the block whose first instruction is pc, or -1.
 * Control mostly falls into the block after the last one, so that is
 * tried before the binary search. */
static int64_t block_starting_at(const Walk *walk, int64_t pc, int64_t after)
{
    int64_t low = 0, high = walk->n_blocks, middle;
    if (after >= 0 && after + 1 < walk->n_blocks
            && walk->pc[after + 1] == pc)
        return after + 1;
    while (low < high) {
        middle = low + (high - low) / 2;
        if (walk->pc[middle] < pc)
            low = middle + 1;
        else
            high = middle;
    }
    return low < walk->n_blocks && walk->pc[low] == pc ? low : -1;
}

/* block_at: the block whose instruction range holds pc, or -1; the
 * candidate is bisect_right(block starts, pc) - 1. */
static int64_t block_at(const Walk *walk, int64_t pc)
{
    int64_t low = 0, high = walk->n_blocks, middle;
    while (low < high) {
        middle = low + (high - low) / 2;
        if (pc < walk->pc[middle])
            high = middle;
        else
            low = middle + 1;
    }
    if (low == 0 || pc >= end_pc(walk, low - 1))
        return -1;
    return low - 1;
}

/* ---------------------------------------------------------- loop map */

static uint64_t loop_hash(int64_t frame_id, int64_t pc)
{
    uint64_t h = (uint64_t)frame_id * UINT64_C(0x9e3779b97f4a7c15)
                 ^ (uint64_t)pc;
    h ^= h >> 31;
    h *= UINT64_C(0xbf58476d1ce4e5b9);
    return h ^ (h >> 29);
}

static int loop_init(LoopMap *map, int64_t slots)
{
    int64_t slot;
    map->slots = malloc((size_t)slots * sizeof(LoopSlot));
    if (map->slots == NULL)
        return REPLAY_ENOMEM;
    for (slot = 0; slot < slots; slot++)
        map->slots[slot].frame_id = -1;
    map->mask = slots - 1;
    map->used = 0;
    return REPLAY_OK;
}

/* The slot holding (frame_id, pc), or the free slot it would take. */
static int64_t loop_find(const LoopMap *map, int64_t frame_id, int64_t pc)
{
    int64_t slot = (int64_t)(loop_hash(frame_id, pc) & (uint64_t)map->mask);
    while (map->slots[slot].frame_id >= 0
            && (map->slots[slot].frame_id != frame_id
                || map->slots[slot].pc != pc))
        slot = (slot + 1) & map->mask;
    return slot;
}

/* Doubles the table once it is half full. */
static int loop_grow(LoopMap *map)
{
    LoopMap grown;
    int64_t slot;
    if (2 * map->used <= map->mask + 1)
        return REPLAY_OK;
    if (loop_init(&grown, 2 * (map->mask + 1)) != REPLAY_OK)
        return REPLAY_ENOMEM;
    for (slot = 0; slot <= map->mask; slot++) {
        const LoopSlot *entry = &map->slots[slot];
        if (entry->frame_id >= 0)
            grown.slots[loop_find(&grown, entry->frame_id, entry->pc)]
                = *entry;
    }
    grown.used = map->used;
    free(map->slots);
    *map = grown;
    return REPLAY_OK;
}

/* Frees slot, shifting back the entries whose probe passed it. */
static void loop_delete(LoopMap *map, int64_t hole)
{
    int64_t next = hole, home;
    for (;;) {
        next = (next + 1) & map->mask;
        if (map->slots[next].frame_id < 0)
            break;
        home = (int64_t)(loop_hash(map->slots[next].frame_id,
                                   map->slots[next].pc)
                         & (uint64_t)map->mask);
        if (((next - home) & map->mask) >= ((next - hole) & map->mask)) {
            map->slots[hole] = map->slots[next];
            hole = next;
        }
    }
    map->slots[hole].frame_id = -1;
    map->used--;
}

/* ---------------------------------------------------------- executor */

/* _draw_trips. */
static int64_t draw_trips(Walk *walk, double mean)
{
    double trips;
    if (walk->transaction_instructions > walk->max_transaction)
        return 1;
    if (mean <= 1.0)
        return 1;
    trips = nearbyint(rng_gauss(&walk->rngs[RNG_EXEC], mean,
                                walk->jitter * mean));
    return trips > 1.0 ? (int64_t)trips : 1;
}

/* _draw_irq_interval: max(1, int(expovariate(rate))). */
static int64_t draw_irq_interval(Walk *walk)
{
    const double interval = -log(1.0 - rng_random(&walk->rngs[RNG_IRQ]))
                            / walk->irq_rate;
    return interval >= 1.0 ? (int64_t)interval : 1;
}

/* _loop_take_backedge: 1 (taken), 0 (not taken) or -1 (no memory). */
static int loop_take_backedge(Walk *walk, int64_t block, int64_t frame_id)
{
    LoopMap *map = &walk->loops;
    const int64_t pc = walk->pc[block];
    int64_t slot = loop_find(map, frame_id, pc), remaining;
    const int known = map->slots[slot].frame_id >= 0;
    remaining = known ? map->slots[slot].remaining
                      : draw_trips(walk, walk->mean_iterations[block]) - 1;
    if (remaining > 0) {
        map->slots[slot].remaining = remaining - 1;
        if (!known) {
            map->slots[slot].frame_id = frame_id;
            map->slots[slot].pc = pc;
            map->used++;
            if (loop_grow(map) != REPLAY_OK)
                return -1;
        }
        return 1;
    }
    if (known)
        loop_delete(map, slot);
    return 0;
}

static int push_frame(Walk *walk, Context *context, int64_t return_pc)
{
    if (context->depth == context->capacity) {
        const int64_t capacity = 2 * context->capacity;
        Frame *grown = realloc(context->frames,
                               (size_t)capacity * sizeof(Frame));
        if (grown == NULL)
            return REPLAY_ENOMEM;
        context->frames = grown;
        context->capacity = capacity;
    }
    context->frames[context->depth].return_pc = return_pc;
    context->frames[context->depth].frame_id = ++walk->frame_counter;
    context->depth++;
    return REPLAY_OK;
}

/* Runs block in context (ProgramExecutor._step for the application, the
 * body of _run_handler's loop for a handler).  *finished is set when a
 * handler's outermost return executes. */
static int step(Walk *walk, Context *context, int64_t block, Record *record,
                int *finished)
{
    const int64_t end = end_pc(walk, block), target = walk->target[block];
    int taken;
    record->block = block;
    record->trap_level = context->trap_level;
    record->taken = 0;
    record->taken_target = target;
    switch (walk->kind[block]) {
    case KIND_COND:
        record->taken = rng_random(context->branch_rng)
                        < walk->taken_probability[block];
        record->next_pc = record->taken ? target : end;
        break;
    case KIND_LOOP:
        taken = loop_take_backedge(
            walk, block, context->depth
                         ? context->frames[context->depth - 1].frame_id
                         : context->root_frame);
        if (taken < 0)
            return REPLAY_ENOMEM;
        record->taken = taken;
        record->next_pc = taken ? target : end;
        break;
    case KIND_JUMP:
        record->taken = 1;
        record->next_pc = target;
        break;
    case KIND_CALL:
        record->taken = 1;
        record->next_pc = target;
        if (context->trap_level == TL_APPLICATION
                && walk->pc[block] == walk->dispatch_pc) {
            record->next_pc = walk->root_entry[weighted_index(
                &walk->rngs[RNG_EXEC], walk->root_weight, walk->n_roots,
                walk->root_total)];
            record->taken_target = record->next_pc;
        }
        if (push_frame(walk, context, end) != REPLAY_OK)
            return REPLAY_ENOMEM;
        break;
    case KIND_RETURN:
        record->taken = 1;
        if (context->depth) {
            context->depth--;
            record->next_pc = context->frames[context->depth].return_pc;
            record->taken_target = record->next_pc;
            if (!context->depth && context->trap_level == TL_APPLICATION)
                walk->transaction_instructions = 0;
        } else if (context->trap_level == TL_APPLICATION) {
            /* Returning with an empty stack restarts the dispatcher. */
            record->next_pc = walk->dispatch_pc;
            record->taken_target = record->next_pc;
        } else {
            record->next_pc = 0;
            *finished = 1;
        }
        break;
    default:   /* KIND_FALL */
        record->next_pc = end;
    }
    return REPLAY_OK;
}

/* --------------------------------------------------------- front end */

static int grow(void **column, size_t width, int64_t capacity)
{
    void *grown = realloc(*column, (size_t)capacity * width);
    if (grown == NULL)
        return REPLAY_ENOMEM;
    *column = grown;
    return REPLAY_OK;
}

static int push_access(Walk *walk, int64_t block, int64_t pc, int trap,
                       int wrong)
{
    int64_t at = walk->counts[OUT_ACCESSES];
    if (at == walk->access_capacity) {
        const int64_t capacity = 2 * walk->access_capacity;
        if (grow((void **)&walk->access_block, 8, capacity)
                || grow((void **)&walk->access_pc, 8, capacity)
                || grow((void **)&walk->access_trap, 1, capacity)
                || grow((void **)&walk->access_wrong, 1, capacity))
            return REPLAY_ENOMEM;
        walk->access_capacity = capacity;
    }
    walk->access_block[at] = block;
    walk->access_pc[at] = pc;
    walk->access_trap[at] = (uint8_t)trap;
    walk->access_wrong[at] = (uint8_t)wrong;
    walk->counts[OUT_ACCESSES] = at + 1;
    walk->counts[wrong ? OUT_WRONG_PATH : OUT_CORRECT_PATH]++;
    return REPLAY_OK;
}

static int push_retire(Walk *walk, int64_t pc, int trap)
{
    int64_t at = walk->counts[OUT_RETIRES];
    if (at == walk->retire_capacity) {
        const int64_t capacity = 2 * walk->retire_capacity;
        if (grow((void **)&walk->retire_pc, 8, capacity)
                || grow((void **)&walk->retire_trap, 1, capacity))
            return REPLAY_ENOMEM;
        walk->retire_capacity = capacity;
    }
    walk->retire_pc[at] = pc;
    walk->retire_trap[at] = (uint8_t)trap;
    walk->counts[OUT_RETIRES] = at + 1;
    return REPLAY_OK;
}

/* CounterTable.update. */
static void train_counter(uint8_t *counter, int outcome)
{
    if (outcome) {
        if (*counter < 3)
            (*counter)++;
    } else if (*counter > 0) {
        (*counter)--;
    }
}

/* HybridPredictor.predict. */
static int predict(const Walk *walk, int64_t pc)
{
    const int64_t key = pc >> 2;
    if (walk->chooser[key & walk->chooser_mask] > 1)
        return walk->gshare[(key ^ walk->history) & walk->gshare_mask] > 1;
    return walk->bimodal[key & walk->bimodal_mask] > 1;
}

/* HybridPredictor.update: the chooser moves toward the one component
 * that was right; gshare trains at the old history, then shifts it. */
static void train_predictor(Walk *walk, int64_t pc, int outcome)
{
    const int64_t key = pc >> 2;
    uint8_t *gshare = &walk->gshare[(key ^ walk->history)
                                    & walk->gshare_mask];
    uint8_t *bimodal = &walk->bimodal[key & walk->bimodal_mask];
    const int gshare_right = (*gshare > 1) == outcome;
    if (gshare_right != ((*bimodal > 1) == outcome))
        train_counter(&walk->chooser[key & walk->chooser_mask],
                      gshare_right);
    train_counter(gshare, outcome);
    walk->history = ((walk->history << 1) | outcome) & walk->history_mask;
    train_counter(bimodal, outcome);
}

/* BranchTargetBuffer.lookup: a hit promotes the entry to MRU. */
static int btb_lookup(Walk *walk, int64_t pc, int64_t *target)
{
    const int64_t base = ((pc >> 2) % walk->btb_sets) * walk->btb_ways;
    const int64_t end = base + walk->btb_fill[base / walk->btb_ways];
    int64_t slot;
    for (slot = base; slot < end; slot++)
        if (walk->btb_pc[slot] == pc) {
            walk->btb_stamp[slot] = ++walk->btb_tick;
            *target = walk->btb_target[slot];
            return 1;
        }
    return 0;
}

/* BranchTargetBuffer.update: refresh the entry, or insert it into a free
 * way, else in place of the set's least recently used. */
static void btb_update(Walk *walk, int64_t pc, int64_t target)
{
    const int64_t set = (pc >> 2) % walk->btb_sets;
    const int64_t base = set * walk->btb_ways;
    int64_t slot, victim = base;
    for (slot = base; slot < base + walk->btb_fill[set]; slot++)
        if (walk->btb_pc[slot] == pc)
            break;
    if (slot == base + walk->btb_fill[set]) {
        if (walk->btb_fill[set] < walk->btb_ways) {
            walk->btb_fill[set]++;
        } else {
            for (slot = base + 1; slot < base + walk->btb_ways; slot++)
                if (walk->btb_stamp[slot] < walk->btb_stamp[victim])
                    victim = slot;
            slot = victim;
        }
        walk->btb_pc[slot] = pc;
    }
    walk->btb_target[slot] = target;
    walk->btb_stamp[slot] = ++walk->btb_tick;
}

/* ReturnAddressStack.push. */
static void ras_push(Walk *walk, int64_t pc)
{
    if (walk->ras_len >= walk->ras_depth) {
        memmove(walk->ras, walk->ras + 1,
                (size_t)(walk->ras_depth - 1) * sizeof(int64_t));
        walk->ras_len--;
    }
    walk->ras[walk->ras_len++] = pc;
}

/* FetchModel._draw_wrong_path_blocks. */
static int64_t wrong_path_blocks(Walk *walk)
{
    const int64_t latency = walk->min_resolve
        + rng_below(&walk->rngs[RNG_FRONT], walk->resolve_span);
    const int64_t blocks = 1 + latency / 4;
    return blocks < walk->fetch_queue ? blocks : walk->fetch_queue;
}

/* FetchModel._emit_wrong_path: n blocks along the predicted path from
 * pc, predicting without training. */
static int emit_wrong_path(Walk *walk, int trap, int64_t pc, int64_t n)
{
    int64_t emitted = 0, guard = 0, depth = 0, last = -1, block, at, start;
    int64_t predicted;
    while (emitted < n && guard < 4 * n + 16) {
        guard++;
        at = block_at(walk, pc);
        if (at < 0)
            return REPLAY_OK;
        for (block = pc >> walk->block_bits;
             block <= last_pc(walk, at) >> walk->block_bits; block++) {
            if (block == last)
                continue;
            start = block << walk->block_bits;
            if (push_access(walk, block, pc > start ? pc : start, trap, 1)
                    != REPLAY_OK)
                return REPLAY_ENOMEM;
            last = block;
            if (++emitted >= n)
                return REPLAY_OK;
        }
        /* _speculative_successor */
        switch (walk->kind[at]) {
        case KIND_COND:
        case KIND_LOOP:
            pc = predict(walk, last_pc(walk, at)) ? walk->target[at]
                                                  : end_pc(walk, at);
            break;
        case KIND_JUMP:
            pc = walk->target[at];
            break;
        case KIND_CALL:
            walk->shadow[depth++] = end_pc(walk, at);
            pc = btb_lookup(walk, last_pc(walk, at), &predicted)
                 ? predicted : walk->target[at];
            break;
        case KIND_RETURN:
            if (depth) {
                pc = walk->shadow[--depth];
            } else {
                /* Peek the stale RAS top: speculation beyond the
                 * misprediction must not corrupt the real stack. */
                if (!walk->ras_len)
                    return REPLAY_OK;
                pc = walk->ras[walk->ras_len - 1];
            }
            break;
        default:   /* KIND_FALL */
            pc = end_pc(walk, at);
        }
    }
    return REPLAY_OK;
}

/* FetchModel.process for one record: the correct-path blocks, then the
 * terminator through the predictors, then any wrong path. */
static int fetch(Walk *walk, const Record *record)
{
    const int64_t block_index = record->block, pc = walk->pc[block_index];
    const int64_t branch_pc = last_pc(walk, block_index);
    const int64_t fallthrough = branch_pc + INSTRUCTION_BYTES;
    const int trap = record->trap_level;
    int64_t block, at, start, predicted, blocks;
    int predicted_taken;
    for (block = pc >> walk->block_bits;
         block <= branch_pc >> walk->block_bits; block++) {
        if (block == walk->last_block && trap == walk->last_trap)
            continue;
        at = pc > block << walk->block_bits ? pc : block << walk->block_bits;
        if (push_access(walk, block, at, trap, 0) != REPLAY_OK
                || push_retire(walk, at, trap) != REPLAY_OK)
            return REPLAY_ENOMEM;
        walk->last_block = block;
        walk->last_trap = trap;
    }
    switch (walk->kind[block_index]) {
    case KIND_COND:
    case KIND_LOOP:
        walk->counts[OUT_CONDITIONAL]++;
        predicted_taken = predict(walk, branch_pc);
        train_predictor(walk, branch_pc, record->taken);
        if (record->taken)
            btb_update(walk, branch_pc, record->taken_target);
        if (predicted_taken == record->taken)
            return REPLAY_OK;
        walk->counts[OUT_MISPREDICTED]++;
        start = predicted_taken ? record->taken_target : fallthrough;
        break;
    case KIND_CALL:
        ras_push(walk, fallthrough);
        /* fall through - a call's target comes from the BTB too */
    case KIND_JUMP:
        if (!btb_lookup(walk, branch_pc, &predicted)) {
            btb_update(walk, branch_pc, record->next_pc);
            walk->counts[OUT_BTB_MISSES]++;
            return emit_wrong_path(walk, trap, fallthrough, 1);
        }
        btb_update(walk, branch_pc, record->next_pc);
        if (predicted == record->next_pc)
            return REPLAY_OK;
        walk->counts[OUT_INDIRECT]++;
        start = predicted;
        break;
    case KIND_RETURN:
        if (walk->ras_len) {
            predicted = walk->ras[--walk->ras_len];
            if (predicted == record->next_pc)
                return REPLAY_OK;
            start = predicted;
        } else {
            start = fallthrough;
        }
        walk->counts[OUT_RAS_MISPREDICTIONS]++;
        break;
    default:   /* KIND_FALL */
        return REPLAY_OK;
    }
    blocks = wrong_path_blocks(walk);
    return blocks > 0 ? emit_wrong_path(walk, trap, start, blocks)
                      : REPLAY_OK;
}

/* ------------------------------------------------------------- walks */

/* _run_handler: one handler to completion, or until the budget is
 * spent. */
static int run_handler(Walk *walk)
{
    Context *context = &walk->handler;
    Record record;
    int64_t at = -1, pc = walk->handler_entry[weighted_index(
        &walk->rngs[RNG_IRQ], walk->handler_weight, walk->n_handlers,
        walk->handler_total)];
    int finished = 0;
    context->root_frame = ++walk->frame_counter;
    context->depth = 0;
    for (;;) {
        at = block_starting_at(walk, pc, at);
        if (at < 0) {
            walk->counts[OUT_BAD_PC] = pc;
            return REPLAY_EHANDLERPC;
        }
        if (step(walk, context, at, &record, &finished) != REPLAY_OK)
            return REPLAY_ENOMEM;
        walk->retired += walk->instructions[at];
        if (fetch(walk, &record) != REPLAY_OK)
            return REPLAY_ENOMEM;
        if (walk->retired >= walk->budget || finished)
            return REPLAY_OK;
        pc = record.next_pc;
    }
}

/* ProgramExecutor.run, each record fetched as it retires. */
static int run(Walk *walk)
{
    Record record;
    int64_t at = -1, pc = walk->dispatch_pc;
    int64_t next_irq = draw_irq_interval(walk);
    int status, finished = 0;
    while (walk->retired < walk->budget) {
        at = block_starting_at(walk, pc, at);
        if (at < 0) {
            walk->counts[OUT_BAD_PC] = pc;
            return REPLAY_EBADPC;
        }
        if (step(walk, &walk->app, at, &record, &finished) != REPLAY_OK)
            return REPLAY_ENOMEM;
        walk->retired += walk->instructions[at];
        walk->transaction_instructions += walk->instructions[at];
        if (fetch(walk, &record) != REPLAY_OK)
            return REPLAY_ENOMEM;
        pc = record.next_pc;
        if (walk->retired >= next_irq && walk->n_handlers) {
            status = run_handler(walk);
            if (status != REPLAY_OK)
                return status;
            next_irq = walk->retired + draw_irq_interval(walk);
        }
    }
    return REPLAY_OK;
}

static int walk_init(Walk *walk, const int64_t *config)
{
    const int64_t btb_slots = config[CFG_BTB_SETS] * config[CFG_BTB_WAYS];
    walk->budget = config[CFG_INSTRUCTIONS];
    walk->dispatch_pc = config[CFG_DISPATCH_PC];
    walk->max_transaction = config[CFG_MAX_TRANSACTION];
    walk->block_bits = (int)config[CFG_BLOCK_BITS];
    walk->gshare_mask = config[CFG_GSHARE_ENTRIES] - 1;
    walk->bimodal_mask = config[CFG_BIMODAL_ENTRIES] - 1;
    walk->chooser_mask = config[CFG_CHOOSER_ENTRIES] - 1;
    walk->history_mask = ((int64_t)1 << config[CFG_HISTORY_BITS]) - 1;
    walk->btb_sets = config[CFG_BTB_SETS];
    walk->btb_ways = config[CFG_BTB_WAYS];
    walk->ras_depth = config[CFG_RAS_DEPTH];
    walk->min_resolve = config[CFG_MIN_RESOLVE];
    walk->resolve_span = config[CFG_MAX_RESOLVE] - config[CFG_MIN_RESOLVE]
                         + 1;
    walk->fetch_queue = config[CFG_FETCH_QUEUE];
    walk->last_block = -1;
    walk->last_trap = -1;
    walk->app.trap_level = TL_APPLICATION;
    walk->app.branch_rng = &walk->rngs[RNG_EXEC];
    walk->handler.trap_level = TL_INTERRUPT;
    walk->handler.branch_rng = &walk->rngs[RNG_IRQ];
    walk->app.capacity = walk->handler.capacity = 16;
    walk->access_capacity = walk->retire_capacity = 4096;
    /* Every counter starts at 2 (weakly taken). */
    walk->gshare = malloc((size_t)config[CFG_GSHARE_ENTRIES]);
    walk->bimodal = malloc((size_t)config[CFG_BIMODAL_ENTRIES]);
    walk->chooser = malloc((size_t)config[CFG_CHOOSER_ENTRIES]);
    walk->btb_pc = malloc((size_t)btb_slots * sizeof(int64_t));
    walk->btb_target = malloc((size_t)btb_slots * sizeof(int64_t));
    walk->btb_stamp = malloc((size_t)btb_slots * sizeof(int64_t));
    walk->btb_fill = calloc((size_t)walk->btb_sets, sizeof(int64_t));
    walk->ras = malloc((size_t)walk->ras_depth * sizeof(int64_t));
    /* A wrong path pushes at most once per step, and takes at most
     * 4 * max(fetch queue, 1) + 16 steps. */
    walk->shadow = malloc((size_t)(4 * (walk->fetch_queue > 1
                                        ? walk->fetch_queue : 1) + 16)
                          * sizeof(int64_t));
    walk->app.frames = malloc(16 * sizeof(Frame));
    walk->handler.frames = malloc(16 * sizeof(Frame));
    walk->access_block = malloc(4096 * sizeof(int64_t));
    walk->access_pc = malloc(4096 * sizeof(int64_t));
    walk->access_trap = malloc(4096);
    walk->access_wrong = malloc(4096);
    walk->retire_pc = malloc(4096 * sizeof(int64_t));
    walk->retire_trap = malloc(4096);
    if (walk->gshare == NULL || walk->bimodal == NULL
            || walk->chooser == NULL || walk->btb_pc == NULL
            || walk->btb_target == NULL || walk->btb_stamp == NULL
            || walk->btb_fill == NULL || walk->ras == NULL
            || walk->shadow == NULL || walk->app.frames == NULL
            || walk->handler.frames == NULL || walk->access_block == NULL
            || walk->access_pc == NULL || walk->access_trap == NULL
            || walk->access_wrong == NULL || walk->retire_pc == NULL
            || walk->retire_trap == NULL)
        return REPLAY_ENOMEM;
    memset(walk->gshare, 2, (size_t)config[CFG_GSHARE_ENTRIES]);
    memset(walk->bimodal, 2, (size_t)config[CFG_BIMODAL_ENTRIES]);
    memset(walk->chooser, 2, (size_t)config[CFG_CHOOSER_ENTRIES]);
    return loop_init(&walk->loops, 64);
}

static void walk_free(Walk *walk)
{
    free(walk->gshare);
    free(walk->bimodal);
    free(walk->chooser);
    free(walk->btb_pc);
    free(walk->btb_target);
    free(walk->btb_stamp);
    free(walk->btb_fill);
    free(walk->ras);
    free(walk->shadow);
    free(walk->app.frames);
    free(walk->handler.frames);
    free(walk->loops.slots);
}

/* Replays `config[CFG_INSTRUCTIONS]` instructions of the program whose
 * n_blocks blocks are given sorted by pc.  rng_words holds the
 * executor's, the interrupt injector's and the front end's MT19937
 * states (624 words and the index each), gauss_next and gauss_ready
 * their cached gauss variates; all three are overwritten with the final
 * states.  out_counts receives OUT_FIELDS values and out_columns the
 * COL_FIELDS column buffers, OUT_ACCESSES and OUT_RETIRES long. */
int replay_trace(const int64_t *config, const double *fconfig,
                 int64_t n_blocks, const int64_t *block_pc,
                 const int64_t *block_instructions, const uint8_t *block_kind,
                 const int64_t *block_target,
                 const double *block_taken_probability,
                 const double *block_mean_iterations,
                 int64_t n_roots, const int64_t *root_entry,
                 const double *root_weight,
                 int64_t n_handlers, const int64_t *handler_entry,
                 const double *handler_weight,
                 uint32_t *rng_words, double *gauss_next,
                 uint8_t *gauss_ready,
                 int64_t *out_counts, void **out_columns)
{
    Walk *walk = calloc(1, sizeof(Walk));
    int status, r;
    if (walk == NULL)
        return REPLAY_ENOMEM;
    walk->n_blocks = n_blocks;
    walk->pc = block_pc;
    walk->instructions = block_instructions;
    walk->kind = block_kind;
    walk->target = block_target;
    walk->taken_probability = block_taken_probability;
    walk->mean_iterations = block_mean_iterations;
    walk->n_roots = n_roots;
    walk->root_entry = root_entry;
    walk->root_weight = root_weight;
    walk->n_handlers = n_handlers;
    walk->handler_entry = handler_entry;
    walk->handler_weight = handler_weight;
    walk->jitter = fconfig[FCFG_JITTER];
    walk->irq_rate = fconfig[FCFG_IRQ_RATE];
    walk->root_total = fconfig[FCFG_ROOT_TOTAL];
    walk->handler_total = fconfig[FCFG_HANDLER_TOTAL];
    walk->counts = out_counts;
    memset(out_counts, 0, OUT_FIELDS * sizeof(int64_t));
    for (r = 0; r < RNGS; r++) {
        memcpy(walk->rngs[r].state, rng_words + r * (MT_N + 1),
               MT_N * sizeof(uint32_t));
        walk->rngs[r].index = (int)rng_words[r * (MT_N + 1) + MT_N];
        walk->rngs[r].gauss_ready = gauss_ready[r];
        walk->rngs[r].gauss_next = gauss_next[r];
    }
    status = walk_init(walk, config);
    if (status == REPLAY_OK)
        status = run(walk);
    out_counts[OUT_INSTRUCTIONS] = walk->retired;
    for (r = 0; r < RNGS; r++) {
        memcpy(rng_words + r * (MT_N + 1), walk->rngs[r].state,
               MT_N * sizeof(uint32_t));
        rng_words[r * (MT_N + 1) + MT_N] = (uint32_t)walk->rngs[r].index;
        gauss_ready[r] = (uint8_t)walk->rngs[r].gauss_ready;
        gauss_next[r] = walk->rngs[r].gauss_next;
    }
    out_columns[COL_ACCESS_BLOCK] = walk->access_block;
    out_columns[COL_ACCESS_PC] = walk->access_pc;
    out_columns[COL_ACCESS_TRAP] = walk->access_trap;
    out_columns[COL_ACCESS_WRONG] = walk->access_wrong;
    out_columns[COL_RETIRE_PC] = walk->retire_pc;
    out_columns[COL_RETIRE_TRAP] = walk->retire_trap;
    walk_free(walk);
    free(walk);
    return status;
}

/* Frees the columns replay_trace handed over. */
void replay_free(void **columns)
{
    int column;
    for (column = 0; column < COL_FIELDS; column++) {
        free(columns[column]);
        columns[column] = NULL;
    }
}
