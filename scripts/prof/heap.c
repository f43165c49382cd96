/* A heap census for a box without `valgrind`: preload this into any
 * program and every malloc, calloc, realloc, free, posix_memalign,
 * aligned_alloc and memalign passes through glibc's own __libc_* entry
 * points while the bytes each block holds (malloc_usable_size) are kept
 * per log2 size class. Whenever the live total reaches a new peak the
 * classes are copied, so at exit the copy is what the heap held at its
 * peak; it goes to $TIGER_HEAP_OUT, or to standard error if that is unset.
 *
 * Blocks of SITE_MIN bytes or more are also kept by allocation site: the
 * call stack backtrace() gives at the allocation. Each site keeps its live
 * bytes and blocks, and the site table is copied each time the live peak
 * rises by 1 %, so the last copy is the heap within 1 % of its peak, site
 * by site. With $TIGER_HEAP_OUT set it goes to $TIGER_HEAP_OUT.sites: the
 * executable mappings (as scripts/prof/sampler.c writes them), a line
 * "P bytes" for the live total at the copy, and a line "S bytes blocks
 * frame..." a site, in hex; `scripts/prof/symbolize.py FILE --sites`
 * names them.
 * No change to the program: scripts/prof.sh builds and preloads this. */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <malloc.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define CLASSES 64
struct census {
    long bytes, blocks;
    long class_bytes[CLASSES], class_blocks[CLASSES];
};
static struct census live, peak;
static char lock;

/* Sites: a call stack of DEPTH frames at most, hashed into SITES slots
 * (the last one, once the table fills, takes every new stack). Blocks:
 * which site each live tracked block came from, by address, in BLOCKS
 * slots of linear probing; a block that finds the table three quarters
 * full goes untracked and is counted. */
#define SITE_MIN 512
#define DEPTH 24
#define SITES 4096
#define BLOCKS (1 << 16)
struct site {
    int depth;
    void *frames[DEPTH];
};
struct tally {
    long bytes, blocks;
};
static struct site sites[SITES];
static struct tally site_live[SITES], site_snap[SITES];
static int nsites;
static long snap_bytes, tracked, untracked;
static struct {
    void *block;
    int site;
} blocks[BLOCKS];
static int nblocks;
static __thread int busy __attribute__((tls_model("initial-exec")));

static unsigned long mix(unsigned long h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdUL;
    return h ^ (h >> 33);
}

/* The slot of `s`, added if new. Under the lock. */
static int site_of(const struct site *s) {
    unsigned long h = s->depth;
    for (int i = 0; i < s->depth; i++)
        h = mix(h ^ (unsigned long)s->frames[i]);
    for (unsigned long i = h % (SITES - 1);; i = (i + 1) % (SITES - 1)) {
        if (sites[i].depth == 0) {
            if (nsites == SITES * 3 / 4)
                return SITES - 1;
            nsites++;
            sites[i] = *s;
            return (int)i;
        }
        if (sites[i].depth == s->depth &&
            !memcmp(sites[i].frames, s->frames, s->depth * sizeof(void *)))
            return (int)i;
    }
}

static unsigned long block_slot(void *b) {
    return mix((unsigned long)b) % BLOCKS;
}

/* Records `b` as `site`'s. Under the lock. */
static void block_add(void *b, int site) {
    if (nblocks == BLOCKS * 3 / 4) {
        untracked++;
        return;
    }
    unsigned long i = block_slot(b);
    while (blocks[i].block)
        i = (i + 1) % BLOCKS;
    blocks[i].block = b;
    blocks[i].site = site;
    nblocks++;
    tracked++;
}

/* Forgets `b`, returning its site, or -1 if it was not tracked. Under the
 * lock; the entries after it shift back so no probe chain breaks. */
static int block_remove(void *b) {
    unsigned long i = block_slot(b);
    while (blocks[i].block != b) {
        if (!blocks[i].block)
            return -1;
        i = (i + 1) % BLOCKS;
    }
    int site = blocks[i].site;
    nblocks--;
    for (unsigned long j = (i + 1) % BLOCKS; blocks[j].block; j = (j + 1) % BLOCKS) {
        unsigned long home = block_slot(blocks[j].block);
        /* j's entry may move into the hole at i unless its home lies
         * cyclically in (i, j]. */
        if ((j > i && (home <= i || home > j)) || (j < i && home <= i && home > j)) {
            blocks[i] = blocks[j];
            i = j;
        }
    }
    blocks[i].block = NULL;
    return site;
}

/* Block b of usable size n is in class k when 2^k <= n < 2^(k+1). */
static void count(void *b, int sign) {
    if (!b)
        return;
    size_t n = malloc_usable_size(b);
    int k = n ? 63 - __builtin_clzl(n) : 0;
    struct site s = {0};
    if (sign > 0 && n >= SITE_MIN && !busy) {
        /* backtrace() allocates on its first call; that call is not
         * tracked. */
        busy = 1;
        s.depth = backtrace(s.frames, DEPTH);
        busy = 0;
    }
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
    live.bytes += sign * (long)n;
    live.blocks += sign;
    live.class_bytes[k] += sign * (long)n;
    live.class_blocks[k] += sign;
    int site = -1;
    if (s.depth > 0) {
        site = site_of(&s);
        block_add(b, site);
    } else if (sign < 0 && n >= SITE_MIN) {
        site = block_remove(b);
    }
    if (site >= 0) {
        site_live[site].bytes += sign * (long)n;
        site_live[site].blocks += sign;
    }
    if (live.bytes > peak.bytes)
        peak = live;
    if (live.bytes > snap_bytes + snap_bytes / 100) {
        memcpy(site_snap, site_live, sizeof site_live);
        snap_bytes = live.bytes;
    }
    __atomic_clear(&lock, __ATOMIC_RELEASE);
}

void *malloc(size_t n) {
    void *b = __libc_malloc(n);
    count(b, 1);
    return b;
}

void *calloc(size_t m, size_t n) {
    void *b = __libc_calloc(m, n);
    count(b, 1);
    return b;
}

void free(void *b) {
    count(b, -1);
    __libc_free(b);
}

void *realloc(void *old, size_t n) {
    count(old, -1);
    void *b = __libc_realloc(old, n);
    /* A failed realloc leaves the old block where it was. */
    count(b ? b : (n ? old : NULL), 1);
    return b;
}

void *memalign(size_t align, size_t n) {
    void *b = __libc_memalign(align, n);
    count(b, 1);
    return b;
}

void *aligned_alloc(size_t align, size_t n) {
    return memalign(align, n);
}

int posix_memalign(void **out, size_t align, size_t n) {
    if (!align || align % sizeof(void *) || align & (align - 1))
        return EINVAL;
    void *b = memalign(align, n);
    if (!b)
        return ENOMEM;
    *out = b;
    return 0;
}

/* The executable mappings, as scripts/prof/sampler.c writes them. */
static void write_maps(FILE *out) {
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!maps)
        return;
    char line[4096], loaded[4096] = "";
    unsigned long base = 0;
    while (fgets(line, sizeof line, maps)) {
        unsigned long start, end;
        char perms[8], file[4096] = "";
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %4095s", &start, &end, perms, file) < 3)
            continue;
        if (strcmp(file, loaded) != 0) {
            strcpy(loaded, file);
            base = start;
        }
        if (strchr(perms, 'x'))
            fprintf(out, "M %lx %lx %lx %s\n", start, end, base, file);
    }
    fclose(maps);
}

static void write_sites(const char *path) {
    char name[4096];
    snprintf(name, sizeof name, "%s.sites", path);
    FILE *out = fopen(name, "w");
    if (!out)
        return;
    write_maps(out);
    fprintf(out, "P %ld\n", snap_bytes);
    for (int i = 0; i < SITES; i++) {
        if (site_snap[i].bytes <= 0)
            continue;
        fprintf(out, "S %ld %ld", site_snap[i].bytes, site_snap[i].blocks);
        for (int f = 0; f < sites[i].depth; f++)
            fprintf(out, " %lx", (unsigned long)sites[i].frames[f]);
        fprintf(out, "\n");
    }
    fclose(out);
}

static void report(void) {
    busy = 1;
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
    struct census at = peak;
    __atomic_clear(&lock, __ATOMIC_RELEASE);
    const char *path = getenv("TIGER_HEAP_OUT");
    FILE *out = path ? fopen(path, "w") : stderr;
    if (!out)
        return;
    fprintf(out, "heap at its live peak: %.1f MB in %ld blocks\n", at.bytes / 1e6, at.blocks);
    fprintf(out, "%-10s %10s %10s %7s\n", "class", "MB", "blocks", "share");
    for (int k = 0; k < CLASSES; k++)
        if (at.class_blocks[k])
            fprintf(out, "<2^%-7d %10.2f %10ld %6.1f%%\n", k + 1, at.class_bytes[k] / 1e6,
                    at.class_blocks[k], 100.0 * at.class_bytes[k] / at.bytes);
    fprintf(out, "%ld blocks of %d bytes or more allocated by a traced stack, %ld untracked\n",
            tracked, SITE_MIN, untracked);
    if (path) {
        fclose(out);
        write_sites(path);
    }
}

__attribute__((constructor)) static void start(void) {
    atexit(report);
}
