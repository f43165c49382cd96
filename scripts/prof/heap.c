/* A heap census for a box without `valgrind`: preload this into any
 * program and every malloc, calloc, realloc, free, posix_memalign,
 * aligned_alloc and memalign passes through glibc's own __libc_* entry
 * points while the bytes each block holds (malloc_usable_size) are kept
 * per log2 size class. Whenever the live total reaches a new peak the
 * classes are copied, so at exit the copy is what the heap held at its
 * peak; it goes to $TIGER_HEAP_OUT, or to standard error if that is unset.
 * No change to the program: scripts/prof.sh builds and preloads this. */
#define _GNU_SOURCE
#include <errno.h>
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

/* Block b of usable size n is in class k when 2^k <= n < 2^(k+1). */
static void count(void *b, int sign) {
    if (!b)
        return;
    size_t n = malloc_usable_size(b);
    int k = n ? 63 - __builtin_clzl(n) : 0;
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
    live.bytes += sign * (long)n;
    live.blocks += sign;
    live.class_bytes[k] += sign * (long)n;
    live.class_blocks[k] += sign;
    if (live.bytes > peak.bytes)
        peak = live;
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

static void report(void) {
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
    if (path)
        fclose(out);
}

__attribute__((constructor)) static void start(void) {
    atexit(report);
}
