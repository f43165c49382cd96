/* A sampling profiler for a box without `perf`: preload this into any
 * program and every millisecond of CPU time the program spends, SIGPROF
 * stores where it was. At exit the samples go to $TIGER_PROF_OUT (default
 * prof.samples), one hex address a line, after the executable mappings
 * ("M start end base path", base being where the file's first byte is
 * loaded) so that scripts/prof/symbolize.py can turn an address into a
 * module and, for the program itself, into a symbol.
 * No change to the program: scripts/prof.sh builds and preloads this. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long samples[MAX_SAMPLES];
static volatile unsigned long taken;

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    /* One slot a signal; signals of one process do not nest (no SA_NODEFER),
     * but two threads may take one each, hence the atomic. */
    unsigned long at = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (at < MAX_SAMPLES)
        samples[at] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("TIGER_PROF_OUT");
    FILE *out = fopen(path ? path : "prof.samples", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096], loaded[4096] = "";
    unsigned long base = 0;
    while (fgets(line, sizeof line, maps)) {
        unsigned long start, end;
        char perms[8], file[4096] = "";
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %4095s", &start, &end, perms, file) < 3)
            continue;
        /* A file's mappings are listed together, lowest (offset 0) first. */
        if (strcmp(file, loaded) != 0) {
            strcpy(loaded, file);
            base = start;
        }
        if (strchr(perms, 'x'))
            fprintf(out, "M %lx %lx %lx %s\n", start, end, base, file);
    }
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "%lx\n", samples[i]);
    fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction act;
    memset(&act, 0, sizeof act);
    act.sa_sigaction = on_sigprof;
    act.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &act, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
    atexit(dump);
}
