#!/usr/bin/env python3
"""Aggregates scripts/prof/sampler.c's samples by symbol.

usage: symbolize.py SAMPLES [TOP]               the TOP heaviest, default 40
       symbolize.py SAMPLES --annotate SYMBOL   per-instruction counts
       symbolize.py SITES --sites [TOP]         a heap census by site

A sample inside the profiled executable is named by `nm -S --defined-only`
and a bisect over the symbols' start addresses; one inside a shared
library by the library. The binary is not stripped, which keeps the names.

A generic's monomorphisations all demangle to one name (the binary holds
five `BinaryHeap<T,A>::pop`). They are tallied apart, each labelled with
the nearest symbol by address that carries a crate path of ours — the
linker lays an instance beside the code that asked for it:
`… BinaryHeap<T,A>::pop [by tiger_perf::layers::per_layer_values]`.

`--annotate SYMBOL` prints `objdump -d` of every instance whose name
contains SYMBOL, each instruction preceded by the samples that fell on
it. A sample's address is that of the instruction that had not retired:
the one waiting on a load, or the one after it.

`--sites` reads scripts/prof/heap.c's `.sites` file instead: each
allocation site's live bytes at the heap's last 1 % snapshot, named by
the first frame of its stack that is in the executable and not in
`std`, `alloc`, `core` or `hashbrown` (nor an allocator shim), so a
`Vec::push` that grew is charged to whoever pushed. Sites that name the
same frame are summed.
"""
import bisect, collections, os, re, subprocess, sys

lines = open(sys.argv[1]).read().split("\n")
maps = [l.split(None, 4) for l in lines if l.startswith("M ")]
maps = [(int(s, 16), int(e, 16), int(b, 16), p[0] if p else "[anon]") for _, s, e, b, *p in maps]
exe = os.path.realpath(maps[0][3])
nm = subprocess.run(["nm", "-S", "--defined-only", "-C", exe], capture_output=True, text=True).stdout
syms = sorted((int(a, 16), int(s, 16), n) for a, s, _, n in (l.split(None, 3) for l in nm.splitlines() if len(l.split(None, 3)) == 4))
starts = [a for a, _, _ in syms]

# Symbols whose path starts in a crate of this repository: the landmarks
# an instance of a std generic is labelled by.
NOT_OURS = {"core", "alloc", "std", "hashbrown", "compiler_builtins", "rustc_demangle", "gimli", "addr2line", "object", "miniz_oxide", "memchr", "std_detect", "panic_unwind", "unwind"}
first = re.compile(r"^[<&*\[\s]*(?:(?:dyn|mut|const|impl)\s+)*(\w+)::")
ours = [(a, n) for a, _, n in syms if (m := first.match(n)) and m.group(1) not in NOT_OURS]
our_starts = [a for a, _ in ours]
instances = collections.Counter(n for _, _, n in syms)

def label(i):
    """The display name of syms[i]: its name, told apart if others share it."""
    addr, _, n = syms[i]
    if instances[n] == 1 or not ours:
        return n
    j = bisect.bisect_left(our_starts, addr)
    near = [o for o in ours[max(j - 3, 0) : j + 3] if o[1] != n]
    return f"{n} [by {min(near, key=lambda o: abs(o[0] - addr))[1]}]" if near else n

def locate(addr):
    """(index into syms or None, name) of a sampled address."""
    for start, end, base, path in maps:
        if start <= addr < end:
            if os.path.realpath(path) != exe:
                return None, "[" + os.path.basename(path) + "]"
            at = addr - base  # a PIE links at 0: the load base is the whole bias
            i = bisect.bisect_right(starts, at) - 1
            if i >= 0 and at < syms[i][0] + max(syms[i][1], 1):
                return i, label(i)
            return None, "[" + os.path.basename(path) + " ?]"
    return None, "[unmapped]"

if len(sys.argv) > 2 and sys.argv[2] == "--sites":
    SKIP = {"std", "alloc", "core", "hashbrown", "__rustc"}
    def site(frames):
        """The first frame of ours; a return address is looked up one
        byte back, inside its call."""
        for k, frame in enumerate(frames):
            i, name = locate(int(frame, 16) - (k > 0))
            if i is None or "GlobalAlloc" in name or name.startswith("__r"):
                continue
            if (m := first.match(syms[i][2])) and m.group(1) in SKIP:
                continue
            return name
        return "[no frame of ours]"
    at, held, blocks = 0, collections.Counter(), collections.Counter()
    for l in lines:
        if l.startswith("P "):
            at = int(l.split()[1])
        elif l.startswith("S "):
            _, b, n, *frames = l.split()
            name = site(frames)
            held[name] += int(b)
            blocks[name] += int(n)
    tracked = sum(held.values())
    print(f"heap at its last 1 % snapshot: {at / 1e6:.1f} MB, {tracked / 1e6:.1f} MB of it in blocks of 512 bytes or more, by site")
    print(f"{'MB':>8} {'blocks':>8} {'share':>7}  site")
    for name, b in held.most_common(int(sys.argv[3]) if len(sys.argv) > 3 else 40):
        print(f"{b / 1e6:8.2f} {blocks[name]:8d} {100 * b / at:6.1f}%  {name}")
    sys.exit(0)

samples = [int(l, 16) for l in lines if l and not l.startswith("M ")]

if len(sys.argv) > 3 and sys.argv[2] == "--annotate":
    base = next(b for s, e, b, p in maps if os.path.realpath(p) == exe)
    hits = collections.Counter(a - base for a in samples)
    for i, (addr, size, n) in enumerate(syms):
        if sys.argv[3] not in n:
            continue
        inside = sum(c for a, c in hits.items() if addr <= a < addr + size)
        if not inside:
            continue
        print(f"{inside} samples in {label(i)}")
        dis = subprocess.run(["objdump", "-d", "--no-show-raw-insn", "-C", f"--start-address={addr}", f"--stop-address={addr + size}", exe], capture_output=True, text=True).stdout
        for l in dis.splitlines():
            if m := re.match(r"\s*([0-9a-f]+):\t", l):
                c = hits.get(int(m.group(1), 16), 0)
                print(f"{c or '':>6} {l}")
    sys.exit(0)

tally = collections.Counter(locate(a)[1] for a in samples)
total = sum(tally.values())
print(f"{total} samples, 1 ms of CPU time each")
for symbol, n in tally.most_common(int(sys.argv[2]) if len(sys.argv) > 2 else 40):
    print(f"{100 * n / total:6.2f}%  {n:7d}  {symbol}")
