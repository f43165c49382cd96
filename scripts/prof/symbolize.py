#!/usr/bin/env python3
"""Aggregates scripts/prof/sampler.c's samples by symbol.

usage: symbolize.py SAMPLES [TOP]   (prints the TOP heaviest, default 40)

A sample inside the profiled executable is named by `nm -S --defined-only`
and a bisect over the symbols' start addresses; one inside a shared
library by the library. `[profile.release] debug = true` keeps the names.
"""
import bisect, collections, os, subprocess, sys

lines = open(sys.argv[1]).read().split("\n")
maps = [l.split(None, 4) for l in lines if l.startswith("M ")]
maps = [(int(s, 16), int(e, 16), int(b, 16), p[0] if p else "[anon]") for _, s, e, b, *p in maps]
exe = os.path.realpath(maps[0][3])
nm = subprocess.run(["nm", "-S", "--defined-only", "-C", exe], capture_output=True, text=True).stdout
syms = sorted((int(a, 16), int(s, 16), n) for a, s, _, n in (l.split(None, 3) for l in nm.splitlines() if len(l.split(None, 3)) == 4))
starts = [a for a, _, _ in syms]

def name(addr):
    for start, end, base, path in maps:
        if start <= addr < end:
            if os.path.realpath(path) != exe:
                return "[" + os.path.basename(path) + "]"
            at = addr - base  # a PIE links at 0: the load base is the whole bias
            i = bisect.bisect_right(starts, at) - 1
            return syms[i][2] if i >= 0 and at < syms[i][0] + max(syms[i][1], 1) else "[" + os.path.basename(path) + " ?]"
    return "[unmapped]"

tally = collections.Counter(name(int(l, 16)) for l in lines if l and not l.startswith("M "))
total = sum(tally.values())
print(f"{total} samples, 1 ms of CPU time each")
for symbol, n in tally.most_common(int(sys.argv[2]) if len(sys.argv) > 2 else 40):
    print(f"{100 * n / total:6.2f}%  {n:7d}  {symbol}")
