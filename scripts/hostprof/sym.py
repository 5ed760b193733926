#!/usr/bin/env python3
"""sym.py <binary> <profile> [--top N] [--inline]: self and inclusive tables of a
hostprof profile. Addresses map onto `nm -C -n` of the binary and `nm -D -C -n`
of libc. libc's memcpy / memcmp / malloc internals have no exported name (they
show under the nearest one) and keep no frame, so a sample whose leaf is in libc
is charged one frame up, as `<caller> [libc]`: to the function the stack-top
word returns into when that word points into the binary (a leaf that pushed
nothing), else to the first frame of the chain (the caller's caller). `--inline`
adds `addr2line -i` chains for the top self entries (inlined callers)."""
import bisect, collections, subprocess, sys

def symbols(path, dynamic):
    out = subprocess.run(["nm", "-C", "-n"] + (["-D"] if dynamic else []) + [path],
                         capture_output=True, text=True).stdout
    table = []
    for line in out.splitlines():
        parts = line.split(None, 2)  # undefined symbols have no address field
        if len(parts) == 3 and len(parts[0]) == 16 and parts[1] in "tTwWiI":
            table.append((int(parts[0], 16), parts[2]))
    return [address for address, _ in table], [name for _, name in table]

def main():
    binary, profile = sys.argv[1], sys.argv[2]
    top = int(sys.argv[sys.argv.index("--top") + 1]) if "--top" in sys.argv else 40
    maps, _, samples = open(profile).read().partition("SAMPLES\n")
    bases = {}  # path -> (lowest start, highest end) of its mappings
    for line in maps.splitlines():
        fields = line.split()
        if len(fields) >= 6 and fields[5].startswith("/"):
            start, end = (int(x, 16) for x in fields[0].split("-"))
            low, high = bases.get(fields[5], (start, end))
            bases[fields[5]] = (min(low, start), max(high, end))
    objects = []  # (start, end, load base, addresses, names, tag)
    for path, (start, end) in bases.items():
        is_binary = path.split("/")[-1] == binary.split("/")[-1]
        if is_binary or "/libc" in path:
            objects.append((start, end, *symbols(binary if is_binary else path, not is_binary),
                            "" if is_binary else "libc:"))
    def resolve(address):
        for start, end, addresses, names, tag in objects:
            if start <= address < end:
                at = bisect.bisect_right(addresses, address - start) - 1
                return tag + (names[at] if at >= 0 else "?"), address - start
        return "?", address
    self_time, inclusive, leaves, total = collections.Counter(), collections.Counter(), {}, 0
    for line in samples.splitlines():
        stack = [resolve(int(frame, 16)) for frame in line.split()]
        if not stack:
            continue
        # The stack-top word is a frame only under a libc leaf, and only when
        # it is an address in the binary.
        top_is_frame = stack[0][0].startswith("libc:") and stack[1][0][:5] not in ("?", "libc:")
        if not top_is_frame:
            del stack[1]
        total += 1
        leaf = stack[0][0]
        if leaf.startswith("libc:") and len(stack) > 1:
            leaf = stack[1][0] + " [libc]"
        self_time[leaf] += 1
        leaves.setdefault(leaf, stack[0][1])
        for name in {name for name, _ in stack}:
            inclusive[name] += 1
    for title, table in (("self", self_time), ("inclusive", inclusive)):
        print(f"== {title} ({total} samples)")
        for name, count in table.most_common(top):
            print(f"{100 * count / total:6.1f}%  {count:6d}  {name}")
            if title == "self" and "--inline" in sys.argv and "[libc]" not in name:
                chain = subprocess.run(["addr2line", "-i", "-f", "-C", "-e", binary, hex(leaves[name])],
                                       capture_output=True, text=True).stdout.splitlines()[::2]
                print("                 inlined: " + " <- ".join(chain[:6]))

main()
