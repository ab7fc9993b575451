"""Independent support oracle and the output checks built on it.

Supports are counted on the oracle's own vertical bitmaps: one Python
integer per item, bit t set iff transaction t holds the item, so the
support of an itemset is the popcount of the AND of its items' integers.
Nothing here reads the program's code or uses its counting; the map file
is parsed from its documented byte layout.
"""

import itertools
import struct


class Oracle:
    def __init__(self, txns, num_items):
        rows = [bytearray((len(txns) + 7) // 8) for _ in range(num_items)]
        for t, txn in enumerate(txns):
            byte, bit = t >> 3, 1 << (t & 7)
            for item in txn:
                rows[item][byte] |= bit
        self.bits = [int.from_bytes(r, "little") for r in rows]
        self.item_support = [b.bit_count() for b in self.bits]

    def support(self, itemset):
        acc = self.bits[itemset[0]]
        for item in itemset[1:]:
            acc &= self.bits[item]
        return acc.bit_count()


def read_map(path):
    """Reads an OSSM map file: magic, endianness mark, (items, segments),
    an item-major uint64 count matrix, then a checksum. Returns per-item
    tuples of segment counts."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != b"OSSMSM2\n" or len(raw) < 28:
        raise ValueError(f"{path}: not an OSSM map")
    items, segments = struct.unpack_from("<QQ", raw, 12)
    if len(raw) != 28 + 8 * items * segments + 8:
        raise ValueError(f"{path}: {len(raw)} bytes for {items}x{segments}")
    counts = struct.unpack_from(f"<{items * segments}Q", raw, 28)
    return [counts[i * segments:(i + 1) * segments] for i in range(items)]


def eq1_bound(rows, itemset):
    """Equation (1): the sum over segments of the smallest item count."""
    return sum(map(min, *(rows[x] for x in itemset))) if len(itemset) > 1 \
        else sum(rows[itemset[0]])


def parse_mine_output(text):
    """Parses `ossm_cli mine --top=N` stdout into (total, {itemset: sup})."""
    lines = text.splitlines()
    total = int(lines[0].split()[0])
    found = {}
    for line in lines[1:]:
        line = line.strip()
        if not line.startswith("{"):
            continue
        items, support = line.split("}  support ")
        found[tuple(int(x) for x in items[1:].split(", "))] = int(support)
    return total, found


def check_mining(oracle, minsup, total, found):
    """Checks one miner's output; returns a list of problems (empty = ok).

    `found` holds the printed itemsets of size >= 2; singletons are not
    printed, so `total` must equal the oracle's frequent items plus them.
    Every support must match the oracle and reach minsup, and no itemset
    of the negative border may be frequent.
    """
    problems = []
    frequent_items = [i for i, s in enumerate(oracle.item_support)
                      if s >= minsup]
    if total != len(frequent_items) + len(found):
        problems.append(f"{total} itemsets reported, oracle expects "
                        f"{len(frequent_items)} singletons + {len(found)}")
    for itemset, support in found.items():
        exact = oracle.support(itemset)
        if support != exact or exact < minsup:
            problems.append(f"{itemset}: reported {support}, oracle {exact}")
            if len(problems) > 5:
                return problems
    # Negative border above level 1: joins of frequent k-sets whose every
    # k-subset is frequent but which were not reported.
    levels = {}
    for itemset in found:
        levels.setdefault(len(itemset), set()).add(itemset)
    levels[1] = {(i,) for i in frequent_items}
    for k in sorted(levels):
        sets = sorted(levels[k])
        by_prefix = {}
        for s in sets:
            by_prefix.setdefault(s[:-1], []).append(s[-1])
        for prefix, tails in by_prefix.items():
            for a, b in itertools.combinations(tails, 2):
                cand = prefix + (a, b)
                if cand in found:
                    continue
                if all(cand[:i] + cand[i + 1:] in levels[k]
                       for i in range(len(cand))):
                    if oracle.support(cand) >= minsup:
                        problems.append(f"border itemset {cand} is frequent")
                        return problems
    return problems


def check_map(oracle, rows, segments, samples):
    """Checks a built map: its shape, that each item's segment counts sum to
    the oracle support, and sup(X) <= Eq. (1) bound <= min sup(x) on the
    sampled itemsets."""
    problems = []
    if rows and len(rows[0]) != segments:
        problems.append(f"map has {len(rows[0])} segments, asked {segments}")
    if len(rows) != len(oracle.item_support):
        problems.append("map item domain differs from the collection")
        return problems
    for item, row in enumerate(rows):
        if sum(row) != oracle.item_support[item]:
            problems.append(f"item {item}: segments sum to {sum(row)}, "
                            f"oracle {oracle.item_support[item]}")
            break
    for itemset in samples:
        bound = eq1_bound(rows, itemset)
        lowest = min(oracle.item_support[x] for x in itemset)
        if not oracle.support(itemset) <= bound <= lowest:
            problems.append(f"{itemset}: bound {bound} outside "
                            f"[{oracle.support(itemset)}, {lowest}]")
            break
    return problems
