"""Seeded input generator for the benchmark.

Everything the program under test reads is made here from one integer
seed, with Python's Mersenne Twister (random.Random), so the same seed
gives byte-identical files on any machine. The program receives only
files: FIMI text collections (one transaction per line) and, for the
serving load, a query mix that the load generator replays.
"""

import math
import random


def seasonal_collection(seed, transactions, items, seasons, hot_per_season,
                        global_items, patterns_per_season, txn_hot,
                        off_season_rate, noise_per_txn):
    """A collection cut into `seasons` contiguous blocks of transactions.

    Season s owns a private set of `hot_per_season` items: inside its block
    each of them is drawn often, outside it only at `off_season_rate` of
    that. `global_items` are frequent in every season, so pairs among them
    survive any segment bound. Each season also plants
    `patterns_per_season` disjoint 4-itemsets of its hot items, which give
    the miners frequent itemsets up to level 4. The remaining items are
    background noise. Returns (transactions, layout); the layout names the
    hot and everywhere-frequent items, from which query_mix draws.
    """
    rng = random.Random(seed)
    # The item layout is fixed per domain size, not per seed: which ids are
    # hot decides the depth-first miners' item order, and a seed-dependent
    # layout made their work vary by a tenth from seed to seed.
    pool = list(range(items))
    random.Random(items).shuffle(pool)
    hot = [pool[s * hot_per_season:(s + 1) * hot_per_season]
           for s in range(seasons)]
    used = seasons * hot_per_season
    glob = pool[used:used + global_items]
    noise = pool[used + global_items:]
    if not noise or 4 * patterns_per_season > hot_per_season:
        raise ValueError("item domain too small for the season layout")
    patterns = []
    for s in range(seasons):
        order = rng.sample(hot[s], hot_per_season)
        patterns.append([sorted(order[4 * i:4 * i + 4])
                         for i in range(patterns_per_season)])

    out = []
    block = transactions // seasons
    for t in range(transactions):
        s = min(t // block, seasons - 1)
        txn = set()
        if rng.random() < 0.5:
            pattern = patterns[s][rng.randrange(patterns_per_season)]
            txn.update(x for x in pattern if rng.random() < 0.9)
        for _ in range(txn_hot):
            txn.add(hot[s][int(rng.random() ** 2 * hot_per_season)])
        if rng.random() < off_season_rate * seasons:
            other = rng.randrange(seasons)
            txn.add(hot[other][rng.randrange(hot_per_season)])
        for g in glob:
            if rng.random() < 0.15:
                txn.add(g)
        for _ in range(noise_per_txn):
            txn.add(noise[rng.randrange(len(noise))])
        out.append(sorted(txn))
    return out, {"hot": hot, "global": glob, "items": items}


def write_fimi(path, txns):
    with open(path, "w") as f:
        f.write("\n".join(" ".join(map(str, t)) for t in txns))
        f.write("\n")


def query_mix(seed, layout, closed, open_, shares, repeat_pool):
    """The serving load: `closed` + `open_` query itemsets plus one set-up
    query, drawn so each lands in a chosen tier of the server.

    shares = (reject, singleton, repeated, novel) fractions:
      reject    pairs of hot items from two different seasons, whose
                segment bound falls below minsup;
      singleton one item, answered from the map's row totals;
      repeated  drawn from a pool of `repeat_pool` in-season itemsets, so
                after first use they are cache hits;
      novel     in-season itemsets of 3-6 items, each asked once, so they
                reach the exact tier (their number in the closed phase is
                meant to exceed the server's cache capacity).
    Returns (setup_query, queries).
    """
    rng = random.Random(seed * 7919 + 1)
    hot, glob = layout["hot"], layout["global"]
    seasons = len(hot)
    members = [sorted(h + glob) for h in hot]
    used = set()

    def in_season(size):
        for _ in range(1000):
            s = rng.randrange(seasons)
            itemset = tuple(sorted(rng.sample(members[s], size)))
            if itemset not in used:
                used.add(itemset)
                return itemset
        raise ValueError("in-season itemsets exhausted; shrink the mix")

    def weighted(sizes):
        # Sizes weighted by how many in-season itemsets of each size exist,
        # so every size fills to about the same share.
        weights = [math.comb(len(members[0]), k) for k in sizes]
        return in_season(rng.choices(sizes, weights)[0])

    pool = [weighted((2, 3, 4)) for _ in range(repeat_pool)]
    setup = in_season(4)
    kinds = ("reject", "singleton", "repeated", "novel")
    queries = []
    for n in (closed, open_):
        counts = [int(n * share) for share in shares]
        counts[-1] = n - sum(counts[:-1])
        order = [k for k, c in zip(kinds, counts) for _ in range(c)]
        rng.shuffle(order)
        for kind in order:
            if kind == "reject":
                a, b = rng.sample(range(seasons), 2)
                q = tuple(sorted((rng.choice(hot[a]), rng.choice(hot[b]))))
            elif kind == "singleton":
                q = (rng.randrange(layout["items"]),)
            elif kind == "repeated":
                q = pool[rng.randrange(repeat_pool)]
            else:
                q = weighted((3, 4, 5, 6))
            queries.append(q)
    return setup, queries
