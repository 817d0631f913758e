"""Statistics and /proc parsing for the benchmark (see run.py).

Kept free of I/O so that test_stats.py can check every function on
fixed inputs.
"""

import statistics


def percentile(values, p, min_beyond=10):
    """The p-th percentile (0 < p < 100) of `values` by the nearest-rank
    rule, or None when fewer than `min_beyond` samples lie above it: a
    tail percentile resting on fewer samples is omitted, not filled in."""
    if not 0 < p < 100:
        raise ValueError("p must lie strictly between 0 and 100")
    xs = sorted(values)
    if not xs:
        return None
    rank = -(-len(xs) * p // 100)  # ceil(n * p / 100), at least 1
    rank = max(1, int(rank))
    if len(xs) - rank < min_beyond:
        return None
    return xs[rank - 1]


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartiles as `statistics.quantiles(values, n=4)`
    gives them (the 'exclusive' method)."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def round_rates(rounds):
    """Rate of correct operations of every round, per client lane.
    `rounds` holds (lane, correct operations, seconds)."""
    lanes = {}
    for lane, ok, secs in rounds:
        lanes.setdefault(lane, []).append(ok / secs)
    return lanes


def throughput(rounds):
    """Correct operations per second: each lane's median round rate (a
    stall on the host slows one round, not the figure), summed over the
    lanes that run side by side."""
    return sum(statistics.median(r) for r in round_rates(rounds).values())


def parse_status_kb(text, key):
    """A `kB` field of /proc/<pid>/status (e.g. VmHWM, the peak
    resident set size), in KiB."""
    for line in text.splitlines():
        name, _, rest = line.partition(":")
        if name == key:
            fields = rest.split()
            if len(fields) != 2 or fields[1] != "kB":
                raise ValueError("unexpected %s line: %r" % (key, line))
            return int(fields[0])
    raise ValueError("no %s line" % key)


def parse_stat_cpu_s(text, ticks_per_s):
    """User plus system CPU seconds from /proc/<pid>/stat. The command
    name (field 2) is in parentheses and may hold spaces or parentheses,
    so fields are counted from the last ')'."""
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    utime, stime = int(rest[11]), int(rest[12])
    return (utime + stime) / ticks_per_s


def self_times(spans):
    """Total self time per span name, in ms. A span's self time is its
    duration minus the part of it that its child spans cover (children
    of one span do not overlap: spans come from one thread)."""
    child_ns = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    totals = {}
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
        totals[s["name"]] = totals.get(s["name"], 0.0) + own / 1e6
    return totals
