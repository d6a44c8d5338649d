"""Statistics shared by the benchmark runner, the compare mode and the
self-test: quartiles, the tail-percentile rule, reblocked error bars,
span self times, and the compare verdicts."""

import math
import statistics

# Fewest samples a reported tail percentile must leave beyond it.
TAIL_BEYOND = 10


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def tail_percentile(values):
    """The highest whole percentile p (50 <= p <= 99) whose nearest-rank
    value still has at least TAIL_BEYOND samples beyond it.

    Returns (p, value, count beyond); p is None when fewer than
    TAIL_BEYOND samples lie beyond even the median, and the median is
    returned in its place."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in range(50, 100):
        rank = math.ceil(p * n / 100)  # nearest-rank, 1-based
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            best = (p, xs[rank - 1], n - rank)
    if best is None:
        return None, statistics.median(xs), n - math.ceil(n / 2)
    return best


def reblocked_sigma(series, min_blocks=8):
    """Standard error of the mean of a correlated series by reblocking
    (Flyvbjerg and Petersen): pairs are averaged level by level and the
    largest naive error over levels with at least `min_blocks` blocks is
    taken."""
    xs = list(series)
    best = 0.0
    while len(xs) >= max(min_blocks, 2):
        n = len(xs)
        mean = sum(xs) / n
        var = sum((x - mean) ** 2 for x in xs) / (n - 1)
        best = max(best, math.sqrt(var / n))
        xs = [0.5 * (xs[i] + xs[i + 1]) for i in range(0, n - 1, 2)]
    return best


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals. `spans` holds (name, t0, t1, parent, gen)
    rows; a child's interval is clipped to its parent's."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        covered = 0.0
        end = t0
        for c in sorted(children.get(i, []), key=lambda c: spans[c][1]):
            a, b = max(spans[c][1], end), min(spans[c][2], t1)
            if b > a:
                covered += b - a
                end = b
        out.append((t1 - t0) - covered)
    return out


def subtree(spans, root):
    """Indices of the spans under `root`, root included."""
    members = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in members:
            members.add(i)
    return sorted(members)


def sum_check(spans, root, expected, rel_tol=1e-9):
    """Named self times of a span tree plus the root's own self time
    (the explicit residual) against the root's wall time, and the span
    count of every name under the root against `expected`, a
    {name: count} map: a call that is dropped, renamed or repeated, or a
    span the map does not name, fails the check.

    Returns (wall, named, residual, problems); the check passes when
    problems is empty."""
    members = subtree(spans, root)
    st = self_times(spans)
    wall = spans[root][2] - spans[root][1]
    residual = st[root]
    named = sum(st[i] for i in members if i != root)
    problems = []
    if abs(named + residual - wall) > rel_tol * max(wall, 1e-12) or residual < -1e-9:
        problems.append("self times %.9g + residual %.9g != wall %.9g" % (named, residual, wall))
    found = {}
    for i in members:
        if i != root:
            found[spans[i][0]] = found.get(spans[i][0], 0) + 1
    for name in sorted(set(found) | set(expected)):
        if found.get(name, 0) != expected.get(name, 0):
            problems.append("%d %s spans, expected %d" % (
                found.get(name, 0), name, expected.get(name, 0)))
    return wall, named, residual, problems


def verdict(parent, change, better, bound):
    """Verdict on one metric of one workload from paired runs.

    parent and change are equally long lists of values, pair i being run
    i of each side. `better` is "lower" or "higher"; `bound` is the share
    of the parent's median by which the change may worsen.

    Returns (verdict, win fraction): "improved" when the change wins at
    least nine tenths of the pairs (ties count for neither) and the
    medians differ by more than the parent's quartile distance;
    "unresolved" when either side's spread is wider than the bound,
    unless every change run beats every parent run (then "within bound")
    or every one loses and the median loss exceeds the bound ("regressed");
    otherwise "regressed" when the change's median is worse by more than
    the bound, else "within bound"."""
    if not parent or len(parent) != len(change):
        raise ValueError("need equally many parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_frac = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if win_frac >= 0.9 and gain > (p3 - p1):
        return "improved", win_frac
    worse_by = -gain / abs(pm) if pm else (math.inf if gain < 0 else 0.0)
    if max(spread(parent), spread(change)) > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "within bound", win_frac
        if all(sign * (c - p) < 0 for c in change for p in parent) and worse_by > bound:
            return "regressed", win_frac
        return "unresolved", win_frac
    if worse_by > bound:
        return "regressed", win_frac
    return "within bound", win_frac
