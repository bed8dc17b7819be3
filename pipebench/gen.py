"""Seeded inputs and the benchmark's own exact arithmetic.

Nothing here imports polyperc.  Inputs are written as text files in the
program's formats, and every expected result is computed here with
integer arithmetic on cleared denominators, so a check never depends on
the code it checks.

A half-space is ``(bias, weights, lax)`` with Fraction coefficients; a
network is a list of layers, each a list of half-spaces; a pair is
``(ones, zeros)`` as bit masks over the half-spaces (bit i-1 stands for
half-space i).
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# exact arithmetic


def lower(hs):
    """Integer form of a half-space: scale by the lcm of its denominators."""
    bias, weights, lax = hs
    scale = math.lcm(bias.denominator, *(w.denominator for w in weights))
    return (
        bias.numerator * (scale // bias.denominator),
        [w.numerator * (scale // w.denominator) for w in weights],
        lax,
    )


def point_ints(point):
    """Common denominator D and the integer coordinates D*x."""
    den = math.lcm(*(c.denominator for c in point))
    return den, [c.numerator * (den // c.denominator) for c in point]


def layer_bits(lowered, den, coords):
    """Mask of the units that fire at the point D^-1 * coords."""
    mask = 0
    for u, (bias, weights, lax) in enumerate(lowered):
        value = bias * den + sum(w * c for w, c in zip(weights, coords))
        if value > 0 or (lax and value == 0):
            mask |= 1 << u
    return mask


def signature(lowered, point):
    den, coords = point_ints(point)
    return layer_bits(lowered, den, coords)


def tail_output(lowered_tail, mask):
    """Output bit of the layers after the first on a first-layer mask."""
    for layer in lowered_tail:
        width = len(layer[0][1])
        bits = [(mask >> j) & 1 for j in range(width)]
        mask = layer_bits(layer, 1, bits)
    return mask & 1


def lower_net(net):
    return [[lower(u) for u in layer] for layer in net]


def net_output(lowered_net, point):
    return tail_output(lowered_net[1:], signature(lowered_net[0], point))


def scheme_member(pairs, selected, mode, mask):
    """DNF: some selected cell holds; CNF: every selected cocell holds."""
    if mode == "DNF":
        return int(any(mask & pairs[j][0] == pairs[j][0] and not mask & pairs[j][1] for j in selected))
    return int(all(mask & pairs[j][0] or mask & pairs[j][1] != pairs[j][1] for j in selected))


def satisfies(halfspaces, point):
    lowered = [lower(h) for h in halfspaces]
    return signature(lowered, point) == (1 << len(lowered)) - 1


def det(rows):
    """Exact determinant by fraction-free Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(rows):
    cols = len(rows[0])
    for size in range(min(len(rows), cols), 0, -1):
        for sub_rows in itertools.combinations(rows, size):
            for sub_cols in itertools.combinations(range(cols), size):
                if det([[r[c] for c in sub_cols] for r in sub_rows]):
                    return size
    return 0


def general_position(halfspaces):
    """Any k <= m normals independent, and no m+1 hyperplanes meet."""
    lowered = [lower(h) for h in halfspaces]
    dim = len(lowered[0][1])
    for k in range(2, dim + 1):
        for group in itertools.combinations(lowered, k):
            if rank([w for _, w, _ in group]) < k:
                return False
    for group in itertools.combinations(lowered, dim + 1):
        if det([w + [b] for b, w, _ in group]) == 0:
            return False
    return True


def regions(n, dim):
    """Cells of n hyperplanes in general position in R^dim (Zaslavsky)."""
    return sum(math.comb(n, i) for i in range(dim + 1))


_RATIONAL = re.compile(r"([+-]?)(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?(?:/(\d+))?")


def _digits(text):
    # chunked, so the interpreter's int-from-string digit limit never applies
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def parse_q(text):
    """Rational from any magnitude of integer, p/q or decimal text."""
    match = _RATIONAL.fullmatch(text.strip())
    if match is None or not (match.group(2) or match.group(3)):
        raise ValueError(f"not a rational: {text[:40]!r}")
    sign, whole, frac, exp, den = match.groups()
    frac = frac or ""
    value = Fraction(_digits(whole + frac) if whole + frac else 0, 10 ** len(frac))
    if exp:
        value *= Fraction(10) ** int(exp)
    if den:
        value /= _digits(den)
    return -value if sign == "-" else value


def parse_tuple(text):
    """``(a,b,...)`` as printed by the program."""
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a point: {text[:40]!r}")
    body = text[1:-1]
    return tuple(parse_q(t) for t in body.split(",")) if body else ()


# ---------------------------------------------------------------------------
# text formats


def fmt_hs(hs):
    bias, weights, lax = hs
    return " ".join([str(bias), *map(str, weights), ">=" if lax else ">"])


def fmt_point(point):
    return " ".join(map(str, point))


def fmt_net(net):
    lines = [f"LAYERS={len(net)}"]
    for layer in net:
        lines.append(f"LAYER {len(layer[0][1])} {len(layer)}")
        lines.extend(fmt_hs(u) for u in layer)
    return "\n".join(lines) + "\n"


def _members(mask):
    found = [str(i + 1) for i in range(mask.bit_length()) if (mask >> i) & 1]
    return ",".join(found) or "-"


def fmt_scheme(n, pairs, selected):
    lines = [f"N={n}"]
    lines += [f"G{k}: ONES={_members(a)} ZEROS={_members(b)}" for k, (a, b) in enumerate(pairs, 1)]
    lines.append("J=" + (",".join(str(j + 1) for j in selected) or "-"))
    return "\n".join(lines) + "\n"


def fmt_bundle(halfspaces, pairs, selected, mode):
    body = "".join(fmt_hs(h) + "\n" for h in halfspaces)
    return body + f"MODE={mode}\n" + fmt_scheme(len(halfspaces), pairs, selected)


# ---------------------------------------------------------------------------
# random objects


def halfspace(rng, dim, span=5, int_bias=False):
    while True:
        weights = [Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3))) for _ in range(dim)]
        if any(weights):
            break
    bias = Fraction(rng.randint(-2 * span, 2 * span), 1 if int_bias else rng.randint(1, 4))
    return bias, tuple(weights), rng.random() < 0.5


def point(rng, dim):
    return tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 8)) for _ in range(dim))


def boundary_point(rng, hs):
    """A point exactly on the hyperplane of ``hs``."""
    bias, weights, _ = hs
    x = list(point(rng, len(weights)))
    j = rng.choice([i for i, w in enumerate(weights) if w])
    rest = bias + sum(w * c for i, (w, c) in enumerate(zip(weights, x)) if i != j)
    x[j] = -rest / weights[j]
    return tuple(x)


def points(rng, halfspaces, count):
    """Seeded points, a third of them on some half-space's boundary."""
    dim = len(halfspaces[0][1])
    return [
        boundary_point(rng, rng.choice(halfspaces)) if k % 3 == 0 else point(rng, dim)
        for k in range(count)
    ]


def pair(rng, n, literals):
    chosen = rng.sample(range(n), literals)
    ones = zeros = 0
    for i in chosen:
        if rng.random() < 0.5:
            ones |= 1 << i
        else:
            zeros |= 1 << i
    return ones, zeros


def scheme(rng, n, q, lo, hi, select=0.7):
    pairs = [pair(rng, n, rng.randint(lo, hi)) for _ in range(q)]
    selected = sorted(rng.sample(range(q), max(1, round(select * q))))
    return pairs, selected


def _literals(mask):
    return [1 << i for i in range(mask.bit_length()) if (mask >> i) & 1]


def distribute(partial, clause):
    """One step of distributing a conjunction of clauses into merged
    (ones, zeros) terms, dropping terms that need a bit both ways."""
    ones, zeros = clause
    merged = set()
    for po, pz in partial:
        for bit in _literals(ones):
            if not pz & bit:
                merged.add((po | bit, pz))
        for bit in _literals(zeros):
            if not po & bit:
                merged.add((po, pz | bit))
    return merged


def sized_scheme(rng, n, literals, q, target, slack=0.06):
    """``q`` all-selected pairs of ``literals`` literals each, redrawn until
    their distribution (the work of complement, DNF-to-CNF and CNF-to-DNF)
    has ``target`` terms, within ``slack``.  Fixing the pair count and
    width as well as the term count keeps the intermediate work and the
    term lengths alike from seed to seed."""
    while True:
        pairs, partial = [], {(0, 0)}
        for _ in range(q):
            pairs.append(pair(rng, n, literals))
            partial = distribute(partial, pairs[-1])
        if abs(len(partial) - target) <= slack * target:
            return pairs, list(range(q))


def layer_outputs(lowered_layers, n_bits, vectors):
    """Bits after the given layers for many input masks at once: the rule
    of ``layer_bits`` on int64 arrays.  The weights here are small, so no
    sum comes near overflow."""
    import numpy as np

    bits = (np.asarray(vectors, dtype=np.int64)[:, None] >> np.arange(n_bits)) & 1
    for layer in lowered_layers:
        weights = np.array([w for _, w, _ in layer], dtype=np.int64)
        biases = np.array([b for b, _, _ in layer], dtype=np.int64)
        lax = np.array([l for _, _, l in layer])
        sums = bits @ weights.T + biases
        bits = ((sums > 0) | (lax & (sums == 0))).astype(np.int64)
    return bits


def tail(rng, n1, widths, accept=0.2, band=1.03, probes=4096):
    """Hidden layers over bits whose output accepts ``accept`` of the
    first-layer vectors, within a factor ``band``: of all of them when
    there are at most ``probes``, else of a seeded probe."""
    import numpy as np

    if 1 << n1 <= probes:
        vectors = range(1 << n1)
    else:
        vectors = [rng.getrandbits(n1) for _ in range(probes)]
    while True:
        layers, fan_in = [], n1
        for width in widths:
            layers.append([halfspace(rng, fan_in, span=3, int_bias=True) for _ in range(width)])
            fan_in = width
        weights = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(fan_in)]
        sums = layer_outputs(lower_net(layers), n1, vectors) @ np.array(weights)
        values, counts = np.unique(sums, return_counts=True)
        # accepted share when the output fires iff the sum reaches t
        share = dict(zip(values.tolist(), (counts[::-1].cumsum()[::-1] / len(sums)).tolist()))
        t = min(share, key=lambda t: abs(share[t] - accept))
        if accept / band <= share[t] <= accept * band:
            out = (-t + Fraction(1, 2), tuple(map(Fraction, weights)), rng.random() < 0.5)
            return layers + [[out]]


def arrangement(rng, n, dim):
    """Half-spaces in general position.  Integer biases and nonzero
    weights keep the cost of eliminating over their cells alike from
    seed to seed; zero weights and rational biases made it bimodal."""
    while True:
        hs = [
            (Fraction(rng.randint(-30, 30)),
             tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9)) for _ in range(dim)),
             rng.random() < 0.5)
            for _ in range(n)
        ]
        if general_position(hs):
            return hs


def planted_system(rng, dim, count):
    """Constraints that a seeded point satisfies; some hold with equality."""
    x = point(rng, dim)
    system = []
    for k in range(count):
        while True:
            weights = tuple(Fraction(rng.randint(-6, 6)) for _ in range(dim))
            if any(weights):
                break
        value = sum(w * c for w, c in zip(weights, x))
        lax = k % 3 != 0
        slack = Fraction(0) if lax and k % 2 else Fraction(rng.randint(1, 12), rng.randint(1, 4))
        system.append((slack - value, weights, lax))
    return system


def contradicted(rng, system):
    """Add ``f >= c`` and ``f <= c - 1`` for a seeded linear f."""
    dim = len(system[0][1])
    while True:
        weights = tuple(Fraction(rng.randint(-5, 5)) for _ in range(dim))
        if any(weights):
            break
    c = Fraction(rng.randint(-10, 10), rng.randint(1, 3))
    return system + [(-c, weights, True), (c - 1, tuple(-w for w in weights), True)]
