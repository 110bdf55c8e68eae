"""Hurwitz class numbers, as the integers 6*H(n).

H(n) counts the reduced positive definite forms [a, b, c] with
4ac - b^2 = n, that is |b| <= a <= c with b >= 0 when a = c, a multiple of
x^2 + y^2 weighted 1/2 and a multiple of x^2 + xy + y^2 weighted 1/3
(Zagier, Nombres de classes et formes modulaires de poids 3/2, 1975; Cohen,
A Course in Computational Algebraic Number Theory, 5.3).  It is 0 unless
n = 0 or 3 mod 4.  `h6(n)` reads 6*H(n) from one of two sources, which
compute the same function and are tested against each other:

- a process-wide table, one int32 `array`, filled a period at a time: for
  fixed a and b, 4ac - b^2 steps by 4a as c grows, so once every b of one a
  has started, the forms of a add one tile of period 4a.  The tile is
  repeated as bytes across a window of WINDOW entries and added to the
  window, read as one integer of 32-bit fields, in one big-integer add; the
  forms below each a's tile are single writes.  The windows keep each
  add's temporaries to a few windows' bytes whatever the table's size; the
  tiles, kept across the windows, take about 2/3 of the table's bytes;
- `count_h6`, a count of the reduced forms of one n, for n past the table:
  for each a <= sqrt(n/3) the square roots b of -n mod 4a, from roots mod
  each prime power (Tonelli-Shanks, Hensel lifting; Cohen 1.5) joined by
  CRT, in O(n^(1/2+eps)) steps.

Growth weighs one count step as STEP_WRITES table writes, and the table
never grows past MAX_SIZE entries.  A range of genera decides once, before
its first count (`reserve`): when the counts its genera would make cost
more than one fill up to its largest discriminant, the table grows once to
exactly that size, with no doubling.  Otherwise, and for single values,
the table grows by doubling when the counts made since it last grew have
taken as many steps as the growth would.  A single large n pays only for
its own counts; a loop over many n soon reads the table instead.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from itertools import compress, repeat
from math import isqrt

# entries of the table at most: 16 MiB of int32
MAX_SIZE = 1 << 22
# the smallest table: its first growth is to at least this many entries
MIN_SIZE = 1 << 10
# exchange rate of the growth rule: one count step (a prime tried, a value
# of a, a root of it) costs about as much as this many table writes.  On a
# 2-core shared Xeon under CPython 3.11 a step took 0.57-0.83 us for n from
# 10^4 to 10^10, and a write of the tile fill 30-41 ns for tables of 2^16 to
# 2^20 entries (75-94 ns at 2^12 to 2^14, where the single writes weigh most)
STEP_WRITES = 16
# entries of the table a fill adds its tiles to at once: the window and each
# tile repeated across it are 64 KiB, whatever the size of the table
WINDOW = 1 << 14
_ORDER = sys.byteorder  # the table's bytes, read as one integer

_table = array("i")  # _table[n] = 6*H(n) for n < len(_table)
_debt = 0  # count steps taken since the table last grew
_primes = []  # the odd primes up to _sieved
_sieved = 2


def h6(n: int) -> int:
    """6*H(n) for n >= 1, from the table when it covers n, else counted."""
    global _debt
    if n % 4 in (1, 2):
        return 0
    if n < len(_table):
        return _table[n]
    size = max(MIN_SIZE, 2 * len(_table), 1 << n.bit_length())
    if size <= MAX_SIZE and _debt * STEP_WRITES >= fill_writes(len(_table), size):
        _grow(size)
        return _table[n]
    value, steps = count_h6(n)
    _debt += steps
    return value


def reserve(lo: int, hi: int) -> bool:
    """Take the growth decision once for a run of genera, before its first
    count: the run reads 6*H(n) at the divisors n of m = 4g - 4 for m from
    lo to hi in steps of 4.  The table grows once, to cover hi and no
    further, when that fill takes fewer writes than the counts the run would
    make past the table; a short or high run keeps the rule of `h6`.
    Returns whether the table covers hi.
    """
    if hi < len(_table):
        return True
    size = max(MIN_SIZE, hi + 1)
    lo = max(lo, len(_table))
    if size > MAX_SIZE or STEP_WRITES * run_steps(lo, hi) < fill_writes(len(_table), size):
        return False
    _grow(size)
    return True


def run_steps(lo: int, hi: int) -> int:
    """About how many count steps the genera with lo <= 4g - 4 <= hi take:
    one genus's counts, over the divisors of m = 4g - 4, take about
    2*sqrt(m) steps (a mean of 1.8 to 2.3 over 300 random genera in each
    decade from 10^2 to 10^7), and the sum of 2*sqrt(m) over m = lo, lo + 4,
    ..., hi is about (hi^(3/2) - (lo - 4)^(3/2))/3."""
    lo = max(lo - 4, 0)
    return (hi * isqrt(hi) - lo * isqrt(lo)) // 3


def fill_writes(lo: int, hi: int) -> int:
    """About how many table writes filling lo <= n < hi takes: the reduced
    forms with 4ac - b^2 < x number about pi*x^(3/2)/18, and the forms with
    b and -b share a write."""
    return (hi * isqrt(hi) - lo * isqrt(lo)) * 7 // 80


def _grow(size: int) -> None:
    """Extend the table to `size` entries: add every reduced form with
    lo <= 4ac - b^2 < size, lo the old length, and clear the debt.

    For fixed a and b, n = 4ac - b^2 steps by 4a as c grows, and from
    c = a + 1, b = 0 on, every b of one a has started: there the forms of a
    add one tile of period 4a.  The forms with c = a and the terms below
    each a's tile are single writes.  The tiles are added one window of
    WINDOW entries at a time: the window, read as one integer of 32-bit
    fields, takes each tile repeated across it as bytes in one integer add,
    and no field carries into the next, as 6*H(n) < 2^31.
    """
    global _debt
    lo = len(_table)
    _table.extend(repeat(0, size - lo))
    tiles = []  # (the n where a's tile starts, its period 4a, the tile as bytes)
    for a in range(1, isqrt((size - 1) // 3) + 1):
        step = 4 * a
        top = min(step * (a + 1), size)
        tile = array("i", bytes(4 * step))
        for b in range(a + 1):
            n = 4 * a * a - b * b  # c = a, where b >= 0 only
            if lo <= n < size:
                _table[n] += 3 if b == 0 else 2 if b == a else 6
            w = 6 if b == 0 or b == a else 12  # c > a, b and -b at once (-a is not reduced)
            tile[-b * b % step] += w
            start = n + step
            if start < lo:
                start += (lo - start + step - 1) // step * step
            for m in range(start, top, step):
                _table[m] += w
        if top < size:
            tiles.append((top, step, tile.tobytes()))
    for w0 in range(lo, size, WINDOW):
        w1 = min(w0 + WINDOW, size)
        total = int.from_bytes(_table[w0:w1], _ORDER)
        for top, step, tile in tiles:  # in increasing order of top
            if top >= w1:
                break
            s = max(top, w0)
            head = s % step * 4
            end = head + (w1 - s) * 4
            chunk = bytes(4 * (s - w0)) + (tile * (end // len(tile) + 1))[head:end]
            total += int.from_bytes(chunk, _ORDER)
        _table[w0:w1] = array("i", total.to_bytes(4 * (w1 - w0), _ORDER))
    _debt = 0


def count_h6(n: int) -> tuple[int, int]:
    """6*H(n), n >= 3, counted form by form, and the loop steps it took.

    b runs over (-a, a], one period of b^2 mod 4a, so with a = 2^e * a' (a'
    odd) the b of one a are the roots mod 2a of b^2 = -n mod 4a: roots mod
    2^(e+1) of b^2 = -n mod 2^(e+2), joined by CRT to roots mod a'.  The
    values of a are reached depth first as 2^e times prime powers of
    increasing primes, each carrying its roots, so a prime for which -n has
    no root cuts off every multiple of it; each node makes its children one
    at a time, so the search holds one node per level.
    """
    if n % 4 in (1, 2):
        return 0, 0
    top, d = isqrt(n // 3), -n
    steps = 0
    good = []  # (p, [roots mod p, roots mod p^2, ...]) for odd p <= top
    for p in _odd_primes(top):
        steps += 1
        r = d % p
        if r == 0:
            levels = [[0]]
        elif pow(r, (p - 1) // 2, p) != 1:
            continue
        else:
            s = _sqrt_mod_prime(r, p)
            levels = [[s, p - s]]
        q = p
        while q * p <= top:
            roots = _lift(d, p, q, levels[-1])
            if not roots:
                break
            levels.append(roots)
            q *= p
        good.append((p, levels))

    def children(a, mod, roots, j):
        """The nodes a*p^e, p in good[j:], made one at a time."""
        for i in range(j, len(good)):
            p, levels = good[i]
            q = p
            for pr in levels:
                if a * q > top:
                    break
                inv = pow(mod, -1, q)
                crt = [r + mod * ((s - r) * inv % q) for r in roots for s in pr]
                yield a * q, mod * q, crt, i + 1
                q *= p
            if q == p:  # not even a*p fits: no later prime does
                break

    nodes = []  # the powers of 2, the roots of the depth-first search
    roots, a = _lift(d, 2, 2, _lift(d, 2, 1, [0])), 1  # mod 4, never empty
    while roots and a <= top:
        nodes.append((a, 2 * a, sorted({r % (2 * a) for r in roots}), 0))
        roots, a = _lift(d, 2, 4 * a, roots), 2 * a

    # one generator of children per level, so the stack is as deep as the
    # search and holds no node's children all at once
    total, stack = 0, [iter(nodes)]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        a, mod, roots, j = node
        steps += 1 + len(roots)
        if 4 * a * a < n:  # c >= n/4a > a for every b
            total += 6 * len(roots)
        else:
            for r in roots:
                b = r if r <= a else r - mod
                c = (b * b + n) // (4 * a)
                if c > a:
                    total += 6
                elif c == a and b >= 0:
                    total += 3 if b == 0 else 2 if b == a else 6
        if j < len(good) and a * good[j][0] <= top:
            stack.append(children(a, mod, roots, j))
    return total, steps


def _lift(d: int, p: int, q: int, roots: list) -> list:
    """The roots of x^2 = d mod q*p that lie over the given roots mod q, a
    power of the prime p (q = 1 for roots mod p)."""
    qp = q * p
    if q > 1 and p != 2 and d % p:  # Hensel: one root over each
        return [(r - (r * r - d) * pow(2 * r, -1, qp)) % qp for r in roots]
    return [x for r in roots for x in range(r, qp, q) if (x * x - d) % qp == 0]


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a mod an odd prime p, a a nonzero square mod p
    (Tonelli-Shanks)."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _odd_primes(top: int) -> list:
    """The odd primes up to top, from a process-wide sieve grown by doubling."""
    global _primes, _sieved
    if top > _sieved:
        _sieved = max(top, 2 * _sieved)
        sieve = bytearray([1]) * (_sieved + 1)
        for i in range(3, isqrt(_sieved) + 1, 2):
            if sieve[i]:
                sieve[i * i :: 2 * i] = bytes(len(range(i * i, _sieved + 1, 2 * i)))
        _primes = list(compress(range(3, _sieved + 1, 2), sieve[3::2]))
    return _primes[: bisect_right(_primes, top)]
