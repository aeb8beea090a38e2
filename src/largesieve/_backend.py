"""The numpy kernels: odd-only window prime sieve, squarefree-product sums, r2 table.

nu_dfs adds its floats in the depth-first preorder of the recursive
enumeration without recursing: it writes every weight at its product's
preorder position and adds them with a sequential np.cumsum, so its sums
are bitwise equal to the recursion's.
"""

import math

import numpy as np

BACKEND = "python"


def prime_mask(limit: int, lo: int = 0) -> np.ndarray:
    """Boolean array over the odd n in (lo, limit], True at the primes.

    Entry i stands for n = 2 (k + i) + 1, where k = (lo + 1) // 2 is the
    number of odd n <= lo; 2 is even and has no entry.  Each odd prime
    p <= sqrt(limit), read from prime_mask(isqrt(limit)), strikes its odd
    multiples from max(p^2, lo + 1) on.  An odd multiple of p has index
    p // 2 (mod p) among the odd numbers, so one stride of p covers them.
    """
    k = (lo + 1) // 2
    mask = np.ones(max((limit + 1) // 2 - k, 0), dtype=bool)
    if k == 0 and mask.size:
        mask[0] = False  # n = 1
    if limit >= 9:
        for p in (2 * np.flatnonzero(prime_mask(math.isqrt(limit))) + 1).tolist():
            mask[max(p * p // 2, k + (p // 2 - k) % p) - k :: p] = False
    return mask


# A batch enumerates whole subtrees, and the subtree of a product m holds at
# most x / m products (m n <= x for distinct n).  Batches are cut so that
# these bounds add up to at most _BATCH_NODES; at about _BYTES_PER_NODE of
# scratch per product (value, weight, child count and offset, subtree size,
# preorder position, one level's index temporaries, the accumulation buffer)
# a batch stays under 32 MB however large x is.
_BYTES_PER_NODE = 64
_BATCH_NODES = (32 << 20) // _BYTES_PER_NODE


def nu_dfs(primes: np.ndarray, x: float, s: float = 1.0):
    """(count, sum_tau, sum_inv, sum_tau_inv) over squarefree products <= x.

    primes: ascending int64 array; entries above x are dropped, and products
    of distinct entries are enumerated, n = 1 included.  tau(n) = 2^omega(n)
    and the inverse sums are weighted by n^-s, a numpy array power.

    The products are built one tree level at a time: the children of a
    product m whose largest prime is p_i are m * p_j for i < j with
    m * p_j <= x, each the same double the recursion forms.  Each weight is
    written at its product's depth-first preorder position, found from
    subtree sizes and sibling offsets, and the weights are added by a
    sequential np.cumsum that starts from the running total.  The floats are
    therefore added in the recursion's order and come out bitwise equal to
    it (tests.oracles.nu_dfs_recursive).  The tree is walked in batches of
    whole sibling subtrees taken in preorder; a subtree too large for a batch
    has its root added alone and its children batched in turn.
    """
    ps = np.asarray(primes, dtype=np.int64)
    psf = ps[ps <= x].astype(np.float64)
    x = float(x)
    s = float(s)
    count, sum_tau, sum_inv, sum_tau_inv = 1, 1, 1.0, 1.0
    if not psf.size:
        return count, sum_tau, sum_inv, sum_tau_inv

    def limits(m):
        """For each product in m, the number of primes p with m * p <= x."""
        k = np.searchsorted(psf, x / m, side="right")
        while True:  # x / m is rounded: settle k on the exact test m * p <= x
            down = (k > 0) & (m * psf[np.maximum(k - 1, 0)] > x)
            up = (k < psf.size) & (m * psf[np.minimum(k, psf.size - 1)] <= x)
            if not (down.any() or up.any()):
                return k
            k = k - down + up

    def add_batch(m, idx, tau):
        """Add the subtrees rooted at the sibling products m, in preorder."""
        nonlocal count, sum_tau, sum_inv, sum_tau_inv
        ws, counts, firsts = [], [], []
        while m.size:
            c = np.maximum(limits(m) - idx - 1, 0)
            first = np.cumsum(c) - c  # offset of each product's first child
            child_idx = np.arange(int(c.sum())) + np.repeat(idx + 1 - first, c)
            ws.append(m ** -s)
            counts.append(c)
            firsts.append(first)
            m, idx = np.repeat(m, c) * psf[child_idx], child_idx
        # subtree sizes bottom-up; prefix[k] runs over the sizes at depth k + 1
        size = np.ones(ws[-1].size, dtype=np.int64)
        prefix = [None] * (len(ws) - 1)
        for k in reversed(range(len(ws) - 1)):
            prefix[k] = np.concatenate(([0], np.cumsum(size)))
            size = 1 + prefix[k][firsts[k] + counts[k]] - prefix[k][firsts[k]]
        # preorder positions top-down: the parent, then earlier siblings' subtrees
        pos = [np.cumsum(size) - size]
        for k in range(len(ws) - 1):
            pos.append(np.repeat(pos[k] + 1 - prefix[k][firsts[k]], counts[k])
                       + prefix[k][:-1])
        buf = np.empty(int(size.sum()) + 1)
        buf[0] = sum_inv
        for p, w in zip(pos, ws):
            buf[1 + p] = w
        sum_inv = float(np.cumsum(buf, out=buf)[-1])
        buf[0] = sum_tau_inv
        for k, (p, w) in enumerate(zip(pos, ws)):
            buf[1 + p] = w * float(tau << k)
        sum_tau_inv = float(np.cumsum(buf, out=buf)[-1])
        count += buf.size - 1
        sum_tau += sum(w.size * (tau << k) for k, w in enumerate(ws))

    def batch_length(mp, a, b):
        """How many of the siblings mp * p_j, j = a, ..., b - 1, fit a batch."""
        n = 1024
        while True:
            hi = min(b, a + n)
            t = int(np.searchsorted(np.cumsum(x / (mp * psf[a:hi])), _BATCH_NODES,
                                    side="right"))
            if t < hi - a or hi == b:
                return t
            n *= 2

    # (mp, a, b, tau): the siblings mp * p_j for j in [a, b), of tau 2 tau(mp)
    k = int(limits(np.ones(1))[0])
    stack = [(1.0, 0, k, 2)] if k else []  # later siblings sit deeper
    while stack:
        mp, a, b, tau = stack.pop()
        take = batch_length(mp, a, b)
        if take:
            if a + take < b:
                stack.append((mp, a + take, b, tau))
            add_batch(mp * psf[a:a + take], np.arange(a, a + take), tau)
            continue
        # the bound x / m of m = mp * p_a alone exceeds a batch: add m by itself
        if a + 1 < b:
            stack.append((mp, a + 1, b, tau))
        m = mp * psf[a:a + 1]
        w = float((m ** -s)[0])
        count += 1
        sum_tau += tau
        sum_inv += w
        sum_tau_inv += float(tau) * w
        k = int(limits(m)[0])
        if k > a + 1:
            stack.append((float(m[0]), a + 1, k, 2 * tau))
    return count, sum_tau, sum_inv, sum_tau_inv


def r2_counts(n_max: int) -> np.ndarray:
    """int64 array with entry n = ordered coprime representations x^2 + y^2 = n.

    gcd(0, k) = |k|, so the only coprime pairs with a zero are (0, +-1) and
    (+-1, 0).
    """
    out = np.zeros(n_max + 1, dtype=np.int64)
    for xx in range(math.isqrt(n_max) + 1):
        rest = n_max - xx * xx
        ys = np.arange(math.isqrt(rest) + 1, dtype=np.int64)
        cop = np.gcd(xx, ys) == 1
        ys = ys[cop]
        mult = (2 if xx else 1) * np.where(ys > 0, 2, 1)
        np.add.at(out, xx * xx + ys * ys, mult)
    return out
