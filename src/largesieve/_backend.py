"""The numpy kernels: odd-only window prime sieve, squarefree-product sums, r2 table.

nu_dfs adds its floats in the depth-first preorder of the recursive
enumeration without recursing: it writes every weight at its product's
preorder position and adds them with a sequential np.cumsum, so its sums
are bitwise equal to the recursion's.  nu_dfs_excluding reads the sums for
several sets of excluded primes off the same walk, bitwise equal to a walk
without each set.
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
# these bounds add up to at most _BATCH_NODES.  A product needs about
# _BYTES_PER_NODE of scratch (value, weight and exclusion mask per level,
# child count and offset, subtree size, preorder position, index temporaries,
# weight, tau and mask again in preorder, the accumulation buffer), so a
# batch stays under 32 MB however large x is (tracemalloc at x = 3e7: about
# 80 B per product, 23 MB in the largest batch).
_BYTES_PER_NODE = 80
_BATCH_NODES = (32 << 20) // _BYTES_PER_NODE

# Each product carries one bit per excluded-prime set in a uint64 mask, so
# one walk serves at most this many distinct sets.
_MASK_BITS = 64


def nu_dfs(primes: np.ndarray, x: float, s: float = 1.0):
    """(count, sum_tau, sum_inv, sum_tau_inv) over squarefree products <= x.

    primes: ascending int64 array; entries above x are dropped, and products
    of distinct entries are enumerated, n = 1 included.  tau(n) = 2^omega(n)
    and the inverse sums are weighted by n^-s, a numpy array power.  This is
    nu_dfs_excluding with the one empty excluded set.
    """
    return nu_dfs_excluding(primes, x, [()], s)[0]


def nu_dfs_excluding(primes: np.ndarray, x: float, excluded, s: float = 1.0):
    """nu_dfs's 4-tuple over the products free of each set in excluded, from one walk.

    excluded: a sequence of collections of integers (of any size); the
    result lists one (count, sum_tau, sum_inv, sum_tau_inv) per set, in
    order, each equal to nu_dfs over primes without that set's entries.

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

    Each product also carries a bitmask of the sets that share a prime with
    it.  A set's sums zero the weights of its masked products and add the
    rest by the same cumsum: preorder is lexicographic order on increasing
    prime tuples, so the products free of the set keep their relative order,
    each is the same double, and an excluded +0.0 leaves a positive running
    sum unchanged.  So every set's sums are bitwise equal to a walk over
    primes without it.  Sets that hit the same primes <= x share a bit, and
    beyond _MASK_BITS distinct sets the tree is walked once per group.
    """
    ps = np.asarray(primes, dtype=np.int64)
    ps = ps[:np.searchsorted(ps, x, side="right")]
    # the indices in ps of each set's primes; a prime above x cannot match,
    # and need not fit in int64
    hits = [tuple(np.flatnonzero(np.isin(ps, [p for p in e if p <= x])).tolist())
            for e in excluded]
    keys = list(dict.fromkeys(hits))
    found = {}
    for lo in range(0, len(keys), _MASK_BITS):
        group = keys[lo:lo + _MASK_BITS]
        found.update(zip(group, _walk(ps, float(x), float(s), group)))
    return [found[h] for h in hits]


def _walk(ps, x, s, keys):
    """One 4-tuple per key, over the products free of the primes ps[key].

    keys: at most _MASK_BITS distinct tuples of indices into ps; bit b of a
    product's mask is set when the product is divisible by a prime of
    keys[b].  The empty key keeps every product.
    """
    psf = ps.astype(np.float64)
    pmask = np.zeros(psf.size, dtype=np.uint64)
    bits = [np.uint64(1 << b) for b in range(len(keys))]
    for bit, key in zip(bits, keys):
        pmask[list(key)] |= bit
    n_sums = len(keys)
    count, sum_tau = [1] * n_sums, [1] * n_sums
    sum_inv, sum_tau_inv = [1.0] * n_sums, [1.0] * n_sums
    if not psf.size:
        return list(zip(count, sum_tau, sum_inv, sum_tau_inv))

    def limits(m):
        """For each product in m, the number of primes p with m * p <= x."""
        k = np.searchsorted(psf, x / m, side="right")
        while True:  # x / m is rounded: settle k on the exact test m * p <= x
            down = (k > 0) & (m * psf[np.maximum(k - 1, 0)] > x)
            up = (k < psf.size) & (m * psf[np.minimum(k, psf.size - 1)] <= x)
            if not (down.any() or up.any()):
                return k
            k = k - down + up

    def add_batch(m, idx, mask, tau):
        """Add the subtrees rooted at the sibling products m, in preorder."""
        ws, masks, counts, firsts = [], [], [], []
        while m.size:
            c = np.maximum(limits(m) - idx - 1, 0)
            first = np.cumsum(c) - c  # offset of each product's first child
            child_idx = np.arange(int(c.sum())) + np.repeat(idx + 1 - first, c)
            ws.append(m ** -s)
            masks.append(mask)
            counts.append(c)
            firsts.append(first)
            m, idx = np.repeat(m, c) * psf[child_idx], child_idx
            mask = np.repeat(mask, c) | pmask[child_idx]
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
        # every product's weight, tau and mask at its preorder position
        n = int(size.sum())
        w_pre, tau_pre, mask_pre = np.empty(n), np.empty(n), np.empty(n, dtype=np.uint64)
        for k, (p, w, mk) in enumerate(zip(pos, ws, masks)):
            w_pre[p] = w
            tau_pre[p] = float(tau << k)
            mask_pre[p] = mk
        buf = np.empty(n + 1)
        for j in range(n_sums):
            # this key's weights, zeroed at the products it excludes
            keep = (mask_pre & bits[j]) == 0
            buf[0] = sum_inv[j]
            np.multiply(w_pre, keep, out=buf[1:])
            sum_inv[j] = float(np.cumsum(buf, out=buf)[-1])
            buf[0] = sum_tau_inv[j]
            np.multiply(w_pre, tau_pre, out=buf[1:])
            buf[1:] *= keep
            sum_tau_inv[j] = float(np.cumsum(buf, out=buf)[-1])
            count[j] += int(np.count_nonzero(keep))
            # the taus are powers of 2 and their sum stays below 2^53: exact
            sum_tau[j] += int(np.sum(tau_pre, where=keep))

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

    # (mp, mask, a, b, tau): the siblings mp * p_j for j in [a, b), of tau
    # 2 tau(mp), below a parent mp with the given exclusion mask
    k = int(limits(np.ones(1))[0])
    stack = [(1.0, np.uint64(0), 0, k, 2)] if k else []  # later siblings sit deeper
    while stack:
        mp, mpmask, a, b, tau = stack.pop()
        take = batch_length(mp, a, b)
        if take:
            if a + take < b:
                stack.append((mp, mpmask, a + take, b, tau))
            add_batch(mp * psf[a:a + take], np.arange(a, a + take),
                      mpmask | pmask[a:a + take], tau)
            continue
        # the bound x / m of m = mp * p_a alone exceeds a batch: add m by itself
        if a + 1 < b:
            stack.append((mp, mpmask, a + 1, b, tau))
        m = mp * psf[a:a + 1]
        mask = mpmask | pmask[a]
        w = float((m ** -s)[0])
        for j in range(n_sums):
            if not mask & bits[j]:
                count[j] += 1
                sum_tau[j] += tau
                sum_inv[j] += w
                sum_tau_inv[j] += float(tau) * w
        k = int(limits(m)[0])
        if k > a + 1:
            stack.append((float(m[0]), mask, a + 1, k, 2 * tau))
    return list(zip(count, sum_tau, sum_inv, sum_tau_inv))


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
