"""Computations the benchmark checks the program against.

Nothing here imports graphmoments: each value is derived from the edge
arrays with numpy alone, by direct enumeration or by a sum that does not
share code with the kernel it checks.
"""

from __future__ import annotations

import math

import numpy as np


def adjacency_lists(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of an undirected edge array, rows sorted."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return indptr, dst[order]


def degrees(n: int, edges: np.ndarray) -> np.ndarray:
    return np.bincount(edges.ravel(), minlength=n).astype(np.int64)


def two_paths(n: int, edges: np.ndarray) -> np.ndarray:
    """D^(2)_i = sum over neighbours j of (d_j - 1), by bincount."""
    d = degrees(n, edges)
    u, v = edges[:, 0], edges[:, 1]
    return (np.bincount(u, weights=d[v] - 1, minlength=n)
            + np.bincount(v, weights=d[u] - 1, minlength=n)).astype(np.int64)


def comb_column(d: np.ndarray, l: int) -> list[int]:
    return [math.comb(int(x), l) for x in d]


def triangle_count(n: int, edges: np.ndarray, chunk: int = 8192) -> int:
    """Triangles as sum over edges of |N(u) & N(v)| / 3, on packed bit rows."""
    words = (n + 63) // 64
    rows = np.zeros((n, words), dtype=np.uint64)
    for a, b in ((edges[:, 0], edges[:, 1]), (edges[:, 1], edges[:, 0])):
        np.bitwise_or.at(rows, (a, b // 64), np.left_shift(np.uint64(1), (b % 64).astype(np.uint64)))
    total = 0
    for s in range(0, len(edges), chunk):
        e = edges[s:s + chunk]
        total += int(np.bitwise_count(rows[e[:, 0]] & rows[e[:, 1]]).sum())
    if total % 3:
        raise ValueError("edge-wise common-neighbour sum is not a multiple of 3")
    return total // 3


def hub_two_paths(indptr: np.ndarray, indices: np.ndarray, hub: int) -> np.ndarray:
    """Every loopless 2-edge path hub-j-k as rows (j, k)."""
    out = []
    for j in indices[indptr[hub]:indptr[hub + 1]]:
        ks = indices[indptr[j]:indptr[j + 1]]
        ks = ks[ks != hub]
        out.append(np.column_stack([np.full(ks.size, j), ks]))
    return np.concatenate(out) if out else np.zeros((0, 2), dtype=np.int64)


def _clash(paths: np.ndarray, rows: slice) -> np.ndarray:
    """Whether path a (in rows) and path b share a vertex besides the hub."""
    a = paths[rows]
    return ((a[:, None, 0] == paths[None, :, 0]) | (a[:, None, 0] == paths[None, :, 1])
            | (a[:, None, 1] == paths[None, :, 0]) | (a[:, None, 1] == paths[None, :, 1]))


def hub_pair_counts(paths: np.ndarray, block: int = 1024) -> tuple[int, int]:
    """(disjoint unordered pairs, overlapping ordered pairs) of distinct paths,
    by testing every pair."""
    m = len(paths)
    clashing = 0
    for s in range(0, m, block):
        clashing += int(_clash(paths, slice(s, s + block)).sum())
    overlapping = clashing - m  # every path clashes with itself
    return (m * (m - 1) - overlapping) // 2, overlapping


def hub_disjoint_triples(paths: np.ndarray) -> int:
    """Unordered triples of pairwise disjoint paths, by testing every
    triple a < b < c: for each disjoint pair (a, b), count the c > b that
    clash with neither."""
    m = len(paths)
    free = ~_clash(paths, slice(0, m))
    upper = np.triu(np.ones((m, m), dtype=bool), 1)
    total = 0
    for a in range(m):
        bs = np.flatnonzero(free[a] & upper[a])
        if bs.size:
            total += int((free[bs] & free[a] & upper[bs]).sum())
    return total


def hub_three_paths(indptr: np.ndarray, indices: np.ndarray, hub: int) -> int:
    """D^(3) at one hub: walk hub-j-k and count the l that revisit neither."""
    nb = set(indices[indptr[hub]:indptr[hub + 1]].tolist())
    total = 0
    for j in nb:
        for k in indices[indptr[j]:indptr[j + 1]].tolist():
            if k == hub:
                continue
            # l ranges over N(k) minus j (always there) and the hub (if k ~ hub)
            total += int(indptr[k + 1] - indptr[k]) - 1 - (k in nb)
    return total
