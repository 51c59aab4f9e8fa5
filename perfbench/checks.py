"""Output checks, each against a numpy computation made apart from the program.

Every check raises ``CheckFailed`` on a wrong output. ``self_check``
feeds each one a deliberately corrupted output on tiny inputs and
requires the rejection, so a check that cannot fail is caught.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

RESET_PROB = 0.15


class CheckFailed(Exception):
    pass


def _require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ------------------------------------------------------------ references


def pagerank_reference(src, dst, num_iter: int = 10):
    """GraphX static PageRank: ranks start at 1.0, no normalisation.

    Returns ``(ids, ranks)`` with ``ids`` sorted.
    """
    ids, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    s, d = inv[: len(src)], inv[len(src):]
    out_deg = np.bincount(s, minlength=len(ids)).astype(np.float64)
    rank = np.ones(len(ids))
    for _ in range(num_iter):
        contrib = np.bincount(d, weights=rank[s] / out_deg[s], minlength=len(ids))
        rank = RESET_PROB + (1.0 - RESET_PROB) * contrib
    return ids, rank


def cc_reference(src, dst, max_iter: int = 10):
    """Min-label propagation over the undirected view, capped at ``max_iter``.

    Returns ``(ids, labels, changed_per_round)``; stops early after a
    round that changes nothing, as a converged Pregel run does.
    """
    key = np.unique(
        np.concatenate([src * (1 << 32) + dst, dst * (1 << 32) + src])
    )
    usrc, udst = key >> 32, key & ((1 << 32) - 1)
    ids, inv = np.unique(np.concatenate([usrc, udst]), return_inverse=True)
    s, d = inv[: len(usrc)], inv[len(usrc):]
    label = ids.copy()
    changed = []
    for _ in range(max_iter):
        msg = label.copy()
        np.minimum.at(msg, d, label[s])
        n = int((msg < label).sum())
        changed.append(n)
        label = msg
        if n == 0:
            break
    return ids, label, changed


def profile_recount(src, dst, pid, n_parts: int) -> SimpleNamespace:
    """Per-partition arrays and the five metrics, recounted from ``pid``."""
    m_edges = np.bincount(pid, minlength=n_parts)
    ends = np.concatenate([src, dst]).astype(np.int64)
    key, ldeg = np.unique(
        ends * n_parts + np.concatenate([pid, pid]), return_counts=True
    )
    vid, vpid = key // n_parts, key % n_parts
    n_local = np.bincount(vpid, minlength=n_parts)
    sum_deg_sq = np.bincount(vpid, weights=ldeg.astype(np.float64) ** 2, minlength=n_parts)
    first = np.flatnonzero(np.r_[True, vid[1:] != vid[:-1]])  # vid is sorted
    reps = np.diff(np.r_[first, len(vid)])  # replicas per vertex
    mean = len(src) / n_parts
    return SimpleNamespace(
        m_edges=m_edges,
        n_local=n_local,
        sum_deg_sq=sum_deg_sq,
        replicas=reps,
        n_edges=len(src),
        n_vertices=len(reps),
        balance=float(m_edges.max() / mean) if mean > 0 else 1.0,
        non_cut=int((reps == 1).sum()),
        cut=int((reps > 1).sum()),
        comm_cost=int(reps[reps > 1].sum()),
        part_stdev=math.sqrt(float(((m_edges - mean) ** 2).sum()) / n_parts),
    )


# ---------------------------------------------------------------- checks


def check_ranks(ids, ranks, ref_ids, ref_ranks, what: str) -> None:
    order = np.argsort(ids)
    _require(np.array_equal(np.asarray(ids)[order], ref_ids), f"{what}: vertex set differs")
    bad = ~np.isclose(np.asarray(ranks)[order], ref_ranks, rtol=1e-9, atol=1e-12)
    _require(not bad.any(), f"{what}: {int(bad.sum())} ranks differ from the reference")


def check_cc(ids, labels, changed, ref, what: str) -> None:
    ref_ids, ref_labels, ref_changed = ref
    order = np.argsort(ids)
    _require(np.array_equal(np.asarray(ids)[order], ref_ids), f"{what}: vertex set differs")
    bad = np.asarray(labels)[order] != ref_labels
    _require(not bad.any(), f"{what}: {int(bad.sum())} labels differ from the reference")
    _require(list(changed) == ref_changed, f"{what}: changed counts {list(changed)} != {ref_changed}")


def check_profile(prof, src, dst, pid, n_parts: int, what: str) -> SimpleNamespace:
    """A profile's arrays and five metrics equal a recount from ``pid``.

    Returns the recount.
    """
    ref = profile_recount(src, dst, pid, n_parts)
    for arr in ("m_edges", "n_local", "sum_deg_sq"):
        _require(
            np.array_equal(np.asarray(getattr(prof, arr), dtype=np.float64), getattr(ref, arr)),
            f"{what}: {arr} differs from the recount",
        )
    m = prof.metrics
    for f in ("n_edges", "n_vertices", "non_cut", "cut", "comm_cost"):
        _require(getattr(m, f) == getattr(ref, f), f"{what}: {f} {getattr(m, f)} != {getattr(ref, f)}")
    for f in ("balance", "part_stdev"):
        _require(
            math.isclose(getattr(m, f), getattr(ref, f), rel_tol=1e-9, abs_tol=1e-9),
            f"{what}: {f} {getattr(m, f)} != {getattr(ref, f)}",
        )
    return ref


def check_partitioner(
    strategy: str, src, dst, pid, n_parts: int, what: str, replicas=None
) -> None:
    """The placement property each strategy promises (paper §3).

    ``replicas`` (per-vertex replica counts) saves a recount for 2D.
    """
    if strategy == "SC":
        _require(np.array_equal(pid, src % n_parts), f"{what}: pid != src mod n")
    elif strategy == "DC":
        _require(np.array_equal(pid, dst % n_parts), f"{what}: pid != dst mod n")
    elif strategy == "1D":
        _require(
            len(np.unique(src * n_parts + pid)) == len(np.unique(src)),
            f"{what}: a source's out-arcs span several pids",
        )
    elif strategy == "CRVC":
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        pair = lo * (1 << 32) + hi
        _require(
            len(np.unique(pair * n_parts + pid)) == len(np.unique(pair)),
            f"{what}: (u,v) and (v,u) in different pids",
        )
    elif strategy == "2D":
        bound = 2 * math.ceil(math.sqrt(n_parts))
        reps = profile_recount(src, dst, pid, n_parts).replicas if replicas is None else replicas
        _require(reps.max() <= bound, f"{what}: a vertex has {reps.max()} replicas > {bound}")


def check_same_profile(a, b, what: str) -> None:
    for arr in ("m_edges", "n_local", "sum_deg_sq"):
        _require(np.array_equal(getattr(a, arr), getattr(b, arr)), f"{what}: {arr} differs")
    _require(a.metrics == b.metrics, f"{what}: metrics differ")


def check_regrets(regrets) -> None:
    r = np.asarray(regrets, dtype=np.float64)
    _require(len(r) > 0 and (r >= 0).all(), f"PARSEL regret below 0: {r.min() if len(r) else 'none'}")


# ------------------------------------------------------------ self-check


def _expect_reject(fn, *args) -> None:
    try:
        fn(*args)
    except CheckFailed:
        return
    raise AssertionError(f"{fn.__name__} accepted a corrupted output")


def self_check() -> int:
    """Each check accepts a correct output and rejects a corrupted one.

    Returns the number of corruptions rejected.
    """
    rng = np.random.default_rng(0)
    # 6x6 grid, both arc directions, row-major ids, plus a few random arcs.
    v = np.arange(36).reshape(6, 6)
    a, b = np.concatenate([v[:, :-1].ravel(), v[:-1, :].ravel()]), np.concatenate(
        [v[:, 1:].ravel(), v[1:, :].ravel()]
    )
    src = np.concatenate([a, b, rng.integers(0, 36, 20)]).astype(np.int64)
    dst = np.concatenate([b, a, rng.integers(0, 36, 20)]).astype(np.int64)
    n = 4
    rejected = 0

    ids, ranks = pagerank_reference(src, dst)
    check_ranks(ids, ranks, ids, ranks, "pr")
    bad = ranks.copy()
    bad[7] *= 1 + 1e-6
    _expect_reject(check_ranks, ids, bad, ids, ranks, "pr")
    rejected += 1

    ref = cc_reference(src, dst, max_iter=3)
    check_cc(ref[0], ref[1], ref[2], ref, "cc")
    wrong = ref[1].copy()
    wrong[-1] += 1
    _expect_reject(check_cc, ref[0], wrong, ref[2], ref, "cc")
    _expect_reject(check_cc, ref[0], ref[1], [c + 1 for c in ref[2]], ref, "cc")
    rejected += 2

    pids = {
        "SC": src % n,
        "DC": dst % n,
        "1D": (src * 7919) % n,
        "CRVC": (np.minimum(src, dst) * 31 + np.maximum(src, dst)) % n,
    }
    for strategy, pid in pids.items():
        check_partitioner(strategy, src, dst, pid, n, strategy)
        moved = pid.copy()
        moved[0] = (moved[0] + 1) % n
        _expect_reject(check_partitioner, strategy, src, dst, moved, n, strategy)
        rejected += 1
    # 2D on a 3x3 grid of 9 pids: each vertex in at most 3 + 3 = 6 pids.
    grid = (src % 3) * 3 + dst % 3
    check_partitioner("2D", src, dst, grid, 9, "2D")
    spread = grid.copy()
    touches = (src == 7) | (dst == 7)  # vertex 7 has 8 arcs; put each in its own pid
    spread[touches] = np.arange(touches.sum()) % 9
    _expect_reject(check_partitioner, "2D", src, dst, spread, 9, "2D")
    rejected += 1

    pid = pids["SC"]
    rc = profile_recount(src, dst, pid, n)
    prof = SimpleNamespace(
        m_edges=rc.m_edges.astype(np.float64),
        n_local=rc.n_local.astype(np.float64),
        sum_deg_sq=rc.sum_deg_sq,
        metrics=SimpleNamespace(**{f: getattr(rc, f) for f in (
            "n_edges", "n_vertices", "balance", "non_cut", "cut", "comm_cost", "part_stdev")}),
    )
    check_profile(prof, src, dst, pid, n, "profile")
    changed = pid.copy()
    changed[0] = (changed[0] + 1) % n
    _expect_reject(check_profile, prof, src, dst, changed, n, "profile")
    rejected += 1

    other = SimpleNamespace(**vars(prof))
    other.sum_deg_sq = prof.sum_deg_sq.copy()
    other.sum_deg_sq[1] += 1
    check_same_profile(prof, prof, "warm")
    _expect_reject(check_same_profile, prof, other, "warm")
    rejected += 1

    check_regrets([0.0, 1.5])
    _expect_reject(check_regrets, [0.0, -0.1])
    rejected += 1
    return rejected
