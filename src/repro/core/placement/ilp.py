"""Integer-programming placement (the paper's formulas 8-12).

The paper minimises total token re-routing ``sum_k sum_j R_{k,j}`` subject
to load balance (9), exclusive ownership (10) and the crossing indicators
(11)/(12).  Aggregating identical tokens, the objective depends only on the
transition-count matrices ``W_j[i, p]`` = tokens moving expert ``i`` (layer
j) -> expert ``p`` (layer j+1), so the token-level ILP collapses to an
expert-level quadratic assignment (:func:`chain_objective`), which we solve
two ways:

* :func:`joint_ilp_placement` — the exact optimum.  The objective couples
  only adjacent layers, so a Viterbi DP over each layer's balanced
  assignments (K = E! / (cap!^G) states) solves it exactly in one pass.
  The per-pair score table holds K^2 floats, so K is capped at
  ``MAX_JOINT_STATES``: the largest instances covered are E = 8 experts on
  G = 4 GPUs (K = 2,520, ~51 MiB peak) and E = 14 on G = 2 (K = 3,432,
  ~93 MiB peak).  Larger instances raise ``ValueError``.
* :func:`ilp_placement` — layer-chained exact assignments: given layer
  ``j``'s placement, the optimal layer ``j+1`` assignment under capacity
  constraints is a transportation problem, solved *exactly* by expanding
  each GPU into ``C`` slots and running a shortest-augmenting-path
  assignment (:func:`assignment_solve`, an in-house port of SciPy's
  ``linear_sum_assignment`` with its tie-breaks, so SciPy is not needed
  at run time).  Coordinate-descent sweeps (re-solving each layer against
  both fixed neighbours) then close part of the gap to the joint optimum;
  the ablation bench measures what is left.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.placement.base import Placement
from repro.trace.events import RoutingTrace

__all__ = ["assignment_solve", "ilp_placement", "joint_ilp_placement", "chain_objective"]

#: Largest per-layer state count K the exact joint solver accepts.
MAX_JOINT_STATES = 4096


def assignment_solve(benefit: np.ndarray, num_groups: int) -> np.ndarray:
    """Optimal capacity-constrained assignment of experts to groups.

    ``benefit[i, p]`` is the affinity mass gained by putting expert ``i``
    on group (GPU or node) ``p``; every group must take exactly
    ``E / num_groups`` experts.  Solved exactly by expanding each group
    into ``cap`` slots and running :func:`_slot_assignment` on the square
    problem.  Returns (E,) group index per expert.
    """
    benefit = np.asarray(benefit, dtype=np.float64)
    e, p = benefit.shape
    if p != num_groups or num_groups < 1:
        raise ValueError(f"benefit has {p} columns, expected {num_groups} >= 1")
    if e % num_groups != 0:
        raise ValueError(f"{e} experts not divisible into {num_groups} groups")
    if not np.isfinite(benefit).all():
        raise ValueError("benefit must be finite (no NaN or inf entries)")
    cap = e // num_groups
    slots = _slot_assignment((-benefit).tolist(), cap)
    return np.array([j // cap for j in slots], dtype=np.int64)


def _slot_assignment(cost: list[list[float]], cap: int) -> list[int]:
    """Min-cost assignment of ``E`` rows to ``E`` slots; ``cost[i][j // cap]``.

    Slot ``j`` belongs to group ``j // cap``.  Returns the slot of each row.
    This is the shortest-augmenting-path method of Crouse (2016), *On
    implementing 2D rectangular assignment algorithms*, with the scan
    order, tie-breaks and dual updates of SciPy's
    ``linear_sum_assignment``, so the result equals
    ``linear_sum_assignment(np.repeat(cost, cap, 1))[1]`` exactly, ties
    included.

    Fast path: while every column dual ``v`` is 0 (and ``u[cur]`` is 0 at
    the start of its own row), row ``cur``'s first scan sees its raw
    costs, and the general loop would take the lowest free slot among its
    minimum-cost groups and stop.  That choice is made per group; the
    general loop runs, from the same state, only when every minimum-cost
    group is full.
    """
    n = len(cost)
    u = [0.0] * n
    v = [0.0] * n
    col4row = [-1] * n
    row4col = [-1] * n
    path = [-1] * n
    lowest_free = list(range(0, n, cap))  # per group: no free slot below this
    ends = list(range(cap, n + cap, cap))
    duals_zero = True
    for cur, c in enumerate(cost):
        if duals_zero:
            low = min(c)
            k = c.index(low)
            while True:
                j, end = lowest_free[k], ends[k]
                while j < end and row4col[j] != -1:
                    j += 1
                lowest_free[k] = j
                if j < end or low not in c[k + 1 :]:
                    break
                k = c.index(low, k + 1)
            if j < end:
                u[cur] += low
                row4col[j] = cur
                col4row[cur] = j
                continue

        # general step: one shortest augmenting path from row `cur`
        shortest = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        visited_rows: list[int] = []
        visited_cols: list[int] = []
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            visited_rows.append(i)
            ci, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it in range(len(remaining)):
                j = remaining[it]
                r = min_val + ci[j // cap] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                s = shortest[j]
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur] += min_val
        for i in visited_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        duals_zero = not any(v)

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def chain_objective(gpu_of: np.ndarray, weights: list[np.ndarray]) -> float:
    """Total non-crossing mass of a placement (higher is better).

    ``weights[j]`` is the (E, E) transition-count matrix between layers j
    and j+1; the objective sums ``W_j[i, p]`` over pairs placed on the same
    group.  Minimising crossings (formula 8) == maximising this.
    """
    total = 0.0
    for j, w in enumerate(weights):
        same = gpu_of[j][:, None] == gpu_of[j + 1][None, :]
        total += float(w[same].sum())
    return total


def _transition_weights(trace: RoutingTrace) -> list[np.ndarray]:
    return [
        trace.transition_counts(j).astype(np.float64)
        for j in range(trace.num_layers - 1)
    ]


def ilp_placement(
    trace: RoutingTrace,
    num_gpus: int,
    sweeps: int = 3,
    groups: int | None = None,
) -> Placement:
    """Scalable near-optimal placement by chained exact assignments.

    Parameters
    ----------
    trace:
        Profiled routing trace (defines layer count, expert count and the
        transition weights).
    num_gpus:
        Expert-parallel group size G.
    sweeps:
        Coordinate-descent passes after the initial forward chain.  Each
        pass re-solves every layer's assignment against both fixed
        neighbours; 0 disables refinement.
    groups:
        Internal override of the group count (used by the staged solver to
        run the same machinery at node granularity).
    """
    g = groups or num_gpus
    e, L = trace.num_experts, trace.num_layers
    if e % g != 0:
        raise ValueError(f"{e} experts not divisible across {g} groups")
    weights = _transition_weights(trace)

    gpu_of = np.empty((L, e), dtype=np.int64)
    # layer 0 seeds the chain: group experts that share successors using the
    # symmetrised co-successor similarity of W_0 via a greedy round-robin on
    # total outgoing mass (cheap, refined by the sweeps below).
    gpu_of[0] = np.arange(e) % g if L == 1 else _seed_layer(weights[0], g)

    for j in range(1, L):
        w = weights[j - 1]
        benefit = _incoming_benefit(w, gpu_of[j - 1], g)
        gpu_of[j] = assignment_solve(benefit, g)

    for _ in range(max(sweeps, 0)):
        improved = False
        before = chain_objective(gpu_of, weights)
        for j in range(L):
            benefit = np.zeros((e, g))
            if j > 0:
                benefit += _incoming_benefit(weights[j - 1], gpu_of[j - 1], g)
            if j < L - 1:
                benefit += _outgoing_benefit(weights[j], gpu_of[j + 1], g)
            if j == 0 and L == 1:
                break
            gpu_of[j] = assignment_solve(benefit, g)
        improved = chain_objective(gpu_of, weights) > before + 1e-9
        if not improved:
            break

    return Placement(gpu_of, g, strategy="ilp-chain")


def _seed_layer(w0: np.ndarray, g: int) -> np.ndarray:
    """Initial layer-0 grouping: cluster experts with similar successor rows.

    Experts whose W_0 rows point at the same successors should share a GPU
    so the next layer's assignment can capture both.  We use a greedy
    balanced agglomeration on row cosine similarity — exactness is not
    needed here because the sweeps re-solve layer 0 afterwards.
    """
    e = w0.shape[0]
    cap = e // g
    norms = np.linalg.norm(w0, axis=1, keepdims=True)
    rows = w0 / np.where(norms > 0, norms, 1.0)
    sim = rows @ rows.T
    np.fill_diagonal(sim, -np.inf)

    unassigned = set(range(e))
    groups = np.full(e, -1, dtype=np.int64)
    for p in range(g):
        # seed with the heaviest remaining expert
        seed = max(unassigned, key=lambda i: w0[i].sum())
        members = [seed]
        unassigned.remove(seed)
        while len(members) < cap:
            score = sim[:, members].sum(axis=1)
            best = max(unassigned, key=score.__getitem__)
            members.append(best)
            unassigned.remove(best)
        groups[members] = p
    return groups


def _incoming_benefit(w: np.ndarray, prev_groups: np.ndarray, g: int) -> np.ndarray:
    """benefit[i', p] = mass flowing into expert i' from experts on group p."""
    e = w.shape[1]
    benefit = np.zeros((e, g))
    np.add.at(benefit.T, prev_groups, w)  # benefit.T[p] += sum of w rows on p
    return benefit


def _outgoing_benefit(w: np.ndarray, next_groups: np.ndarray, g: int) -> np.ndarray:
    """benefit[i, p] = mass flowing from expert i to experts on group p."""
    e = w.shape[0]
    benefit = np.zeros((e, g))
    np.add.at(benefit.T, next_groups, w.T)
    return benefit


def _balanced_states(e: int, g: int) -> np.ndarray:
    """Every balanced assignment of ``e`` experts to ``g`` groups, (K, e).

    Rows come in lexicographic order, one expert at a time: each row is
    extended by every group that still has room.
    """
    cap = e // g
    states = np.zeros((1, 0), dtype=np.int64)
    for _ in range(e):
        counts = (states[:, :, None] == np.arange(g)).sum(axis=1)
        rows, groups = np.nonzero(counts < cap)
        states = np.column_stack([states[rows], groups])
    return states


def joint_ilp_placement(trace: RoutingTrace, num_gpus: int) -> Placement:
    """Exact optimum of formulas 8-12 by a Viterbi DP over the layer chain.

    The kept mass ``chain_objective`` only couples adjacent layers, so its
    maximum is a best-path problem whose states are a layer's balanced
    assignments: K = E! / (cap!^G) of them.  Each layer pair is scored with
    one matmul over one-hot states and argmax backpointers recover the
    chain.  Layer 0 is restricted to canonical labels (groups numbered in
    order of first occurrence), which drops the G! relabelled copies of
    every solution.

    Raises ``ValueError`` when K exceeds ``MAX_JOINT_STATES``: the score
    table holds K^2 floats per layer pair.
    """
    e, g = trace.num_experts, num_gpus
    if e % g != 0:
        raise ValueError(f"{e} experts not divisible across {g} GPUs")
    k = math.factorial(e) // math.factorial(e // g) ** g
    if k > MAX_JOINT_STATES:
        raise ValueError(
            f"ilp-joint: K={k} balanced assignments of E={e} experts to G={g} GPUs "
            f"exceed the exact solver's limit of {MAX_JOINT_STATES}; use 'ilp' or 'staged'"
        )
    states = _balanced_states(e, g)
    onehot = (states[:, :, None] == np.arange(g)).astype(np.float64)  # (K, E, G)
    flat = onehot.reshape(k, e * g)
    # canonical: groups numbered in order of first occurrence
    first = np.maximum.accumulate(states, axis=1)
    canonical = (first[:, 0] == 0) & (np.diff(first, axis=1) <= 1).all(axis=1)
    best = np.where(canonical, 0.0, -np.inf)
    score = np.empty((k, k))  # score[b, a]: best chain through a, then a -> b
    back: list[np.ndarray] = []
    for w in _transition_weights(trace):
        # into[a, p, q] = mass into expert p from experts on group q (state a)
        into = (w.T @ onehot).reshape(k, e * g)
        np.matmul(flat, into.T, out=score)
        score += best
        arg = score.argmax(axis=1)
        best = score[np.arange(k), arg]
        back.append(arg)
    path = [int(best.argmax())]
    for arg in reversed(back):
        path.append(int(arg[path[-1]]))
    return Placement(states[path[::-1]], g, strategy="ilp-joint")
