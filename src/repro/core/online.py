"""Online drift-aware re-placement: monitor, trigger, re-solve, migrate.

The paper solves expert placement once, offline, from a static profiling
trace.  Under live traffic the affinity structure drifts (the paper's own
Fig 12 shows it evolving across training, and Tab 3 shows it shifting
across corpora), so a placement that was optimal at deploy time slowly
stops keeping tokens local.  This module closes the loop:

* :func:`kept_mass_fraction` — the monitored quantity: the fraction of
  (decayed, streaming) transition mass a placement keeps on-GPU.  This is
  exactly the placement objective (formula 8's complement) evaluated on the
  estimator's current window instead of the offline profile.
* :class:`ReplacementPolicy` — when to act: a relative kept-mass
  degradation threshold versus the post-solve baseline, an effective-sample
  floor before the estimate is trusted, a cooldown between migrations, and
  an optional forced periodic cadence (``repro serve --replace-every``).
* :class:`OnlineReplacer` — the actor: warm-starts
  :func:`~repro.core.placement.local_search.local_search_placement` from the
  *current* placement (swap search converges in a few passes when the drift
  is incremental), accepts the new placement only if it actually improves
  kept mass, and prices the expert-weight migration with
  :func:`plan_migration` so the serving timeline pays for the move.

The migration cost model is explicit: every expert whose GPU changes ships
``ModelConfig.expert_bytes()`` over the :class:`~repro.config.LinkSpec`
between old and new rank (alpha-beta transfer time); transfers serialize at
their endpoints, so the serving stall is the busiest GPU's total transfer
time.  Charging this against the latency timeline is what makes "replace
more often" a real trade-off instead of a free win.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.config import ClusterConfig, ModelConfig, _reject_nonfinite
from repro.core.affinity import StreamingAffinityEstimator
from repro.core.placement.base import Placement
from repro.core.placement.local_search import local_search_placement
from repro.trace.markov import MarkovRoutingModel

__all__ = [
    "kept_mass_fraction",
    "model_kept_mass",
    "MigrationPlan",
    "plan_migration",
    "ReplacementPolicy",
    "ReplacementEvent",
    "OnlineReplacer",
]


def kept_mass_fraction(placement: Placement, counts: np.ndarray) -> float:
    """Fraction of transition mass ``placement`` keeps on one GPU.

    ``counts`` is an (L-1, E, E) transition-count stack (decayed streaming
    counts or offline profile counts).  Returns 1.0 for zero total mass —
    an empty window cannot witness any crossing.
    """
    counts = np.asarray(counts, dtype=np.float64)
    L = placement.num_layers
    if counts.shape != (L - 1, placement.num_experts, placement.num_experts):
        raise ValueError(
            f"counts shape {counts.shape} does not match placement "
            f"({L - 1}, {placement.num_experts}, {placement.num_experts})"
        )
    total = float(counts.sum())
    if total <= 0:
        return 1.0
    kept = 0.0
    for j in range(L - 1):
        same = placement.gpu_of[j][:, None] == placement.gpu_of[j + 1][None, :]
        kept += float(counts[j][same].sum())
    return kept / total


def model_kept_mass(placement: Placement, routing: MarkovRoutingModel) -> float:
    """Ground-truth kept-transition mass of ``placement`` under ``routing``.

    The analytic counterpart of :func:`kept_mass_fraction`: transition mass
    between layers j and j+1 is the model's transition matrix weighted by
    its layer-j marginal, so the result is the exact expected on-GPU
    fraction — what the streaming estimate converges to under stationary
    traffic.  Benchmarks use this to score placements against the *true*
    instantaneous regime, independent of estimator lag.
    """
    if routing.num_layers != placement.num_layers:
        raise ValueError(
            f"routing has {routing.num_layers} layers, placement {placement.num_layers}"
        )
    if routing.num_experts != placement.num_experts:
        raise ValueError("routing/placement disagree on expert count")
    kept = 0.0
    dist = (
        routing.prior
        if routing.prior is not None
        else np.full(routing.num_experts, 1.0 / routing.num_experts)
    )
    for j in range(placement.num_layers - 1):
        mass = dist[:, None] * routing.transitions[j]
        same = placement.gpu_of[j][:, None] == placement.gpu_of[j + 1][None, :]
        kept += float(mass[same].sum())
        dist = dist @ routing.transitions[j]
    return kept / (placement.num_layers - 1)


@dataclass(frozen=True)
class MigrationPlan:
    """Cost account of moving expert weights between two placements."""

    moved_experts: int
    moved_bytes: int
    stall_s: float

    @property
    def is_noop(self) -> bool:
        return self.moved_experts == 0


def plan_migration(
    old: Placement,
    new: Placement,
    cluster: ClusterConfig,
    model: ModelConfig,
    dtype_bytes: int = 2,
) -> MigrationPlan:
    """Price the weight movement from ``old`` to ``new``.

    Every (layer, expert) whose GPU rank changes ships one expert FFN
    (``model.expert_bytes(dtype_bytes)``) from the old rank to the new one
    over the link tier between them.  Bytes on one directed GPU pair share
    a single alpha-beta transfer (one message, contiguous payload);
    transfers serialize at their endpoint GPUs (each GPU's NIC/copy engine
    handles one transfer at a time, sends and receives alike), so the
    serving stall is the busiest endpoint's summed transfer time — disjoint
    pairs move in parallel.
    """
    if old.gpu_of.shape != new.gpu_of.shape:
        raise ValueError("placements must cover the same (layers, experts) grid")
    if old.num_gpus != new.num_gpus or old.num_gpus != cluster.num_gpus:
        raise ValueError("placements/cluster disagree on GPU count")
    if old.num_experts != model.num_experts or old.num_layers != model.num_moe_layers:
        raise ValueError("placement shape does not match model architecture")

    moved = old.gpu_of != new.gpu_of
    n_moved = int(moved.sum())
    expert_bytes = model.expert_bytes(dtype_bytes)
    if n_moved == 0:
        return MigrationPlan(0, 0, 0.0)

    src = old.gpu_of[moved]
    dst = new.gpu_of[moved]
    g = cluster.num_gpus
    pair_counts = np.bincount(src * g + dst, minlength=g * g).reshape(g, g)

    busy = np.zeros(g, dtype=np.float64)
    for a, b in zip(*np.nonzero(pair_counts), strict=True):
        nbytes = int(pair_counts[a, b]) * expert_bytes
        t = cluster.link_between(int(a), int(b)).transfer_time(nbytes)
        busy[a] += t
        busy[b] += t
    return MigrationPlan(n_moved, n_moved * expert_bytes, float(busy.max()))


@dataclass(frozen=True)
class ReplacementPolicy:
    """When the online loop is allowed (or forced) to re-solve.

    Parameters
    ----------
    check_every_steps:
        Monitor cadence: kept mass is evaluated every this many decode
        steps (the evaluation is O(L·E²) — cheap, but not per-token cheap).
    kept_mass_drop:
        Relative degradation triggering a re-solve: act when the current
        kept mass falls below ``baseline * (1 - kept_mass_drop)``, where
        the baseline is the kept mass measured right after the last solve
        (and ratcheted up if traffic later matches the placement better).
    min_effective_tokens:
        Floor on the estimator's decayed sample size before its estimate —
        and any re-solve from it — is trusted.
    cooldown_steps:
        Minimum decode steps between migrations (hysteresis: without it, a
        noisy estimate near the threshold would thrash placements and pay
        migration stalls for nothing).
    replace_every_steps:
        Optional forced cadence: re-solve every N steps regardless of the
        degradation trigger (the ``--replace-every`` CLI surface).  Forced
        solves still respect ``min_effective_tokens`` and still skip the
        migration when the re-solve finds nothing better.
    solver_passes:
        ``max_passes`` for the warm-started swap search.  Small values keep
        the online solve fast; warm-starting is what makes that enough.
    """

    check_every_steps: int = 8
    kept_mass_drop: float = 0.15
    min_effective_tokens: float = 256.0
    cooldown_steps: int = 32
    replace_every_steps: int | None = None
    solver_passes: int = 4

    def __post_init__(self) -> None:
        _reject_nonfinite(self)
        if self.check_every_steps < 1:
            raise ValueError("check_every_steps must be >= 1")
        if not 0.0 < self.kept_mass_drop < 1.0:
            raise ValueError("kept_mass_drop must be in (0, 1)")
        if self.min_effective_tokens < 0:
            raise ValueError("min_effective_tokens must be >= 0")
        if self.cooldown_steps < 0:
            raise ValueError("cooldown_steps must be >= 0")
        if self.replace_every_steps is not None and self.replace_every_steps < 1:
            raise ValueError("replace_every_steps must be >= 1 when set")
        if self.solver_passes < 1:
            raise ValueError("solver_passes must be >= 1")


@dataclass(frozen=True)
class ReplacementEvent:
    """One executed re-placement on the serving timeline."""

    step: int
    time_s: float
    kept_before: float
    kept_after: float
    moved_experts: int
    moved_bytes: int
    stall_s: float
    forced: bool


class OnlineReplacer:
    """Streaming estimator + policy + warm-started solver, as one actor.

    A fleet replica calls :meth:`observe` with every decode step's routing
    decisions and :meth:`maybe_replace` at step boundaries; the replacer
    owns all re-placement state (kept-mass baseline, cooldown bookkeeping)
    and returns a (new placement, event) pair only when it actually
    migrated.
    """

    def __init__(
        self,
        model: ModelConfig,
        cluster: ClusterConfig,
        policy: ReplacementPolicy | None = None,
        estimator: StreamingAffinityEstimator | None = None,
        halflife_tokens: float | None = None,
        dtype_bytes: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.model = model
        self.cluster = cluster
        self.policy = policy or ReplacementPolicy()
        if estimator is not None and halflife_tokens is not None:
            raise ValueError("pass either estimator or halflife_tokens, not both")
        if estimator is None:
            # the replacer owns estimator construction so every fleet
            # replica (the online scenario's one included) shares one spelling
            estimator = (
                StreamingAffinityEstimator(
                    model.num_experts, model.num_moe_layers, halflife_tokens
                )
                if halflife_tokens is not None
                else StreamingAffinityEstimator(
                    model.num_experts, model.num_moe_layers
                )
            )
        self.estimator = estimator
        if (
            self.estimator.num_experts != model.num_experts
            or self.estimator.num_layers != model.num_moe_layers
        ):
            raise ValueError("estimator shape does not match model architecture")
        self.dtype_bytes = dtype_bytes
        self._rng = rng or np.random.default_rng(0)
        self._baseline_kept: float | None = None
        self._last_replace_step: int | None = None
        self.events: list[ReplacementEvent] = []

    # -- streaming observation -------------------------------------------------

    def observe(self, paths: np.ndarray) -> None:
        """Fold one decode step's (batch, layers) routing into the window."""
        self.estimator.update(paths)

    def current_kept_mass(self, placement: Placement) -> float:
        """Kept mass of ``placement`` under the estimator's current window."""
        return kept_mass_fraction(placement, self.estimator.counts_stack())

    # -- the trigger/solve/migrate step ---------------------------------------

    def maybe_replace(
        self, step: int, now_s: float, placement: Placement
    ) -> tuple[Placement, ReplacementEvent] | None:
        """Run one policy check; return (new placement, event) iff migrated.

        A check that triggers but whose re-solve cannot beat the current
        placement's kept mass migrates nothing (and pays nothing) — the
        placement simply wasn't the bottleneck.
        """
        pol = self.policy
        forced = (
            pol.replace_every_steps is not None
            and step > 0
            and step % pol.replace_every_steps == 0
        )
        # the forced cadence fires on its own schedule — it must not be
        # gated by the cheaper monitoring cadence, or "every N steps" would
        # silently become "every lcm(N, check_every_steps) steps"
        if not forced and step % pol.check_every_steps != 0:
            return None
        if self.estimator.effective_tokens < pol.min_effective_tokens:
            return None

        current = self.current_kept_mass(placement)
        if self._baseline_kept is None:
            # first trusted measurement anchors the degradation reference
            self._baseline_kept = current
        elif current > self._baseline_kept:
            self._baseline_kept = current  # ratchet: traffic re-matched

        degraded = current < self._baseline_kept * (1.0 - pol.kept_mass_drop)
        if not (forced or degraded):
            return None
        if (
            self._last_replace_step is not None
            and step - self._last_replace_step < pol.cooldown_steps
        ):
            return None

        trace = self.estimator.as_trace()
        refined = local_search_placement(
            trace,
            placement.num_gpus,
            start=placement,
            max_passes=pol.solver_passes,
            rng=self._rng,
        )
        kept_after = kept_mass_fraction(refined, self.estimator.counts_stack())
        self._last_replace_step = step  # solve attempts count toward cooldown
        if kept_after <= current + 1e-12:
            self._baseline_kept = current  # accept reality; stop re-triggering
            return None

        new_placement = dataclasses.replace(refined, strategy="online")
        migration = plan_migration(
            placement, new_placement, self.cluster, self.model, self.dtype_bytes
        )
        event = ReplacementEvent(
            step=step,
            time_s=now_s,
            kept_before=current,
            kept_after=kept_after,
            moved_experts=migration.moved_experts,
            moved_bytes=migration.moved_bytes,
            stall_s=migration.stall_s,
            forced=forced and not degraded,
        )
        self._baseline_kept = kept_after
        self.events.append(event)
        return new_placement, event
