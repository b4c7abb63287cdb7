"""Way-partitioned shared last-level cache with inertia.

Models Intel Cache Allocation Technology the way Dirigent uses it: each
core has a bitmask of LLC ways it may allocate into.  Within the ways a
core can reach, occupancy is contended with every other core whose mask
overlaps; the model splits each way's capacity proportionally to the
access intensity (APKI) of the competing cores.

Repartitioning does not take effect instantly.  Actual per-core occupancy
follows the target with an exponential time constant
(``cache_inertia_tau_s``), reproducing the "cache inertia" effect the
paper cites as the reason cache partitioning is only useful for coarse
time scale control.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.sim.config import MachineConfig


def full_mask(num_ways: int) -> int:
    """Bitmask with all ``num_ways`` ways set."""
    return (1 << num_ways) - 1


def contiguous_mask(first_way: int, count: int) -> int:
    """Bitmask covering ``count`` ways starting at ``first_way``."""
    if first_way < 0 or count < 0:
        raise ConfigurationError("mask bounds must be non-negative")
    return ((1 << count) - 1) << first_way


class SharedCache:
    """Occupancy model of the way-partitioned LLC."""

    def __init__(self, config: MachineConfig) -> None:
        self._config = config
        self._num_ways = config.llc_ways
        self._tau = config.cache_inertia_tau_s
        all_ways = full_mask(self._num_ways)
        self._mask: List[int] = [all_ways] * config.num_cores
        # Start every core at an equal split of the full cache.
        start = self._num_ways / config.num_cores
        self._effective: List[float] = [start] * config.num_cores
        self._target: List[float] = list(self._effective)
        self._targets_dirty = True
        self._weights: List[float] = [1.0] * config.num_cores
        # Hot-path caches: the mask/active-core grouping only changes on
        # repartition or pause/idle transitions, while weights change every
        # tick; grouping is cached so per-tick refreshes are pure
        # arithmetic.  _alpha_cache memoizes the inertia filter gain.
        self._groups_dirty = True
        self._groups: List[Tuple[int, List[int]]] = []  # (ways, cores)
        self._groups_disjoint = True
        self._active_bits = -1
        self._alpha_cache: Tuple[float, float] = (-1.0, 0.0)
        self._zeros: List[float] = [0.0] * config.num_cores
        # Span-plan support (repro.sim.spanplan): the mask epoch counts
        # repartitions so compiled span kernels can validate their baked
        # grouping with one integer compare; _span_groupings memoizes
        # the grouping per hypothetical active set within an epoch.
        self._mask_epoch = 0
        self._span_groupings: dict = {}

    @property
    def num_ways(self) -> int:
        """Total ways in the LLC."""
        return self._num_ways

    def mask(self, core: int) -> int:
        """Current way mask of ``core``."""
        self._check_core(core)
        return self._mask[core]

    def mask_ways(self, core: int) -> int:
        """Number of ways ``core``'s mask allows it to reach."""
        return bin(self.mask(core)).count("1")

    def set_mask(self, core: int, mask: int) -> None:
        """Assign a way bitmask to ``core`` (CAT-style)."""
        self._check_core(core)
        if mask <= 0 or mask > full_mask(self._num_ways):
            raise ConfigurationError(
                "mask %#x invalid for a %d-way cache" % (mask, self._num_ways)
            )
        if self._mask[core] != mask:
            self._mask[core] = mask
            self._targets_dirty = True
            self._groups_dirty = True
            self._mask_epoch += 1
            self._span_groupings.clear()

    def set_fg_partition(
        self, fg_cores: Iterable[int], fg_ways: int
    ) -> None:
        """Isolate ``fg_ways`` ways for ``fg_cores``; the rest share the remainder.

        This mirrors the paper's policy of removing the FG partition's ways
        from the list of ways BG tasks may use.
        """
        fg_set = set(fg_cores)
        if not 1 <= fg_ways <= self._num_ways - 1:
            raise ConfigurationError(
                "fg_ways must leave at least one way for BG tasks"
            )
        fg_mask = contiguous_mask(0, fg_ways)
        bg_mask = contiguous_mask(fg_ways, self._num_ways - fg_ways)
        for core in range(self._config.num_cores):
            self.set_mask(core, fg_mask if core in fg_set else bg_mask)

    def clear_partitions(self) -> None:
        """Let every core allocate into every way (no isolation)."""
        mask = full_mask(self._num_ways)
        for core in range(self._config.num_cores):
            self.set_mask(core, mask)

    def set_weights(self, weights: Sequence[float]) -> None:
        """Set the per-core occupancy weights (phase APKI; 0 when idle/paused)."""
        if len(weights) != self._config.num_cores:
            raise SimulationError("need one weight per core")
        new = list(weights)
        if min(new) < 0:
            raise SimulationError("weights must be >= 0")
        if new != self._weights:
            active_bits = 0
            for core, weight in enumerate(new):
                if weight > 0:
                    active_bits |= 1 << core
            if active_bits != self._active_bits:
                self._active_bits = active_bits
                self._groups_dirty = True
            self._weights = new
            self._targets_dirty = True

    def target_ways(self, core: int) -> float:
        """Steady-state occupancy of ``core`` in ways for current masks/weights."""
        self._refresh_targets()
        self._check_core(core)
        return self._target[core]

    def effective_ways(self, core: int) -> float:
        """Inertia-filtered occupancy of ``core`` in ways."""
        self._check_core(core)
        return self._effective[core]

    def effective_list(self) -> List[float]:
        """Live per-core effective occupancies (stable list).

        Hot-path accessor: callers must treat the returned list as
        read-only; it is updated in place by :meth:`step`/:meth:`settle`.
        """
        return self._effective

    def step(self, dt_s: float) -> None:
        """Advance occupancies toward their targets by ``dt_s`` seconds."""
        if dt_s < 0:
            raise SimulationError("dt_s must be >= 0")
        self._refresh_targets()
        if self._tau <= 0:
            self._effective[:] = self._target
            return
        cached_dt, alpha = self._alpha_cache
        if dt_s != cached_dt:
            alpha = 1.0 - math.exp(-dt_s / self._tau)
            self._alpha_cache = (dt_s, alpha)
        effective = self._effective
        target = self._target
        for core in range(self._config.num_cores):
            gap = target[core] - effective[core]
            effective[core] += alpha * gap

    def settle(self) -> None:
        """Snap occupancies to their targets (used for fresh machines)."""
        self._refresh_targets()
        self._effective[:] = self._target

    def tick_update(self, weights: Sequence[float], dt_s: float) -> None:
        """Fused :meth:`set_weights` + :meth:`step` for the tick kernel.

        The caller guarantees one non-negative weight per core and a
        positive ``dt_s``; semantics are otherwise identical to calling
        the two methods in sequence.  Weights change nearly every tick
        (they embed the instantaneous access rate), so this path avoids
        the per-call validation, list copy, and double dispatch.
        """
        if weights != self._weights:
            active_bits = 0
            for core, weight in enumerate(weights):
                if weight > 0:
                    active_bits |= 1 << core
            if active_bits != self._active_bits:
                self._active_bits = active_bits
                self._groups_dirty = True
            self._weights[:] = weights
            self._targets_dirty = True
        if self._targets_dirty:
            self._refresh_targets()
        if self._tau <= 0:
            self._effective[:] = self._target
            return
        cached_dt, alpha = self._alpha_cache
        if dt_s != cached_dt:
            alpha = 1.0 - math.exp(-dt_s / self._tau)
            self._alpha_cache = (dt_s, alpha)
        effective = self._effective
        target = self._target
        for core in range(len(effective)):
            gap = target[core] - effective[core]
            effective[core] += alpha * gap

    @property
    def mask_epoch(self) -> int:
        """Counter bumped on every effective mask change (repartition)."""
        return self._mask_epoch

    def span_grouping(
        self, active_bits: int
    ) -> Tuple[Tuple[Tuple[int, Tuple[int, ...]], ...], bool]:
        """Mask grouping for a hypothetical active-core set (memoized).

        Returns ``(groups, disjoint)`` with ``groups`` a tuple of
        ``(way_count, cores)`` in exactly the order
        :meth:`_rebuild_groups` would produce for the same active set.
        Used by span plans, which fix the active set for a whole span.
        """
        got = self._span_groupings.get(active_bits)
        if got is None:
            groups: dict = {}
            for core in range(self._config.num_cores):
                if active_bits >> core & 1:
                    groups.setdefault(self._mask[core], []).append(core)
            masks = list(groups)
            disjoint = True
            for i, left in enumerate(masks):
                for right in masks[i + 1:]:
                    if left & right:
                        disjoint = False
                        break
                if not disjoint:
                    break
            got = (
                tuple(
                    (bin(mask).count("1"), tuple(cores))
                    for mask, cores in groups.items()
                ),
                disjoint,
            )
            self._span_groupings[active_bits] = got
        return got

    def inertia_alpha(self, dt_s: float) -> float:
        """Inertia-filter gain for a ``dt_s`` step (pure; no caching)."""
        if self._tau <= 0:
            raise SimulationError("inertia_alpha undefined for tau <= 0")
        cached_dt, alpha = self._alpha_cache
        if dt_s == cached_dt:
            return alpha
        return 1.0 - math.exp(-dt_s / self._tau)

    def span_commit(
        self,
        weights: Sequence[float],
        targets: Sequence[float],
        active_bits: int,
        groups: List[Tuple[int, List[int]]],
        disjoint: bool,
        alpha_entry: Tuple[float, float],
    ) -> None:
        """Install span-final occupancy state from a compiled kernel.

        The kernel updated ``self._effective`` in place tick by tick;
        this writes back the matching weights, targets, grouping and
        ``(dt, alpha)`` inertia entry exactly as a trailing
        :meth:`tick_update` would have left them.  Kernels run only
        with cache inertia on, so there is always an alpha entry.
        """
        self._weights[:] = weights
        self._target[:] = targets
        self._targets_dirty = False
        self._groups = groups
        self._groups_disjoint = disjoint
        self._groups_dirty = False
        self._active_bits = active_bits
        self._alpha_cache = alpha_entry

    def _rebuild_groups(self) -> None:
        """Recompute the mask/active-core grouping (rare; see below).

        Grouping depends only on the way masks and on *which* cores are
        active, both of which change orders of magnitude less often than
        the per-tick weights, so the result is cached.
        """
        num_cores = self._config.num_cores
        active_bits = 0
        groups = {}
        for core in range(num_cores):
            if self._weights[core] > 0:
                active_bits |= 1 << core
                groups.setdefault(self._mask[core], []).append(core)
        masks = list(groups)
        disjoint = True
        for i, left in enumerate(masks):
            for right in masks[i + 1:]:
                if left & right:
                    disjoint = False
                    break
            if not disjoint:
                break
        self._groups = [
            (bin(mask).count("1"), cores) for mask, cores in groups.items()
        ]
        self._groups_disjoint = disjoint
        self._active_bits = active_bits
        self._groups_dirty = False

    def _refresh_targets(self) -> None:
        if not self._targets_dirty:
            return
        if self._groups_dirty:
            self._rebuild_groups()
        targets = self._target
        targets[:] = self._zeros
        weights = self._weights
        # Typical configurations (fully shared, or a disjoint FG/BG
        # partition) produce groups with pairwise disjoint masks, for
        # which occupancy splits independently inside each group;
        # arbitrary overlapping masks take the exact per-way path.
        if self._groups_disjoint:
            for ways, cores in self._groups:
                total = 0.0
                for core in cores:
                    total += weights[core]
                for core in cores:
                    targets[core] = ways * weights[core] / total
        else:
            for way in range(self._num_ways):
                bit = 1 << way
                sharers = [
                    core for core, cores_mask in enumerate(self._mask)
                    if cores_mask & bit and weights[core] > 0
                ]
                if not sharers:
                    continue
                total = sum(weights[core] for core in sharers)
                for core in sharers:
                    targets[core] += weights[core] / total
        self._targets_dirty = False

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self._config.num_cores:
            raise SimulationError("core %d out of range" % core)
