"""GEN audit over real generated span kernels.

Two layers:

* the kernel *templates* (the representative shape matrix
  :func:`repro.sim.spanplan.template_shapes` exports for the analyzer)
  all generate contract-clean source, and that source actually
  ``exec``-compiles under the empty-``__builtins__`` namespace the
  runtime uses;
* the shapes a *live* batch-backend simulation compiles — whatever ends
  up in ``spanplan._KERNEL_CODE_CACHE`` after driving a contended
  machine — audit clean too, so the audit surface cannot silently
  drift from what production spans really run.

Plus negative coverage: doctored kernel sources violating each clause
of the contract are caught.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.analysis.rules_gen import audit_kernel_source
from repro.sim import spanplan
from repro.sim.batch import BACKEND_BATCH
from repro.sim.config import MachineConfig
from repro.sim.jitter import shared_jitter
from repro.sim.machine import Machine
from tests.conftest import make_bg, make_fg


def _violation_messages(source):
    return [violation.message
            for violation in audit_kernel_source(source)]


def _fields(shape):
    """A span shape as ``{field: value}`` per ``SHAPE_FIELDS``."""
    return dict(zip(spanplan.SHAPE_FIELDS, shape))


def _lanes(shape):
    return len(_fields(shape)["isfg"])


def _shape_id(shape):
    """Readable test id for a span shape: lanes, jitter mode, FG lanes
    and cache groups."""
    f = _fields(shape)
    return "lanes%d-j%d-fg%d-g%d" % (
        _lanes(shape), f["jitter"], sum(f["isfg"]), len(f["groups"]),
    )


class TestTemplatesConform:
    @pytest.mark.parametrize(
        "shape", spanplan.template_shapes(), ids=_shape_id,
    )
    def test_template_generates_clean_source(self, shape):
        source = spanplan.generate_kernel_source(shape)
        assert audit_kernel_source(source) == []

    @pytest.mark.parametrize(
        "shape", spanplan.template_shapes(), ids=_shape_id,
    )
    def test_template_compiles_without_builtins(self, shape):
        source = spanplan.generate_kernel_source(shape)
        namespace = {"__builtins__": {}}
        exec(compile(source, "<test>", "exec"), namespace)
        assert callable(namespace["_factory"])

    def test_templates_cover_every_jitter_mode(self):
        # Off, drawn in-kernel (a machine outside any shared_jitter
        # scope) and read from a shared tape (one inside a scope).
        jitters = {
            _fields(shape)["jitter"] for shape in spanplan.template_shapes()
        }
        assert jitters == {
            spanplan.JITTER_OFF, spanplan.JITTER_DRAW, spanplan.JITTER_TAPE,
        }

    def test_templates_cover_stolen_and_energy(self):
        # Stolen time and phase guards are not shape axes: every span
        # kernel peels its first tick to charge pending overhead and
        # takes one guard bound per lane, after the sampler arguments
        # (next wakeup, budget, period, pinned core, overhead).  Energy
        # is not an axis either: SpanPlan.run feeds the model after the
        # kernel, so no kernel calls it.
        shapes = spanplan.template_shapes()
        assert spanplan.SHAPE_FIELDS == (
            "num_cores", "isfg", "jitter", "groups",
        )
        assert {len(shape) for shape in shapes} == {4}
        for shape in shapes:
            source = spanplan.generate_kernel_source(shape)
            assert "sta = plan.stolen" in source
            guards = "".join(", g_%d" % i for i in range(_lanes(shape)))
            assert (
                "def run(span, rho, now, wk, nw, pt, pc, ov%s):" % guards
                in source
            )
            assert "energy" not in source

    def test_templates_cover_sampling_kernels(self):
        # Every span kernel takes sampler wakeups, so the audited matrix
        # must hold a sampling kernel in every jitter mode, with FG
        # lanes whose counters the sample row carries, and one with
        # several FG lanes (the x3 mixes).
        kinds = set()
        fg_lanes = set()
        for shape in spanplan.template_shapes():
            source = spanplan.generate_kernel_source(shape)
            isfg = _fields(shape)["isfg"]
            row = ", ".join(
                ["now * dt"]
                + ["ci_%d" % i for i, fg in enumerate(isfg) if fg]
            )
            assert "sb.append((%s,))" % row in source
            assert "sta[pc] = sta[pc] + ov" in source
            assert "tr_() < jp" in source
            if not any(isfg):
                continue
            fg_lanes.add(sum(isfg))
            kinds.add(_fields(shape)["jitter"])
        assert kinds == {
            spanplan.JITTER_OFF, spanplan.JITTER_DRAW, spanplan.JITTER_TAPE,
        }
        assert max(fg_lanes) > 1


class TestLiveKernelsConform:
    def test_compiled_shapes_from_live_run_audit_clean(self):
        config = MachineConfig(
            seed=5, os_jitter_sigma=0.015, cache_inertia_tau_s=0.15,
            timer_jitter_prob=0.0,
        )
        # One machine draws its jitter in-kernel, one inside a scope
        # reads it from the shared tapes.
        for scoped in (False, True):
            with shared_jitter() if scoped else contextlib.nullcontext():
                machine = Machine(config, backend=BACKEND_BATCH)
                machine.spawn(make_fg(input_noise=0.05), core=0, nice=-5)
                for core in range(1, config.num_cores):
                    machine.spawn(make_bg(heavy=core % 2 == 0), core=core,
                                  nice=5)
                machine.settle_cache()
                machine.run_ticks(2_000)
            stats = machine.backend_stats()
            assert stats["compiled_ticks"] > 0
        jitters = {
            _fields(shape)["jitter"] for shape in spanplan._KERNEL_CODE_CACHE
        }
        assert {spanplan.JITTER_DRAW, spanplan.JITTER_TAPE} <= jitters

        audited = 0
        for shape in spanplan._KERNEL_CODE_CACHE:
            source = spanplan.generate_kernel_source(shape)
            assert audit_kernel_source(source) == [], (
                "live shape %r generated non-conforming code" % (shape,)
            )
            audited += 1
        assert audited >= 1


class TestDoctoredSourcesCaught:
    def test_global_name_resolution_caught(self):
        messages = _violation_messages(
            "def _factory(plan, e_):\n"
            "    def run(span):\n"
            "        return math.exp(span)\n"
            "    return run\n"
        )
        assert any("resolves to a global" in message
                   for message in messages)

    def test_non_allowlisted_call_caught(self):
        messages = _violation_messages(
            "def _factory(plan, e_):\n"
            "    p = plan.printer\n"
            "    def run(span):\n"
            "        p(span)\n"
            "        return span\n"
            "    return run\n"
        )
        assert any("non-allowlisted name 'p'" in message
                   for message in messages)

    def test_timer_rng_is_the_only_new_allowlisted_name(self):
        # ``tr_`` (the closure-bound timer-RNG draw of in-kernel
        # wakeups) passes; any other plain-name call is still flagged,
        # including ``ms_``, which the factory binds as the MPKI-scale
        # constant and no kernel calls, ``ln_`` / ``memo_get``, which
        # no kernel binds since the fixed-point memo went, and
        # ``acc_e``, since the energy model left the kernels.
        template = (
            "def _factory(plan, e_):\n"
            "    %s = plan.timer_random\n"
            "    def run(span):\n"
            "        return %s()\n"
            "    return run\n"
        )
        assert _violation_messages(template % ("tr_", "tr_")) == []
        for name in ("tr", "tr_0", "trx_", "rnd_", "timer_random", "an_",
                     "mn_", "ms_", "ln_", "memo_get", "acc_e"):
            messages = _violation_messages(template % (name, name))
            assert ("call to non-allowlisted name %r" % name) in messages

    def test_tape_fills_are_allowlisted_per_lane(self):
        # ``jf_<i>`` (lane ``i``'s closure-bound jitter-tape fill)
        # passes; a fill name without a lane index does not.
        template = (
            "def _factory(plan, e_):\n"
            "    %s = plan.tapes[0].fill\n"
            "    def run(span):\n"
            "        return %s(span)\n"
            "    return run\n"
        )
        for name in ("jf_0", "jf_11"):
            assert _violation_messages(template % (name, name)) == []
        for name in ("jf_", "jf", "jf0", "jfx_0", "fill"):
            messages = _violation_messages(template % (name, name))
            assert ("call to non-allowlisted name %r" % name) in messages

    def test_in_loop_attribute_caught(self):
        messages = _violation_messages(
            "def _factory(plan, e_):\n"
            "    m = plan.machine\n"
            "    def run(span):\n"
            "        executed = 0\n"
            "        while executed < span:\n"
            "            executed = executed + m.rho\n"
            "        return executed\n"
            "    return run\n"
        )
        assert any("inside a lane loop" in message
                   for message in messages)

    def test_import_in_generated_code_caught(self):
        messages = _violation_messages(
            "import math\n"
            "def _factory(plan, e_):\n"
            "    def run(span):\n"
            "        return span\n"
            "    return run\n"
        )
        assert any("must not import" in message for message in messages)
        assert any("exactly one factory function" in message
                   for message in messages)

    def test_unparsable_source_caught(self):
        messages = _violation_messages("def _factory(:\n")
        assert any("does not parse" in message for message in messages)
