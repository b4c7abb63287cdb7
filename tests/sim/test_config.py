"""Unit tests for repro.sim.config."""

import pytest

import repro.sim.config as config_module
from repro.errors import ConfigurationError
from repro.sim.config import DEFAULT_FREQ_GRADES_GHZ, PAPER_MACHINE, MachineConfig

#: Every boolean knob, one parametrized case each.
FLAG_KNOBS = [knob for knob in config_module.KNOBS if knob.kind == "flag"]


class TestDefaults:
    def test_paper_machine_has_six_cores(self):
        assert PAPER_MACHINE.num_cores == 6

    def test_paper_machine_grades_match_paper(self):
        assert PAPER_MACHINE.freq_grades_ghz == (1.2, 1.4, 1.6, 1.8, 2.0)

    def test_paper_machine_cache_geometry(self):
        assert PAPER_MACHINE.llc_ways == 20
        assert PAPER_MACHINE.llc_mb == 15.0

    def test_default_grades_constant_is_ascending(self):
        assert list(DEFAULT_FREQ_GRADES_GHZ) == sorted(DEFAULT_FREQ_GRADES_GHZ)


class TestProperties:
    def test_min_max_freq(self):
        cfg = MachineConfig()
        assert cfg.min_freq_ghz == 1.2
        assert cfg.max_freq_ghz == 2.0

    def test_num_grades(self):
        assert MachineConfig().num_grades == 5

    def test_grade_of_exact_frequency(self):
        cfg = MachineConfig()
        assert cfg.grade_of(1.2) == 0
        assert cfg.grade_of(2.0) == 4

    def test_grade_of_unknown_frequency_raises(self):
        with pytest.raises(ConfigurationError):
            MachineConfig().grade_of(1.5)

    def test_with_seed_changes_only_seed(self):
        cfg = MachineConfig(seed=1)
        other = cfg.with_seed(99)
        assert other.seed == 99
        assert other.num_cores == cfg.num_cores
        assert other.freq_grades_ghz == cfg.freq_grades_ghz

    def test_config_is_hashable(self):
        assert {MachineConfig(): 1}  # used as a cache key by the harness

    def test_equal_configs_hash_equal(self):
        assert hash(MachineConfig(seed=5)) == hash(MachineConfig(seed=5))


class TestValidation:
    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cores=0)

    def test_empty_grades_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(freq_grades_ghz=())

    def test_negative_grade_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(freq_grades_ghz=(-1.0, 2.0))

    def test_unsorted_grades_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(freq_grades_ghz=(2.0, 1.2))

    def test_duplicate_grades_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(freq_grades_ghz=(1.2, 1.2, 2.0))

    def test_single_way_cache_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(llc_ways=1)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(mem_peak_gbps=0.0)

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(mem_base_latency_ns=0.0)

    def test_rho_cap_bounds(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(mem_rho_cap=1.0)
        with pytest.raises(ConfigurationError):
            MachineConfig(mem_rho_cap=0.0)

    def test_nonpositive_tick_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(tick_s=0.0)

    def test_negative_inertia_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(cache_inertia_tau_s=-1.0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(os_jitter_sigma=-0.1)

    def test_timer_jitter_prob_bounds(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(timer_jitter_prob=1.5)
        with pytest.raises(ConfigurationError):
            MachineConfig(timer_jitter_prob=-0.1)

    def test_negative_contention_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="mem_contention_scale"):
            MachineConfig(mem_contention_scale=-0.5)
        assert MachineConfig(mem_contention_scale=0.0).mem_contention_scale == 0.0

    def test_nonpositive_cache_line_rejected(self):
        with pytest.raises(ConfigurationError, match="cache_line_bytes"):
            MachineConfig(cache_line_bytes=0)
        with pytest.raises(ConfigurationError, match="cache_line_bytes"):
            MachineConfig(cache_line_bytes=-64)

    def test_zero_freq_transition_ticks_rejected(self):
        # At 0 the batch engine applies a timer-requested DVFS change one
        # tick earlier than the scalar reference, so the backends diverge.
        with pytest.raises(ConfigurationError, match="freq_transition_ticks"):
            MachineConfig(freq_transition_ticks=0)
        with pytest.raises(ConfigurationError, match="freq_transition_ticks"):
            MachineConfig(freq_transition_ticks=-1)
        assert MachineConfig(freq_transition_ticks=1).freq_transition_ticks == 1


class TestEnvKnobAccessors:
    """The typed environment-knob funnel (read late, never at import)."""

    def test_default_executions_fallback(self, monkeypatch):
        from repro.sim.config import default_executions

        monkeypatch.delenv("REPRO_EXECUTIONS", raising=False)
        assert default_executions() == 40

    def test_default_executions_sees_late_env_change(self, monkeypatch):
        # The bug class this accessor replaced: a module constant read
        # os.environ at import, so changes after import were ignored.
        from repro.sim.config import default_executions

        monkeypatch.setenv("REPRO_EXECUTIONS", "7")
        assert default_executions() == 7
        monkeypatch.setenv("REPRO_EXECUTIONS", "11")
        assert default_executions() == 11

    def test_default_executions_rejects_garbage(self, monkeypatch):
        from repro.sim.config import default_executions

        monkeypatch.setenv("REPRO_EXECUTIONS", "many")
        with pytest.raises(ConfigurationError):
            default_executions()
        monkeypatch.setenv("REPRO_EXECUTIONS", "0")
        with pytest.raises(ConfigurationError):
            default_executions()

    def test_env_workers_lenient(self, monkeypatch):
        from repro.sim.config import env_workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert env_workers() is None
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert env_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "typo")
        assert env_workers() is None

    @pytest.mark.parametrize(
        "knob", FLAG_KNOBS, ids=[knob.name for knob in FLAG_KNOBS]
    )
    def test_flag_knobs_agree_on_off_values(self, monkeypatch, knob):
        # One parser for every flag: unset and 1 enable; 0, off, false
        # disable in any case and with surrounding whitespace.
        accessor = getattr(config_module, knob.accessor)
        monkeypatch.delenv(knob.name, raising=False)
        assert accessor() is True
        monkeypatch.setenv(knob.name, "1")
        assert accessor() is True
        for off in ("0", "off", "false", " OFF "):
            monkeypatch.setenv(knob.name, off)
            assert accessor() is False, off

    def test_harness_resolves_executions_at_call_time(self, monkeypatch):
        # End-to-end: the experiment harness observes the env change made
        # long after repro.experiments was imported.
        from repro.core.policies import BASELINE
        from repro.experiments.harness import PolicySession
        from repro.experiments.mixes import mix_by_name

        monkeypatch.setenv("REPRO_EXECUTIONS", "3")
        session = PolicySession(mix_by_name("ferret rs"), BASELINE,
                                warmup=0)
        assert session._executions == 3

    def test_knob_registry_accessors_exist_and_are_callable(self):
        import repro.sim.config as config

        for knob in config.KNOBS:
            accessor = getattr(config, knob.accessor)
            assert callable(accessor)
            assert knob.name.startswith("REPRO_")
            assert knob.doc

    def test_knob_registry_names_unique(self):
        from repro.sim.config import KNOBS

        names = [knob.name for knob in KNOBS]
        assert len(names) == len(set(names))
