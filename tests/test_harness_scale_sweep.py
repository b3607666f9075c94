"""Tests for Scale selection and the sweep cache."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.harness.scale import Scale
from repro.harness.sweep import SweepCache


class TestScale:
    def test_paper_protocol(self):
        scale = Scale.paper()
        assert scale.runtime == 500.0
        assert scale.mix_points[0] == 0.05
        assert scale.mix_points[-1] == 0.40
        assert len(scale.mix_points) == 8  # 5% steps

    def test_quick_custom_runtime(self):
        assert Scale.quick(60.0).runtime == 60.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Scale("x", 0.0, (0.05,), (18,), 1)
        with pytest.raises(ConfigurationError):
            Scale("x", 10.0, (), (18,), 1)

    @staticmethod
    def _clear_env(monkeypatch):
        for var in ("REPRO_FULL", "REPRO_SMOKE", "REPRO_RUNTIME"):
            monkeypatch.delenv(var, raising=False)

    def test_from_env_full(self, monkeypatch):
        self._clear_env(monkeypatch)
        monkeypatch.setenv("REPRO_FULL", "1")
        assert Scale.from_env().label == "paper"

    def test_from_env_smoke(self, monkeypatch):
        self._clear_env(monkeypatch)
        monkeypatch.setenv("REPRO_SMOKE", "1")
        assert Scale.from_env().label == "smoke"

    def test_from_env_runtime(self, monkeypatch):
        self._clear_env(monkeypatch)
        monkeypatch.setenv("REPRO_RUNTIME", "77")
        assert Scale.from_env().runtime == 77.0

    def test_from_env_default_quick(self, monkeypatch):
        self._clear_env(monkeypatch)
        assert Scale.from_env().label.startswith("quick")

    def test_from_env_full_and_smoke_conflict(self, monkeypatch):
        self._clear_env(monkeypatch)
        monkeypatch.setenv("REPRO_FULL", "1")
        monkeypatch.setenv("REPRO_SMOKE", "1")
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            Scale.from_env()

    def test_from_env_flag_zero_is_unset(self, monkeypatch):
        # "0" means off, so FULL=0 + SMOKE=1 is not a conflict.
        self._clear_env(monkeypatch)
        monkeypatch.setenv("REPRO_FULL", "0")
        monkeypatch.setenv("REPRO_SMOKE", "1")
        assert Scale.from_env().label == "smoke"

    def test_from_env_full_wins_over_runtime_with_warning(self, monkeypatch):
        self._clear_env(monkeypatch)
        monkeypatch.setenv("REPRO_FULL", "1")
        monkeypatch.setenv("REPRO_RUNTIME", "77")
        with pytest.warns(UserWarning, match="REPRO_RUNTIME=77 is ignored"):
            assert Scale.from_env().label == "paper"

    def test_from_env_smoke_wins_over_runtime_with_warning(self, monkeypatch):
        self._clear_env(monkeypatch)
        monkeypatch.setenv("REPRO_SMOKE", "1")
        monkeypatch.setenv("REPRO_RUNTIME", "77")
        with pytest.warns(UserWarning, match="REPRO_RUNTIME=77 is ignored"):
            scale = Scale.from_env()
        assert scale.label == "smoke"
        assert scale.runtime == 25.0


class TestSweepCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("k1", {"a": 1})
        assert cache.get("k1") == {"a": 1}
        assert cache.hits == 1

    def test_miss_returns_none(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_unsafe_key_characters_sanitised(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("a/b c:d", {"x": 1})
        assert cache.get("a/b c:d") == {"x": 1}

    def test_sanitised_keys_do_not_collide(self, tmp_path):
        # "a:b" and "a_b" sanitise to the same stem; the filename's raw-key
        # digest must keep them distinct entries.
        cache = SweepCache(tmp_path)
        cache.put("a:b", {"v": "colon"})
        cache.put("a_b", {"v": "underscore"})
        assert cache.get("a:b") == {"v": "colon"}
        assert cache.get("a_b") == {"v": "underscore"}
        assert cache._path("a:b") != cache._path("a_b")

    def test_very_long_keys_stay_distinct(self, tmp_path):
        cache = SweepCache(tmp_path)
        long_a = "k" * 300 + "a"
        long_b = "k" * 300 + "b"
        cache.put(long_a, {"v": 1})
        cache.put(long_b, {"v": 2})
        assert cache.get(long_a) == {"v": 1}
        assert cache.get(long_b) == {"v": 2}
        assert len(cache._path(long_a).name) < 255  # filesystem limit

    def test_clear(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("k1", {})
        cache.put("k2", {})
        assert cache.clear() == 2
        assert cache.get("k1") is None

    def test_corrupt_file_treated_as_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("k", {"a": 1})
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        assert cache.get("k") is None

    def test_env_override_for_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        cache = SweepCache()
        assert cache.directory == tmp_path / "custom"
