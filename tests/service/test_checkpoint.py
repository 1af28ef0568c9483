"""Tests for service checkpoint/restore.

Two properties carry the subsystem:

* **round trip** — checkpoint at *any* window boundary, restore (through
  JSON), run to the horizon: the result is fingerprint-identical to the
  uninterrupted run (hypothesis picks the boundary), and
* **validation** — a malformed snapshot is rejected with a
  :class:`CheckpointError` that names the offending field, never a
  KeyError five layers down.
"""

import asyncio
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.executor import result_fingerprint
from repro.experiments.runner import (
    ExperimentSetting,
    PolicySpec,
    materialize,
    run_setting,
    setting_config,
)
from repro.service import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointError,
    DispatchService,
    load_checkpoint,
    policy_spec_from_checkpoint,
    restore_simulator,
    save_checkpoint,
    serve_recorded,
    snapshot_simulator,
)
from repro.workload.city import CITY_PROFILES

SMALL = ExperimentSetting(profile=CITY_PROFILES["CityA"], scale=0.1,
                          start_hour=12, end_hour=13, seed=3)
BUSY = ExperimentSetting(profile=CITY_PROFILES["CityA"], scale=0.2,
                         start_hour=12, end_hour=13, seed=1,
                         traffic="light", fleet="full")
DATA = pathlib.Path(__file__).parent / "data"


def make_service(setting, **kwargs):
    scenario, oracle = materialize(setting)
    oracle.__dict__.pop("repair_fraction", None)
    return DispatchService(scenario, "foodmatch",
                          config=setting_config(setting), oracle=oracle,
                          **kwargs)


def batch_fingerprint(setting):
    return result_fingerprint(run_setting(setting, PolicySpec("foodmatch", ())))


def checkpoint_at(setting, windows):
    """Serve ``windows`` windows, checkpoint, and JSON-round-trip the doc."""
    service = make_service(setting)
    paused = asyncio.run(serve_recorded(service, max_windows=windows))
    assert paused is None or windows >= len(service.engine.window_records)
    snapshot = service.checkpoint()
    return json.loads(json.dumps(snapshot))


class TestRoundTrip:
    @given(windows=st.integers(min_value=0, max_value=30))
    @settings(max_examples=8, deadline=None)
    def test_restore_at_any_boundary_matches_uninterrupted(self, windows):
        payload = checkpoint_at(SMALL, windows)
        restored = DispatchService.from_checkpoint(payload)
        result = asyncio.run(serve_recorded(restored))
        assert result is not None
        assert result_fingerprint(result) == batch_fingerprint(SMALL)

    def test_round_trip_with_traffic_and_fleet(self):
        payload = checkpoint_at(BUSY, 5)
        restored = DispatchService.from_checkpoint(payload)
        result = asyncio.run(serve_recorded(restored))
        assert result_fingerprint(result) == batch_fingerprint(BUSY)

    def test_file_round_trip(self, tmp_path):
        payload = checkpoint_at(SMALL, 4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(payload, path)
        restored = DispatchService.from_checkpoint(path)
        result = asyncio.run(serve_recorded(restored))
        assert result_fingerprint(result) == batch_fingerprint(SMALL)

    def test_policy_spec_survives(self):
        payload = checkpoint_at(SMALL, 2)
        name, options = policy_spec_from_checkpoint(payload)
        assert name == "foodmatch"
        assert options == {}

    def test_stored_checkpoint_restores_to_its_recorded_fingerprint(self):
        # Written six windows into a heavy-traffic CityA lunch hour (its
        # updates decided a rebuild and a repair) by the engine that still
        # built and repaired hub labels eagerly; the stored fingerprint is
        # that engine's uninterrupted run.  Replaying the epochs with
        # deferred label work must land on the same labels and outcomes.
        stored = json.loads((DATA / "heavy_traffic_checkpoint.json").read_text())
        restored = DispatchService.from_checkpoint(stored["checkpoint"])
        result = asyncio.run(serve_recorded(restored))
        assert result_fingerprint(result) == stored["fingerprint"]

    def test_restore_ignores_the_retired_engine_switch(self):
        # The engine once had a per-edge window path behind a
        # ``config.vectorized`` flag, and checkpoints written then carry it
        # (the stored one above does, as ``true``).  Both of its values ran
        # identically, so restore accepts it either way, or not at all.
        payload = checkpoint_at(SMALL, 4)
        assert "vectorized" not in payload["config"]
        prints = set()
        for flag in (None, True, False):
            doc = json.loads(json.dumps(payload))
            if flag is not None:
                doc["config"]["vectorized"] = flag
            result = asyncio.run(serve_recorded(
                DispatchService.from_checkpoint(doc)))
            prints.add(result_fingerprint(result))
        assert prints == {batch_fingerprint(SMALL)}

    def test_finalized_simulator_cannot_checkpoint(self):
        service = make_service(SMALL)
        assert asyncio.run(serve_recorded(service)) is not None
        with pytest.raises(CheckpointError, match="finalized"):
            snapshot_simulator(service.engine, "foodmatch")


class TestValidation:
    @pytest.fixture(scope="class")
    def payload(self):
        return checkpoint_at(SMALL, 3)

    def copy(self, payload):
        return json.loads(json.dumps(payload))

    def test_rejects_wrong_format(self, payload):
        doc = self.copy(payload)
        doc["format"] = "not-a-checkpoint"
        with pytest.raises(CheckpointError, match="format"):
            restore_simulator(doc)

    def test_rejects_wrong_version(self, payload):
        doc = self.copy(payload)
        doc["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointError, match="version"):
            restore_simulator(doc)

    def test_missing_field_is_named(self, payload):
        doc = self.copy(payload)
        del doc["engine"]["next_window_start"]
        with pytest.raises(CheckpointError,
                           match="engine.next_window_start"):
            restore_simulator(doc)

    def test_non_numeric_field_is_named(self, payload):
        doc = self.copy(payload)
        doc["engine"]["ingested_until"] = "noon"
        with pytest.raises(CheckpointError, match="ingested_until"):
            restore_simulator(doc)

    def test_non_finite_field_is_named(self, payload):
        doc = self.copy(payload)
        doc["engine"]["next_window_start"] = float("inf")
        with pytest.raises(CheckpointError, match="next_window_start"):
            restore_simulator(doc)

    def test_unknown_vehicle_is_named(self, payload):
        doc = self.copy(payload)
        doc["engine"]["vehicle_clock"].append([999_999, 43200.0])
        with pytest.raises(CheckpointError, match="999999"):
            restore_simulator(doc)

    def test_constants_exported(self, payload):
        assert payload["format"] == CHECKPOINT_FORMAT
        assert payload["version"] == CHECKPOINT_VERSION

    def test_load_checkpoint_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
