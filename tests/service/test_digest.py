"""Digest stability: the content-addressing contract.

The cache key must be a pure function of the bytes that were parsed
and the configuration: byte-stable across process restarts (no hash
randomisation leaking in) and insensitive to dict insertion order.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from repro.clocks.serialize import save_schedule
from repro.generators import fig1_circuit, fig1_schedule, latch_pipeline
from repro.netlist.persistence import network_to_dict, save_network
from repro.report.manifest import canonical_json, digest_inputs
from repro.service.digest import (
    PAYLOAD_SCHEMA_VERSION,
    analysis_config,
    cache_key,
    config_digest,
    key_inputs,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


class TestConfigDigest:
    def test_insensitive_to_dict_ordering(self):
        forward = {"latch_model": "transparent", "tolerance": 0.0,
                   "slow_path_limit": 50}
        backward = {"slow_path_limit": 50, "tolerance": 0.0,
                    "latch_model": "transparent"}
        assert list(forward) != list(backward)
        assert config_digest(forward) == config_digest(backward)

    def test_sensitive_to_values(self):
        base = analysis_config()
        changed = analysis_config(tolerance=0.1)
        assert config_digest(base) != config_digest(changed)

    def test_nested_delay_params_order(self):
        a = analysis_config(delay_params={"x": 1, "y": 2})
        b = analysis_config(delay_params={"y": 2, "x": 1})
        assert config_digest(a) == config_digest(b)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _key(netlist=b"netlist", clocks=b"clocks", default_clock=None,
         config=None, path="design.blif"):
    return cache_key(
        *key_inputs(path, netlist, clocks, default_clock),
        analysis_config() if config is None else config,
    )


class TestNetworkAndScheduleDigests:
    """The key hashes the netlist and clocks bytes that were parsed,
    each file on its own, plus the default clock and the config."""

    def test_equal_for_equal_content(self, tmp_path):
        for name in ("a", "b"):
            save_network(fig1_circuit()[0], tmp_path / f"{name}.json")
            save_schedule(fig1_schedule(), tmp_path / f"{name}.clocks")
        a, b = (
            _key(
                (tmp_path / f"{name}.json").read_bytes(),
                (tmp_path / f"{name}.clocks").read_bytes(),
            )
            for name in ("a", "b")
        )
        assert a == b

    def test_differs_for_different_designs(self):
        fig1 = canonical_json(network_to_dict(fig1_circuit()[0]))
        pipeline = canonical_json(network_to_dict(latch_pipeline(stages=2)[0]))
        assert _key(fig1.encode()) != _key(pipeline.encode())

    def test_each_input_moves_the_key(self):
        base = _key()
        moved = [
            _key(netlist=b"netlist "),
            _key(clocks=b"clocks "),
            _key(default_clock="phi1"),
            _key(config=analysis_config(slow_path_limit=3)),
            _key(config=analysis_config(tolerance=0.5)),
        ]
        assert base == _key()
        assert base not in moved
        assert len(set(moved)) == len(moved)

    def test_key_inputs_hash_each_file(self):
        assert key_inputs("d.v", b"netlist", b"clocks", "phi1") == (
            _sha(b"netlist"), _sha(b"clocks"), "phi1"
        )

    def test_a_json_netlist_keys_no_default_clock(self):
        """The JSON reader takes no default clock, so naming one cannot
        change what is parsed; the BLIF and Verilog readers use it."""
        for path in ("d.blif", "d.v"):
            assert _key(path=path, default_clock="phi1") != _key(path=path)
        assert _key(path="d.json", default_clock="phi1") == (
            _key(path="d.json")
        )

    def test_a_byte_moved_across_the_file_boundary_moves_the_key(self):
        """Each file is hashed on its own.  The manifest's
        ``input_digest`` concatenates the two, so it cannot be a key."""
        assert digest_inputs(b"ab", b"c") == digest_inputs(b"a", b"bc")
        assert _key(b"ab", b"c") != _key(b"a", b"bc")

    def test_digest_is_hex_sha256(self):
        key = _key()
        assert len(key) == 64
        int(key, 16)  # raises on non-hex


class TestProcessRestartStability:
    """The key must survive a fresh interpreter (fresh hash seed)."""

    SCRIPT = """
import json
from repro.service.digest import (
    analysis_config, cache_key, config_digest, key_inputs,
)
config = analysis_config(slow_path_limit=7, tolerance=0.25)
print(json.dumps({
    "config": config_digest(config),
    "key": cache_key(
        *key_inputs("design.blif", b"netlist", b"clocks", "phi1"), config
    ),
}))
"""

    def _run_subprocess(self, hash_seed: str) -> dict:
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(REPO_SRC),
                "PYTHONHASHSEED": hash_seed,
                "PATH": "/usr/bin:/bin",
            },
            check=True,
        )
        return json.loads(proc.stdout)

    def test_byte_stable_across_restarts_and_hash_seeds(self):
        config = analysis_config(slow_path_limit=7, tolerance=0.25)
        here = {
            "config": config_digest(config),
            "key": _key(default_clock="phi1", config=config),
        }
        for seed in ("0", "12345"):
            there = self._run_subprocess(seed)
            assert there == here, f"digest drift with hash seed {seed}"


class TestCacheKey:
    def test_folds_in_payload_schema_version(self, monkeypatch):
        import repro.service.digest as digest_module

        key_a = _key()
        monkeypatch.setattr(
            digest_module, "PAYLOAD_SCHEMA_VERSION",
            PAYLOAD_SCHEMA_VERSION + 1,
        )
        assert _key() != key_a
        assert PAYLOAD_SCHEMA_VERSION >= 1
