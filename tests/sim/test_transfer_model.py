"""TransferSimModel: codec economics in the DES, validated against the
threaded engine's measured bytes-on-wire."""

import pytest

from repro.apps.wordcount import WordCountSpec
from repro.bursting.config import EnvironmentConfig
from repro.bursting.driver import simulate_environment
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.generator import generate_tokens
from repro.runtime import ClusterConfig, make_engine
from repro.sim.calibration import AppSimProfile
from repro.sim.simrun import SimClusterConfig, simulate_run
from repro.sim.topology import TransferSimModel
from repro.storage.local import MemoryStore


def env5050():
    return EnvironmentConfig("t", 0.5, 4, 4)


class TestModel:
    def test_defaults_identity(self):
        m = TransferSimModel()
        assert m.wire_nbytes(1000) == 1000
        assert m.decode_s(1000) == 0.0

    def test_wire_rounds_up_and_floors_at_one(self):
        m = TransferSimModel("zlib", 0.55, 0.0)
        assert m.wire_nbytes(1000) == 550
        assert m.wire_nbytes(1) == 1
        assert m.wire_nbytes(0) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"compress_ratio": 0.0},
            {"compress_ratio": 1.5},
            {"compress_ratio": -0.2},
            {"decode_s_per_byte": -1e-9},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TransferSimModel("x", **{"compress_ratio": 0.5, **kwargs})

    def test_for_codec_known_and_unknown(self):
        for name in ("identity", "zlib", "lz4", "shuffle"):
            m = TransferSimModel.for_codec(name)
            assert m.codec == name
            assert 0 < m.compress_ratio <= 1
        assert TransferSimModel.for_codec("identity").compress_ratio == 1.0
        with pytest.raises(ValueError, match="unknown codec"):
            TransferSimModel.for_codec("gzip")

    def test_shuffle_beats_zlib_beats_identity_on_wire(self):
        n = 1 << 20
        wires = [
            TransferSimModel.for_codec(c).wire_nbytes(n)
            for c in ("shuffle", "zlib", "identity")
        ]
        assert wires[0] < wires[1] < wires[2]


class TestSimulatedCompression:
    def test_compression_cuts_wire_bytes_and_total(self):
        plain = simulate_environment("knn", env5050(), seed=4)
        comp = simulate_environment("knn", env5050(), seed=4, codec="shuffle")
        assert comp.stats.bytes_logical == plain.stats.bytes_logical
        ratio = TransferSimModel.for_codec("shuffle").compress_ratio
        assert comp.stats.bytes_wire == pytest.approx(
            plain.stats.bytes_wire * ratio, rel=0.01
        )
        assert comp.stats.decode_s > 0
        # knn is retrieval-dominated: shipping 40% of the bytes must
        # shorten the run even after paying for the decode.
        assert comp.total_s < plain.total_s

    def test_identity_transfer_is_a_noop(self):
        plain = simulate_environment("knn", env5050(), seed=4)
        ident = simulate_environment(
            "knn", env5050(), seed=4, transfer=TransferSimModel()
        )
        assert ident.total_s == plain.total_s
        assert ident.stats.bytes_wire == plain.stats.bytes_wire

    def test_explicit_transfer_overrides_codec_default(self):
        custom = TransferSimModel("zlib", 0.25, 0.0)
        res = simulate_environment(
            "knn", env5050(), seed=4, codec="zlib", transfer=custom
        )
        assert res.stats.compress_ratio == pytest.approx(0.25, rel=0.01)

    def test_deterministic_with_transfer(self):
        kw = dict(seed=9, codec="shuffle")
        a = simulate_environment("knn", env5050(), **kw)
        b = simulate_environment("knn", env5050(), **kw)
        assert a.total_s == b.total_s
        assert a.stats.bytes_wire == b.stats.bytes_wire


class TestSimMatchesThreadedEngine:
    def test_bytes_on_wire_within_5_percent(self):
        """The DES, fed the measured compress ratio of a real shuffled
        dataset, predicts the threaded engine's bytes-on-wire."""
        toks = generate_tokens(40000, 500, seed=21)
        spec = WordCountSpec()
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        index = write_dataset(
            toks, spec.fmt, stores["local"], n_files=4,
            chunk_units=2000, codec="shuffle",
        )
        index = distribute_dataset(
            index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
        )
        enc_total = sum(c.enc_nbytes for c in index.chunks)
        logical_total = sum(c.nbytes for c in index.chunks)

        clusters = [
            ClusterConfig("local", "local", 2, 2),
            ClusterConfig("cloud", "cloud", 2, 2),
        ]
        rr = make_engine("threaded", clusters, stores, batch_size=2).run(
            spec, index
        )
        assert rr.stats.bytes_wire == enc_total
        assert rr.stats.bytes_logical == logical_total

        # Same index through the DES with the measured ratio.
        model = TransferSimModel("shuffle", enc_total / logical_total, 0.0)
        profile = AppSimProfile(
            "wordcount-sim", spec.fmt.unit_nbytes, 1e-7, 1 << 20
        )
        sim_clusters = [
            SimClusterConfig("local", "local", 2),
            SimClusterConfig("cloud", "cloud", 2),
        ]
        sres = simulate_run(index, sim_clusters, profile, transfer=model)
        assert sres.stats.bytes_logical == logical_total
        assert sres.stats.bytes_wire == pytest.approx(enc_total, rel=0.05)
