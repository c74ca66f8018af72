"""Unit tests for model persistence helpers."""

import numpy as np

from repro.nn.serialization import load_state, save_state


class TestSaveLoad:
    def test_round_trip_preserves_arrays(self, tmp_path):
        state = {
            "gru/W": np.arange(6.0).reshape(2, 3),
            "head/b": np.array([1.0, 2.0]),
            "meta/input_size": np.array([32]),
        }
        path = save_state(tmp_path / "model", state)
        restored = load_state(path)
        assert set(restored) == set(state)
        for key in state:
            assert np.array_equal(restored[key], state[key])

    def test_npz_suffix_is_appended(self, tmp_path):
        path = save_state(tmp_path / "model", {"a": np.zeros(1)})
        assert path.suffix == ".npz"

    def test_load_accepts_path_without_suffix(self, tmp_path):
        save_state(tmp_path / "model", {"a": np.ones(2)})
        restored = load_state(tmp_path / "model")
        assert np.array_equal(restored["a"], np.ones(2))

    def test_keys_with_slashes_survive(self, tmp_path):
        state = {"deeply/nested/key/name": np.array([7.0])}
        restored = load_state(save_state(tmp_path / "model", state))
        assert "deeply/nested/key/name" in restored


class TestMmapLoad:
    def test_mmap_load_matches_eager_load(self, tmp_path):
        rng = np.random.default_rng(3)
        state = {
            "gru/W": rng.normal(size=(17, 9)),
            "ae/encode/b": rng.normal(size=33),
            "scaler/log_columns": rng.random(32) < 0.5,
            "meta/input_size": np.array([32]),
        }
        path = save_state(tmp_path / "model", state)
        eager = load_state(path)
        mapped = load_state(path, mmap_mode="r")
        assert set(mapped) == set(eager)
        for key in eager:
            assert np.array_equal(mapped[key], eager[key]), key
            assert mapped[key].dtype == eager[key].dtype

    def test_mmap_arrays_are_read_only_memmaps(self, tmp_path):
        path = save_state(tmp_path / "model", {"w": np.arange(12.0).reshape(3, 4)})
        mapped = load_state(path, mmap_mode="r")["w"]
        assert isinstance(mapped, np.memmap)
        import pytest

        with pytest.raises(ValueError):
            mapped[0, 0] = 99.0

    def test_only_read_mode_is_supported(self, tmp_path):
        path = save_state(tmp_path / "model", {"w": np.zeros(2)})
        import pytest

        with pytest.raises(ValueError):
            load_state(path, mmap_mode="r+")


def _mixed_state():
    rng = np.random.default_rng(5)
    return {
        "gru/W": rng.normal(size=(17, 9)),
        "odd/b": rng.normal(size=3),
        "fortran": np.asfortranarray(rng.normal(size=(5, 7))),
        "scaler/log_columns": rng.random(13) < 0.5,
        "meta/input_size": np.array([32], dtype=np.int64),
        "meta/backend": np.frombuffer(b"gru", dtype=np.uint8).copy(),
    }


class TestAlignedArchive:
    def test_plain_np_load_reads_the_archive(self, tmp_path):
        state = _mixed_state()
        path = save_state(tmp_path / "model", state)
        with np.load(path) as archive:
            restored = {key.replace("__slash__", "/"): archive[key] for key in archive.files}
        assert set(restored) == set(state)
        for key in state:
            assert np.array_equal(restored[key], state[key]), key

    def test_every_mapped_member_is_aligned_read_only_and_shares_one_mapping(self, tmp_path):
        path = save_state(tmp_path / "model", _mixed_state())
        mapped = load_state(path, mmap_mode="r")
        for key, value in mapped.items():
            assert isinstance(value, np.memmap), key
            assert value.flags.aligned and value.ctypes.data % 64 == 0, key
            assert not value.flags.writeable, key
        assert len({id(value._mmap) for value in mapped.values()}) == 1

    def test_legacy_savez_members_get_aligned_read_only_copies(self, tmp_path):
        state = _mixed_state()
        path = tmp_path / "legacy.npz"
        np.savez(path, **{key.replace("/", "__slash__"): value for key, value in state.items()})
        eager = load_state(path)
        mapped = load_state(path, mmap_mode="r")
        assert set(mapped) == set(eager)
        for key in eager:
            assert np.array_equal(mapped[key], eager[key]), key
            assert mapped[key].dtype == eager[key].dtype, key
            assert mapped[key].flags.aligned and not mapped[key].flags.writeable, key


class TestLoadWithoutInit:
    def test_from_state_dict_draws_no_random_numbers(self, tmp_path, monkeypatch):
        """Loading builds every layer around the stored arrays: no
        initialiser runs and no generator is created."""
        from repro.nn import dense, gru
        from repro.nn.autoencoder import Autoencoder
        from repro.nn.backend import GruBackend, QuantizedGruBackend, backend_from_state_dict

        classifier = GruBackend(4, 5, 3, seed=1)
        models = {
            "gru": classifier,
            "quantized": QuantizedGruBackend.quantize(classifier),
            "ae": Autoencoder(8, bottleneck_size=2, depth=3, seed=1),
        }
        paths = {name: save_state(tmp_path / name, model.state_dict()) for name, model in models.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("a random initialiser ran while loading a model")

        monkeypatch.setattr(dense, "glorot_uniform", refuse)
        monkeypatch.setattr(gru, "glorot_uniform", refuse)
        monkeypatch.setattr(gru, "orthogonal", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        for name, model in models.items():
            for mmap_mode in (None, "r"):
                state = load_state(paths[name], mmap_mode=mmap_mode)
                load = Autoencoder.from_state_dict if name == "ae" else backend_from_state_dict
                restored = load(state)
                assert type(restored) is type(model)
                for key, value in model.parameters.items():
                    assert np.array_equal(restored.parameters[key], value), (name, key)
                if name == "gru":
                    # The loaded arrays themselves, not copies.
                    assert all(restored.parameters[key] is state[key] for key in model.parameters)
