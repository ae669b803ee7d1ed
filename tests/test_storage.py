"""Checkpoint binary format, diagnostics CSV, and the output lock."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plsim.diagnostics import DiagnosticsSeries
from plsim.grid import Field, make_grid
from plsim.storage import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    output_lock,
    read_checkpoint,
    read_diagnostics_csv,
    write_checkpoint,
    write_diagnostics_csv,
)


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points))


class TestCheckpoints:
    def test_round_trip_condensate_only(self, tmp_path):
        grid = make_grid(32, 2 * np.pi)
        u = random_field(grid, 0)
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, u, None, 1.25, "deadbeef")
        u2, n2, header = read_checkpoint(path)
        np.testing.assert_array_equal(u2.values, u.values)
        assert n2 is None
        assert header["time"] == 1.25
        assert header["config_hash"] == "deadbeef"
        assert u2.grid == grid

    def test_round_trip_with_reservoir(self, tmp_path):
        grid = make_grid(16, 4.0)
        u = random_field(grid, 1)
        n = Field(grid, np.abs(np.random.default_rng(2).standard_normal(16)).astype(complex))
        path = tmp_path / "b.ckpt"
        write_checkpoint(path, u, n, 0.0, "x")
        u2, n2, _ = read_checkpoint(path)
        np.testing.assert_array_equal(u2.values, u.values)
        np.testing.assert_array_equal(n2.values, n.values)

    def test_save_load_save_byte_identical(self, tmp_path):
        grid = make_grid(32, 2 * np.pi)
        u = random_field(grid, 3)
        first = tmp_path / "c1.ckpt"
        second = tmp_path / "c2.ckpt"
        write_checkpoint(first, u, None, 0.5, "h")
        u2, n2, header = read_checkpoint(first)
        write_checkpoint(second, u2, n2, header["time"], header["config_hash"])
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMGK" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        grid = make_grid(16, 1.0)
        path = tmp_path / "t.ckpt"
        write_checkpoint(path, random_field(grid, 4), None, 0.0, "h")
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CheckpointError, match="payload"):
            read_checkpoint(path)

    @pytest.mark.parametrize("keep", [len(CHECKPOINT_MAGIC), len(CHECKPOINT_MAGIC) + 2])
    def test_truncated_length_field_rejected(self, tmp_path, keep):
        path = tmp_path / "t.ckpt"
        write_checkpoint(path, random_field(make_grid(8, 1.0), 5), None, 0.0, "h")
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(CheckpointError, match="header length"):
            read_checkpoint(path)

    def test_partial_float_in_payload_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_checkpoint(path, random_field(make_grid(8, 1.0), 5), None, 0.0, "h")
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CheckpointError, match=str(path)):
            read_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["u", "n"])
    def test_non_finite_payload_rejected(self, tmp_path, part, value):
        grid = make_grid(8, 2.0)
        path = tmp_path / "nf.ckpt"
        n = Field(grid, np.linspace(0.0, 1.0, 8).astype(complex))
        write_checkpoint(path, random_field(grid, 7), n, 0.25, "h")
        raw = bytearray(path.read_bytes())
        # payload: 2N floats of u, then N floats of n; damage the first of either
        offset = len(raw) - 8 * 3 * grid.n_points + (8 * 2 * grid.n_points if part == "n" else 0)
        raw[offset : offset + 8] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="non-finite") as excinfo:
            read_checkpoint(path)
        assert str(path) in str(excinfo.value)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_checkpoint_reads_or_raises_checkpoint_error(self, tmp_path, data):
        grid = make_grid(8, 2.0)
        path = tmp_path / "d.ckpt"
        n = Field(grid, np.linspace(0.0, 1.0, 8).astype(complex))
        write_checkpoint(path, random_field(grid, 6), n, 0.25, "h")
        original = path.read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            damaged = original[: data.draw(st.integers(0, len(original) - 1), label="keep")]
        else:
            damaged = bytearray(original)
            for _ in range(data.draw(st.integers(1, 4), label="mutations")):
                index = data.draw(st.integers(0, len(original) - 1), label="index")
                damaged[index] = data.draw(st.integers(0, 255), label="byte")
        path.write_bytes(bytes(damaged))
        try:
            u, n, _ = read_checkpoint(path)
        except CheckpointError as err:
            assert str(path) in str(err)
        else:
            assert np.all(np.isfinite(u.values))
            assert n is None or np.all(np.isfinite(n.values))

    def test_magic_is_fixed(self):
        assert CHECKPOINT_MAGIC == b"PLSIM1"


class TestDiagnosticsCsv:
    def test_round_trip_plain(self, tmp_path):
        d = DiagnosticsSeries(
            times=np.linspace(0, 1, 11), mass=np.linspace(1, 2, 11), l4_fourth=np.linspace(3, 4, 11)
        )
        path = tmp_path / "d.csv"
        write_diagnostics_csv(path, d)
        d2 = read_diagnostics_csv(path)
        np.testing.assert_array_equal(d2.times, d.times)
        np.testing.assert_array_equal(d2.mass, d.mass)
        assert not d2.has_reservoir

    def test_round_trip_reservoir(self, tmp_path):
        n = 7
        d = DiagnosticsSeries(
            times=np.arange(n, dtype=float),
            mass=np.random.default_rng(0).uniform(0, 1, n),
            l4_fourth=np.random.default_rng(1).uniform(0, 1, n),
            n_integral=np.random.default_rng(2).uniform(0, 1, n),
            n_sq_integral=np.random.default_rng(3).uniform(0, 1, n),
            n_min=np.random.default_rng(4).uniform(0, 1, n),
        )
        path = tmp_path / "e.csv"
        write_diagnostics_csv(path, d)
        d2 = read_diagnostics_csv(path)
        np.testing.assert_array_equal(d2.n_sq_integral, d.n_sq_integral)
        np.testing.assert_array_equal(d2.n_min, d.n_min)

    def test_rewrite_byte_identical(self, tmp_path):
        d = DiagnosticsSeries(
            times=np.linspace(0, 1, 11),
            mass=np.random.default_rng(5).uniform(0, 1, 11),
            l4_fourth=np.random.default_rng(6).uniform(0, 1, 11),
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_diagnostics_csv(a, d)
        write_diagnostics_csv(b, read_diagnostics_csv(a))
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_csv_reads_or_raises_naming_file(self, tmp_path, data):
        d = DiagnosticsSeries(
            times=np.linspace(0, 1, 5), mass=np.linspace(1, 2, 5), l4_fourth=np.linspace(3, 4, 5),
            n_integral=np.linspace(0, 1, 5), n_sq_integral=np.linspace(0, 2, 5),
            n_min=np.linspace(0, 0.5, 5),
        )
        path = tmp_path / "d.csv"
        write_diagnostics_csv(path, d)
        original = path.read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            damaged = original[: data.draw(st.integers(0, len(original) - 1), label="keep")]
        else:
            damaged = bytearray(original)
            for _ in range(data.draw(st.integers(1, 4), label="mutations")):
                index = data.draw(st.integers(0, len(original) - 1), label="index")
                damaged[index] = data.draw(st.integers(0, 255), label="byte")
        path.write_bytes(bytes(damaged))
        try:
            read_diagnostics_csv(path)
        except ValueError as err:
            assert str(path) in str(err)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="columns"):
            read_diagnostics_csv(path)


class TestLock:
    def test_exclusive(self, tmp_path):
        target = tmp_path / "out"
        with output_lock(target):
            with pytest.raises(RuntimeError, match="locked"):
                with output_lock(target):
                    pass
        # released: can lock again
        with output_lock(target):
            pass
