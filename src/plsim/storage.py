"""On-disk artifacts: diagnostics CSV, report JSON, binary checkpoints, locks.

Checkpoint layout: the magic bytes ``PLSIM1``, a little-endian uint32
header length, a UTF-8 JSON header (format version, producing config hash,
time, grid geometry), then the payload as little-endian float64: one
(re, im) pair per grid point for the condensate, followed by one float per
point for the reservoir when present.  Every payload value is finite.

All writers are deterministic: identical inputs produce byte-identical
files (floats are serialized with shortest round-trip repr).  Checkpoints
and JSON files are written to ``<path>.tmp`` and renamed into place, and
the diagnostics CSV is written a whole line at a time, so a killed writer
leaves no partial checkpoint, JSON file or CSV row.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from .diagnostics import COLUMNS, DiagnosticsSeries
from .grid import Field, make_grid, real_field

__all__ = [
    "CHECKPOINT_MAGIC",
    "CheckpointError",
    "write_checkpoint",
    "read_checkpoint",
    "write_csv",
    "DiagnosticsAppender",
    "read_diagnostics_csv",
    "write_json",
    "output_lock",
]

CHECKPOINT_MAGIC = b"PLSIM1"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def write_checkpoint(path, u: Field, n: Field | None, time: float, config_hash: str) -> None:
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "time": time,
        "n_points": u.grid.n_points,
        "length": u.grid.length,
        "has_reservoir": n is not None,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = np.empty(2 * u.grid.n_points + (u.grid.n_points if n is not None else 0))
    payload[0 : 2 * u.grid.n_points : 2] = u.values.real
    payload[1 : 2 * u.grid.n_points : 2] = u.values.imag
    if n is not None:
        if n.grid != u.grid:
            raise ValueError("u and n must share a grid")
        payload[2 * u.grid.n_points :] = real_field(n, "n").values
    with _replacing(path) as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(np.array(len(header_bytes), dtype="<u4").tobytes())
        handle.write(header_bytes)
        handle.write(payload.astype("<f8").tobytes())


@contextmanager
def _replacing(path):
    """Binary handle on ``<path>.tmp``, renamed over path once the block completes."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        yield handle
    os.replace(tmp, path)


def read_checkpoint(path) -> tuple[Field, Field | None, dict]:
    with open(path, "rb") as handle:
        magic = handle.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        length_field = handle.read(4)
        if len(length_field) != 4:
            raise CheckpointError(f"{path}: truncated before the header length")
        header_len = int.from_bytes(length_field, "little")
        try:
            header = json.loads(handle.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise CheckpointError(f"{path}: corrupt header ({err})") from None
        _check_header(path, header)
        n_points = header["n_points"]
        expected = 2 * n_points + (n_points if header["has_reservoir"] else 0)
        data = handle.read()
        if len(data) != 8 * expected:
            raise CheckpointError(
                f"{path}: payload of {len(data)} bytes does not match header "
                f"({expected} float64 values)"
            )
        payload = np.frombuffer(data, dtype="<f8")
    if not np.all(np.isfinite(payload)):
        raise CheckpointError(f"{path}: payload holds non-finite values")
    grid = make_grid(n_points, header["length"])
    u = Field(grid, payload[0 : 2 * n_points : 2] + 1j * payload[1 : 2 * n_points : 2])
    n = Field(grid, payload[2 * n_points :].copy()) if header["has_reservoir"] else None
    return u, n, header


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _check_header(path, header) -> None:
    """Reject a header of another format version or with unusable fields."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {header.get('format_version')}")
    n_points, length = header.get("n_points"), header.get("length")
    has_reservoir, time = header.get("has_reservoir"), header.get("time")
    if not (_finite_number(n_points) and isinstance(n_points, int)
            and n_points >= 4 and n_points % 2 == 0):
        raise CheckpointError(f"{path}: n_points must be an even integer >= 4, got {n_points!r}")
    if not (_finite_number(length) and length > 0):
        raise CheckpointError(f"{path}: length must be a positive number, got {length!r}")
    if not isinstance(has_reservoir, bool):
        raise CheckpointError(f"{path}: has_reservoir must be a boolean, got {has_reservoir!r}")
    if not _finite_number(time):
        raise CheckpointError(f"{path}: time must be a finite number, got {time!r}")


def write_csv(path, header, rows) -> None:
    """Comma-separated table; floats as shortest round-trip repr, bools lowercase."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(_line(row))


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _line(row) -> str:
    return ",".join(_cell(value) for value in row) + "\n"


class DiagnosticsAppender:
    """diagnostics.csv written as the rows come: the header of COLUMNS on
    opening (the reservoir columns when has_reservoir), then one line per
    appended row.

    The file is line-buffered and each line is one write, so a killed
    writer leaves whole rows only.  Use as a context manager.
    """

    def __init__(self, path, has_reservoir: bool) -> None:
        self._handle = open(path, "w", encoding="utf-8", newline="\n", buffering=1)
        self._handle.write(",".join(COLUMNS if has_reservoir else COLUMNS[:3]) + "\n")

    def append(self, row) -> None:
        """Write one row of values in header order."""
        self._handle.write(_line(row))

    def __enter__(self) -> DiagnosticsAppender:
        return self

    def __exit__(self, *exc) -> None:
        self._handle.close()


def read_diagnostics_csv(path) -> DiagnosticsSeries:
    """Series stored by a DiagnosticsAppender; ValueError naming path (and line) if malformed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            lines = [(number, line.strip()) for number, line in enumerate(handle, start=2)]
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text ({err.reason})") from None
    if header not in (list(COLUMNS[:3]), list(COLUMNS)):
        raise ValueError(f"{path}: unexpected columns {header}")
    rows = []
    for number, line in lines:
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: line {number} has {len(cells)} cells, expected {len(header)}")
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError as err:  # names the cell: could not convert string to float: 'x'
            raise ValueError(f"{path}: line {number}: {err}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    try:
        return DiagnosticsSeries.from_rows(rows)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def write_json(path, obj) -> None:
    """Strict JSON: a non-finite float raises ValueError before the file is touched."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _replacing(path) as handle:
        handle.write(text.encode("utf-8"))


def _stale_lock_owner(lock_path) -> int | None:
    """Pid recorded in the lock file when that process is no longer running."""
    try:
        with open(lock_path, "r", encoding="utf-8") as handle:
            pid = int(handle.read().strip())
        if pid > 0:
            os.kill(pid, 0)
    except ProcessLookupError:
        return pid
    except (OSError, ValueError, OverflowError):
        pass  # unreadable, not yet written, or alive under another user: held
    return None


@contextmanager
def output_lock(directory):
    """Exclusive advisory lock on an output directory (single writer).

    The lock file records the owner's pid.  A lock whose owner is no
    longer running is taken over, with a warning on stderr.
    """
    os.makedirs(directory, exist_ok=True)
    lock_path = os.path.join(directory, ".plsim.lock")
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    try:
        fd = os.open(lock_path, flags)
    except FileExistsError:
        fd = None
        stale = _stale_lock_owner(lock_path)
        if stale is not None:
            print(f"warning: taking over {lock_path} from pid {stale}, which is not running",
                  file=sys.stderr)
            try:
                os.remove(lock_path)
                fd = os.open(lock_path, flags)
            except OSError:  # another run took the lock over first
                pass
        if fd is None:
            raise RuntimeError(
                f"output directory {directory} is locked by another run "
                f"(remove {lock_path} if stale)"
            ) from None
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        try:
            os.remove(lock_path)
        except FileNotFoundError:
            pass
