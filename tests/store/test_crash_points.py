"""The commit path at every crash point.

``write_record`` takes six steps: write, fsync and rename the payload's
temp file, then the same three for the manifest, whose rename is the
commit point.  Each step is made to fail in turn, three ways: ENOSPC,
EIO, and a SIGKILL that leaves the temp file behind.  After every
failure the store must read the record as absent or complete through
``has_record``, ``read_record`` and ``iter_records``; ``gc`` with no
grace period must leave no debris; and re-running the point must
converge to a store byte-identical to a clean run.

The scheduler's own files get the same treatment at their two kill
points: inside ``init_grid``'s atomic manifest write, and inside a
stale-lease reclaim between ``break_stale``'s rename and its unlink.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import signal
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

import repro.store.records as records
from repro.exceptions import SchedulerError
from repro.scenario import sweep_scenario
from repro.sched import GridSpec, LeaseManager, grid_status, init_grid, load_grid, run_grid
from repro.sched.scheduler import GRID_MANIFEST
from repro.store import ResultStore
from repro.store.locks import STALE_INFIX
from repro.store.records import PAYLOAD_SUFFIX, TMP_PREFIX

from tests.serve.test_request import tiny_spec

STEPS = (
    "payload_write",
    "payload_fsync",
    "payload_rename",
    "manifest_write",
    "manifest_fsync",
    "manifest_rename",
)
FAILURES = ("ENOSPC", "EIO", "kill")
GAMMA = 0.03


def sweep_point(store: ResultStore) -> list[bool]:
    out = sweep_scenario(tiny_spec(), "algorithm.gamma", [GAMMA], trials=2, store=store)
    return out.resumed


def files_under(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """``(digest, arrays, meta, results/ files)`` of one cleanly run point."""
    store = ResultStore(tmp_path_factory.mktemp("clean"))
    assert sweep_point(store) == [False]
    ((digest, _),) = list(store.iter_records())
    record = store.read_record(digest)
    assert record is not None
    meta = {k: v for k, v in record.meta.items() if k != "format"}
    return digest, record.arrays, meta, files_under(store.results_dir)


def _kind(path: Any) -> str:
    return "payload" if str(path).endswith(PAYLOAD_SUFFIX) else "manifest"


class _TornFile:
    """A temp file whose write lands half its bytes and then fails."""

    def __init__(self, file: Any, fail: Callable[[], None]) -> None:
        self._file = file
        self._fail = fail

    def __enter__(self) -> "_TornFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self._file.close()

    def write(self, data: bytes) -> None:
        self._file.write(data[: len(data) // 2])
        self._file.flush()
        self._fail()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._file, name)


def crash_at(patch: Callable[[Any, str, Any], None], step: str, fail: Callable[[], None]) -> None:
    """Route ``write_record``'s file operations so that ``step`` calls ``fail``."""
    real_open, real_fsync, real_replace = open, os.fsync, os.replace
    kinds: dict[int, str] = {}

    def fake_open(path: Any, mode: str = "r", *args: Any, **kwargs: Any) -> Any:
        file = real_open(path, mode, *args, **kwargs)
        kinds[file.fileno()] = _kind(path)
        return _TornFile(file, fail) if step == f"{_kind(path)}_write" else file

    def fake_fsync(fd: int) -> None:
        if step == f"{kinds.get(fd)}_fsync":
            fail()
        real_fsync(fd)

    def fake_replace(src: Any, dst: Any) -> None:
        if step == f"{_kind(dst)}_rename":
            fail()
        real_replace(src, dst)

    patch(records, "open", fake_open)
    patch(os, "fsync", fake_fsync)
    patch(os, "replace", fake_replace)


def _killed_writer(root: str, step: str, digest: str, arrays: Any, meta: Any) -> None:
    """Child process body: write the record and die by SIGKILL at ``step``."""
    crash_at(setattr, step, lambda: os.kill(os.getpid(), signal.SIGKILL))
    ResultStore(root).write_record(digest, arrays, meta)


def fail_write(monkeypatch, store: ResultStore, step: str, failure: str, clean) -> None:
    digest, arrays, meta, _ = clean
    if failure == "kill":
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=_killed_writer, args=(str(store.root), step, digest, arrays, meta)
        )
        proc.start()
        proc.join(timeout=30.0)
        assert proc.exitcode == -signal.SIGKILL
        assert list(store.results_dir.rglob(f"{TMP_PREFIX}*")), "no temp file left behind"
        return
    code = getattr(errno, failure)

    def fail() -> None:
        raise OSError(code, os.strerror(code))

    with monkeypatch.context() as m:
        crash_at(lambda obj, name, value: m.setattr(obj, name, value, raising=False), step, fail)
        with pytest.raises(OSError) as info:
            store.write_record(digest, arrays, meta)
    assert info.value.errno == code
    # A writer that lives to see its error removes its own temp file.
    assert not list(store.results_dir.rglob(f"{TMP_PREFIX}*"))


@pytest.mark.parametrize("failure", FAILURES)
@pytest.mark.parametrize("step", STEPS)
def test_commit_path_crash_point(tmp_path, monkeypatch, clean, step, failure):
    digest, arrays, _, clean_files = clean
    store = ResultStore(tmp_path)
    fail_write(monkeypatch, store, step, failure, clean)

    # Every step precedes the manifest rename, so the record is absent
    # on all three read paths (and never half-visible).
    assert not store.has_record(digest)
    assert store.read_record(digest) is None
    assert digest not in dict(store.iter_records())

    store.gc(grace_seconds=0)
    assert files_under(store.results_dir) == {}

    assert sweep_point(store) == [False]
    assert files_under(store.results_dir) == clean_files
    record = store.read_record(digest)
    assert record is not None
    for name, array in arrays.items():
        assert np.array_equal(record.arrays[name], array)


# ----------------------------------------------------------------------
# Scheduler state: grid manifests and lease reclaims

SCHED_KILLS = ("init_grid", "lease_reclaim")


def one_point_grid() -> GridSpec:
    """The ``clean`` point as a one-axis grid (same digest, same record)."""
    return GridSpec(
        spec=tiny_spec(),
        axes=[{"parameter": "algorithm.gamma", "values": [GAMMA]}],
        trials=2,
    )


def _debris(root: Path) -> list[Path]:
    return [
        path
        for path in root.rglob("*")
        if path.is_file() and (path.name.startswith(TMP_PREFIX) or STALE_INFIX in path.name)
    ]


def _killed_init(root: str) -> None:
    """Child process body: die by SIGKILL as ``init_grid`` renames its
    fsync'd temp file onto ``grid.json``."""
    real_replace = os.replace

    def replace(src: Any, dst: Any) -> None:
        if Path(dst).name == GRID_MANIFEST:
            os.kill(os.getpid(), signal.SIGKILL)
        real_replace(src, dst)

    os.replace = replace
    init_grid(root, one_point_grid())


def _killed_reclaimer(root: str) -> None:
    """Child process body: reclaim a stale lease and die by SIGKILL
    before unlinking the file ``break_stale`` renamed aside."""
    real_unlink = os.unlink

    def unlink(path: Any, *args: Any, **kwargs: Any) -> None:
        if STALE_INFIX in Path(path).name:
            os.kill(os.getpid(), signal.SIGKILL)
        real_unlink(path, *args, **kwargs)

    os.unlink = unlink
    grid = one_point_grid()
    manager = LeaseManager(ResultStore(root).sched_dir / grid.grid_digest(), ttl=1.0)
    manager.try_claim(grid.points()[0].digest)


@pytest.mark.parametrize("kill", SCHED_KILLS)
def test_scheduler_crash_point(tmp_path, clean, kill):
    _, _, _, clean_files = clean
    grid = one_point_grid()
    store = ResultStore(tmp_path)
    if kill == "lease_reclaim":
        init_grid(store, grid)
        dead = LeaseManager(store.sched_dir / grid.grid_digest(), ttl=1.0, worker_id="dead")
        lease = dead.try_claim(grid.points()[0].digest)
        old = lease.path.stat().st_mtime - 10.0
        os.utime(lease.path, (old, old))
    body = _killed_init if kill == "init_grid" else _killed_reclaimer
    proc = multiprocessing.get_context("fork").Process(target=body, args=(str(store.root),))
    proc.start()
    proc.join(timeout=30.0)
    assert proc.exitcode == -signal.SIGKILL
    assert _debris(store.sched_dir), "the kill left no debris behind"

    # The interrupted step reads as never taken: no grid, or no lease.
    if kill == "init_grid":
        with pytest.raises(SchedulerError, match="no grids"):
            load_grid(store)
    else:
        assert grid_status(store, grid, ttl=1.0)["pending"] == 1

    store.gc(grace_seconds=0, max_age_seconds=0)
    assert _debris(store.root) == []

    assert run_grid(store, grid)["done"]
    assert files_under(store.results_dir) == clean_files
    manifest = (grid.to_json() + "\n").encode("utf-8")
    assert files_under(store.sched_dir) == {f"{grid.grid_digest()}/{GRID_MANIFEST}": manifest}
