"""Fault tolerance and elastic deployment (paper §IV).

"As a production library, AIACC-Training also provides fault-tolerance to
restart the training process from the last checkpoint upon node failure
and elastic deployment by propagating training parameters into newly
added computing nodes."

:class:`CheckpointManager` persists model/optimizer state atomically and
restores the most recent valid checkpoint.  The worker group that
restores from it on failure, and broadcasts live parameters to joiners
on scale-up, is :class:`repro.core.elastic.ElasticRuntime`.
"""

from __future__ import annotations

import json
import os
import pathlib
import typing as t

import numpy as np

from repro.errors import CheckpointError, require_count

State = t.Dict[str, np.ndarray]


class CheckpointManager:
    """Atomic on-disk checkpoints of training state."""

    def __init__(self, directory: str | pathlib.Path,
                 keep_last: int = 3) -> None:
        keep_last = require_count("keep_last", keep_last, 1, CheckpointError)
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_last = keep_last
        #: Checkpoint files :meth:`load` skipped because they were
        #: corrupt, newest first.
        self.skipped: list[pathlib.Path] = []
        # Sweep temp files left by a writer that crashed mid-save; they
        # are partial by definition and must never shadow a real
        # checkpoint.
        for stale in self.directory.glob(".tmp-ckpt-*.npz"):
            stale.unlink()

    # -- save ------------------------------------------------------------------

    def save(self, iteration: int, parameters: State,
             optimizer_state: State | None = None,
             metadata: t.Mapping[str, object] | None = None) -> pathlib.Path:
        """Write checkpoint ``iteration`` atomically; prune old ones."""
        iteration = require_count("iteration", iteration, 0, CheckpointError)
        path = self.directory / f"ckpt-{iteration:010d}.npz"
        # The temp name must NOT match the ckpt-*.npz glob: a writer
        # crashing between the write and the rename would otherwise
        # leave a partial file that latest() happily returns.
        tmp = self.directory / f".tmp-{path.name}"
        payload: dict[str, np.ndarray] = {
            f"param/{k}": np.asarray(v) for k, v in parameters.items()}
        for key, value in (optimizer_state or {}).items():
            payload[f"opt/{key}"] = np.asarray(value)
        payload["meta/json"] = np.frombuffer(
            json.dumps({"iteration": iteration,
                        **dict(metadata or {})}).encode(), dtype=np.uint8)
        # Flush + fsync before the rename: os.replace is atomic against
        # readers, but only a sync makes the *content* durable — without
        # it a crash just after the rename can surface a checkpoint
        # whose metadata/tensor bytes never hit the disk.
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(path)
        self._prune()
        return path

    # -- load ------------------------------------------------------------------

    def latest(self) -> pathlib.Path | None:
        """Path of the newest checkpoint, or None when none exist."""
        checkpoints = sorted(self.directory.glob("ckpt-*.npz"))
        return checkpoints[-1] if checkpoints else None

    def load(self, path: pathlib.Path | None = None
             ) -> tuple[int, State, State, dict]:
        """Restore (iteration, parameters, optimizer_state, metadata).

        Without an explicit ``path``, tries checkpoints newest-first and
        falls back past corrupt files (recording them in
        :attr:`skipped`): recovery restarting from a checkpoint that was
        being overwritten when the node died must not be stranded by the
        newest file being garbage.
        """
        if path is not None:
            return self._load_one(path)
        candidates = sorted(self.directory.glob("ckpt-*.npz"), reverse=True)
        if not candidates:
            raise CheckpointError(
                f"no checkpoint found in {self.directory}"
            )
        failures: list[str] = []
        for target in candidates:
            try:
                return self._load_one(target)
            except CheckpointError as exc:
                self.skipped.append(target)
                failures.append(str(exc))
        raise CheckpointError(
            f"all {len(candidates)} checkpoints in {self.directory} are "
            f"corrupt: {'; '.join(failures)}"
        )

    def _load_one(self, target: pathlib.Path
                  ) -> tuple[int, State, State, dict]:
        try:
            with np.load(target) as data:
                parameters: State = {}
                optimizer_state: State = {}
                metadata: dict = {}
                for key in data.files:
                    if key.startswith("param/"):
                        parameters[key[len("param/"):]] = data[key]
                    elif key.startswith("opt/"):
                        optimizer_state[key[len("opt/"):]] = data[key]
                    elif key == "meta/json":
                        metadata = json.loads(bytes(data[key]).decode())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"corrupt checkpoint {target}: {exc}") \
                from exc
        iteration = int(metadata.pop("iteration", 0))
        return iteration, parameters, optimizer_state, metadata

    def _prune(self) -> None:
        checkpoints = sorted(self.directory.glob("ckpt-*.npz"))
        for stale in checkpoints[:-self.keep_last]:
            stale.unlink()
