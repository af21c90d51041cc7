"""Perseus: the Horovod-compatible numeric API of AIACC-Training.

"AIACC-Training provides a unified communication API (named Perseus) to
all supported programming models ... porting Horovod distributed training
programs to AIACC-Training ... means just changing one line of the code by
replacing the import package from Horovod to Perseus" (paper §IV).

This module is the **numeric** execution mode: it runs ``size`` simulated
data-parallel workers inside one Python process and performs real
reductions on real numpy arrays through the full AIACC pipeline —
registration, decentralized bit-vector synchronization, packing into
all-reduce units, ring all-reduce, unpacking — so end-to-end gradient math
is verifiable.  The timed mode (:class:`repro.core.engine.AIACCBackend`)
shares the same components but models performance instead.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.errors import RegistrationError, SynchronizationError, \
    require_count
from repro.collectives.primitives import ReduceOp
from repro.collectives.broadcast import broadcast as numeric_broadcast
from repro.collectives.ring import ring_allreduce
from repro.core.compression import FP16Compressor, NullCompressor
from repro.core.debugging import GradientDebugger
from repro.core.packing import GradientPacker
from repro.core.registration import GradientRegistry
from repro.core.runtime import AIACCConfig
from repro.core.synchronization import synchronize_all
from repro.models.base import ParameterSpec

Gradients = t.Dict[str, np.ndarray]


class PerseusSession:
    """A group of simulated data-parallel workers sharing one model.

    Parameters
    ----------
    size:
        Number of data-parallel workers.
    config:
        AIACC runtime configuration (granularity, compression, NaN check).
    """

    def __init__(self, size: int, config: AIACCConfig | None = None) -> None:
        self._size = require_count("session size", size, 1, RegistrationError)
        self.config = config or AIACCConfig()
        self._registries = [GradientRegistry() for _ in range(self._size)]
        self._shapes: dict[str, tuple[int, ...]] = {}
        #: Per-rank gradients pushed but not yet globally reduced.
        self._pending: list[dict[str, np.ndarray]] = [
            {} for _ in range(size)]
        self.debugger = GradientDebugger(nan_check=self.config.nan_check)
        if self.config.fp16_compression:
            self.compressor: FP16Compressor | NullCompressor = \
                FP16Compressor()
        else:
            self.compressor = NullCompressor()
        self.steps_completed = 0

    # -- Horovod-style introspection ----------------------------------------

    def size(self) -> int:
        """Number of workers (Horovod's ``hvd.size()``)."""
        return self._size

    def local_size(self) -> int:
        """Workers per node; the numeric mode runs one simulated node."""
        return self._size

    def ranks(self) -> range:
        """All worker ranks."""
        return range(self._size)

    # -- registration -----------------------------------------------------------

    def register_parameters(self,
                            shapes: t.Mapping[str, tuple[int, ...]]) -> None:
        """Register the model's parameters on every worker.

        Mirrors Fig. 8a: each worker registers the same sorted parameter
        set and receives identical gradient ids.
        """
        if self._shapes:
            raise RegistrationError("parameters already registered")
        if not shapes:
            raise RegistrationError("no parameters to register")
        self._shapes = {name: tuple(shape) for name, shape in shapes.items()}
        for registry in self._registries:
            for name, shape in self._shapes.items():
                count = int(np.prod(shape)) if shape else 1
                registry.register(ParameterSpec(name, count))
            registry.freeze()

    @property
    def registered(self) -> bool:
        return bool(self._shapes)

    # -- collectives ---------------------------------------------------------------

    def allreduce(self, arrays: t.Sequence[np.ndarray],
                  op: ReduceOp = ReduceOp.AVG) -> list[np.ndarray]:
        """Plain all-reduce of one array per worker (``hvd.allreduce``)."""
        flat = [np.asarray(a, dtype=np.float64).ravel() for a in arrays]
        reduced = ring_allreduce(flat, op=op)
        return [r.reshape(np.asarray(a).shape)
                for r, a in zip(reduced, arrays)]

    def broadcast_parameters(self, parameters: t.Sequence[Gradients | None],
                             root_rank: int = 0) -> list[Gradients]:
        """Broadcast the root's parameter dict to all workers.

        Horovod's ``hvd.broadcast_parameters``; also the elastic-join path
        (paper §IV: "propagating training parameters into newly added
        computing nodes").
        """
        root = parameters[root_rank]
        if root is None:
            raise RegistrationError("root worker has no parameters")
        result: list[Gradients] = [dict() for _ in parameters]
        for name in sorted(root):
            received = numeric_broadcast(
                [root[name].ravel() if rank == root_rank else None
                 for rank in range(len(parameters))],
                root=root_rank)
            for rank, value in enumerate(received):
                result[rank][name] = value.reshape(root[name].shape)
        return result

    # -- asynchronous (partial-readiness) flow ------------------------------------

    def push_gradient(self, rank: int, name: str,
                      gradient: np.ndarray) -> None:
        """Deposit one locally computed gradient (paper §V-A.2).

        Mirrors the framework hook pushing tensors into the gradient
        queue as backward propagation produces them — in arbitrary order,
        possibly before other workers have the same tensor.
        """
        if not 0 <= rank < self._size:
            raise RegistrationError(f"rank {rank} out of range")
        if not self._shapes:
            raise RegistrationError("register_parameters() first")
        if name not in self._shapes:
            raise RegistrationError(f"unknown parameter {name!r}")
        pending = self._pending[rank]
        if name in pending:
            raise RegistrationError(
                f"gradient {name!r} pushed twice on rank {rank}"
            )
        self.debugger.observe(name, gradient, worker_rank=rank)
        pending[name] = np.asarray(gradient, dtype=np.float64)
        self._registries[rank].mark_ready(name)

    def reduce_ready(self) -> tuple[list[Gradients], list[str]]:
        """Run one synchronization round and reduce what is ready.

        Performs the decentralized bit-vector min all-reduce; tensors
        that *every* worker has pushed are averaged and returned (and
        consumed); tensors still missing somewhere stay pending — the
        exact semantics of Fig. 8b.

        Returns ``(per-worker reduced gradients, ready parameter names)``.
        """
        if not self._shapes:
            raise RegistrationError("register_parameters() first")
        ready_ids = synchronize_all(self._registries)[0]
        specs = self._registries[0].ordered_specs()
        ready_names = [specs[i].name for i in ready_ids]
        results: list[Gradients] = [dict() for _ in range(self._size)]
        for name in ready_names:
            stacked = [self._pending[rank].pop(name)
                       for rank in range(self._size)]
            reduced = ring_allreduce(
                [value.ravel() for value in stacked], op=ReduceOp.SUM)
            for rank in range(self._size):
                results[rank][name] = (
                    reduced[rank] / self._size).reshape(
                    self._shapes[name])
            for registry in self._registries:
                # Consume the bit so the next round reflects only new
                # pushes ("before each backward stage ... set to zeros").
                registry.sync_vector[registry.grad_id(name)] = 0
        return results, ready_names

    def pending_counts(self) -> list[int]:
        """Gradients pushed but not yet globally reduced, per worker."""
        return [len(self._pending[rank]) for rank in range(self._size)]

    # -- the gradient step --------------------------------------------------------

    def reduce_gradients(self,
                         worker_grads: t.Sequence[Gradients]
                         ) -> list[Gradients]:
        """Run one full AIACC gradient exchange; returns averaged gradients.

        Pipeline per paper §V: NaN check → mark readiness → decentralized
        min-all-reduce synchronization → pack into all-reduce units →
        ring all-reduce each unit → unpack → average.
        """
        self._validate_step_input(worker_grads)
        wire_dtype = np.float16 if self.config.fp16_compression \
            else np.float32

        # 1. Debug checks + readiness marking.
        for rank, grads in enumerate(worker_grads):
            registry = self._registries[rank]
            registry.reset_vector()
            for name, gradient in grads.items():
                self.debugger.observe(name, gradient, worker_rank=rank)
                registry.mark_ready(name)

        # 2. Decentralized synchronization (bit-vector min all-reduce).
        ready_views = synchronize_all(self._registries)
        expected = len(self._registries[0].sync_vector)
        for view in ready_views:
            if len(view) != expected:
                raise SynchronizationError(
                    "workers disagree on ready gradients in a dense step"
                )

        # 3. Pack into all-reduce units (element granularity).
        specs = self._registries[0].ordered_specs()
        element_bytes = 2 if self.config.fp16_compression else 4
        granularity_elements = max(
            1, int(self.config.granularity_bytes // element_bytes))
        packer = GradientPacker(granularity_elements)
        units = packer.pack([(i, spec.num_elements)
                             for i, spec in enumerate(specs)])

        # 4. Build per-worker wire buffers in gradient-id order.
        buffers = []
        for rank, grads in enumerate(worker_grads):
            parts = [
                self.compressor.compress(
                    np.asarray(grads[spec.name], dtype=np.float32).ravel())
                for spec in specs
            ]
            buffers.append(np.concatenate(parts).astype(wire_dtype))

        # 5. All-reduce each unit across workers (SUM, averaged at unpack).
        reduced = [np.empty_like(buffer, dtype=np.float64)
                   for buffer in buffers]
        offsets = np.cumsum([0] + [s.num_elements for s in specs])
        for unit in units:
            for piece in unit.slices:
                lo = int(offsets[piece.grad_id] + piece.offset)
                hi = lo + int(piece.nbytes)
                outs = ring_allreduce(
                    [buffer[lo:hi].astype(np.float64)
                     for buffer in buffers],
                    op=ReduceOp.SUM)
                for rank, out in enumerate(outs):
                    reduced[rank][lo:hi] = out

        # 6. Unpack back to named tensors, averaging.
        results: list[Gradients] = []
        for rank in range(self._size):
            grads: Gradients = {}
            for index, spec in enumerate(specs):
                lo, hi = int(offsets[index]), int(offsets[index + 1])
                value = reduced[rank][lo:hi] / self._size
                grads[spec.name] = self.compressor.decompress(
                    value.astype(wire_dtype)).astype(np.float64).reshape(
                    self._shapes[spec.name])
            results.append(grads)
        # Clear readiness bits so a later push_gradient()/reduce_ready()
        # flow starts from a clean vector.
        for registry in self._registries:
            registry.reset_vector()
        self.steps_completed += 1
        return results

    # -- internals -------------------------------------------------------------------

    def _validate_step_input(self,
                             worker_grads: t.Sequence[Gradients]) -> None:
        if not self._shapes:
            raise RegistrationError(
                "register_parameters() must run before reduce_gradients()"
            )
        if any(self._pending[rank] for rank in range(self._size)):
            raise SynchronizationError(
                "cannot run a dense reduce_gradients() step while "
                "push_gradient()/reduce_ready() gradients are pending"
            )
        if len(worker_grads) != self._size:
            raise RegistrationError(
                f"expected gradients from {self._size} workers, "
                f"got {len(worker_grads)}"
            )
        expected = set(self._shapes)
        for rank, grads in enumerate(worker_grads):
            if set(grads) != expected:
                missing = expected.symmetric_difference(grads)
                raise RegistrationError(
                    f"worker {rank} gradient keys mismatch: {sorted(missing)}"
                )


def init(size: int, config: AIACCConfig | None = None) -> PerseusSession:
    """Create a Perseus session (the Horovod ``hvd.init()`` analogue)."""
    return PerseusSession(size, config=config)
