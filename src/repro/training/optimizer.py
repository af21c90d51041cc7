"""Numeric optimizers, including the paper's hybrid AdamSGD.

"It implements a new optimizer by combining Adaptive Moment Estimation
(Adam) and Stochastic Gradient Descent (SGD)" (paper §IV).  The hybrid
runs Adam during an initial phase for fast progress, then switches to SGD
(whose flatter minima generalise better) for the remainder — the common
SWATS-style recipe.

:class:`DistributedOptimizer` is the Horovod-style wrapper: it averages
gradients across a :class:`~repro.core.perseus.PerseusSession` before
applying the local update, keeping all workers' parameters bit-identical.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.errors import TrainingError, require_count, require_real

State = t.Dict[str, np.ndarray]


class Optimizer:
    """Base class: stateful parameter updates from gradients."""

    def __init__(self, lr: float) -> None:
        self.lr = require_real("lr", lr, TrainingError, positive=True)
        self.steps = 0

    def step(self, parameters: State, gradients: State) -> None:
        """Update ``parameters`` in place from ``gradients``."""
        if set(parameters) != set(gradients):
            raise TrainingError("parameter/gradient key mismatch")
        self._apply(parameters, gradients)
        self.steps += 1

    def _apply(self, parameters: State, gradients: State) -> None:
        raise NotImplementedError

    def state_dict(self) -> State:
        """Serializable optimizer state (for checkpoints)."""
        return {"steps": np.asarray(self.steps)}

    def load_state_dict(self, state: State) -> None:
        self.steps = int(state["steps"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, lr: float = 0.1, momentum: float = 0.0,
                 weight_decay: float = 0.0) -> None:
        super().__init__(lr)
        if require_real("momentum", momentum, TrainingError) >= 1:
            raise TrainingError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: State = {}

    def _apply(self, parameters: State, gradients: State) -> None:
        for name, param in parameters.items():
            grad = gradients[name]
            if self.weight_decay:
                grad = grad + self.weight_decay * param
            if self.momentum:
                velocity = self._velocity.get(name)
                if velocity is None:
                    velocity = np.zeros_like(param)
                velocity = self.momentum * velocity + grad
                self._velocity[name] = velocity
                grad = velocity
            param -= self.lr * grad

    def state_dict(self) -> State:
        state = super().state_dict()
        for name, velocity in self._velocity.items():
            state[f"velocity/{name}"] = velocity
        return state

    def load_state_dict(self, state: State) -> None:
        super().load_state_dict(state)
        self._velocity = {
            key[len("velocity/"):]: np.array(value)
            for key, value in state.items() if key.startswith("velocity/")
        }


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014)."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        super().__init__(lr)
        if max(require_real("beta1", beta1, TrainingError),
               require_real("beta2", beta2, TrainingError)) >= 1:
            raise TrainingError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: State = {}
        self._v: State = {}

    def _apply(self, parameters: State, gradients: State) -> None:
        step = self.steps + 1
        correction1 = 1 - self.beta1 ** step
        correction2 = 1 - self.beta2 ** step
        for name, param in parameters.items():
            grad = gradients[name]
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(param)
                v = np.zeros_like(param)
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad * grad
            self._m[name] = m
            self._v[name] = v
            m_hat = m / correction1
            v_hat = v / correction2
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamSGD(Optimizer):
    """The paper's hybrid: Adam warm phase, then SGD (paper §IV)."""

    def __init__(self, lr: float = 1e-3, sgd_lr: float = 0.01,
                 switch_step: int = 100, momentum: float = 0.9) -> None:
        super().__init__(lr)
        self.switch_step = require_count("switch_step", switch_step, 1,
                                         TrainingError)
        self.adam = Adam(lr=lr)
        self.sgd = SGD(lr=sgd_lr, momentum=momentum)

    @property
    def active(self) -> Optimizer:
        """The phase currently applying updates."""
        return self.adam if self.steps < self.switch_step else self.sgd

    def _apply(self, parameters: State, gradients: State) -> None:
        self.active.step(parameters, gradients)

    def set_lr(self, lr: float) -> None:
        """Propagate a schedule's learning rate to the active phase."""
        self.lr = lr
        self.active.lr = lr


class DistributedOptimizer:
    """Averages gradients across a Perseus session, then updates locally.

    The Horovod-API wrapper: ``DistributedOptimizer(SGD(...), session)``.
    Every worker's parameters stay identical because all workers apply the
    same averaged gradients with the same deterministic optimizer state.
    """

    def __init__(self, optimizer: Optimizer, session: t.Any) -> None:
        self.optimizer = optimizer
        self.session = session
        self._optimizers: list[Optimizer] | None = None

    def step(self, worker_parameters: t.Sequence[State],
             worker_gradients: t.Sequence[State]) -> None:
        """One synchronized data-parallel update across all workers."""
        size = self.session.size()
        if len(worker_parameters) != size or len(worker_gradients) != size:
            raise TrainingError(
                f"expected state for {size} workers, got "
                f"{len(worker_parameters)}/{len(worker_gradients)}"
            )
        if not self.session.registered:
            self.session.register_parameters({
                name: value.shape
                for name, value in worker_parameters[0].items()
            })
        if self._optimizers is None:
            import copy

            self._optimizers = [copy.deepcopy(self.optimizer)
                                for _ in range(size)]
        averaged = self.session.reduce_gradients(worker_gradients)
        for optimizer, parameters, gradients in zip(
                self._optimizers, worker_parameters, averaged):
            optimizer.step(parameters, gradients)
