"""From-scratch deep Q-learning for the sharding controller.

Two fully connected layers with ReLU, a FIFO replay ring buffer, epsilon-greedy
exploration, TD targets from a periodically synchronized target network, and
plain stochastic gradient descent. No autograd: the backward pass is written
out (and checked against finite differences in the tests).
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ConfigError, Rng, require_finite
from .env import NUM_ACTIONS, OBSERVATION_SIZE, Action, ShardEnv


@dataclass
class Hyperparameters:
    learning_rate: float = 0.002
    discount: float = 0.98
    epsilon: float = 0.1
    batch_size: int = 64
    target_sync_interval: int = 10  # gradient steps between target syncs
    epochs: int = 1000
    buffer_capacity: int = 10_000
    hidden_units: int = 128
    epsilon_decay: bool = False  # linear decay from epsilon to 0.01 over epochs

    def __post_init__(self):
        require_finite(self, "agent")
        if not 0.0 < self.discount < 1.0:
            raise ConfigError("agent.discount: must be in (0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("agent.epsilon: must be in [0, 1]")
        for name in ("learning_rate", "batch_size", "target_sync_interval",
                     "epochs", "buffer_capacity", "hidden_units"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"agent.{name}: must be strictly positive")
        if self.buffer_capacity < self.batch_size:
            # the buffer would never hold a batch, so no gradient step is taken
            raise ConfigError("agent.buffer_capacity: must be >= batch_size")


def _param_shapes(input_size: int, hidden_size: int,
                  output_size: int) -> tuple:
    """(name, shape) of each parameter, in theta's and network.bin's order."""
    return (("w1", (input_size, hidden_size)), ("b1", (hidden_size,)),
            ("w2", (hidden_size, output_size)), ("b2", (output_size,)))


def _param(name: str) -> property:
    """A parameter as a view of QNetwork.theta; assignment copies into it."""

    def get(net: "QNetwork") -> np.ndarray:
        return net._params[name]

    def set_(net: "QNetwork", value) -> None:
        view = net._params[name]
        value = np.asarray(value, dtype=float)
        if value.shape != view.shape:
            raise ValueError(f"{name}: shape {value.shape} != {view.shape}")
        view[...] = value

    return property(get, set_)


class QNetwork:
    """Linear -> ReLU -> linear; five action values out, no output activation.

    All parameters live in one flat float64 vector, theta: w1, b1, w2, b2,
    each row-major, which is exactly the network.bin body. The four names
    are views of theta. Weights initialize from
    Uniform[-1/sqrt(fan_in), +1/sqrt(fan_in)], biases from zero. Without an
    rng all parameters start at zero.
    """

    w1 = _param("w1")
    b1 = _param("b1")
    w2 = _param("w2")
    b2 = _param("b2")

    def __init__(self, input_size: int = OBSERVATION_SIZE,
                 hidden_size: int = 128, output_size: int = NUM_ACTIONS,
                 rng: Optional[Rng] = None):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.output_size = output_size
        self._layout, size = [], 0
        for name, shape in _param_shapes(input_size, hidden_size, output_size):
            self._layout.append(
                (name, slice(size, size + math.prod(shape)), shape))
            size += math.prod(shape)
        self.theta = np.zeros(size)
        self._params = self.named(self.theta)
        if rng is not None:
            bound1 = 1.0 / np.sqrt(input_size)
            bound2 = 1.0 / np.sqrt(hidden_size)
            self.w1 = rng.uniform(-bound1, bound1, (input_size, hidden_size))
            self.w2 = rng.uniform(-bound2, bound2, (hidden_size, output_size))

    def named(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a vector laid out as theta, by parameter name."""
        return {name: flat[part].reshape(shape)
                for name, part, shape in self._layout}

    def forward(self, obs: np.ndarray) -> np.ndarray:
        """Q-values for one observation (in,) or a batch (B, in)."""
        x = np.asarray(obs, dtype=float)
        if x.shape[-1] != self.input_size:
            raise ValueError(
                f"observation size {x.shape[-1]} != {self.input_size}")
        return self._forward(x)

    # The private forward skips forward()'s input check. Both halves add the
    # bias and take the ReLU in place: the same arithmetic as
    # max(x @ w1 + b1, 0), without a second temporary.
    def _hidden(self, x: np.ndarray) -> np.ndarray:
        hidden = x @ self.w1
        hidden += self.b1
        return np.maximum(hidden, 0.0, out=hidden)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        q = self._hidden(x) @ self.w2
        q += self.b2
        return q

    def parameters(self) -> dict[str, np.ndarray]:
        return dict(self._params)

    def clone(self) -> "QNetwork":
        other = QNetwork(self.input_size, self.hidden_size, self.output_size)
        sync_target(self, other)
        return other


def sync_target(est_net: QNetwork, target_net: QNetwork) -> None:
    """Copy estimation parameters into the target network (bitwise)."""
    np.copyto(target_net.theta, est_net.theta)


class ReplayBuffer:
    """Fixed-capacity ring buffer of transitions with strict FIFO eviction."""

    def __init__(self, capacity: int = 10_000,
                 obs_size: int = OBSERVATION_SIZE):
        self.capacity = capacity
        self._obs = np.zeros((capacity, obs_size))
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity)
        self._next_obs = np.zeros((capacity, obs_size))
        self._terminals = np.zeros(capacity, dtype=bool)
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, obs: np.ndarray, action: int, reward: float,
             next_obs: np.ndarray, terminal: bool) -> None:
        i = self._cursor
        self._obs[i] = obs
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_obs[i] = next_obs
        self._terminals[i] = terminal
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: Rng):
        """Uniform sample with replacement: (obs, actions, rewards, next_obs, terminals)."""
        idx = rng.integers(0, self._size - 1, size=batch_size)
        return (self._obs.take(idx, axis=0), self._actions[idx],
                self._rewards[idx], self._next_obs.take(idx, axis=0),
                self._terminals[idx])

    def snapshot(self) -> list[tuple]:
        """Stored (obs, action, reward, next_obs, terminal) rows, oldest first."""
        if self._size < self.capacity:
            order = range(self._size)
        else:
            order = [(self._cursor + i) % self.capacity
                     for i in range(self.capacity)]
        return [(self._obs[i].copy(), int(self._actions[i]),
                 float(self._rewards[i]), self._next_obs[i].copy(),
                 bool(self._terminals[i]))
                for i in order]


def act(net: QNetwork, obs: np.ndarray, epsilon: float, rng: Rng) -> Action:
    """Epsilon-greedy action; greedy ties break to the lowest index."""
    if rng.uniform() < epsilon:
        return Action(int(rng.integers(0, NUM_ACTIONS - 1)))
    return Action(int(net._forward(obs).argmax()))


def td_targets(batch, target_net: QNetwork, discount: float) -> np.ndarray:
    """y = r + discount * max_a Q_target(s', a); y = r on terminal transitions.

    batch is the (obs, actions, rewards, next_obs, terminals) bundle from
    ReplayBuffer.sample().
    """
    _, _, rewards, next_obs, terminals = batch
    q = target_net._forward(next_obs)
    # a left-to-right chain over the columns: max is exact, so this equals
    # q.max(axis=1) at a lower call cost
    best_next = q[:, 0].copy()
    for a in range(1, q.shape[1]):
        np.maximum(best_next, q[:, a], out=best_next)
    return rewards + discount * best_next * ~terminals


def loss_and_gradients(net: QNetwork, obs: np.ndarray, actions: np.ndarray,
                       targets: np.ndarray):
    """Mean squared TD error on the taken actions, and its analytic gradient
    as one vector laid out as net.theta."""
    batch = obs.shape[0]
    hidden = net._hidden(obs)
    q = hidden @ net.w2
    q += net.b2
    rows = np.arange(batch)
    err = q[rows, actions] - targets
    # np.mean(err ** 2) is this sum divided by the count: the same bits
    loss = float(np.add.reduce(err * err) / batch)

    dq = np.zeros_like(q)
    dq[rows, actions] = 2.0 * err / batch
    grad = np.empty_like(net.theta)
    grads = net.named(grad)
    np.matmul(hidden.T, dq, out=grads["w2"])
    np.add.reduce(dq, axis=0, out=grads["b2"])
    dz1 = dq @ net.w2.T
    # hidden > 0 exactly where the pre-activation is > 0 (NaN in neither)
    dz1 *= hidden > 0.0
    np.matmul(obs.T, dz1, out=grads["w1"])
    np.add.reduce(dz1, axis=0, out=grads["b1"])
    return loss, grad


def train_step(est_net: QNetwork, target_net: QNetwork, buffer: ReplayBuffer,
               hp: Hyperparameters, rng: Rng) -> Optional[float]:
    """One SGD step on a sampled minibatch; None while the buffer is underfull."""
    if len(buffer) < hp.batch_size:
        return None
    batch = buffer.sample(hp.batch_size, rng)
    targets = td_targets(batch, target_net, hp.discount)
    loss, grad = loss_and_gradients(est_net, batch[0], batch[1], targets)
    grad *= hp.learning_rate
    est_net.theta -= grad
    return loss


@dataclass(frozen=True)
class TrainRow:
    epoch: int
    mean_reward: float
    epsilon: float
    mean_loss: float


TRAIN_CSV_HEADER = "epoch,mean_reward,epsilon,mean_loss"


def write_training_csv(rows: Sequence[TrainRow], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(TRAIN_CSV_HEADER.split(","))
    for row in rows:
        writer.writerow([row.epoch, repr(row.mean_reward),
                         repr(row.epsilon), repr(row.mean_loss)])


def epsilon_for_epoch(hp: Hyperparameters, epoch: int) -> float:
    if not hp.epsilon_decay or hp.epochs <= 1:
        return hp.epsilon
    floor = min(0.01, hp.epsilon)
    frac = epoch / (hp.epochs - 1)
    return hp.epsilon + (floor - hp.epsilon) * frac


def train(env: ShardEnv, hp: Hyperparameters, rng: Rng,
          ) -> tuple[QNetwork, list[TrainRow]]:
    """Full training loop: one episode per epoch, one gradient step per round.

    The target network re-syncs every hp.target_sync_interval gradient steps.
    Returns the trained estimation network and the per-epoch reward rows.
    """
    est = QNetwork(OBSERVATION_SIZE, hp.hidden_units, NUM_ACTIONS, rng)
    target = est.clone()
    buffer = ReplayBuffer(hp.buffer_capacity)
    grad_steps = 0
    rows = []
    for epoch in range(hp.epochs):
        epsilon = epsilon_for_epoch(hp, epoch)
        obs = env.reset(rng)
        total_reward = 0.0
        losses = []
        while True:
            action = act(est, obs, epsilon, rng)
            next_obs, reward, terminal, _ = env.step(action, rng)
            buffer.push(obs, int(action), reward, next_obs, terminal)
            loss = train_step(est, target, buffer, hp, rng)
            if loss is not None:
                losses.append(loss)
                grad_steps += 1
                if grad_steps % hp.target_sync_interval == 0:
                    sync_target(est, target)
            total_reward += reward
            obs = next_obs
            if terminal:
                break
        mean_loss = float(np.mean(losses)) if losses else 0.0
        rows.append(TrainRow(epoch, total_reward / env.cfg.rounds_per_episode,
                             epsilon, mean_loss))
    return est, rows


NETWORK_MAGIC = b"SHRDQNET"


def save_network(net: QNetwork, path) -> None:
    """Flat binary layout: 8 magic bytes, three little-endian uint32 dims
    (input, hidden, output), then w1, b1, w2, b2 as row-major little-endian
    64-bit floats."""
    with open(path, "wb") as fh:
        fh.write(NETWORK_MAGIC)
        fh.write(struct.pack("<III", net.input_size, net.hidden_size,
                             net.output_size))
        fh.write(np.ascontiguousarray(net.theta, dtype="<f8").tobytes())


def load_network(path) -> QNetwork:
    """Read a save_network file; ValueError on a malformed one.

    The size the header's dims imply is checked against the file size before
    any array is allocated.
    """
    with open(path, "rb") as fh:
        header = fh.read(len(NETWORK_MAGIC) + 12)
        magic, dims = header[:len(NETWORK_MAGIC)], header[len(NETWORK_MAGIC):]
        if magic != NETWORK_MAGIC:
            raise ValueError(f"not a serialized Q network: magic {magic!r}")
        if len(dims) < 12:
            raise ValueError("truncated network file header")
        input_size, hidden_size, output_size = struct.unpack("<III", dims)
        needed = 8 * sum(math.prod(shape) for _, shape in
                         _param_shapes(input_size, hidden_size, output_size))
        if os.fstat(fh.fileno()).st_size - len(header) < needed:
            raise ValueError("truncated network file")
        net = QNetwork(input_size, hidden_size, output_size)
        net.theta[:] = np.frombuffer(fh.read(needed), dtype="<f8")
    return net
