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

from .core import ConfigError, Rng
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


class QNetwork:
    """Linear -> ReLU -> linear; five action values out, no output activation.

    Weights initialize from Uniform[-1/sqrt(fan_in), +1/sqrt(fan_in)], biases
    from zero. Without an rng all parameters start at zero.
    """

    def __init__(self, input_size: int = OBSERVATION_SIZE,
                 hidden_size: int = 128, output_size: int = NUM_ACTIONS,
                 rng: Optional[Rng] = None):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.output_size = output_size
        if rng is None:
            self.w1 = np.zeros((input_size, hidden_size))
            self.w2 = np.zeros((hidden_size, output_size))
        else:
            bound1 = 1.0 / np.sqrt(input_size)
            bound2 = 1.0 / np.sqrt(hidden_size)
            self.w1 = rng.uniform(-bound1, bound1, (input_size, hidden_size))
            self.w2 = rng.uniform(-bound2, bound2, (hidden_size, output_size))
        self.b1 = np.zeros(hidden_size)
        self.b2 = np.zeros(output_size)

    def forward(self, obs: np.ndarray) -> np.ndarray:
        """Q-values for one observation (in,) or a batch (B, in)."""
        x = np.asarray(obs, dtype=float)
        if x.shape[-1] != self.input_size:
            raise ValueError(
                f"observation size {x.shape[-1]} != {self.input_size}")
        hidden = np.maximum(x @ self.w1 + self.b1, 0.0)
        return hidden @ self.w2 + self.b2

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def clone(self) -> "QNetwork":
        other = QNetwork(self.input_size, self.hidden_size, self.output_size)
        sync_target(self, other)
        return other


def sync_target(est_net: QNetwork, target_net: QNetwork) -> None:
    """Copy estimation parameters into the target network (bitwise)."""
    for name, param in est_net.parameters().items():
        setattr(target_net, name, param.copy())


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
        return (self._obs[idx], self._actions[idx], self._rewards[idx],
                self._next_obs[idx], self._terminals[idx])

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
    return Action(int(np.argmax(net.forward(obs))))


def td_targets(batch, target_net: QNetwork, discount: float) -> np.ndarray:
    """y = r + discount * max_a Q_target(s', a); y = r on terminal transitions.

    batch is the (obs, actions, rewards, next_obs, terminals) bundle from
    ReplayBuffer.sample().
    """
    _, _, rewards, next_obs, terminals = batch
    best_next = target_net.forward(next_obs).max(axis=1)
    return rewards + discount * best_next * ~terminals


def loss_and_gradients(net: QNetwork, obs: np.ndarray, actions: np.ndarray,
                       targets: np.ndarray):
    """Mean squared TD error on the taken actions, with analytic gradients."""
    batch = obs.shape[0]
    z1 = obs @ net.w1 + net.b1
    hidden = np.maximum(z1, 0.0)
    q = hidden @ net.w2 + net.b2
    rows = np.arange(batch)
    err = q[rows, actions] - targets
    loss = float(np.mean(err ** 2))

    dq = np.zeros_like(q)
    dq[rows, actions] = 2.0 * err / batch
    grads = {
        "w2": hidden.T @ dq,
        "b2": dq.sum(axis=0),
    }
    dhidden = dq @ net.w2.T
    dz1 = dhidden * (z1 > 0.0)
    grads["w1"] = obs.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


def train_step(est_net: QNetwork, target_net: QNetwork, buffer: ReplayBuffer,
               hp: Hyperparameters, rng: Rng) -> Optional[float]:
    """One SGD step on a sampled minibatch; None while the buffer is underfull."""
    if len(buffer) < hp.batch_size:
        return None
    batch = buffer.sample(hp.batch_size, rng)
    targets = td_targets(batch, target_net, hp.discount)
    loss, grads = loss_and_gradients(est_net, batch[0], batch[1], targets)
    for name, param in est_net.parameters().items():
        param -= hp.learning_rate * grads[name]
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
        for arr in (net.w1, net.b1, net.w2, net.b2):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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
        shapes = (("w1", (input_size, hidden_size)), ("b1", (hidden_size,)),
                  ("w2", (hidden_size, output_size)), ("b2", (output_size,)))
        needed = 8 * sum(math.prod(shape) for _, shape in shapes)
        if os.fstat(fh.fileno()).st_size - len(header) < needed:
            raise ValueError("truncated network file")
        net = QNetwork(input_size, hidden_size, output_size)
        for name, shape in shapes:
            data = np.frombuffer(fh.read(8 * math.prod(shape)), dtype="<f8")
            setattr(net, name, data.reshape(shape).copy())
    return net
