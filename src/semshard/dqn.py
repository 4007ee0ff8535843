"""From-scratch deep Q-learning for the sharding controller.

Two fully connected layers with ReLU, a FIFO replay ring buffer, epsilon-greedy
exploration, TD targets from a periodically synchronized target network, and
plain stochastic gradient descent. No autograd: the backward pass is written
out (and checked against finite differences in the tests).

The learner step is fused. One QNetwork holds the estimation network and its
target as rows 0 and 1 of one (2, P) array, params, and the replay buffer
keeps each transition's obs and next_obs as rows 0 and 1 of one
(2, capacity, in + 1) array. So a sampled batch is one stack, and one stacked
matmul per layer, with one ReLU and one bias add, runs the estimation network
on obs and the target on next_obs. numpy runs the same gemm on each slice of
a stack as on that slice alone, so the bits are those of two separate passes.
The network also holds the gradient vector and its block views, built once.
No learner call takes a second network.

The learner runs in one precision, float32: the weights, both rows of
params, which every write, the SGD update and act() use; the replay rows and
rewards; both forwards, the TD targets, the loss, the backward pass and the
gradient. The env's observations are float32 too, so no learner call casts.
Only network.bin holds float64, to which float32 widens exactly.

Training batches carry the hidden layer's bias input: every observation row
the replay buffer stores ends in a constant 1.0. Against the stacked
[w1; b1] matrix such a row gives x @ w1 + b1 in one matmul, and the backward
matmul that gives w1's gradient gives b1's as its last row. So no batch pass
adds b1 or sums dz1 on its own. The bits are those of the separate forms:
the matmul adds the 1.0 * b1 term after the others, and sums b1's gradient
down the batch in row order, as a separate add and reduce would. The
bit-for-bit test in tests/test_dqn.py checks this on the installed BLAS.
"""

from __future__ import annotations

import functools
import itertools
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConfigError, Rng, require_bytes, require_finite
from .env import NUM_ACTIONS, OBSERVATION_SIZE, Action, ShardEnv, run_episodes


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
        sizes = (OBSERVATION_SIZE, self.hidden_units, NUM_ACTIONS)
        for name, what, nbytes in (
                ("buffer_capacity", "the replay rows",
                 2 * self.buffer_capacity * (OBSERVATION_SIZE + 1) * 4),
                ("hidden_units", "both parameter rows",
                 2 * _theta_size(*sizes) * 4),
                ("batch_size", "one batch's hidden layers",
                 2 * self.batch_size * self.hidden_units * 4),
                # per epoch, train holds an epsilon, a mean reward and a mean
                # loss, floats (24 bytes) in list slots (8), and a TrainRow:
                # 240 bytes by tracemalloc on CPython 3.11, rounded up to 256
                ("epochs", "train's per-epoch records", self.epochs * 256)):
            require_bytes(f"agent.{name}", what, nbytes)


def _theta_size(input_size: int, hidden_size: int, output_size: int) -> int:
    """Length of theta: QNetwork.blocks' [w1; b1], w2 and b2, end to end."""
    return (input_size + 1 + output_size) * hidden_size + output_size


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# Per-shape constants the batch passes would otherwise rebuild every step.
# Read-only, so no caller can change what a later batch reads.
@functools.lru_cache(maxsize=8)
def _zeros(shape: tuple) -> np.ndarray:
    return _read_only(np.zeros(shape, np.float32))


@functools.lru_cache(maxsize=8)
def _row_index(batch: int) -> np.ndarray:
    return _read_only(np.arange(batch))


def _param(name: str) -> property:
    """A parameter as a view of QNetwork.theta; assignment copies into it."""

    def get(net: "QNetwork") -> np.ndarray:
        return getattr(net, "_" + name)

    def set_(net: "QNetwork", value) -> None:
        view = getattr(net, "_" + name)
        value = np.asarray(value, np.float32)
        if value.shape != view.shape:
            raise ValueError(f"{name}: shape {value.shape} != {view.shape}")
        view[...] = value

    return property(get, set_)


class QNetwork:
    """Linear -> ReLU -> linear; five action values out, no output activation.

    The estimation network and its target, a periodically synchronized copy,
    are rows 0 and 1 of one (2, P) float32 array, params: theta and
    target_theta. Each row holds w1, b1, w2, b2, each row-major, which is
    exactly the network.bin body. The four names are views of theta, and so
    are the plain attributes _w1, _b1, _w2 and _b2 that the
    single-observation pass reads: assignment copies into the views, so
    neither form goes stale. named(target_theta) gives the target's views.
    Since b1 directly follows w1, theta's head is also the stacked (in + 1,
    hidden) matrix [w1; b1]: a batch row ending in 1.0 times it is
    x @ w1 + b1.

    Built once with params: its stacked [w1; b1], w2 and b2 views over both
    rows, which stacked_forward reads, and the gradient vector with its block
    views, which the learner step fills. Every weight lives in params alone,
    so no write, whatever its path, leaves a pass reading stale weights.
    Weights initialize from Uniform[-1/sqrt(fan_in), +1/sqrt(fan_in)],
    rounded to float32, biases from zero, and the target from a sync.
    Without an rng all parameters start at zero.
    """

    w1 = _param("w1")
    b1 = _param("b1")
    w2 = _param("w2")
    b2 = _param("b2")

    def __init__(self, input_size: int = OBSERVATION_SIZE,
                 hidden_size: int = 128, output_size: int = NUM_ACTIONS,
                 rng: Optional[Rng] = None):
        self.sizes = (input_size, hidden_size, output_size)
        self.input_size, self.hidden_size, self.output_size = self.sizes
        self.params = np.zeros((2, _theta_size(*self.sizes)), np.float32)
        self.theta, self.target_theta = self.params
        # the views the properties return, read without the property call
        self._w1, self._b1, self._w2, self._b2 = self.named(self.theta).values()
        w1b1, w2, b2 = self.blocks(self.params)
        self.stacked = (w1b1, w2, b2[:, np.newaxis])  # b2 broadcasts over B
        self.grad = np.empty(self.theta.shape, np.float32)
        self.grad_blocks = self.blocks(self.grad)
        if rng is not None:
            bound1 = 1.0 / np.sqrt(input_size)
            bound2 = 1.0 / np.sqrt(hidden_size)
            self.w1 = rng.uniform(-bound1, bound1, (input_size, hidden_size))
            self.w2 = rng.uniform(-bound2, bound2, (hidden_size, output_size))
        sync_target(self)

    def blocks(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of the [w1; b1], w2 and b2 blocks of an array laid out as
        theta along its last axis (theta, a gradient or params):
        the blocks a batch gradient fills, and every parameter view's
        source."""
        i, h, o = self.sizes
        w2_start, b2_start = (i + 1) * h, (i + 1 + o) * h
        lead = flat.shape[:-1]
        return (flat[..., :w2_start].reshape(lead + (i + 1, h)),
                flat[..., w2_start:b2_start].reshape(lead + (h, o)),
                flat[..., b2_start:])

    def named(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a vector laid out as theta, by parameter name."""
        w1b1, w2, b2 = self.blocks(flat)
        return {"w1": w1b1[:-1], "b1": w1b1[-1], "w2": w2, "b2": b2}

    # forward adds the biases and takes the ReLU in place: the same
    # arithmetic as max(obs @ w1 + b1, 0), without a second temporary.
    # ndarray.dot runs the same BLAS call as @ at a lower dispatch cost.
    def forward(self, obs: np.ndarray) -> np.ndarray:
        """Q-values for one observation (in,) or a batch (B, in); numpy's
        dot raises ValueError on any other width."""
        hidden = obs.dot(self._w1)
        hidden += self._b1
        np.maximum(hidden, 0.0, out=hidden)
        q = hidden.dot(self._w2)
        q += self._b2
        return q

    def stacked_forward(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Both rows of params at once: rows[r], B float32 replay rows each
        ending in the bias input 1.0, through the network on row r. Returns
        the hidden layers (2, B, hidden) and the Q-values (2, B, out)."""
        w1b1, w2, b2 = self.stacked
        hidden = np.matmul(rows, w1b1)
        # the same elementwise max as against 0.0; numpy's array-array loop
        # runs faster than its array-scalar one
        np.maximum(hidden, _zeros(hidden.shape), out=hidden)
        q = np.matmul(hidden, w2)
        q += b2
        return hidden, q

    def clone(self) -> "QNetwork":
        """An independent network whose params, both rows, are a bitwise
        copy of this one's."""
        twin = QNetwork(*self.sizes)
        np.copyto(twin.params, self.params)
        return twin


def sync_target(net: QNetwork) -> None:
    """Copy the estimation parameters into the target row (bitwise)."""
    np.copyto(net.target_theta, net.theta)


class ReplayBuffer:
    """Fixed-capacity ring buffer of transitions with strict FIFO eviction.

    obs and next_obs are rows 0 and 1 of one float32 (2, capacity,
    OBSERVATION_SIZE + 1) array, so one take samples both, stacked as
    QNetwork.stacked_forward runs them; rewards are float32 too. Each stored
    row is the observation followed by a constant 1.0, the bias input of
    [w1; b1], so a sampled batch feeds the forward as it comes, with no
    column appended per step. push writes the 1.0 with its row: rows never
    pushed stay untouched zero pages.
    """

    def __init__(self, capacity: int = 10_000):
        self.capacity = capacity
        self._rows = np.zeros((2, capacity, OBSERVATION_SIZE + 1), np.float32)
        # push writes through plain views of the two rows: 2-D indexing
        # costs less than 3-D
        self._obs, self._next_obs = self._rows
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity, np.float32)
        self._terminals = np.zeros(capacity, dtype=bool)
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, obs: np.ndarray, action: int, reward: float,
             next_obs: np.ndarray, terminal: bool) -> None:
        i = self._cursor
        self._obs[i, :-1] = obs
        self._obs[i, -1] = 1.0
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_obs[i, :-1] = next_obs
        self._next_obs[i, -1] = 1.0
        self._terminals[i] = terminal
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: Rng):
        """Uniform sample with replacement: (rows, actions, rewards,
        terminals), where rows[0] holds the obs and rows[1] the next_obs, each
        row ending in the bias input 1.0."""
        idx = rng.integers(0, self._size - 1, size=batch_size)
        return (self._rows.take(idx, axis=1), self._actions[idx],
                self._rewards[idx], self._terminals[idx])


_ACTIONS = tuple(Action)


def act(net: QNetwork, obs: np.ndarray, epsilon: float, rng: Rng) -> Action:
    """Epsilon-greedy action; greedy ties break to the lowest index."""
    if rng.random() < epsilon:
        return _ACTIONS[rng.integers(0, NUM_ACTIONS - 1)]
    return _ACTIONS[net.forward(obs).argmax()]


def td_targets(batch, net: QNetwork, discount: float):
    """y = r + discount * max_a Q_target(s', a); y = r on terminal transitions.

    batch is ReplayBuffer.sample()'s (rows, actions, rewards, terminals).
    net's one stacked forward runs its target row on the batch's next_obs
    and its estimation row on the batch's obs. Returns the float32 targets
    and that forward's row 0, (obs, hidden, q), as loss_and_gradients
    takes it.
    """
    rows, _, rewards, terminals = batch
    hidden, q = net.stacked_forward(rows)
    # max is exact, so reducing down the contiguous transpose equals
    # q.max(axis=1) at a lower call cost
    targets = np.maximum.reduce(np.ascontiguousarray(q[1].T), axis=0)
    # rewards + discount * best * ~terminals, in that order, in place
    targets *= discount
    targets *= ~terminals
    targets += rewards
    return targets, (rows[0], hidden[0], q[0])


def loss_and_gradients(net: QNetwork, actions: np.ndarray,
                       targets: np.ndarray, forward) -> float:
    """Mean squared TD error on the taken actions; its analytic gradient
    goes into net.grad.

    forward is row 0 of net's stacked_forward, (obs, hidden, q), where the
    obs rows end in the bias input 1.0. Every entry of net.grad is
    overwritten.
    """
    obs, hidden, q = forward
    batch = obs.shape[0]
    rows = _row_index(batch)
    err = q[rows, actions] - targets
    # np.mean(err ** 2) is this sum divided by the count: the same bits
    loss = float(np.add.reduce(err * err) / batch)

    dq = np.zeros(q.shape, np.float32)
    dq[rows, actions] = 2.0 * err / batch
    w1b1_grad, w2_grad, b2_grad = net.grad_blocks
    # np.dot, not np.matmul: the same gemm at a lower dispatch cost
    np.dot(hidden.T, dq, out=w2_grad)
    np.add.reduce(dq, axis=0, out=b2_grad)
    dz1 = dq @ net._w2.T
    # hidden > 0 exactly where the pre-activation is > 0 (NaN in neither)
    dz1 *= hidden > 0.0
    # the bias column makes the last row of this product dz1's column sum,
    # b1's gradient, which lands where theta holds b1
    np.dot(obs.T, dz1, out=w1b1_grad)
    return loss


def train_step(net: QNetwork, buffer: ReplayBuffer, hp: Hyperparameters,
               rng: Rng) -> Optional[float]:
    """One SGD step of net's estimation row on a sampled minibatch, against
    TD targets from its target row; None while the buffer is underfull."""
    if len(buffer) < hp.batch_size:
        return None
    batch = buffer.sample(hp.batch_size, rng)
    targets, forward = td_targets(batch, net, hp.discount)
    loss = loss_and_gradients(net, batch[1], targets, forward)
    grad = net.grad
    grad *= hp.learning_rate
    net.theta -= grad
    return loss


@dataclass(frozen=True)
class TrainRow:
    epoch: int
    mean_reward: float
    epsilon: float
    mean_loss: float


def epsilon_for_epoch(hp: Hyperparameters, epoch: int) -> float:
    if not hp.epsilon_decay or hp.epochs <= 1:
        return hp.epsilon
    floor = min(0.01, hp.epsilon)
    frac = epoch / (hp.epochs - 1)
    return hp.epsilon + (floor - hp.epsilon) * frac


def train(env: ShardEnv, hp: Hyperparameters, rng: Rng,
          ) -> tuple[QNetwork, list[TrainRow]]:
    """Full training loop: one episode per epoch, one gradient step per round.

    The target row re-syncs every hp.target_sync_interval gradient steps.
    env draws its paths from rng, as run_baseline's does; the network's
    init, the epsilon draws and the replay sampling take rng.spawn(1).
    Returns the trained network and the per-epoch reward rows.
    """
    agent_rng = rng.spawn(1)
    net = QNetwork(OBSERVATION_SIZE, hp.hidden_units, NUM_ACTIONS, agent_rng)
    buffer = ReplayBuffer(hp.buffer_capacity)
    epsilons = [epsilon_for_epoch(hp, epoch) for epoch in range(hp.epochs)]
    grad_steps = itertools.count(1)  # numbers gradient steps across epochs
    losses, mean_losses = [], []  # this epoch's losses; each epoch's mean

    def play(epoch, obs):
        action = act(net, obs, epsilons[epoch], agent_rng)
        result = env.step(action)
        next_obs, reward, terminal, _ = result
        buffer.push(obs, int(action), reward, next_obs, terminal)
        loss = train_step(net, buffer, hp, agent_rng)
        if loss is not None:
            losses.append(loss)
            if next(grad_steps) % hp.target_sync_interval == 0:
                sync_target(net)
        if terminal:
            mean_losses.append(float(np.mean(losses)) if losses else 0.0)
            losses.clear()
        return result

    means = run_episodes(env, hp.epochs, rng, play)
    return net, list(map(TrainRow, range(hp.epochs), means, epsilons,
                         mean_losses))


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

    The header's dims must all be positive, and the size they imply must be
    the file's size to the byte; both are checked before any array is
    allocated. Each float64 value is rounded to the nearest float32, so a
    file save_network wrote loads exactly; one whose value rounds past
    float32's range is rejected.
    """
    with open(path, "rb") as fh:
        header = fh.read(len(NETWORK_MAGIC) + 12)
        magic, dims = header[:len(NETWORK_MAGIC)], header[len(NETWORK_MAGIC):]
        if magic != NETWORK_MAGIC:
            raise ValueError(f"not a serialized Q network: magic {magic!r}")
        if len(dims) < 12:
            raise ValueError("truncated network file header")
        sizes = struct.unpack("<III", dims)
        if 0 in sizes:
            raise ValueError(f"network file header has a zero dimension: {sizes}")
        needed = 8 * _theta_size(*sizes)
        body = os.fstat(fh.fileno()).st_size - len(header)
        if body < needed:
            raise ValueError("truncated network file")
        if body > needed:
            raise ValueError(f"network file has {body - needed} trailing bytes")
        net = QNetwork(*sizes)
        try:
            with np.errstate(over="raise"):
                net.theta[:] = np.frombuffer(fh.read(needed), dtype="<f8")
        except FloatingPointError:
            raise ValueError("network file holds a value past float32's "
                             "range") from None
    sync_target(net)
    return net
