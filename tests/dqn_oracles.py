"""Oracles for the DQN: a finite-difference gradient check, independent of
the analytic backward pass, and a reference training step in plain per-array
numpy whose rounding every faster form must reproduce bit for bit."""

import numpy as np

from semshard.core import Rng
from semshard.dqn import QNetwork, loss_and_gradients

OBS = 8


def loss_and_fresh_gradient(net, obs, actions, targets):
    """loss_and_gradients for net alone, and a copy of the gradient it
    leaves in net.grad; the forward is row 0 of net's stacked pass, with the
    float32 obs rows on both rows."""
    hidden, q = net.stacked_forward(np.stack([obs, obs]))
    loss = loss_and_gradients(net, actions, targets, (obs, hidden[0], q[0]))
    return loss, net.grad.copy()


def numeric_gradients(net, obs, actions, targets, h=1e-5):
    """Central finite differences over every parameter, of the reference
    loss on float64 copies of the float32 parameters, obs and targets: the
    same point as the program's, with no float32 rounding and no analytic
    backward pass. On a float32 parameter itself, param +- h would round to
    float32 and change the step."""
    params = {k: v.astype(np.float64) for k, v in net.named(net.theta).items()}
    obs, targets = obs.astype(np.float64), targets.astype(np.float64)
    grads = {}
    for name, param in params.items():
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = param[idx]
            param[idx] = original + h
            up, _ = reference_loss_and_gradients(params, obs, actions, targets)
            param[idx] = original - h
            down, _ = reference_loss_and_gradients(params, obs, actions,
                                                   targets)
            param[idx] = original
            grad[idx] = (up - down) / (2 * h)
            it.iternext()
        grads[name] = grad
    return grads


def gradient_check_instance(seed, hidden=10, batch=4):
    """A random instance kept away from the ReLU kink (|z1| > 1e-4),
    where the finite-difference quotient is ill-defined; returns None when
    the draw lands too close."""
    rng = Rng(seed)
    net = QNetwork(OBS, hidden, 5, rng)
    obs = rng.uniform(0.05, 1.0, (batch, OBS)).astype(np.float32)
    z1 = obs @ net.w1 + net.b1
    if np.min(np.abs(z1)) < 1e-4:
        return None
    actions = rng.integers(0, 4, size=batch)
    targets = rng.uniform(-1.0, 1.0, batch).astype(np.float32)
    # the loss takes replay rows, which end in the bias input 1.0
    rows = np.hstack([obs, np.ones((batch, 1), np.float32)])
    return net, rows, actions, targets


def max_relative_gradient_error(net, obs, actions, targets):
    """The program's analytic gradient against central differences of the
    float64 reference loss."""
    _, grad = loss_and_fresh_gradient(net, obs, actions, targets)
    analytic = net.named(grad)
    numeric = numeric_gradients(net, obs[:, :-1], actions, targets)
    worst = 0.0
    for name in analytic:
        denom = np.maximum(np.abs(analytic[name]) + np.abs(numeric[name]),
                           1e-8)
        worst = max(worst, float(np.max(np.abs(analytic[name] - numeric[name])
                                        / denom)))
    return worst


# The reference step keeps the parameters as four separate arrays in a dict,
# in the dtype the program's are: float32.

def reference_forward(params, x):
    hidden = np.maximum(x @ params["w1"] + params["b1"], 0.0)
    return hidden @ params["w2"] + params["b2"]


def reference_td_targets(batch, target, discount):
    _, _, rewards, next_obs, terminals = batch
    best_next = reference_forward(target, next_obs).max(axis=1)
    return rewards + discount * best_next * ~terminals


def reference_loss_and_gradients(params, obs, actions, targets):
    batch = obs.shape[0]
    z1 = obs @ params["w1"] + params["b1"]
    hidden = np.maximum(z1, 0.0)
    q = hidden @ params["w2"] + params["b2"]
    rows = np.arange(batch)
    err = q[rows, actions] - targets
    loss = float(np.mean(err ** 2))

    dq = np.zeros_like(q)
    dq[rows, actions] = 2.0 * err / batch
    grads = {
        "w2": hidden.T @ dq,
        "b2": dq.sum(axis=0),
    }
    dhidden = dq @ params["w2"].T
    dz1 = dhidden * (z1 > 0.0)
    grads["w1"] = obs.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


def reference_train_step(est, target, buffer, hp, rng):
    """train_step on dict parameters: the batch, then SGD one array at a
    time."""
    if len(buffer) < hp.batch_size:
        return None
    rows, actions, rewards, terminals = buffer.sample(hp.batch_size, rng)
    # the plain observations, without the replay rows' bias input
    obs, next_obs = rows[:, :, :-1]
    batch = (obs, actions, rewards, next_obs, terminals)
    targets = reference_td_targets(batch, target, hp.discount)
    loss, grads = reference_loss_and_gradients(est, obs, actions, targets)
    for name, param in est.items():
        param -= hp.learning_rate * grads[name]
    return loss
