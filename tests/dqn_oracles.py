"""Oracles for the DQN: a finite-difference gradient check, independent of
the analytic backward pass, and a reference training step in plain per-array
numpy whose rounding every faster form must reproduce bit for bit."""

import numpy as np

from semshard.core import Rng
from semshard.dqn import QNetwork, loss_and_gradients

OBS = 8


def loss_and_fresh_gradient(net, obs, actions, targets):
    """loss_and_gradients for net alone, into a gradient vector of its own;
    the forward is row 0 of net's stacked pair pass, with obs on both rows."""
    hidden, q = net.pair.forward(np.stack([obs, obs]))
    grad = np.empty_like(net.theta)
    loss = loss_and_gradients(net, obs, actions, targets, (hidden[0], q[0]),
                              net.pair.blocks(grad))
    return loss, grad


def numeric_gradients(net, obs, actions, targets, h=1e-5):
    """Central finite differences over every parameter."""
    grads = {}
    for name, param in net.parameters().items():
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = param[idx]
            param[idx] = original + h
            up, _ = loss_and_fresh_gradient(net, obs, actions, targets)
            param[idx] = original - h
            down, _ = loss_and_fresh_gradient(net, obs, actions, targets)
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
    obs = rng.uniform(0.05, 1.0, (batch, OBS))
    z1 = obs @ net.w1 + net.b1
    if np.min(np.abs(z1)) < 1e-4:
        return None
    actions = rng.integers(0, 4, size=batch)
    targets = rng.uniform(-1.0, 1.0, batch)
    # the loss takes replay rows, which end in the bias input 1.0
    rows = np.hstack([obs, np.ones((batch, 1))])
    return net, rows, actions, targets


def max_relative_gradient_error(net, obs, actions, targets):
    _, grad = loss_and_fresh_gradient(net, obs, actions, targets)
    analytic = net.named(grad)
    numeric = numeric_gradients(net, obs, actions, targets)
    worst = 0.0
    for name in analytic:
        denom = np.maximum(np.abs(analytic[name]) + np.abs(numeric[name]),
                           1e-8)
        worst = max(worst, float(np.max(np.abs(analytic[name] - numeric[name])
                                        / denom)))
    return worst


# The reference step keeps the parameters as four separate arrays in a dict.

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
    """train_step on dict parameters: SGD one array at a time."""
    if len(buffer) < hp.batch_size:
        return None
    rows, actions, rewards, terminals = buffer.sample(hp.batch_size, rng)
    # the plain observations, without the replay rows' bias input
    batch = (rows[0, :, :-1], actions, rewards, rows[1, :, :-1], terminals)
    targets = reference_td_targets(batch, target, hp.discount)
    loss, grads = reference_loss_and_gradients(est, batch[0], batch[1],
                                               targets)
    for name, param in est.items():
        param -= hp.learning_rate * grads[name]
    return loss
