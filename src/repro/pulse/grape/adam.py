"""ADAM optimizer with learning-rate decay.

The two knobs flexible partial compilation pre-tunes per subcircuit are
exactly this optimizer's ``learning_rate`` and ``decay_rate`` (paper
section 7.2).  The step size is expressed as a *fraction of each channel's
amplitude bound*, which makes one learning rate meaningful across charge
(0.63 rad/ns) and flux (9.4 rad/ns) channels simultaneously.
"""

from __future__ import annotations

import numpy as np


class AdamOptimizer:
    """Standard ADAM with ``lr_t = lr / (1 + decay · t)`` scheduling."""

    def __init__(
        self,
        learning_rate: float,
        decay_rate: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.learning_rate = float(learning_rate)
        self.decay_rate = float(decay_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        #: (m, v, m̂ scratch, denominator scratch, output), from the first step.
        self._buffers: tuple | None = None
        self._t = 0

    def reset(self) -> None:
        """Clear the moment estimates and step counter."""
        self._buffers = None
        self._t = 0

    def step(self, params: np.ndarray, gradient: np.ndarray, scale: np.ndarray | float = 1.0) -> np.ndarray:
        """One descent update; returns the new parameters.

        ``scale`` multiplies the step per row (per control channel); passing
        the amplitude bounds makes the learning rate dimensionless.  The
        returned array is the optimizer's output buffer: the next step
        overwrites it.
        """
        if self._buffers is None:
            self._buffers = tuple(np.zeros_like(params) for _ in range(5))
        m, v, m_hat, denominator, out = self._buffers
        self._t += 1
        m *= self.beta1
        m += np.multiply(gradient, 1 - self.beta1, out=m_hat)
        v *= self.beta2
        v += np.multiply(np.square(gradient, out=denominator), 1 - self.beta2, out=denominator)
        # direction = m̂ / (√v̂ + ε), with m̂ and v̂ the bias-corrected moments.
        np.divide(m, 1 - self.beta1**self._t, out=m_hat)
        np.sqrt(np.divide(v, 1 - self.beta2**self._t, out=denominator), out=denominator)
        denominator += self.epsilon
        direction = np.divide(m_hat, denominator, out=m_hat)
        lr = self.learning_rate / (1.0 + self.decay_rate * self._t)
        if isinstance(scale, np.ndarray):
            scale = scale[:, None]
        direction *= lr * scale
        return np.subtract(params, direction, out=out)
