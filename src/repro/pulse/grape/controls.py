"""Control-field initialization and constraints."""

from __future__ import annotations

import numpy as np

from repro.errors import GrapeError


def initial_controls(
    num_controls: int,
    num_steps: int,
    max_amplitudes: np.ndarray,
    seed: int | np.random.Generator | None = 0,
    scale: float = 0.25,
    harmonics: int = 4,
) -> np.ndarray:
    """Smooth random initial control fields.

    Each channel is a random low-frequency Fourier series scaled to at most
    ``scale`` of its amplitude bound.  Smooth starts converge far more
    reliably than white noise, and seeding keeps benchmark runs
    reproducible (the paper: "we fixed randomization seeds when
    appropriate").
    """
    if num_steps < 1:
        raise GrapeError("need at least one time step")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    t = np.linspace(0.0, np.pi, num_steps)
    controls = np.zeros((num_controls, num_steps))
    for c in range(num_controls):
        wave = np.zeros(num_steps)
        for h in range(1, harmonics + 1):
            a, b = rng.normal(size=2) / h
            wave += a * np.sin(h * t) + b * np.cos(h * t)
        peak = np.abs(wave).max()
        if peak > 1e-12:
            wave *= scale * max_amplitudes[c] / peak
        controls[c] = wave
    return controls


def clip_controls(controls: np.ndarray, max_amplitudes: np.ndarray, out=None) -> np.ndarray:
    """Project controls onto the box ``|u_c| ≤ max_amplitudes[c]`` (into ``out`` if given)."""
    bounds = np.asarray(max_amplitudes)[:, None]
    return np.clip(controls, -bounds, bounds, out=out)


def envelope_window(num_steps: int, ramp_fraction: float = 0.1) -> np.ndarray:
    """A smooth rise/fall window forcing pulses to start and end near zero.

    Used by the "realistic" GRAPE mode (paper section 8.3: pulses must
    "follow a Gaussian envelope and have smooth 1st and 2nd derivatives").
    The window is flat in the middle with raised-cosine ramps at both ends.
    """
    if num_steps < 1:
        raise GrapeError("need at least one time step")
    window = np.ones(num_steps)
    ramp = max(1, int(round(ramp_fraction * num_steps)))
    if 2 * ramp >= num_steps:
        # Entire pulse is one raised-cosine bump.
        return 0.5 * (1 - np.cos(2 * np.pi * np.arange(num_steps) / max(1, num_steps - 1)))
    rise = 0.5 * (1 - np.cos(np.pi * np.arange(ramp) / ramp))
    window[:ramp] = rise
    window[-ramp:] = rise[::-1]
    return window
