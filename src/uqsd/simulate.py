"""Monte-Carlo simulation of unambiguous measurements.

Each trial prepares state i with prior probability eta_i and measures
outcome j with Born probability T_ij, so the table of counts over
``n_trials`` trials is Multinomial(n_trials, eta_i T_ij); ``simulate``
draws it from that exact law in one call, at a cost that does not grow
with ``n_trials``. For a valid unambiguous measurement the off-diagonal
outcome probabilities vanish up to numerical noise; they are checked
against that bound and clipped to zero, so a simulation can never
register a misidentification.

Randomness comes from a counter-based 64-bit generator (Philox-4x64)
seeded explicitly: on a given platform, counts are a deterministic
function of the input, the seed and the numpy version. numpy's binomial
sampler calls the platform's libm, so they may differ between platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import Measurement, StateEnsemble
from .errors import ValidationError

UNAMBIGUITY_TOL = 1e-8
# The draw costs the same at any count; the cap stays the documented bound
# of ``--trials``, above which a run is a validation error (exit 2).
MAX_TRIALS = 10**8


@dataclass(frozen=True)
class SimulationResult:
    """Outcome counts per prepared state; column 0 is the inconclusive outcome."""

    counts: np.ndarray
    n_trials: int
    seed: int

    @property
    def state_counts(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def detection_frequency(self) -> np.ndarray:
        """Empirical conditional detection frequency per state."""
        m = self.counts.shape[0]
        totals = np.maximum(self.state_counts, 1)
        return self.counts[np.arange(m), np.arange(m) + 1] / totals

    @property
    def empirical_detection_probability(self) -> float:
        m = self.counts.shape[0]
        return float(self.counts[np.arange(m), np.arange(m) + 1].sum() / self.n_trials)

    @property
    def misidentifications(self) -> int:
        """Conclusive outcomes pointing at the wrong state (always zero)."""
        m = self.counts.shape[0]
        conclusive = self.counts[:, 1:]
        return int(conclusive.sum() - np.trace(conclusive))


def outcome_probabilities(ensemble: StateEnsemble, measurement: Measurement) -> np.ndarray:
    """Born outcome table, rows indexed by prepared state.

    Column 0 is the inconclusive outcome; column k is detection as state
    k. Rejects measurements whose conclusive operators are inconsistent
    with the ensemble (nonzero cross terms beyond tolerance), then clips
    the cross terms to exactly zero so each row is an exact distribution.
    """
    if (measurement.r, measurement.m) != (ensemble.r, ensemble.m):
        raise ValidationError("measurement does not match the ensemble dimensions")
    m = ensemble.m
    # <state_i| p_k |c_k><c_k| |state_i> = p_k |<c_k|state_i>|^2
    overlaps = measurement.reciprocals.conj().T @ ensemble.states
    born = (measurement.probs[:, None] * np.abs(overlaps) ** 2).T
    off_diag = born - np.diag(np.diag(born))
    worst = float(np.max(np.abs(off_diag))) if m > 1 else 0.0
    if worst > UNAMBIGUITY_TOL:
        raise ValidationError(
            f"measurement is not unambiguous for this ensemble: cross-detection "
            f"probability {worst:.3e} exceeds {UNAMBIGUITY_TOL:g}"
        )
    diag = np.clip(np.diag(born), 0.0, 1.0)
    table = np.zeros((m, m + 1))
    table[:, 0] = 1.0 - diag
    table[np.arange(m), np.arange(m) + 1] = diag
    return table


def simulate(
    ensemble: StateEnsemble,
    measurement: Measurement,
    n_trials: int,
    seed: int,
) -> SimulationResult:
    """Simulate ``n_trials`` preparations and measurements, at most ``MAX_TRIALS``.

    ``n_trials`` and ``seed`` must be integers; a bool or a float is rejected.
    The counts are drawn from their exact law, Multinomial(n_trials,
    eta_i T_ij) with eta the normalised priors and T the
    ``outcome_probabilities`` table, in time and memory O(m^2).
    """
    for name, value in (("n_trials", n_trials), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValidationError(f"n_trials must be at least 1 and at most {MAX_TRIALS}")
    if seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")
    table = outcome_probabilities(ensemble, measurement)
    rng = np.random.Generator(np.random.Philox(seed))
    priors = ensemble.priors / ensemble.priors.sum()
    counts = rng.multinomial(n_trials, (priors[:, None] * table).ravel()).reshape(table.shape)
    return SimulationResult(counts=counts, n_trials=n_trials, seed=seed)


__all__ = ["SimulationResult", "outcome_probabilities", "simulate"]
