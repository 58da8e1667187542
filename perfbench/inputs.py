"""Seeded inputs of the three workloads.

Every input is drawn from ``--seed`` and nothing else.  A workload's
ward is fixed: the first RSA and the first healthy patients of the
standard evaluation cohort (``make_cohort()``), so every seed runs the
same mix of heart rates and spectra.  The seed re-seeds each patient's
beat-to-beat randomness: oscillator phases, jitter, ectopic beats and
ECG noise.  The parent process generates the inputs and hands them to
the measured process as one ``.npz`` file; the program only ever sees
the generated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.ecg import Condition, make_cohort, synthesize_ecg
from repro.ecg.rr_synthesis import generate_tachogram

SAMPLING_RATE = 250.0
FRAME_SAMPLES = 512
#: Probability per beat of an ectopic pair in the rendered ECG.
ECTOPIC_RATE = 0.01


@dataclass(frozen=True)
class Size:
    """Make-up of one workload's input set."""

    n_rsa: int
    n_healthy: int
    minutes: float


SIZES = {
    "ecg_ward": Size(n_rsa=3, n_healthy=3, minutes=20.0),
    "holter_cohort": Size(n_rsa=2, n_healthy=2, minutes=24 * 60.0),
    "ward_gateway": Size(n_rsa=3, n_healthy=3, minutes=120.0),
}

#: ``--toy`` sizes: the same make-up, small enough for a self-test.
TOY_SIZES = {
    "ecg_ward": Size(n_rsa=1, n_healthy=1, minutes=5.0),
    "holter_cohort": Size(n_rsa=1, n_healthy=1, minutes=30.0),
    "ward_gateway": Size(n_rsa=1, n_healthy=1, minutes=10.0),
}

_WORKLOAD_TAGS = {"ecg_ward": 1, "holter_cohort": 2, "ward_gateway": 3}


def _ward(workload: str, seed: int, size: Size):
    """``[(subject, condition, spec)]``: RSA patients first, then healthy."""
    rng = np.random.default_rng([seed, _WORKLOAD_TAGS[workload]])
    cohort = make_cohort()
    picked = (
        cohort.by_condition(Condition.SINUS_ARRHYTHMIA)[: size.n_rsa]
        + cohort.by_condition(Condition.HEALTHY)[: size.n_healthy]
    )
    ward = []
    for patient in picked:
        spec = patient.spec.with_seed(int(rng.integers(1 << 31)))
        ward.append((patient.patient_id, patient.condition.value, spec))
    return ward, rng


def generate(workload: str, seed: int, toy: bool = False) -> dict:
    """The workload's inputs as a flat ``{key: ndarray}`` mapping.

    Keys are ``"<subject>/<field>"`` plus ``"subjects"`` (ids in ward
    order) and ``"conditions"`` (their cohort labels).  Fields:

    * ``ecg_ward`` — ``beats`` (the true R-peak instants the ECG was
      rendered from), ``t`` and ``ecg`` (the 250 Hz trace);
    * ``holter_cohort`` and ``ward_gateway`` — ``times`` and
      ``intervals`` (the RR tachogram) and ``expected_lf_hf`` (the
      ground-truth ratio of its modulators).
    """
    size = (TOY_SIZES if toy else SIZES)[workload]
    ward, rng = _ward(workload, seed, size)
    arrays: dict[str, np.ndarray] = {
        "subjects": np.array([subject for subject, _, _ in ward]),
        "conditions": np.array([condition for _, condition, _ in ward]),
    }
    duration = size.minutes * 60.0
    for subject, _, spec in ward:
        if workload == "ecg_ward":
            rr = generate_tachogram(
                replace(spec, ectopic_rate=ECTOPIC_RATE), duration
            )
            t, ecg = synthesize_ecg(
                rr.times,
                sampling_rate=SAMPLING_RATE,
                seed=int(rng.integers(1 << 31)),
            )
            arrays[f"{subject}/beats"] = rr.times
            arrays[f"{subject}/t"] = t
            arrays[f"{subject}/ecg"] = ecg
        else:
            rr = generate_tachogram(spec, duration)
            arrays[f"{subject}/times"] = rr.times
            arrays[f"{subject}/intervals"] = rr.intervals
            arrays[f"{subject}/expected_lf_hf"] = np.array(
                spec.expected_lf_hf_ratio
            )
    return arrays


def subjects(arrays) -> list[tuple[str, str]]:
    """``[(subject, condition)]`` of a loaded input set, in ward order."""
    return list(
        zip(arrays["subjects"].tolist(), arrays["conditions"].tolist())
    )
