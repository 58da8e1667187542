"""Correctness checks, run on every run outside the timed region.

Each check is made apart from the program (scipy's exact Lomb, the true
beat instants, the tachogram generator's ground truth, a grid worked out
here) or tests a property the method must have.  Every pass of a run
must also reproduce the first pass bit for bit.  A check returns a list
of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lombscargle

from repro import Engine
from repro.hrv.bands import HF_BAND, LF_BAND
from repro.hrv.rr import RRSeries
from repro.ingest import ecg_record_to_rr
from repro.service.wire import result_to_dict

from inputs import SAMPLING_RATE, subjects
from workloads import engine_config, result_digest, welch_starts

#: Largest distance (s) between a detected beat and the true R peak.
BEAT_TOLERANCE_S = 0.02
#: Quality-scalable (set3) per-window LF/HF against the exact Lomb
#: periodogram: bound on the median relative error over sampled windows.
#: The paper's 4.9 % loss is for the recording-averaged ratio over its
#: cohort; per window, set3 on ``make_cohort()`` patients has medians of
#: 1-14 % (60 % of twiddle factors pruned).
SET3_WINDOW_MEDIAN_ERROR = 0.20
#: Averaged set3 LF/HF against the modulators' ground-truth ratio
#: (measured 0.86-1.02 of it on every ``make_cohort()`` patient).
SET3_AVERAGE_ERROR = 0.20
#: Conventional per-window LF/HF against the exact Lomb periodogram.
#: Fast-Lomb extirpolation errs more as the HF peak nears 0.35 Hz; on
#: ``make_cohort()`` patients the largest error measured is 2.6 %.
CONVENTIONAL_WINDOW_ERROR = 0.03
#: Every k-th window is compared against scipy.
SAMPLE_EVERY = 9


def _passes_agree(passes) -> list[str]:
    first = passes[0].digests
    return [
        f"pass {i} differs from pass 0 on {subject}"
        for i, p in enumerate(passes[1:], start=1)
        for subject in first
        if p.digests.get(subject) != first[subject]
    ]


def _spans(times: np.ndarray, window_seconds: float, overlap: float):
    """Welch window spans: half-open windows on the start grid."""
    starts = welch_starts(
        times, window_seconds, window_seconds * (1.0 - overlap)
    )
    lo = np.searchsorted(times, starts, side="left")
    hi = np.searchsorted(times, starts + window_seconds, side="left")
    keep = (hi - lo >= 2) & (
        times[np.maximum(hi - 1, 0)] - times[lo] >= 0.5 * window_seconds
    )
    return list(zip(lo[keep].tolist(), hi[keep].tolist()))


def _lf_hf(frequencies, power) -> float:
    lf = power[LF_BAND.contains(frequencies)].sum()
    hf = power[HF_BAND.contains(frequencies)].sum()
    return float(lf / hf)


def window_errors(rr: RRSeries, result, config) -> list[float]:
    """Relative LF/HF error of sampled windows against scipy's Lomb.

    scipy evaluates the exact periodogram of the window's mean-removed
    samples at the window spectrum's own frequencies; the band-power
    ratio is independent of either side's normalisation.
    """
    spans = _spans(rr.times, config.psa.window_seconds, config.psa.overlap)
    if len(spans) != result.welch.n_windows:
        raise AssertionError(
            f"{len(spans)} windows on the grid, result has "
            f"{result.welch.n_windows}"
        )
    errors = []
    for i in range(0, len(spans), SAMPLE_EVERY):
        lo, hi = spans[i]
        t = rr.times[lo:hi]
        x = rr.intervals[lo:hi]
        center = 0.5 * (t[0] + t[-1])
        if center != result.welch.window_times[i]:
            raise AssertionError(f"window {i} is not centred on its samples")
        spectrum = result.welch.window_spectra[i]
        exact = lombscargle(t, x - x.mean(), 2 * np.pi * spectrum.frequencies)
        reference = _lf_hf(spectrum.frequencies, exact)
        errors.append(
            abs(_lf_hf(spectrum.frequencies, spectrum.power) - reference)
            / reference
        )
    return errors


def check_ecg_ward(arrays, passes) -> list[str]:
    failures = _passes_agree(passes)
    outputs = passes[0].outputs
    engine = Engine(engine_config("ecg_ward"))
    for subject, condition in subjects(arrays):
        truth = arrays[f"{subject}/beats"]
        found = outputs["beats"][subject]
        if found.size != truth.size:
            failures.append(
                f"{subject}: {found.size} beats detected, "
                f"{truth.size} rendered"
            )
        else:
            worst = float(np.max(np.abs(found - truth)))
            if worst > BEAT_TOLERANCE_S:
                failures.append(
                    f"{subject}: a beat is {worst * 1e3:.1f} ms off"
                )
        rr = ecg_record_to_rr(
            arrays[f"{subject}/t"], arrays[f"{subject}/ecg"],
            sampling_rate=SAMPLING_RATE,
        )
        reference = result_to_dict(engine.analyze(rr, count_ops=True))
        if result_digest(reference) != passes[0].digests[subject]:
            failures.append(
                f"{subject}: streamed result differs from "
                "ecg_record_to_rr + Engine.analyze"
            )
        lf_hf = outputs["results"][subject].lf_hf
        rsa = condition == "sinus-arrhythmia"
        if (lf_hf < 1.0) != rsa:
            failures.append(
                f"{subject} ({condition}): LF/HF {lf_hf:.3f} on the "
                "wrong side of 1"
            )
    return failures


def check_holter_cohort(arrays, passes) -> list[str]:
    failures = _passes_agree(passes)
    results = passes[0].outputs["results"]
    config = engine_config("holter_cohort")
    scalable = Engine(config)
    conventional = Engine(engine_config("ward_gateway"))
    errors = []
    for subject, _ in subjects(arrays):
        rr = RRSeries(
            times=arrays[f"{subject}/times"],
            intervals=arrays[f"{subject}/intervals"],
        )
        result = results[subject]
        errors.extend(window_errors(rr, result, config))
        expected = float(arrays[f"{subject}/expected_lf_hf"])
        if abs(result.lf_hf / expected - 1.0) > SET3_AVERAGE_ERROR:
            failures.append(
                f"{subject}: averaged LF/HF {result.lf_hf:.3f}, "
                f"ground truth {expected:.3f}"
            )
        # Modelled ops against the conventional system on the same
        # windows: the first two hours of the recording.
        n = int(np.searchsorted(rr.times, rr.times[0] + 7200.0))
        head = RRSeries(times=rr.times[:n], intervals=rr.intervals[:n])
        ours = scalable.analyze(head, count_ops=True)
        theirs = conventional.analyze(head, count_ops=True)
        if (ours.counts.mults + ours.counts.adds) >= (
            theirs.counts.mults + theirs.counts.adds
        ):
            failures.append(
                f"{subject}: set3 needs no fewer ops than the conventional "
                "system"
            )
    error = float(np.median(errors))
    if error > SET3_WINDOW_MEDIAN_ERROR:
        failures.append(
            f"median per-window LF/HF error {error:.3f} against scipy "
            f"exceeds {SET3_WINDOW_MEDIAN_ERROR}"
        )
    return failures


def check_ward_gateway(arrays, passes) -> list[str]:
    failures = _passes_agree(passes)
    outputs = passes[0].outputs
    config = engine_config("ward_gateway")
    engine = Engine(config)
    for subject, _ in subjects(arrays):
        rr = RRSeries(
            times=arrays[f"{subject}/times"],
            intervals=arrays[f"{subject}/intervals"],
        )
        result = engine.analyze(rr, count_ops=True)
        if result_digest(result_to_dict(result)) != passes[0].digests[subject]:
            failures.append(
                f"{subject}: wire result differs from Engine.analyze"
            )
        frames = outputs["windows"][subject]
        if [f["index"] for f in frames] != list(range(result.welch.n_windows)):
            failures.append(
                f"{subject}: window frames are not each window exactly once"
            )
        elif any(
            frame["power"] != spectrum.power.tolist()
            for frame, spectrum in zip(frames, result.welch.window_spectra)
        ):
            failures.append(f"{subject}: a window frame's spectrum differs")
        read = outputs["rest"][subject]["windows"]
        if [(w["index"], w["power"]) for w in read] != [
            (f["index"], f["power"]) for f in frames
        ]:
            failures.append(
                f"{subject}: REST windows differ from the streamed ones"
            )
        worst = max(window_errors(rr, result, config))
        if worst > CONVENTIONAL_WINDOW_ERROR:
            failures.append(
                f"{subject}: conventional LF/HF {worst:.2%} off scipy"
            )
    return failures


CHECKS = {
    "ecg_ward": check_ecg_ward,
    "holter_cohort": check_holter_cohort,
    "ward_gateway": check_ward_gateway,
}
