"""Windowed drift detection over the classified stream.

Three counters, all cheap enough to update per batch:

- **label-histogram distance** — total-variation distance between the
  predicted-label histogram of the current window and of the *reference*
  window (the first full window after the serving model was fitted);
- **OOV rate** — fraction of window tokens outside the training
  vocabulary the current model saw;
- **confidence decay** — drop of the window's mean prediction
  confidence below the reference window's mean (a model without scores
  reports no confidence, in which case this signal simply stays
  silent).

A :class:`DriftMonitor` accumulates per-document observations,
publishes the current levels as :mod:`repro.obs` gauges
(``pipeline.drift.hist_distance`` / ``pipeline.drift.oov_rate`` /
``pipeline.drift.conf_decay`` — high-water semantics, matching the
serving gauges), and reports ``should_refit()`` when any signal crosses
its :class:`DriftPolicy` threshold. The trigger is **exactly-once per
drift event**: firing arms a cooldown of ``cooldown`` documents, and
:meth:`DriftMonitor.after_refit` swaps in the new model's vocabulary
and resets the reference window, so the detector re-baselines on the
post-refit distribution instead of re-firing on the same shift.

The full monitor state round-trips through ``to_state()`` /
``from_state()`` and rides inside the stream checkpoint, so a resumed
run continues the same windows (byte-identical trigger behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.exceptions import PipelineError

GAUGE_HIST = "pipeline.drift.hist_distance"
GAUGE_OOV = "pipeline.drift.oov_rate"
GAUGE_CONF = "pipeline.drift.conf_decay"


@dataclass(frozen=True)
class DriftPolicy:
    """Thresholds for the re-fit trigger.

    Parameters
    ----------
    window:
        Documents per comparison window.
    hist_threshold:
        Total-variation distance (0..1) between the reference and
        current label histograms that arms a re-fit; ``None`` disables.
    oov_threshold:
        Window OOV-token rate that arms a re-fit; ``None`` disables.
    conf_decay_threshold:
        Drop in mean confidence vs the reference window that arms a
        re-fit; ``None`` disables.
    cooldown:
        Documents to ignore after a trigger before the signals are
        consulted again (lets the re-fit land and re-baseline).
    """

    window: int = 64
    hist_threshold: "float | None" = 0.35
    oov_threshold: "float | None" = None
    conf_decay_threshold: "float | None" = None
    cooldown: int = 128

    def __post_init__(self):
        if self.window < 1:
            raise PipelineError(
                f"drift window must be >= 1, got {self.window}")

    def to_state(self) -> dict:
        return {
            "window": self.window,
            "hist_threshold": self.hist_threshold,
            "oov_threshold": self.oov_threshold,
            "conf_decay_threshold": self.conf_decay_threshold,
            "cooldown": self.cooldown,
        }

    @classmethod
    def from_state(cls, state: dict) -> "DriftPolicy":
        return cls(**state)


def tv_distance(hist_a: dict, hist_b: dict) -> float:
    """Total-variation distance between two label histograms (0..1)."""
    total_a = sum(hist_a.values()) or 1
    total_b = sum(hist_b.values()) or 1
    labels = set(hist_a) | set(hist_b)
    return 0.5 * sum(abs(hist_a.get(label, 0) / total_a
                         - hist_b.get(label, 0) / total_b)
                     for label in labels)


class DriftMonitor:
    """Accumulates classified documents into drift signals."""

    def __init__(self, policy: DriftPolicy, vocabulary):
        self.policy = policy
        self.vocabulary = set(vocabulary)
        # Reference window: label counts + confidence over the first
        # `window` docs after (re)fit. Current window: rolling, reset
        # every `window` docs once the reference is frozen.
        self.reference_hist: dict = {}
        self.reference_docs = 0
        self.reference_conf_sum = 0.0
        self.reference_conf_n = 0
        self.current_hist: dict = {}
        self.current_docs = 0
        self.current_conf_sum = 0.0
        self.current_conf_n = 0
        self.current_tokens = 0
        self.current_oov = 0
        self.cooldown_left = 0
        self.triggers = 0
        self._levels = {"hist_distance": 0.0, "oov_rate": 0.0,
                        "conf_decay": 0.0}
        self._armed = False

    # -- observation ---------------------------------------------------------
    def observe(self, docs: list, predictions: list) -> None:
        """Fold one classified batch into the windows.

        ``predictions`` holds one ``(label, confidence_or_None, ...)``
        tuple per document in ``docs``; anything past the first two
        slots (e.g. the top-k label scores the orchestrator logs) is
        ignored here.
        """
        if len(docs) != len(predictions):
            raise PipelineError(
                f"drift monitor got {len(predictions)} predictions for "
                f"{len(docs)} documents"
            )
        policy = self.policy
        for doc, pred in zip(docs, predictions):
            label, confidence = pred[0], pred[1]
            key = str(label)
            if self.reference_docs < policy.window:
                self.reference_hist[key] = \
                    self.reference_hist.get(key, 0) + 1
                self.reference_docs += 1
                if confidence is not None:
                    self.reference_conf_sum += float(confidence)
                    self.reference_conf_n += 1
                continue
            self.current_hist[key] = self.current_hist.get(key, 0) + 1
            self.current_docs += 1
            if confidence is not None:
                self.current_conf_sum += float(confidence)
                self.current_conf_n += 1
            self.current_tokens += len(doc.tokens)
            self.current_oov += sum(1 for token in doc.tokens
                                    if token not in self.vocabulary)
            if self.cooldown_left > 0:
                self.cooldown_left -= 1
            if self.current_docs >= policy.window:
                # Window complete: evaluate it, then roll. Evaluating
                # here (not at batch end) keeps detection independent
                # of how batches align with windows.
                self._evaluate()
                self.current_hist = {}
                self.current_docs = 0
                self.current_conf_sum = 0.0
                self.current_conf_n = 0
                self.current_tokens = 0
                self.current_oov = 0

    def _evaluate(self) -> None:
        """Score the just-completed window; arm the trigger on breach.

        ``_levels`` keeps the last complete window's scores until the
        next window completes (so status output survives window rolls);
        ``_armed`` latches until consumed by :meth:`mark_triggered` or
        cleared by :meth:`after_refit`.
        """
        levels = {"hist_distance": tv_distance(self.reference_hist,
                                               self.current_hist),
                  "oov_rate": (self.current_oov / self.current_tokens
                               if self.current_tokens else 0.0),
                  "conf_decay": 0.0}
        if self.reference_conf_n and self.current_conf_n:
            reference = self.reference_conf_sum / self.reference_conf_n
            current = self.current_conf_sum / self.current_conf_n
            levels["conf_decay"] = max(0.0, reference - current)
        self._levels = levels
        obs.gauge(GAUGE_HIST, levels["hist_distance"])
        obs.gauge(GAUGE_OOV, levels["oov_rate"])
        obs.gauge(GAUGE_CONF, levels["conf_decay"])
        policy = self.policy
        breached = (
            (policy.hist_threshold is not None
             and levels["hist_distance"] >= policy.hist_threshold)
            or (policy.oov_threshold is not None
                and levels["oov_rate"] >= policy.oov_threshold)
            or (policy.conf_decay_threshold is not None
                and levels["conf_decay"] >= policy.conf_decay_threshold)
        )
        if breached and self.cooldown_left <= 0:
            self._armed = True

    # -- trigger protocol ----------------------------------------------------
    def levels(self) -> dict:
        """Current signal levels (for status output)."""
        return dict(self._levels)

    def should_refit(self) -> bool:
        """Whether a drift signal crossed its threshold (cooldown-gated)."""
        return self._armed

    def mark_triggered(self) -> None:
        """Record that a re-fit was launched; arms the cooldown."""
        self.triggers += 1
        self.cooldown_left = self.policy.cooldown
        self._armed = False
        obs.count("pipeline.refits")

    def after_refit(self, vocabulary) -> None:
        """Re-baseline on the freshly fitted model.

        Swaps in the new training vocabulary and clears both windows so
        the next ``window`` documents become the new reference — the
        same sustained shift cannot re-fire.
        """
        self.vocabulary = set(vocabulary)
        self.reference_hist = {}
        self.reference_docs = 0
        self.reference_conf_sum = 0.0
        self.reference_conf_n = 0
        self.current_hist = {}
        self.current_docs = 0
        self.current_conf_sum = 0.0
        self.current_conf_n = 0
        self.current_tokens = 0
        self.current_oov = 0
        self._levels = {"hist_distance": 0.0, "oov_rate": 0.0,
                        "conf_decay": 0.0}
        self._armed = False

    # -- checkpoint round-trip ----------------------------------------------
    def to_state(self) -> dict:
        return {
            "policy": self.policy.to_state(),
            "vocabulary": sorted(self.vocabulary),
            "reference_hist": dict(self.reference_hist),
            "reference_docs": self.reference_docs,
            "reference_conf_sum": self.reference_conf_sum,
            "reference_conf_n": self.reference_conf_n,
            "current_hist": dict(self.current_hist),
            "current_docs": self.current_docs,
            "current_conf_sum": self.current_conf_sum,
            "current_conf_n": self.current_conf_n,
            "current_tokens": self.current_tokens,
            "current_oov": self.current_oov,
            "cooldown_left": self.cooldown_left,
            "triggers": self.triggers,
        }

    @classmethod
    def from_state(cls, state: dict) -> "DriftMonitor":
        try:
            monitor = cls(DriftPolicy.from_state(state["policy"]),
                          state["vocabulary"])
            monitor.reference_hist = dict(state["reference_hist"])
            monitor.reference_docs = int(state["reference_docs"])
            monitor.reference_conf_sum = float(state["reference_conf_sum"])
            monitor.reference_conf_n = int(state["reference_conf_n"])
            monitor.current_hist = dict(state["current_hist"])
            monitor.current_docs = int(state["current_docs"])
            monitor.current_conf_sum = float(state["current_conf_sum"])
            monitor.current_conf_n = int(state["current_conf_n"])
            monitor.current_tokens = int(state["current_tokens"])
            monitor.current_oov = int(state["current_oov"])
            monitor.cooldown_left = int(state["cooldown_left"])
            monitor.triggers = int(state["triggers"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PipelineError(
                f"malformed drift-monitor state in checkpoint: {exc}"
            ) from exc
        return monitor
