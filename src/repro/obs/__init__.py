"""Zero-dependency, off-by-default observability for the engines.

The PLM inference engine, the experiment row executor, and the training
loops are instrumented with calls into this module — spans around timed
regions, counters at cache/step/dispatch sites. With no tracer enabled
(the default, and the only state the library ever puts itself in) every
hook is a no-op behind a single module-level ``is None`` check:
:func:`span` returns a shared stateless context manager and
:func:`count` returns immediately, so the instrumented hot paths carry
no measurable overhead (asserted by ``benchmarks/bench_obs_overhead.py``).

Enabling is explicit and run-scoped::

    from repro import obs

    obs.enable("my-run")
    with obs.span("encode", docs=500):
        ...
    obs.count("tokens", 4096)
    tracer = obs.disable()
    tracer.write("trace.jsonl")
    print(report.summarize("trace.jsonl"))   # repro.obs.report

The experiment CLI wires this up via ``--trace DIR`` / ``REPRO_TRACE``;
``python -m repro.obs.report trace.jsonl`` renders the summary tree.
Setting ``REPRO_NN_PROFILE=1`` additionally installs the per-op autograd
hook (:func:`repro.nn.tensor.set_op_hook`) for the lifetime of the
tracer, counting graph-node creations as ``nn.op.<name>`` counters.

Trace *content* is deterministic for a fixed seed: only the ``t0``/
``dur`` timing fields vary between runs (see :mod:`repro.obs.tracer`),
and nothing recorded here feeds the DAG artifact digests.
"""

from __future__ import annotations

from repro.core import env
from repro.obs.tracer import NULL_SPAN, NullSpan, Span, Tracer

__all__ = [
    "Tracer",
    "Span",
    "NullSpan",
    "enable",
    "disable",
    "enabled",
    "tracer",
    "span",
    "count",
    "counter",
    "gauge",
    "gauge_value",
    "trace_footer",
]

#: The active run-scoped tracer; ``None`` means every hook is a no-op.
_TRACER: "Tracer | None" = None


def enabled() -> bool:
    """Whether a tracer is currently recording."""
    return _TRACER is not None


def tracer() -> "Tracer | None":
    """The active tracer (None when disabled)."""
    return _TRACER


def enable(name: str = "run") -> Tracer:
    """Install a fresh run-scoped tracer and return it.

    Nested enables are a usage error — finish (``disable``) the previous
    run first. When ``REPRO_NN_PROFILE`` is truthy, also installs the
    autograd per-op hook for the tracer's lifetime.
    """
    global _TRACER
    if _TRACER is not None:
        raise RuntimeError(
            f"tracing already enabled (run {_TRACER.name!r}); disable() first"
        )
    _TRACER = Tracer(name)
    if env.nn_profile():
        from repro.nn.tensor import set_op_hook
        set_op_hook(_profile_op)
    return _TRACER


def disable() -> "Tracer | None":
    """Finalize and remove the active tracer; returns it (or None)."""
    global _TRACER
    current = _TRACER
    _TRACER = None
    if current is not None:
        from repro.nn.tensor import set_op_hook
        set_op_hook(None)
        current.finalize()
    return current


def span(name: str, **attrs) -> "Span | NullSpan":
    """A timed region; no-op (shared null span) when tracing is disabled."""
    current = _TRACER
    if current is None:
        return NULL_SPAN
    return current.span(name, attrs)


def count(name: str, n: float = 1) -> None:
    """Add ``n`` to counter ``name``; no-op when tracing is disabled."""
    current = _TRACER
    if current is None:
        return
    current.counters[name] = current.counters.get(name, 0) + n


def counter(name: str) -> float:
    """Current value of counter ``name`` (0 when unset or disabled)."""
    current = _TRACER
    if current is None:
        return 0
    return current.counters.get(name, 0)


def gauge(name: str, value: float) -> None:
    """Record a high-water-mark gauge; no-op when tracing is disabled.

    Gauges keep the *peak* observed level (queue depth, busy replicas)
    rather than a running sum, and merge across worker exports by ``max``
    (see :meth:`Tracer.gauge` / :meth:`Tracer.absorb`).
    """
    current = _TRACER
    if current is None:
        return
    current.gauge(name, value)


def gauge_value(name: str) -> float:
    """Current peak of gauge ``name`` (0 when unset or disabled)."""
    current = _TRACER
    if current is None:
        return 0
    return current.gauges.get(name, 0)


def trace_footer(tracer: Tracer, path) -> str:
    """The one-line ``[trace]`` footer CLIs print after writing a trace.

    Includes the recorded gauge peaks (queue depth, busy replicas) so
    the load high-water marks are visible without opening the JSONL.
    """
    line = f"[trace] {path}"
    if tracer.gauges:
        shown = " ".join(f"{name}={tracer.gauges[name]:g}"
                         for name in sorted(tracer.gauges))
        line += f" [gauges {shown}]"
    return line


def _profile_op(qualname: str) -> None:
    """Per-op autograd hook: count graph-node creations by op name.

    ``qualname`` is the backward closure's qualname, e.g.
    ``Tensor.__mul__.<locals>.backward`` or ``softmax.<locals>.backward``;
    the op name is the component before ``<locals>``.
    """
    current = _TRACER
    if current is None:
        return
    parts = qualname.split(".")
    op = parts[-3] if len(parts) >= 3 else qualname
    key = "nn.op." + op
    current.counters[key] = current.counters.get(key, 0) + 1
