"""Span tracing of msgdlab's public functions, installed from outside the package.

The tracer replaces each traced function, wherever a loaded ``msgdlab``
module holds a reference to it (module globals, dispatch dicts such as
``weights._SAMPLERS``, or a class attribute), with a wrapper that records one
span per call.  Loss-model callables are closures built by the model
factories, so the factory wrappers wrap the callables of the models they
return.  Nothing under ``src/`` changes, and the wrappers draw no randomness,
so traced runs write the same artifact bytes as untraced ones.

Spans are aggregated in memory per (label, parent label) as count,
inclusive seconds and self seconds (inclusive time minus the inclusive time
of child spans).  A target that no longer exists is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time

# (label, module, attribute); a dotted attribute names a class member.
TARGETS = [
    ("numerics.derive", "msgdlab.numerics", "derive_stream"),
    ("numerics.derive", "msgdlab.numerics", "RngStream.child"),
    ("numerics.gamma", "msgdlab.numerics", "sample_gamma"),
    ("weights.minibatch", "msgdlab.weights", "sample_minibatch_weights"),
    ("weights.gaussian", "msgdlab.weights", "sample_gaussian_structured_weights"),
    ("weights.dirichlet", "msgdlab.weights", "sample_dirichlet_weights"),
    ("weights.moments", "msgdlab.weights", "empirical_weight_moments"),
    ("models.build", "msgdlab.models", "make_quadratic_model"),
    ("models.build", "msgdlab.models", "make_uniform_clt_model"),
    ("models.build", "msgdlab.models", "make_logistic_model"),
    ("models.build", "msgdlab.models", "generate_logistic_dataset"),
    ("dynamics.msgd", "msgdlab.dynamics", "run_msgd"),
    ("dynamics.gaussian_sgd", "msgdlab.dynamics", "run_gaussian_sgd"),
    ("dynamics.diffusion_em", "msgdlab.dynamics", "run_diffusion_em"),
    ("dynamics.gd", "msgdlab.dynamics", "run_gd"),
    ("dynamics.ode", "msgdlab.dynamics", "run_ode"),
    ("stats.clt_error_samples", "msgdlab.stats", "clt_error_samples"),
    ("stats.convergence_curve", "msgdlab.stats", "convergence_curve"),
    ("stats.sliced_w2", "msgdlab.stats", "sliced_w2"),
    ("stats.coordinate_avg_w2", "msgdlab.stats", "coordinate_avg_w2"),
    ("stats.ks_normality", "msgdlab.stats", "ks_normality"),
    ("stats.contraction_fit", "msgdlab.stats", "contraction_fit"),
    ("stats.contraction_fit_jackknife", "msgdlab.stats", "contraction_fit_jackknife"),
    ("stats.covariance_with_se", "msgdlab.stats", "covariance_with_se"),
    ("cli.validate", "msgdlab.cli", "validate_config"),
    ("cli.run", "msgdlab.cli", "run_experiment"),
]

MODEL_CALLABLES = ("objective", "grad_objective", "sample_data", "grad_loss", "noise_factor")


class Tracer:
    """In-memory span aggregation plus named counters."""

    def __init__(self):
        self._stack: list[list] = []  # [label, inclusive seconds of children]
        self.spans: dict[tuple, list] = {}  # (label, parent) -> [count, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, label: str, fn, after=None, on_error=None):
        """Return ``fn`` wrapped in a span; ``after(args, result)`` and
        ``on_error(exc)`` update counters."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                key = (label, parent[0] if parent is not None else None)
                record = spans.get(key)
                if record is None:
                    spans[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - frame[1]
            if after is not None:
                after(args, result)
            return result

        return traced

    def export(self) -> dict:
        return {
            "spans": [
                {"label": label, "parent": parent, "count": c, "total_s": t, "self_s": s}
                for (label, parent), (c, t, s) in sorted(
                    self.spans.items(), key=lambda item: (item[0][0], str(item[0][1]))
                )
            ],
            "counters": dict(sorted(self.counters.items())),
            "absent": sorted(self.absent),
        }


def _replace_references(original, wrapper) -> None:
    """Point every reference a loaded msgdlab module holds to ``original`` at
    ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "msgdlab" or name.startswith("msgdlab.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
            elif isinstance(value, dict):
                for inner_key, inner in list(value.items()):
                    if inner is original:
                        value[inner_key] = wrapper


def _hooks(tracer: Tracer, label: str):
    """Counters recorded at a span's boundary: (after, on_error)."""
    if label == "numerics.derive":
        def after(args, result):
            # RngStream.child(self, *labels); a Dirichlet retry derives "dirichlet_retry"
            if len(args) > 1 and args[1] == "dirichlet_retry":
                tracer.count("weights.dirichlet.retries")
        return after, None
    if label.startswith("dynamics."):
        def after(args, result):
            steps = result.states.shape[0] - 1
            if label == "dynamics.diffusion_em":
                steps *= args[2]  # EM counts substeps
            tracer.count(f"{label}.steps", steps)

        def on_error(exc):
            if type(exc).__name__ == "DivergenceError":
                tracer.count("dynamics.diverged")
        return after, on_error
    if label == "models.sample_data":
        return (lambda args, result: tracer.count("models.sample_data.rows", int(args[1]))), None
    if label == "models.grad_loss":
        return (lambda args, result: tracer.count("models.grad_loss.rows", len(args[1]))), None
    return None, None


def _wrap_model(tracer: Tracer, model):
    """Return ``model`` with its callables wrapped, when it is a loss model."""
    if not dataclasses.is_dataclass(model) or not all(
        hasattr(model, name) for name in MODEL_CALLABLES
    ):
        return model
    wrapped = {}
    for name in MODEL_CALLABLES:
        label = f"models.{name}"
        after, _ = _hooks(tracer, label)
        wrapped[name] = tracer.wrap(label, getattr(model, name), after=after)
    return dataclasses.replace(model, **wrapped)


def install(tracer: Tracer) -> Tracer:
    """Wrap every target in the already imported msgdlab package."""
    for label, module_name, attribute in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.append(f"{module_name}.{attribute}")
            continue
        owner_name, _, member = attribute.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, member, None) if owner is not None else None
        if not callable(original):
            tracer.absent.append(f"{module_name}.{attribute}")
            continue
        if label == "models.build":
            def build(*args, _factory=original, **kwargs):
                return _wrap_model(tracer, _factory(*args, **kwargs))

            wrapper = tracer.wrap(label, build)
        else:
            after, on_error = _hooks(tracer, label)
            wrapper = tracer.wrap(label, original, after=after, on_error=on_error)
        if owner_name:
            setattr(owner, member, wrapper)
        else:
            _replace_references(original, wrapper)
    return tracer

