"""Spans and counters recorded around calls into coopgraph's public functions.

Nothing here is inside the program: a function is wrapped by rebinding every
module-level name under which coopgraph's own modules reach it (for example
``coopgraph.training.step``, ``coopgraph.runner.step`` and
``coopgraph.env.step`` all name ``env.step``). Rebinding only the defining
module would miss the callers that imported the name directly.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute path) of every traced function; the span name drops the
# package prefix, so ``("autodiff", "Adam.step")`` records ``autodiff.Adam.step``.
LAYER_FUNCTIONS = (
    ("autodiff", "matmul"),
    ("autodiff", "scaled_dot_attention"),
    ("autodiff", "backward"),
    ("autodiff", "clip_grad_norm"),
    ("autodiff", "Adam.step"),
    ("policy", "act"),
    ("policy", "act_batch"),
    ("policy", "evaluate_actions"),
    ("policy", "encode"),
    ("policy", "latent"),
    ("policy", "value"),
    ("policy", "reconstruct"),
    ("policy", "agent_rows"),
    ("policy", "target_raw_reps"),
    ("commands", "translate"),
    ("commands", "command_raw_repr"),
    ("graph", "resolve_agent_actions"),
    ("graph", "apply_operator_action"),
    ("graph", "action_masks"),
    ("graph", "interfere"),
    ("env", "step"),
    ("env", "observe_all"),
    ("training", "collect"),
    ("training", "compute_gae"),
    ("training", "ppo_update"),
    ("training", "evaluate_policy"),
    ("training", "Trainer.run"),
    ("runner", "scripted_operator_action"),
    ("runner", "run_oracle_episode"),
    ("runner", "cmd_oracle"),
)

# these are reported once per calling function, because the same forward
# pass serves rollouts (act_batch), greedy eval (act) and PPO
# (evaluate_actions); any other nearest traced caller counts as "other"
_CALLERS = ("policy.act_batch", "policy.act", "policy.evaluate_actions", "other")
SPLIT_BY_PARENT = {name: _CALLERS for name in ("policy.encode", "policy.latent", "policy.value")}

# per-call work counts beyond the call itself; each returns a number
EXTRA_COUNTS = {
    # rows of the lockstep batch (episodes still alive)
    "policy.act_batch": lambda args, result: args[0].obs.shape[0],
    # member agents whose primitive action one command translates
    "commands.translate": lambda args, result: len(args[1]),
    # edges moved out of the two (agent edge, cluster edge) moves attempted
    "graph.apply_operator_action": lambda args, result: sum(result[1]),
}


def _resolve(module: str, attr: str):
    """(owner, name) of a traced function, or None if the program no longer has it."""
    owner = sys.modules.get(f"coopgraph.{module}")
    path = attr.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, path[-1]):
        return None
    return owner, path[-1]


def _binding_sites(fn):
    """Every (coopgraph module, name) whose global namespace holds ``fn``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "coopgraph" or mod_name.startswith("coopgraph."):
            for name, value in list(vars(mod).items()):
                if value is fn:
                    yield mod, name


@contextmanager
def rebound(wrappers: dict):
    """Rebind ``{(module, attr): make_wrapper(fn)}`` at every binding site.

    A method (``Class.method``) is rebound on its class; a function is
    rebound under every name any coopgraph module holds it by. All bindings
    are restored on exit.
    """
    import coopgraph.cli  # noqa: F401  (loads every module that may bind a name)

    restore = []
    try:
        for (module, attr), make in wrappers.items():
            found = _resolve(module, attr)
            if found is None:
                print(f"not traced, absent from the program: {module}.{attr}")
                continue
            owner, name = found
            original = getattr(owner, name)
            wrapped = make(original)
            sites = [(owner, name)] if isinstance(owner, type) else list(_binding_sites(original))
            for site, site_name in sites:
                restore.append((site, site_name, original))
                setattr(site, site_name, wrapped)
        yield
    finally:
        for site, name, original in reversed(restore):
            setattr(site, name, original)


class Tracer:
    """Keeps every span in memory: [name, start, end, parent index, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrapper(self, name: str, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if extra is not None:
                    rec[4] = extra(args, result)
                return result

            return traced

        return make

    @contextmanager
    def active(self):
        wrappers = {
            (module, attr): self._wrapper(f"{module}.{attr}", EXTRA_COUNTS.get(f"{module}.{attr}"))
            for module, attr in LAYER_FUNCTIONS
        }
        with rebound(wrappers):
            yield self

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer ``calls``, ``s`` and ``self_s`` plus the extra counts.

        Self time is a span's duration minus the time its traced children
        cover. Every traced function is reported, with zeros if not called.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        keys = []
        for module, attr in LAYER_FUNCTIONS:
            name = f"{module}.{attr}"
            if name in SPLIT_BY_PARENT:
                keys += [f"{name}.by_{p.split('.')[-1]}" for p in SPLIT_BY_PARENT[name]]
            else:
                keys.append(name)
        acc = {k: [0, 0.0, 0.0] for k in keys}
        extras: dict[str, list] = {k: [] for k in EXTRA_COUNTS}
        for i, (name, start, end, parent, extra) in enumerate(self.spans):
            key = name
            if name in SPLIT_BY_PARENT:
                caller = self.spans[parent][0] if parent >= 0 else "other"
                if caller not in SPLIT_BY_PARENT[name]:
                    caller = "other"
                key = f"{name}.by_{caller.split('.')[-1]}"
            a = acc[key]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
            if extra is not None:
                extras[name].append(extra)
        out: dict[str, float] = {}
        for key, (calls, total, self_s) in acc.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.s"] = total
            out[f"{key}.self_s"] = self_s
        rows = extras["policy.act_batch"]
        out["policy.act_batch.rows_per_call"] = sum(rows) / len(rows) if rows else 0.0
        out["policy.act_batch.rows_per_call_min"] = min(rows) if rows else 0
        out["commands.translate.members"] = sum(extras["commands.translate"])
        moved = extras["graph.apply_operator_action"]
        out["graph.apply_operator_action.moved_ratio"] = sum(moved) / (2 * len(moved)) if moved else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzip JSON lines: [name, start_s, end_s, parent, extra]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


class Boundary:
    """The untraced run's only instrumentation: a counter on ``env.step`` and
    one timer pair each around ``training.collect`` and ``training.ppo_update``."""

    def __init__(self):
        self.env_steps = 0
        self.collect_s = 0.0
        self.ppo_s = 0.0

    def snapshot(self) -> tuple:
        return self.env_steps, self.collect_s, self.ppo_s

    @contextmanager
    def active(self):
        clock = time.perf_counter

        def count_steps(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.env_steps += 1
                return fn(*args, **kwargs)
            return counted

        def timer(field):
            def make(fn):
                @functools.wraps(fn)
                def timed(*args, **kwargs):
                    t0 = clock()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        setattr(self, field, getattr(self, field) + clock() - t0)
                return timed
            return make

        with rebound({
            ("env", "step"): count_steps,
            ("training", "collect"): timer("collect_s"),
            ("training", "ppo_update"): timer("ppo_s"),
        }):
            yield self


def layer_unit(key: str) -> str:
    if key.endswith((".s", "_s")):
        return "s"
    if ".rows_per_call" in key:
        return "rows"
    if key.endswith(".moved_ratio"):
        return "ratio"
    return "count"


def deterministic_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The per-layer values that must repeat exactly for a given seed."""
    return {k: v for k, v in metrics.items() if layer_unit(k) != "s"}
