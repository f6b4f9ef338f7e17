"""Batch job files: the ``repro batch`` input format.

A jobs file is JSON -- either a bare list of job objects or
``{"defaults": {...}, "jobs": [...]}``. Each job object:

.. code-block:: json

    {
      "id": "social-1",
      "graph": "soc-comm-10x50",
      "problem": "k-clique-count",
      "priority": 1,
      "timeout_s": 10.0,
      "config": {"heuristic": "multi-degree", "window_size": 1024, "k": 4}
    }

``graph`` (required) is a file path or a surrogate-suite dataset name,
resolved exactly as the CLI resolves positional graph arguments.
``config`` keys are :class:`~repro.core.config.SolverConfig` field
names, passed through verbatim (so everything the programmatic API
accepts is expressible). ``problem`` is a convenience alias for
``config.problem`` (one of
:data:`~repro.core.config.PROBLEM_KINDS`), usable per-job or in
``defaults``; specifying both the alias and ``config.problem`` is an
error. An optional ``fingerprint`` pins the job to an exact
result-relevant configuration: it must carry the current
:data:`~repro.core.config.FINGERPRINT_VERSION` prefix and match the
built config's :func:`~repro.core.config.config_fingerprint` --
kind-less fingerprints from pre-problem-kind jobs files are rejected
outright rather than silently treated as ``max-clique``. ``defaults``
supplies fallback values for ``priority`` / ``timeout_s`` /
``problem`` / ``config`` entries merged under each job's own. Unknown
keys anywhere raise :class:`~repro.errors.JobSpecError` -- silent
typos in a batch file are worse than a loud failure. See
docs/SERVICE.md for the full schema.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from ..core.config import (
    FINGERPRINT_VERSION, SolverConfig, config_fingerprint, is_time_budget,
)
from ..errors import JobSpecError, SolverConfigError
from ..graph.csr import CSRGraph
from .request import SolveRequest

__all__ = ["load_jobs", "parse_jobs", "resolve_graph"]

_JOB_KEYS = {
    "id", "graph", "priority", "timeout_s", "config", "label",
    "problem", "fingerprint",
}
_DEFAULT_KEYS = {"priority", "timeout_s", "config", "problem"}
_CONFIG_FIELDS = frozenset(SolverConfig.__dataclass_fields__)


def resolve_graph(name: str) -> CSRGraph:
    """Load a graph file, or fall back to a suite dataset name.

    Raises :class:`~repro.errors.JobSpecError` when the name is
    neither; the CLI and the jobs loader share this resolution.
    """
    from ..graph.io import load_graph

    if Path(name).exists():
        return load_graph(name)
    from ..datasets.suite import load as load_dataset

    try:
        return load_dataset(name)
    except KeyError:
        raise JobSpecError(
            f"{name!r} is neither a readable file nor a suite dataset "
            f"(try `python -m repro datasets`)"
        )


def _build_config(spec: Dict[str, Any], where: str) -> SolverConfig:
    unknown = set(spec) - _CONFIG_FIELDS
    if unknown:
        raise JobSpecError(
            f"{where}: unknown config key(s) {sorted(unknown)}; valid keys "
            f"are the SolverConfig fields {sorted(_CONFIG_FIELDS)}"
        )
    try:
        return SolverConfig(**spec)
    except (SolverConfigError, ValueError, TypeError) as exc:
        raise JobSpecError(f"{where}: invalid config: {exc}")


def _check_fingerprint(fp: Any, config: SolverConfig, where: str) -> None:
    """Validate a job's pinned config fingerprint, if any.

    Fingerprints written before problem kinds existed (no ``v<N>;``
    prefix) described max-clique solves implicitly; accepting one
    would silently collide with current ``max-clique`` cache entries,
    so they are rejected with a pointer at the schema change.
    """
    if fp is None:
        return
    if not isinstance(fp, str):
        raise JobSpecError(f"{where}: 'fingerprint' must be a string")
    prefix = FINGERPRINT_VERSION + ";"
    if not fp.startswith(prefix):
        raise JobSpecError(
            f"{where}: kind-less config fingerprint (pre-{FINGERPRINT_VERSION} "
            f"schema, before problem kinds); re-generate the jobs file -- "
            f"current fingerprints start with {prefix!r}"
        )
    actual = config_fingerprint(config)
    if fp != actual:
        raise JobSpecError(
            f"{where}: 'fingerprint' does not match the job's config "
            f"(expected {actual!r})"
        )


def parse_jobs(payload: Union[list, dict], source: str = "<jobs>") -> List[SolveRequest]:
    """Turn a decoded jobs payload into solve requests (graphs loaded)."""
    if isinstance(payload, list):
        defaults: Dict[str, Any] = {}
        jobs = payload
    elif isinstance(payload, dict):
        unknown = set(payload) - {"defaults", "jobs"}
        if unknown:
            raise JobSpecError(
                f"{source}: unknown top-level key(s) {sorted(unknown)}"
            )
        defaults = payload.get("defaults", {})
        if not isinstance(defaults, dict):
            raise JobSpecError(f"{source}: 'defaults' must be an object")
        bad = set(defaults) - _DEFAULT_KEYS
        if bad:
            raise JobSpecError(
                f"{source}: unknown defaults key(s) {sorted(bad)}"
            )
        jobs = payload.get("jobs")
        if jobs is None:
            raise JobSpecError(f"{source}: missing 'jobs' list")
    else:
        raise JobSpecError(f"{source}: expected a list or an object at top level")
    if not isinstance(jobs, list) or not jobs:
        raise JobSpecError(f"{source}: 'jobs' must be a non-empty list")

    default_config = defaults.get("config", {})
    if not isinstance(default_config, dict):
        raise JobSpecError(f"{source}: defaults.config must be an object")
    requests: List[SolveRequest] = []
    for i, job in enumerate(jobs):
        where = f"{source}: job #{i}"
        if not isinstance(job, dict):
            raise JobSpecError(f"{where}: expected an object")
        unknown = set(job) - _JOB_KEYS
        if unknown:
            raise JobSpecError(f"{where}: unknown key(s) {sorted(unknown)}")
        graph_name = job.get("graph")
        if not isinstance(graph_name, str) or not graph_name:
            raise JobSpecError(f"{where}: 'graph' (string) is required")
        config_spec = dict(default_config)
        job_config = job.get("config", {})
        if not isinstance(job_config, dict):
            raise JobSpecError(f"{where}: 'config' must be an object")
        config_spec.update(job_config)
        problem = job.get("problem")
        if problem is not None and "problem" in job_config:
            raise JobSpecError(
                f"{where}: 'problem' given both as a job key and in "
                f"'config'; use one"
            )
        if problem is None and "problem" not in job_config:
            # the defaults-level alias is a fallback only: a job's own
            # config.problem wins over it
            problem = defaults.get("problem")
        if problem is not None:
            if not isinstance(problem, str):
                raise JobSpecError(f"{where}: 'problem' must be a string")
            config_spec["problem"] = problem
        config = _build_config(config_spec, where)
        _check_fingerprint(job.get("fingerprint"), config, where)
        timeout_s = job.get("timeout_s", defaults.get("timeout_s"))
        if timeout_s is not None and not is_time_budget(timeout_s):
            raise JobSpecError(
                f"{where}: 'timeout_s' must be a positive finite number"
            )
        priority = job.get("priority", defaults.get("priority", 0))
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise JobSpecError(f"{where}: 'priority' must be an integer")
        requests.append(
            SolveRequest(
                graph=resolve_graph(graph_name),
                config=config,
                job_id=job.get("id"),
                priority=priority,
                timeout_s=timeout_s,
                label=job.get("label", graph_name),
            )
        )
    return requests


def load_jobs(path: Union[str, Path]) -> List[SolveRequest]:
    """Read and parse a jobs file; raises ``JobSpecError`` on bad input."""
    p = Path(path)
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise JobSpecError(f"cannot read jobs file {p}: {exc}")
    except ValueError as exc:
        # a JSONDecodeError, bytes that are not UTF-8, or an integer
        # past the interpreter's digit limit
        raise JobSpecError(f"{p} is not valid JSON: {exc}")
    return parse_jobs(payload, source=str(p))
