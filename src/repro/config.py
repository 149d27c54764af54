"""The engine settings, parsed in one place.

:class:`FlowConfig` holds every setting a decomposition run reads, each
field marked output-affecting or not.  Output-affecting fields decide
the mapped network; they travel with a job (:meth:`FlowConfig.job_config`)
and enter every key derived from it — the job-cache key, the sub-ISF
memo tag and the journal binding all hash :func:`config_key` text.  The
other fields change how fast a result is found, never which result (the
kernel, DSD and memo on/off differential suites hold them to that), so
they enter no key.

:meth:`FlowConfig.from_env` is the only reader of the engine's
``REPRO_*`` variables.  :func:`current` is the flow in force.  This
module imports nothing from the rest of the package.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional

#: Default live-support cap for kernel dispatch (2**24 minterm tables,
#: served by the tier-2 numpy word arrays past the tier-1 boundary).
DEFAULT_MAX_VARS = 24

#: Default tier-1 (bignum mask) boundary; wider supports go tier-2.
DEFAULT_TIER1_MAX_VARS = 16

#: Measured crossover for the symmetry ops: below this live-support
#: width the BDD path is usually faster than the kernel, unless the
#: operands are dense (:data:`repro.kernel.DEFAULT_SYMMETRY_DENSITY_FACTOR`).
DEFAULT_SYMMETRY_MIN_VARS = 16

#: Packages whose sources decide a mapped network; their hash (plus
#: this module, which holds the defaults) is the code version.
_ENGINE_PACKAGES = ("bdd", "boolfunc", "core", "decomp", "kernel", "mapping",
                    "symmetry", "twolevel", "network", "verify")


def _output(default: Any) -> Any:
    return dataclasses.field(default=default, metadata={"output": True})


@dataclasses.dataclass(frozen=True)
class FlowConfig:
    """Every engine setting, output-affecting fields first (the engine
    docstring in :mod:`repro.decomp.recursive` describes them)."""

    n_lut: int = _output(5)
    use_dontcares: bool = _output(True)
    use_symmetry_step: bool = _output(True)
    use_sharing_step: bool = _output(True)
    use_single_step: bool = _output(True)
    max_candidates: int = _output(24)
    try_candidates: int = _output(6)
    balanced: bool = _output(False)
    balanced_max_p: int = _output(8)
    use_dsd: bool = _output(True)
    time_budget: Optional[float] = _output(None)
    node_budget: Optional[int] = _output(None)
    verify: bool = _output(True)

    kernel: bool = True
    kernel_max_vars: int = DEFAULT_MAX_VARS
    #: Never above ``kernel_max_vars`` (clamped on construction).
    kernel_tier1_max_vars: int = DEFAULT_TIER1_MAX_VARS
    kernel_symmetry_min_vars: int = DEFAULT_SYMMETRY_MIN_VARS
    kernel_cost_model: bool = True
    use_submemo: bool = True
    submemo_verify: bool = False
    submemo_bytes: int = 64 * 1024 * 1024
    #: ``None``: the engine's per-variable heuristic.
    recursion_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_lut < 2:
            raise ValueError("n_lut must be at least 2")
        if self.kernel_tier1_max_vars > self.kernel_max_vars:
            object.__setattr__(self, "kernel_tier1_max_vars",
                               self.kernel_max_vars)

    @classmethod
    def from_env(cls) -> "FlowConfig":
        """The settings the ``REPRO_*`` environment asks for.

        Switches are off for ``off``/``0``/``false``/``no``.  Integer
        knobs ignore unparsable values and clamp negatives to ``0`` —
        the narrowest reading (``REPRO_KERNEL_MAX_VARS=-5`` disables
        dispatch rather than restoring the default).  Splice
        verification defaults to on exactly under pytest.
        """
        env = os.environ
        verify = env.get("REPRO_SUBMEMO_VERIFY", "").strip()
        return cls(
            use_dsd=_switch(env.get("REPRO_DSD")),
            kernel=_switch(env.get("REPRO_KERNEL")),
            kernel_max_vars=_count(env.get("REPRO_KERNEL_MAX_VARS"),
                                   DEFAULT_MAX_VARS),
            kernel_tier1_max_vars=_count(
                env.get("REPRO_KERNEL_TIER1_MAX_VARS"),
                DEFAULT_TIER1_MAX_VARS),
            kernel_symmetry_min_vars=_count(
                env.get("REPRO_KERNEL_SYMMETRY_MIN_VARS"),
                DEFAULT_SYMMETRY_MIN_VARS),
            kernel_cost_model=_switch(env.get("REPRO_KERNEL_COST_MODEL")),
            use_submemo=_switch(env.get("REPRO_SUBMEMO")),
            submemo_verify=(_switch(verify) if verify
                            else "PYTEST_CURRENT_TEST" in env),
            submemo_bytes=_count(env.get("REPRO_SUBMEMO_BYTES"),
                                 cls.submemo_bytes),
            recursion_limit=_count(env.get("REPRO_RECURSION_LIMIT"), None))

    @classmethod
    def from_job(cls, config: Optional[Mapping[str, Any]],
                 base: Optional["FlowConfig"] = None) -> "FlowConfig":
        """The flow a job runs under: its config over the output
        defaults — never the executing process's own output settings,
        which the job's key does not cover — and the other fields of
        ``base`` (default: :func:`current`)."""
        return dataclasses.replace(base or current(),
                                   **_OUTPUT_DEFAULTS).apply(config)

    def apply(self, config: Optional[Mapping[str, Any]]) -> "FlowConfig":
        """This flow with a job config laid over it (output-affecting
        fields only; a zero or missing budget means none)."""
        changes = dict(config or {})
        unknown = set(changes) - set(_OUTPUT_DEFAULTS)
        if unknown:
            raise ValueError(
                f"unknown job config key(s): {', '.join(sorted(unknown))}")
        for name in ("time_budget", "node_budget"):
            if name in changes:
                changes[name] = changes[name] or None
        return dataclasses.replace(self, **changes)

    def job_config(self, flow: str = "map") -> Dict[str, Any]:
        """The job config dict: the output-affecting fields that differ
        from their defaults.  ``map`` always names ``use_dontcares``;
        ``compare`` runs both drivers and never does."""
        config = {name: getattr(self, name) for name in OUTPUT_FIELDS
                  if getattr(self, name) != _OUTPUT_DEFAULTS[name]}
        config.pop("use_dontcares", None)
        if flow != "compare":
            config = {"use_dontcares": self.use_dontcares, **config}
        return config

    def output_key(self, flow: str = "map") -> str:
        """:func:`config_key` text of this flow's job config."""
        return config_key(flow, self.job_config(flow))


_OUTPUT_DEFAULTS = {f.name: f.default for f in dataclasses.fields(FlowConfig)
                    if f.metadata.get("output")}

#: Names of the output-affecting fields, in declaration order.
OUTPUT_FIELDS = tuple(_OUTPUT_DEFAULTS)


def _switch(raw: Optional[str]) -> bool:
    return (raw or "").strip().lower() not in ("off", "0", "false", "no")


def _count(raw: Optional[str], default: Optional[int]) -> Optional[int]:
    try:
        return max(0, int((raw or "").strip()))
    except ValueError:
        return default


@functools.lru_cache(maxsize=None)
def code_version() -> str:
    """SHA-256 over the sources that decide a mapped network, computed
    once per process: any edit to them invalidates every cache entry,
    memo entry and journal written before it."""
    root = Path(__file__).resolve().parent
    paths = [root / "config.py"]
    for package in _ENGINE_PACKAGES:
        paths.extend(sorted((root / package).rglob("*.py")))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def config_key(flow: Optional[str],
               config: Optional[Mapping[str, Any]]) -> str:
    """Canonical text of a job's flow and config under this code
    version: what every cache, memo and journal key is derived from."""
    return json.dumps({"flow": flow, "config": config,
                       "code": code_version()},
                      sort_keys=True, separators=(",", ":"))


_PROCESS: Optional[FlowConfig] = None
_RUN: "contextvars.ContextVar[Optional[FlowConfig]]" = \
    contextvars.ContextVar("repro_run_flow", default=None)


def current() -> FlowConfig:
    """The flow in force: the running engine's (this thread), else the
    process flow an entry point set (inherited by forked workers), else
    the environment's, read afresh on every call."""
    return _RUN.get() or _PROCESS or FlowConfig.from_env()


@contextmanager
def running(flow: FlowConfig) -> Iterator[FlowConfig]:
    """Make ``flow`` current for one engine run on this thread."""
    token = _RUN.set(flow)
    try:
        yield flow
    finally:
        _RUN.reset(token)


@contextmanager
def process_flow(flow: FlowConfig) -> Iterator[FlowConfig]:
    """Make ``flow`` current for the whole process — every thread, and
    every worker forked meanwhile — until the block exits."""
    global _PROCESS
    saved, _PROCESS = _PROCESS, flow
    try:
        yield flow
    finally:
        _PROCESS = saved
