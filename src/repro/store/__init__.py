"""Content-addressed run store (specs, records, persistence).

The paper's evaluation is dozens of (scheme, scheduler, load, seed)
points taking hours at the PAPER profile; this package makes each point
cacheable, addressable and resumable instead of ephemeral stdout:

- :class:`ExperimentSpec` canonically identifies a point and hashes to
  its content address;
- :class:`RunConfig` carries execution knobs (duration / profile / seed
  / jobs / audit / cache-dir) as one object instead of scattered kwargs;
- :class:`RunStore` persists :class:`RunRecord` results atomically so
  concurrent workers and killed runs never corrupt the cache;
- the ``repro runs`` CLI group lists, shows, diffs and garbage-collects
  stored records.
"""

from .._lazy import lazy_exports

__all__ = [
    "ExperimentSpec",
    "RunConfig",
    "RunRecord",
    "RunStore",
    "SPEC_SCHEMA_VERSION",
    "UNSET",
    "diff_records",
    "git_revision",
    "make_provenance",
    "resolve_run_config",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".spec": (
        "ExperimentSpec", "RunConfig", "SPEC_SCHEMA_VERSION", "UNSET",
        "resolve_run_config",
    ),
    ".runstore": (
        "RunRecord", "RunStore", "diff_records", "git_revision",
        "make_provenance",
    ),
})
