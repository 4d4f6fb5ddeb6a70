"""``repro.lab`` — persistent experiment store + campaign scheduler.

The lab layer turns one-shot experiment scripts into resumable,
cache-hitting campaigns:

* :mod:`repro.lab.spec` — :class:`RunSpec`, the declarative,
  content-hashed identity of one cell (scheme, workload, config,
  seed, crash behaviour, metric selection),
* :mod:`repro.lab.store` — :class:`ResultStore`, a SQLite-indexed,
  gzip-JSONL-blobbed result store with corruption quarantine,
* :mod:`repro.lab.scheduler` — the :class:`Dispatcher` loop over warm
  worker processes (per-job timeout, bounded retry/backoff, SIGINT
  draining) and the :class:`Scheduler` that adds store resume and
  journaled checkpoints (``star-lab resume``),
* :mod:`repro.lab.gridfile` — grid files re-expressing the paper's
  sweeps (Figs. 10-14, Table II) as campaigns,
* :mod:`repro.lab.lease` / :mod:`repro.lab.farm` — the campaign
  farm over one shared directory: a SQLite lease board with fencing
  tokens, which a :class:`Coordinator` (``star-lab serve``) and
  work-stealing :class:`Worker` pools (``star-lab work``) open
  directly, and whose merged stores export byte-identically to a
  serial run,
* :mod:`repro.lab.bridge` — :class:`LabCache`, the read-through cache
  ``star-bench --lab DIR`` serves figures from,
* :mod:`repro.lab.cli` — the ``star-lab
  run|status|resume|export|gc|serve|work|merge`` command line.

The package imports none of them: callers import the module they use,
so a worker process or a parallel fuzz campaign loads only what it
runs.
"""
