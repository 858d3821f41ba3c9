"""rayflow — a Ray-Data-native CDC / streaming-ETL engine.

A brand-new engine (NOT a port) with the declarative streaming-ETL
capabilities of the reference (``nmbryant/benthos``, a fork of
Jeffail/benthos — see SURVEY.md §0: the local reference checkout was
empty, so all reference citations are module-level upstream anchors
``⟨upstream: path⟩`` from public knowledge of that codebase).

Planes (mirroring the reference's component planes, SURVEY.md §2):

- :mod:`rayflow.ops`      — processor analogues (``internal/impl/pure/processor_*.go``)
- :mod:`rayflow.expr`     — scalar-function surface (Bloblang, ``internal/bloblang/``)
- :mod:`rayflow.pipeline` — config-driven pipeline builder (``internal/stream/``)
- :mod:`rayflow.cdc`      — the CDC/incremental-ingest core: change-log tail →
  key-partitioned LWW upsert into a Parquet lake with an exactly-once sink
  (``internal/checkpoint/``, ``internal/batch/policy/`` semantics rebuilt)

Everything is expressed Ray-Data-first: ``ray.data.Dataset`` pipelines,
``map_batches`` tasks over zero-copy Arrow batches, with a stateful
stage's state kept once per worker process.  Library code never calls
``ray.init()``.
"""

__version__ = "0.1.0"
