"""Persistent compilation service: ``repro serve`` / ``repro submit``.

A long-lived daemon hosting one warm
:class:`~repro.engine.engine.EvaluationEngine` behind a
newline-delimited-JSON socket protocol: each evaluation request is its
own job in a bounded FIFO queue with explicit backpressure, and a
graceful drain answers every accepted request.  See
:mod:`repro.service.server` for the architecture and ``DESIGN.md`` §7
for the rationale.

Import the submodule you need (:mod:`~repro.service.jobs`,
:mod:`~repro.service.protocol`, :mod:`~repro.service.client`,
:mod:`~repro.service.server`, :mod:`~repro.service.queue`): the
package re-exports nothing, so a one-shot command that runs a job
in-process never loads the daemon or its sockets.

Concurrent clients that need more cores run several plain daemons, one
socket each, over one ``REPRO_CACHE_DIR``: the disk cache is safe to
share between processes, so every daemon reads what the others
simulated.
"""
