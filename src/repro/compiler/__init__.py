"""The Regulus compiler: SU(4)-native compilation framework of ReQISC.

The public API is the declarative one in :mod:`repro.target` (``Target`` +
``PipelineSpec`` + ``compile``); this package holds the passes, routing and
the :class:`CompilationResult` they produce.
"""

from repro.compiler.result import CompilationResult

__all__ = ["CompilationResult"]
