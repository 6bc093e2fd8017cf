"""An Aspen-style DSL for resilience modeling (paper §II-III.D).

Aspen [Spafford & Vetter, SC'12] is a domain-specific language for
structured analytical modeling of applications and abstract machines.
The paper extends its syntax and semantics so users can declare data
structures, their memory access patterns (with parameters and templates)
and machine descriptions (cache geometry + memory FIT rate), and have
the compiler produce ``N_ha`` and DVF.  This package is a from-scratch
implementation of that extended language:

* :mod:`repro.aspen.lexer` / :mod:`repro.aspen.parser` — text to AST;
* :mod:`repro.aspen.expr` — the arithmetic expression sub-language;
* :mod:`repro.aspen.machine` — a ``machine`` block evaluates to the
  :class:`~repro.core.machine.MachineModel` kernels are analyzed on;
* :mod:`repro.aspen.compiler` — one pass from a ``model`` declaration
  to the CGPMAC estimators, the one place a model is checked;
* :mod:`repro.aspen.builtin` — the paper's six kernels as Aspen source.

Quickstart::

    from repro.aspen.compiler import compile_source
    compiled = compile_source(VM_SOURCE, machine="profiling_8mb")
    compiled.nha_by_structure()   # {"A": ..., "B": ..., "C": ...}
"""
