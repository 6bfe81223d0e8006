"""repro.gen -- the seeded synthetic program generator.

The whole evaluation used to rest on ~10 hand-ported Olden/RegJava
programs (a few hundred lines each).  This package generates *well-typed,
region-inferable* Core-Java programs at any scale -- from ~100-line smoke
programs to 100k-line / 1k-class corpora -- deterministically from a
:class:`GenSpec` (seed + size knobs + feature toggles), and is what the
fuzzing oracle, the ``gen_scaling`` benchmark family and the ``repro gen``
CLI subcommand are built on:

* :class:`GenSpec` -- the reproducibility contract: the same spec always
  yields the byte-identical program, the spec round-trips through JSON,
  and every generated source embeds its spec in a header comment so any
  corpus file is reproducible from the file alone
  (:func:`spec_of_source`).
* :func:`generate_source` / :func:`generate_program` -- one program.
* :func:`generate_corpus` -- ``count`` programs from derived seeds.
* :func:`edit_script` -- successive single-method edits of one generated
  program, the workload for ``watch``/``Session.reinfer`` benchmarks.
* :mod:`repro.gen.oracle` -- the differential fuzzing oracle: pipeline
  invariants and source-vs-target interpreter bisimulation on generated
  corpora (``tests/fuzz/`` asserts it; see ``docs/generator.md``).
"""

from .spec import GenSpec, SPEC_HEADER_PREFIX, spec_of_source
from .generator import generate_program, generate_source
from .corpus import (
    corpus_seeds,
    edit_script,
    feature_matrix,
    generate_corpus,
    write_corpus,
)
from .oracle import OracleFailure, OracleReport, check_program_invariants

__all__ = [
    "GenSpec",
    "SPEC_HEADER_PREFIX",
    "spec_of_source",
    "generate_program",
    "generate_source",
    "corpus_seeds",
    "edit_script",
    "feature_matrix",
    "generate_corpus",
    "write_corpus",
    "OracleFailure",
    "OracleReport",
    "check_program_invariants",
]
