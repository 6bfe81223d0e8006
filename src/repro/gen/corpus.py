"""Corpora, feature matrices and edit scripts over generated programs.

One generated program is a :class:`~repro.gen.spec.GenSpec`; a *corpus*
is many of them with seeds derived deterministically from a base spec.
This module also derives the two workload shapes the rest of the system
consumes:

* :func:`feature_matrix` -- specs sweeping the feature toggles, so the
  fuzzing oracle covers every toggle combination rather than only the
  everything-on default;
* :func:`edit_script` -- successive single-literal edits of one
  generated program (each version is a complete source text, exactly
  what an editor buffer hands to ``Session.reinfer``), the workload for
  the ``watch``/incremental re-inference benchmarks at generated scale.

``write_corpus`` persists a corpus as ``gen_<k>.cj`` files plus a
``corpus.json`` manifest whose specs round-trip, so a corpus directory
is reproducible from its manifest alone (and each file from its own
header; see :func:`~repro.gen.spec.spec_of_source`).
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path
from typing import List, Sequence, Tuple

from .generator import generate_source
from .spec import GenSpec

__all__ = [
    "corpus_seeds",
    "generate_corpus",
    "feature_matrix",
    "edit_script",
    "write_corpus",
    "MANIFEST_NAME",
]

MANIFEST_NAME = "corpus.json"

#: an int literal inside an (indented) method body line -- edit targets
_BODY_LITERAL = re.compile(r"\b\d+\b")


def corpus_seeds(base_seed: int, count: int) -> List[int]:
    """``count`` member seeds derived from ``base_seed`` (stable; member
    ``k`` keeps its seed when the corpus grows)."""
    return [base_seed * 1_000_003 + k for k in range(count)]


def generate_corpus(
    spec: GenSpec, count: int
) -> List[Tuple[GenSpec, str]]:
    """``count`` programs: ``spec`` with derived member seeds."""
    return [
        (member, generate_source(member))
        for member in (
            spec.with_seed(seed) for seed in corpus_seeds(spec.seed, count)
        )
    ]


def feature_matrix(base: GenSpec = GenSpec()) -> List[GenSpec]:
    """Specs covering every combination of the five feature toggles.

    32 specs; pair with a handful of seeds for a fuzzing sweep that can
    attribute a failure to the toggle combination that provoked it.
    """
    toggles = ("recursion", "loops", "downcasts", "overrides", "letreg")
    out = []
    for mask in range(1 << len(toggles)):
        flags = {
            name: bool(mask >> bit & 1) for bit, name in enumerate(toggles)
        }
        out.append(GenSpec(**{**base.to_dict(), **flags}))
    return out


def edit_script(spec: GenSpec, edits: int) -> List[str]:
    """``edits + 1`` successive versions of the generated program.

    Version 0 is the pristine source; each later version bumps one int
    literal in one method-body line (rotating through distinct lines),
    the single-method edit shape of the incremental re-inference
    benchmarks.  Deterministic in ``spec``.
    """
    source = generate_source(spec)
    versions = [source]
    lines = source.splitlines()
    # body lines: indented, contain a literal, are not declarations
    candidates = [
        i
        for i, line in enumerate(lines)
        if line.startswith("  ")
        and _BODY_LITERAL.search(line)
        and not line.lstrip().startswith(("int ", "bool ", "//"))
    ]
    if not candidates:
        raise ValueError(f"no editable body lines in spec {spec.to_json()}")
    rng = random.Random(f"repro-gen:{spec.seed}:edits")
    for k in range(edits):
        target = candidates[
            rng.randrange(len(candidates)) if len(candidates) > 1 else 0
        ]
        line = lines[target]
        match = _BODY_LITERAL.search(line)
        assert match is not None
        bumped = str(int(match.group()) + 1)
        lines[target] = line[: match.start()] + bumped + line[match.end() :]
        versions.append("\n".join(lines))
    return versions


def write_corpus(
    directory: Path | str, corpus: Sequence[Tuple[GenSpec, str]]
) -> List[Path]:
    """Write ``gen_<k>.cj`` files plus the ``corpus.json`` manifest.

    Returns the program paths, in corpus order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    width = max(3, len(str(max(len(corpus) - 1, 0))))
    paths = []
    for k, (member, source) in enumerate(corpus):
        path = directory / f"gen_{k:0{width}d}.cj"
        path.write_text(source)
        paths.append(path)
    manifest = {
        "schema": "repro-gen-corpus/1",
        "count": len(corpus),
        "programs": [
            {"file": path.name, "spec": member.to_dict()}
            for path, (member, _) in zip(paths, corpus)
        ],
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return paths
