"""Incremental re-inference: ``reinfer_program`` splices clean SCCs.

The contract under test is the strong one the tentpole promises: for any
edit, the incremental result renders **byte-identical** (under
``pretty_target`` renumbering) to a from-scratch inference of the edited
source, while only the dirty SCCs re-run their fixed points.
"""

import re

import pytest

import random

from repro.bench.composite import (
    COMPOSITE_MEMBERS,
    composite_source,
    rename_local,
    tweak_method_body,
)
from repro.bench.families import REINFER_EDIT
from repro.bench.olden import OLDEN_PROGRAMS
from repro.core import InferenceConfig, SubtypingMode, infer_source
from repro.core.infer import reinfer_program
from repro.frontend import parse_program
from repro.lang.pretty import pretty_target


def rendered(result):
    return pretty_target(result.target, renumber=True)


def reinfer(prior, new_source, **kwargs):
    return reinfer_program(parse_program(new_source), prior, **kwargs)


def spliced(result, prior, qualified):
    """Whether ``result`` took ``qualified``'s record from ``prior``."""
    return result.methods[qualified] is prior.methods.get(qualified)


def unique_literals(source, minimum=1000):
    """Integer literals appearing exactly once — safe single-site edits.

    Core-Java fields carry no initialisers, so every literal lives in a
    method (or top-level function) body; tweaking one perturbs exactly
    one method.
    """
    counts = {}
    for m in re.finditer(r"\b\d+\b", source):
        counts[m.group()] = counts.get(m.group(), 0) + 1
    return [
        lit
        for lit, n in counts.items()
        if n == 1 and int(lit) >= minimum
    ]


class TestIdentity(object):
    def test_identical_resubmission_splices_everything(self):
        src = composite_source()
        prior = infer_source(src)
        result = reinfer(prior, src)
        assert result.reinferred_sccs == 0
        assert result.reused_sccs == prior.reinferred_sccs
        assert rendered(result) == rendered(prior)

    def test_whitespace_only_edit_is_clean(self):
        src = composite_source()
        prior = infer_source(src)
        reformatted = src.replace("{", "{\n ").replace(";", " ;")
        result = reinfer(prior, reformatted)
        assert result.reinferred_sccs == 0
        assert rendered(result) == rendered(prior)

    def test_incremental_result_shares_annotation_universe(self):
        src = composite_source()
        prior = infer_source(src)
        result = reinfer(
            prior, tweak_method_body(src, "1103515245", "1103515246")
        )
        # splicing adopts the prior annotation table rather than minting
        # a fresh uid universe — the invariant the SCC cache relies on
        assert result.annotations is prior.annotations


class TestSingleEdit(object):
    def test_body_tweak_reinfers_only_dirty_sccs(self):
        src = composite_source()
        prior = infer_source(src)
        edited = tweak_method_body(src, "1103515245", "1103515246")
        result = reinfer(prior, edited)
        assert result.reinferred_sccs >= 1
        assert result.reused_sccs > result.reinferred_sccs
        assert rendered(result) == rendered(infer_source(edited))

    def test_added_method_is_inferred(self):
        src = composite_source()
        prior = infer_source(src)
        edited = src + "\nint extraHelper(int n) { n + 1 }\n"
        result = reinfer(prior, edited)
        assert not spliced(result, prior, "extraHelper")
        assert rendered(result) == rendered(infer_source(edited))

    def test_removed_method_disappears(self):
        src = composite_source()
        grown = src + "\nint extraHelper(int n) { n + 1 }\n"
        prior = infer_source(grown)
        result = reinfer(prior, src)
        assert "extraHelper" not in rendered(result)
        assert rendered(result) == rendered(infer_source(src))


class TestDifferentialSuite(object):
    """Systematic single-site edits, each checked against scratch."""

    @pytest.mark.parametrize("name", ["bisort", "em3d", "health", "power"])
    def test_olden_literal_tweaks(self, name):
        src = OLDEN_PROGRAMS[name].source
        prior = infer_source(src)
        scratch_total = prior.reinferred_sccs
        spliced_any = False
        for lit in unique_literals(src)[:6]:
            edited = tweak_method_body(src, lit, str(int(lit) + 1))
            result = reinfer(prior, edited)
            assert rendered(result) == rendered(infer_source(edited)), (
                f"{name}: tweaking {lit} diverged from scratch"
            )
            if result.reused_sccs:
                spliced_any = True
                assert result.reused_sccs + result.reinferred_sccs >= 1
        assert spliced_any or scratch_total <= 1

    def test_composite_every_literal(self):
        src = composite_source()
        prior = infer_source(src)
        literals = unique_literals(src)
        assert len(literals) >= 3  # the corpus carries distinct seeds
        total_reused = 0
        for lit in literals:
            edited = tweak_method_body(src, lit, str(int(lit) + 1))
            result = reinfer(prior, edited)
            assert rendered(result) == rendered(infer_source(edited)), (
                f"tweaking {lit} diverged from scratch"
            )
            total_reused += result.reused_sccs
        # the composite holds four independent programs: a single-site
        # edit must never dirty the unrelated members
        assert total_reused >= len(literals) * (len(COMPOSITE_MEMBERS) - 1)

    @pytest.mark.parametrize("name", ["treeadd", "bisort", "power", "health"])
    def test_randomized_edits(self, name):
        """Seeded random mix of rename-local and body-tweak edits.

        A rename that happens to hit a field (bare field access makes
        locals and fields textually alike) legitimately forces a full
        rebuild — the contract under test is byte-identity either way.
        """
        rng = random.Random(0x1C47 + len(name))
        src = OLDEN_PROGRAMS[name].source
        prior = infer_source(src)
        idents = sorted(
            set(re.findall(r"\b(?:int|bool)\s+([a-z]\w*)\s*=", src))
        )
        edits = [("rename", i) for i in idents if i + "Qz" not in src]
        edits += [("tweak", lit) for lit in unique_literals(src, minimum=2)]
        rng.shuffle(edits)
        for kind, token in edits[:6]:
            if kind == "rename":
                edited = rename_local(src, token, token + "Qz")
            else:
                edited = tweak_method_body(src, token, str(int(token) + 1))
            result = reinfer(prior, edited)
            assert rendered(result) == rendered(infer_source(edited)), (
                f"{name}: {kind} {token!r} diverged from scratch"
            )


class TestCompositeCorpus(object):
    """The edit-one-method workload of the ``incremental_reinfer``
    family: one body edit in the four-program composite corpus."""

    @pytest.fixture(scope="class")
    def prior(self):
        return infer_source(composite_source())

    @pytest.fixture(scope="class")
    def edited(self):
        return tweak_method_body(composite_source(), *REINFER_EDIT)

    def test_full_inference_composite(self, prior):
        assert prior.reinferred_sccs >= 30  # the corpus is genuinely multi-SCC

    def test_incremental_reinfer_composite(self, prior, edited):
        result = reinfer(prior, edited)
        assert result.reused_sccs > result.reinferred_sccs >= 1

    def test_incremental_is_byte_identical(self, prior, edited):
        assert rendered(reinfer(prior, edited)) == rendered(infer_source(edited))


class TestInterfaceRipple(object):
    CALLEE_CHAIN = """
    class Box extends Object { Object payload; }
    void callee(Box b) { %s }
    void caller(Box b) { callee(b); }
    void outer(Box b) { caller(b); }
    """

    def test_callee_pre_change_reinfers_callers(self):
        src = self.CALLEE_CHAIN % ""
        prior = infer_source(src)
        # the edit makes callee write a field, strengthening its pre:
        # both transitive callers must leave the reuse set
        edited = self.CALLEE_CHAIN % "b.payload = new Object();"
        result = reinfer(prior, edited)
        for qn in ("callee", "caller", "outer"):
            assert not spliced(result, prior, qn)
        assert rendered(result) == rendered(infer_source(edited))

    def test_leaf_edit_spares_callers(self):
        src = """
        class Box extends Object { Object payload; }
        int leaf(int n) { n + 1 }
        int other(int n) { n * 2 }
        int caller(int n) { other(n) }
        """
        prior = infer_source(src)
        edited = src.replace("n + 1", "n + 2")
        result = reinfer(prior, edited)
        assert not spliced(result, prior, "leaf")
        assert spliced(result, prior, "caller")
        assert spliced(result, prior, "other")
        assert rendered(result) == rendered(infer_source(edited))

    def test_override_edit_ripples_through_dynamic_dispatch(self):
        template = """
        class A extends Object { Object x; Object get() { x } }
        class B extends A { Object y; Object get() { %s } }
        Object use(A a) { a.get() }
        """
        src = template % "y"
        prior = infer_source(src)
        # overriding get() to return the inherited field changes the
        # override-resolved invariant; the dispatch site must re-infer
        edited = template % "x"
        result = reinfer(prior, edited)
        assert not spliced(result, prior, "B.get")
        assert not spliced(result, prior, "use")
        assert rendered(result) == rendered(infer_source(edited))


class TestFullRebuildFallbacks(object):
    def test_config_change_falls_back_to_full(self):
        src = composite_source()
        prior = infer_source(src)
        other = InferenceConfig(mode=SubtypingMode.NONE)
        result = reinfer(prior, src, config=other)
        assert result.reused_sccs == 0
        assert result.annotations is not prior.annotations
        assert rendered(result) == rendered(infer_source(src, other))

    def test_class_field_change_falls_back_to_full(self):
        template = """
        class Box extends Object { Object %s; }
        Object pick(Box b) { b.%s }
        """
        src = template % ("fst", "fst")
        prior = infer_source(src)
        edited = template % ("snd", "snd")
        result = reinfer(prior, edited)
        assert result.reused_sccs == 0
        assert rendered(result) == rendered(infer_source(edited))
