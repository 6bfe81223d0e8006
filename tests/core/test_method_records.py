"""One record per method: an edit shares the clean SCCs' records.

A spliced method's :class:`~repro.core.MethodRecord` is the prior's
object itself, a re-inferred method's is new, and a shared record keeps
no older version's parse tree alive.
"""

import gc
import weakref

import pytest

from repro.api import Session
from repro.bench.composite import composite_source, tweak_method_body
from repro.core import DependencyGraph, diff, infer_source
from repro.core.infer import reinfer_program
from repro.frontend import parse_program
from repro.gen import GenSpec, edit_script


def dirty(prior, result):
    """The methods the dependency-graph diff says the edit re-infers."""
    return diff(
        DependencyGraph(prior.table.program, prior.table),
        DependencyGraph(result.table.program, result.table),
        old_salts=prior.plan_salts,
        new_salts=result.plan_salts,
    )


def composite_chain():
    src = composite_source()
    once = tweak_method_body(src, "1103515245", "1103515246")
    return [src, once, tweak_method_body(once, "100003", "100004")]


@pytest.mark.parametrize(
    "versions",
    [composite_chain(), edit_script(GenSpec.sized(10, seed=3), 3)],
    ids=["composite", "sized10"],
)
def test_a_reinfer_chain_shares_exactly_the_spliced_records(versions):
    session = Session()
    prior = session.reinfer(versions[0], document="buf")
    for version in versions[1:]:
        result = session.reinfer(version, document="buf")
        rerun = dirty(prior, result)
        assert rerun and len(rerun) < len(result.methods)
        for qn, record in result.methods.items():
            if qn in rerun:
                assert record is not prior.methods.get(qn), qn
            else:
                assert record is prior.methods[qn], qn
        shared = [
            scc
            for scc in DependencyGraph(result.table.program, result.table).method_sccs()
            if all(result.methods[qn] is prior.methods.get(qn) for qn in scc)
        ]
        assert len(shared) == result.reused_sccs
        prior = result


def test_a_from_scratch_result_has_a_record_per_method():
    result = infer_source(composite_source())
    names = [m.qualified_name for m in result.table.program.all_methods()]
    assert list(result.methods) == names
    for qn, record in result.methods.items():
        assert record.scheme.qualified == qn
        assert record.pre is result.target.q[record.scheme.pre]
        assert record.body.pre_name == record.scheme.pre
    with pytest.raises(AttributeError):
        record.localized = 0


def test_iteration_keys_hold_the_schemes_own_name_strings():
    # a result keeps each method name once: its SCC's fixpoint_iterations
    # key reuses the scheme's string, also for an SCC spliced from a prior
    session = Session()
    for version in edit_script(GenSpec.sized(10, seed=3), 1):
        result = session.reinfer(version, document="buf")
        assert result.fixpoint_iterations
        for key in result.fixpoint_iterations:
            for qn in key:
                assert qn is result.methods[qn].scheme.qualified, qn
    assert result.reused_sccs > 0


def test_a_shared_record_pins_no_older_parse_tree():
    src, edited = composite_chain()[:2]
    prior = infer_source(src)
    result = reinfer_program(parse_program(edited), prior)
    shared = [qn for qn, r in result.methods.items() if r is prior.methods[qn]]
    assert shared
    program = prior.table.program
    refs = [weakref.ref(program)] + [
        weakref.ref(m) for m in program.all_methods()
    ]
    del prior, program
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
    # the shared records outlive the result they came from
    assert all(result.methods[qn].body.body is not None for qn in shared)
