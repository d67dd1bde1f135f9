"""Scoped callee signatures: a function's preparation reads only the
signatures of the functions it calls, outside its own SCC.

``CallGraph.published_callees`` hands every bottom-up loop that map.
The reference here is the full map of every signature published so far
(minus same-SCC members), filtered by callees only inside the key: the
scoped map must give the same content key and the same prepared
connector signature for every function, so existing stores stay valid.
"""

import pytest

from repro.cache.keys import key_digest, prepare_cache_key
from repro.core.pipeline import prepare_function
from repro.ir.callgraph import CallGraph
from repro.ir.lower import lower_program
from repro.lang.parser import parse_program
from repro.synth.generator import GeneratorConfig, generate_program

RECURSIVE = """
fn leaf(p) { x = *p; return x; }
fn even(p, n) { if (n > 0) { r = odd(p, n - 1); } else { r = leaf(p); } return r; }
fn odd(p, n) { *p = n; r = even(p, n); return r; }
fn self_loop(p, n) { if (n > 0) { r = self_loop(p, n - 1); } else { r = 0; } return r; }
fn main() { p = malloc(); y = even(p, 3); z = self_loop(p, 2); free(p); return y; }
"""


def _generated():
    return generate_program(GeneratorConfig(seed=1, target_lines=600)).source


@pytest.mark.parametrize(
    "source", [_generated(), RECURSIVE], ids=["generated", "recursive"]
)
def test_scoped_map_matches_full_map_filtered_by_callees(source):
    program = parse_program(source)
    callgraph = CallGraph(lower_program(program))
    ast_by_name = {f.name: f for f in program.functions}
    scc_of = callgraph.scc_of
    signatures = {}
    for name in callgraph.bottom_up_order():
        func_ast = ast_by_name[name]
        callees = callgraph.callees[name]
        full = {
            callee: sig
            for callee, sig in signatures.items()
            if scc_of[callee] != scc_of[name]
        }
        called = {c: s for c, s in full.items() if c in callees}
        scoped = callgraph.published_callees(name, signatures)
        assert scoped == called
        assert key_digest(prepare_cache_key(func_ast, scoped)) == key_digest(
            prepare_cache_key(func_ast, called)
        )
        from_full = prepare_function(func_ast, full)
        from_scoped = prepare_function(func_ast, scoped)
        assert from_scoped.signature == from_full.signature
        signatures[name] = from_scoped.signature


def test_same_scc_callees_stay_out_of_the_map():
    program = parse_program(RECURSIVE)
    callgraph = CallGraph(lower_program(program))
    published = {name: name.upper() for name in callgraph.callees}
    assert callgraph.published_callees("even", published) == {"leaf": "LEAF"}
    assert callgraph.published_callees("odd", published) == {}
    assert callgraph.published_callees("self_loop", published) == {}
    assert callgraph.published_callees("main", published) == {
        "even": "EVEN",
        "self_loop": "SELF_LOOP",
    }
    # Only published (admitted) callees appear.
    assert callgraph.published_callees("main", {"even": "EVEN"}) == {"even": "EVEN"}
