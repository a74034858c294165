"""The package's one einsum entry point: what it resolves to, that it keeps
`np.einsum`'s bits on every contraction the package makes, and that no
module calls `np.einsum` around it."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from netshuffle._einsum import einsum

SRC = Path(__file__).resolve().parents[1] / "src" / "netshuffle"
ENTRY = SRC / "_einsum.py"


def _operands(rng, *shapes):
    return [rng.normal(size=shape) for shape in shapes]


# every subscript string in src/netshuffle, with operands of the shapes its
# call site passes, for n agents, m components, k rows and p coordinates
CASES = {
    "imkp,imk->ip": lambda r, n, m, k, p: _operands(r, (n, m, k, p), (n, m, k)),
    "imkr,imk->imr": lambda r, n, m, k, p: _operands(r, (n, m, k, p), (n, m, k)),
    "imkr,imr->imk": lambda r, n, m, k, p: _operands(r, (n, m, k, p), (n, m, p)),
    "imkp,ip->imk": lambda r, n, m, k, p: _operands(r, (n, m, k, p), (n, p)),
    "ikp,ip->ik": lambda r, n, m, k, p: _operands(r, (n, k, p), (n, p)),
    "ikp,ik->ip": lambda r, n, m, k, p: _operands(r, (n, k, p), (n, k)),
    "ipq,iq->ip": lambda r, n, m, k, p: _operands(r, (n, p, p), (n, p)),
    "ip,pq,iq->i": lambda r, n, m, k, p: _operands(r, (n, p), (p, p), (n, p)),
    "...p,...p,p->...": lambda r, n, m, k, p: _operands(r, (n, m, p), (n, m, p), (p,)),
    "im,imp->p": lambda r, n, m, k, p: _operands(r, (n, m), (n, m, p)),
    "ip,ip->i": lambda r, n, m, k, p: _operands(r, (n, p), (n, p)),
    "imp,ip->im": lambda r, n, m, k, p: _operands(r, (n, m, p), (n, p)),
    "imp,p->im": lambda r, n, m, k, p: _operands(r, (n, m, p), (p,)),
    "im,imp->ip": lambda r, n, m, k, p: _operands(r, (n, m), (n, m, p)),
    # a neighbour gather: weights (n, k) against the gathered (n, k, p) rows
    "ik,ik...->i...": lambda r, n, m, k, p: _operands(r, (n, k), (n, k, p)),
}


def _subscripts_in_src() -> set:
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "einsum"):
                first = node.args[0]
                assert isinstance(first, ast.Constant), f"{path.name}:{node.lineno}"
                found.add(first.value)
    return found


def test_entry_point_is_what_np_einsum_forwards_to():
    forwarded = inspect.unwrap(np.einsum).__globals__.get("c_einsum")
    assert einsum is np.einsum or (forwarded is not None and einsum is forwarded)


def test_cases_cover_every_subscript_in_src():
    assert _subscripts_in_src() == set(CASES)


@pytest.mark.parametrize("p", [1, 4, 16])
@pytest.mark.parametrize("subscripts", sorted(CASES))
def test_entry_point_gives_np_einsums_bits(subscripts, p):
    rng = np.random.default_rng(p)
    for n, m, k in ((1, 1, 1), (8, 16, 3), (16, 5, 7)):
        operands = CASES[subscripts](rng, n, m, k, p)
        want = np.einsum(subscripts, *operands)
        got = einsum(subscripts, *operands)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # a vector mixed through a neighbour gather, and a single point's gap
    if subscripts == "ik,ik...->i...":
        wt, rows = _operands(rng, (8, 3), (8, 3))
        assert einsum(subscripts, wt, rows).tobytes() == np.einsum(subscripts, wt, rows).tobytes()
    if subscripts == "...p,...p,p->...":
        d, x = _operands(rng, (p,), (p,))
        assert einsum(subscripts, x, x, d) == np.einsum(subscripts, x, x, d)


def _numpy_einsum_uses(path: Path):
    """(line, is a call) of every np.einsum or numpy.einsum in a module."""
    tree = ast.parse(path.read_text())
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "einsum"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.lineno, id(node) in calls
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name == "einsum" for alias in node.names):
                yield node.lineno, True


def test_no_module_calls_np_einsum_past_the_entry_point():
    offending = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for line, call in _numpy_einsum_uses(path)
                 if path != ENTRY or call]
    assert not offending, f"call netshuffle._einsum.einsum instead: {offending}"
    # the entry point names np.einsum only as its fallback, without calling it
    assert [call for _, call in _numpy_einsum_uses(ENTRY)] == [False]
