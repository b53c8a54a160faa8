"""README.md's library tour runs, and its comments give the values it
computes."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1, "README.md should have one python block"
    return blocks[0]


def _comment(code: str, expr: str) -> str:
    """The comment on the line of code that is the expression expr."""
    for line in code.splitlines():
        stmt, _, comment = line.partition("#")
        if stmt.strip() == expr:
            return comment.strip()
    raise AssertionError(f"no line {expr!r} in the README tour")


def test_readme_tour_values():
    code = _tour()
    ns = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(README), "exec"), ns)
    assert out.getvalue()  # the decomposition loop prints its pieces

    rv_x = eval("rv(x, 3)", ns)
    assert _comment(code, "rv(x, 3)").endswith(": " + str(rv_x))
    assert str(rv_x) == "rv[3]{v=-2; unit=1,1,1,1}"

    v = eval("x.val()", ns)
    assert _comment(code, "x.val()").startswith(f"{v}:")
    assert v == -2 and type(v) is int

    roots = eval("field_roots(f)", ns)
    assert _comment(code, "field_roots(f)") == "[-t, t], exact"
    t = ns["t"]
    assert roots == [-t, t]
    assert all(r.is_exact for r in roots)
