"""Private code in the library must have a caller in the library: a
private function, class or module-level name that only tests reach is a
test-only view, and belongs in the tests."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "contextuality"
DEFINED = re.compile(r"^(?:\s*(?:def|class)\s+(_\w+)|(_\w+)\s*[:=])", re.M)


def test_every_private_name_has_a_caller_in_src():
    src = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    names = {a or b for a, b in DEFINED.findall(src)}
    unused = sorted(n for n in names if not n.startswith("__")
                    and len(re.findall(rf"\b{n}\b", src)) == 1)
    assert unused == []
