"""Every docstring example in the decoyeval package, one test case per
docstring."""

import doctest
import importlib
import io
import pkgutil

import pytest

import decoyeval

# dejavu(2, 2) returns -0.0 where its example shows 0.0: -math.expm1(0) is
# -0.0 (the `-0` FOUND in CHANGES.md, ROADMAP item 1). The change that mends
# it must drop this entry.
KNOWN_FAILING = {"decoyeval.metrics.dejavu": "dejavu(2, 2) returns -0.0"}


def docstring_examples() -> list[doctest.DocTest]:
    finder = doctest.DocTestFinder()
    modules = [decoyeval] + [importlib.import_module(info.name) for info in
                             pkgutil.iter_modules(decoyeval.__path__, "decoyeval.")]
    return sorted((test for module in modules for test in finder.find(module)
                   if test.examples), key=lambda test: test.name)


EXAMPLES = docstring_examples()


def case(test: doctest.DocTest):
    reason = KNOWN_FAILING.get(test.name)
    marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
    return pytest.param(test, id=test.name, marks=marks)


def test_known_examples_are_collected():
    names = {test.name for test in EXAMPLES}
    assert {"decoyeval.metrics.dejavu", "decoyeval.metrics.err_grade_map"} <= names


@pytest.mark.parametrize("test", [case(test) for test in EXAMPLES])
def test_docstring_examples(test):
    out = io.StringIO()
    result = doctest.DocTestRunner().run(test, out=out.write)
    assert result.failed == 0, out.getvalue()
