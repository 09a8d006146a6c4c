"""Span arithmetic and wrapper lifetime of the benchmark's tracer."""

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_of_nested_spans():
    parent = Span("p", 1, 0.0, 10.0)
    child = Span("c", 1, 1.0, 4.0, parent)
    grandchild = Span("g", 1, 2.0, 3.0, child)
    late = Span("c", 1, 6.0, 7.0, parent)
    selfs = spans.self_times([grandchild, child, late, parent])
    assert selfs[parent] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[child] == pytest.approx(2.0)
    assert selfs[grandchild] == pytest.approx(1.0)
    totals = spans.layer_totals([grandchild, child, late, parent])
    assert totals["c"] == (2, pytest.approx(4.0), pytest.approx(3.0))


def test_self_time_with_children_on_two_threads():
    parent = Span("p", 1, 0.0, 10.0)
    # Overlapping children from two pool threads count once; the part of a
    # child outside its parent's interval counts not at all.
    a = Span("a", 2, 1.0, 5.0, parent)
    b = Span("b", 3, 3.0, 8.0, parent)
    c = Span("a", 2, 9.0, 12.0, parent)
    selfs = spans.self_times([a, b, c, parent])
    assert selfs[parent] == pytest.approx(10.0 - 7.0 - 1.0)
    assert spans.off_root_busy([a, b, c, parent], root_thread=1) == pytest.approx(12.0)


def test_covered_length_merges_and_skips_empty():
    assert spans.covered_length([(0, 1), (0.5, 2), (3, 3), (4, 5)]) == pytest.approx(3.0)
    assert spans.covered_length([]) == 0.0


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.lib defines inner/outer; fakepkg.user imports inner by name."""
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def inner():
        return 1

    def outer():
        # Calls through the module attribute, on two fresh threads.
        threads = [threading.Thread(target=lambda: user.inner()) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        return lib.inner()

    lib.inner, lib.outer = inner, outer
    user.inner = inner
    pkg.inner = inner
    for mod in (pkg, lib, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, lib, user


def test_spans_on_fresh_threads_find_their_parent(fake_package):
    pkg, lib, user = fake_package
    tracer = spans.Tracer()
    with spans.traced(tracer, "fakepkg", ["lib.outer", "lib.inner"]) as absent:
        assert user.inner is lib.inner is pkg.inner
        lib.outer()
    assert absent == []
    outer = [s for s in tracer.spans if s.name == "lib.outer"]
    inner = [s for s in tracer.spans if s.name == "lib.inner"]
    assert len(outer) == 1 and len(inner) == 3
    assert all(s.parent is outer[0] for s in inner)
    assert len({s.thread for s in inner}) >= 2


def test_wrappers_are_removed_also_after_an_exception(fake_package):
    pkg, lib, user = fake_package
    originals = (lib.inner, lib.outer, user.inner, pkg.inner)
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer(), "fakepkg", ["lib.inner", "lib.outer"]):
            assert sorted(spans.wrapped_attributes("fakepkg")) == [
                "fakepkg.inner", "fakepkg.lib.inner", "fakepkg.lib.outer",
                "fakepkg.user.inner"]
            raise RuntimeError("inside the traced block")
    assert (lib.inner, lib.outer, user.inner, pkg.inner) == originals
    assert spans.wrapped_attributes("fakepkg") == []


def test_missing_function_is_reported_absent(fake_package):
    with spans.traced(spans.Tracer(), "fakepkg",
                      ["lib.inner", "lib.deleted", "nomodule.f"]) as absent:
        pass
    assert absent == ["lib.deleted", "nomodule.f"]
