"""The one instrumentation seam, ``repro.hooks``.

* **declaration guard** — an AST scan of ``src/repro``: every ``on_*``
  event emitted through ``hooks.OBSERVERS`` is declared on
  :class:`repro.hooks.Observer`, and every declared event is emitted
  somewhere, so the declaration cannot drift from the code;
* **subscribers** — events reach every subscriber, enabling a sanitizer
  keeps the observers already there, and a ScheduleSanitizer alone is
  enough for forked fleet workers to run sanitized.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

import repro
from repro import hooks
from repro.analysiskit import (
    ProtocolSanitizer,
    ScheduleSanitizer,
    enable_sanitizer,
    enable_schedule_sanitizer,
)
from repro.dram import DDR4_ENERGY, SIEVE_TIMING, Command, CommandLedger
from repro.fleet import run_jobs, sanitize_active

SRC = Path(repro.__file__).parent


@lru_cache(maxsize=None)
def _source_trees():
    """``(path, module AST)`` of every source file, parsed once."""
    return [
        (path, ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.rglob("*.py"))
    ]


def _is_observers(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "OBSERVERS"
        and isinstance(node.value, ast.Name)
        and node.value.id == "hooks"
    )


def _emitted_events():
    """``{event: [file:line, ...]}`` of every ``observer.on_*(...)`` call
    inside a ``for observer in hooks.OBSERVERS`` loop."""
    emitted = {}
    for path, tree in _source_trees():
        for loop in ast.walk(tree):
            if not (isinstance(loop, ast.For) and _is_observers(loop.iter)):
                continue
            name = loop.target.id
            for node in ast.walk(loop):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name
                    and node.func.attr.startswith("on_")
                ):
                    site = f"{path.relative_to(SRC)}:{node.lineno}"
                    emitted.setdefault(node.func.attr, []).append(site)
    return emitted


def _declared_events():
    """Every ``on_*`` method defined in ``Observer``'s class body, in
    source order (a duplicate definition shows up twice)."""
    tree = ast.parse((SRC / "hooks.py").read_text())
    (observer,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Observer"
    ]
    return [
        node.name
        for node in observer.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("on_")
    ]


class TestDeclaration:
    def test_every_emitted_event_is_declared(self):
        undeclared = {
            event: sites
            for event, sites in _emitted_events().items()
            if not hasattr(hooks.Observer, event)
        }
        assert undeclared == {}

    def test_every_declared_event_is_emitted(self):
        assert set(_declared_events()) - set(_emitted_events()) == set()

    def test_each_event_declared_once(self):
        declared = _declared_events()
        assert len(declared) == len(set(declared)) == 20

    def test_no_single_slot_seam_remains(self):
        for path, tree in _source_trees():
            attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            assert "OBSERVER" not in attrs, path


class _LedgerSpy(hooks.Observer):
    def __init__(self):
        self.records = []

    def on_ledger_record(self, ledger, command, count):
        self.records.append((command, count))


class TestSubscribers:
    def test_every_subscriber_sees_each_event(self):
        first, second = _LedgerSpy(), _LedgerSpy()
        with hooks.observing(*hooks.OBSERVERS, first, second):
            CommandLedger(timing=SIEVE_TIMING, energy=DDR4_ENERGY).record(
                Command.ACTIVATE, 3
            )
        assert first.records == second.records == [(Command.ACTIVATE, 3)]

    def test_subscribe_is_idempotent_and_unsubscribe_tolerant(self):
        spy = _LedgerSpy()
        with hooks.observing():
            hooks.subscribe(spy)
            hooks.subscribe(spy)
            assert hooks.OBSERVERS == (spy,)
            hooks.unsubscribe(spy)
            hooks.unsubscribe(spy)
            assert hooks.OBSERVERS == ()

    def test_observing_restores_on_error(self):
        before = hooks.OBSERVERS
        with pytest.raises(RuntimeError):
            with hooks.observing(_LedgerSpy()):
                raise RuntimeError("boom")
        assert hooks.OBSERVERS == before

    @pytest.mark.parametrize(
        "enable", [enable_sanitizer, enable_schedule_sanitizer]
    )
    def test_enabling_a_sanitizer_keeps_existing_subscribers(self, enable):
        spy = _LedgerSpy()
        with hooks.observing(spy):
            sanitizer = enable()
            assert hooks.OBSERVERS == (spy, sanitizer)

    def test_enabling_a_new_sanitizer_replaces_only_its_kind(self):
        spy, old = _LedgerSpy(), ProtocolSanitizer()
        with hooks.observing(spy, old):
            new = enable_sanitizer(ProtocolSanitizer())
            assert hooks.OBSERVERS == (spy, new)


def _subscribed_sanitizers():
    return sorted(
        type(o).__name__
        for o in hooks.OBSERVERS
        if isinstance(o, (ProtocolSanitizer, ScheduleSanitizer))
    )


class TestFleetWorkers:
    def test_schedule_sanitizer_alone_sanitizes_workers(self, monkeypatch):
        monkeypatch.delenv("SIEVE_SANITIZE", raising=False)
        with hooks.observing():
            assert not sanitize_active()
        with hooks.observing(ScheduleSanitizer()):
            assert sanitize_active()
            per_worker = run_jobs([_subscribed_sanitizers] * 2, max_workers=2)
        assert per_worker == [["ProtocolSanitizer", "ScheduleSanitizer"]] * 2
