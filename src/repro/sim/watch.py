"""How derived state -- memoized verdicts, validated fused paths --
learns of a change to the state it was derived from: it subscribes with
:meth:`Watched.watch` before it reads, and every mutator (a fault or a
heal, a control-plane write, a tap) calls ``watcher.invalidate(source)``
on each subscriber through :meth:`Watched._changed`."""

from __future__ import annotations

from typing import Any, Tuple


class Watched:
    """Mixin for an object derived state reads.  The subscriber tuple is
    a class attribute until the first :meth:`watch`, so an unwatched
    object costs nothing and its mutators one empty loop."""

    __slots__ = ()

    _watchers: Tuple[Any, ...] = ()

    def watch(self, watcher: Any) -> None:
        """Subscribe ``watcher`` to this object's changes (idempotent)."""
        if watcher not in self._watchers:
            self._watchers = self._watchers + (watcher,)

    def _changed(self) -> None:
        for watcher in self._watchers:
            watcher.invalidate(self)
