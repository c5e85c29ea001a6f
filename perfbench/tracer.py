"""Span recorder for the traced benchmark run.

The benchmark never edits the package: it replaces a module attribute (or a
class method) with a wrapper for the duration of a traced episode, at the
name the caller looks up, and restores it afterwards.  Each wrapped call
records one span: name, start, end, parent span and episode.  An episode is
one set-up repetition or one timed pass; its own root span is the parent of
the top-level calls.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.episode_kinds: list[str] = []
        # One entry per span, in compact arrays: a traced pass of the
        # exact workload records a few hundred thousand spans.
        self._name = array("q")
        self._parent = array("q")
        self._episode = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = [-1]

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, idx: int) -> int:
        sid = len(self._start)
        self._name.append(idx)
        self._parent.append(self._stack[-1])
        self._episode.append(len(self.episode_kinds) - 1)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        idx = self._name_index(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            sid = open_(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def episode(self, kind: str, targets):
        """Trace one episode with every (owner, attribute, span name) wrapped."""
        self.episode_kinds.append(kind)
        saved = []
        try:
            for owner, attr, name in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            root = self._open(self._name_index(kind))
            try:
                yield
            finally:
                self._close(root)
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self, kind: str) -> dict[str, np.ndarray]:
        """Per episode of one kind: total seconds, self seconds and calls per name.

        Self time is a span's duration minus the durations of its direct
        children; the run is single-threaded, so children never overlap.
        """
        name = np.array(self._name)
        parent = np.array(self._parent)
        episode = np.array(self._episode)
        dur = np.array(self._end) - np.array(self._start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        own = dur - child
        k = len(self.names)
        e = len(self.episode_kinds)
        key = episode * k + name
        shape = (e, k)
        total = np.bincount(key, weights=dur, minlength=e * k).reshape(shape)
        self_s = np.bincount(key, weights=own, minlength=e * k).reshape(shape)
        calls = np.bincount(key, minlength=e * k).reshape(shape)
        rows = [i for i, kd in enumerate(self.episode_kinds) if kd == kind]
        out = {}
        for n, i in self._index.items():
            out[n + "_s"] = total[rows, i]
            out[n + ".self_s"] = self_s[rows, i]
            out[n + "_calls"] = calls[rows, i]
        return out

    def save(self, path) -> None:
        """Write every span: name table, name index, parent, episode, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            episode_kinds=np.array(self.episode_kinds),
            name=np.array(self._name),
            parent=np.array(self._parent),
            episode=np.array(self._episode),
            start=np.array(self._start),
            end=np.array(self._end),
        )
