"""In-memory span recording for the traced run.

A span is (name, start, end, parent span, request id).  Spans live in
flat :mod:`array` columns so a run with millions of calls stays small, and
are written out once, when the run ends.  Request ids: a query id is
stored as itself (``>= 0``), window event ``k`` as ``-(k + 2)``, and a
span outside any request as ``-1``.

Wrappers installed with :class:`Patcher` open a span on entry and close
it on exit; a layer's self time is its spans' durations minus the part
covered by their child spans.  Calls nest strictly (one thread; every
wrapped function is synchronous), so the covered part is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array

NO_REQUEST = -1


def window_request(serial: int) -> int:
    """The request id of window event ``serial`` (0-based)."""
    return -(serial + 2)


class SpanRecorder:
    """Flat, append-only span store with an open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rid = array("q")
        self._stack: list[int] = []
        self._requests: list[int] = [NO_REQUEST]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, request: int | None = None) -> int:
        """Open a span; ``request`` overrides the inherited request id."""
        index = len(self.name)
        stack = self._stack
        requests = self._requests
        if request is None or requests[-1] != NO_REQUEST:
            request = requests[-1]
        requests.append(request)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.rid.append(request)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self._requests.pop()

    def __len__(self) -> int:
        return len(self.name)

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per span name: call count and summed self seconds."""
        count = len(self.name)
        covered = array("d", bytes(8 * count))
        start, end, parent = self.start, self.end, self.parent
        for index in range(count):
            up = parent[index]
            if up >= 0:
                covered[up] += end[index] - start[index]
        calls = [0] * len(self.names)
        seconds = [0.0] * len(self.names)
        name = self.name
        for index in range(count):
            nid = name[index]
            calls[nid] += 1
            seconds[nid] += end[index] - start[index] - covered[index]
        return (
            dict(zip(self.names, calls)),
            dict(zip(self.names, seconds)),
        )

    def durations(self, span_name: str) -> list[float]:
        """Wall seconds of every span called ``span_name``."""
        nid = self._ids.get(span_name)
        if nid is None:
            return []
        start, end = self.start, self.end
        return [
            end[index] - start[index]
            for index, value in enumerate(self.name)
            if value == nid
        ]

    def write(self, directory: str) -> None:
        """Write every span to ``directory`` (column files + an index)."""
        os.makedirs(directory, exist_ok=True)
        columns = {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "rid": self.rid,
        }
        for column, values in columns.items():
            with open(os.path.join(directory, f"{column}.bin"), "wb") as out:
                values.tofile(out)
        with open(os.path.join(directory, "index.json"), "w") as out:
            json.dump({
                "spans": len(self),
                "names": self.names,
                "columns": {
                    column: values.typecode
                    for column, values in columns.items()
                },
                "request_ids": "qid >= 0; window k = -(k+2); none = -1",
            }, out, indent=1)


class Patcher:
    """Installs span wrappers on attributes and restores them afterwards."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, request_arg: int | None = None):
        """Wrap ``owner.attr`` in a span called ``name``.

        With ``request_arg``, a call outside any request takes that
        positional argument (e.g. a query id) as its request id.
        """
        original = owner.__dict__[attr]
        recorder = self.recorder
        nid = recorder.name_id(name)
        open_span, close_span = recorder.open, recorder.close

        if request_arg is None:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = open_span(nid)
                try:
                    return original(*args, **kwargs)
                finally:
                    close_span(index)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = open_span(nid, args[request_arg])
                try:
                    return original(*args, **kwargs)
                finally:
                    close_span(index)

        self.replace(owner, attr, wrapper)
        return original

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
