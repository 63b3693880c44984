"""In-memory span tracer for the benchmark's traced run.

Layers are measured from outside: :meth:`Tracer.wrap` replaces a
public function or method of a ``repro`` module with a wrapper that
records a span (name, start, end, parent, op id, thread) around each
call, and :meth:`Tracer.count_calls` replaces one with a wrapper that
only bumps a counter.  :meth:`Tracer.restore` puts every original
back.  Nothing under ``src/`` changes.

Self time.  On one thread, a span's self time is its duration minus
the time its child spans cover.  The fleet flow runs producer, ingest,
worker and HTTP threads at once, so :func:`attribute` sweeps over
time: at every instant the wall-clock interval is split evenly between
the open spans that have no open child (the "leaves").  With no
concurrency this is exactly duration minus child coverage; with
concurrency the self times of all spans still add up to the time
covered by spans, so layer self times plus the unattributed remainder
equal the wall time.
"""

import contextlib
import functools
import threading
import time

__all__ = ["Tracer", "attribute"]

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread",
                 "layer")

    def __init__(self, name, start, parent, op, thread, layer):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.layer = layer


class Tracer:
    """Spans and counters for one traced run.

    Spans opened on a thread nest under that thread's innermost open
    span.  A span opened on another thread with no open span of its
    own (a simulated thread, a fleet worker, an HTTP handler) nests
    under the main thread's innermost open span: a detector called
    from a simulated thread is a child of ``Machine.run``, a fleet
    worker's analysis a child of the benchmark operation waiting on
    it.  Every span carries the id of the innermost benchmark
    operation (:meth:`op`) it belongs to.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.samples = {}  # name -> measured values (e.g. queue waits)
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    # -- spans ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, layer=True):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        span = Span(
            name, _now(), parent,
            parent.op if parent is not None else None,
            threading.get_ident(), layer,
        )
        if not layer:
            span.op = span
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span):
        span.end = _now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - defensive, spans close in order
            stack.remove(span)

    @contextlib.contextmanager
    def op(self, name):
        """One benchmark operation (a span that is not a layer)."""
        span = self.begin(name, layer=False)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, name, amount=1):
        with self._count_lock:  # fleet workers count concurrently
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` with ``make(original)``; class and
        static methods stay what they were.  An attribute a class only
        inherits is shadowed, and removed again by :meth:`restore`."""
        own = not isinstance(owner, type) or attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw, own))

    def wrap(self, owner, attr, name, after=None):
        """Record a span named `name` around every call of
        ``owner.attr``; ``after(result, args, kwargs)`` runs after
        each call returns, outside the span."""
        begin, end = self.begin, self.end

        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                span = begin(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    end(span)
                if after is not None:
                    after(result, args, kwargs)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def count_calls(self, owner, attr, name):
        """Count every call of ``owner.attr`` under `name`."""
        count = self.count
        self.counts.setdefault(name, 0)

        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                count(name)
                return func(*args, **kwargs)

            return wrapper

        self.patch(owner, attr, make)

    def restore(self):
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- reading --------------------------------------------------------

    def closed(self, since=0):
        return [s for s in self.spans[since:] if s.end is not None]

    def to_records(self):
        """Plain records for the span dump: ids are list positions."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": ids.get(id(s.parent)),
                "op": ids.get(id(s.op)),
                "thread": s.thread,
                "layer": s.layer,
            }
            for i, s in enumerate(self.spans)
        ]


def attribute(spans, lo, hi):
    """Self time of every span over ``[lo, hi]``, by the even split
    described in the module docstring.  Returns ``{span: seconds}``."""
    events = []
    for s in spans:
        start, end = max(s.start, lo), min(s.end, hi)
        if end > start:
            depth = _depth(s)
            # Ties: closings first, deepest first; openings parents
            # first, so a parent is open before its child at one time.
            events.append((start, 1, depth, s))
            events.append((end, 0, -depth, s))
    events.sort(key=lambda e: e[:3])
    self_time = {}
    open_children = {}
    is_open = set()
    leaves = set()
    last = None
    for at, opening, _, s in events:
        if last is not None and leaves and at > last:
            share = (at - last) / len(leaves)
            for leaf in leaves:
                self_time[leaf] = self_time.get(leaf, 0.0) + share
        last = at
        parent = s.parent
        if opening:
            is_open.add(s)
            open_children.setdefault(s, 0)
            if open_children[s] == 0:
                leaves.add(s)
            if parent in is_open:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(s)
            leaves.discard(s)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_time


def _depth(span):
    depth = 0
    while span.parent is not None:
        span = span.parent
        depth += 1
    return depth
