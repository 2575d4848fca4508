"""Single-flight request coalescing and in-flight store dedupe.

Two layers, both built on the content-addressed key scheme (PR 2/4): when
the *whole request* is identical — same design fingerprint, stimuli and
engine settings — :class:`SingleFlight` lets one "leader" compute while
every concurrent duplicate waits for the leader's result (cross-session
dedupe: the acceptance metric of PR 7).  When requests differ but *overlap*
in sub-cones, :class:`SingleFlightStore` wraps the shared result store so a
second session missing on a key another session is currently computing
waits briefly for the store write instead of redundantly integrating.

Failure semantics are miss-only: a leader that raises propagates its error
to its followers (they asked the same question), and a store claim that is
never resolved times out into an ordinary miss — callers recompute, nobody
blocks forever, and no path can serve a wrong value.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["SingleFlight", "SingleFlightStore"]

#: In-flight claims older than this many seconds are considered abandoned.
_DEFAULT_WAIT_TIMEOUT = 60.0
#: Claim-table size at which stale claims get pruned.
_PRUNE_THRESHOLD = 4096


class SingleFlight:
    """Coalesce concurrent identical computations by content key.

    The first caller of a key becomes the leader and runs ``fn``; callers
    arriving while the leader is still running share its result
    (``coalesced=True``) without recomputing.  A leader's exception
    propagates to its followers.  Results are not memoized past completion
    — persistent reuse is the cache's job; this only removes concurrent
    duplicates.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self.leaders = 0
        self.coalesced = 0

    def execute(self, key: str, fn: Callable[[], Any]) -> Tuple[Any, bool]:
        """``(result, coalesced)`` — run ``fn`` once per concurrent key."""
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                self.coalesced += 1
                is_leader = False
            else:
                future = Future()
                self._inflight[key] = future
                self.leaders += 1
                is_leader = True
        if not is_leader:
            return future.result(), True
        try:
            result = fn()
        except BaseException as exc:
            future.set_exception(exc)
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
        future.set_result(result)
        return result, False

    def stats(self) -> Dict[str, int]:
        return {"leaders": self.leaders, "coalesced": self.coalesced}


class SingleFlightStore:
    """A store wrapper that turns concurrent duplicate misses into waits.

    ``lookup`` of a missing key *claims* it; a second ``lookup`` of the same
    key while the claim is open blocks (up to ``wait_timeout`` seconds) for
    the first caller's ``store``, then re-reads — a hit for the waiter, one
    computation total.  If the claimant never stores (crash, error path,
    timeout), waiting degrades to an ordinary miss and the waiter computes
    itself: eviction/failure is always miss-only, never wrong-result.

    Every other attribute (``stats``, ``keys``, ``report`` …) delegates to
    the wrapped store, so engines and the model library accept the wrapper
    anywhere a store goes.  That includes ``lookup_many``: a batched read
    goes straight to the wrapped store and claims none of its misses, so
    concurrent callers may compute the same missing keys twice.  That
    costs deduplication only, never a wrong result.
    """

    def __init__(self, inner, wait_timeout: float = _DEFAULT_WAIT_TIMEOUT):
        self.inner = inner
        self.wait_timeout = wait_timeout
        self._lock = threading.Lock()
        #: key -> (event set on store, claim epoch)
        self._claims: Dict[str, Tuple[threading.Event, float]] = {}
        self.dedupe_waits = 0
        self.dedupe_hits = 0

    # -- dedupe-aware read/write paths -----------------------------------
    def lookup(self, key: str) -> Tuple[bool, Any]:
        hit, value = self.inner.lookup(key)
        if hit:
            return True, value
        return self._after_miss(key)

    def _after_miss(self, key: str) -> Tuple[bool, Any]:
        """Claim a missed key, or wait for its open claim and re-read."""
        event = self._claim_or_event(key)
        if event is None:
            return False, None  # our claim: caller computes and stores
        self.dedupe_waits += 1
        if event.wait(self.wait_timeout):
            hit, value = self.inner.lookup(key)
            if hit:
                self.dedupe_hits += 1
                return True, value
        # Abandoned or failed claim: take it over and compute ourselves.
        with self._lock:
            self._claims[key] = (threading.Event(), time.monotonic())
        return False, None

    def peek(self, key: str) -> Tuple[bool, Any]:
        """``lookup`` without claiming a miss.

        For reads whose caller will not store the key on a miss: a level
        record behind a row pointer (a miss re-integrates the instance
        instead).  A claim taken there would make the same caller's next
        lookup of the key wait on itself.
        """
        return self.inner.lookup(key)

    def _claim_or_event(self, key: str) -> Optional[threading.Event]:
        """Register a claim (returning None) or join an existing fresh one."""
        now = time.monotonic()
        with self._lock:
            if len(self._claims) > _PRUNE_THRESHOLD:
                stale = [
                    k
                    for k, (_, when) in self._claims.items()
                    if now - when > self.wait_timeout
                ]
                for k in stale:
                    self._claims.pop(k, None)
            entry = self._claims.get(key)
            if entry is not None and now - entry[1] <= self.wait_timeout:
                return entry[0]
            self._claims[key] = (threading.Event(), now)
            return None

    def _resolve(self, key: str) -> None:
        with self._lock:
            entry = self._claims.pop(key, None)
        if entry is not None:
            entry[0].set()

    def store(self, key: str, value: Any) -> None:
        self.inner.store(key, value)
        self._resolve(key)

    def store_many(self, items) -> None:
        items = list(items)
        self.inner.store_many(items)
        for key, _ in items:
            self._resolve(key)

    # -- delegation ------------------------------------------------------
    @property
    def stats(self):
        return self.inner.stats

    def dedupe_stats(self) -> Dict[str, int]:
        return {"waits": self.dedupe_waits, "hits": self.dedupe_hits}

    def __contains__(self, key: str) -> bool:
        return key in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, name: str):
        # keys / evict / clear / compact / close / report / enforce_policy…
        return getattr(self.inner, name)
