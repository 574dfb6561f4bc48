"""The DRAM module facade: storage, timing, disturbance and TRR in one.

:class:`DramModule` is the single point through which every memory
transaction of the simulated machine flows (the CPU cache sits above it
and filters hits).  It owns

* the memory *contents*, stored per physical 4 KiB frame (an all-zero
  frame is simply absent), so loads and stores are slices and DRAM
  coordinates are computed only where the physics needs them: to
  activate rows, and to place a flipped bit through
  :meth:`~repro.dram.address.AddressMapping.dram_to_phys`;
* the per-bank row-buffer state (timing side channel, hammer semantics);
* the :class:`~repro.dram.disturbance.DisturbanceEngine` producing flips;
* the optional :class:`~repro.dram.chiptrr.ChipTrr` engine; and
* the shared :class:`~repro.clock.SimClock`, advanced by every
  transaction's latency.

Two access planes are provided:

* the **architectural** plane (:meth:`read`, :meth:`write`,
  :meth:`hammer`) — what the simulated CPU issues; it costs simulated
  time, activates rows and can flip bits; and
* the **instrumentation** plane (:meth:`raw_read`, :meth:`raw_write`) —
  used by test setup and by the evaluation's integrity checks; free and
  side-effect-less, like an electron microscope rather than a load.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..clock import SimClock
from ..errors import DramError
from .address import AddressMapping
from .bank import _OPEN_PAGE, BankState, RowBufferPolicy
from .chiptrr import ChipTrr, TrrParams
from .disturbance import DisturbanceEngine, DisturbanceParams, FlipEvent
from .feed import ActivationFeed, RefreshActuator
from .geometry import DramGeometry, LINE_BYTES, PAGE_BYTES, PAGE_SHIFT
from .remap import IdentityRemap, RowRemap
from .timing import DramTimings

_PAGE_MASK = PAGE_BYTES - 1
_ZERO_PAGE = bytes(PAGE_BYTES)


class DramModule:
    """A simulated DRAM module with rowhammer physics."""

    def __init__(
        self,
        mapping: AddressMapping,
        timings: DramTimings,
        disturbance: DisturbanceParams,
        trr: TrrParams,
        clock: SimClock,
        row_policy: RowBufferPolicy = RowBufferPolicy.OPEN_PAGE,
        remap: Optional[RowRemap] = None,
    ) -> None:
        self.geometry: DramGeometry = mapping.geometry
        self.mapping = mapping
        self.timings = timings
        self.clock = clock
        self.row_policy = row_policy
        #: In-DRAM row remapping (Section III-A's "in-DRAM address
        #: remappings ... assumed to be available"): physical adjacency
        #: for the disturbance engine and the TRR, and the offline
        #: domain knowledge SoftTRR consumes.
        self.remap = remap or IdentityRemap(self.geometry.rows_per_bank)
        self.engine = DisturbanceEngine(self.geometry, disturbance,
                                        remap=self.remap)
        # The three defense layers meet here: every activation is
        # published through the feed (observation), subscribed trackers
        # decide who to refresh (policy), and the shared actuator heals
        # (actuation).  The profile's ChipTRR subscribes like any other
        # tracker; zoo trackers join via ``feed.subscribe`` at defense
        # install time.
        self.actuator = RefreshActuator(self.engine.heal)
        self.feed = ActivationFeed(self.actuator)
        self.trr = ChipTrr(trr, remap=self.remap)
        if trr.enabled:
            self.feed.subscribe(self.trr)
        self._banks: List[BankState] = [BankState() for _ in range(self.geometry.num_banks)]
        #: Memory contents: ppn -> its 4 KiB; absent frames read as zeros.
        self._frames: Dict[int, bytearray] = {}
        self._capacity = self.geometry.capacity_bytes
        self.flip_log: List[FlipEvent] = []
        self.applied_flips = 0
        self.reads = 0
        self.writes = 0
        self.total_activations = 0
        # PMU-visible activation samples: (bank, row, origin) of recent
        # activations.  "data" activations come from load/store misses
        # (PEBS can attribute them); "walk" activations come from the
        # page-table walker and are invisible to load sampling — the
        # reason ANVIL misses PThammer (Section II-C).
        from collections import deque
        self.recent_activations = deque(maxlen=4096)
        self.walk_origin = False
        # Trace hub, or None when tracing is off (repro.trace attaches).
        self.trace = None

    # ------------------------------------------------------------ storage
    def _load(self, paddr: int, size: int) -> bytes:
        """A copy of the ``size`` bytes at ``paddr``, inside one frame."""
        frame = self._frames.get(paddr >> PAGE_SHIFT)
        if frame is None:
            return bytes(size)
        offset = paddr & _PAGE_MASK
        return frame[offset:offset + size]

    def _store(self, paddr: int, data: bytes) -> None:
        """Store ``data`` at ``paddr``, inside one frame."""
        ppn = paddr >> PAGE_SHIFT
        frames = self._frames
        frame = frames.get(ppn)
        if frame is None:
            frame = frames[ppn] = bytearray(PAGE_BYTES)
        offset = paddr & _PAGE_MASK
        frame[offset:offset + len(data)] = data
        if frame == _ZERO_PAGE:
            del frames[ppn]

    def _apply_flips(self, flips: List[FlipEvent]) -> None:
        trace = self.trace
        for flip in flips:
            self.flip_log.append(flip)
            if trace is not None:
                trace.emit("dram.flip", bank=flip.bank, row=flip.row,
                           bit_offset=flip.bit_offset, at_ns=flip.at_ns)
            col, bit_index = divmod(flip.bit_offset, 8)
            paddr = self.mapping.dram_to_phys(flip.bank, flip.row, col)
            byte = self._load(paddr, 1)[0]
            if (byte >> bit_index) & 1 == flip.from_value:
                self._store(paddr, bytes((byte ^ (1 << bit_index),)))
                self.applied_flips += 1

    # --------------------------------------------------------- activation
    def _epoch(self) -> int:
        return self.timings.refresh_epoch(self.clock.now_ns)

    def _transact_line(self, paddr: int) -> int:
        """One line-sized memory transaction; returns its latency in ns."""
        bank, row = self.mapping.row_of(paddr)
        if self._banks[bank].access(row, self.row_policy):
            latency = self.timings.conflict_latency_ns
            now_ns = self.clock.now_ns
            epoch = now_ns // self.timings.refresh_window_ns
            flips = self.engine.on_activate(bank, row, 1, epoch, now_ns)
            if flips:
                self._apply_flips(flips)
            feed = self.feed
            if feed.active:
                feed.publish(bank, row, 1, epoch, now_ns)
            self.total_activations += 1
            self.recent_activations.append(
                (bank, row, "walk" if self.walk_origin else "data"))
        else:
            latency = self.timings.hit_latency_ns
        self.clock.advance(latency)
        return latency

    def hammer_batch(self, items, extra_ns: int = 0) -> None:
        """Replay a stream of forced activation runs in one pass.

        ``items`` is a sequence (checked, replayed, then traced) of
        ``(bank, row, count)`` triples, the
        :attr:`~repro.patterns.compile.PlanStep.acts` format; items with
        ``count <= 0`` are skipped.  The batch is *semantically
        identical* to the scalar loop ::

            for bank, row, count in items:
                self.hammer(self.mapping.dram_to_phys(bank, row), count)
                self.clock.advance(count * extra_ns)

        — identical DRAM bytes, identical ``FlipEvent`` stream (including
        ``at_ns``), identical TRR/bank/engine counters and identical
        simulated time, as enforced by the differential equivalence
        suite and the generative harness.  It runs the plan walk
        (``engine.on_activate``, the scalar path's own code) per item,
        plus one ``feed.publish`` per item when a tracker rides the
        feed, credits each item to its bank, then settles flips and the
        clock once.  The specification the plan walk is held to,
        ``neighbors_at`` per distance then ``deposit`` per victim, lives
        in ``tests/dram/reference.py``; the generative harness's scalar
        leg runs it.

        The whole stream is checked before anything moves: a negative
        ``extra_ns`` or a ``(bank, row)`` outside the geometry raises
        :class:`~repro.errors.DramError`.  A traced burst emits one
        ``dram.activate`` per live item, with its ``bank`` and ``row``,
        as :meth:`hammer` does.

        It stays an entry point of its own beside :meth:`hammer`
        because ``perfbench/layertrace.py`` resolves the name when it
        installs.
        """
        if extra_ns < 0:
            raise DramError(f"hammer_batch extra_ns must be >= 0, "
                            f"got {extra_ns}")
        banks = self.geometry.num_banks
        rows = self.geometry.rows_per_bank
        live = False
        for bank, row, count in items:
            if not (0 <= bank < banks and 0 <= row < rows):
                raise DramError(
                    f"hammer_batch item (bank={bank}, row={row}) outside "
                    f"the {banks}x{rows} geometry")
            if count > 0:
                live = True
        if not live:
            return

        window = self.timings.refresh_window_ns
        per_act_ns = self.timings.conflict_latency_ns + extra_ns
        engine = self.engine
        feed = self.feed
        feed_active = feed.active
        trace = self.trace
        span_start = (trace.span_begin("dram.hammer_batch")
                      if trace is not None else 0)
        start_ns = self.clock.now_ns
        deposits_before = engine.total_deposits

        flips = []
        acts = 0
        now_ns = start_ns
        bank_states = self._banks
        open_page = self.row_policy is _OPEN_PAGE
        recent_append = self.recent_activations.append
        for bank, row, count in items:
            if count <= 0:
                continue
            epoch = now_ns // window
            flips += engine.on_activate(bank, row, count, epoch, now_ns)
            if feed_active:
                feed.publish(bank, row, count, epoch, now_ns)
            recent_append((bank, row, "data"))
            bank_states[bank].activate_run(row, count, open_page)
            acts += count
            now_ns += count * per_act_ns

        if flips:
            self._apply_flips(flips)
        self.total_activations += acts
        self.clock.advance(now_ns - start_ns)
        if trace is not None:
            for bank, row, count in items:
                if count > 0:
                    trace.emit("dram.activate", bank=bank, row=row,
                               count=count, origin="data")
            trace.emit("dram.deposit",
                       count=engine.total_deposits - deposits_before)
            trace.span_end("dram.hammer_batch", span_start)

    def hammer(self, paddr: int, count: int, origin: str = "data") -> None:
        """``count`` forced row activations of the row holding ``paddr``.

        Models a hammer loop that defeats the row buffer (alternating
        aggressors / clflush), so every iteration is a full conflict.
        Callers should keep ``count`` small (<= ~100 per call) and
        interleave aggressors, because the in-DRAM TRR tracker sees the
        batch as consecutive ACTs.  ``origin`` labels the PMU-visible
        samples: PThammer's page-walk activations pass ``"walk"``.
        """
        if count <= 0:
            return
        dram = self.mapping.phys_to_dram(paddr)
        trace = self.trace
        if trace is not None:
            trace.emit("dram.activate", bank=dram.bank, row=dram.row,
                       count=count, origin=origin)
        bank_state = self._banks[dram.bank]
        bank_state.activations += count
        bank_state.open_row = dram.row if self.row_policy is _OPEN_PAGE else None
        epoch = self._epoch()
        deposits_before = self.engine.total_deposits
        flips = self.engine.on_activate(dram.bank, dram.row, count, epoch,
                                        self.clock.now_ns)
        if flips:
            self._apply_flips(flips)
        if trace is not None:
            trace.emit("dram.deposit",
                       count=self.engine.total_deposits - deposits_before)
        feed = self.feed
        if feed.active:
            feed.publish(dram.bank, dram.row, count, epoch,
                         self.clock.now_ns)
        self.total_activations += count
        self.recent_activations.append((dram.bank, dram.row, origin))
        self.clock.advance(count * self.timings.conflict_latency_ns)

    # ----------------------------------------------------- architectural
    def read(self, paddr: int, size: int) -> bytes:
        """Architectural read: activates rows, costs time, sees flips.

        A read inside one line (every cache miss) is one transaction.
        Only an accepted read counts in ``reads``.
        """
        self._check_span(paddr, size)
        self.reads += 1
        offset = paddr & (LINE_BYTES - 1)
        if offset + size <= LINE_BYTES:
            self._transact_line(paddr - offset)
            return bytes(self._load(paddr, size))
        out = bytearray()
        for line_paddr, offset, chunk in self._lines(paddr, size):
            self._transact_line(line_paddr)
            out += self._load(line_paddr + offset, chunk)
        return bytes(out)

    def write(self, paddr: int, payload: bytes) -> None:
        """Architectural write: activates rows, costs time.

        Only an accepted write counts in ``writes``.
        """
        self._check_span(paddr, len(payload))
        self.writes += 1
        pos = 0
        for line_paddr, offset, chunk in self._lines(paddr, len(payload)):
            self._transact_line(line_paddr)
            self._store(line_paddr + offset, payload[pos : pos + chunk])
            pos += chunk

    # --------------------------------------------------- instrumentation
    def raw_read(self, paddr: int, size: int) -> bytes:
        """Side-effect-free read for integrity checks and test setup."""
        self._check_span(paddr, size)
        out = b""
        end = paddr + size
        while paddr < end:
            chunk = min(PAGE_BYTES - (paddr & _PAGE_MASK), end - paddr)
            out += self._load(paddr, chunk)
            paddr += chunk
        return out

    def raw_write(self, paddr: int, payload: bytes) -> None:
        """Side-effect-free write for test setup."""
        self._check_span(paddr, len(payload))
        pos = 0
        while pos < len(payload):
            chunk = min(PAGE_BYTES - (paddr & _PAGE_MASK), len(payload) - pos)
            self._store(paddr, payload[pos : pos + chunk])
            paddr += chunk
            pos += chunk

    # ------------------------------------------------------------ helpers
    def _check_span(self, paddr: int, size: int) -> None:
        if size <= 0:
            raise DramError(f"access size must be positive, got {size}")
        if paddr < 0 or paddr + size > self._capacity:
            raise DramError(
                f"access [{paddr:#x}, +{size}) outside capacity "
                f"{self._capacity:#x}"
            )

    def _lines(self, paddr: int, size: int):
        """Split [paddr, paddr+size) into per-line (line_paddr, off, len).

        The caller checks the span first.
        """
        end = paddr + size
        cursor = paddr
        while cursor < end:
            line_paddr = cursor & ~(LINE_BYTES - 1)
            offset = cursor - line_paddr
            chunk = min(LINE_BYTES - offset, end - cursor)
            yield line_paddr, offset, chunk
            cursor += chunk

    def refresh_row(self, bank: int, row: int) -> None:
        """Explicit refresh of one row (heals disturbance).

        Routed through the shared actuator, so SoftTRR's row-refresher
        reads, kernel-driven refreshes and tracker-issued TRR all land
        in one refresh account.
        """
        self.geometry.check_bank(bank)
        self.geometry.check_row(row)
        self.actuator.refresh_row(bank, row)

    def row_accumulated(self, bank: int, row: int) -> float:
        """Current-epoch disturbance of a row (diagnostics)."""
        return self.engine.accumulated(bank, row, self._epoch())

    def bank_state(self, bank: int) -> BankState:
        """Row-buffer state of a bank (diagnostics/tests)."""
        self.geometry.check_bank(bank)
        return self._banks[bank]

    def flips_in_page(self, ppn: int) -> List[FlipEvent]:
        """Flip events whose bit landed inside the 4 KiB page ``ppn``.

        Used by the security evaluation to check page-table integrity the
        way the paper does ("by checking their integrity", Section V-A).
        """
        page_base = ppn << 12
        hits: List[FlipEvent] = []
        for flip in self.flip_log:
            # A row may be non-contiguous in physical space under
            # interleaved mappings, so resolve the flip's own line.
            col = (flip.bit_offset // 8) & ~(LINE_BYTES - 1)
            line_paddr = self.mapping.dram_to_phys(flip.bank, flip.row, col)
            byte_paddr = line_paddr + (flip.bit_offset // 8) % LINE_BYTES
            if page_base <= byte_paddr < page_base + 4096:
                hits.append(flip)
        return hits
