"""Write-ahead journaling of agent scheduling state.

An ALPS driver's whole worth is the state it accumulates mid-cycle:
per-subject allowances (fairness debt), the cycle position ``tc``, the
eligibility partition, the measurement-postponement indices, and the
progress-read baselines.  PR 1's crash recovery re-baselines all of it,
which silently forfeits the debt.  This module makes that state durable:
each quantum the driver appends one *snapshot record* to a journal, and
a restarted driver replays the journal to resume the same cycle.

Record format (text, line-oriented)::

    ALPSJ1 <seq> <crc32-hex8> <canonical-json-payload>\\n

* ``seq`` is strictly increasing, so a stale record can never shadow a
  newer one;
* the CRC covers ``"<seq> <payload>"``, so a torn or bit-flipped tail
  fails closed;
* the payload is compact sorted-keys JSON, so equal state journals to
  equal bytes (the differential tests rely on this).

Recovery (:func:`recover_journal`) scans forward and *salvages*: a
damaged line — a torn tail, a corrupt CRC, interleaved garbage — is
skipped, and scanning resynchronises on the next record magic.  Each
append is an independent fsync'd operation, so a record whose CRC and
sequence number check out is trustworthy regardless of earlier damage;
stopping at the first bad line (the classic single-writer WAL rule)
would let one torn mid-run append shadow every later snapshot.  A torn
record also eats its newline, merging with the next append onto one
line, so resynchronisation looks *inside* damaged lines for a record
suffix.  Because every record is a *complete* snapshot, the newest
surviving record is the recovery point — there is no redo log to
replay, which is what makes skipping damage safe rather than lossy.

Two journal stores implement the same append surface:

* :class:`MemoryJournal` — deterministic in-memory bytes for the
  simulator, with an injectable fault hook so
  :class:`~repro.faults.injector.FaultInjector` can drop or tear writes;
* :class:`FileJournal` — a real ``O_APPEND`` + ``fsync`` file for
  :class:`~repro.hostos.controller.HostAlps`, compacted atomically
  (write-temp + ``os.replace``) once it accumulates enough superseded
  snapshots.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, MutableMapping, Optional

from repro.errors import JournalCorruptError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alps.algorithm import AlpsCore

#: Magic prefix naming the record format version.
MAGIC = b"ALPSJ1"

#: Version stamp inside every snapshot payload.  Bump on incompatible
#: payload layout changes; recovery rejects other versions as corrupt.
SNAPSHOT_VERSION = 1

#: A fault hook receives the encoded record and returns what actually
#: reaches the store: the bytes (possibly truncated — a torn write) or
#: ``None`` (the write was lost entirely).  It may not reorder records.
FaultHook = Callable[[bytes], Optional[bytes]]


def encode_record(seq: int, payload: Mapping[str, Any]) -> bytes:
    """One journal line for ``payload`` at sequence number ``seq``."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(f"{seq} {body}".encode())
    return f"{MAGIC.decode()} {seq} {crc:08x} {body}\n".encode()


def _decode_line(line: bytes) -> Optional[tuple[int, dict]]:
    """Parse one journal line; None if it is damaged in any way."""
    parts = line.split(b" ", 3)
    if len(parts) != 4 or parts[0] != MAGIC:
        return None
    try:
        seq = int(parts[1])
        crc = int(parts[2], 16)
        body = parts[3].decode()
    except (ValueError, UnicodeDecodeError):
        return None
    if zlib.crc32(f"{seq} {body}".encode()) != crc:
        return None
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict):
        return None
    return seq, payload


@dataclass(slots=True, frozen=True)
class RecoveredJournal:
    """Outcome of scanning a journal's bytes.

    Attributes:
        snapshot: the newest valid record's payload (None if no record
            survived — an empty or fully torn journal).
        last_seq: sequence number of that record (-1 if none).
        records: valid records found.
        valid_bytes: bytes occupied by salvaged records.
        discarded_bytes: damaged or stale bytes skipped while scanning.
    """

    snapshot: Optional[dict]
    last_seq: int
    records: int
    valid_bytes: int
    discarded_bytes: int


def _salvage_line(
    line: bytes, last_seq: int
) -> Optional[tuple[int, dict, int]]:
    """Decode ``line``, resynchronising past damage if necessary.

    A torn record loses its trailing newline, so the *next* good append
    lands on the same line after the torn bytes.  When the line as a
    whole fails to decode, retry from each record magic inside it — a
    valid CRC'd record suffix is trustworthy whatever precedes it.
    Returns ``(seq, payload, start_offset_in_line)`` or ``None``.
    """
    decoded = _decode_line(line)
    start = 0
    while decoded is None:
        idx = line.find(MAGIC, start + 1)
        if idx < 0:
            return None
        decoded = _decode_line(line[idx:])
        start = idx
    if decoded[0] <= last_seq:
        return None  # stale or replayed record can never shadow newer state
    return decoded[0], decoded[1], start


def recover_journal(data: bytes, *, strict: bool = False) -> RecoveredJournal:
    """Scan ``data`` and return the recovery point.

    Tolerant by default: damaged lines (torn writes, bad CRCs, stale
    sequence numbers) are skipped and scanning resynchronises on the
    next valid record, so one mid-journal torn append costs only the
    records it physically damaged.  ``strict=True`` instead raises
    :class:`~repro.errors.JournalCorruptError` whenever any byte had to
    be discarded — for tooling that must notice damage, not heal it.
    """
    offset = 0
    records = 0
    last_seq = -1
    snapshot: Optional[dict] = None
    valid = 0
    size = len(data)
    while offset < size:
        newline = data.find(b"\n", offset)
        if newline < 0:
            break  # torn tail: no terminator, cannot be complete
        decoded = _salvage_line(data[offset:newline], last_seq)
        if decoded is not None:
            last_seq, snapshot, start = decoded
            records += 1
            valid += (newline - (offset + start)) + 1
        offset = newline + 1
    discarded = size - valid
    if strict and discarded:
        raise JournalCorruptError(
            f"{discarded} byte(s) unreadable around "
            f"{records} valid record(s)",
            discarded_bytes=discarded,
        )
    return RecoveredJournal(
        snapshot=snapshot,
        last_seq=last_seq,
        records=records,
        valid_bytes=valid,
        discarded_bytes=discarded,
    )


class MemoryJournal:
    """Deterministic in-memory journal for the simulated agent.

    Models persistent storage that survives the agent's crash (the
    object outlives :meth:`AlpsAgent.restart`).  ``fault_hook`` lets the
    fault injector lose or tear individual appends; everything else is
    exact, so a journal without faults is byte-reproducible for equal
    schedules.
    """

    __slots__ = (
        "_buf",
        "_seq",
        "fault_hook",
        "compact_threshold",
        "appends",
        "compactions",
    )

    def __init__(
        self,
        *,
        fault_hook: Optional[FaultHook] = None,
        compact_threshold: int = 4096,
    ) -> None:
        if compact_threshold < 2:
            raise ValueError("compact_threshold must be >= 2")
        self._buf = bytearray()
        self._seq = 0
        self.fault_hook = fault_hook
        self.compact_threshold = compact_threshold
        #: Appends attempted (including ones a fault hook swallowed).
        self.appends = 0
        #: Times the journal rewrote itself down to the latest record.
        self.compactions = 0

    def append(self, payload: Mapping[str, Any]) -> None:
        """Append one snapshot record (write-ahead: call before enacting)."""
        encoded = encode_record(self._seq, payload)
        self._seq += 1
        self.appends += 1
        if self.fault_hook is not None:
            faulted = self.fault_hook(encoded)
            if faulted is None:
                return  # write lost before reaching the store
            encoded = faulted
        self._buf += encoded
        if self.appends % self.compact_threshold == 0:
            self.compact()

    def compact(self) -> None:
        """Drop superseded records, keeping only the recovery point."""
        rec = recover_journal(bytes(self._buf))
        if rec.snapshot is None:
            return
        self._buf = bytearray(encode_record(rec.last_seq, rec.snapshot))
        self.compactions += 1

    def recover(self, *, strict: bool = False) -> RecoveredJournal:
        """Recovery point of the current contents."""
        rec = recover_journal(bytes(self._buf), strict=strict)
        # Appends after a recovery must keep sequence numbers advancing
        # past anything the store has ever seen.
        if rec.last_seq >= self._seq:  # pragma: no cover - defensive
            self._seq = rec.last_seq + 1
        return rec

    @property
    def data(self) -> bytes:
        """The raw journal bytes (tests and tooling)."""
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class FileJournal:
    """fsync'd append-only journal file for the live Linux controller.

    Appends are single ``write(2)`` calls on an ``O_APPEND`` descriptor
    followed by ``fsync`` — the strongest atomicity an unprivileged
    process gets; recovery handles the remaining torn-tail window.
    Compaction rewrites a temp file and ``os.replace``\\ s it over the
    journal, which is atomic on POSIX filesystems.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: bool = True,
        compact_threshold: int = 4096,
    ) -> None:
        if compact_threshold < 2:
            raise ValueError("compact_threshold must be >= 2")
        self.path = os.fspath(path)
        self.fsync = fsync
        self.compact_threshold = compact_threshold
        self.appends = 0
        self.compactions = 0
        existing = self._read_bytes()
        self._seq = recover_journal(existing).last_seq + 1
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600
        )

    def _read_bytes(self) -> bytes:
        try:
            with open(self.path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def append(self, payload: Mapping[str, Any]) -> None:
        encoded = encode_record(self._seq, payload)
        self._seq += 1
        self.appends += 1
        os.write(self._fd, encoded)
        if self.fsync:
            os.fsync(self._fd)
        if self.appends % self.compact_threshold == 0:
            self.compact()

    def compact(self) -> None:
        rec = recover_journal(self._read_bytes())
        if rec.snapshot is None:
            return
        tmp = self.path + ".compact"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        try:
            os.write(fd, encode_record(rec.last_seq, rec.snapshot))
            if self.fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, self.path)
        # Reopen: the O_APPEND descriptor still points at the old inode.
        os.close(self._fd)
        self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        self.compactions += 1

    def recover(self, *, strict: bool = False) -> RecoveredJournal:
        rec = recover_journal(self._read_bytes(), strict=strict)
        if rec.last_seq >= self._seq:
            self._seq = rec.last_seq + 1
        return rec

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "FileJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Snapshot codec for the algorithm core (shared by both drivers)
# ---------------------------------------------------------------------------
def core_snapshot(core: "AlpsCore") -> dict:
    """JSON-safe snapshot of an :class:`AlpsCore`'s scheduling state.

    Subjects are emitted in the core's iteration order — dict order is
    schedule-relevant (``begin_quantum`` walks it), so restore must
    reproduce it exactly.
    """
    from repro.alps.state import Eligibility

    eligible = Eligibility.ELIGIBLE
    return {
        "count": core.count,
        "tc": core.tc,
        "cycles": core.cycles_completed,
        "subjects": [
            [
                sid,
                st.share,
                st.allowance,
                1 if st.state is eligible else 0,
                st.update,
                st.consumed_this_cycle,
                st.blocked_quanta_this_cycle,
                st.measurements,
            ]
            for sid, st in core.subjects.items()
        ],
        "due": list(core._last_due),
    }


def driver_snapshot(core: "AlpsCore", t: int, **state: Any) -> dict:
    """One snapshot record: the core plus a driver's own ``state``.

    Maps are written with sorted string keys (JSON object keys) and
    sets as sorted lists; other values verbatim.
    """
    agent: dict[str, Any] = {}
    for name, value in state.items():
        if isinstance(value, dict):
            value = {str(key): v for key, v in sorted(value.items())}
        elif isinstance(value, set):
            value = sorted(value)
        agent[name] = value
    return {
        "v": SNAPSHOT_VERSION,
        "kind": "snapshot",
        "t": t,
        "core": core_snapshot(core),
        "agent": agent,
    }


def snapshot_map(state: Mapping[str, Any], name: str) -> dict[int, int]:
    """Decode one integer map written by :func:`driver_snapshot`."""
    return {int(key): int(value) for key, value in state.get(name, {}).items()}


def restore_core(core: "AlpsCore", snap: Mapping[str, Any]) -> None:
    """Restore ``core`` to a :func:`core_snapshot` state, in place.

    The attached cycle log is treated as observed history, not
    scheduling state: records indexed at or past the restored cycle
    count (completed after the snapshot was taken) are dropped so the
    next completion cannot duplicate an index.
    """
    from repro.alps.state import Eligibility, SubjectState

    try:
        rows = snap["subjects"]
        count = int(snap["count"])
        tc = int(snap["tc"])
        cycles = int(snap["cycles"])
        due = [int(s) for s in snap.get("due", [])]
        subjects: dict[int, SubjectState] = {}
        total = 0
        for sid, share, allowance, elig, update, consumed, blocked, meas in rows:
            st = SubjectState(share=int(share), allowance=float(allowance))
            st.state = Eligibility.ELIGIBLE if elig else Eligibility.INELIGIBLE
            st.update = int(update)
            st.consumed_this_cycle = int(consumed)
            st.blocked_quanta_this_cycle = int(blocked)
            st.measurements = int(meas)
            subjects[int(sid)] = st
            total += int(share)
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalCorruptError(f"unusable core snapshot: {exc!r}") from exc
    core.subjects = subjects
    core.total_shares = total
    core.count = count
    core.tc = tc
    core.cycles_completed = cycles
    core._last_due = due
    # A restore is a membership-grade change: force the next
    # complete_quantum to run the full partition sweep.
    core._dirty = True
    log = core.cycle_log
    if len(log) > cycles:
        del log.records[cycles:]


def schedule_debt(
    core: "AlpsCore",
    debts_us: Mapping[int, int],
    deferred: MutableMapping[int, int],
) -> int:
    """Register downtime consumption for amortized repayment.

    ``debts_us`` maps subject id → CPU (µs) the subject consumed while
    the driver was down (current reading minus the journaled baseline).
    The debt is *not* charged as a lump: an unbounded one-shot charge
    destabilises the postponement optimization — it knocks ``tc`` far
    negative, the resulting burst of cycle completions hands out large
    credits, large allowances open long measurement-blind windows, and
    the next lump is bigger still (a growing oscillation observed under
    chaos testing).  Instead each debt is merged into ``deferred``, to
    be repaid by :func:`drain_debt` a share-proportional sliver per
    measured quantum, and the debtor gets ``update = count + 1`` so
    repayment starts on the next quantum.  Returns total µs scheduled.
    """
    total = 0
    for sid, debt_us in debts_us.items():
        st = core.subjects.get(sid)
        if st is None or debt_us <= 0:
            continue
        deferred[sid] = deferred.get(sid, 0) + int(debt_us)
        st.update = core.count + 1
        total += int(debt_us)
    return total


def drain_debt(
    deferred: MutableMapping[int, int],
    sid: int,
    share: int,
    quantum_us: int,
    total_shares: int,
) -> int:
    """One measurement's repayment of ``sid``'s deferred downtime debt.

    Removes and returns at most the subject's fair-share rate — one
    share-proportional quantum slice, ``share · Q / S`` µs — so the
    extra charge per quantum never exceeds what a cycle already credits
    back, keeping allowances (and the postponement feedback loop)
    damped while the debt is repaid in full.  Returns 0 when ``sid``
    owes nothing; callers add the result to the quantum's measured
    consumption.
    """
    owed = deferred.get(sid)
    if not owed:
        return 0
    rate = max(1, (share * quantum_us) // max(1, total_shares))
    if owed <= rate:
        del deferred[sid]
        return owed
    deferred[sid] = owed - rate
    return rate


def validate_snapshot(payload: Mapping[str, Any]) -> Mapping[str, Any]:
    """Check a recovered payload's version/shape; raise if unusable."""
    version = payload.get("v")
    if version != SNAPSHOT_VERSION:
        raise JournalCorruptError(
            f"snapshot version {version!r} (expected {SNAPSHOT_VERSION})"
        )
    if "core" not in payload or not isinstance(payload["core"], Mapping):
        raise JournalCorruptError("snapshot has no core section")
    return payload


__all__ = [
    "FileJournal",
    "MemoryJournal",
    "RecoveredJournal",
    "SNAPSHOT_VERSION",
    "core_snapshot",
    "drain_debt",
    "encode_record",
    "recover_journal",
    "restore_core",
    "schedule_debt",
    "validate_snapshot",
]
