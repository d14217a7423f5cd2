"""The durable storage plane: replicated, checksummed DFS blocks.

The paper's cluster assumes a GFS/HDFS-style store — files chunked into
blocks, each block replicated on several DataNodes with end-to-end
checksums, reads failing over between replicas and a namenode
re-replicating when a node dies.  This module supplies that layer under
both DFS backends:

* every tracked file is chunked into line-range blocks of
  ``block_records`` records, each with a CRC32C checksum over its
  encoded bytes;
* each block is copied onto ``replication`` distinct workers from the
  cluster's :class:`~repro.mapreduce.workers.WorkerPool` — replica
  copies live in the DFS's *side-file* namespace under ``_blocks/``
  (durable, never charged to the canonical byte counters);
* every read reassembles the file from replicas, verifying each
  block's checksum: a corrupt replica is dropped and the read fails
  over to the next holder (counted as ``BLOCK_CORRUPTIONS``); a block
  with no healthy replica raises — data loss is loud, never silent;
* worker death marks its replicas lost, and the end-of-job
  re-replication pass copies from surviving holders until the target
  factor is restored (``BLOCKS_REREPLICATED``, with the copied bytes
  charged to the cost model's non-canonical network-overhead term);
* :meth:`BlockPlane.fsck` audits the whole placement — the offline
  ``python -m repro fsck`` walks it in a fresh process via the
  placement map persisted at ``_blocks/placement.json``.

The plane engages only when ``Cluster(replication=N)`` is set; a DFS
without a plane attached behaves byte-for-byte as before.  Replica
content always equals the primary content, so serving reads through the
plane never changes canonical bytes, counters or simulated seconds —
corruption and loss move *telemetry* (counters, ledger events, the
non-canonical overhead buckets), exactly like the fault-tolerance
layers before it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DFSError
from repro.mapreduce.placement import (
    PLACEMENT_PATH,
    REPLICA_ROOT,
    BlockMeta,
    PlacementMap,
)

__all__ = [
    "crc32c",
    "block_payload",
    "chunk_blocks",
    "BlockPlane",
    "StorageReport",
    "FsckReport",
]

# ----------------------------------------------------------------------
# CRC32C (Castagnoli), table-driven and vectorized with numpy.  zlib.crc32
# is plain CRC32 (IEEE); HDFS checksums blocks with CRC32C, so we match.
#
# The CRC register update is linear over GF(2), so with a zero initial
# register the CRC of a payload is the XOR of every byte's contribution,
# and a byte's contribution depends only on its value and on how many
# bytes follow it.  The kernel therefore
#
# 1. XORs the initial register into the first 4 payload bytes (for a
#    reflected CRC, starting from register ``s`` equals starting from 0
#    with ``s`` little-endian XORed into the leading bytes);
# 2. left-pads the payload with zero bytes (a zero register stays zero
#    through zeros) to whole chunks of ``_CRC_CHUNK`` bytes;
# 3. gathers each byte's contribution from a per-position table and
#    XOR-reduces each chunk to one register state;
# 4. folds groups of ``_CRC_FOLD`` consecutive states the same way: a
#    state is 4 bytes, and "advance by k zero bytes" is linear too, so
#    per-position tables advance each state past the chunks that follow
#    it inside its group.  Every fold level is ``_CRC_FOLD`` times
#    coarser, until one state remains.
# ----------------------------------------------------------------------
_CRC32C_POLY = 0x82F63B78  # Castagnoli polynomial, reversed form
#: payload bytes per chunk state
_CRC_CHUNK = 64
#: states per fold group
_CRC_FOLD = 64
#: shorter payloads run the byte loop: numpy's per-call overhead wins
_CRC_SCALAR_BELOW = 256


def _build_table() -> list[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC32C_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC32C_TABLE = _build_table()
_CRC_TABLE_NP = np.array(_CRC32C_TABLE, dtype=np.uint32)


def _zero_byte(state):
    """Advance register states (a uint32 array) by one zero byte."""
    return _CRC_TABLE_NP[state & 0xFF] ^ (state >> 8)


def _apply(op, state):
    """Apply a linear register map, given as 4x256 per-byte tables, to
    register states; applied to another map's tables it composes the
    two maps."""
    return (
        op[0][state & 0xFF]
        ^ op[1][(state >> 8) & 0xFF]
        ^ op[2][(state >> 16) & 0xFF]
        ^ op[3][state >> 24]
    )


#: the identity map: byte ``b`` of value ``v`` is the state ``v << 8b``
_IDENTITY = np.arange(256, dtype=np.uint32)[None, :] << (
    8 * np.arange(4, dtype=np.uint32)[:, None]
)


def _advance(nbytes: int):
    """The 4x256 tables advancing a state by ``nbytes`` zero bytes."""
    result = _IDENTITY
    step = _zero_byte(_IDENTITY)
    while nbytes:
        if nbytes & 1:
            result = _apply(step, result)
        step = _apply(step, step)
        nbytes >>= 1
    return result


def _chunk_tables():
    """``(_CRC_CHUNK, 256)``: state of byte value ``v`` at chunk position
    ``k``, advanced past the ``_CRC_CHUNK - 1 - k`` bytes after it."""
    tables = np.empty((_CRC_CHUNK, 256), dtype=np.uint32)
    cur = _CRC_TABLE_NP
    for k in range(_CRC_CHUNK - 1, -1, -1):
        tables[k] = cur
        cur = _zero_byte(cur)
    return tables


_CRC_CHUNK_TABLES = _chunk_tables()
_CHUNK_POS = np.arange(_CRC_CHUNK)[None, :]
_FOLD_POS = np.arange(_CRC_FOLD)[:, None]
_STATE_BYTE = np.arange(4)[None, :]


@functools.cache
def _fold_tables(level: int):
    """``(_CRC_FOLD, 4, 256)`` tables of fold ``level``: group position
    ``j`` advances a state past the ``_CRC_FOLD - 1 - j`` states after
    it, each covering ``_CRC_CHUNK * _CRC_FOLD**level`` payload bytes."""
    step = _advance(_CRC_CHUNK * _CRC_FOLD**level)
    tables = np.empty((_CRC_FOLD, 4, 256), dtype=np.uint32)
    cur = _IDENTITY
    for j in range(_CRC_FOLD - 1, -1, -1):
        tables[j] = cur
        cur = _apply(step, cur)
    return tables


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC32C (Castagnoli) of ``data``; chainable via ``crc``.

    Standard test vector: ``crc32c(b"123456789") == 0xE3069283``.
    """
    n = len(data)
    if n < _CRC_SCALAR_BELOW:
        crc ^= 0xFFFFFFFF
        table = _CRC32C_TABLE
        for byte in data:
            crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
        return crc ^ 0xFFFFFFFF
    pad = -n % _CRC_CHUNK
    buf = np.zeros(pad + n, dtype=np.uint8)
    buf[pad:] = np.frombuffer(data, dtype=np.uint8)
    buf[pad : pad + 4] ^= np.frombuffer(
        (crc ^ 0xFFFFFFFF).to_bytes(4, "little"), dtype=np.uint8
    )
    states = np.bitwise_xor.reduce(
        _CRC_CHUNK_TABLES[_CHUNK_POS, buf.reshape(-1, _CRC_CHUNK)], axis=1
    )
    level = 0
    while len(states) > 1:
        gpad = -len(states) % _CRC_FOLD
        if gpad:
            states = np.concatenate((np.zeros(gpad, dtype=np.uint32), states))
        # a state's 4 little-endian bytes index the 4 per-byte tables
        groups = states.astype("<u4", copy=False).view(np.uint8)
        groups = groups.reshape(-1, _CRC_FOLD, 4)
        contrib = _fold_tables(level)[_FOLD_POS, _STATE_BYTE, groups]
        states = np.bitwise_xor.reduce(contrib.reshape(len(groups), -1), axis=1)
        level += 1
    return int(states[0]) ^ 0xFFFFFFFF


def block_payload(lines: list[str]) -> bytes:
    """The encoded bytes a block checksums: lines + trailing newlines."""
    return "".join(line + "\n" for line in lines).encode("utf-8")


def chunk_blocks(lines: list[str], block_records: int) -> list[tuple[int, list[str]]]:
    """Chunk a file's lines into ``(start_line, block_lines)`` pairs.

    An empty file has zero blocks; blocks never span files (like HDFS
    blocks, which is what makes split↔block locality exact when the
    split size equals the block size).
    """
    if block_records < 1:
        raise DFSError(f"block_records must be >= 1, got {block_records}")
    return [
        (lo, lines[lo : lo + block_records])
        for lo in range(0, len(lines), block_records)
    ]


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
@dataclass
class StorageReport:
    """Per-job storage-plane telemetry, merged into counters and cost."""

    block_corruptions: int = 0
    replicas_lost: int = 0
    blocks_rereplicated: int = 0
    #: bytes copied across the (simulated) network by re-replication —
    #: charged to the cost breakdown's non-canonical network overhead
    rereplicated_bytes: int = 0
    #: blocks still below the target factor after re-replication (the
    #: pool is too small) — surfaced loudly, never silently absorbed
    under_replicated: int = 0


@dataclass
class FsckReport:
    """One placement audit: block health plus one line per problem."""

    blocks: int = 0
    healthy: int = 0
    under_replicated: int = 0
    corrupt: int = 0
    problems: list[str] = field(default_factory=list)
    repaired: int = 0

    @property
    def exit_code(self) -> int:
        """0 healthy / 1 under-replicated (recoverable) / 2 corrupt."""
        if self.corrupt:
            return 2
        if self.under_replicated:
            return 1
        return 0

    def lines(self) -> list[str]:
        """One line per problem, then the summary — the CLI output."""
        out = list(self.problems)
        status = ("HEALTHY", "UNDER-REPLICATED", "CORRUPT")[self.exit_code]
        out.append(
            f"fsck: {self.blocks} block(s): {self.healthy} healthy, "
            f"{self.under_replicated} under-replicated, "
            f"{self.corrupt} corrupt"
            + (f", {self.repaired} repaired" if self.repaired else "")
            + f" -- {status}"
        )
        return out


# ----------------------------------------------------------------------
# The plane
# ----------------------------------------------------------------------
class BlockPlane:
    """Replication, checksumming and placement under one DFS instance.

    The engine attaches one plane per cluster (``dfs.block_plane``)
    when ``Cluster(replication=N)`` is set; the DFS write/read/delete
    paths call the ``on_write``/``read``/``verify``/``on_delete`` hooks.
    ``pool`` may be ``None`` for offline audits (``fsck`` in a fresh
    process) — placement then comes entirely from the persisted map —
    and ``replication`` may be ``None`` there too, deferring to the
    factor the persisted map was written with.
    """

    def __init__(
        self,
        dfs,
        pool,
        replication: int | None,
        block_records: int,
        ledger=None,
    ) -> None:
        if replication is not None and replication < 1:
            raise DFSError(f"replication factor must be >= 1, got {replication}")
        self.dfs = dfs
        self.pool = pool
        self.block_records = block_records
        self.ledger = (
            ledger if ledger is not None and getattr(ledger, "enabled", False)
            else None
        )
        self.report = StorageReport()
        self.placement = self._load_placement(replication)
        if pool is not None:
            for name in pool.workers:
                self.placement.note_worker(name)

    @property
    def replication(self) -> int:
        return self.placement.replication

    # -- persistence ---------------------------------------------------
    def _load_placement(self, replication: int | None) -> PlacementMap:
        """Restore a persisted map (fresh process over a LocalFS root)."""
        try:
            lines = self.dfs.read_side_file(PLACEMENT_PATH)
        except DFSError:
            # No persisted map: an offline audit (replication=None) sees
            # an empty-but-healthy store rather than an error.
            return PlacementMap(replication if replication is not None else 1)
        pmap = PlacementMap.from_json("\n".join(lines))
        # An explicit factor wins over the persisted one (re-attaching
        # with a different target re-replicates toward the new factor).
        if replication is not None:
            pmap.replication = replication
        return pmap

    def _persist(self) -> None:
        self.dfs.write_side_file(PLACEMENT_PATH, [self.placement.to_json()])

    # -- replica addressing --------------------------------------------
    @staticmethod
    def _replica_path(worker: str, path: str, index: int) -> str:
        # '/' -> '#' keeps every mangled path one directory level per
        # worker; '#' is inside the LocalFS-safe segment charset.
        return f"{REPLICA_ROOT}/{worker}/{path.replace('/', '#')}/b-{index:05d}"

    @staticmethod
    def _is_internal(path: str) -> bool:
        return path == REPLICA_ROOT or path.startswith(REPLICA_ROOT + "/")

    def _alive(self, worker: str) -> bool:
        if self.pool is None:
            return True  # offline: liveness unknown, trust placement
        state = self.pool.workers.get(worker)
        return state is not None and state.alive

    def _active_workers(self) -> list[str]:
        if self.pool is not None:
            return self.pool.active()
        return list(self.placement.workers)

    # -- write path ----------------------------------------------------
    def on_write(self, path: str, lines: list[str]) -> None:
        """(Re)place every block of a freshly written file."""
        if self._is_internal(path):
            return
        self._drop_replicas(path)
        blocks: list[BlockMeta] = []
        active = self._active_workers()
        # Deterministic placement: first replica offset from a CRC of
        # the path (process-salted hash() would break replays) plus the
        # block index, subsequent replicas walk the active list.
        path_crc = crc32c(path.encode("utf-8")) if active else 0
        for index, (start, chunk) in enumerate(
            chunk_blocks(lines, self.block_records)
        ):
            payload = block_payload(chunk)
            meta = BlockMeta(
                index=index,
                start=start,
                count=len(chunk),
                nbytes=len(payload),
                crc=crc32c(payload),
            )
            if active:
                offset = (path_crc + index) % len(active)
                for k in range(min(self.replication, len(active))):
                    worker = active[(offset + k) % len(active)]
                    self.dfs.write_side_file(
                        self._replica_path(worker, path, index), chunk
                    )
                    meta.replicas.append(worker)
            blocks.append(meta)
        self.placement.set_file(path, blocks)
        self._persist()

    def ensure(self, path: str) -> bool:
        """Lazily ingest a pre-existing file (staged before the plane).

        Returns ``True`` when the path is tracked afterwards.  Content
        is read through the unaccounted side-file path, so ingestion
        never disturbs the canonical byte counters.
        """
        if self._is_internal(path):
            return False
        if self.placement.tracks(path):
            return True
        try:
            lines = self.dfs.read_side_file(path)
        except DFSError:
            return False
        self.on_write(path, lines)
        return True

    def on_delete(self, path: str) -> None:
        if self._is_internal(path) or not self.placement.tracks(path):
            return
        self._drop_replicas(path)
        self.placement.drop_file(path)
        self._persist()

    def _drop_replicas(self, path: str) -> None:
        for block in self.placement.blocks(path):
            for worker in block.replicas:
                self.dfs.delete(self._replica_path(worker, path, block.index))

    # -- read path -----------------------------------------------------
    def read(self, path: str) -> list[str] | None:
        """Reassemble ``path`` from replicas, verifying every checksum.

        Returns ``None`` for untracked paths (the DFS falls back to its
        primary store).  A corrupt replica is dropped with a counted
        ledger event and the read fails over to the next holder; a
        block with no healthy replica raises :class:`DFSError`.
        """
        if not self.ensure(path):
            return None
        out: list[str] = []
        for block in list(self.placement.blocks(path)):
            out.extend(self._read_block(path, block))
        return out

    def verify(self, path: str) -> None:
        """Checksum-verify every replica a read of ``path`` would use.

        The :meth:`read` loop without materialising the result — the
        DFS ``charge_read`` cache-hit path calls this so corruption is
        detected at identical points whether or not lines materialise.
        """
        if not self.ensure(path):
            return
        for block in list(self.placement.blocks(path)):
            self._read_block(path, block)

    def _read_block(self, path: str, block: BlockMeta) -> list[str]:
        """One block's lines from its first healthy replica (failover)."""
        for worker in list(block.replicas):
            if not self._alive(worker):
                continue  # the sweep will count the node's losses
            rpath = self._replica_path(worker, path, block.index)
            try:
                lines = self.dfs.read_side_file(rpath)
            except DFSError:
                self._lose(path, block, worker, reason="missing")
                continue
            if crc32c(block_payload(lines)) != block.crc:
                self.report.block_corruptions += 1
                if self.ledger is not None:
                    self.ledger.event(
                        "block_corruption",
                        path=path,
                        block=block.index,
                        worker=worker,
                    )
                block.replicas.remove(worker)
                self.dfs.delete(rpath)
                self._persist()
                continue
            return lines
        raise DFSError(
            f"block lost: {path!r} block {block.index} has no healthy "
            f"replica (holders tried: {block.replicas})"
        )

    # -- fault enactment -----------------------------------------------
    def enact_faults(self, plan, job: str) -> None:
        """Fire pending ``corrupt-block``/``lose-replica`` specs.

        Called at job start, before the split phase reads inputs, so
        detection (and its counters) happens deterministically during
        this job's reads.  One-shot per cluster lifetime, tracked in
        the pool's fired set like worker specs; a spec whose path does
        not exist yet stays pending for a later job.
        """
        if plan is None or self.pool is None:
            return
        for spec in plan.storage_specs():
            if spec in self.pool.fired:
                continue
            if spec.job is not None and spec.job != job:
                continue
            if not self.ensure(spec.path):
                continue  # path not written yet: try again next job
            if spec.kind == "corrupt-block":
                if self._corrupt_replica(spec.path, spec.block, spec.replica):
                    self.pool.fired.add(spec)
            else:  # lose-replica
                if self._lose_replica(spec.path, spec.block, spec.replica):
                    self.pool.fired.add(spec)

    def _located(self, path: str, block: int, replica: int):
        blocks = self.placement.blocks(path)
        if block >= len(blocks):
            return None, None
        meta = blocks[block]
        if replica >= len(meta.replicas):
            return None, None
        return meta, meta.replicas[replica]

    def _corrupt_replica(self, path: str, block: int, replica: int) -> bool:
        """Flip a replica's bytes on disk; detection happens at read."""
        meta, worker = self._located(path, block, replica)
        if meta is None:
            return False
        self.dfs.write_side_file(
            self._replica_path(worker, path, meta.index),
            ["#corrupted-by-fault-injection"],
        )
        return True

    def _lose_replica(self, path: str, block: int, replica: int) -> bool:
        """Drop a replica outright (a vanished disk, not flipped bits)."""
        meta, worker = self._located(path, block, replica)
        if meta is None:
            return False
        self.dfs.delete(self._replica_path(worker, path, meta.index))
        self._lose(path, meta, worker, reason="fault")
        return True

    def _lose(self, path: str, block: BlockMeta, worker: str, reason: str) -> None:
        if worker in block.replicas:
            block.replicas.remove(worker)
        self.report.replicas_lost += 1
        if self.ledger is not None:
            self.ledger.event(
                "replica_lost",
                path=path,
                block=block.index,
                worker=worker,
                reason=reason,
            )
        self._persist()

    # -- self-healing --------------------------------------------------
    def sweep_dead_workers(self) -> None:
        """Mark every replica held by a dead worker as lost."""
        if self.pool is None:
            return
        dead = {w.name for w in self.pool.workers.values() if not w.alive}
        if not dead:
            return
        for path, blocks in self.placement.files.items():
            for block in blocks:
                for worker in [w for w in block.replicas if w in dead]:
                    self.dfs.delete(self._replica_path(worker, path, block.index))
                    self._lose(path, block, worker, reason="worker_lost")

    def rereplicate(self) -> None:
        """Restore the target factor from surviving replicas.

        The end-of-job "background" pass: runs after the job's phases
        drain (before the next job's barrier), copying each
        under-replicated block from a healthy holder onto active
        workers not yet holding it.  Copied bytes land in the report
        (charged to the non-canonical network-overhead cost term); a
        block the pool is too small to restore counts as
        under-replicated and is surfaced loudly.
        """
        self.sweep_dead_workers()
        active = self._active_workers()
        for path, blocks in self.placement.files.items():
            for block in blocks:
                if len(block.replicas) >= self.replication:
                    continue
                lines = self._healthy_copy(path, block)
                if lines is None:
                    # No healthy source: the next read raises data loss.
                    self.report.under_replicated += 1
                    self._warn_under_replicated(path, block)
                    continue
                candidates = [w for w in active if w not in block.replicas]
                while len(block.replicas) < self.replication and candidates:
                    worker = candidates.pop(0)
                    self.dfs.write_side_file(
                        self._replica_path(worker, path, block.index), lines
                    )
                    block.replicas.append(worker)
                    self.placement.note_worker(worker)
                    self.report.blocks_rereplicated += 1
                    self.report.rereplicated_bytes += block.nbytes
                    if self.ledger is not None:
                        self.ledger.event(
                            "block_rereplicated",
                            path=path,
                            block=block.index,
                            worker=worker,
                            bytes=block.nbytes,
                        )
                if len(block.replicas) < self.replication:
                    self.report.under_replicated += 1
                    self._warn_under_replicated(path, block)
        self._persist()

    def _healthy_copy(self, path: str, block: BlockMeta) -> list[str] | None:
        """The block's lines from any checksum-clean replica, or None."""
        for worker in list(block.replicas):
            try:
                lines = self.dfs.read_side_file(
                    self._replica_path(worker, path, block.index)
                )
            except DFSError:
                continue
            if crc32c(block_payload(lines)) == block.crc:
                return lines
        return None

    def _warn_under_replicated(self, path: str, block: BlockMeta) -> None:
        if self.ledger is not None:
            self.ledger.event(
                "warning",
                kind="under_replicated",
                path=path,
                block=block.index,
                replicas=len(block.replicas),
                target=self.replication,
            )

    def drain_report(self) -> StorageReport:
        """This job's storage telemetry; resets for the next job."""
        report, self.report = self.report, StorageReport()
        return report

    # -- locality ------------------------------------------------------
    def split_localities(
        self, splits: list[list[tuple[str, int, object, int]]]
    ) -> dict[int, tuple[tuple[str, ...], int]]:
        """Preferred workers per map split: ``{task: (workers, bytes)}``.

        A split's entries are ``(path, lineno, record, nbytes)`` rows of
        one file (splits never span files), so the holders of the
        overlapping blocks are the workers that can run the map task
        without a remote read.  Splits of untracked files are omitted
        (the scheduler falls back rack-blind without counting a miss).
        """
        localities: dict[int, tuple[tuple[str, ...], int]] = {}
        for i, split in enumerate(splits):
            if not split:
                continue
            path = split[0][0]
            if not self.placement.tracks(path):
                continue
            holders = self.placement.holders(
                path, split[0][1], split[-1][1]
            )
            nbytes = sum(entry[3] for entry in split)
            localities[i] = (holders, nbytes)
        return localities

    # -- audit ---------------------------------------------------------
    def fsck(self, repair: bool = False) -> FsckReport:
        """Audit every replica of every block; optionally repair.

        With ``repair=True``, checksum-bad and missing replicas are
        dropped and each damaged-but-recoverable block is re-replicated
        from a healthy copy; the returned report is a fresh *post*-repair
        audit (problems are what remains wrong) carrying the count of
        replicas restored, so a fully healed store exits 0 immediately.
        """
        report = FsckReport()
        for path in sorted(self.placement.files):
            for block in self.placement.files[path]:
                report.blocks += 1
                healthy: list[str] = []
                bad: list[str] = []
                for worker in list(block.replicas):
                    rpath = self._replica_path(worker, path, block.index)
                    try:
                        lines = self.dfs.read_side_file(rpath)
                    except DFSError:
                        report.problems.append(
                            f"missing: {path} block {block.index} replica "
                            f"on {worker} is gone"
                        )
                        bad.append(worker)
                        continue
                    if crc32c(block_payload(lines)) != block.crc:
                        report.problems.append(
                            f"corrupt: {path} block {block.index} replica "
                            f"on {worker} fails its checksum"
                        )
                        bad.append(worker)
                        continue
                    healthy.append(worker)
                if not healthy:
                    report.corrupt += 1
                    report.problems.append(
                        f"lost: {path} block {block.index} has no healthy "
                        "replica (data loss)"
                    )
                    continue
                if bad or len(healthy) < self.replication:
                    report.under_replicated += 1
                    if len(healthy) < self.replication:
                        report.problems.append(
                            f"under-replicated: {path} block {block.index} "
                            f"has {len(healthy)}/{self.replication} healthy "
                            "replica(s)"
                        )
                    if repair:
                        report.repaired += self._repair_block(
                            path, block, healthy, bad
                        )
                else:
                    report.healthy += 1
        if repair:
            self._persist()
            # The verdict (and exit code) must describe the store as
            # repaired, so audit again and carry the repair count over.
            fixed = self.fsck(repair=False)
            fixed.repaired = report.repaired
            return fixed
        return report

    def _repair_block(
        self, path: str, block: BlockMeta, healthy: list[str], bad: list[str]
    ) -> int:
        """Drop bad replicas, restore the factor from a healthy copy."""
        for worker in bad:
            self.dfs.delete(self._replica_path(worker, path, block.index))
            if worker in block.replicas:
                block.replicas.remove(worker)
        lines = self._healthy_copy(path, block)
        if lines is None:
            return 0
        repaired = 0
        candidates = [
            w for w in self._active_workers() if w not in block.replicas
        ]
        while len(block.replicas) < self.replication and candidates:
            worker = candidates.pop(0)
            self.dfs.write_side_file(
                self._replica_path(worker, path, block.index), lines
            )
            block.replicas.append(worker)
            repaired += 1
        return repaired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockPlane(replication={self.replication}, "
            f"{len(self.placement.files)} files)"
        )
