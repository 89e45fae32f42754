// Package journal implements the crash-safe write-ahead log behind emsd's
// durability layer: an append-only journal of opaque byte records with
// length+CRC32 framing, fsync on commit points, torn-tail-tolerant replay,
// and log rotation with compaction into a snapshot.
//
// On-disk layout of a journal directory:
//
//	wal-<idx>.log   record segments, oldest index first; each starts with an
//	                8-byte magic followed by framed records
//	snap-<idx>.bin  snapshot files; a snapshot with index k replaces every
//	                record in segments with index < k
//	*.tmp           in-progress atomic writes, removed on Open
//
// Every record is framed as a 4-byte little-endian payload length, a 4-byte
// little-endian CRC32-Castagnoli of the payload, and the payload itself. A
// record is committed once Append returns: the frame has been written and
// (unless Options.NoSync) fsynced. Replay reads records until the first
// frame that is truncated, oversized, or fails its checksum — the torn tail
// a crash mid-write leaves behind — and recovers the longest valid prefix,
// truncating the tail so later appends extend committed data.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/failpoint"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	walMagic  = "EMSJWAL1"
	snapMagic = "EMSJSNP1"
	magicLen  = 8
	// frameHeaderLen is the per-record header: payload length + CRC32.
	frameHeaderLen = 8
)

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrShortWrite, injected as the error of a journal.write failpoint, makes
// Append write only half of the frame bytes before failing — a
// deterministic torn tail, as left behind by a crash mid-write.
var ErrShortWrite = errors.New("journal: injected short write")

// fire is the journal's one failpoint site: it stalls for the injected
// delay and returns the injected error, if any.
func fire(p failpoint.Point) error {
	f := failpoint.Fire(p, nil)
	time.Sleep(f.Delay) // a zero delay returns at once
	return f.Err
}

// Options configures a journal. The zero value is production-ready.
type Options struct {
	// NoSync skips every fsync. Replay still works after a clean close, but
	// a crash may lose or tear arbitrarily much of the tail. For tests.
	NoSync bool
	// RotateBytes seals the active segment and starts a new one once it
	// exceeds this size; 0 uses the default 4 MiB. Rotation bounds the cost
	// of the truncate-on-recovery pass, compaction bounds total size.
	RotateBytes int64
	// MaxRecordBytes bounds a single record; larger appends are rejected and
	// larger on-disk length fields are treated as corruption during replay.
	// 0 uses the default 256 MiB.
	MaxRecordBytes int
}

func (o *Options) fill() {
	if o.RotateBytes <= 0 {
		o.RotateBytes = 4 << 20
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 256 << 20
	}
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Snapshot is the payload of the newest valid snapshot, nil when none
	// exists.
	Snapshot []byte
	// Records are the committed records after the snapshot, in append order.
	Records [][]byte
	// Torn reports that a torn or corrupt tail was found and dropped; the
	// journal was truncated back to the longest valid prefix.
	Torn bool
	// DroppedBytes counts the bytes discarded with the torn tail.
	DroppedBytes int64
	// SnapshotLost reports that snapshot files existed but none validated;
	// Records then replay over an empty state.
	SnapshotLost bool
}

// Journal is an open write-ahead log. All methods are safe for concurrent
// use.
type Journal struct {
	mu         sync.Mutex
	dir        string
	opts       Options
	active     *os.File
	activeIdx  uint64
	activeSize int64
	sealedSize int64 // bytes in sealed (non-active) segments
	nextIdx    uint64
	closed     bool
	// committed is the byte offset of the active segment up to which frames
	// are known fully written and synced; torn latches that a failed append
	// or sync may have left bytes past it. The pair makes one failed write
	// (ENOSPC, injected fault) fail only its own Append: the next Append
	// first rolls the segment back to committed, so the tear can never be
	// buried under later frames — which replay would then silently drop.
	committed int64
	torn      bool
}

// Open opens (or creates) the journal in dir and replays its contents. The
// returned Recovery holds the snapshot and committed records; the journal is
// positioned to append after the recovered prefix.
func Open(dir string, opts Options) (*Journal, *Recovery, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	var segs, snaps []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			_ = os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64); err == nil {
				segs = append(segs, idx)
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".bin"):
			if idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".bin"), 10, 64); err == nil {
				snaps = append(snaps, idx)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] }) // newest first

	rec := &Recovery{}
	var snapIdx uint64
	haveSnap := false
	for _, idx := range snaps {
		if data, ok := readSnapshot(snapPath(dir, idx), opts.MaxRecordBytes); ok {
			rec.Snapshot = data
			snapIdx = idx
			haveSnap = true
			break
		}
	}
	rec.SnapshotLost = len(snaps) > 0 && !haveSnap

	j := &Journal{dir: dir, opts: opts}

	// Segments older than the snapshot are superseded; drop them. Without a
	// valid snapshot every segment replays (best effort after corruption).
	live := segs[:0]
	for _, idx := range segs {
		if haveSnap && idx < snapIdx {
			_ = os.Remove(segPath(dir, idx))
			continue
		}
		live = append(live, idx)
	}
	segs = live

	for i, idx := range segs {
		path := segPath(dir, idx)
		records, valid, torn := replaySegment(path, opts.MaxRecordBytes)
		rec.Records = append(rec.Records, records...)
		if !torn {
			j.sealedSize += valid
			continue
		}
		// Torn tail: truncate this segment to its valid prefix and drop every
		// later segment — records past a tear are unreachable under the
		// fsync-on-commit discipline, and keeping them would resurrect an
		// inconsistent suffix on the next replay.
		rec.Torn = true
		if size, err := fileSize(path); err == nil {
			rec.DroppedBytes += size - valid
		}
		if err := truncateSegment(path, valid, opts.NoSync); err != nil {
			return nil, nil, err
		}
		j.sealedSize += valid
		for _, later := range segs[i+1:] {
			if size, err := fileSize(segPath(dir, later)); err == nil {
				rec.DroppedBytes += size
			}
			_ = os.Remove(segPath(dir, later))
		}
		segs = segs[:i+1]
		break
	}

	// Open (or create) the active segment: the newest surviving one, or a
	// fresh segment at the snapshot index.
	if len(segs) > 0 {
		j.activeIdx = segs[len(segs)-1]
		size, err := fileSize(segPath(dir, j.activeIdx))
		if err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		j.sealedSize -= size // the active segment is accounted separately
		f, err := os.OpenFile(segPath(dir, j.activeIdx), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		j.active = f
		j.activeSize = size
		if size < magicLen {
			// The tear ate into the segment header; rebuild it in place.
			if err := j.rewriteActiveHeader(); err != nil {
				return nil, nil, err
			}
		}
	} else {
		j.activeIdx = snapIdx
		f, size, err := createSegment(dir, j.activeIdx, opts.NoSync)
		if err != nil {
			return nil, nil, err
		}
		j.active = f
		j.activeSize = size
	}
	j.nextIdx = j.activeIdx + 1
	j.committed = j.activeSize
	return j, rec, nil
}

// rewriteActiveHeader restores the magic of an active segment whose header
// was torn. Caller guarantees the segment holds no valid records.
func (j *Journal) rewriteActiveHeader() error {
	if err := j.active.Truncate(0); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.active.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.active.WriteString(walMagic); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if !j.opts.NoSync {
		if err := j.active.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	j.activeSize = magicLen
	j.committed = magicLen
	return nil
}

// Append commits the given records: all frames are written to the active
// segment and fsynced once. On error nothing is guaranteed committed, but
// the journal stays serviceable: the failed tail is rolled back before the
// next append, so one ENOSPC or injected fault fails one Append, not the
// daemon.
func (j *Journal) Append(recs ...[]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.repairLocked(); err != nil {
		return err
	}
	var buf []byte
	for _, r := range recs {
		if len(r) > j.opts.MaxRecordBytes {
			return fmt.Errorf("journal: record of %d bytes exceeds the %d-byte bound", len(r), j.opts.MaxRecordBytes)
		}
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(r)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(r, castagnoli))
		buf = append(buf, hdr[:]...)
		buf = append(buf, r...)
	}
	if err := fire(failpoint.JournalWrite); err != nil {
		if errors.Is(err, ErrShortWrite) {
			// Injected torn tail: write only half the frame bytes, then fail.
			n, _ := j.active.Write(buf[:len(buf)/2])
			j.activeSize += int64(n)
			j.torn = j.activeSize > j.committed
			return fmt.Errorf("journal: write: %w", err)
		}
		return fmt.Errorf("journal: write: %w", err)
	}
	n, err := j.active.Write(buf)
	j.activeSize += int64(n)
	if err != nil {
		// A short or failed write may have left a partial frame on disk.
		j.torn = j.activeSize > j.committed
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := j.syncActive(); err != nil {
		// The frame hit the file but its durability is unknown; roll it back
		// on the next append rather than risk replaying past an unsynced gap.
		j.torn = true
		return err
	}
	j.committed = j.activeSize
	if j.activeSize >= j.opts.RotateBytes {
		return j.rotateLocked()
	}
	return nil
}

// repairLocked restores the append invariant after a failed write: the
// active segment is truncated back to the last committed frame boundary
// (and re-created outright after a failed rotation), so appends only ever
// extend committed data. Errors here mean the disk is still refusing
// writes; the journal stays torn and the next append retries.
func (j *Journal) repairLocked() error {
	if j.active == nil {
		// A failed rotation or compaction closed the old segment and could
		// not create the next one; retry the creation.
		f, size, err := createSegment(j.dir, j.nextIdx, j.opts.NoSync)
		if err != nil {
			return err
		}
		j.active = f
		j.activeIdx = j.nextIdx
		j.activeSize, j.committed = size, size
		j.nextIdx++
		j.torn = false
		return nil
	}
	if !j.torn {
		return nil
	}
	if err := j.active.Truncate(j.committed); err != nil {
		return fmt.Errorf("journal: repair: %w", err)
	}
	// Re-position explicitly: segments created by this process are not in
	// O_APPEND mode, and writing at a post-truncate offset would leave a
	// zero-filled hole.
	if _, err := j.active.Seek(j.committed, io.SeekStart); err != nil {
		return fmt.Errorf("journal: repair: %w", err)
	}
	if !j.opts.NoSync {
		if err := j.active.Sync(); err != nil {
			return fmt.Errorf("journal: repair: %w", err)
		}
	}
	j.activeSize = j.committed
	j.torn = false
	return nil
}

func (j *Journal) syncActive() error {
	if err := fire(failpoint.JournalSync); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	if j.opts.NoSync {
		return nil
	}
	if err := j.active.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// rotateLocked seals the active segment and starts wal-<nextIdx>. When the
// new segment cannot be created (a full disk, typically) the journal is
// left without an active segment; the next append re-attempts the creation
// via repairLocked instead of wedging.
func (j *Journal) rotateLocked() error {
	err := j.active.Close()
	j.sealedSize += j.activeSize
	j.active = nil
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	f, size, err := createSegment(j.dir, j.nextIdx, j.opts.NoSync)
	if err != nil {
		return err
	}
	j.active = f
	j.activeIdx = j.nextIdx
	j.activeSize = size
	j.committed = size
	j.torn = false
	j.nextIdx++
	return nil
}

// Compact collapses the journal into the given snapshot: the snapshot is
// written and fsynced, a fresh active segment is started, and every older
// segment and snapshot is removed. Records appended afterwards replay on top
// of the snapshot.
func (j *Journal) Compact(snapshot []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if len(snapshot) > j.opts.MaxRecordBytes {
		return fmt.Errorf("journal: snapshot of %d bytes exceeds the %d-byte bound", len(snapshot), j.opts.MaxRecordBytes)
	}
	k := j.nextIdx
	var frame [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(snapshot)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(snapshot, castagnoli))
	data := make([]byte, 0, magicLen+frameHeaderLen+len(snapshot))
	data = append(data, snapMagic...)
	data = append(data, frame[:]...)
	data = append(data, snapshot...)
	if err := writeFileAtomic(snapPath(j.dir, k), data, j.opts.NoSync); err != nil {
		return err
	}
	// The snapshot is durable; everything before it is now redundant.
	oldActive := j.activeIdx
	cerr := j.active.Close()
	j.active = nil
	j.nextIdx = k // repairLocked retries from here if the next steps fail
	if cerr != nil {
		return fmt.Errorf("journal: compact: %w", cerr)
	}
	f, size, err := createSegment(j.dir, k, j.opts.NoSync)
	if err != nil {
		return err
	}
	j.active = f
	j.activeIdx = k
	j.activeSize = size
	j.committed = size
	j.torn = false
	j.sealedSize = 0
	j.nextIdx = k + 1
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil // cleanup is best-effort
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64); err == nil && idx <= oldActive {
				_ = os.Remove(filepath.Join(j.dir, name))
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".bin"):
			if idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".bin"), 10, 64); err == nil && idx < k {
				_ = os.Remove(filepath.Join(j.dir, name))
			}
		}
	}
	return nil
}

// Size returns the total bytes of live journal segments (snapshots
// excluded) — the journal_bytes gauge of /v1/stats.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sealedSize + j.activeSize
}

// Close syncs and closes the active segment. Further operations fail with
// ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.active == nil {
		return nil // a failed rotation already closed the segment
	}
	if !j.opts.NoSync {
		if err := j.active.Sync(); err != nil {
			j.active.Close()
			return fmt.Errorf("journal: close: %w", err)
		}
	}
	if err := j.active.Close(); err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}

// WriteFileAtomic durably replaces path with data: the bytes are written to
// a temporary file, fsynced, renamed over path, and the directory synced —
// so a crash leaves either the old content or the new, never a mix. The emsd
// durability layer uses it for checkpoint and result files.
func WriteFileAtomic(path string, data []byte) error {
	return writeFileAtomic(path, data, false)
}

func writeFileAtomic(path string, data []byte, noSync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: %w", err)
	}
	if err := fire(failpoint.JournalSync); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: sync: %w", err)
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: %w", err)
	}
	if !noSync {
		syncDir(filepath.Dir(path))
	}
	return nil
}

func segPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", idx))
}

func snapPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.bin", idx))
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// createSegment creates wal-<idx>.log with its magic header, fsyncs it and
// the directory, and returns it opened for append.
func createSegment(dir string, idx uint64, noSync bool) (*os.File, int64, error) {
	if err := fire(failpoint.JournalCreate); err != nil {
		return nil, 0, fmt.Errorf("journal: create segment: %w", err)
	}
	f, err := os.OpenFile(segPath(dir, idx), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("journal: %w", err)
		}
		syncDir(dir)
	}
	return f, magicLen, nil
}

// truncateSegment cuts a torn segment back to its valid prefix.
func truncateSegment(path string, valid int64, noSync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: truncate: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(valid); err != nil {
		return fmt.Errorf("journal: truncate: %w", err)
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("journal: truncate: %w", err)
		}
	}
	return nil
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync() // advisory; not all filesystems support directory fsync
		d.Close()
	}
}

// replaySegment reads the committed records of one segment. It never fails:
// any malformed frame — short header, oversized length, short payload, bad
// checksum, or a bad segment magic — ends the replay at the longest valid
// prefix, reported via valid (the byte offset the segment should be
// truncated to) and torn.
func replaySegment(path string, maxRecord int) (records [][]byte, valid int64, torn bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, true
	}
	defer f.Close()
	r := bufio.NewReader(f)
	magic := make([]byte, magicLen)
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != walMagic {
		return nil, 0, true
	}
	valid = magicLen
	var hdr [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return records, valid, !errors.Is(err, io.EOF)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(n) > int64(maxRecord) {
			return records, valid, true
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return records, valid, true
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return records, valid, true
		}
		records = append(records, payload)
		valid += frameHeaderLen + int64(n)
	}
}

// readSnapshot validates and returns a snapshot payload; ok is false for any
// malformed file.
func readSnapshot(path string, maxRecord int) (data []byte, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	magic := make([]byte, magicLen)
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != snapMagic {
		return nil, false
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(n) > int64(maxRecord) {
		return nil, false
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, false
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, false
	}
	return payload, true
}
