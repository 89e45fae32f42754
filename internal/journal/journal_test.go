package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/failpoint"
)

// openT opens a journal and fails the test on error.
func openT(t *testing.T, dir string, opts Options) (*Journal, *Recovery) {
	t.Helper()
	j, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j, rec
}

func record(i int) []byte { return []byte(fmt.Sprintf("record-%03d-payload", i)) }

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := openT(t, dir, Options{})
	if len(rec.Records) != 0 || rec.Snapshot != nil || rec.Torn {
		t.Fatalf("fresh journal recovered %+v", rec)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := j.Append([]byte{}, []byte("batched-1"), []byte("batched-2")); err != nil {
		t.Fatalf("batched Append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec2 := openT(t, dir, Options{})
	if got := len(rec2.Records); got != n+3 {
		t.Fatalf("recovered %d records, want %d", got, n+3)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(rec2.Records[i], record(i)) {
			t.Fatalf("record %d = %q", i, rec2.Records[i])
		}
	}
	if len(rec2.Records[n]) != 0 || string(rec2.Records[n+2]) != "batched-2" {
		t.Fatalf("batched records corrupted: %q", rec2.Records[n:])
	}
	if rec2.Torn {
		t.Fatal("clean journal reported a torn tail")
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{RotateBytes: 64})
	const n = 40
	for i := 0; i < n; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	j.Close()
	_, rec := openT(t, dir, Options{})
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(rec.Records), n)
	}
}

func TestCompactionCollapsesIntoSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{RotateBytes: 64})
	for i := 0; i < 20; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact([]byte("snapshot-state")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("compaction left %d segments, want 1", len(segs))
	}
	for i := 20; i < 25; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	_, rec := openT(t, dir, Options{})
	if string(rec.Snapshot) != "snapshot-state" {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d post-snapshot records, want 5", len(rec.Records))
	}
	for i, r := range rec.Records {
		if !bytes.Equal(r, record(20+i)) {
			t.Fatalf("post-snapshot record %d = %q", i, r)
		}
	}
}

// TestTornTailEveryByteOffset is the recovery table test: a journal truncated
// at every possible byte offset must replay without panicking and recover
// exactly the records whose frames lie entirely within the valid prefix.
func TestTornTailEveryByteOffset(t *testing.T) {
	src := t.TempDir()
	j, _ := openT(t, src, Options{})
	const n = 6
	var ends []int64 // cumulative end offset of each record's frame
	off := int64(magicLen)
	for i := 0; i < n; i++ {
		r := record(i)
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		off += frameHeaderLen + int64(len(r))
		ends = append(ends, off)
	}
	j.Close()
	seg, err := filepath.Glob(filepath.Join(src, "wal-*.log"))
	if err != nil || len(seg) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", seg, err)
	}
	full, err := os.ReadFile(seg[0])
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != off {
		t.Fatalf("segment is %d bytes, frames account for %d", len(full), off)
	}
	for cut := 0; cut <= len(full); cut++ {
		cut := cut
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		want := 0
		for _, end := range ends {
			if int64(cut) >= end {
				want++
			}
		}
		if len(rec.Records) != want {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(rec.Records), want)
		}
		for i := 0; i < want; i++ {
			if !bytes.Equal(rec.Records[i], record(i)) {
				t.Fatalf("cut=%d: record %d corrupted: %q", cut, i, rec.Records[i])
			}
		}
		atBoundary := int64(cut) == int64(magicLen)
		for _, end := range ends {
			if int64(cut) == end {
				atBoundary = true
			}
		}
		if rec.Torn == atBoundary && cut != len(full) {
			t.Fatalf("cut=%d: Torn = %v, at frame boundary = %v", cut, rec.Torn, atBoundary)
		}
		// The truncated journal must stay usable: append, reopen, verify the
		// new record lands after the recovered prefix.
		if err := j2.Append([]byte("after-tear")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		j2.Close()
		_, rec3, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if len(rec3.Records) != want+1 || string(rec3.Records[want]) != "after-tear" {
			t.Fatalf("cut=%d: after append recovered %d records", cut, len(rec3.Records))
		}
		if rec3.Torn {
			t.Fatalf("cut=%d: second replay still torn after truncation", cut)
		}
	}
}

func TestTornMiddleSegmentDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{RotateBytes: 64})
	for i := 0; i < 20; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Corrupt a byte in the middle of the second segment's records.
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[magicLen+frameHeaderLen] ^= 0xff
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, Options{})
	if !rec.Torn {
		t.Fatal("mid-journal corruption not reported as torn")
	}
	if rec.DroppedBytes == 0 {
		t.Fatal("dropped bytes not accounted")
	}
	for i, r := range rec.Records {
		if !bytes.Equal(r, record(i)) {
			t.Fatalf("prefix record %d corrupted", i)
		}
	}
	if len(rec.Records) >= 20 {
		t.Fatal("corrupt suffix was not dropped")
	}
}

func TestCorruptSnapshotIsReported(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact([]byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.bin"))
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, Options{})
	if !rec.SnapshotLost {
		t.Fatal("corrupt snapshot not reported")
	}
	if rec.Snapshot != nil {
		t.Fatal("corrupt snapshot returned as valid")
	}
	if len(rec.Records) != 1 || string(rec.Records[0]) != "tail" {
		t.Fatalf("post-snapshot records = %q", rec.Records)
	}
}

func TestFailpointSyncFailure(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	if err := j.Append(record(0)); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("disk on fire")
	restore := failpoint.Set(failpoint.JournalSync, func(any) failpoint.Fault {
		return failpoint.Fault{Err: boom}
	})
	err := j.Append(record(1))
	restore()
	if err == nil {
		t.Fatal("Append succeeded despite failing fsync")
	}
	// The first record was committed before the failure and must survive.
	j.Close()
	_, rec := openT(t, dir, Options{})
	if len(rec.Records) < 1 || !bytes.Equal(rec.Records[0], record(0)) {
		t.Fatalf("committed record lost after sync failure: %q", rec.Records)
	}
}

func TestFailpointShortWriteLeavesRecoverableTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	if err := j.Append(record(0)); err != nil {
		t.Fatal(err)
	}
	restore := failpoint.Set(failpoint.JournalWrite, func(any) failpoint.Fault {
		return failpoint.Fault{Err: ErrShortWrite}
	})
	err := j.Append(record(1))
	restore()
	if err == nil {
		t.Fatal("Append succeeded despite injected short write")
	}
	j.Close()
	j2, rec := openT(t, dir, Options{})
	if !rec.Torn {
		t.Fatal("short write did not leave a torn tail")
	}
	if len(rec.Records) != 1 || !bytes.Equal(rec.Records[0], record(0)) {
		t.Fatalf("recovered %q, want just record 0", rec.Records)
	}
	if err := j2.Append(record(2)); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	j2.Close()
	_, rec2 := openT(t, dir, Options{})
	if len(rec2.Records) != 2 || !bytes.Equal(rec2.Records[1], record(2)) {
		t.Fatalf("post-recovery append lost: %q", rec2.Records)
	}
}

// TestAppendAfterENOSPCKeepsJournalServiceable is the regression test for
// the torn-append wedge: a failed append (ENOSPC via failpoint) used to
// leave a partial frame in the active segment, and the NEXT append would
// write after the tear — replay then truncated at the tear and silently
// dropped every later committed record. The journal must instead repair the
// tail and keep committing.
func TestAppendAfterENOSPCKeepsJournalServiceable(t *testing.T) {
	enospc := fmt.Errorf("write wal: %w", syscall.ENOSPC)
	for _, tc := range []struct {
		name  string
		point failpoint.Point
		err   error
	}{
		{"write", failpoint.JournalWrite, ErrShortWrite}, // tear the frame, then fail
		{"sync", failpoint.JournalSync, enospc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := openT(t, dir, Options{})
			if err := j.Append(record(0)); err != nil {
				t.Fatal(err)
			}
			restore := failpoint.Set(tc.point, func(any) failpoint.Fault {
				return failpoint.Fault{Err: tc.err}
			})
			if err := j.Append(record(1)); err == nil {
				restore()
				t.Fatal("Append succeeded despite injected disk failure")
			}
			restore()
			// The daemon keeps serving: later appends on the SAME handle must
			// commit durably, not extend a torn tail.
			for i := 2; i <= 4; i++ {
				if err := j.Append(record(i)); err != nil {
					t.Fatalf("Append(%d) after disk failure: %v", i, err)
				}
			}
			j.Close()
			_, rec := openT(t, dir, Options{})
			want := [][]byte{record(0), record(2), record(3), record(4)}
			if len(rec.Records) != len(want) {
				t.Fatalf("recovered %d records %q, want %d", len(rec.Records), rec.Records, len(want))
			}
			for i, r := range want {
				if !bytes.Equal(rec.Records[i], r) {
					t.Fatalf("record %d = %q, want %q", i, rec.Records[i], r)
				}
			}
			if rec.Torn {
				t.Fatal("repaired journal still reports a torn tail on replay")
			}
		})
	}
}

// TestRotationFailureRecovers: when creating the next segment fails (full
// disk), the journal must not wedge — the failing append reports the error
// and a later append re-attempts the rotation.
func TestRotationFailureRecovers(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{RotateBytes: 48})
	if err := j.Append(record(0)); err != nil {
		t.Fatal(err)
	}
	// Force rotation by exceeding RotateBytes while segment creation fails.
	restore := failpoint.Set(failpoint.JournalCreate, func(any) failpoint.Fault {
		return failpoint.Fault{Err: syscall.ENOSPC}
	})
	err := j.Append(record(1))
	restore()
	if err == nil {
		t.Fatal("Append succeeded despite injected rotation failure")
	}
	for i := 2; i <= 3; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatalf("Append(%d) after failed rotation: %v", i, err)
		}
	}
	j.Close()
	_, rec := openT(t, dir, Options{})
	if len(rec.Records) != 4 {
		t.Fatalf("recovered %d records %q, want 4", len(rec.Records), rec.Records)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("read back %q, %v", data, err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temporary files left behind: %v", tmps)
	}
}

func TestSizeTracksLiveSegments(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{RotateBytes: 64})
	if j.Size() != magicLen {
		t.Fatalf("fresh journal size = %d", j.Size())
	}
	for i := 0; i < 20; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	grown := j.Size()
	if grown <= magicLen {
		t.Fatalf("size did not grow: %d", grown)
	}
	if err := j.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if j.Size() >= grown {
		t.Fatalf("compaction did not shrink size: %d -> %d", grown, j.Size())
	}
}
