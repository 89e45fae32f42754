package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpoint checks the checkpoint decoder: UnmarshalBinary must never
// panic, must reject malformed input with ErrCorruptCheckpoint, and every
// input it accepts must marshal back to the same bytes. Each input is also
// tried with its CRC recomputed, so mutations reach the structural checks
// behind the checksum instead of stopping at it.
func FuzzCheckpoint(f *testing.F) {
	g1, g2 := procgenGraphs(f, 7, 12, 40)
	for _, cfg := range []Config{DefaultConfig(), fastConfig()} {
		var data []byte
		cfg.OnRound = func(b *RoundBoundary) {
			if b.Round == 2 {
				var err error
				if data, err = b.Checkpoint().MarshalBinary(); err != nil {
					f.Fatal(err)
				}
			}
		}
		if _, err := Compute(g1, g2, cfg); err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, name := range []string{"checkpoint_freeze_table_round2.bin", "checkpoint_ratio_trailer_round2.bin"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data)
		if len(data) >= 4 {
			body := data[: len(data)-4 : len(data)-4]
			roundTrip(t, binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, ckpCRCTable)))
		}
	})
}

// roundTrip decodes data and, when it is accepted, requires MarshalBinary
// to reproduce it byte for byte.
func roundTrip(t *testing.T, data []byte) {
	var cp Checkpoint
	if err := cp.UnmarshalBinary(data); err != nil {
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("rejection %v does not wrap ErrCorruptCheckpoint", err)
		}
		return
	}
	out, err := cp.MarshalBinary()
	if err != nil {
		t.Fatalf("accepted checkpoint does not marshal: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("accepted checkpoint marshals to %d different bytes (input %d)", len(out), len(data))
	}
}
