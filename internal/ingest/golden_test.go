package ingest

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The files under testdata/golden pin the wire and disk formats byte for
// byte: every sampleFrames() frame encoded back to back, one journal
// segment written by a fixed record sequence, and the checkpoint segment
// its replay compacts to. A codec change that moves a byte fails here,
// before a peer or a journal directory written by another build sees it.
const goldenDir = "testdata/golden"

// goldenFrames encodes every sampleFrames() frame back to back.
func goldenFrames(t *testing.T) []byte {
	t.Helper()
	var out []byte
	for _, f := range sampleFrames() {
		var err error
		if out, err = AppendFrame(out, f); err != nil {
			t.Fatalf("%v: encode: %v", f.Type, err)
		}
	}
	return out
}

// writeGoldenJournal appends the fixed record sequence to a fresh journal
// in dir: admits, snapshots with and without state, a detach, a
// superseding snapshot, and a session that admits and finishes.
func writeGoldenJournal(t *testing.T, dir string) {
	t.Helper()
	j, _ := openTestJournal(t, dir, JournalConfig{SyncMode: JournalSyncNone})
	j.Admit("print-1", "plant-berlin", "a1b2c3d4e5f6", 7, testSpecs())
	j.Admit("print-2", "", "", 0, testSpecs()[:1])
	j.Snapshot("print-1", []uint64{400, 200}, []byte("state-v1"))
	j.Snapshot("print-2", []uint64{1200}, nil)
	j.Detach("print-1")
	j.Snapshot("print-1", []uint64{800, 400}, []byte("state-v2-longer"))
	j.Admit("print-3", "acme", "", 1, testSpecs())
	j.Finish("print-3")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	if want := readGolden(t, name); !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding moved:\n got %x\nwant %x", name, got, want)
	}
}

func TestCodecGoldenBytes(t *testing.T) {
	t.Run("frames", func(t *testing.T) {
		checkGolden(t, "frames.bin", goldenFrames(t))
		r := bytes.NewReader(readGolden(t, "frames.bin"))
		for _, f := range sampleFrames() {
			got, err := ReadFrame(r)
			if err != nil {
				t.Fatalf("%v: decode: %v", f.Type, err)
			}
			if len(f.Values) == 0 {
				f.Values = got.Values // an empty slice decodes to its canonical form
			}
			if !reflect.DeepEqual(got, f) {
				t.Fatalf("%v: decoded\n %+v\nwant %+v", f.Type, got, f)
			}
		}
	})

	t.Run("journal", func(t *testing.T) {
		dir := t.TempDir()
		writeGoldenJournal(t, dir)
		_, records := tailSegment(t, dir)
		checkGolden(t, "journal.wal", records)

		// Replay the committed segment, not the one just written: the
		// images it yields and the checkpoint it compacts to are pinned too.
		replay := t.TempDir()
		if err := os.WriteFile(filepath.Join(replay, "journal-00000000.wal"), readGolden(t, "journal.wal"), 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec := openTestJournal(t, replay, JournalConfig{SyncMode: JournalSyncNone})
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		_, checkpoint := tailSegment(t, replay)
		checkGolden(t, "checkpoint.wal", checkpoint)

		// Identity and commit points per image; each image's state is in
		// the checkpoint bytes, which re-emit its latest snapshot.
		want := []struct {
			id, tenant, model string
			priority          int
			channels          []ChannelSpec
			committed         []uint64
		}{
			{"print-1", "plant-berlin", "a1b2c3d4e5f6", 7, testSpecs(), []uint64{800, 400}},
			{"print-2", "", "", 0, testSpecs()[:1], []uint64{1200}},
		}
		if len(rec) != len(want) {
			t.Fatalf("replay recovered %d images, want %d", len(rec), len(want))
		}
		for i, w := range want {
			got := rec[i]
			if got.SessionID != w.id || got.Tenant != w.tenant || got.Model != w.model || got.Priority != w.priority ||
				!reflect.DeepEqual(got.Channels, w.channels) || !reflect.DeepEqual(got.Committed, w.committed) {
				t.Fatalf("image %d: %+v, want %+v", i, got, w)
			}
		}
	})
}
