package blocks

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vr"
)

// writeFuzzJournal writes the journal block b of m would commit and returns
// its bytes.
func writeFuzzJournal(f *testing.F, dir string, m *Manifest, b Block) []byte {
	f.Helper()
	out, err := synthRun(context.Background(), m, b)
	if err != nil {
		f.Fatal(err)
	}
	if err := writeBlockJournal(dir, m, b, out, "fuzz", 1.5); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(JournalPath(dir, b.ID))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzReadBlockJournal feeds arbitrary bytes to the block-journal reader
// as block 1 of a two-cell plan. The reader must never panic, and every
// error must be one of the two kinds ReadBlockJournal documents: an
// incomplete journal (wrapping ErrIncomplete, "re-run the block") or a
// committed journal from another manifest or block (a hard mismatch). A
// journal it accepts must carry exactly the block's replications.
func FuzzReadBlockJournal(f *testing.F) {
	m := testPlan(f, 2)
	setup := f.TempDir()
	if err := CreateRun(setup, m); err != nil {
		f.Fatal(err)
	}
	b := m.Blocks[1]
	good := writeFuzzJournal(f, setup, m, b)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte("{}\n"))
	// Block 0's committed journal under block 1's name: a hard mismatch.
	f.Add(writeFuzzJournal(f, setup, m, m.Blocks[0]))
	// The same block committed under another manifest: a hard mismatch.
	other := testPlan(f, 1)
	f.Add([]byte(strings.ReplaceAll(string(good), m.Hash, other.Hash)))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, journalDir), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(JournalPath(dir, b.ID), data, 0o666); err != nil {
			t.Fatal(err)
		}
		recs, tr, err := ReadBlockJournal(dir, m, b)
		if err != nil {
			msg := err.Error()
			if !errors.Is(err, ErrIncomplete) &&
				!strings.Contains(msg, "belongs to manifest") && !strings.Contains(msg, "journal trailer names") {
				t.Fatalf("error is neither incomplete nor a manifest/block mismatch: %v", err)
			}
			return
		}
		if len(recs) != b.Reps() || tr.Block != b.ID || tr.Cell != b.CellIndex ||
			tr.RepStart != b.RepStart || tr.ManifestHash != m.Hash {
			t.Fatalf("accepted journal does not commit block %d: %d records, trailer %+v", b.ID, len(recs), tr)
		}
	})
}

// FuzzLoadManifest feeds arbitrary bytes to the manifest loader. It must
// never panic, and a manifest it accepts must re-hash to its recorded Hash
// and survive a write/load round trip unchanged.
func FuzzLoadManifest(f *testing.F) {
	anti, err := Plan(vrCells(4), PlanOptions{Name: "vr", BlockSize: 2, VR: vr.ModeAntithetic})
	if err != nil {
		f.Fatal(err)
	}
	completion, err := Plan(vrCells(3), PlanOptions{Name: "job", Kind: KindCompletion, Work: 100})
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range []*Manifest{testPlan(f, 2), anti, completion} {
		dir := f.TempDir()
		if err := CreateRun(dir, m); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(ManifestPath(dir))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"kind":"estimate"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(ManifestPath(dir), data, 0o666); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(dir)
		if err != nil {
			return
		}
		if got := m.computeHash(); got != m.Hash {
			t.Fatalf("loaded manifest re-hashes to %s, records %s", got, m.Hash)
		}
		again, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ManifestPath(dir), again, 0o666); err != nil {
			t.Fatal(err)
		}
		m2, err := LoadManifest(dir)
		if err != nil {
			t.Fatalf("re-encoded manifest no longer loads: %v", err)
		}
		if m2.Hash != m.Hash {
			t.Fatalf("round trip moved the hash: %s → %s", m.Hash, m2.Hash)
		}
	})
}
