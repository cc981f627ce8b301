package xmldb

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/pxml"
	"repro/internal/uncertain"
)

func batchDoc(name string) *pxml.Node {
	return pxml.Elem("Hotel", pxml.ElemText("Hotel_Name", name))
}

// insert, update and del run one write as a batch of its own.
func insert(db *DB, coll string, doc *pxml.Node, cf uncertain.CF, loc *geo.Point) (*Record, error) {
	var rec *Record
	_, err := db.Batch(func(tx *Tx) error {
		var err error
		rec, err = tx.Insert(coll, doc, cf, loc)
		return err
	})
	return rec, err
}

func update(db *DB, coll string, id int64, doc *pxml.Node, cf uncertain.CF, loc *geo.Point) error {
	_, err := db.Batch(func(tx *Tx) error { return tx.Update(coll, id, doc, cf, loc) })
	return err
}

func del(db *DB, coll string, id int64) error {
	_, err := db.Batch(func(tx *Tx) error { return tx.Delete(coll, id) })
	return err
}

// TestBatchCommitsOnce pins the commit rule: Batch is the one place the
// version moves, once per batch that wrote anything, and the bump is
// visible to every reader that sees the batch's writes.
func TestBatchCommitsOnce(t *testing.T) {
	db := New()
	moved := func(t *testing.T, want int64, fn func(*Tx) error) []Change {
		t.Helper()
		before := db.Version()
		changes, _ := db.Batch(fn)
		if got := db.Version() - before; got != want {
			t.Fatalf("version moved by %d, want %d", got, want)
		}
		return changes
	}

	t.Run("many writes bump once", func(t *testing.T) {
		berlin := geo.Point{Lat: 52.52, Lon: 13.405}
		changes := moved(t, 1, func(tx *Tx) error {
			a, err := tx.Insert("Hotels", batchDoc("A"), 0.5, &berlin)
			if err != nil {
				return err
			}
			b, err := tx.Insert("Hotels", batchDoc("B"), 0.5, nil)
			if err != nil {
				return err
			}
			if err := tx.Update("Hotels", a.ID, batchDoc("A2"), 0.7, nil); err != nil {
				return err
			}
			return tx.Delete("Hotels", b.ID)
		})
		want := []Op{OpInsert, OpInsert, OpUpdate, OpDelete}
		if len(changes) != len(want) {
			t.Fatalf("change set has %d entries, want %d", len(changes), len(want))
		}
		for i, c := range changes {
			if c.Op != want[i] || c.Collection != "Hotels" || c.Record == nil {
				t.Fatalf("change %d = %+v, want op %s on Hotels", i, c, want[i])
			}
		}
		if n, _ := changes[2].Record.Doc.FirstChild("Hotel_Name"); n.TextContent() != "A2" {
			t.Fatalf("update change carries %q, want the committed A2", n.TextContent())
		}
	})

	t.Run("read-only batch does not bump", func(t *testing.T) {
		changes := moved(t, 0, func(tx *Tx) error {
			tx.Each("Hotels", func(*Record) bool { return true })
			_ = tx.Len("Hotels")
			_ = tx.Near("Hotels", geo.Point{Lat: 52.52, Lon: 13.405}, 1000)
			return nil
		})
		if len(changes) != 0 {
			t.Fatalf("read-only batch returned %d changes", len(changes))
		}
	})

	t.Run("failed writes before any change do not bump", func(t *testing.T) {
		moved(t, 0, func(tx *Tx) error {
			if _, err := tx.Insert("Hotels", nil, 0.5, nil); err == nil {
				t.Error("nil document accepted")
			}
			if err := tx.Delete("Hotels", 999); err == nil {
				t.Error("delete of a missing record accepted")
			}
			return tx.Update("Nope", 1, batchDoc("X"), 0.5, nil)
		})
	})

	t.Run("failure after a partial mutation still bumps", func(t *testing.T) {
		wantErr := fmt.Errorf("boom")
		changes := moved(t, 1, func(tx *Tx) error {
			if _, err := tx.Insert("Hotels", batchDoc("C"), 0.5, nil); err != nil {
				return err
			}
			return wantErr
		})
		if len(changes) != 1 || changes[0].Op != OpInsert {
			t.Fatalf("change set = %+v, want the one committed insert", changes)
		}
		// A write that fails after touching state marks the batch dirty
		// on its own, with no successful write beside it.
		moved(t, 1, func(tx *Tx) error {
			tx.collection("Empty")
			return wantErr
		})
	})

	t.Run("restore bumps", func(t *testing.T) {
		var buf bytes.Buffer
		if err := db.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		before := db.Version()
		if err := New().Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if err := db.Restore(&buf); err != nil {
			t.Fatal(err)
		}
		if got := db.Version() - before; got != 1 {
			t.Fatalf("restore moved the version by %d, want 1", got)
		}
	})

	// The bump lands before the unlock: a reader holding the read lock
	// never sees a batch's write without its version. Each batch inserts
	// one record, so under the read lock the record count and the
	// version must agree.
	t.Run("bump is visible with the writes", func(t *testing.T) {
		// The readers must run beside the writer, not just between its
		// batches, to land in the gap a late bump would leave.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
		db := New()
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					db.mu.RLock()
					n, v := int64(db.lenLocked("Hotels")), db.Version()
					db.mu.RUnlock()
					if n != v {
						t.Errorf("reader saw %d records at version %d", n, v)
						return
					}
				}
			}()
		}
		for i := 0; i < 20000 && !t.Failed(); i++ {
			if _, err := insert(db, "Hotels", batchDoc("H"), 0.5, nil); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
	})
}

func TestBatchAtomicInsertUpdate(t *testing.T) {
	db := New()
	var id int64
	_, err := db.Batch(func(tx *Tx) error {
		rec, err := tx.Insert("Hotels", batchDoc("Axel"), 0.5, nil)
		if err != nil {
			return err
		}
		id = rec.ID
		if got := tx.Len("Hotels"); got != 1 {
			return fmt.Errorf("Len inside batch = %d, want 1", got)
		}
		return tx.Update("Hotels", id, batchDoc("Axel Hotel"), 0.7, nil)
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	rec, ok := db.Get("Hotels", id)
	if !ok {
		t.Fatalf("record %d missing after batch", id)
	}
	if got, _ := rec.Doc.FirstChild("Hotel_Name"); got.TextContent() != "Axel Hotel" {
		t.Fatalf("Hotel_Name = %q, want %q", got.TextContent(), "Axel Hotel")
	}
	if float64(rec.Certainty) != 0.7 {
		t.Fatalf("Certainty = %v, want 0.7", rec.Certainty)
	}
}

func TestBatchErrorPropagates(t *testing.T) {
	db := New()
	wantErr := fmt.Errorf("boom")
	if _, err := db.Batch(func(tx *Tx) error { return wantErr }); err != wantErr {
		t.Fatalf("Batch error = %v, want %v", err, wantErr)
	}
}

// Update must replace the stored record, not mutate it, so a record
// pointer read before the update remains a stable snapshot — this is what
// makes concurrent readers safe while the integration batcher writes.
func TestUpdateIsCopyOnWrite(t *testing.T) {
	db := New()
	rec, err := insert(db, "Hotels", batchDoc("Axel"), 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := db.Get("Hotels", rec.ID)
	if err := update(db, "Hotels", rec.ID, batchDoc("Movenpick"), 0.9, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := before.Doc.FirstChild("Hotel_Name"); got.TextContent() != "Axel" {
		t.Fatalf("old snapshot mutated: Hotel_Name = %q", got.TextContent())
	}
	if float64(before.Certainty) != 0.5 {
		t.Fatalf("old snapshot mutated: Certainty = %v", before.Certainty)
	}
	after, _ := db.Get("Hotels", rec.ID)
	if got, _ := after.Doc.FirstChild("Hotel_Name"); got.TextContent() != "Movenpick" {
		t.Fatalf("update lost: Hotel_Name = %q", got.TextContent())
	}
}

// Readers holding record snapshots race-free against concurrent updates:
// run with -race.
func TestConcurrentReadersDuringUpdates(t *testing.T) {
	db := New()
	rec, err := insert(db, "Hotels", batchDoc("Axel"), 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, ok := db.Get("Hotels", rec.ID)
				if !ok {
					t.Error("record vanished")
					return
				}
				if n, _ := r.Doc.FirstChild("Hotel_Name"); n.TextContent() == "" {
					t.Error("empty name")
					return
				}
				db.Each("Hotels", func(r *Record) bool { _ = r.Certainty; return true })
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := update(db, "Hotels", rec.ID, batchDoc(fmt.Sprintf("Hotel %d", i)), 0.6, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
