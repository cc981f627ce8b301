// Golden testdata for versionbump: a miniature of the real xmldb
// surface. Field names (collections/records/order/spatial/version), the
// Tx type and its touch method mirror the production package.
package xmldb

import (
	"errors"
	"sync"
	"sync/atomic"
)

type Index struct{}

func (ix *Index) Insert(id int64) error { return nil }
func (ix *Index) Delete(id int64)       {}
func (ix *Index) Within(id int64) bool  { return false }

type Collection struct {
	records map[int64]int
	order   []int64
	spatial *Index
}

type DB struct {
	mu          sync.RWMutex
	collections map[string]*Collection
	version     atomic.Int64
}

type Tx struct {
	db    *DB
	dirty bool
}

// Batch is the commit point: it builds the Tx and bumps once if dirty.
func (db *DB) Batch(fn func(*Tx) error) error {
	tx := &Tx{db: db}
	db.mu.Lock()
	defer db.mu.Unlock()
	defer func() {
		if tx.dirty {
			db.version.Add(1)
		}
	}()
	return fn(tx)
}

func (tx *Tx) touch() { tx.dirty = true }

// Insert is the canonical clean write: validate, touch, mutate.
func (tx *Tx) Insert(name string, id int64) error {
	c, ok := tx.db.collections[name]
	if !ok {
		return errors.New("no collection") // nothing mutated yet
	}
	tx.touch()
	c.records[id] = 1
	c.order = append(c.order, id)
	return c.spatial.Insert(id)
}

// Delete mutates before marking the batch dirty.
func (tx *Tx) Delete(name string, id int64) {
	c := tx.db.collections[name]
	delete(c.records, id) // want `Tx write mutates store state before tx\.touch\(\) marks the batch dirty`
	tx.touch()
	c.spatial.Delete(id)
}

// Forget never marks the batch dirty.
func (tx *Tx) Forget(name string) {
	tx.db.collections[name] = nil // want `Tx write mutates store state before tx\.touch\(\) marks the batch dirty`
}

// Within is a read; reads need no touch.
func (tx *Tx) Within(name string, id int64) bool {
	return tx.db.collections[name].spatial.Within(id)
}

// Clear bypasses Batch: a locked mutation with no commit point.
func (db *DB) Clear(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.collections[name].order = nil       // want `store state mutated outside a Tx method`
	db.collections[name].spatial.Delete(1) // want `store state mutated outside a Tx method`
}

// Bump moves the version outside the commit point.
func (db *DB) Bump() {
	db.version.Add(1) // want `version written outside Batch`
}

// Sneak builds a Tx that no Batch will commit.
func (db *DB) Sneak() *Tx {
	return &Tx{db: db} // want `xmldb\.Tx built outside Batch`
}

// Version is a read of the counter.
func (db *DB) Version() int64 { return db.version.Load() }
