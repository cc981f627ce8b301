// Package xmldb is the paper's Probabilistic Spatial XML Database: named
// collections of probabilistic XML records, each carrying a certainty
// factor assigned by the data-integration service and an optional indexed
// geographic location. A small XQuery-like language (query.go) supports
// the topk/score queries of the paper's QA scenario plus spatial
// predicates backed by an R-tree.
package xmldb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/pxml"
	"repro/internal/uncertain"
)

// Record is one stored probabilistic document.
//
// Records handed out by Get/Each, by Tx reads and in a Batch's change
// set are immutable snapshots: Tx.Update replaces the stored *Record
// rather than mutating it, so a pointer obtained under the lock stays
// safe to read after the lock is released. Callers must not mutate a
// returned record or its document; to change a record, Clone its Doc
// and call Tx.Update inside a Batch, which commits it as a new version.
type Record struct {
	ID int64
	// Doc is the probabilistic XML tree; its root tag is the record type.
	Doc *pxml.Node
	// Certainty is the integration-assigned confidence in the record as a
	// whole ("The information contained in this DB is assigned to some
	// certainty factor", paper §Modules).
	Certainty uncertain.CF
	// Location is the record's resolved position, if any; indexed.
	Location *geo.Point
	// Updated is the last modification time.
	Updated time.Time
}

// Collection is a named set of records with a spatial index.
type Collection struct {
	name    string
	records map[int64]*Record
	order   []int64 // insertion order for deterministic scans
	spatial *geo.RTree[int64]
}

// DB is the database: a set of collections. All methods are safe for
// concurrent use.
type DB struct {
	mu          sync.RWMutex
	collections map[string]*Collection
	nextID      int64
	// idStride is the increment between assigned record IDs (default 1).
	// A sharded deployment gives each shard a distinct residue class
	// (SetIDSequence), so IDs stay globally unique across shards and a
	// record's shard is recoverable from its ID alone.
	idStride int64
	clock    func() time.Time
	// version counts committed batches: Batch bumps it once, still under
	// the write lock, for every batch that wrote anything (Restore's
	// swap is a batch too). It is the database's cache-invalidation
	// spine: any reader that records the version before a query and
	// re-checks it later can tell whether the data the query saw may
	// have changed, and a reader that observes version v is guaranteed
	// to see every write of the batches that produced v once it
	// acquires the read lock.
	version atomic.Int64
	// locDrift counts updates that changed where a record IS relative to
	// where it LIVES: a record gains a location or its coordinates move,
	// while its home shard (fixed at insert) stays put. While it is zero,
	// "a located record within region R lives on a shard that routes
	// region R" holds, and the read path may narrow spatial cache plans
	// and geofenced subscriptions to the covering shards; once it moves,
	// that inference is unsound and the read path degrades to
	// whole-store invalidation. See shard.Store.Drift.
	locDrift atomic.Int64
}

// New returns an empty database.
func New() *DB {
	return &DB{
		collections: make(map[string]*Collection),
		nextID:      1,
		idStride:    1,
		clock:       time.Now,
	}
}

// SetIDSequence makes the database assign record IDs start, start+stride,
// start+2*stride, … instead of the default 1, 2, 3, …. It must be called
// before any record exists: re-seeding a live sequence could re-issue an
// ID. Shard i of an n-shard store uses SetIDSequence(i+1, n), giving every
// shard a disjoint residue class modulo n.
func (db *DB) SetIDSequence(start, stride int64) error {
	if start < 1 || stride < 1 {
		return fmt.Errorf("xmldb: invalid ID sequence (start %d, stride %d)", start, stride)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for name, c := range db.collections {
		if len(c.records) > 0 {
			return fmt.Errorf("xmldb: cannot re-seed ID sequence: collection %q is not empty", name)
		}
	}
	db.nextID = start
	db.idStride = stride
	return nil
}

// AlignIDSequence moves the ID sequence forward onto the residue class
// start mod stride — the smallest value >= the current next ID that the
// sequence start, start+stride, start+2*stride, … contains. Unlike
// SetIDSequence it is valid on a populated database, because it only ever
// skips IDs, never re-issues one; the restore path uses it to re-align a
// shard's sequence after Restore has set the next ID past the restored
// records.
func (db *DB) AlignIDSequence(start, stride int64) error {
	if start < 1 || stride < 1 {
		return fmt.Errorf("xmldb: invalid ID sequence (start %d, stride %d)", start, stride)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	next := start
	if db.nextID > start {
		steps := (db.nextID - start + stride - 1) / stride
		next = start + steps*stride
	}
	db.nextID = next
	db.idStride = stride
	return nil
}

// NextID returns the next record ID the database would assign — IDs
// strictly below it (on this database's residue class) have been
// allocated at some point, so a missing smaller ID names a record that
// existed and was deleted, while an ID at or past it was never issued.
// The feedback subsystem uses this to tell a stale answer from a bogus
// record reference.
func (db *DB) NextID() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nextID
}

// SetClock overrides the timestamp source (tests).
func (db *DB) SetClock(clock func() time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.clock = clock
}

// Collections returns the collection names, sorted.
func (db *DB) Collections() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.collectionNamesLocked()
}

// Collections is Tx's form of DB.Collections.
func (tx *Tx) Collections() []string {
	return tx.db.collectionNamesLocked()
}

// Tx is a view of the database inside a Batch call: the database lock is
// held once for the whole batch, so a run of reads and writes executes
// atomically and amortizes lock acquisition across the batch. Tx is the
// only way to mutate a database. A Tx must not escape its Batch
// function, and Batch must not be nested or call the locking DB methods
// (the lock is not reentrant).
type Tx struct {
	db *DB
	// dirty is set before a write first touches state, so a write that
	// fails partway still makes Batch bump the version.
	dirty   bool
	changes []Change
}

// Op names the kind of write a Change records.
type Op string

// Write kinds.
const (
	OpInsert Op = "insert"
	OpUpdate Op = "update"
	OpDelete Op = "delete"
)

// Change is one successful write of a batch, in the order the batch
// made it.
type Change struct {
	Op         Op
	Collection string
	// Record is the committed snapshot: the inserted or updated record,
	// or the deleted record's last state. It is immutable like every
	// record the database hands out.
	Record *Record
}

// Batch runs fn with the database exclusively locked, giving it an
// atomic, amortized view for multi-record work — the data-integration
// service's find-duplicate-then-update sequences, the feedback engine's
// verdict applies and Restore's swap. It is the database's one commit
// point: if fn wrote anything, the version moves by exactly one, still
// under the lock, so a reader that sees the new version also sees every
// write of the batch. Batch returns the batch's successful writes in
// order once the lock is released; a commit hook built from them can
// never announce state a reader cannot see.
//
// The error from fn is returned verbatim; there is no rollback, so fn is
// responsible for leaving the database consistent on error. Writes made
// before the error stay committed and are in the change set.
func (db *DB) Batch(fn func(*Tx) error) ([]Change, error) {
	tx := &Tx{db: db}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Deferred so a panicking fn that already touched state still
	// invalidates; defers run last-in first-out, so the bump lands
	// before the unlock.
	defer func() {
		if tx.dirty {
			db.version.Add(1)
		}
	}()
	err := fn(tx)
	return tx.changes, err
}

// touch marks the batch dirty. Every Tx write calls it before its first
// change to database state.
func (tx *Tx) touch() { tx.dirty = true }

// record appends one successful write to the change set.
func (tx *Tx) record(op Op, collection string, rec *Record) {
	tx.changes = append(tx.changes, Change{Op: op, Collection: collection, Record: rec})
}

// collection returns the named collection, creating it when missing.
func (tx *Tx) collection(name string) *Collection {
	c, ok := tx.db.collections[name]
	if !ok {
		tx.touch()
		c = &Collection{
			name:    name,
			records: make(map[int64]*Record),
			spatial: geo.NewRTree[int64](),
		}
		tx.db.collections[name] = c
	}
	return c
}

// Insert stores a document in the named collection and returns its record.
func (tx *Tx) Insert(collection string, doc *pxml.Node, certainty uncertain.CF, loc *geo.Point) (*Record, error) {
	if collection == "" {
		return nil, fmt.Errorf("xmldb: empty collection name")
	}
	if doc == nil {
		return nil, fmt.Errorf("xmldb: nil document")
	}
	if err := doc.Validate(); err != nil {
		return nil, fmt.Errorf("xmldb: %w", err)
	}
	if err := certainty.Validate(); err != nil {
		return nil, fmt.Errorf("xmldb: %w", err)
	}
	if loc != nil {
		if err := loc.Validate(); err != nil {
			return nil, fmt.Errorf("xmldb: %w", err)
		}
	}
	db := tx.db
	tx.touch()
	c := tx.collection(collection)
	rec := &Record{
		ID:        db.nextID,
		Doc:       doc,
		Certainty: certainty,
		Updated:   db.clock(),
	}
	db.nextID += db.idStride
	if loc != nil {
		p := *loc
		rec.Location = &p
		if err := c.spatial.Insert(geo.BBoxOf(p), rec.ID); err != nil {
			return nil, fmt.Errorf("xmldb: spatial index: %w", err)
		}
	}
	c.records[rec.ID] = rec
	c.order = append(c.order, rec.ID)
	tx.record(OpInsert, collection, rec)
	return rec, nil
}

// Update replaces a record's document and certainty (and location when
// newLoc is non-nil). The record must exist. The stored record is
// replaced, not mutated, so previously returned records remain valid
// read-only snapshots.
func (tx *Tx) Update(collection string, id int64, doc *pxml.Node, certainty uncertain.CF, newLoc *geo.Point) error {
	if doc == nil {
		return fmt.Errorf("xmldb: nil document")
	}
	if err := doc.Validate(); err != nil {
		return fmt.Errorf("xmldb: %w", err)
	}
	if err := certainty.Validate(); err != nil {
		return fmt.Errorf("xmldb: %w", err)
	}
	if newLoc != nil {
		if err := newLoc.Validate(); err != nil {
			return fmt.Errorf("xmldb: %w", err)
		}
	}
	db := tx.db
	c, ok := db.collections[collection]
	if !ok {
		return fmt.Errorf("xmldb: collection %q not found", collection)
	}
	rec, ok := c.records[id]
	if !ok {
		return fmt.Errorf("xmldb: record %d not found in %q", id, collection)
	}
	next := &Record{
		ID:        id,
		Doc:       doc,
		Certainty: certainty,
		Location:  rec.Location,
		Updated:   db.clock(),
	}
	tx.touch()
	if newLoc != nil {
		if rec.Location != nil {
			c.spatial.Delete(geo.BBoxOf(*rec.Location), rec.ID)
		}
		p := *newLoc
		next.Location = &p
		if err := c.spatial.Insert(geo.BBoxOf(p), rec.ID); err != nil {
			return fmt.Errorf("xmldb: spatial index: %w", err)
		}
		if rec.Location == nil || *rec.Location != p {
			db.locDrift.Add(1)
		}
	}
	c.records[id] = next
	tx.record(OpUpdate, collection, next)
	return nil
}

// Delete removes a record.
func (tx *Tx) Delete(collection string, id int64) error {
	c, ok := tx.db.collections[collection]
	if !ok {
		return fmt.Errorf("xmldb: collection %q not found", collection)
	}
	rec, ok := c.records[id]
	if !ok {
		return fmt.Errorf("xmldb: record %d not found in %q", id, collection)
	}
	tx.touch()
	if rec.Location != nil {
		c.spatial.Delete(geo.BBoxOf(*rec.Location), rec.ID)
	}
	delete(c.records, id)
	for i, oid := range c.order {
		if oid == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	tx.record(OpDelete, collection, rec)
	return nil
}

// Version returns the database's commit counter: a monotonic value that
// moves by one for every Batch that wrote anything — integration
// batches, certainty decay, feedback applies and Restore alike. Reading
// it is one atomic load; it never blocks on the database lock.
func (db *DB) Version() int64 { return db.version.Load() }

// LocationDrift returns the count of updates that gave a record a
// location or moved its coordinates — see the locDrift field.
func (db *DB) LocationDrift() int64 { return db.locDrift.Load() }

// Get returns the record with the given ID from a collection.
func (db *DB) Get(collection string, id int64) (*Record, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.getLocked(collection, id)
}

// Get is Tx's form of DB.Get.
func (tx *Tx) Get(collection string, id int64) (*Record, bool) {
	return tx.db.getLocked(collection, id)
}

func (db *DB) getLocked(collection string, id int64) (*Record, bool) {
	c, ok := db.collections[collection]
	if !ok {
		return nil, false
	}
	r, ok := c.records[id]
	return r, ok
}

// Len returns the number of records in a collection.
func (db *DB) Len(collection string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lenLocked(collection)
}

// Len is Tx's form of DB.Len.
func (tx *Tx) Len(collection string) int {
	return tx.db.lenLocked(collection)
}

func (db *DB) lenLocked(collection string) int {
	c, ok := db.collections[collection]
	if !ok {
		return 0
	}
	return len(c.records)
}

// Each visits a collection's records in insertion order until fn returns
// false. The callback must not mutate the database.
func (db *DB) Each(collection string, fn func(*Record) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.eachLocked(collection, fn)
}

// Each is Tx's form of DB.Each. Unlike DB.Each, the callback runs under
// the batch's write lock and may stage IDs for later Tx writes, but must
// not call Tx write methods while iterating.
func (tx *Tx) Each(collection string, fn func(*Record) bool) {
	tx.db.eachLocked(collection, fn)
}

func (db *DB) eachLocked(collection string, fn func(*Record) bool) {
	c, ok := db.collections[collection]
	if !ok {
		return
	}
	for _, id := range c.order {
		if !fn(c.records[id]) {
			return
		}
	}
}

// Near returns the IDs of records within radiusMeters of p, nearest first.
func (db *DB) Near(collection string, p geo.Point, radiusMeters float64) []int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nearLocked(collection, p, radiusMeters)
}

// Near is Tx's form of DB.Near.
func (tx *Tx) Near(collection string, p geo.Point, radiusMeters float64) []int64 {
	return tx.db.nearLocked(collection, p, radiusMeters)
}

func (db *DB) nearLocked(collection string, p geo.Point, radiusMeters float64) []int64 {
	c, ok := db.collections[collection]
	if !ok {
		return nil
	}
	ns := c.spatial.Within(p, radiusMeters)
	out := make([]int64, len(ns))
	for i, n := range ns {
		out[i] = n.Value
	}
	return out
}
