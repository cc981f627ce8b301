package shard

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/pxml"
)

func snapshotDoc(t *testing.T, name, city string) *pxml.Node {
	t.Helper()
	doc, err := pxml.Unmarshal(fmt.Sprintf("<Hotel><Hotel_Name>%s</Hotel_Name><City>%s</City></Hotel>", name, city))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSnapshotRestoreRoundTrip: every record lands back on its original
// shard with its ID, and re-snapshotting the restored store reproduces
// the stream byte-for-byte.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s, err := New(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	cities := []struct {
		name string
		lat  float64
		lon  float64
	}{
		{"Berlin", 52.52, 13.40},
		{"Paris", 48.85, 2.35},
		{"Nairobi", -1.29, 36.82},
		{"Tokyo", 35.68, 139.69},
		{"Lagos", 6.52, 3.37},
	}
	for i, c := range cities {
		p, err := geo.NewPoint(c.lat, c.lon)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := insert(s, "Hotels", snapshotDoc(t, fmt.Sprintf("Hotel %d", i), c.name), 0.8, &p); err != nil {
			t.Fatal(err)
		}
	}

	var img bytes.Buffer
	if err := s.Snapshot(&img); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	fresh, err := New(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := fmt.Sprint(fresh.Balance()), fmt.Sprint(s.Balance()); got != want {
		t.Fatalf("balance %s, want %s", got, want)
	}

	var again bytes.Buffer
	if err := fresh.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), img.Bytes()) {
		t.Error("re-snapshot of restored store is not byte-identical")
	}
}

// TestRestoreRejectsBareSnapshot: a stream without the sectioned header
// — such as a bare xmldb snapshot — is refused, and the one-shard store
// it was aimed at keeps its contents.
func TestRestoreRejectsBareSnapshot(t *testing.T) {
	src, err := New(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insert(src, "Hotels", snapshotDoc(t, "Axel Hotel", "Berlin"), 0.8, nil); err != nil {
		t.Fatal(err)
	}
	var bare bytes.Buffer
	if err := src.Shard(0).Snapshot(&bare); err != nil {
		t.Fatal(err)
	}

	dst, err := New(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insert(dst, "Hotels", snapshotDoc(t, "Movenpick Hotel", "Berlin"), 0.9, nil); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := dst.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(bytes.NewReader(bare.Bytes())); err == nil {
		t.Fatal("bare snapshot accepted")
	}
	var after bytes.Buffer
	if err := dst.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), before.Bytes()) {
		t.Error("rejected restore changed the store")
	}
}

// TestRestoreValidation: mismatched shard counts and corrupt sections are
// refused without touching the store.
func TestRestoreValidation(t *testing.T) {
	src, err := New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insert(src, "Hotels", snapshotDoc(t, "Axel Hotel", "Berlin"), 0.8, nil); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := src.Snapshot(&img); err != nil {
		t.Fatal(err)
	}

	dst, err := New(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(bytes.NewReader(img.Bytes())); err == nil {
		t.Error("3-shard store accepted a 2-shard snapshot")
	}

	populated, err := New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insert(populated, "Hotels", snapshotDoc(t, "Movenpick Hotel", "Berlin"), 0.9, nil); err != nil {
		t.Fatal(err)
	}
	before := populated.Len("Hotels")
	// Truncate the stream mid-section: validation must fail and leave the
	// populated store exactly as it was.
	corrupt := img.Bytes()[:img.Len()-10]
	if err := populated.Restore(bytes.NewReader(corrupt)); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if populated.Len("Hotels") != before {
		t.Errorf("failed restore mutated the store: %d records, want %d", populated.Len("Hotels"), before)
	}

	if err := populated.Restore(strings.NewReader("not a snapshot\n")); err == nil {
		t.Error("garbage stream accepted")
	}
}
