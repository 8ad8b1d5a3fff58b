package bgp

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"arachnet/internal/netsim"
)

// FuzzReadDump feeds arbitrary bytes to ReadDump. It must never panic,
// every error it returns must wrap ErrBadMagic, ErrBadVersion or
// ErrCorruptRecord, and a dump it accepts must re-encode with WriteDump
// and read back equal. The corpus starts from dumps of a generated
// update stream.
func FuzzReadDump(f *testing.F) {
	w := testWorld(f)
	start := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	var links []netsim.LinkID
	for id := range failAllLinksOfAS(w, w.ASes[len(w.ASes)-1].ASN) {
		links = append(links, id)
	}
	msgs, err := GenerateStream(NewTables(w), []FailureEvent{{At: start.Add(time.Hour), Links: links, Label: "seed"}},
		StreamConfig{
			Start: start, End: start.Add(2 * time.Hour),
			Collectors:   []netsim.ASN{w.ASes[0].ASN, w.ASes[1].ASN},
			NoisePerHour: 4, Seed: 1,
		})
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{0, 1, 3, 8} {
		var buf bytes.Buffer
		if err := WriteDump(&buf, msgs[:min(n, len(msgs))]); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("NOTADUMPFILE"))
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteDump(&buf, msgs); err != nil {
			t.Fatalf("accepted dump does not re-encode: %v", err)
		}
		again, err := ReadDump(&buf)
		if err != nil {
			t.Fatalf("re-encoded dump rejected: %v", err)
		}
		if !reflect.DeepEqual(msgs, again) {
			t.Fatalf("re-encoded dump reads back different:\n got %+v\nwant %+v", again, msgs)
		}
	})
}
