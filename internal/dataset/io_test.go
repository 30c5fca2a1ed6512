package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func TestActionsTSVRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.EventsPerDay = 200
	d := mustGenerate(t, cfg)
	want := d.AllActions()

	var buf bytes.Buffer
	if err := WriteActions(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadActions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip lost actions: %d vs %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		g := got[i]
		// Timestamps round to milliseconds in the TSV encoding.
		if g.UserID != w.UserID || g.VideoID != w.VideoID || g.Type != w.Type ||
			g.Timestamp.UnixMilli() != w.Timestamp.UnixMilli() ||
			g.ViewTime.Milliseconds() != w.ViewTime.Milliseconds() ||
			g.VideoLength.Milliseconds() != w.VideoLength.Milliseconds() {
			t.Fatalf("action %d differs: %+v vs %+v", i, g, w)
		}
	}
}

func TestReadActionsSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1000\tu1\tv1\tclick\t0\t0\n"
	got, err := ReadActions(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].UserID != "u1" {
		t.Errorf("ReadActions = %+v", got)
	}
}

func TestReadActionsRejectsMalformed(t *testing.T) {
	cases := []string{
		"1000\tu1\tv1\tclick\t0",      // missing field
		"xxx\tu1\tv1\tclick\t0\t0",    // bad timestamp
		"1000\tu1\tv1\tnope\t0\t0",    // bad action type
		"1000\tu1\tv1\tclick\tbad\t0", // bad view time
		"1000\tu1\tv1\tclick\t0\tbad", // bad length
		"1000\t\tv1\tclick\t0\t0",     // empty user id
		"1000\tu1\t\tclick\t0\t0",     // empty video id
	}
	for i, in := range cases {
		if _, err := ReadActions(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: malformed line accepted", i)
		}
	}
}

func TestCatalogTSVRoundTrip(t *testing.T) {
	d := mustGenerate(t, smallConfig())
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, d.Videos()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(d.Videos()) {
		t.Fatalf("catalog round trip: %d vs %d", len(got), len(d.Videos()))
	}
	for i, v := range d.Videos() {
		if got[i] != v.Meta {
			t.Fatalf("video %d differs: %+v vs %+v", i, got[i], v.Meta)
		}
	}
	if _, err := ReadCatalog(strings.NewReader("a\tb")); err == nil {
		t.Error("malformed catalog line accepted")
	}
}

func TestProfilesTSVRoundTrip(t *testing.T) {
	d := mustGenerate(t, smallConfig())
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, d.Users()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfiles(&buf)
	if err != nil {
		t.Fatal(err)
	}
	registered := 0
	byID := map[string]bool{}
	for _, u := range d.Users() {
		if u.Profile.Registered {
			registered++
			byID[u.ID] = true
		}
	}
	if len(got) != registered {
		t.Fatalf("profiles round trip: %d vs %d registered", len(got), registered)
	}
	for _, p := range got {
		if !byID[p.UserID] {
			t.Errorf("unexpected profile %s", p.UserID)
		}
		if !p.Registered {
			t.Error("read profile not marked registered")
		}
	}
	if _, err := ReadProfiles(strings.NewReader("u\t1\t2")); err == nil {
		t.Error("malformed profile line accepted")
	}
}
