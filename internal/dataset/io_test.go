package dataset

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"vidrec/internal/feedback"
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

// malformedActionLines are action lines ParseAction must refuse; they also
// seed FuzzParseAction.
var malformedActionLines = []string{
	"1000\tu1\tv1\tclick\t0",      // missing field
	"xxx\tu1\tv1\tclick\t0\t0",    // bad timestamp
	"1000\tu1\tv1\tnope\t0\t0",    // bad action type
	"1000\tu1\tv1\tclick\tbad\t0", // bad view time
	"1000\tu1\tv1\tclick\t0\tbad", // bad length
	"1000\t\tv1\tclick\t0\t0",     // empty user id
	"1000\tu1\t\tclick\t0\t0",     // empty video id
}

func TestReadActionsRejectsMalformed(t *testing.T) {
	for i, in := range malformedActionLines {
		if _, err := ReadActions(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: malformed line accepted", i)
		}
	}
}

// TestActionReaderMatchesReadActions: the streaming reader yields exactly
// the actions ReadActions returns, over a log with comments, blank lines and
// CRLF line ends, and both recover what WriteActions wrote.
func TestActionReaderMatchesReadActions(t *testing.T) {
	cfg := smallConfig()
	cfg.EventsPerDay = 200
	want := mustGenerate(t, cfg).AllActions()
	var buf bytes.Buffer
	if err := WriteActions(&buf, want); err != nil {
		t.Fatal(err)
	}
	var tsv strings.Builder
	tsv.WriteString("# ts\tuser\tvideo\taction\tview_ms\tlength_ms\r\n\r\n")
	for i, line := range strings.SplitAfter(buf.String(), "\n") {
		tsv.WriteString(strings.Replace(line, "\n", "\r\n", 1))
		if i%7 == 3 {
			tsv.WriteString("\r\n  # a comment\r\n")
		}
	}
	in := tsv.String()

	all, err := ReadActions(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []feedback.Action
	r := NewActionReader(strings.NewReader(in))
	for a, ok := r.Next(); ok; a, ok = r.Next() {
		streamed = append(streamed, a)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, all) {
		t.Fatalf("reader yielded %d actions, ReadActions %d; they differ", len(streamed), len(all))
	}
	if len(all) != len(want) {
		t.Fatalf("read %d actions, wrote %d", len(all), len(want))
	}
	for i, w := range want {
		g := all[i]
		if g.UserID != w.UserID || g.VideoID != w.VideoID || g.Type != w.Type ||
			g.Timestamp.UnixMilli() != w.Timestamp.UnixMilli() ||
			g.ViewTime.Milliseconds() != w.ViewTime.Milliseconds() ||
			g.VideoLength.Milliseconds() != w.VideoLength.Milliseconds() {
			t.Fatalf("action %d differs: %+v vs %+v", i, g, w)
		}
	}
}

// TestActionReaderStopsAtMalformedLine: the reader yields the actions before
// a malformed line, then stops with the error ReadActions returns for the
// same log, and stays stopped.
func TestActionReaderStopsAtMalformedLine(t *testing.T) {
	in := "# log\n1000\tu1\tv1\tclick\t0\t0\n\n1001\tu1\tv2\n1002\tu2\tv1\tclick\t0\t0\n"
	_, want := ReadActions(strings.NewReader(in))
	if want == nil || want.Error() != "dataset: line 4: 3 fields, want 6" {
		t.Fatalf("ReadActions error = %v, want the line 4 field-count error", want)
	}
	r := NewActionReader(strings.NewReader(in))
	if a, ok := r.Next(); !ok || a.VideoID != "v1" {
		t.Fatalf("first Next = %+v, %v; want the line 2 action", a, ok)
	}
	for i := 0; i < 2; i++ {
		if a, ok := r.Next(); ok {
			t.Fatalf("Next after the malformed line yielded %+v", a)
		}
	}
	if err := r.Err(); err == nil || err.Error() != want.Error() {
		t.Errorf("reader error = %v, want %v", err, want)
	}
}

// TestParseActionAllocs pins the parser every replayed and POSTed line runs
// through: a valid line allocates nothing.
func TestParseActionAllocs(t *testing.T) {
	line := "1457308800000\tu00001\tv00042\tplaytime\t600000\t1800000\r"
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok, err := ParseAction(line); !ok || err != nil {
			t.Fatalf("ParseAction(%q) = %v, %v", line, ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("ParseAction allocates %.1f times per valid line, want 0", allocs)
	}
}

// parseActionSplit is ParseAction as it was written over strings.Split: the
// reference FuzzParseAction holds the allocation-free parser to.
func parseActionSplit(line string) (a feedback.Action, ok bool, err error) {
	text := strings.TrimSpace(line)
	if text == "" || strings.HasPrefix(text, "#") {
		return a, false, nil
	}
	fields := strings.Split(text, "\t")
	if len(fields) != 6 {
		return a, false, fmt.Errorf("%d fields, want 6", len(fields))
	}
	if fields[1] == "" || fields[2] == "" {
		return a, false, fmt.Errorf("empty user or video id")
	}
	ts, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return a, false, fmt.Errorf("bad timestamp: %w", err)
	}
	typ, err := feedback.ParseActionType(fields[3])
	if err != nil {
		return a, false, err
	}
	view, err := strconv.ParseInt(fields[4], 10, 64)
	if err != nil {
		return a, false, fmt.Errorf("bad view time: %w", err)
	}
	length, err := strconv.ParseInt(fields[5], 10, 64)
	if err != nil {
		return a, false, fmt.Errorf("bad video length: %w", err)
	}
	return feedback.Action{
		UserID:      fields[1],
		VideoID:     fields[2],
		Type:        typ,
		ViewTime:    time.Duration(view) * time.Millisecond,
		VideoLength: time.Duration(length) * time.Millisecond,
		Timestamp:   time.UnixMilli(ts),
	}, true, nil
}

// FuzzParseAction holds ParseAction to its strings.Split reference: the same
// action, the same ok, the same error text, on any line.
func FuzzParseAction(f *testing.F) {
	for _, line := range malformedActionLines {
		f.Add(line)
	}
	for _, line := range []string{
		"1000\tu1\tv1\tclick\t0\t0",
		"1457308800000\tu00001\tv00042\tplaytime\t600000\t1800000\r",
		"  1000\tu1\tv1\tplay\t5\t9\r\n",
		"# comment\twith\ttabs",
		"   #",
		"",
		" \t\r",
		"\t\t\t\t\t",
		"1000\tu1\tv1\tclick\t0\t0\t",
		"1000\tu1\tv1\tclick\t0\t0\textra\tfields",
		"-1\tu1\tv1\timpress\t-5\t+7",
		"99999999999999999999\tu1\tv1\tclick\t0\t0",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, gotOK, gotErr := ParseAction(line)
		want, wantOK, wantErr := parseActionSplit(line)
		if got != want || gotOK != wantOK {
			t.Fatalf("ParseAction(%q) = %+v, %v; reference %+v, %v", line, got, gotOK, want, wantOK)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("ParseAction(%q) error = %v; reference %v", line, gotErr, wantErr)
		}
	})
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
