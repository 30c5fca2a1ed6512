package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"vidrec/internal/catalog"
	"vidrec/internal/demographic"
	"vidrec/internal/feedback"
)

// TSV serialization for action streams and entity tables, so generated
// workloads can be inspected, versioned, and replayed by external tools.
// One action per line:
//
//	ts_ms <TAB> user <TAB> video <TAB> action <TAB> view_ms <TAB> length_ms

// WriteActions writes actions as TSV.
func WriteActions(w io.Writer, actions []feedback.Action) error {
	bw := bufio.NewWriter(w)
	for _, a := range actions {
		_, err := fmt.Fprintf(bw, "%d\t%s\t%s\t%s\t%d\t%d\n",
			a.Timestamp.UnixMilli(), a.UserID, a.VideoID, a.Type,
			a.ViewTime.Milliseconds(), a.VideoLength.Milliseconds())
		if err != nil {
			return fmt.Errorf("dataset: write action: %w", err)
		}
	}
	return bw.Flush()
}

// ReadActions parses a TSV action stream written by WriteActions.
func ReadActions(r io.Reader) ([]feedback.Action, error) {
	var out []feedback.Action
	ar := NewActionReader(r)
	for a, ok := ar.Next(); ok; a, ok = ar.Next() {
		out = append(out, a)
	}
	if err := ar.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ActionReader streams a TSV action log one line at a time, so a consumer
// holds only the action it is on, never the whole log. Next reports false
// at the end of the stream or at the first malformed line; Err then says
// which. It satisfies topology.Source.
type ActionReader struct {
	sc   *bufio.Scanner
	line int
	err  error
}

// NewActionReader returns a reader over a TSV action stream written by
// WriteActions. Lines may be up to 1 MiB long.
func NewActionReader(r io.Reader) *ActionReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &ActionReader{sc: sc}
}

// Next returns the next action, skipping blank lines and #-comments.
func (r *ActionReader) Next() (feedback.Action, bool) {
	for r.err == nil && r.sc.Scan() {
		r.line++
		a, ok, err := ParseAction(r.sc.Text())
		if err != nil {
			r.err = fmt.Errorf("dataset: line %d: %w", r.line, err)
			break
		}
		if ok {
			return a, true
		}
	}
	if err := r.sc.Err(); err != nil && r.err == nil {
		r.err = fmt.Errorf("dataset: read actions: %w", err)
	}
	return feedback.Action{}, false
}

// Err returns the error that ended the stream: a malformed line, numbered
// from 1, or a read failure. It is nil while the stream is good and after a
// clean end.
func (r *ActionReader) Err() error { return r.err }

// ParseAction parses one line of the TSV action format. Blank lines and
// #-comments are not actions: ok is false. Errors say what is wrong with the
// line; which line it was is the caller's to add. A valid line allocates
// nothing: the action's ids are substrings of line.
func ParseAction(line string) (a feedback.Action, ok bool, err error) {
	text := strings.TrimSpace(line)
	if text == "" || strings.HasPrefix(text, "#") {
		return a, false, nil
	}
	if n := strings.Count(text, "\t") + 1; n != 6 {
		return a, false, fmt.Errorf("%d fields, want 6", n)
	}
	tsField, rest, _ := strings.Cut(text, "\t")
	user, rest, _ := strings.Cut(rest, "\t")
	video, rest, _ := strings.Cut(rest, "\t")
	typeField, rest, _ := strings.Cut(rest, "\t")
	viewField, lengthField, _ := strings.Cut(rest, "\t")
	if user == "" || video == "" {
		return a, false, fmt.Errorf("empty user or video id")
	}
	ts, err := strconv.ParseInt(tsField, 10, 64)
	if err != nil {
		return a, false, fmt.Errorf("bad timestamp: %w", err)
	}
	typ, err := feedback.ParseActionType(typeField)
	if err != nil {
		return a, false, err
	}
	view, err := strconv.ParseInt(viewField, 10, 64)
	if err != nil {
		return a, false, fmt.Errorf("bad view time: %w", err)
	}
	length, err := strconv.ParseInt(lengthField, 10, 64)
	if err != nil {
		return a, false, fmt.Errorf("bad video length: %w", err)
	}
	return feedback.Action{
		UserID:      user,
		VideoID:     video,
		Type:        typ,
		ViewTime:    time.Duration(view) * time.Millisecond,
		VideoLength: time.Duration(length) * time.Millisecond,
		Timestamp:   time.UnixMilli(ts),
	}, true, nil
}

// WriteCatalog writes the video catalog as TSV: id, type, length_ms.
func WriteCatalog(w io.Writer, videos []Video) error {
	bw := bufio.NewWriter(w)
	for i := range videos {
		m := videos[i].Meta
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%d\n", m.ID, m.Type, m.Length.Milliseconds()); err != nil {
			return fmt.Errorf("dataset: write catalog: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCatalog parses a TSV catalog written by WriteCatalog.
func ReadCatalog(r io.Reader) ([]catalog.Video, error) {
	var out []catalog.Video
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != 3 {
			return nil, fmt.Errorf("dataset: catalog line %d: %d fields, want 3", line, len(fields))
		}
		ms, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: catalog line %d: bad length: %w", line, err)
		}
		out = append(out, catalog.Video{
			ID: fields[0], Type: fields[1],
			Length: time.Duration(ms) * time.Millisecond,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read catalog: %w", err)
	}
	return out, nil
}

// WriteProfiles writes registered users' profiles as TSV:
// user, gender, age, education.
func WriteProfiles(w io.Writer, users []User) error {
	bw := bufio.NewWriter(w)
	for i := range users {
		p := users[i].Profile
		if !p.Registered {
			continue
		}
		_, err := fmt.Fprintf(bw, "%s\t%d\t%d\t%d\n", p.UserID, p.Gender, p.Age, p.Education)
		if err != nil {
			return fmt.Errorf("dataset: write profiles: %w", err)
		}
	}
	return bw.Flush()
}

// ReadProfiles parses a TSV profile table written by WriteProfiles.
func ReadProfiles(r io.Reader) ([]demographic.Profile, error) {
	var out []demographic.Profile
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != 4 {
			return nil, fmt.Errorf("dataset: profile line %d: %d fields, want 4", line, len(fields))
		}
		nums := make([]int, 3)
		for i := 0; i < 3; i++ {
			n, err := strconv.Atoi(fields[i+1])
			if err != nil {
				return nil, fmt.Errorf("dataset: profile line %d: %w", line, err)
			}
			nums[i] = n
		}
		out = append(out, demographic.Profile{
			UserID:     fields[0],
			Registered: true,
			Gender:     demographic.Gender(nums[0]),
			Age:        demographic.AgeBand(nums[1]),
			Education:  demographic.Education(nums[2]),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read profiles: %w", err)
	}
	return out, nil
}
