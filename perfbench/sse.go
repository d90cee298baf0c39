package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// eventKind is the SSE event name planed sends.
type eventKind int

const (
	evSnapshot eventKind = iota + 1
	evDiff
	evEnd
)

// sseEvent is one framed server-sent event. Data aliases the reader's
// buffer and is valid until the next call to next.
type sseEvent struct {
	Kind  eventKind
	ID    uint64
	HasID bool
	Data  []byte
	Bytes int // wire bytes of the whole event, blank line included
}

// sseReader frames an event stream without decoding its JSON, so the
// client stays cheap next to the daemon it measures.
type sseReader struct {
	br   *bufio.Reader
	long []byte // assembly buffer for a line longer than br's buffer
	data []byte
}

func newSSEReader(r io.Reader) *sseReader {
	return &sseReader{br: bufio.NewReaderSize(r, 1<<20)}
}

// line returns the next line without its newline.
func (r *sseReader) line() ([]byte, error) {
	l, err := r.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		r.long = append(r.long[:0], l...)
		for errors.Is(err, bufio.ErrBufferFull) {
			l, err = r.br.ReadSlice('\n')
			r.long = append(r.long, l...)
		}
		l = r.long
	}
	if err != nil {
		if err == io.EOF && len(l) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return l[:len(l)-1], nil
}

// next returns the next event. A field planed never sends, an unknown
// event name or an unparsable id is an error: the stream is malformed.
func (r *sseReader) next() (sseEvent, error) {
	var ev sseEvent
	r.data = r.data[:0]
	hasData := false
	for {
		l, err := r.line()
		if err != nil {
			return ev, err
		}
		ev.Bytes += len(l) + 1
		if len(l) == 0 {
			if ev.Bytes == 1 {
				ev.Bytes = 0
				continue // stray blank line between events
			}
			if ev.Kind == 0 || !hasData {
				return ev, fmt.Errorf("sse: event without name or data")
			}
			ev.Data = r.data
			return ev, nil
		}
		field, val, ok := bytes.Cut(l, []byte(": "))
		if !ok {
			return ev, fmt.Errorf("sse: bad line %.40q", l)
		}
		switch string(field) {
		case "event":
			switch string(val) {
			case "snapshot":
				ev.Kind = evSnapshot
			case "diff":
				ev.Kind = evDiff
			case "end":
				ev.Kind = evEnd
			default:
				return ev, fmt.Errorf("sse: unknown event %q", val)
			}
		case "id":
			n, err := strconv.ParseUint(string(val), 10, 64)
			if err != nil {
				return ev, fmt.Errorf("sse: bad id %q", val)
			}
			ev.ID, ev.HasID = n, true
		case "data":
			r.data = append(r.data, val...)
			hasData = true
		default:
			return ev, fmt.Errorf("sse: unexpected field %q", field)
		}
	}
}

// seqTracker checks one stream's sequence numbers: each event must
// follow the previous one, except that a snapshot may jump ahead — the
// daemon's resync after its ring dropped events for this subscriber.
type seqTracker struct {
	last    uint64
	started bool
	resyncs int
}

// observe folds in one event's kind and id.
func (t *seqTracker) observe(kind eventKind, id uint64) error {
	if !t.started {
		if kind != evSnapshot {
			return fmt.Errorf("seq: stream starts with %v, want a snapshot", kind)
		}
		t.last, t.started = id, true
		return nil
	}
	switch {
	case id <= t.last:
		return fmt.Errorf("seq: %d after %d", id, t.last)
	case kind == evSnapshot:
		t.resyncs++
	case id != t.last+1:
		return fmt.Errorf("seq: gap %d..%d not healed by a snapshot", t.last+1, id-1)
	}
	t.last = id
	return nil
}

// checkHead verifies that an event's JSON opens with the floor id and
// the same seq as the SSE id — a prefix check instead of a decode.
func checkHead(data []byte, floor string, id uint64) error {
	want := `{"floor":` + strconv.Quote(floor) + `,"seq":` + strconv.FormatUint(id, 10) + `,`
	if !bytes.HasPrefix(data, []byte(want)) || data[len(data)-1] != '}' {
		return fmt.Errorf("sse: event %d data does not open with %s", id, want)
	}
	return nil
}

func (k eventKind) String() string {
	switch k {
	case evSnapshot:
		return "snapshot"
	case evDiff:
		return "diff"
	case evEnd:
		return "end"
	}
	return "event(" + strconv.Itoa(int(k)) + ")"
}
